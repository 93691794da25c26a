"""Per-layer probes for trace runs.

Every trace run reports every per-layer metric.  A workload measures
the layers on its own path around its own calls; :func:`probe` measures
the rest by calling each layer's public functions on the workload's own
graph and request seeds, outside the workload's timed window.  All
probe time goes to spans, none to the end-to-end metrics.
"""

from __future__ import annotations

import http.client
import json
import os
import pickle
from typing import Dict, List, Sequence

import numpy as np

import repro

from repro.core import engines as engine_registry
from repro.core.orderings import random_priorities
from repro.dynamic.incremental import IncrementalMIS
from repro.dynamic.store import SnapshotStore
from repro.kernels import (
    partition_cache_stats,
    rank_sorted_incidence,
    split_parents_children,
)
from repro.observability import KernelCounters, MemorySink, Tracer
from repro.observability.counters import KERNEL_NAMES
from repro.robustness.validate import check_csr_graph, check_edge_list, check_ranks
from repro.service import SolveRequest, SolverService
from repro.service import schema as wire_schema
from repro.service.cache import request_key
from repro.service.http import GatewayConfig, HTTPGateway

from common import (
    SpanLog, clock, metric, ms, p50, segment_left, toggle_batches, toggle_deletions,
)

GRAPH = "probe"
#: Frontier kernels reported one by one.  ``sorted_segment_min`` serves
#: only the full-graph ``parallel`` engine; no ``rootset-vec`` engine
#: calls it, so its numbers would read 0 on every run.
KERNELS = tuple(k for k in KERNEL_NAMES if k != "sorted_segment_min")
#: Probe repetitions per layer call (each on fresh priorities).
REPEATS = 4
#: Session mutations per off-path probe (each ~1 s on the 100k-edge graphs).
OFF_PATH_BATCHES = 2
#: Offset from a probe seed to the seed of its front-door solve.
FRONT_DOOR_SEED = 1_000_003


def probe(graph, seeds: Sequence[int], workdir: str, skip: Dict[str, object]):
    """Every per-layer metric, measured on *graph*; keys in *skip* (the
    workload's own measurements) are left to the caller."""
    log = SpanLog()
    out: Dict[str, Dict[str, object]] = {}
    out.update(_engine(graph, seeds, log))
    out.update(_service_and_gateway(graph, seeds, workdir, log))
    if not all(k in skip for k in ("dynamic.apply_ms", "store.save_ms")):
        out.update(_dynamic_local(graph, seeds[0], workdir))
    return {k: v for k, v in out.items() if k not in skip}


# ---------------------------------------------------------------------------
# validate / partition / kernels / engine
# ---------------------------------------------------------------------------


def decomposed_solve(log: SpanLog, i: int, problem: str, payload, ranks):
    """The front door's three steps, each in its own span: ``check_ranks``,
    the graph check, and the registry engine.  Returns the engine result
    and the validated ranks."""
    reg = "mis" if problem == "mis" else "matching"
    check_graph = check_csr_graph if problem == "mis" else check_edge_list
    r = log.timed(f"validate.check_ranks.{problem}", i, check_ranks, ranks, len(ranks))
    log.timed(f"validate.check_graph.{problem}", i, check_graph, payload)
    res = log.timed(f"engine.compute.{problem}", i,
                    engine_registry.dispatch, reg, "rootset-vec", payload, r)
    return res, r


def kernel_probe(log: SpanLog, i: int, problem: str, payload, ranks, kernels, rounds):
    """A cold partition build, then one engine call under
    :class:`KernelCounters` and a :class:`Tracer`; appends the kernel
    totals to *kernels* and the round wall times to *rounds*."""
    reg = "mis" if problem == "mis" else "matching"
    build = split_parents_children if problem == "mis" else rank_sorted_incidence
    log.timed("partition.build", i, build, payload, ranks, use_cache=False)
    tracer = Tracer(MemorySink())
    with KernelCounters() as kc:
        engine_registry.dispatch(reg, "rootset-vec", payload, ranks, tracer=tracer)
    kernels.append(kc.snapshot())
    rounds.extend(e["wall_time"] for e in tracer.sink.events if e.get("event") == "round")


def _engine(graph, seeds, log: SpanLog):
    el = graph.edge_list()
    kernels: List[Dict[str, Dict[str, float]]] = []
    rounds: List[float] = []
    steps, work = [], []
    hits = misses = 0
    front = {"mis": [], "mm": []}
    for i, s in enumerate(seeds):
        for problem, payload, size in (
            ("mis", graph, graph.num_vertices), ("mm", el, el.num_edges)
        ):
            before = partition_cache_stats()
            res, r = decomposed_solve(log, i, problem, payload, random_priorities(size, s))
            after = partition_cache_stats()
            hits += after["hits"] - before["hits"]
            misses += after["misses"] - before["misses"]
            steps.append(res.stats.steps)
            work.append(res.stats.work)
            kernel_probe(log, i, problem, payload, r, kernels, rounds)
            # The whole front door on priorities no cache has seen.
            fresh = random_priorities(size, s + FRONT_DOOR_SEED)
            t0 = clock()
            repro.solve(problem, payload, fresh, method="rootset-vec")
            front[problem].append(clock() - t0)
    out = engine_metrics(log, kernels, rounds, steps, work, hits, misses)
    out.update(account(log, {p: ms(p50(v)) for p, v in front.items()}))
    return out


def account(log, front_ms) -> Dict[str, Dict[str, object]]:
    """(check_ranks + graph check + engine) / front-door p50, per problem."""
    out = {}
    for problem in ("mis", "mm"):
        parts = sum(
            log.median_ms(f"{layer}.{problem}")
            for layer in ("validate.check_ranks", "validate.check_graph", "engine.compute")
        )
        out[f"account.{problem}_ratio"] = metric(parts / front_ms[problem], "ratio")
    return out


def engine_metrics(log, kernels, rounds, steps, work, hits, misses):
    """validate/partition/kernels/engine metrics from recorded spans and counts."""
    out: Dict[str, Dict[str, object]] = {}
    for layer in ("validate.check_ranks", "validate.check_graph", "engine.compute"):
        both = log.seconds(f"{layer}.mis") + log.seconds(f"{layer}.mm")
        out[f"{layer}_ms"] = metric(ms(p50(both)), "ms")
        for problem in ("mis", "mm"):
            out[f"{layer}_ms.{problem}"] = metric(log.median_ms(f"{layer}.{problem}"), "ms")
    out["partition.build_ms"] = metric(log.median_ms("partition.build"), "ms")
    lookups = hits + misses
    out["partition.hit_ratio"] = metric(hits / lookups if lookups else 0.0, "ratio")
    out["partition.lookups"] = metric(lookups, "count")
    n = len(kernels)
    every = [c for k in kernels for c in k.values()]
    out["kernels.calls"] = metric(sum(c["calls"] for c in every) / n, "count")
    out["kernels.elements"] = metric(sum(c["elements"] for c in every) / n, "count")
    out["kernels.time_ms"] = metric(ms(sum(c["seconds"] for c in every) / n), "ms")
    for name in KERNELS:
        out[f"kernels.{name}.time_ms"] = metric(
            ms(sum(k[name]["seconds"] for k in kernels) / n), "ms")
        out[f"kernels.{name}.elements"] = metric(
            sum(k[name]["elements"] for k in kernels) / n, "count")
    out["engine.steps"] = metric(p50(steps), "count")
    out["engine.work"] = metric(p50(work), "count")
    out["engine.round_ms"] = metric(ms(p50(rounds)), "ms")
    return out


# ---------------------------------------------------------------------------
# sharedmem / service / cache / schema / gateway / sessions
# ---------------------------------------------------------------------------


def _service_and_gateway(graph, seeds, workdir, log: SpanLog):
    """An in-thread gateway over a fresh service (two workers, a 16-entry
    cache, sessions persisted under *workdir*), driven by probe calls."""
    session_dir = os.path.join(workdir, "probe-sessions")
    service = SolverService(workers=2, cache_entries=16, session_dir=session_dir)
    gateway = HTTPGateway(service, GatewayConfig())
    gateway.start_in_thread()
    segment = None
    out: Dict[str, Dict[str, object]] = {}
    try:
        shared = log.timed("sharedmem.register", 0, service.register_graph, graph)
        segment = shared.name
        gateway.add_graph(GRAPH, graph)
        replies, retries = [], 0
        for i, s in enumerate(seeds):
            req = SolveRequest("mis", graph, method="rootset-vec", options={"seed": s})
            log.timed("cache.key", i, request_key, "mis", graph, None, "rootset-vec",
                      None, {"seed": s})
            result = log.timed("service.solve", i, service.solve, req)
            replies.append(len(pickle.dumps(result)))
            retries += result.stats.aux["service"]["retries"]
            log.timed("service.call", i, service.solve,
                      SolveRequest("call", {"module": "os", "func": "getpid"}))
            wire = {"problem": "mis", "graph": GRAPH, "seed": s, "method": "rootset-vec"}
            decoded, _ = log.timed(
                "schema.decode", i, wire_schema.decode_solve, wire,
                graph_resolver=lambda name, problem: (graph, None))
            body = log.timed("schema.encode", i, _encode, decoded, result)
            out["http.request_bytes"] = metric(len(json.dumps(wire)), "bytes")
            out["http.response_bytes"] = metric(len(body), "bytes")
        client = []
        conn = http.client.HTTPConnection(*gateway.address, timeout=60)
        try:
            for s in list(seeds) + list(seeds):  # each seed: a miss, then a hit
                payload = json.dumps({"problem": "mis", "graph": GRAPH, "seed": s,
                                      "method": "rootset-vec"}).encode()
                t0 = clock()
                conn.request("POST", "/v1/solve", body=payload,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                resp.read()
                client.append(clock() - t0)
                if resp.status != 200:
                    raise RuntimeError(f"probe solve failed with HTTP {resp.status}")
            conn.request("GET", "/v1/metrics")
            metrics = json.loads(conn.getresponse().read())
        finally:
            conn.close()
        route = metrics["endpoints"]["POST /v1/solve"]["latency_p50"]
        cache = metrics["service"]
        lookups = cache["cache_hits"] + cache["cache_misses"]
        out["gateway.route_p50_ms"] = metric(ms(route), "ms")
        out["http.wire_ms"] = metric(ms(p50(client)) - ms(route), "ms")
        out["cache.hit_ratio"] = metric(cache["cache_hits"] / lookups, "ratio")
        out["cache.lookups"] = metric(lookups, "count")
        out.update(_session(service, graph, seeds[0], log))
    finally:
        gateway.stop_in_thread()
    left = segment_left(segment) if segment else []
    if left:
        raise RuntimeError(f"probe: {left[0]}")
    solve_ms = log.median_ms("service.solve")
    out["sharedmem.register_ms"] = metric(log.median_ms("sharedmem.register"), "ms")
    out["service.solve_ms"] = metric(solve_ms, "ms")
    out["service.overhead_ms"] = metric(
        solve_ms - log.median_ms("validate.check_ranks.mis")
        - log.median_ms("validate.check_graph.mis")
        - log.median_ms("engine.compute.mis"), "ms")
    out["service.call_rtt_ms"] = metric(log.median_ms("service.call"), "ms")
    out["service.reply_bytes"] = metric(p50(replies), "bytes")
    out["service.retries"] = metric(retries, "count")
    out["service.requests"] = metric(len(replies), "count")
    out["cache.key_ms"] = metric(log.median_ms("cache.key"), "ms")
    out["schema.decode_ms"] = metric(log.median_ms("schema.decode"), "ms")
    out["schema.encode_ms"] = metric(log.median_ms("schema.encode"), "ms")
    return out


def _encode(request, result) -> bytes:
    return json.dumps(wire_schema.encode_result(request, result),
                      separators=(",", ":"), sort_keys=True).encode()


def _session(service, graph, seed, log: SpanLog):
    """One persisted MIS session on *graph*: toggle mutates and reads."""
    rng = np.random.default_rng(seed)
    el = graph.edge_list()
    ranks = rng.permutation(graph.num_vertices)
    sid = service.create_session("mis", graph, ranks).session_id
    batches = toggle_batches(
        el.u, el.v, toggle_deletions(el.num_edges, OFF_PATH_BATCHES, 4, rng))
    local = IncrementalMIS(graph, ranks)
    for k, (ins, dels) in enumerate(batches):
        log.timed("session.mutate", k, service.mutate_session, sid, ins, dels,
                  mutation_id=f"probe-{k}")
        log.timed("dynamic.apply", k, local.apply_batch, ins, dels)
        log.timed("session.result", k, service.session_result, sid)
    service.close_session(sid, delete_snapshot=True)
    mutate = log.median_ms("session.mutate")
    apply = log.median_ms("dynamic.apply")
    return {
        "session.mutate_ms": metric(mutate, "ms"),
        "session.result_ms": metric(log.median_ms("session.result"), "ms"),
        "session.overhead_ms": metric(mutate - apply, "ms"),
    }


# ---------------------------------------------------------------------------
# dynamic / store
# ---------------------------------------------------------------------------


def dynamic_metrics(maintainers, batches, workdir) -> Dict[str, Dict[str, object]]:
    """Replay toggle *batches* on local maintainers; time apply, state
    transfer and snapshot saves.

    *maintainers* maps a problem to a fresh maintainer; *batches* maps
    it to the ``(insertions, deletions)`` list to apply in order.
    """
    log = SpanLog()
    affected, work, scratch, state_bytes, store_bytes = [], 0, 0, [], []
    store = SnapshotStore(os.path.join(workdir, "probe-store"))
    for problem, maintainer in maintainers.items():
        for k, (ins, dels) in enumerate(batches[problem]):
            stats = log.timed("dynamic.apply", k, maintainer.apply_batch, ins, dels)
            affected.append(stats["affected"])
            work += stats["work"]
            scratch += stats["scratch_work"]
            if k % 16 == 0:
                state = log.timed("dynamic.to_state", k, maintainer.to_state)
                log.timed("dynamic.from_state", k, type(maintainer).from_state, state)
                state_bytes.append(len(json.dumps(state)))
                path = log.timed("store.save", k, store.save, f"probe-{problem}",
                                 {"state": state, "version": k})
                store_bytes.append(os.path.getsize(path))
    for sid in store.list_ids():
        store.delete(sid)
    return {
        "dynamic.apply_ms": metric(log.median_ms("dynamic.apply"), "ms"),
        "dynamic.from_state_ms": metric(log.median_ms("dynamic.from_state"), "ms"),
        "dynamic.to_state_ms": metric(log.median_ms("dynamic.to_state"), "ms"),
        "dynamic.state_bytes": metric(p50(state_bytes), "bytes"),
        "dynamic.affected": metric(p50(affected), "count"),
        "dynamic.work_ratio": metric(work / scratch, "ratio"),
        "dynamic.scratch_work": metric(scratch / len(affected), "count"),
        "store.save_ms": metric(log.median_ms("store.save"), "ms"),
        "store.bytes": metric(p50(store_bytes), "bytes"),
    }


def _dynamic_local(graph, seed, workdir):
    """Off-path dynamic probe: an MIS maintainer only, to keep trace runs
    on the 100k-edge graphs short."""
    rng = np.random.default_rng(seed)
    el = graph.edge_list()
    batches = toggle_batches(
        el.u, el.v, toggle_deletions(el.num_edges, 2 * OFF_PATH_BATCHES, 4, rng))
    maintainer = IncrementalMIS(graph, rng.permutation(graph.num_vertices))
    return dynamic_metrics({"mis": maintainer}, {"mis": batches}, workdir)
