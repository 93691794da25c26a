"""``http-solve``: ``POST /v1/solve`` against a gateway in its own process.

The gateway runs as deployed, ``python -m repro.cli serve --http``, with
two workers and a 16-entry result cache; the benchmark registers the
paper's small random graph (n=20k, m=100k) through ``POST /v1/graphs``
and warms a hot set of seeds during set-up.  One client sends
pre-encoded request bodies over one keep-alive connection in a closed
loop; with two, a request waits behind the other connection's reply
encoding in the gateway's event loop and MIS misses spread over 17-120
ms.

Op mix: one op in three reuses a hot seed (a cache hit); the rest use
fresh seeds (misses); within hits and within misses, two of every three
are MIS.  Fresh seeds come from per-problem pools that cycle: a seed
recurs only after 72 other distinct requests, more than the result
cache (16) and the gateway's encoded-response cache (at least 64) hold,
so it misses both again; the traced run reports the service's measured
``cache.hit_ratio`` (one in three).  Mixes of 1:1 would put each median
on the boundary between two latency modes (hits ~3 ms, misses 15-110
ms), where it jumps from run to run.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bench.workloads import paper_random_graph
from repro.core.matching import sequential_greedy_matching
from repro.core.mis import sequential_greedy_mis
from repro.core.orderings import random_priorities
from repro.pram.machine import null_machine

from common import (
    Op, SpanLog, clock, metric, ms, nth, p50, process_tree, segment_left, still_running,
    vm_hwm_mb,
)

WORKERS = 2
CACHE_ENTRIES = 16
KIND_CYCLE = ("miss", "miss", "hit")
PROBLEM_CYCLE = ("mis", "mis", "mm")
#: Fresh-seed pool sizes; MIS:MM misses run 2:1, so each seed recurs
#: after 72 distinct other requests.
FRESH = {"mis": 48, "mm": 24}
HOT = {"mis": 2, "mm": 2}
SETUP_REPEATS = 3
GRAPH = "bench"


class _Gateway:
    """One gateway child process and what set-up registered in it."""

    def __init__(self, workdir: str) -> None:
        self.segment: Optional[str] = None
        # The gateway's log goes to a file: an unread pipe could fill and
        # block it.
        self.log = open(os.path.join(workdir, "gateway.log"), "ab")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--http", "127.0.0.1:0",
                "--workers", str(WORKERS),
                "--cache-entries", str(CACHE_ENTRIES),
            ],
            stdout=subprocess.PIPE, stderr=self.log, text=True, cwd=workdir,
        )
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"gateway did not start: {line!r}; see {self.log.name}")
        hostport = line.split("http://", 1)[1].split()[0]
        host, port = hostport.rsplit(":", 1)
        self.address = (host, int(port))

    def request(self, method: str, path: str, body: bytes = b""):
        conn = http.client.HTTPConnection(*self.address, timeout=60)
        try:
            conn.request(method, path, body=body or None,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, dict(resp.getheaders()), resp.read()
        finally:
            conn.close()

    def tree(self) -> List[int]:
        return process_tree(self.proc.pid)

    def stop(self) -> List[str]:
        """SIGTERM (graceful drain), then check nothing it owned is left."""
        problems: List[str] = []
        pids = self.tree() if self.proc.poll() is None else []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
                problems.append("gateway ignored SIGTERM and was killed")
        self.proc.stdout.close()
        self.log.close()
        for pid in still_running(pids[1:]):
            problems.append(f"gateway child process {pid} still running")
        if self.segment:
            problems += segment_left(self.segment)
        return problems


class HTTPSolve:
    def __init__(self, seed: int, scale: str, workdir: str) -> None:
        self.workdir = workdir
        self.graph = g = paper_random_graph(scale, seed=seed)
        self.el = el = g.edge_list()
        rng = np.random.default_rng(seed)
        # Distinct request seeds: hot ones first, then the fresh pools.
        seeds = rng.choice(2**31 - 1, size=sum(HOT.values()) + sum(FRESH.values()),
                           replace=False).tolist()
        self.hot: Dict[str, List[int]] = {}
        self.fresh: Dict[str, List[int]] = {}
        for problem in ("mis", "mm"):
            self.hot[problem] = [seeds.pop() for _ in range(HOT[problem])]
        for problem in ("mis", "mm"):
            self.fresh[problem] = [seeds.pop() for _ in range(FRESH[problem])]
        self.bodies: Dict[Tuple[str, int], bytes] = {}
        self.refs: Dict[Tuple[str, int], np.ndarray] = {}
        for problem in ("mis", "mm"):
            for s in self.hot[problem] + self.fresh[problem]:
                self.bodies[(problem, s)] = json.dumps({
                    "problem": problem, "graph": GRAPH, "seed": s,
                    "method": "rootset-vec",
                }).encode()
                if problem == "mis":
                    ref = sequential_greedy_mis(
                        g, random_priorities(g.num_vertices, s), machine=null_machine())
                else:
                    ref = sequential_greedy_matching(
                        el, random_priorities(el.num_edges, s), machine=null_machine())
                self.refs[(problem, s)] = ref.status
        self.register_body = json.dumps({
            "name": GRAPH, "n": g.num_vertices,
            "edges": np.stack([el.u, el.v], axis=1).tolist(),
        }).encode()
        self.gateway: Optional[_Gateway] = None

    # -- schedule ------------------------------------------------------------

    def op(self, i: int) -> Tuple[str, str, int]:
        """(kind, problem, request seed) of op *i*."""
        kind, k = nth(KIND_CYCLE, i)
        problem, j = nth(PROBLEM_CYCLE, k)
        pool = self.hot[problem] if kind == "hit" else self.fresh[problem]
        return kind, problem, pool[j % len(pool)]

    # -- set-up --------------------------------------------------------------

    def _setup_once(self) -> Tuple[_Gateway, float]:
        t0 = clock()
        gw = _Gateway(self.workdir)
        try:
            status, _, body = gw.request("POST", "/v1/graphs", self.register_body)
            if status != 200:
                raise RuntimeError(f"graph registration failed: {status} {body[:200]!r}")
            gw.segment = json.loads(body)["segment"]
            for problem in ("mis", "mm"):
                for s in self.hot[problem]:
                    status, _, body = gw.request(
                        "POST", "/v1/solve", self.bodies[(problem, s)])
                    if status != 200:
                        raise RuntimeError(f"warm-up failed: {status} {body[:200]!r}")
        except BaseException:
            gw.stop()
            raise
        return gw, clock() - t0

    def start(self) -> float:
        """Set-up time: gateway start, graph registration and hot-set
        warm-up, median of :data:`SETUP_REPEATS` fresh gateways."""
        times = []
        for r in range(SETUP_REPEATS):
            gw, seconds = self._setup_once()
            times.append(seconds)
            if r < SETUP_REPEATS - 1:
                problems = gw.stop()
                if problems:
                    raise RuntimeError("; ".join(problems))
            else:
                self.gateway = gw
        return p50(times)

    def stop(self) -> List[str]:
        return self.gateway.stop() if self.gateway is not None else []

    def rss_mb(self) -> float:
        """Peak RSS summed over the gateway and its workers."""
        return sum(vm_hwm_mb(pid) for pid in self.gateway.tree())

    # -- runs ----------------------------------------------------------------

    def run(self, seconds: float, trace: bool, corrupt: bool = False):
        ops: List[Tuple[Op, int]] = []
        # First 200 body per request; later bodies must equal it byte for byte.
        first: Dict[Tuple[str, int], bytes] = {}
        log = SpanLog()
        headers = {"Content-Type": "application/json"}
        conn = http.client.HTTPConnection(*self.gateway.address, timeout=60)
        start = clock()
        deadline = start + seconds
        i = 0
        try:
            while clock() < deadline:
                kind, problem, s = self.op(i)
                traced = trace and (i // 9) % 2 == 1
                t0 = clock()
                try:
                    conn.request("POST", "/v1/solve", body=self.bodies[(problem, s)],
                                 headers=headers)
                    t1 = clock()
                    resp = conn.getresponse()
                    data = resp.read()
                    status = resp.status
                    note = "" if status == 200 else f"HTTP {status}"
                except (OSError, http.client.HTTPException) as exc:
                    data, status, t1 = b"", 0, t0
                    note = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = http.client.HTTPConnection(*self.gateway.address, timeout=60)
                t2 = clock()
                if traced:
                    log.add("http.send", t1 - t0, i)
                    log.add("http.reply", t2 - t1, i, bytes=len(data))
                ok = status == 200 and first.setdefault((problem, s), data) == data
                ops.append((Op(f"{kind}-{problem}", problem, t2 - t0, ok, traced, note),
                            len(data)))
                i += 1
        finally:
            conn.close()
        window = clock() - start
        layers = None
        if trace:
            layers = self._layers(ops, log)
            log.write(os.path.join(self.workdir, "spans.jsonl"))
        if corrupt and first:
            key = next(iter(first))
            first[key] = first[key].replace(b'"status":[', b'"status":[9,', 1)
        # Each distinct body is decoded once and checked against the
        # sequential-greedy reference; every op that returned it shares
        # the verdict.
        verdict = {key: self._decode_ok(*key, data) for key, data in first.items()}
        out = []
        for i, (op, _) in enumerate(ops):
            _, problem, s = self.op(i)
            op.ok = op.ok and verdict[(problem, s)]
            out.append(op)
        return out, window, layers

    def _decode_ok(self, problem: str, s: int, data: bytes) -> bool:
        try:
            body = json.loads(data)
            status = np.asarray(body["status"], dtype=np.int8)
            ranks = np.asarray(body["ranks"], dtype=np.int64)
        except (ValueError, KeyError, TypeError):
            return False
        size = self.graph.num_vertices if problem == "mis" else self.el.num_edges
        ok = (
            np.array_equal(status, self.refs[(problem, s)])
            and np.array_equal(ranks, random_priorities(size, s))
        )
        if problem == "mm":
            ok = ok and np.array_equal(body["edge_u"], self.el.u) and np.array_equal(
                body["edge_v"], self.el.v)
        return bool(ok)

    def _layers(self, ops, log: SpanLog) -> Dict[str, Dict[str, object]]:
        import layers

        metrics = json.loads(self.gateway.request("GET", "/v1/metrics")[2])
        route = metrics["endpoints"]["POST /v1/solve"]
        service = metrics["service"]
        lookups = service["cache_hits"] + service["cache_misses"]
        untraced = [op.latency for op, _ in ops if not op.traced]
        traced = [op.latency for op, _ in ops if op.traced]
        client_p50 = ms(p50(untraced + traced))
        out = {
            "gateway.route_p50_ms": metric(ms(route["latency_p50"]), "ms"),
            "http.wire_ms": metric(client_p50 - ms(route["latency_p50"]), "ms"),
            "cache.hit_ratio": metric(service["cache_hits"] / lookups, "ratio"),
            "cache.lookups": metric(lookups, "count"),
            "http.request_bytes": metric(
                p50([len(b) for b in self.bodies.values()]), "bytes"),
            "http.response_bytes": metric(
                p50([size for op, size in ops if op.ok]), "bytes"),
            "trace.overhead_ratio": metric(p50(traced) / p50(untraced), "ratio"),
        }
        probe = layers.probe(self.graph, self.fresh["mis"][: layers.REPEATS], self.workdir,
                             skip=out)
        probe.update(out)
        return probe


def classes():
    return {
        "mis_p50_ms": lambda o: o.kind == "miss-mis",
        "mm_p50_ms": lambda o: o.kind == "miss-mm",
        "hit_p50_ms": lambda o: o.kind.startswith("hit"),
        "miss_p50_ms": lambda o: o.kind.startswith("miss"),
    }
