"""``engine-solve``: the in-process front door ``repro.solve`` on one thread.

Inputs (all made in setup from the seed): the paper's small-tier random
graph (n=20k, m=100k) and rMat graph (n=16384, m~92.8k); per graph and
problem a pool of :data:`POOL` priority vectors, each with its
sequential-greedy reference answer.  A vector recurs only after
``POOL - 1`` others on the same graph, more than the partition caches
keep (4 per graph), so every op misses them as a service miss does; the
traced run reports the measured ``partition.hit_ratio``.

Op mix: two of every three ops are MIS and, within each problem, two of
every three use the random graph.  A 1:1 mix of two modes that far apart
(MIS ~12 ms, MM ~60 ms) puts every median on the boundary between them,
where it is the extreme of one mode and jumps from run to run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from typing import Dict, List, Tuple

import numpy as np

import repro
from repro.bench.workloads import paper_random_graph, paper_rmat_graph
from repro.core.matching import sequential_greedy_matching
from repro.core.mis import sequential_greedy_mis
from repro.errors import ReproError
from repro.kernels import partition_cache_stats
from repro.pram.machine import null_machine

from common import Op, SpanLog, clock, metric, ms, nth, p50, vm_hwm_mb

POOL = 8
PROBLEM_CYCLE = ("mis", "mis", "mm")
GRAPH_CYCLE = ("random", "random", "rmat")
#: Setups measured per run; the median is reported.
SETUP_REPEATS = 7

_SETUP_CHILD = r"""
import sys, time
import numpy as np
d = np.load(sys.argv[1])
t0 = time.perf_counter()
import repro
from repro.graphs.csr import CSRGraph
t1 = time.perf_counter()
g = CSRGraph(d["offsets"], d["neighbors"])
el = g.edge_list()
t2 = time.perf_counter()
repro.solve("mis", g, d["vranks"], method="rootset-vec")
repro.solve("mm", el, d["eranks"], method="rootset-vec")
t3 = time.perf_counter()
print((t1 - t0) + (t3 - t2))
"""


class EngineSolve:
    def __init__(self, seed: int, scale: str, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        graphs = {
            "random": paper_random_graph(scale, seed=seed),
            "rmat": paper_rmat_graph(scale, seed=seed + 1),
        }
        self.graphs = graphs
        self.payload: Dict[Tuple[str, str], object] = {}
        self.pool: Dict[Tuple[str, str], List[np.ndarray]] = {}
        self.refs: Dict[Tuple[str, str], List[np.ndarray]] = {}
        for gname, g in graphs.items():
            el = g.edge_list()
            for problem, payload, size in (
                ("mis", g, g.num_vertices), ("mm", el, el.num_edges)
            ):
                key = (gname, problem)
                self.payload[key] = payload
                self.pool[key] = [
                    rng.permutation(size).astype(np.int64) for _ in range(POOL)
                ]
                if problem == "mis":
                    self.refs[key] = [
                        sequential_greedy_mis(g, r, machine=null_machine()).status
                        for r in self.pool[key]
                    ]
                else:
                    self.refs[key] = [
                        sequential_greedy_matching(el, r, machine=null_machine()).status
                        for r in self.pool[key]
                    ]
        g = graphs["random"]
        self._setup_inputs = os.path.join(workdir, "engine-setup.npz")
        np.savez(
            self._setup_inputs,
            offsets=g.offsets, neighbors=g.neighbors,
            vranks=self.pool[("random", "mis")][0],
            eranks=self.pool[("random", "mm")][0],
        )

    # -- schedule ------------------------------------------------------------

    def op(self, i: int) -> Tuple[str, str, int]:
        """(problem, graph name, pool index) of op *i*."""
        problem, k = nth(PROBLEM_CYCLE, i)
        gname, j = nth(GRAPH_CYCLE, k)
        return problem, gname, j % POOL

    # -- setup ---------------------------------------------------------------

    def start(self) -> float:
        """Set-up time: a fresh interpreter's ``import repro`` plus its first
        MIS and MM solve, median of :data:`SETUP_REPEATS` interpreters."""
        times = []
        for _ in range(SETUP_REPEATS):
            out = subprocess.run(
                [sys.executable, "-c", _SETUP_CHILD, self._setup_inputs],
                check=True, capture_output=True, text=True, timeout=120,
            )
            times.append(float(out.stdout.strip().splitlines()[-1]))
        return p50(times)

    def stop(self) -> List[str]:
        return []

    def rss_mb(self) -> float:
        return vm_hwm_mb(os.getpid())

    # -- runs ----------------------------------------------------------------

    def _check(self, key, j, status, corrupt: bool) -> bool:
        if status is None:
            return False
        if corrupt:
            status = status.copy()
            status[0] = status[0] ^ 3
        return bool(np.array_equal(status, self.refs[key][j]))

    def run(self, seconds: float, trace: bool, corrupt: bool = False):
        """Closed loop for *seconds*; returns ``(ops, window_s, layers)``.

        In a trace run, whole op cycles alternate between the untraced
        front door and the traced decomposition of the same call
        (``check_ranks``, the graph check, the registry engine), each
        inside a span; further per-op probes run outside the op's timed
        region.
        """
        if trace:
            import layers  # untraced runs load only what the front door needs
        ops: List[Op] = []
        log = SpanLog()
        kernels: List[Dict[str, Dict[str, float]]] = []
        rounds: List[float] = []
        steps: List[int] = []
        work: List[int] = []
        hits = misses = 0
        start = clock()
        deadline = start + seconds
        i = 0
        while clock() < deadline:
            problem, gname, j = self.op(i)
            key = (gname, problem)
            payload, ranks = self.payload[key], self.pool[key][j]
            traced = trace and (i // 9) % 2 == 1
            status = None
            note = ""
            if not traced:
                before = partition_cache_stats() if trace else None
                t0 = clock()
                try:
                    res = repro.solve(problem, payload, ranks, method="rootset-vec")
                    status = res.status
                except ReproError as exc:
                    note = f"{type(exc).__name__}: {exc}"
                latency = clock() - t0
                if before is not None:
                    after = partition_cache_stats()
                    hits += after["hits"] - before["hits"]
                    misses += after["misses"] - before["misses"]
            else:
                t0 = clock()
                try:
                    res, r = layers.decomposed_solve(log, i, problem, payload, ranks)
                    status = res.status
                except ReproError as exc:
                    note = f"{type(exc).__name__}: {exc}"
                latency = clock() - t0
                if status is not None:
                    layers.kernel_probe(log, i, problem, payload, r, kernels, rounds)
                    steps.append(res.stats.steps)
                    work.append(res.stats.work)
            ok = self._check(key, j, status, corrupt and i == 0)
            ops.append(Op(f"{problem}-{gname}", problem, latency, ok, traced, note))
            i += 1
        window = clock() - start
        by_layer = None
        if trace:
            by_layer = self._layers(ops, log, kernels, rounds, steps, work, hits, misses)
            log.write(os.path.join(self.workdir, "spans.jsonl"))
        return ops, window, by_layer

    def _layers(self, ops, log, kernels, rounds, steps, work, hits, misses):
        import layers

        untraced = [o for o in ops if not o.traced]
        traced = [o for o in ops if o.traced]
        out = layers.engine_metrics(log, kernels, rounds, steps, work, hits, misses)
        out.update(layers.account(log, {
            p: ms(p50([o.latency for o in untraced if o.problem == p])) for p in ("mis", "mm")
        }))
        out["trace.overhead_ratio"] = metric(
            p50([o.latency for o in traced]) / p50([o.latency for o in untraced]), "ratio")
        g = self.graphs["random"]
        seeds = [self.seed + k for k in range(layers.REPEATS)]
        probe = layers.probe(g, seeds, self.workdir, skip=out)
        probe.update(out)
        return probe


def classes():
    return {
        "mis_p50_ms": lambda o: o.problem == "mis",
        "mm_p50_ms": lambda o: o.problem == "mm",
        # Every op misses the partition caches (see the module docstring).
        "miss_p50_ms": lambda o: True,
    }


