"""``session-mutate``: durable sessions through an in-process ``SolverService``.

The service runs with ``session_dir`` inside the benchmark's own work
directory, so every committed mutation is persisted.  Two sessions, one
MIS and one MM, live on the triangular grid (64 x 64: n=4096, m=12033).
A batch deletes 4 live edges and re-inserts the previous batch's
deletions, so the graph after batch ``k`` is the base graph minus batch
``k``'s deletions.  Batches are generated in
set-up against that shadow graph and sent with a ``mutation_id``; after
every 4th mutate of a session the client reads ``session_result`` once.

One client thread serves both sessions, two MIS mutates for each MM
mutate.  Two client threads (one per session) contend for the one
interpreter lock of the process that holds the sessions; their
latencies then spread over 60-400 ms and their medians move by a
quarter from run to run.  The 2:1 order keeps the mutate and read
medians inside the MIS mode rather than on the boundary between the
MIS and MM modes.

Checks: every mutate must return the next version; every read, and a
final read after the window, must equal a from-scratch ``rootset-vec``
solve of the shadow graph at that version.
"""

from __future__ import annotations

import os
import shutil
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.dynamic.incremental import IncrementalMatching, IncrementalMIS, edge_priority
from repro.errors import ReproError
from repro.graphs.builders import from_edges
from repro.graphs.csr import EdgeList
from repro.graphs.generators.structured import triangular_grid_graph
from repro.service import SolverService

from common import (
    Op, SpanLog, clock, metric, nth, own_children, p50, still_running,
    toggle_batches, toggle_deletions, vm_hwm_mb,
)

SIZES = {"small": 64, "tiny": 16}
WORKERS = 2
BATCH = 4
READ_EVERY = 4
#: Sessions in the order the client serves them.
SESSION_CYCLE = ("mis", "mis", "mm")
#: Batches generated per session per second of run time; more than the
#: client can send, so no run exhausts them.
BATCHES_PER_SECOND = 200
SETUP_REPEATS = 3


class SessionMutate:
    def __init__(self, seed: int, scale: str, workdir: str, seconds: float) -> None:
        self.workdir = workdir
        side = SIZES[scale]
        self.graph = g = triangular_grid_graph(side, side)
        el = g.edge_list()
        order = np.lexsort((el.v, el.u))
        self.u, self.v = el.u[order], el.v[order]
        self.n, self.m = g.num_vertices, el.num_edges
        rng = np.random.default_rng(seed)
        self.mis_ranks = rng.permutation(self.n).astype(np.int64)
        self.mm_seed = int(rng.integers(1, 2**31))
        self.prio = np.array(
            [edge_priority(self.mm_seed, a, b) for a, b in zip(self.u.tolist(), self.v.tolist())],
            dtype=np.int64,
        )
        count = int(BATCHES_PER_SECOND * seconds)
        self.deleted: Dict[str, np.ndarray] = {}
        self.batches: Dict[str, List[Tuple[list, list]]] = {}
        for problem in ("mis", "mm"):
            dels = toggle_deletions(self.m, count, BATCH, rng)
            self.deleted[problem] = dels
            self.batches[problem] = toggle_batches(self.u, self.v, dels)
        self.service: Optional[SolverService] = None
        self.sessions: Dict[str, str] = {}

    # -- set-up --------------------------------------------------------------

    def _setup_once(self, r: int) -> Tuple[SolverService, Dict[str, str], float]:
        session_dir = os.path.join(self.workdir, f"sessions-{r}")
        t0 = clock()
        svc = SolverService(workers=WORKERS, session_dir=session_dir).start()
        try:
            ids = {
                "mis": svc.create_session("mis", self.graph, self.mis_ranks).session_id,
                "mm": svc.create_session("mm", self.graph, seed=self.mm_seed).session_id,
            }
        except BaseException:
            svc.shutdown(drain=False)
            raise
        return svc, ids, clock() - t0

    def start(self) -> float:
        """Set-up time: service start plus both session creates (each
        persisted), median of :data:`SETUP_REPEATS` fresh services."""
        times = []
        for r in range(SETUP_REPEATS):
            svc, ids, seconds = self._setup_once(r)
            times.append(seconds)
            if r < SETUP_REPEATS - 1:
                svc.shutdown(drain=True)
                shutil.rmtree(os.path.join(self.workdir, f"sessions-{r}"))
            else:
                self.service, self.sessions = svc, ids
                self.session_dir = os.path.join(self.workdir, f"sessions-{r}")
        return p50(times)

    def stop(self) -> List[str]:
        if self.service is None:
            return []
        problems = []
        spawned = own_children()
        self.service.shutdown(drain=True)
        for pid in still_running(spawned):
            problems.append(f"service child process {pid} still running")
        shutil.rmtree(self.session_dir, ignore_errors=True)
        if os.path.exists(self.session_dir):
            problems.append(f"session directory {self.session_dir} left behind")
        return problems

    def rss_mb(self) -> float:
        return vm_hwm_mb(os.getpid())

    # -- references ----------------------------------------------------------

    def reference(self, problem: str, version: int) -> np.ndarray:
        """From-scratch ``rootset-vec`` answer on the shadow graph."""
        keep = np.ones(self.m, dtype=bool)
        if version:
            keep[self.deleted[problem][version - 1]] = False
        u, v = self.u[keep], self.v[keep]
        if problem == "mis":
            g = from_edges(self.n, u, v)
            return repro.solve("mis", g, self.mis_ranks, method="rootset-vec").status
        prio = self.prio[keep]
        order = np.lexsort((v, u, prio))
        ranks = np.empty(len(order), dtype=np.int64)
        ranks[order] = np.arange(len(order))
        el = EdgeList(self.n, u, v)
        return repro.solve("mm", el, ranks, method="rootset-vec").status

    # -- runs ----------------------------------------------------------------

    def run(self, seconds: float, trace: bool, corrupt: bool = False):
        svc = self.service
        log = SpanLog()
        ops: Dict[str, List[Op]] = {"mis": [], "mm": []}
        reads: Dict[str, List[Tuple[int, int, np.ndarray]]] = {"mis": [], "mm": []}
        applied = {"mis": 0, "mm": 0}
        start = clock()
        deadline = start + seconds
        i = 0
        while clock() < deadline:
            problem, k = nth(SESSION_CYCLE, i)
            if k >= len(self.batches[problem]):
                break
            ins, dels = self.batches[problem][k]
            sid = self.sessions[problem]
            out = ops[problem]
            traced = trace and (i // 6) % 2 == 1
            note = ""
            t0 = clock()
            try:
                outcome = svc.mutate_session(sid, ins, dels, mutation_id=f"{problem}-{k}")
            except ReproError as exc:
                outcome, note = None, f"{type(exc).__name__}: {exc}"
            latency = clock() - t0
            if traced:
                log.add("session.mutate", latency, i)
            ok = outcome is not None and outcome.get("version") == k + 1
            out.append(Op(f"mutate-{problem}", problem, latency, ok, traced, note))
            if not ok:
                break
            applied[problem] = k + 1
            if (k + 1) % READ_EVERY == 0:
                t0 = clock()
                try:
                    status = svc.session_result(sid).status
                except ReproError as exc:
                    status, note = None, f"{type(exc).__name__}: {exc}"
                latency = clock() - t0
                if traced:
                    log.add("session.result", latency, i)
                out.append(Op(f"read-{problem}", problem, latency, status is not None,
                              traced, note))
                if status is not None:
                    reads[problem].append((len(out) - 1, k + 1, status.copy()))
            i += 1
        window = clock() - start
        for problem in ("mis", "mm"):
            final = svc.session_result(self.sessions[problem]).status.copy()
            reads[problem].append((len(ops[problem]) - 1, applied[problem], final))
            for j, (idx, version, status) in enumerate(reads[problem]):
                if corrupt and problem == "mis" and j == 0:
                    status[0] ^= 3
                if not np.array_equal(status, self.reference(problem, version)):
                    ops[problem][idx].ok = False
        layers = self._layers(ops, log, applied) if trace else None
        if trace:
            log.write(os.path.join(self.workdir, "spans.jsonl"))
        return ops["mis"] + ops["mm"], window, layers

    def _layers(self, ops, log: SpanLog, applied) -> Dict[str, Dict[str, object]]:
        import layers

        out = layers.dynamic_metrics(
            {
                "mis": IncrementalMIS(self.graph, self.mis_ranks),
                "mm": IncrementalMatching(self.graph, seed=self.mm_seed),
            },
            {p: self.batches[p][: applied[p]] for p in ("mis", "mm")},
            self.workdir,
        )
        mutate_ms = log.median_ms("session.mutate")
        out["session.mutate_ms"] = metric(mutate_ms, "ms")
        out["session.result_ms"] = metric(log.median_ms("session.result"), "ms")
        out["session.overhead_ms"] = metric(
            mutate_ms - out["dynamic.apply_ms"]["value"], "ms")
        every = ops["mis"] + ops["mm"]
        out["trace.overhead_ratio"] = metric(
            p50([o.latency for o in every if o.traced])
            / p50([o.latency for o in every if not o.traced]), "ratio")
        probe = layers.probe(self.graph, [self.mm_seed + k for k in range(layers.REPEATS)],
                             self.workdir, skip=out)
        probe.update(out)
        return probe


def classes():
    return {
        "mis_p50_ms": lambda o: o.kind == "mutate-mis",
        "mm_p50_ms": lambda o: o.kind == "mutate-mm",
        "mutate_p50_ms": lambda o: o.kind.startswith("mutate"),
        "read_p50_ms": lambda o: o.kind.startswith("read"),
    }
