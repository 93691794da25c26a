"""Incremental greedy MIS/MM under edge insertions and deletions.

The paper's priority-DAG view makes greedy maintenance local: vertex ``v``
is in the lexicographically-first MIS iff no earlier-ranked neighbor is,
so an edge mutation can only change the answer inside the DAG region
reachable (toward higher ranks) from the mutated endpoints.  The
maintainers here apply a batch of mutations structurally, seed a dirty
set with the directly perturbed items, and **re-peel only that region**
in rank order:

* pop the dirty item of minimum rank — all of its earlier-ranked
  neighbors are already final, so its greedy decision can be recomputed
  exactly;
* if the decision flipped, every higher-ranked neighbor becomes dirty.

Processing in rank order re-establishes the unique greedy fixpoint, so
the maintained answer is **bit-identical** to running sequential greedy
from scratch on the mutated graph (the mutation-parity suite asserts
this after every batch, against the ``rootset-vec`` engine too).

Work accounting: each batch records the affected-region size (items
popped), the flips, the arcs scanned, and the incremental-vs-scratch
work ratio against the ``items + 2·arcs`` cost a from-scratch peel would
pay — the ``aux["dynamic"]`` block that flows through session results
into ``BENCH_9.json``.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.orderings import random_priorities
from repro.core.result import MISResult, MatchingResult, RunStats
from repro.core.status import EDGE_DEAD, EDGE_MATCHED, IN_SET, KNOCKED_OUT
from repro.errors import InvalidGraphError, InvariantViolationError
from repro.graphs.builders import from_edges
from repro.graphs.csr import CSRGraph, EdgeList
from repro.robustness.validate import check_ranks
from repro.util.rng import SeedLike

__all__ = ["IncrementalMIS", "IncrementalMatching", "edge_priority"]

EdgePair = Tuple[int, int]

_MASK64 = (1 << 64) - 1


def edge_priority(seed: int, u: int, v: int) -> int:
    """Deterministic 62-bit priority for edge ``{u, v}`` under *seed*.

    A splitmix64-style integer mix — a pure function of ``(seed, u, v)``
    with no process-level state, so a session replayed after a worker
    crash (or restored from a snapshot on another host) draws identical
    priorities for identical insertions.
    """
    x = (int(seed) * 0x9E3779B97F4A7C15 + (u << 32 | (v & 0xFFFFFFFF)) + v) & _MASK64
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return z >> 2  # 62 bits: stays clear of int64 trouble downstream


def _canon_pair(u: object, v: object, n: int, context: str) -> EdgePair:
    try:
        a, b = int(u), int(v)
    except (TypeError, ValueError) as exc:
        raise InvalidGraphError(f"{context}: non-integer endpoint ({u!r}, {v!r})") from exc
    if a == b:
        raise InvalidGraphError(f"{context}: self-loop ({a}, {b})")
    if not (0 <= a < n and 0 <= b < n):
        raise InvalidGraphError(
            f"{context}: endpoints ({a}, {b}) out of range [0, {n})"
        )
    return (a, b) if a < b else (b, a)


def _check_batch(
    insertions: Sequence[EdgePair],
    deletions: Sequence[EdgePair],
    n: int,
) -> Tuple[List[EdgePair], List[EdgePair]]:
    """Canonicalize a mutation batch; reject self-loops and in-batch dupes."""
    ins = [_canon_pair(u, v, n, "insert") for (u, v) in insertions]
    dels = [_canon_pair(u, v, n, "delete") for (u, v) in deletions]
    seen: Set[EdgePair] = set()
    for pair in ins + dels:
        if pair in seen:
            raise InvalidGraphError(f"batch mentions edge {pair} twice")
        seen.add(pair)
    return ins, dels


class _DynamicCounters:
    """Per-batch and cumulative re-peel accounting shared by both maintainers."""

    __slots__ = ("batches", "total_work", "total_scratch_work", "last")

    def __init__(self) -> None:
        self.batches = 0
        self.total_work = 0
        self.total_scratch_work = 0
        self.last: Dict[str, object] = {}

    def record(
        self,
        *,
        inserted: int,
        deleted: int,
        affected: int,
        flipped: int,
        scanned_arcs: int,
        items: int,
        arcs: int,
    ) -> Dict[str, object]:
        work = affected + scanned_arcs
        scratch = items + 2 * arcs
        self.batches += 1
        self.total_work += work
        self.total_scratch_work += scratch
        self.last = {
            "inserted": inserted,
            "deleted": deleted,
            "affected": affected,
            "flipped": flipped,
            "scanned_arcs": scanned_arcs,
            "work": work,
            "scratch_work": scratch,
            "work_ratio": (work / scratch) if scratch else 0.0,
        }
        return dict(self.last)

    def aux(self) -> Dict[str, object]:
        """The ``aux["dynamic"]`` block attached to session results."""
        total_scratch = self.total_scratch_work
        return {
            "batches": self.batches,
            "total_work": self.total_work,
            "total_scratch_work": total_scratch,
            "total_work_ratio": (self.total_work / total_scratch) if total_scratch else 0.0,
            "last_batch": dict(self.last),
        }

    def load(self, data: Dict[str, object]) -> None:
        self.batches = int(data.get("batches", 0))
        self.total_work = int(data.get("total_work", 0))
        self.total_scratch_work = int(data.get("total_scratch_work", 0))
        self.last = dict(data.get("last_batch", {}))


class IncrementalMIS:
    """Maintain the lexicographically-first MIS under edge mutations.

    Parameters
    ----------
    graph:
        Initial :class:`~repro.graphs.csr.CSRGraph` (may be edgeless).
    ranks:
        Vertex priority permutation of ``0..n-1``; random from *seed*
        when omitted.  The vertex set is fixed for the session's
        lifetime, so the permutation stays valid across edge mutations.
    seed:
        Randomness for *ranks* when omitted.

    The initial answer is computed by a full peel (every vertex dirty),
    which is exactly sequential greedy; :meth:`apply_batch` then re-peels
    only the affected priority-DAG region per mutation batch.

    Examples
    --------
    >>> from repro.graphs.generators import path_graph
    >>> import numpy as np
    >>> inc = IncrementalMIS(path_graph(4), np.arange(4))
    >>> sorted(inc.members())
    [0, 2]
    >>> _ = inc.apply_batch(insertions=[(0, 2)])
    >>> sorted(inc.members())
    [0, 3]
    """

    problem = "mis"

    def __init__(
        self,
        graph: CSRGraph,
        ranks: Optional[np.ndarray] = None,
        *,
        seed: SeedLike = None,
    ) -> None:
        n = graph.num_vertices
        if ranks is None:
            ranks = random_priorities(n, seed)
        ranks = check_ranks(ranks, n)
        self.n = n
        self.ranks = ranks.copy()
        self._rank = ranks.tolist()
        self._adj: List[Set[int]] = [set() for _ in range(n)]
        el = graph.edge_list()
        for a, b in zip(el.u.tolist(), el.v.tolist()):
            self._adj[a].add(b)
            self._adj[b].add(a)
        self.m = el.num_edges
        self.status = np.full(n, KNOCKED_OUT, dtype=np.int8)
        self.counters = _DynamicCounters()
        self._graph_cache: Optional[CSRGraph] = graph
        self._peel(range(n))

    # -- mutation --------------------------------------------------------

    def apply_batch(
        self,
        insertions: Sequence[EdgePair] = (),
        deletions: Sequence[EdgePair] = (),
    ) -> Dict[str, object]:
        """Apply one mutation batch and re-peel the affected region.

        Insertions must not already exist and deletions must; violations
        (and self-loops, out-of-range endpoints, in-batch duplicates)
        raise :class:`~repro.errors.InvalidGraphError` **before** any
        structural change, so a rejected batch leaves the session intact.

        Returns the per-batch dynamic stats dict (affected-region size,
        flips, scanned arcs, work ratio).
        """
        ins, dels = _check_batch(insertions, deletions, self.n)
        for a, b in ins:
            if b in self._adj[a]:
                raise InvalidGraphError(f"insert: edge ({a}, {b}) already present")
        for a, b in dels:
            if b not in self._adj[a]:
                raise InvalidGraphError(f"delete: edge ({a}, {b}) not present")
        rank = self._rank
        seeds: Set[int] = set()
        for a, b in ins:
            self._adj[a].add(b)
            self._adj[b].add(a)
            seeds.add(a if rank[a] > rank[b] else b)
        for a, b in dels:
            self._adj[a].discard(b)
            self._adj[b].discard(a)
            seeds.add(a if rank[a] > rank[b] else b)
        self.m += len(ins) - len(dels)
        self._graph_cache = None
        affected, flipped, scanned = self._peel(seeds)
        return self.counters.record(
            inserted=len(ins),
            deleted=len(dels),
            affected=affected,
            flipped=flipped,
            scanned_arcs=scanned,
            items=self.n,
            arcs=self.m,
        )

    def _peel(self, dirty: Iterable[int]) -> Tuple[int, int, int]:
        """Re-peel *dirty* (and everything they flip) in rank order."""
        rank = self._rank
        status = self.status
        adj = self._adj
        heap = [(rank[v], v) for v in dirty]
        heapq.heapify(heap)
        queued = {v for (_, v) in heap}
        affected = flipped = scanned = 0
        while heap:
            rv, v = heapq.heappop(heap)
            queued.discard(v)
            affected += 1
            new = IN_SET
            for w in adj[v]:
                scanned += 1
                if rank[w] < rv and status[w] == IN_SET:
                    new = KNOCKED_OUT
                    break
            if status[v] == new:
                continue
            status[v] = new
            flipped += 1
            for w in adj[v]:
                scanned += 1
                if rank[w] > rv and w not in queued:
                    queued.add(w)
                    heapq.heappush(heap, (rank[w], w))
        return affected, flipped, scanned

    # -- queries ---------------------------------------------------------

    def members(self) -> List[int]:
        """Current independent-set vertex ids (sorted)."""
        return np.nonzero(self.status == IN_SET)[0].tolist()

    def graph(self) -> CSRGraph:
        """The current mutated graph as a CSR (cached between mutations)."""
        if self._graph_cache is None:
            us = []
            vs = []
            for a in range(self.n):
                for b in self._adj[a]:
                    if a < b:
                        us.append(a)
                        vs.append(b)
            self._graph_cache = from_edges(
                self.n,
                np.asarray(us, dtype=np.int64),
                np.asarray(vs, dtype=np.int64),
            )
        return self._graph_cache

    def result(self) -> MISResult:
        """Current answer as a :class:`~repro.core.result.MISResult`.

        ``stats.aux["dynamic"]`` carries the cumulative and last-batch
        re-peel accounting.
        """
        aux = {"dynamic": self.counters.aux()}
        stats = RunStats(
            algorithm="mis/incremental",
            n=self.n,
            m=self.m,
            work=self.counters.total_work,
            depth=self.counters.total_work,
            steps=self.counters.batches,
            rounds=self.counters.batches,
            aux=aux,
        )
        return MISResult(status=self.status.copy(), ranks=self.ranks.copy(), stats=stats)

    def verify(self) -> None:
        """Re-check the greedy fixpoint on every vertex (guards hook).

        Raises :class:`~repro.errors.InvariantViolationError` if any
        vertex's status disagrees with the greedy rule — the full-guard
        invariant for sessions.
        """
        rank = self._rank
        for v in range(self.n):
            expected = IN_SET
            for w in self._adj[v]:
                if rank[w] < rank[v] and self.status[w] == IN_SET:
                    expected = KNOCKED_OUT
                    break
            if self.status[v] != expected:
                raise InvariantViolationError(
                    f"incremental MIS fixpoint violated at vertex {v}"
                )

    # -- state (snapshot / worker replay) --------------------------------

    def to_state(self) -> Dict[str, object]:
        """JSON-safe state capturing graph, ranks, status, and counters."""
        edges = []
        for a in range(self.n):
            for b in self._adj[a]:
                if a < b:
                    edges.append([a, b])
        edges.sort()
        return {
            "problem": "mis",
            "n": self.n,
            "ranks": self.ranks.tolist(),
            "edges": edges,
            "status": self.status.tolist(),
            "counters": self.counters.aux(),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "IncrementalMIS":
        """Rebuild a maintainer from :meth:`to_state` output.

        The stored status is trusted (it was a verified fixpoint when
        snapshotted) so restore is O(n + m) with no re-peel; call
        :meth:`verify` to re-check it.
        """
        if state.get("problem") != "mis":
            raise InvalidGraphError(
                f"expected a 'mis' session state, got {state.get('problem')!r}"
            )
        n = int(state["n"])
        obj = cls.__new__(cls)
        obj.n = n
        obj.ranks = check_ranks(np.asarray(state["ranks"], dtype=np.int64), n)
        obj._rank = obj.ranks.tolist()
        obj._adj = [set() for _ in range(n)]
        edges = [(int(a), int(b)) for a, b in state["edges"]]
        for a, b in edges:
            pair = _canon_pair(a, b, n, "state")
            obj._adj[pair[0]].add(pair[1])
            obj._adj[pair[1]].add(pair[0])
        obj.m = len(edges)
        status = np.asarray(state["status"], dtype=np.int8)
        if status.shape != (n,):
            raise InvalidGraphError("state status length does not match n")
        obj.status = status.copy()
        obj.counters = _DynamicCounters()
        obj.counters.load(dict(state.get("counters", {})))
        obj._graph_cache = None
        return obj


class IncrementalMatching:
    """Maintain the lexicographically-first maximal matching under mutations.

    Edge identity is the canonical pair ``(min(u,v), max(u,v))``; each
    edge owns a priority that never changes while it exists.  Initial
    edges take the caller's rank permutation when given (positions in
    ``graph.edge_list()`` order); edges inserted later draw a
    deterministic priority from :func:`edge_priority` under the session
    *seed*, so the whole evolution is replayable.  Ties are broken by the
    endpoint pair, making the edge order total.

    :meth:`current_ranks` exposes the live edge order as a dense
    permutation over the canonical edge list — what a from-scratch
    reference solve of the mutated graph must use for parity.
    """

    problem = "matching"

    def __init__(
        self,
        graph_or_edges: Union[CSRGraph, EdgeList],
        ranks: Optional[np.ndarray] = None,
        *,
        seed: SeedLike = None,
    ) -> None:
        if isinstance(graph_or_edges, CSRGraph):
            el = graph_or_edges.edge_list()
        elif isinstance(graph_or_edges, EdgeList):
            el = graph_or_edges
        else:
            raise InvalidGraphError(
                f"expected CSRGraph or EdgeList, got {type(graph_or_edges).__name__}"
            )
        n = el.num_vertices
        m = el.num_edges
        self.n = n
        self.seed = int(seed) if seed is not None else 0
        if ranks is not None:
            ranks = check_ranks(ranks, m)
            prios = ranks.tolist()
        else:
            prios = [
                edge_priority(self.seed, int(a), int(b))
                for a, b in zip(el.u.tolist(), el.v.tolist())
            ]
        # key -> [priority, matched]
        self._edges: Dict[EdgePair, List] = {}
        self._incident: List[Set[EdgePair]] = [set() for _ in range(n)]
        for a, b, p in zip(el.u.tolist(), el.v.tolist(), prios):
            key = (a, b)
            if key in self._edges:
                raise InvalidGraphError(f"duplicate edge {key} in initial edge list")
            self._edges[key] = [int(p), False]
            self._incident[a].add(key)
            self._incident[b].add(key)
        self.counters = _DynamicCounters()
        #: Matched-edge count, kept up to date by every flip.
        self.num_matched = 0
        self._peel(list(self._edges))

    # -- ordering --------------------------------------------------------

    def _order(self, key: EdgePair) -> Tuple[int, int, int]:
        return (self._edges[key][0], key[0], key[1])

    # -- mutation --------------------------------------------------------

    def apply_batch(
        self,
        insertions: Sequence[EdgePair] = (),
        deletions: Sequence[EdgePair] = (),
    ) -> Dict[str, object]:
        """Apply one mutation batch and re-peel the affected line-graph region.

        Same strictness contract as :meth:`IncrementalMIS.apply_batch`.
        """
        ins, dels = _check_batch(insertions, deletions, self.n)
        for key in ins:
            if key in self._edges:
                raise InvalidGraphError(f"insert: edge {key} already present")
        for key in dels:
            if key not in self._edges:
                raise InvalidGraphError(f"delete: edge {key} not present")
        dirty: Set[EdgePair] = set()
        for key in dels:
            prio, matched = self._edges[key]
            order = (prio, key[0], key[1])
            a, b = key
            self._incident[a].discard(key)
            self._incident[b].discard(key)
            del self._edges[key]
            if matched:
                self.num_matched -= 1
                # Only later-ordered adjacent edges can change: earlier
                # ones never depended on this edge.
                for nbr in self._incident[a] | self._incident[b]:
                    if self._order(nbr) > order:
                        dirty.add(nbr)
        # A later deletion in the same batch may remove an edge an earlier
        # deletion marked dirty; only surviving edges get re-peeled.
        dirty = {key for key in dirty if key in self._edges}
        for key in ins:
            a, b = key
            self._edges[key] = [edge_priority(self.seed, a, b), False]
            self._incident[a].add(key)
            self._incident[b].add(key)
            dirty.add(key)
        affected, flipped, scanned = self._peel(dirty)
        return self.counters.record(
            inserted=len(ins),
            deleted=len(dels),
            affected=affected,
            flipped=flipped,
            scanned_arcs=scanned,
            items=len(self._edges),
            arcs=len(self._edges),
        )

    def _peel(self, dirty: Iterable[EdgePair]) -> Tuple[int, int, int]:
        heap = [(self._order(key), key) for key in dirty]
        heapq.heapify(heap)
        queued = {key for (_, key) in heap}
        affected = flipped = scanned = 0
        edges = self._edges
        while heap:
            order, key = heapq.heappop(heap)
            queued.discard(key)
            if key not in edges:  # deleted while queued (defensive)
                continue
            affected += 1
            a, b = key
            new = True
            for nbr in self._incident[a] | self._incident[b]:
                if nbr == key:
                    continue
                scanned += 1
                rec = edges[nbr]
                if rec[1] and (rec[0], nbr[0], nbr[1]) < order:
                    new = False
                    break
            rec = edges[key]
            if rec[1] == new:
                continue
            rec[1] = new
            self.num_matched += 1 if new else -1
            flipped += 1
            for nbr in self._incident[a] | self._incident[b]:
                if nbr == key:
                    continue
                scanned += 1
                if (edges[nbr][0], nbr[0], nbr[1]) > order and nbr not in queued:
                    queued.add(nbr)
                    heapq.heappush(heap, ((edges[nbr][0], nbr[0], nbr[1]), nbr))
        return affected, flipped, scanned

    # -- queries ---------------------------------------------------------

    @property
    def m(self) -> int:
        """Current edge count."""
        return len(self._edges)

    def matched_pairs(self) -> List[EdgePair]:
        """Currently matched edges (sorted canonical pairs)."""
        return sorted(key for key, rec in self._edges.items() if rec[1])

    def edge_list(self) -> EdgeList:
        """Current edges in canonical ``(u, v)``-sorted order."""
        keys = sorted(self._edges)
        u = np.asarray([k[0] for k in keys], dtype=np.int64)
        v = np.asarray([k[1] for k in keys], dtype=np.int64)
        return EdgeList(self.n, u, v)

    def graph(self) -> CSRGraph:
        """The current mutated graph as a CSR."""
        el = self.edge_list()
        return from_edges(self.n, el.u, el.v)

    def current_ranks(self) -> np.ndarray:
        """Dense edge-rank permutation over :meth:`edge_list` order.

        Rank of edge *i* = position of its ``(priority, u, v)`` key in the
        session's total edge order — feed this to a from-scratch engine to
        reproduce the maintained matching bit-for-bit.
        """
        keys = sorted(self._edges)
        orders = sorted(range(len(keys)), key=lambda i: self._order(keys[i]))
        ranks = np.empty(len(keys), dtype=np.int64)
        for pos, i in enumerate(orders):
            ranks[i] = pos
        return ranks

    def result(self) -> MatchingResult:
        """Current answer as a :class:`~repro.core.result.MatchingResult`."""
        keys = sorted(self._edges)
        status = np.fromiter(
            (EDGE_MATCHED if self._edges[k][1] else EDGE_DEAD for k in keys),
            dtype=np.int8,
            count=len(keys),
        )
        aux = {"dynamic": self.counters.aux()}
        stats = RunStats(
            algorithm="mm/incremental",
            n=self.n,
            m=len(keys),
            work=self.counters.total_work,
            depth=self.counters.total_work,
            steps=self.counters.batches,
            rounds=self.counters.batches,
            aux=aux,
        )
        return MatchingResult(
            status=status,
            edge_u=np.asarray([k[0] for k in keys], dtype=np.int64),
            edge_v=np.asarray([k[1] for k in keys], dtype=np.int64),
            ranks=self.current_ranks(),
            stats=stats,
        )

    def verify(self) -> None:
        """Re-check the greedy matching fixpoint on every edge."""
        for key, rec in self._edges.items():
            order = (rec[0], key[0], key[1])
            blocked = False
            for nbr in self._incident[key[0]] | self._incident[key[1]]:
                if nbr == key:
                    continue
                other = self._edges[nbr]
                if other[1] and (other[0], nbr[0], nbr[1]) < order:
                    blocked = True
                    break
            if rec[1] == blocked:
                raise InvariantViolationError(
                    f"incremental matching fixpoint violated at edge {key}"
                )

    # -- state -----------------------------------------------------------

    def to_state(self) -> Dict[str, object]:
        """JSON-safe state: per-edge priorities and matched flags."""
        edges = [
            [k[0], k[1], rec[0], bool(rec[1])]
            for k, rec in sorted(self._edges.items())
        ]
        return {
            "problem": "matching",
            "n": self.n,
            "seed": self.seed,
            "edges": edges,
            "counters": self.counters.aux(),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "IncrementalMatching":
        """Rebuild a maintainer from :meth:`to_state` output."""
        if state.get("problem") != "matching":
            raise InvalidGraphError(
                f"expected a 'matching' session state, got {state.get('problem')!r}"
            )
        n = int(state["n"])
        obj = cls.__new__(cls)
        obj.n = n
        obj.seed = int(state.get("seed", 0))
        obj._edges = {}
        obj._incident = [set() for _ in range(n)]
        obj.num_matched = 0
        for a, b, prio, matched in state["edges"]:
            key = _canon_pair(a, b, n, "state")
            if key in obj._edges:
                raise InvalidGraphError(f"duplicate edge {key} in session state")
            obj._edges[key] = [int(prio), bool(matched)]
            obj.num_matched += bool(matched)
            obj._incident[key[0]].add(key)
            obj._incident[key[1]].add(key)
        obj.counters = _DynamicCounters()
        obj.counters.load(dict(state.get("counters", {})))
        return obj
