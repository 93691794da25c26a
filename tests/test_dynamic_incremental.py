"""Randomized mutation-parity suite for :mod:`repro.dynamic`.

The incremental maintainers promise **bit-identical** answers to a
from-scratch run of the sequential greedy on the mutated graph — the
whole point of re-peeling only the affected priority-DAG region.  This
suite drives both maintainers through seeded random mutation batches
with ``guards="full"`` (every batch ends in a verified fixpoint) and
checks the maintained status vector against the ``rootset-vec``
reference engine after every batch, plus the
state-dict round trip, the streaming front end, and the batch
validation contract (a rejected batch must leave the session intact).
"""

import numpy as np
import pytest

from repro.core.matching import maximal_matching
from repro.core.mis import maximal_independent_set
from repro.core.orderings import random_priorities
from repro.dynamic import (
    IncrementalMatching,
    IncrementalMIS,
    stream_edges,
)
from repro.errors import InvalidGraphError
from repro.graphs.builders import from_edges
from repro.graphs.generators import (
    powerlaw_cluster_graph,
    triangular_grid_graph,
    uniform_random_graph,
)

pytestmark = pytest.mark.sessions

BATCHES = 6
REFERENCE_METHODS = ("rootset-vec",)


def _random_batch(rng, n, live, size):
    """One mutation batch: half deletions from *live*, half fresh inserts."""
    pool = sorted(live)
    k_del = min(size // 2, len(pool))
    idx = rng.choice(len(pool), size=k_del, replace=False) if k_del else []
    deletions = [pool[i] for i in sorted(int(i) for i in np.atleast_1d(idx))]
    insertions = []
    taken = set(live)
    attempts = 0
    while len(insertions) < size - k_del and attempts < 50 * size:
        attempts += 1
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key in taken or key in set(deletions):
            continue
        taken.add(key)
        insertions.append(key)
    return insertions, deletions


def _apply(live, insertions, deletions):
    return (set(live) - set(deletions)) | set(insertions)


def _live_edges(graph):
    el = graph.edge_list()
    return {(min(a, b), max(a, b)) for a, b in zip(el.u.tolist(), el.v.tolist())}


@pytest.mark.parametrize("seed", [3, 17, 20120215])
@pytest.mark.parametrize("make_graph", [
    lambda: uniform_random_graph(120, 420, seed=5),
    lambda: triangular_grid_graph(9, 9),
    lambda: powerlaw_cluster_graph(100, 4, 0.5, seed=5),
], ids=["uniform", "tri_grid", "powerlaw_cluster"])
def test_mis_mutation_parity(make_graph, seed):
    """After every batch the maintainer equals from-scratch greedy, bit for bit."""
    graph = make_graph()
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    ranks = random_priorities(n, seed=seed)
    inc = IncrementalMIS(graph, ranks)
    live = _live_edges(graph)
    for _ in range(BATCHES):
        ins, dels = _random_batch(rng, n, live, size=8)
        stats = inc.apply_batch(insertions=ins, deletions=dels)
        live = _apply(live, ins, dels)
        inc.verify()  # guards="full" equivalent: full fixpoint check
        assert stats["inserted"] == len(ins) and stats["deleted"] == len(dels)
        edges = np.array(sorted(live), dtype=np.int64).reshape(-1, 2)
        mutated = from_edges(n, edges[:, 0], edges[:, 1])
        for method in REFERENCE_METHODS:
            ref = maximal_independent_set(mutated, ranks, method=method)
            assert np.array_equal(inc.status, ref.status), (
                f"divergence from {method} after mutation batch"
            )


@pytest.mark.parametrize("seed", [3, 17, 20120215])
def test_matching_mutation_parity(seed):
    """Matching maintainer equals from-scratch greedy on its own (edges, π)."""
    graph = uniform_random_graph(90, 300, seed=7)
    rng = np.random.default_rng(seed)
    inc = IncrementalMatching(graph.edge_list(), seed=seed)
    live = _live_edges(graph)
    for _ in range(BATCHES):
        ins, dels = _random_batch(rng, graph.num_vertices, live, size=8)
        inc.apply_batch(insertions=ins, deletions=dels)
        live = _apply(live, ins, dels)
        inc.verify()
        assert inc.num_matched == len(inc.matched_pairs())
        for method in REFERENCE_METHODS:
            ref = maximal_matching(
                inc.edge_list(), inc.current_ranks(), method=method,
            )
            assert np.array_equal(inc.result().status, ref.status), (
                f"divergence from {method} after mutation batch"
            )


@pytest.mark.parametrize("problem", ["mis", "matching"])
def test_state_round_trip_preserves_answer_and_counters(problem):
    graph = uniform_random_graph(80, 260, seed=11)
    if problem == "mis":
        inc = IncrementalMIS(graph, random_priorities(80, seed=11))
    else:
        inc = IncrementalMatching(graph.edge_list(), seed=11)
    live = _live_edges(graph)
    rng = np.random.default_rng(11)
    ins, dels = _random_batch(rng, 80, live, size=6)
    inc.apply_batch(insertions=ins, deletions=dels)

    clone = type(inc).from_state(inc.to_state())
    clone.verify()
    assert np.array_equal(clone.result().status, inc.result().status)
    assert clone.counters.aux() == inc.counters.aux()
    if problem == "matching":
        assert clone.num_matched == inc.num_matched == len(inc.matched_pairs())
    # And the clone keeps evolving identically.
    ins2, dels2 = _random_batch(rng, 80, _apply(live, ins, dels), size=6)
    a = inc.apply_batch(insertions=ins2, deletions=dels2)
    b = clone.apply_batch(insertions=ins2, deletions=dels2)
    assert a == b
    assert np.array_equal(clone.result().status, inc.result().status)


def test_rejected_batch_leaves_maintainer_intact():
    """Validation happens before any structural change."""
    graph = triangular_grid_graph(5, 5)
    inc = IncrementalMIS(graph, random_priorities(25, seed=1))
    before_status = inc.status.copy()
    before_m = inc.m
    for bad_ins, bad_del in [
        ([(0, 0)], []),                 # self-loop
        ([(0, 1)], []),                 # already present
        ([(0, 7), (7, 0)], []),         # in-batch duplicate
        ([], [(0, 24)]),                # absent edge deletion
        ([(0, 99)], []),                # out of range
    ]:
        with pytest.raises(InvalidGraphError):
            inc.apply_batch(insertions=bad_ins, deletions=bad_del)
        assert inc.m == before_m
        assert np.array_equal(inc.status, before_status)


def test_stream_edges_matches_batch_ingestion():
    """Streaming arrival order is just batching: same fixpoint, same answer."""
    graph = uniform_random_graph(60, 0, seed=0)
    target = uniform_random_graph(60, 200, seed=3)
    el = target.edge_list()
    arrivals = list(zip(el.u.tolist(), el.v.tolist()))
    ranks = random_priorities(60, seed=9)
    inc = IncrementalMIS(graph, ranks)
    stats = list(stream_edges(inc, arrivals, batch_size=16))
    assert sum(s["inserted"] for s in stats) == len(arrivals)
    assert len(stats) == -(-len(arrivals) // 16)
    ref = maximal_independent_set(target, ranks, method="rootset-vec")
    assert np.array_equal(inc.status, ref.status)
    # The densifying stream's work accounting feeds aux["dynamic"].
    aux = inc.result().stats.aux["dynamic"]
    assert aux["batches"] == len(stats)
    assert aux["total_work_ratio"] > 0


def test_localized_mutations_repeel_sublinearly():
    """The paper-flavored claim behind BENCH_9: toggling one edge of a
    grid perturbs a region much smaller than the graph."""
    graph = triangular_grid_graph(24, 24)
    inc = IncrementalMIS(graph, random_priorities(graph.num_vertices, seed=2))
    live = sorted(_live_edges(graph))
    rng = np.random.default_rng(2)
    for _ in range(20):
        edge = live[int(rng.integers(len(live)))]
        inc.apply_batch(deletions=[edge])
        inc.apply_batch(insertions=[edge])
    aux = inc.counters.aux()
    assert aux["total_work_ratio"] < 0.25
    assert aux["last_batch"]["affected"] < graph.num_vertices // 4
