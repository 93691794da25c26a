"""Zero-copy graph registration on the solver service.

A registered graph crosses the worker pipe as a segment name plus a
content fingerprint — no arrays.  These suites pin the contract: shared
and pickled requests are bit-identical, registration is idempotent,
release falls back to pickling, chaos kills leak nothing, and the
per-request wall-time accounting counts each request exactly once.
"""

import glob

import numpy as np
import pytest

from repro.core.orderings import random_priorities
from repro.graphs.generators import uniform_random_graph
from repro.resilience.chaos import _leaked_segments, _shm_segments
from repro.service import ServiceConfig, SolveRequest, SolverService

pytestmark = pytest.mark.service


def _segments():
    return set(glob.glob("/dev/shm/repro-*"))


@pytest.fixture(autouse=True)
def no_leaked_segments():
    # Segments a live foreign process owns are not this test's leaks.
    before = _shm_segments()
    yield
    leaked = _leaked_segments(before)
    assert not leaked, f"leaked shared segments: {leaked}"


@pytest.fixture
def graph():
    return uniform_random_graph(500, 2000, seed=0)


@pytest.fixture
def ranks(graph):
    return random_priorities(graph.num_vertices, seed=1)


def _mis(svc, graph, ranks, **kw):
    return svc.submit(
        SolveRequest(problem="mis", payload=graph, ranks=ranks, **kw)
    ).result()


class TestRegistration:
    def test_shared_request_bit_identical_to_pickled(self, graph, ranks):
        svc = SolverService(ServiceConfig(workers=2)).start()
        try:
            pickled = _mis(svc, graph, ranks, method="rootset-vec")
            assert pickled.stats.aux["service"]["shared_payload"] is False
            svc.register_graph(graph, ranks)
            shared = _mis(svc, graph, ranks, method="rootset-vec")
            assert shared.stats.aux["service"]["shared_payload"] is True
            np.testing.assert_array_equal(pickled.status, shared.status)
            assert pickled.stats.work == shared.stats.work
            assert pickled.stats.steps == shared.stats.steps
        finally:
            svc.shutdown()

    def test_registration_is_idempotent(self, graph, ranks):
        svc = SolverService(ServiceConfig(workers=1)).start()
        try:
            a = svc.register_graph(graph, ranks)
            b = svc.register_graph(graph, ranks)
            assert a is b
        finally:
            svc.shutdown()

    def test_release_falls_back_to_pickling(self, graph, ranks):
        svc = SolverService(ServiceConfig(workers=1)).start()
        try:
            svc.register_graph(graph, ranks)
            before = _mis(svc, graph, ranks, method="rootset-vec")
            assert svc.release_graph(graph) is True
            assert svc.release_graph(graph) is False
            after = _mis(svc, graph, ranks, method="rootset-vec")
            assert after.stats.aux["service"]["shared_payload"] is False
            np.testing.assert_array_equal(before.status, after.status)
        finally:
            svc.shutdown()

    def test_shutdown_unlinks_registered_segments(self, graph, ranks):
        svc = SolverService(ServiceConfig(workers=1)).start()
        shared = svc.register_graph(graph, ranks)
        assert f"/dev/shm/{shared.name}" in _segments()
        svc.shutdown()
        assert f"/dev/shm/{shared.name}" not in _segments()

    def test_different_ranks_still_use_shared_graph(self, graph, ranks):
        svc = SolverService(ServiceConfig(workers=1)).start()
        try:
            svc.register_graph(graph, ranks)
            other = random_priorities(graph.num_vertices, seed=99)
            res = _mis(svc, graph, other, method="rootset-vec")
            assert res.stats.aux["service"]["shared_payload"] is True
            from repro.core.mis import sequential_greedy_mis

            ref = sequential_greedy_mis(graph, other)
            np.testing.assert_array_equal(res.status, ref.status)
        finally:
            svc.shutdown()

    def test_matching_payloads_share_too(self, graph):
        el = graph.edge_list()
        eranks = random_priorities(el.num_edges, seed=2)
        svc = SolverService(ServiceConfig(workers=1)).start()
        try:
            svc.register_graph(el, eranks)
            res = svc.submit(SolveRequest(
                problem="matching", payload=el, ranks=eranks,
                method="rootset-vec",
            )).result()
            assert res.stats.aux["service"]["shared_payload"] is True
            from repro.core.matching import sequential_greedy_matching

            ref = sequential_greedy_matching(el, eranks)
            np.testing.assert_array_equal(res.status, ref.status)
        finally:
            svc.shutdown()


class TestFallbackJobs:
    def test_degraded_attempt_drops_prefix_knobs(self, graph, ranks):
        # Unit-level: a job built for a fallback engine must not carry the
        # requested engine's prefix knobs — the chain engines reject
        # them at the validation boundary, which would poison every retry.
        import time

        from repro.service.service import _Ticket

        svc = SolverService(ServiceConfig(workers=1))
        req = SolveRequest(
            problem="mis", payload=graph, ranks=ranks,
            method="prefix",
            options={"prefix_size": 16, "seed": 3},
        )
        ticket = _Ticket(1, req, time.monotonic())
        primary = svc._build_job(ticket, "prefix", time.monotonic())
        assert primary["options"]["prefix_size"] == 16
        degraded = svc._build_job(ticket, "rootset-vec", time.monotonic())
        assert "prefix_size" not in degraded["options"]
        assert degraded["options"]["seed"] == 3  # generic knobs survive


class TestChaosWithSharedGraphs:
    def test_kills_replay_bit_identical_and_leak_free(self, graph, ranks):
        svc = SolverService(ServiceConfig(
            workers=2, kill_probability=0.5, chaos_seed=7, max_retries=6,
        )).start()
        try:
            svc.register_graph(graph, ranks)
            results = [
                _mis(svc, graph, ranks, method="rootset-vec") for _ in range(5)
            ]
            for res in results[1:]:
                np.testing.assert_array_equal(results[0].status, res.status)
            assert svc.stats().worker_crashes > 0
        finally:
            svc.shutdown()


class TestWallTimeAccounting:
    def test_wall_time_recorded_once_per_request(self, graph, ranks):
        svc = SolverService(ServiceConfig(workers=2)).start()
        try:
            res = _mis(svc, graph, ranks, method="rootset-vec")
            service_aux = res.stats.aux["service"]
            assert service_aux["wall_time_s"] > 0
            # One request, one wall-time figure — retries don't stack it.
            assert isinstance(service_aux["wall_time_s"], float)
        finally:
            svc.shutdown()
