"""Sessions as a base snapshot plus a batch log.

A session's durable form is ``<id>.json`` (the base snapshot) plus
``<id>.log`` (one checksummed record per mutation since the base); the
parent ships only batches to the worker that holds the warm maintainer
and replays base + log into a worker that does not.  This suite pins
the file formats, the log's corruption handling, the replay counter,
and the model property that restoring from ``session_dir`` at any
version equals a from-scratch ``rootset-vec`` solve.
"""

import hashlib
import json
import os
import shutil
import signal
import time

import numpy as np
import pytest

from repro.core.matching import maximal_matching
from repro.core.mis import maximal_independent_set
from repro.dynamic import IncrementalMatching, IncrementalMIS, SnapshotStore, jobs
from repro.errors import InvalidGraphError, SnapshotCorruptError
from repro.graphs.generators import uniform_random_graph
from repro.graphs.generators.structured import triangular_grid_graph
from repro.service import ServiceConfig, SolverService
from repro.service import sessions as sessions_mod
from repro.service.config import SolveRequest
from repro.service.sessions import SessionManager

pytestmark = [pytest.mark.sessions, pytest.mark.service]


@pytest.fixture(scope="module")
def graph():
    return uniform_random_graph(80, 240, seed=6)


@pytest.fixture(scope="module")
def pi(graph):
    return np.random.default_rng(8).permutation(graph.num_vertices)


@pytest.fixture
def durable(tmp_path):
    service = SolverService(ServiceConfig(workers=1, session_dir=str(tmp_path))).start()
    yield service
    service.shutdown()


def _pool(graph):
    el = graph.edge_list()
    return sorted(zip(el.u.tolist(), el.v.tolist()))


def _toggles(graph, count, seed):
    """``count`` batches: delete one live edge, re-insert the last one."""
    rng = np.random.default_rng(seed)
    pool = _pool(graph)
    out, previous = [], []
    for _ in range(count):
        edge = pool[int(rng.integers(len(pool)))]
        while [edge] == previous:
            edge = pool[int(rng.integers(len(pool)))]
        out.append((previous, [edge]))
        previous = [edge]
    return out


class TestSnapshotEncoding:
    def test_save_is_byte_identical_to_the_old_writer_and_loads(self, tmp_path):
        store = SnapshotStore(tmp_path)
        snap = {"session_id": "s", "version": 3, "guards": None,
                "state": {"edges": [[0, 1], [1, 2]], "note": "café"},
                "applied": [["a", {"v": 1}]]}
        body = json.dumps(snap, separators=(",", ":"), sort_keys=True)
        old = json.dumps(
            {"format": 1, "snapshot": snap,
             "sha256": hashlib.sha256(body.encode("utf-8")).hexdigest()},
            separators=(",", ":"), sort_keys=True,
        ).encode("utf-8")
        with open(store.save("s", snap), "rb") as fh:
            assert fh.read() == old
        with open(store.save("t", body.encode("utf-8")), "rb") as fh:
            assert fh.read() == old
        assert store.load("s") == snap == store.load("t")


class TestWarmCache:
    def test_rejected_batch_keeps_the_warm_maintainer(self, graph, pi):
        jobs._CACHE.clear()
        pool = _pool(graph)
        jobs.create_session_state("mis", graph, pi, epoch="e", meta={})
        with pytest.raises(InvalidGraphError, match="already present"):
            jobs.mutate_session_state("e", 0, insertions=[pool[0]])
        # No base shipped: only a cache hit can answer.
        out = jobs.mutate_session_state("e", 0, deletions=[pool[0]])
        assert out != jobs.MISS and out["m"] == graph.num_edges - 1
        jobs._CACHE.clear()


class TestLogFiles:
    def _session(self, svc, graph, pi, mutations):
        svc.create_session("mis", graph, pi, session_id="logged")
        for ins, dels in _toggles(graph, mutations, seed=3):
            svc.mutate_session("logged", ins, dels)
        return os.path.join(svc.config.session_dir, "logged")

    def test_close_with_delete_removes_snapshot_and_log(self, durable, graph, pi):
        stem = self._session(durable, graph, pi, 2)
        assert os.path.exists(stem + ".json") and os.path.exists(stem + ".log")
        durable.close_session("logged", delete_snapshot=True)
        assert not os.path.exists(stem + ".json")
        assert not os.path.exists(stem + ".log")

    def test_torn_final_record_is_dropped(self, durable, graph, pi):
        stem = self._session(durable, graph, pi, 3)
        expected = durable.session_result("logged").status.copy()
        durable.close_session("logged")
        with open(stem + ".log", "ab") as fh:
            fh.write(b'0f3a {"version":4,"insert')  # cut short by a crash
        assert durable.restore_session(session_id="logged").version == 3
        assert np.array_equal(durable.session_result("logged").status, expected)
        # The next record lands after clean bytes, not the torn tail.
        assert durable.mutate_session("logged", [], [_pool(graph)[5]])["version"] == 4
        durable.close_session("logged")
        assert durable.restore_session(session_id="logged").version == 4
        assert SnapshotStore(durable.config.session_dir).corrupt_files() == []

    def test_corrupt_mid_log_record_is_quarantined(
        self, durable, graph, pi, tmp_path, monkeypatch, capsys
    ):
        from repro.backends.ledger import SegmentLedger
        from repro.cli import main
        from repro.resilience import reap_orphans

        stem = self._session(durable, graph, pi, 3)
        durable.close_session("logged")
        with open(stem + ".log", "rb") as fh:
            lines = fh.read().split(b"\n")
        lines[0] = lines[0].replace(b'"version":1', b'"version":7')
        with open(stem + ".log", "wb") as fh:
            fh.write(b"\n".join(lines))
        with pytest.raises(SnapshotCorruptError, match="record 1 fails its checksum"):
            durable.restore_session(session_id="logged")
        assert os.path.exists(stem + ".log.corrupt")
        assert not os.path.exists(stem + ".log")

        session_dir = durable.config.session_dir
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
        assert main(["recover", "--session-dir", session_dir]) == 0
        assert "logged.log.corrupt" in capsys.readouterr().out
        report = reap_orphans(SegmentLedger(tmp_path / "ledger"), snapshot_dir=session_dir)
        assert report.quarantined_snapshots == 1


def _wait_dead(pid, timeout=10.0):
    """Block until *pid* is a zombie or gone (without reaping it)."""
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                if fh.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return
        except FileNotFoundError:
            return
        time.sleep(0.01)
    raise AssertionError(f"worker {pid} still alive after SIGKILL")


class TestReplayCounter:
    def test_serial_client_never_replays_and_one_kill_replays_once(self, graph, pi):
        svc = SolverService(ServiceConfig(workers=2)).start()
        try:
            batches = _toggles(graph, 12, seed=5)
            sid = svc.create_session("mis", graph, pi).session_id
            for ins, dels in batches[:6]:
                svc.mutate_session(sid, ins, dels)
                svc.session_result(sid)
            assert svc.sessions.counters()["session_replays"] == 0
            pid = svc.solve(SolveRequest("call", {"module": "os", "func": "getpid"}))
            os.kill(pid, signal.SIGKILL)
            _wait_dead(pid)
            for ins, dels in batches[6:]:
                svc.mutate_session(sid, ins, dels)
                svc.session_result(sid)
            assert svc.sessions.counters()["session_replays"] == 1
            assert svc.health().durability["session_replays"] == 1
        finally:
            svc.shutdown()


class TestLogModel:
    @pytest.mark.parametrize("problem", ["mis", "matching"])
    def test_restore_equals_from_scratch_at_every_version(
        self, graph, pi, tmp_path, monkeypatch, problem
    ):
        monkeypatch.setattr(sessions_mod, "COMPACT_EVERY", 3)
        live = str(tmp_path / "live")
        batches = _toggles(graph, 8, seed=11)
        if problem == "mis":
            local = IncrementalMIS(graph, pi)
        else:
            local = IncrementalMatching(graph, seed=4)
        references = []
        svc = SolverService(ServiceConfig(workers=1, session_dir=live)).start()
        try:
            svc.create_session(problem, graph, pi if problem == "mis" else None,
                               seed=4, session_id="model")
            for k, (ins, dels) in enumerate(batches, 1):
                svc.mutate_session("model", ins, dels, mutation_id=f"m{k}")
                local.apply_batch(ins, dels)
                if problem == "mis":
                    ref = maximal_independent_set(local.graph(), pi, method="rootset-vec")
                else:
                    ref = maximal_matching(local.edge_list(), local.current_ranks(),
                                           method="rootset-vec")
                references.append(ref.status)
                shutil.copytree(live, tmp_path / f"v{k}")
            for k, ref in enumerate(references, 1):
                manager = SessionManager(svc, store=SnapshotStore(tmp_path / f"v{k}"))
                assert manager.restore(session_id="model").version == k
                assert np.array_equal(manager.result("model").status, ref)
                # The dedup window came back from base and log alike.
                assert manager.mutate("model", mutation_id=f"m{k}")["idempotent_replay"]
        finally:
            svc.shutdown()

    def test_crash_between_compaction_and_truncation(self, durable, graph, pi, monkeypatch):
        batches = _toggles(graph, 5, seed=13)
        durable.create_session("mis", graph, pi, session_id="half")
        for ins, dels in batches[:3]:
            durable.mutate_session("half", ins, dels)
        store = durable.sessions._store
        with monkeypatch.context() as m:
            m.setattr(store, "truncate_log", lambda session_id: None)
            durable.session_snapshot("half")  # base at v3, log still v1..v3
        for ins, dels in batches[3:]:
            durable.mutate_session("half", ins, dels)
        expected = durable.session_result("half").status.copy()
        durable.close_session("half")

        shipped = []
        real_call = durable.sessions._call

        def spy(func, kwargs, timeout_s):
            shipped.append((func, len(kwargs.get("batches", ()))))
            return real_call(func, kwargs, timeout_s)

        monkeypatch.setattr(durable.sessions, "_call", spy)
        assert durable.restore_session(session_id="half").version == 5
        assert shipped == [("restore_session_state", 2)]
        assert np.array_equal(durable.session_result("half").status, expected)

    def test_bytes_appended_per_mutate_do_not_grow_with_the_graph(self, tmp_path):
        batch = [(0, 1), (1, 2), (2, 3), (3, 4)]
        appended, base = {}, {}
        svc = SolverService(ServiceConfig(workers=1, session_dir=str(tmp_path))).start()
        try:
            for side in (64, 128):
                g = triangular_grid_graph(side, side)
                sid = f"grid{side}"
                svc.create_session("mis", g, np.arange(g.num_vertices), session_id=sid)
                svc.mutate_session(sid, [], batch, mutation_id="toggle")
                appended[side] = os.path.getsize(tmp_path / f"{sid}.log")
                base[side] = os.path.getsize(tmp_path / f"{sid}.json")
        finally:
            svc.shutdown()
        # Only digit widths of the outcome counters may differ.
        assert abs(appended[128] - appended[64]) <= 16, appended
        assert appended[128] < 1024 < base[64]
        assert base[128] > 3 * base[64]
