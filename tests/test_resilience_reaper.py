"""Segment ledger + orphan reaper (repro.resilience.reaper).

Covers the crash-safe ownership ledger, the reaper's decision table
(live owner kept / dead owner reaped / stale record dropped), the
SIGKILL-orphan path end to end, and the finalizer regressions: a
graceful owner exit leaves nothing behind, and a forked child must
never unlink the segment its parent still serves.
"""

import multiprocessing
import os
import signal
import sys
from multiprocessing import resource_tracker

import numpy as np
import pytest

from repro.backends import SharedArrays, SharedCSR
from repro.backends.ledger import SegmentLedger, default_ledger
from repro.graphs.generators import uniform_random_graph
from repro.resilience import reap_orphans, segment_inventory
from repro.resilience.chaos import _leaked_segments, _shm_segments

pytestmark = pytest.mark.chaos


@pytest.fixture(autouse=True)
def no_leaked_segments():
    # Segments a live foreign process owns are not this test's leaks.
    before = _shm_segments()
    yield
    leaked = _leaked_segments(before)
    assert not leaked, f"leaked shared segments: {leaked}"


@pytest.fixture()
def ledger(tmp_path, monkeypatch):
    """An isolated ledger directory, also honored by default_ledger()."""
    root = tmp_path / "ledger"
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(root))
    return SegmentLedger(root)


def _segment_gone(name: str) -> bool:
    return not os.path.exists(f"/dev/shm/{name}")


class TestLedger:
    def test_create_records_owner_and_unlink_forgets(self, ledger):
        g = uniform_random_graph(60, 150, seed=0)
        shared = SharedCSR.create(g)
        try:
            owners = ledger.owners()
            assert [e.name for e in owners] == [shared.name]
            assert owners[0].pid == os.getpid()
            assert owners[0].fingerprint == shared.fingerprint
        finally:
            shared.close()
            shared.unlink()
        assert ledger.owners() == []

    def test_attach_sidecar_recorded_and_forgotten(self, ledger):
        owner = SharedArrays.create({"x": np.arange(8, dtype=np.int64)})
        try:
            view = SharedArrays.attach(owner.name)
            attaches = [e for e in ledger.entries() if e.record == "attach"]
            assert [(e.name, e.pid) for e in attaches] == [
                (owner.name, os.getpid())
            ]
            view.close()
            assert all(e.record != "attach" for e in ledger.entries())
        finally:
            owner.close()
            owner.unlink()

    def test_disabled_ledger_records_nothing(self, ledger, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "0")
        owner = SharedArrays.create({"x": np.arange(4, dtype=np.int64)})
        try:
            assert ledger.entries() == []
        finally:
            owner.close()
            owner.unlink()

    def test_malformed_record_skipped(self, ledger):
        ledger.root.mkdir(parents=True, exist_ok=True)
        (ledger.root / "garbage.json").write_text("{not json")
        assert ledger.entries() == []
        report = reap_orphans(ledger)
        assert report.scanned == 0


class TestReaper:
    def test_live_owner_kept(self, ledger):
        g = uniform_random_graph(50, 120, seed=1)
        shared = SharedCSR.create(g)
        try:
            report = reap_orphans(ledger)
            assert report.scanned == 1
            assert report.live == 1
            assert report.reaped == []
            assert not _segment_gone(shared.name)
        finally:
            shared.close()
            shared.unlink()

    def test_dead_owner_reaped(self, ledger):
        name = _spawn_orphan_owner()
        assert not _segment_gone(name), "orphan setup failed"
        report = reap_orphans(ledger)
        assert report.reaped == [name]
        assert _segment_gone(name)
        assert ledger.owners() == []

    def test_stale_record_dropped(self, ledger):
        ledger.record_create("repro-never-existed", pid=1 << 22)
        report = reap_orphans(ledger)
        assert report.stale == ["repro-never-existed"]
        assert ledger.owners() == []

    def test_dry_run_reports_without_unlinking(self, ledger):
        name = _spawn_orphan_owner()
        report = reap_orphans(ledger, dry_run=True)
        assert report.dry_run and report.reaped == [name]
        assert not _segment_gone(name)
        assert len(ledger.owners()) == 1
        # The real sweep afterwards actually removes it.
        assert reap_orphans(ledger).reaped == [name]
        assert _segment_gone(name)

    def test_min_age_skips_young_records(self, ledger):
        name = _spawn_orphan_owner()
        report = reap_orphans(ledger, min_age_s=3600.0)
        assert report.skipped == [name]
        assert not _segment_gone(name)
        assert reap_orphans(ledger).reaped == [name]

    def test_dead_attach_sidecar_swept(self, ledger):
        owner = SharedArrays.create({"x": np.arange(4, dtype=np.int64)})
        try:
            ledger.record_attach(owner.name, pid=1 << 22)
            report = reap_orphans(ledger)
            assert report.attach_swept == 1
            assert report.live == 1
        finally:
            owner.close()
            owner.unlink()

    def test_inventory_flags_orphans(self, ledger):
        g = uniform_random_graph(40, 90, seed=2)
        shared = SharedCSR.create(g)
        try:
            orphan = _spawn_orphan_owner()
            records = {r.name: r for r in segment_inventory(ledger)}
            assert records[shared.name].owner_alive
            assert records[shared.name].exists
            assert not records[orphan].owner_alive
            assert records[orphan].exists
            reap_orphans(ledger)
        finally:
            shared.close()
            shared.unlink()


class TestFinalizers:
    def test_graceful_child_exit_removes_segment(self, ledger):
        """A normally-exiting owner leaves no segment and no record."""
        ctx = multiprocessing.get_context("fork")
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=_graceful_owner_child, args=(child,))
        proc.start()
        name = parent.recv()
        proc.join(timeout=10)
        assert proc.exitcode == 0
        assert _segment_gone(name)
        assert ledger.owners() == []

    def test_forked_child_does_not_unlink_parent_segment(self, ledger):
        """Regression: the finalizer's pid guard under fork.

        A forked child inherits the parent's SharedArrays object — and
        with it the weakref.finalize callback.  When the child exits
        gracefully its finalizers run; without the pid guard they would
        unlink the segment the parent still serves.
        """
        g = uniform_random_graph(50, 110, seed=3)
        shared = SharedCSR.create(g)
        try:
            ctx = multiprocessing.get_context("fork")
            proc = ctx.Process(target=_exit_normally)
            proc.start()
            proc.join(timeout=10)
            assert proc.exitcode == 0
            # Parent's segment and ledger record must have survived the
            # child's interpreter exit.
            assert not _segment_gone(shared.name)
            assert [e.name for e in ledger.owners()] == [shared.name]
            # The payload is still fully readable through the mapping.
            assert shared.payload.num_vertices == 50
        finally:
            shared.close()
            shared.unlink()


# -- forked-child helpers (module level so fork+spawn both could run them) --

def _graceful_owner_child(conn) -> None:  # pragma: no cover - child process
    bundle = SharedArrays.create({"x": np.arange(16, dtype=np.int64)})
    conn.send(bundle.name)
    conn.close()
    sys.exit(0)  # finalizers run on normal interpreter exit


def _exit_normally() -> None:  # pragma: no cover - child process
    sys.exit(0)


def _blocking_owner_child(conn) -> None:  # pragma: no cover - child process
    g = uniform_random_graph(40, 80, seed=9)
    shared = SharedCSR.create(g)
    conn.send(shared.name)
    conn.recv()  # block until killed


def _spawn_orphan_owner() -> str:
    """Fork a segment owner and SIGKILL it, returning the orphan's name.

    ``ensure_running`` first: the children must inherit the parent's
    resource tracker.  A child that lazily spawns its own private
    tracker would have that tracker unlink the segment when the child
    is killed — silently doing the reaper's job and spraying warnings.
    """
    resource_tracker.ensure_running()
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_blocking_owner_child, args=(child,))
    proc.start()
    name = parent.recv()
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=10)
    return name
