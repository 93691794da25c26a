"""Stateful graph sessions on top of the crash-isolated service.

A *session* is a long-lived incremental MIS/matching maintainer
(:mod:`repro.dynamic.incremental`) run in the
:class:`~repro.service.SolverService` worker pool through ``"call"``
jobs into :mod:`repro.dynamic.jobs`.  The maintainers are
deterministic, so a session is fully described by a **base snapshot**
plus the **log** of edge batches applied since; that is all the parent
keeps, the base only as the encoded bytes it persisted.

A mutation ships ``(epoch, version, batch)``; the worker applies it to
the maintainer it caches for that version and replies with a summary.
A worker without it (respawned after a kill, or another idle worker)
answers ``{"miss": True}`` and the parent re-sends with the base and the
log to replay (``session_replays``).  The version advances only after
success and, with a :class:`~repro.dynamic.store.SnapshotStore`, after
one fsynced, checksummed record is appended to the log, so a crashed
attempt is retried from the same committed version and sessions survive
full restarts (:meth:`SessionManager.restore`).  Every
:data:`COMPACT_EVERY` batches, and on :meth:`SessionManager.snapshot`,
the worker encodes a new base and the log is truncated.  Reads are
served by the worker the same way.

A **client** retry after an ambiguous outcome (the response was lost
after the commit) is closed by two per-mutation knobs: ``mutation_id``,
an idempotency key whose recorded outcome a duplicate replays without
touching a worker (a :data:`DEDUP_WINDOW` kept in the base and the log
records), and ``if_version``, a compare-and-swap precondition that
fails with :class:`~repro.errors.VersionConflictError` (HTTP ``409``).
"""

from __future__ import annotations

import itertools
import json
import threading
import uuid
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.options import SolveOptions, resolve_options
from repro.errors import (
    InvalidGraphError,
    ReproError,
    UnknownSessionError,
    VersionConflictError,
)
from repro.service.config import SolveRequest

__all__ = ["COMPACT_EVERY", "DEDUP_WINDOW", "SessionInfo", "SessionManager"]

_PROBLEMS = ("mis", "matching")

#: Applied mutation ids remembered per session for idempotent replay.
#: A client retrying one ambiguous mutation needs a window of 1; 128
#: leaves slack for pipelined writers.
DEDUP_WINDOW = 128

#: Logged batches folded into a new base snapshot at a time; bounds a
#: cache-miss replay and the log file.
COMPACT_EVERY = 64

#: Registry placeholder for an id whose create/restore is in flight, so
#: two concurrent creates with one explicit id cannot both commit.
_RESERVED = object()


def _normalize_batch(edges: Sequence[Any], label: str) -> List[Tuple[int, int]]:
    """Coerce one mutation batch into ``[(int, int), ...]``."""
    out: List[Tuple[int, int]] = []
    for item in edges or ():
        try:
            u, v = item
            out.append((int(u), int(v)))
        except (TypeError, ValueError):
            raise InvalidGraphError(
                f"{label} must be (u, v) pairs, got {item!r}"
            ) from None
    return out


@dataclass
class SessionInfo:
    """Public, JSON-safe description of one live session."""

    session_id: str
    problem: str
    version: int
    n: int
    m: int
    size: int
    dynamic: Dict[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class _SessionRecord:
    """Parent-side committed form of one session: base plus log."""

    session_id: str
    problem: str
    version: int
    guards: Optional[str]
    n: int = 0
    m: int = 0
    size: int = 0
    dynamic: Dict[str, Any] = field(default_factory=dict)
    #: The base snapshot's canonical JSON bytes, exactly as persisted.
    base: bytes = b""
    #: ``(insertions, deletions)`` committed since ``base``, oldest first.
    batches: List[Tuple[list, list]] = field(default_factory=list)
    #: mutation_id → recorded outcome, oldest first; bounded by
    #: :data:`DEDUP_WINDOW` and persisted in the base snapshot and the
    #: log records, so exactly-once survives full restarts.
    applied: "OrderedDict[str, Dict[str, Any]]" = field(
        default_factory=OrderedDict
    )
    #: Opaque timeline token keying the worker-side maintainer cache
    #: (:mod:`repro.dynamic.jobs`): fresh per record (create/restore),
    #: and re-minted whenever a worker may hold an uncommitted version.
    epoch: str = field(default_factory=lambda: uuid.uuid4().hex)
    lock: threading.Lock = field(default_factory=threading.Lock)
    # (version, result) of the last read.
    _result_cache: Optional[Tuple[int, Any]] = None

    def info(self) -> SessionInfo:
        return SessionInfo(
            self.session_id, self.problem, self.version,
            self.n, self.m, self.size, dict(self.dynamic),
        )

    def meta(self) -> Dict[str, Any]:
        """Every snapshot field except the maintainer's ``state``."""
        return {
            "session_id": self.session_id,
            "problem": self.problem,
            "version": self.version,
            "guards": self.guards,
            "dynamic": self.dynamic,
            "applied": [[mid, out] for mid, out in self.applied.items()],
        }


class SessionManager:
    """Session registry + lifecycle for one :class:`SolverService`.

    Mutations on one session serialize on its per-record lock (versions
    are a linear history); distinct sessions mutate concurrently through
    the shared worker pool.
    """

    def __init__(self, service, store=None) -> None:
        self._service = service
        self._store = store
        # id → _SessionRecord, or the _RESERVED placeholder while an
        # initial create/restore worker call is in flight.
        self._sessions: Dict[str, Any] = {}
        self._lock = threading.Lock()
        self._counter = itertools.count()
        # Lifetime counters surfaced by health() and /v1/metrics.
        self.mutations_applied = 0
        self.idempotent_replays = 0
        self.version_conflicts = 0
        self.session_replays = 0

    # -- helpers -----------------------------------------------------------

    def _record(self, session_id: str) -> _SessionRecord:
        with self._lock:
            record = self._sessions.get(session_id)
        if not isinstance(record, _SessionRecord):  # absent or _RESERVED
            raise UnknownSessionError(
                f"no live session {session_id!r}"
                + (" (restore_session can revive a persisted snapshot)"
                   if self._store is not None else "")
            )
        return record

    def _call(self, func: str, kwargs: Dict[str, Any], timeout_s: Optional[float]) -> Any:
        return self._service.solve(SolveRequest(
            "call", {"module": "repro.dynamic.jobs", "func": func, "kwargs": kwargs},
            timeout_seconds=timeout_s,
        ))

    def _warm_call(self, record: _SessionRecord, func: str,
                   kwargs: Dict[str, Any], timeout_s: Optional[float]) -> Any:
        """Run *func* on the worker's maintainer for the committed
        version; on a miss, re-send with the base and log to replay."""
        kwargs = dict(kwargs, epoch=record.epoch, version=record.version)
        reply = self._call(func, kwargs, timeout_s)
        if isinstance(reply, dict) and reply.get("miss"):
            with self._lock:
                self.session_replays += 1
            reply = self._call(
                func, dict(kwargs, base=record.base, batches=record.batches),
                timeout_s,
            )
        return reply

    def _rebase(self, record: _SessionRecord, body: bytes) -> None:
        """Make *body* the base: write it, then drop the log it folds in."""
        if self._store is not None:
            self._store.save(record.session_id, body)
            self._store.truncate_log(record.session_id)
        record.base, record.batches = body, []

    def _compact(self, record: _SessionRecord, timeout_s: Optional[float]) -> None:
        reply = self._warm_call(record, "snapshot_session_state",
                                {"meta": record.meta()}, timeout_s)
        self._rebase(record, reply["snapshot"])

    def _open(self, record: _SessionRecord, func: str, kwargs: Dict[str, Any],
              timeout_s: Optional[float], *, verb: str) -> SessionInfo:
        """Create or restore: reserve the id, build the maintainer at
        ``record.version`` in a worker, persist the first base, commit."""
        session_id = record.session_id
        with self._lock:
            existing = self._sessions.get(session_id)
            if existing is _RESERVED:
                raise InvalidGraphError(f"session {session_id!r} is already being created")
            if existing is not None:
                raise InvalidGraphError(f"session {session_id!r} already exists" + (
                    "; close it before restoring" if verb == "restore" else ""))
            self._sessions[session_id] = _RESERVED
        try:
            summary = self._call(func, dict(
                kwargs, epoch=record.epoch, version=record.version,
                guards=record.guards, meta=record.meta(),
            ), timeout_s)
            record.n, record.m = summary["n"], summary["m"]
            record.size, record.dynamic = summary["size"], summary["dynamic"]
            self._rebase(record, summary["snapshot"])
        except BaseException:
            with self._lock:
                if self._sessions.get(session_id) is _RESERVED:
                    del self._sessions[session_id]
            raise
        with self._lock:
            self._sessions[session_id] = record
        return record.info()

    # -- lifecycle ---------------------------------------------------------

    def create(
        self,
        problem: str,
        payload: Any,
        ranks: Any = None,
        *,
        seed: Optional[int] = None,
        guards: Optional[str] = None,
        session_id: Optional[str] = None,
        timeout_s: Optional[float] = None,
        options: Optional["SolveOptions"] = None,
    ) -> SessionInfo:
        """Initial solve: version 0 of a new session.

        ``payload`` is a :class:`~repro.graphs.csr.CSRGraph` for
        ``"mis"`` and a graph or edge list for ``"matching"``.
        ``options`` (a :class:`~repro.core.options.SolveOptions`)
        supplies ``seed``/``guards``; the legacy keywords of the same
        names may not be mixed with it.
        """
        resolved = resolve_options(options, {"seed": seed, "guards": guards})
        seed, guards = resolved.seed, resolved.guards
        if problem == "mm":
            problem = "matching"
        if problem not in _PROBLEMS:
            raise InvalidGraphError(
                f"session problem must be one of {_PROBLEMS}, got {problem!r}"
            )
        if session_id is None:
            session_id = f"s{next(self._counter)}-{uuid.uuid4().hex[:12]}"
        if ranks is not None:
            ranks = np.asarray(ranks)
        return self._open(
            _SessionRecord(session_id, problem, 0, guards), "create_session_state",
            {"problem": problem, "payload": payload, "ranks": ranks, "seed": seed},
            timeout_s, verb="create",
        )

    def mutate(
        self,
        session_id: str,
        insertions: Sequence[Any] = (),
        deletions: Sequence[Any] = (),
        *,
        timeout_s: Optional[float] = None,
        mutation_id: Optional[str] = None,
        if_version: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Apply one edge-mutation batch; returns the batch stats.

        The version advances only once the worker has applied the batch
        and (with a store) its log record is on disk.  An id already in
        the ``mutation_id`` window replays its recorded outcome (flagged
        ``idempotent_replay``) without a worker; a mismatched
        ``if_version`` applies nothing and raises
        :class:`~repro.errors.VersionConflictError`.  The duplicate check
        runs first, so a retried duplicate replays instead of conflicting.
        """
        if mutation_id is not None and (
            not isinstance(mutation_id, str) or not 0 < len(mutation_id) <= 200
        ):
            raise InvalidGraphError(
                f"mutation_id must be a non-empty string of at most 200 "
                f"characters, got {mutation_id!r}"
            )
        if if_version is not None:
            try:
                if_version = int(if_version)
            except (TypeError, ValueError):
                raise InvalidGraphError(
                    f"if_version must be an integer, got {if_version!r}"
                ) from None
            if if_version < 0:
                raise InvalidGraphError("if_version must be >= 0")
        ins = _normalize_batch(insertions, "insertions")
        dels = _normalize_batch(deletions, "deletions")
        record = self._record(session_id)
        with record.lock:
            if mutation_id is not None and mutation_id in record.applied:
                outcome = record.applied[mutation_id]
                # Refresh recency so a hot retried id is evicted last.
                record.applied.move_to_end(mutation_id)
                with self._lock:
                    self.idempotent_replays += 1
                return dict(outcome, idempotent_replay=True)
            if if_version is not None and if_version != record.version:
                with self._lock:
                    self.version_conflicts += 1
                raise VersionConflictError(
                    f"session {session_id!r} is at version {record.version}, "
                    f"mutation requires if_version={if_version}; re-read the "
                    f"current state before deciding to retry"
                )
            summary = self._warm_call(
                record, "mutate_session_state",
                {"insertions": ins, "deletions": dels, "guards": record.guards},
                timeout_s,
            )
            version = record.version + 1
            outcome = dict(
                summary["dynamic"], version=version,
                size=summary["size"], m=summary["m"],
            )
            if self._store is not None:
                # The log record carries the outcome, so the write that
                # makes this version durable also makes it replayable.
                try:
                    self._store.append_log(session_id, {
                        "version": version, "mutation_id": mutation_id,
                        "insertions": ins, "deletions": dels,
                        "outcome": outcome,
                    })
                except BaseException:
                    # A worker now holds a version that was never
                    # committed; retire the timeline it is keyed under.
                    record.epoch = uuid.uuid4().hex
                    raise
            record.version = version
            record.n, record.m = summary["n"], summary["m"]
            record.size, record.dynamic = summary["size"], summary["dynamic"]
            record.batches.append((ins, dels))
            record._result_cache = None
            if mutation_id is not None:
                record.applied[mutation_id] = dict(outcome)
                while len(record.applied) > DEDUP_WINDOW:
                    record.applied.popitem(last=False)
            with self._lock:
                self.mutations_applied += 1
            if len(record.batches) >= COMPACT_EVERY:
                try:
                    self._compact(record, timeout_s)
                except (ReproError, OSError):
                    # The mutation is already durable in the log; a
                    # failed compaction only leaves the log longer, and
                    # the next mutation tries again.
                    pass
            return outcome

    def result(self, session_id: str, *, with_version: bool = False):
        """The full result object for the committed version.

        Served by the worker's warm maintainer and cached per version.
        ``with_version=True`` returns ``(result, version)`` read under
        the record lock, so the gateway cannot pair a result with the
        version of a concurrent later mutation.
        """
        record = self._record(session_id)
        with record.lock:
            cached = record._result_cache
            if cached is None or cached[0] != record.version:
                cached = (
                    record.version,
                    self._warm_call(record, "session_result", {}, None),
                )
                record._result_cache = cached
            return (cached[1], cached[0]) if with_version else cached[1]

    def info(self, session_id: str) -> SessionInfo:
        return self._record(session_id).info()

    def snapshot(self, session_id: str) -> Dict[str, Any]:
        """A portable snapshot of the committed version, for :meth:`restore`.

        Compacts the log into a new base first; the dict returned is
        freshly decoded, so callers may serialize or mutate it freely.
        """
        record = self._record(session_id)
        with record.lock:
            self._compact(record, None)
            return json.loads(record.base)

    def restore(
        self,
        snapshot: Optional[Dict[str, Any]] = None,
        *,
        session_id: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> SessionInfo:
        """Revive a session from a snapshot (or the persistent store).

        From the store, the log records above the snapshot's version are
        replayed on top and their mutation ids join the dedup window.
        The session is rebuilt (and, under ``guards="full"``, verified)
        inside a worker, so a corrupt snapshot fails loudly here, and
        then compacted into a new base.  Refuses to replace a *live*
        session (``InvalidGraphError``): close it first.
        """
        from repro.dynamic.store import canonical_json

        records: List[Dict[str, Any]] = []
        if snapshot is None:
            if self._store is None:
                raise UnknownSessionError("restore needs a snapshot (no session_dir configured)")
            if session_id is None:
                raise UnknownSessionError("restore from the store needs a session_id")
            snapshot = self._store.load(session_id)
            if snapshot is None:
                raise UnknownSessionError(f"no persisted snapshot for session {session_id!r}")
            records = self._store.load_log(session_id, int(snapshot.get("version", 0)))
        if not isinstance(snapshot, dict) or "state" not in snapshot:
            raise InvalidGraphError("session snapshot must be a dict holding 'state'")
        sid = session_id or snapshot.get("session_id")
        if not sid:
            raise UnknownSessionError("snapshot names no session_id")
        raw = snapshot.get("applied")
        applied: "OrderedDict[str, Dict[str, Any]]" = OrderedDict(
            item for item in (raw if isinstance(raw, list) else ())
            if isinstance(item, (list, tuple)) and len(item) == 2
            and isinstance(item[0], str) and isinstance(item[1], dict)
        )
        for rec in records:
            if rec.get("mutation_id") is not None:
                applied[rec["mutation_id"]] = rec["outcome"]
        while len(applied) > DEDUP_WINDOW:
            applied.popitem(last=False)
        record = _SessionRecord(
            sid, snapshot["state"].get("problem", snapshot.get("problem")),
            int(snapshot.get("version", 0)) + len(records),
            snapshot.get("guards"), applied=applied,
        )
        return self._open(
            record, "restore_session_state",
            {
                "base": canonical_json(snapshot),
                "batches": [(r["insertions"], r["deletions"]) for r in records],
            },
            timeout_s, verb="restore",
        )

    def close(self, session_id: str, *, delete_snapshot: bool = False) -> SessionInfo:
        """Drop a session; optionally also its persisted snapshot and log."""
        with self._lock:
            record = self._sessions.get(session_id)
            if isinstance(record, _SessionRecord):
                del self._sessions[session_id]
            else:
                # Absent, or a _RESERVED placeholder an in-flight
                # create/restore still needs — leave the reservation.
                record = None
        if record is None:
            raise UnknownSessionError(f"no live session {session_id!r}")
        if delete_snapshot and self._store is not None:
            self._store.delete(session_id)
        return record.info()

    def list(self) -> List[SessionInfo]:
        """Infos for every live session (sorted by id)."""
        with self._lock:
            records = [r for r in self._sessions.values() if isinstance(r, _SessionRecord)]
        return [r.info() for r in sorted(records, key=lambda r: r.session_id)]

    def counters(self) -> Dict[str, int]:
        """Lifetime session counters for health() and /v1/metrics."""
        with self._lock:
            live = sum(
                1 for r in self._sessions.values()
                if isinstance(r, _SessionRecord)
            )
            return {
                "live_sessions": live,
                "mutations_applied": self.mutations_applied,
                "idempotent_replays": self.idempotent_replays,
                "version_conflicts": self.version_conflicts,
                "session_replays": self.session_replays,
            }
