"""Durable sessions: a checksummed base snapshot plus an append-only batch log.

Per session the store directory holds ``<id>.json``, the **base
snapshot** in a ``{"format": 1, "sha256": …, "snapshot": …}`` envelope
written via temp file + ``os.replace`` (a crash mid-write leaves the
previous base intact), and ``<id>.log``, one ``<sha256> <record>\\n``
line per mutation committed since the base, appended and fsynced before
the mutation is acknowledged — O(batch) bytes per mutation, not
O(graph).  Compaction writes a new base before it truncates the log,
and :meth:`SnapshotStore.load_log` skips records at or below the base
version, so a crash between the two replays nothing twice.

Hazards handled here: stray ``*.tmp`` files of writers killed before
``os.replace`` are swept on construction
(:attr:`SnapshotStore.tmp_swept`); a snapshot that fails to parse or
its SHA-256, or a complete log line that fails its own, is renamed
``.corrupt`` and raises the typed
:class:`~repro.errors.SnapshotCorruptError`, so retries cannot re-read
the poison and ``repro recover`` can inspect it; a final log line
without its newline is a write cut short by a crash — never
acknowledged, since the reply follows the fsync — and is dropped.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, List, Optional, Union

from repro.errors import ReproError, SnapshotCorruptError

__all__ = ["SnapshotStore", "canonical_json"]

PathLike = Union[str, os.PathLike]


def canonical_json(obj: Any) -> bytes:
    """Sorted-key, compact JSON bytes: the one encoding the store writes
    and hashes, so a digest is a pure function of content."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")


class SnapshotStore:
    """Directory of ``<session_id>.json`` base snapshots and ``.log`` logs.

    Session ids are restricted to ``[A-Za-z0-9_.-]`` so an id can never
    escape the store directory.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        #: ``*.tmp`` files left by writers killed mid-save, removed now.
        self.tmp_swept = self._sweep_tmp()
        #: Files this instance quarantined (renamed ``.corrupt``).
        self.quarantined = 0

    def _sweep_tmp(self) -> int:
        swept = 0
        try:
            names = os.listdir(self.root)
        except OSError:  # pragma: no cover - root vanished
            return 0
        for name in names:
            if name.endswith(".tmp"):
                try:
                    os.unlink(os.path.join(self.root, name))
                    swept += 1
                except OSError:  # pragma: no cover - raced another sweep
                    pass
        return swept

    def _path(self, session_id: str, suffix: str = ".json") -> str:
        if not session_id or not all(
            c.isalnum() or c in "_.-" for c in session_id
        ):
            raise ReproError(f"invalid session id {session_id!r}")
        return os.path.join(self.root, f"{session_id}{suffix}")

    def save(self, session_id: str, snapshot: Union[Dict[str, object], bytes]) -> str:
        """Atomically persist *snapshot* — a dict or its
        :func:`canonical_json` bytes, encoded once, hashed and written
        — and return the file path."""
        path = self._path(session_id)
        body = snapshot if isinstance(snapshot, bytes) else canonical_json(snapshot)
        digest = hashlib.sha256(body).hexdigest().encode("ascii")
        # Byte for byte the canonical encoding of the envelope dict.
        data = b'{"format":1,"sha256":"' + digest + b'","snapshot":' + body + b"}"
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    def _quarantine(self, path: str, why: str) -> "SnapshotCorruptError":
        """Rename *path* out of the way and build the typed error."""
        target = f"{path}.corrupt"
        try:
            os.replace(path, target)
            self.quarantined += 1
            where = f"; quarantined as {os.path.basename(target)!r}"
        except OSError:  # pragma: no cover - raced / read-only dir
            where = "; quarantine rename failed"
        kind = "log" if path.endswith(".log") else "snapshot"
        return SnapshotCorruptError(
            f"corrupt session {kind} {path!r}: {why}{where}"
        )

    def load(self, session_id: str) -> Optional[Dict[str, object]]:
        """Read a base snapshot back, or ``None`` if absent.

        A file that fails to parse or fails its embedded checksum is
        renamed to ``<file>.corrupt`` and raises
        :class:`~repro.errors.SnapshotCorruptError`.
        """
        path = self._path(session_id)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return None
        except OSError as exc:  # pragma: no cover - unreadable file
            raise SnapshotCorruptError(
                f"unreadable session snapshot {path!r}: {exc}"
            ) from exc
        try:
            envelope = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise self._quarantine(path, f"not valid JSON ({exc})") from exc
        if (
            not isinstance(envelope, dict)
            or not isinstance(envelope.get("snapshot"), dict)
            or not isinstance(envelope.get("sha256"), str)
        ):
            raise self._quarantine(path, "missing checksum envelope")
        snapshot = envelope["snapshot"]
        digest = hashlib.sha256(canonical_json(snapshot)).hexdigest()
        if digest != envelope["sha256"]:
            raise self._quarantine(
                path,
                f"checksum mismatch (recorded {envelope['sha256'][:12]}…, "
                f"recomputed {digest[:12]}…)",
            )
        return snapshot

    def append_log(self, session_id: str, record: Dict[str, object]) -> int:
        """Append one checksummed record to the log and fsync it.

        Returns the bytes appended.  A failed write is cut back off, so
        the next append never follows a partial line.
        """
        body = canonical_json(record)
        line = hashlib.sha256(body).hexdigest().encode("ascii") + b" " + body + b"\n"
        with open(self._path(session_id, ".log"), "ab", buffering=0) as fh:
            start = fh.tell()
            try:
                fh.write(line)
                os.fsync(fh.fileno())
            except BaseException:
                fh.truncate(start)
                raise
        return len(line)

    def load_log(self, session_id: str, after: int) -> List[Dict[str, Any]]:
        """Log records with ``version > after`` (the rest are already in
        the base), oldest first.  A torn final line is dropped; a line
        failing its checksum, or out of version order, quarantines the
        log with :class:`~repro.errors.SnapshotCorruptError`."""
        path = self._path(session_id, ".log")
        try:
            with open(path, "rb") as fh:
                lines = fh.read().split(b"\n")
        except FileNotFoundError:
            return []
        lines.pop()  # b"" after the last newline, or the torn tail
        records: List[Dict[str, Any]] = []
        for i, line in enumerate(lines, 1):
            digest, _, body = line.partition(b" ")
            if hashlib.sha256(body).hexdigest().encode("ascii") != digest:
                raise self._quarantine(path, f"record {i} fails its checksum")
            record = json.loads(body)
            version = record["version"]
            if version <= after:
                continue
            if version != after + len(records) + 1:
                raise self._quarantine(
                    path, f"record {i} has version {version}, expected "
                    f"{after + len(records) + 1}",
                )
            records.append(record)
        return records

    def truncate_log(self, session_id: str) -> None:
        """Empty the log, once a new base snapshot holds its records."""
        try:
            os.unlink(self._path(session_id, ".log"))
        except FileNotFoundError:
            pass

    def delete(self, session_id: str) -> bool:
        """Remove a snapshot and its log; ``True`` if a snapshot existed."""
        self.truncate_log(session_id)
        try:
            os.unlink(self._path(session_id))
            return True
        except FileNotFoundError:
            return False

    def list_ids(self) -> List[str]:
        """Session ids with a persisted snapshot (sorted)."""
        return sorted(n[: -len(".json")] for n in os.listdir(self.root)
                      if n.endswith(".json"))

    def corrupt_files(self) -> List[str]:
        """Quarantined snapshot and log filenames in the store (sorted)."""
        try:
            names = os.listdir(self.root)
        except OSError:  # pragma: no cover - root vanished
            return []
        return sorted(n for n in names if n.endswith(".corrupt"))

    def sweep_corrupt(self) -> List[str]:
        """Delete quarantined files (``repro recover --purge``, or a reap
        sweep with purging enabled); returns the names removed."""
        removed = []
        for name in self.corrupt_files():
            try:
                os.unlink(os.path.join(self.root, name))
                removed.append(name)
            except OSError:  # pragma: no cover - raced another sweep
                pass
        return removed
