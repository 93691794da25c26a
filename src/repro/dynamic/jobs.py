"""Worker-side entry points for session jobs.

The service runs these through the generic ``"call"`` job kind.  Each
worker caches the maintainers it serves under ``(epoch, version)``, so
the parent ships only the key and the batch and gets back a summary,
never the state.  A worker without the committed version (respawned
after a kill, or a different idle worker) answers :data:`MISS`; the
parent re-sends with ``base`` — the encoded base snapshot — and
``batches`` — the ``(insertions, deletions)`` log since it — and the
worker replays them.  The maintainers are deterministic, so the replay
is bit-identical to the maintainer that was lost.  The *epoch* is
minted by the parent per state timeline (create, restore, or an
uncommitted worker version), so a maintainer cached on an abandoned
timeline can never serve a call whose version happens to line up.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dynamic.incremental import IncrementalMatching, IncrementalMIS
from repro.dynamic.store import canonical_json
from repro.errors import InvalidGraphError
from repro.graphs.csr import CSRGraph, EdgeList

__all__ = [
    "MISS", "create_session_state", "mutate_session_state",
    "restore_session_state", "session_result", "snapshot_session_state",
]

Maintainer = Union[IncrementalMIS, IncrementalMatching]
Batches = Sequence[Tuple[Sequence[Tuple[int, int]], Sequence[Tuple[int, int]]]]

#: Reply of a call whose committed version this worker does not hold.
MISS = {"miss": True}

#: (epoch, version) → live maintainer for that committed version.
_CACHE: "OrderedDict[Tuple[str, int], Maintainer]" = OrderedDict()
_CACHE_MAX = 8


def _cache_put(key: Tuple[str, int], maintainer: Maintainer) -> None:
    _CACHE[key] = maintainer
    _CACHE.move_to_end(key)
    while len(_CACHE) > _CACHE_MAX:
        _CACHE.popitem(last=False)


def _maintainer_from_state(state: Dict[str, Any]) -> Maintainer:
    problem = state.get("problem")
    if problem == "mis":
        return IncrementalMIS.from_state(state)
    if problem == "matching":
        return IncrementalMatching.from_state(state)
    raise InvalidGraphError(f"unknown session problem {problem!r}")


def _take(epoch: str, version: int, base: Optional[bytes],
          batches: Batches) -> Optional[Maintainer]:
    """Pop the maintainer for ``(epoch, version)``, or rebuild it from
    *base* plus *batches*; ``None`` on a miss with nothing to replay."""
    maintainer = _CACHE.pop((epoch, version), None)
    if maintainer is None and base is not None:
        maintainer = _maintainer_from_state(json.loads(base)["state"])
        for insertions, deletions in batches:
            maintainer.apply_batch(insertions, deletions)
    return maintainer


def _summary(maintainer: Maintainer, dynamic: Dict[str, Any],
             meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Reply of a state transition; with *meta*, also the encoded snapshot."""
    if isinstance(maintainer, IncrementalMIS):
        size = len(maintainer.members())
    else:
        size = maintainer.num_matched
    out = {"dynamic": dynamic, "n": maintainer.n, "m": maintainer.m, "size": size}
    if meta is not None:
        out["snapshot"] = _encode(maintainer, dict(meta, dynamic=dynamic))
    return out


def _encode(maintainer: Maintainer, meta: Dict[str, Any]) -> bytes:
    return canonical_json(dict(meta, state=maintainer.to_state()))


def create_session_state(
    problem: str,
    payload: Union[CSRGraph, EdgeList],
    ranks: Optional[np.ndarray] = None,
    seed: Any = None,
    guards: Optional[str] = None,
    *,
    epoch: str,
    version: int = 0,
    meta: Dict[str, Any],
) -> Dict[str, Any]:
    """Initial solve: build and cache a maintainer; return the summary
    and the first base snapshot (*meta* plus the state)."""
    if problem == "mis":
        if not isinstance(payload, CSRGraph):
            raise InvalidGraphError("mis sessions require a CSRGraph payload")
        maintainer: Maintainer = IncrementalMIS(payload, ranks, seed=seed)
    elif problem == "matching":
        maintainer = IncrementalMatching(payload, ranks, seed=seed)
    else:
        raise InvalidGraphError(f"unknown session problem {problem!r}")
    if guards == "full":
        maintainer.verify()
    _cache_put((epoch, version), maintainer)
    return _summary(maintainer, maintainer.counters.aux(), meta)


def mutate_session_state(
    epoch: str,
    version: int,
    insertions: Sequence[Tuple[int, int]] = (),
    deletions: Sequence[Tuple[int, int]] = (),
    guards: Optional[str] = None,
    base: Optional[bytes] = None,
    batches: Batches = (),
) -> Dict[str, Any]:
    """Apply one batch to the committed version; return its summary.

    The maintainer is popped while the batch runs.  A batch rejected
    with :class:`~repro.errors.InvalidGraphError` was checked before
    any structural change, so the maintainer goes back under its old
    key; any other failure, including a failed ``guards="full"``
    :meth:`verify`, drops it so a half-applied maintainer never serves
    a later version.
    """
    maintainer = _take(epoch, version, base, batches)
    if maintainer is None:
        return MISS
    try:
        stats = maintainer.apply_batch(insertions=insertions, deletions=deletions)
    except InvalidGraphError:
        _cache_put((epoch, version), maintainer)
        raise
    if guards == "full":
        maintainer.verify()
    _cache_put((epoch, version + 1), maintainer)
    return _summary(maintainer, stats)


def restore_session_state(
    epoch: str, version: int, base: bytes, batches: Batches = (),
    guards: Optional[str] = None, *, meta: Dict[str, Any],
) -> Dict[str, Any]:
    """Rebuild *base* plus *batches* under a fresh epoch, verify it
    (with ``guards="full"``) and return the summary and the new base."""
    maintainer = _take(epoch, version, base, batches)
    if guards == "full":
        maintainer.verify()
    _cache_put((epoch, version), maintainer)
    return _summary(maintainer, maintainer.counters.aux(), meta)


def session_result(
    epoch: str, version: int, base: Optional[bytes] = None, batches: Batches = ()
) -> Any:
    """The full result object of the committed version."""
    maintainer = _take(epoch, version, base, batches)
    if maintainer is None:
        return MISS
    _cache_put((epoch, version), maintainer)
    return maintainer.result()


def snapshot_session_state(
    epoch: str, version: int, meta: Dict[str, Any],
    base: Optional[bytes] = None, batches: Batches = (),
) -> Dict[str, Any]:
    """Encode the committed version as a new base snapshot (*meta* plus
    the state)."""
    maintainer = _take(epoch, version, base, batches)
    if maintainer is None:
        return MISS
    _cache_put((epoch, version), maintainer)
    return {"snapshot": _encode(maintainer, meta)}
