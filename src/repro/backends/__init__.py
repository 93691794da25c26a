"""Shared-memory graphs: zero-copy bundles and their segment ledger.

========================  ==================================================
:mod:`~repro.backends.sharedmem`  zero-copy graph bundles in
                                  ``multiprocessing.shared_memory``
                                  (:class:`SharedArrays`, :class:`SharedCSR`)
:mod:`~repro.backends.ledger`     on-disk record of every live segment's
                                  owner, read by the reaper
========================  ==================================================

Layering: ``backends`` sits beside :mod:`repro.kernels` — it may import
the substrate (``graphs``/``pram``/``kernels``) but never the engine,
service, or bench layers.  The :class:`~repro.service.SolverService`
registers graphs through it, so a solve on a registered graph ships no
graph bytes through the worker pipe.  See ``docs/performance.md`` for the
lifecycle rules.
"""

from repro.backends.ledger import (
    LedgerEntry,
    SegmentLedger,
    default_ledger,
    ledger_enabled,
)
from repro.backends.sharedmem import SharedArrays, SharedCSR

__all__ = [
    "LedgerEntry",
    "SegmentLedger",
    "default_ledger",
    "ledger_enabled",
    "SharedArrays",
    "SharedCSR",
]
