"""Front door for MIS: registry dispatch with uniform options.

Most users should call :func:`maximal_independent_set`; the per-engine
functions remain available for code that needs engine-specific knobs.

Dispatch goes exclusively through the :mod:`repro.core.engines` registry:
:data:`MIS_METHODS` is a live view of the registered engines, unsupported
knobs are rejected via each engine's capability flags
(``supports_prefix_knobs``/``supports_ranks``), and the graceful-
degradation chain for ``fallback=True`` is derived from registry order.

The front door is also the validation boundary (see
:mod:`repro.robustness.validate`): graph arrays are re-checked against the
CSR invariants and *ranks* must be a genuine permutation **before** any
engine dispatch, so corrupted inputs fail loudly instead of producing a
wrong-but-plausible set.  ``guards``/``budget``/``tracer`` thread through
to the engines that accept them, and ``fallback=True`` adds graceful
degradation: a failed engine is retried down the chain ``rootset-vec →
rootset → sequential`` with the degradation recorded in
``result.stats.aux``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core import engines as engine_registry
from repro.core.options import SolveOptions, resolve_options
from repro.core.result import MISResult
from repro.errors import EngineError, InvariantViolationError
from repro.graphs.csr import CSRGraph
from repro.pram.machine import Machine
from repro.robustness.budget import Budget
from repro.robustness.guards import resolve_guard_mode
from repro.robustness.validate import (
    check_csr_graph,
    check_csr_symmetric,
    check_ranks,
)
from repro.util.rng import SeedLike

__all__ = ["maximal_independent_set", "MIS_METHODS"]

#: Engine names accepted by :func:`maximal_independent_set` — a live view
#: of the :mod:`repro.core.engines` registry.  ``theorem45`` is the prefix
#: engine driven by the adaptive schedule from the proof of Theorem 4.5
#: (geometric degree-halving prefixes); ``rootset-vec`` is the vectorized
#: twin of ``rootset`` (same step structure, frontier-kernel execution).
MIS_METHODS = engine_registry.MethodsView("mis")

#: Degradation order for ``fallback=True``: fastest engine first, the
#: always-correct sequential baseline last.  Derived from registry order.
FALLBACK_CHAIN = engine_registry.fallback_chain("mis")

# Exceptions a fallback retry may absorb: invariant violations and the
# crash signatures of corrupted numeric state.  Configuration and input
# errors (EngineError, InvalidGraphError, InvalidOrderingError,
# BudgetExceededError) are NOT caught — they would fail identically on
# every engine in the chain.
_FALLBACK_CATCH = (
    InvariantViolationError,
    IndexError,
    ValueError,
    FloatingPointError,
    OverflowError,
    ZeroDivisionError,
)


def maximal_independent_set(
    graph: CSRGraph,
    ranks: Optional[np.ndarray] = None,
    *,
    options: Optional[SolveOptions] = None,
    method: str = "prefix",
    prefix_size: Optional[int] = None,
    prefix_frac: Optional[float] = None,
    seed: SeedLike = None,
    machine: Optional[Machine] = None,
    guards: Optional[str] = None,
    budget: Optional[Budget] = None,
    fallback: bool = False,
    tracer=None,
) -> MISResult:
    """Compute a maximal independent set of *graph*.

    Parameters
    ----------
    options:
        A :class:`~repro.core.options.SolveOptions` carrying every knob
        below in one frozen record — the preferred spelling for new code
        and the only one the service/session layers use.  When given, the
        legacy keyword arguments must be left at their defaults (mixing
        raises :class:`~repro.errors.EngineError`); the legacy kwargs
        remain supported as a shim that builds the same record.
    graph:
        Simple undirected :class:`~repro.graphs.csr.CSRGraph`.  Its arrays
        are re-validated against the CSR invariants here (symmetry too,
        under ``guards="full"``); corruption raises
        :class:`~repro.errors.InvalidGraphError`.
    ranks:
        Priority array (vertex → rank; smaller = earlier).  Random from
        *seed* when omitted.  Must be a permutation of ``0..n-1``;
        anything else (wrong length, NaN, duplicates) raises
        :class:`~repro.errors.InvalidOrderingError` before dispatch.
        Rejected by ``method="luby"``, which re-randomizes internally
        (its registry entry has ``supports_ranks=False``).
    method:
        One of :data:`MIS_METHODS`.  ``"sequential"``, ``"parallel"``,
        ``"prefix"``, ``"rootset"`` and ``"rootset-vec"`` all return the
        lexicographically first MIS for *ranks* (the paper's determinism
        property); ``"luby"`` returns a seed-dependent MIS.
    prefix_size, prefix_frac:
        Prefix knobs, only meaningful for ``method="prefix"``.
    seed:
        Randomness source for priorities (and Luby's rounds).
    machine:
        Optional :class:`~repro.pram.machine.Machine` to charge; useful to
        share one trace across phases.
    guards:
        Invariant-check mode ``off|cheap|full`` (default off), applied by
        the engines that support per-round guards (prefix, rootset,
        rootset-vec); violations raise
        :class:`~repro.errors.InvariantViolationError`.
    budget:
        Optional :class:`~repro.robustness.Budget` shared by the run (and
        by fallback retries); exhaustion raises
        :class:`~repro.errors.BudgetExceededError`, which ``fallback``
        does **not** absorb.
    fallback:
        When true, an engine failing with an invariant violation or a
        numeric crash is retried down ``rootset-vec → rootset →
        sequential`` (skipping the method that failed).  The successful
        result carries ``stats.aux["degraded"] = True``,
        ``stats.aux["fallback_engine"]`` and
        ``stats.aux["fallback_attempts"]`` (the per-engine error log).
        Engine-specific prefix knobs are not forwarded to retries.
    tracer:
        Optional :class:`~repro.observability.Tracer` receiving one round
        event per synchronous step (see ``docs/observability.md``).

    Returns
    -------
    MISResult
        Membership, the order used, and work/depth/step accounting.

    Examples
    --------
    >>> from repro.graphs.generators import cycle_graph
    >>> res = maximal_independent_set(cycle_graph(5), seed=0)
    >>> res.size in (2,)
    True
    """
    opts = resolve_options(
        options,
        dict(
            method=method,
            prefix_size=prefix_size,
            prefix_frac=prefix_frac,
            seed=seed,
            machine=machine,
            guards=guards,
            budget=budget,
            fallback=fallback,
            tracer=tracer,
        ),
    )
    method = opts.method
    prefix_size, prefix_frac = opts.prefix_size, opts.prefix_frac
    guards = opts.guards
    spec = engine_registry.get_engine("mis", method)
    if not spec.supports_prefix_knobs and (
        prefix_size is not None or prefix_frac is not None
    ):
        raise EngineError(
            f"prefix_size/prefix_frac only apply to method='prefix', not {method!r}"
        )
    mode = resolve_guard_mode(guards)
    check_csr_graph(graph)
    if mode == "full":
        check_csr_symmetric(graph)
    if ranks is not None:
        ranks = check_ranks(ranks, graph.num_vertices)
    if ranks is not None and not spec.supports_ranks:
        raise EngineError(
            f"method={method!r} regenerates priorities every round and ignores ranks; "
            "omit the ranks argument"
        )

    kwargs = opts.engine_kwargs()
    if not opts.fallback:
        return engine_registry.dispatch("mis", method, graph, ranks, **kwargs)

    attempts = []
    chain = [method] + [m for m in FALLBACK_CHAIN if m != method]
    retry_kwargs = kwargs
    for m in chain:
        try:
            result = engine_registry.dispatch("mis", m, graph, ranks, **retry_kwargs)
        except _FALLBACK_CATCH as exc:
            attempts.append({"method": m, "error": f"{type(exc).__name__}: {exc}"})
            # Retries drop engine-specific knobs: the chain engines do not
            # take them, and a bad knob should not poison the chain.
            retry_kwargs = dict(kwargs, prefix_size=None, prefix_frac=None)
            continue
        if attempts:
            result.stats.aux["degraded"] = True
            result.stats.aux["fallback_engine"] = m
            result.stats.aux["fallback_attempts"] = attempts
        return result
    raise EngineError(
        f"all fallback engines failed for method {method!r}: "
        + "; ".join(f"{a['method']}: {a['error']}" for a in attempts)
    )
