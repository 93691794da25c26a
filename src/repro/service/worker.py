"""Subprocess worker: the crash-isolated execution side of the service.

A worker is a child process running :func:`worker_main` over one duplex
pipe.  The parent sends one *job* dict at a time (a worker is never sent
a second job before replying), the worker executes it and sends back one
*reply* dict.  Everything crossing the pipe is plain picklable data —
numpy arrays, dicts, strings — never live library objects, so a corrupt
or dying worker cannot poison parent state.

Job kinds:

``"mis"`` / ``"matching"``
    Rebuild the graph payload (the constructors re-validate, so corrupted
    bytes fail loudly inside the worker), then run
    :func:`repro.core.engines.solve` with the requested method, guards,
    and a :class:`~repro.robustness.Budget` derived from the propagated
    deadline.  The reply carries the status/rank arrays plus the
    :class:`~repro.core.result.RunStats` fields.
``"call"``
    Import ``module.func`` and call it with ``args``/``kwargs`` — generic
    crash-isolated execution used by ``scripts/run_experiments.py`` to
    run report sections in worker processes.

Chaos hooks (all driven by the parent, seeded, replayable): a job may
carry ``chaos.kill_point`` (``"pre"``/``"post"`` — the worker hard-exits
via ``os._exit`` before or after computing, simulating an OOM kill; the
``"post"`` variant computes a result and then loses it, so the retry
must reproduce it bit-for-bit) and ``chaos.fault`` (a
:class:`~repro.robustness.FaultSpec` armed around the solve via
:class:`~repro.robustness.ChaosInjector`).

Every exception escaping a job is serialized as ``{"ok": False,
"error_type": <class name>, "error": <message>}``; the parent maps the
name back onto the :mod:`repro.errors` taxonomy.
"""

from __future__ import annotations

import importlib
import os
import sys
from contextlib import nullcontext
from typing import Any, Dict, Optional, Sequence, Union

from repro.graphs.csr import CSRGraph, EdgeList

__all__ = [
    "CHAOS_EXIT_CODE",
    "encode_payload",
    "decode_payload",
    "encode_stats",
    "execute_job",
    "worker_main",
]

#: Exit code used by chaos kills, so a post-mortem can tell an injected
#: death from a genuine crash.
CHAOS_EXIT_CODE = 86


def encode_payload(payload: Union[CSRGraph, EdgeList]) -> Dict[str, Any]:
    """Flatten a graph object into the arrays that cross the pipe."""
    if isinstance(payload, CSRGraph):
        return {
            "kind": "csr",
            "offsets": payload.offsets,
            "neighbors": payload.neighbors,
        }
    if isinstance(payload, EdgeList):
        return {
            "kind": "edges",
            "n": payload.num_vertices,
            "u": payload.u,
            "v": payload.v,
        }
    raise TypeError(
        f"solver payload must be CSRGraph or EdgeList, got {type(payload).__name__}"
    )


def decode_payload(encoded: Dict[str, Any]) -> Union[CSRGraph, EdgeList]:
    """Rebuild the graph object worker-side (constructors re-validate).

    ``kind="shared"`` payloads carry no arrays at all — just a segment
    name and a content fingerprint.  The graph is resolved through the
    per-process attachment registry (:mod:`repro.service.shared`): one
    zero-copy attach per worker, partition caches seeded from the shipped
    arrays, every later request reusing the same views.
    """
    if encoded["kind"] == "csr":
        return CSRGraph(encoded["offsets"], encoded["neighbors"])
    if encoded["kind"] == "edges":
        return EdgeList(encoded["n"], encoded["u"], encoded["v"])
    if encoded["kind"] == "shared":
        from repro.service.shared import attach_shared

        return attach_shared(encoded["name"], encoded.get("fingerprint")).payload
    raise ValueError(f"unknown payload kind {encoded['kind']!r}")


def encode_stats(stats) -> Dict[str, Any]:
    """RunStats → plain dict (the parent rebuilds the frozen dataclass)."""
    return {
        "algorithm": stats.algorithm,
        "n": stats.n,
        "m": stats.m,
        "work": stats.work,
        "depth": stats.depth,
        "steps": stats.steps,
        "rounds": stats.rounds,
        "prefix_size": stats.prefix_size,
        "aux": dict(stats.aux),
    }


def _solve_reply(job: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core.engines import solve
    from repro.robustness.budget import Budget

    payload = decode_payload(job["payload"])
    ranks = job.get("ranks")
    if ranks is None and job.get("ranks_shared"):
        # The registered bundle carries π; reuse the zero-copy view
        # instead of shipping the array with every request.
        from repro.service.shared import attach_shared

        ranks = attach_shared(job["payload"]["name"]).ranks
    deadline = job.get("deadline_seconds")
    budget_steps = job.get("budget_steps")
    budget: Optional[Budget] = None
    if deadline is not None or budget_steps is not None:
        budget = Budget(max_seconds=deadline, max_steps=budget_steps)

    sink = None
    tracer = None
    trace_path = job.get("trace_path")
    if trace_path:
        from repro.observability import JSONLSink, Tracer

        sink = JSONLSink(trace_path)
        tracer = Tracer(sink)

    fault = (job.get("chaos") or {}).get("fault")
    if fault:
        from repro.robustness.faults import ChaosInjector, FaultSpec

        injector = ChaosInjector(FaultSpec(**fault))
    else:
        injector = nullcontext()

    try:
        with injector:
            result = solve(
                job["problem"],
                payload,
                ranks,
                method=job["method"],
                guards=job.get("guards"),
                budget=budget,
                tracer=tracer,
                **(job.get("options") or {}),
            )
    finally:
        if sink is not None:
            sink.close()

    reply: Dict[str, Any] = {
        "id": job["id"],
        "ok": True,
        "kind": "matching" if job["problem"] in ("mm", "matching") else "mis",
        "status": result.status,
        "ranks": result.ranks,
        "stats": encode_stats(result.stats),
    }
    if reply["kind"] == "matching":
        reply["edge_u"] = result.edge_u
        reply["edge_v"] = result.edge_v
    return reply


def _call_reply(job: Dict[str, Any]) -> Dict[str, Any]:
    module = importlib.import_module(job["module"])
    fn = getattr(module, job["func"])
    value = fn(*(job.get("args") or ()), **(job.get("kwargs") or {}))
    return {"id": job["id"], "ok": True, "kind": "call", "value": value}


def execute_job(job: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job dict and return its reply dict (exceptions propagate)."""
    if job["problem"] == "call":
        return _call_reply(job)
    return _solve_reply(job)


def _error_reply(job: Dict[str, Any], exc: BaseException) -> Dict[str, Any]:
    return {
        "id": job.get("id"),
        "ok": False,
        "error_type": type(exc).__name__,
        "error": str(exc),
    }


def worker_main(conn, worker_id: int, sys_path: Sequence[str] = ()) -> None:
    """Child-process entry point: serve jobs from *conn* until shutdown.

    The loop exits on a ``None`` job (graceful shutdown) or a broken pipe
    (the parent died).  ``sys_path`` entries are prepended so ``"call"``
    jobs can import modules living outside the installed package (e.g.
    the ``scripts/`` directory).
    """
    for p in reversed([str(x) for x in sys_path]):
        if p not in sys.path:
            sys.path.insert(0, p)
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if job is None:
            break
        chaos = job.get("chaos") or {}
        if chaos.get("kill_point") == "pre":
            os._exit(CHAOS_EXIT_CODE)
        try:
            reply = execute_job(job)
        except KeyboardInterrupt:
            break
        except BaseException as exc:  # noqa: BLE001 — isolation boundary
            reply = _error_reply(job, exc)
        if chaos.get("kill_point") == "post":
            # The answer was computed but is lost with the process: the
            # retried attempt must reproduce it bit-for-bit.
            os._exit(CHAOS_EXIT_CODE)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:  # pragma: no cover - already closed
        pass
