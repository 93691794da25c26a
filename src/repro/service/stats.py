"""Operational statistics for the solver service.

:class:`StatsCollector` is the thread-safe mutable side (counters and a
bounded latency window, updated by the scheduler and by ``submit``);
:class:`ServiceStats` is the frozen snapshot handed to callers by
``SolverService.stats()``.  Latency percentiles are computed over the
last ``window`` completed requests, so a long-running service reports
recent behavior rather than an all-time average.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

__all__ = ["ServiceStats", "StatsCollector"]


@dataclass(frozen=True)
class ServiceStats:
    """Point-in-time snapshot of a running service.

    Gauges (``queue_depth``, ``in_flight``, ``workers_alive``) describe
    the instant of the snapshot; counters are monotone since service
    start; ``latency_p50``/``latency_p95`` are seconds over the recent
    completion window (0.0 until something completes).
    """

    queue_depth: int
    in_flight: int
    workers_alive: int
    workers_configured: int
    submitted: int
    completed: int
    failed: int
    shed: int
    retries: int
    worker_crashes: int
    worker_restarts: int
    deadline_failures: int
    breaker_trips: int
    breaker_states: Dict[str, str] = field(default_factory=dict)
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_count: int = 0
    cache_enabled: bool = False
    cache_entries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_stale_served: int = 0

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready dict (used by the CLI and the stress report)."""
        return {
            "queue_depth": self.queue_depth,
            "in_flight": self.in_flight,
            "workers_alive": self.workers_alive,
            "workers_configured": self.workers_configured,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "retries": self.retries,
            "worker_crashes": self.worker_crashes,
            "worker_restarts": self.worker_restarts,
            "deadline_failures": self.deadline_failures,
            "breaker_trips": self.breaker_trips,
            "breaker_states": dict(self.breaker_states),
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_count": self.latency_count,
            "cache_enabled": self.cache_enabled,
            "cache_entries": self.cache_entries,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_stale_served": self.cache_stale_served,
        }

    def format(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"queue depth:     {self.queue_depth} "
            f"(in flight {self.in_flight}, shed {self.shed})",
            f"workers:         {self.workers_alive}/{self.workers_configured} alive "
            f"({self.worker_restarts} restarts, {self.worker_crashes} crashes)",
            f"requests:        {self.submitted} submitted, "
            f"{self.completed} completed, {self.failed} failed",
            f"retries:         {self.retries} "
            f"(deadline failures {self.deadline_failures})",
            f"breaker trips:   {self.breaker_trips}",
        ]
        if self.cache_enabled:
            lines.append(
                f"result cache:    {self.cache_entries} entries, "
                f"{self.cache_hits} hits / {self.cache_misses} misses "
                f"({self.cache_evictions} evicted, "
                f"{self.cache_stale_served} served stale)"
            )
        open_breakers = {
            k: v for k, v in self.breaker_states.items() if v != "closed"
        }
        if open_breakers:
            lines.append(
                "breakers:        "
                + ", ".join(f"{k}={v}" for k, v in sorted(open_breakers.items()))
            )
        if self.latency_count:
            lines.append(
                f"latency:         p50 {self.latency_p50 * 1e3:.1f} ms, "
                f"p95 {self.latency_p95 * 1e3:.1f} ms "
                f"(window {self.latency_count})"
            )
        return "\n".join(lines)


class StatsCollector:
    """Thread-safe counters + latency window behind ``ServiceStats``.

    Counter names are fixed attributes (a typo'd ``bump`` is an
    ``AttributeError``, not a silently minted counter).
    """

    _COUNTERS = (
        "submitted",
        "completed",
        "failed",
        "shed",
        "retries",
        "worker_crashes",
        "worker_restarts",
        "deadline_failures",
        "breaker_trips",
    )

    def __init__(self, window: int = 512) -> None:
        if window < 1:
            raise ValueError(f"latency window must be >= 1, got {window}")
        self._lock = threading.Lock()
        self._latencies = deque(maxlen=window)
        for name in self._COUNTERS:
            setattr(self, name, 0)

    def bump(self, name: str, k: int = 1) -> None:
        """Increment one of the fixed counters by *k*."""
        if name not in self._COUNTERS:
            raise AttributeError(f"unknown service counter {name!r}")
        with self._lock:
            setattr(self, name, getattr(self, name) + k)

    def record_latency(self, seconds: float) -> None:
        """Add one completed-request latency to the window."""
        with self._lock:
            self._latencies.append(float(seconds))

    def snapshot(
        self,
        *,
        queue_depth: int,
        in_flight: int,
        workers_alive: int,
        workers_configured: int,
        breaker_states: Dict[str, str],
        cache: Optional[Dict[str, int]] = None,
    ) -> ServiceStats:
        """Freeze the current counters and gauges into a ServiceStats."""
        with self._lock:
            lat = np.asarray(self._latencies, dtype=np.float64)
            p50, p95 = (
                (float(np.percentile(lat, 50)), float(np.percentile(lat, 95)))
                if lat.size
                else (0.0, 0.0)
            )
            return ServiceStats(
                queue_depth=queue_depth,
                in_flight=in_flight,
                workers_alive=workers_alive,
                workers_configured=workers_configured,
                submitted=self.submitted,
                completed=self.completed,
                failed=self.failed,
                shed=self.shed,
                retries=self.retries,
                worker_crashes=self.worker_crashes,
                worker_restarts=self.worker_restarts,
                deadline_failures=self.deadline_failures,
                breaker_trips=self.breaker_trips,
                breaker_states=dict(breaker_states),
                latency_p50=p50,
                latency_p95=p95,
                latency_count=lat.size,
                cache_enabled=cache is not None,
                cache_entries=(cache or {}).get("entries", 0),
                cache_hits=(cache or {}).get("hits", 0),
                cache_misses=(cache or {}).get("misses", 0),
                cache_evictions=(cache or {}).get("evictions", 0),
                cache_stale_served=(cache or {}).get("stale_served", 0),
            )
