"""Shared pieces of the benchmark: op records, statistics, spans, environment.

Nothing here imports :mod:`repro`; the workload modules do, after
:mod:`run` has put the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence

#: Clock for every timed region.
clock = time.perf_counter


@dataclass
class Op:
    """One completed operation of a closed loop.

    ``kind`` names the op class (``mis``/``mm`` problem plus a workload
    tag such as ``hit`` or ``mutate``); ``latency`` is the timed region
    only, in seconds; ``ok`` is filled in by the answer check after the
    timed window; ``traced`` marks ops of the traced half of a trace run.
    """

    kind: str
    problem: str
    latency: float
    ok: bool = True
    traced: bool = False
    note: str = ""


def p50(values: Sequence[float]) -> float:
    return statistics.median(values)


def p90(values: Sequence[float]) -> float:
    """90th percentile (inclusive interpolation).

    With at least 100 samples, 10 or more of them lie beyond it, which
    is the highest percentile the benchmark reports.
    """
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def ms(seconds: float) -> float:
    return seconds * 1e3


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> List[int]:
    """Direct children of *pid* (all threads), from ``/proc``."""
    out: List[int] = []
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/children", encoding="ascii") as fh:
                out.extend(int(x) for x in fh.read().split())
        except FileNotFoundError:
            continue
    return sorted(set(out))


def process_tree(pid: int) -> List[int]:
    """*pid* and all of its descendants."""
    seen = [pid]
    frontier = [pid]
    while frontier:
        nxt = []
        for p in frontier:
            try:
                nxt.extend(child_pids(p))
            except FileNotFoundError:
                continue
        nxt = [p for p in nxt if p not in seen]
        seen.extend(nxt)
        frontier = nxt
    return seen


def alive(pid: int) -> bool:
    """Whether *pid* is a running (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def still_running(pids: Iterable[int], timeout: float = 10.0) -> List[int]:
    """Those of *pids* still running after up to *timeout* seconds.

    Workers and the shared-memory resource tracker exit shortly after
    their owner shuts down; a process still there after the timeout is
    a leak.
    """
    deadline = clock() + timeout
    left = []
    for pid in pids:
        while alive(pid) and clock() < deadline:
            time.sleep(0.02)
        if alive(pid):
            left.append(pid)
    return left


def segment_left(name: str) -> List[str]:
    """Unlink shared-memory segment *name* if it still exists, and report
    it: the program should have unlinked it on shutdown."""
    path = f"/dev/shm/{name}"
    if not os.path.exists(path):
        return []
    os.unlink(path)
    return [f"shared-memory segment {name} left behind (now unlinked)"]


def own_children() -> List[int]:
    """Descendants of this process, without the shared-memory resource
    tracker (it lives as long as this process; :func:`stop_tracker`)."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker._resource_tracker, "_pid", None)
    return [p for p in process_tree(os.getpid())[1:] if p != tracker]


def stop_tracker() -> None:
    """Stop this process's shared-memory resource tracker, if running."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


# ---------------------------------------------------------------------------
# Spans (trace runs only)
# ---------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    op: int
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanLog:
    """In-memory span recorder, written out once when the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def timed(self, name: str, op: int, fn: Callable, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span; returns its value."""
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(Span(name, start, clock(), op))

    def add(self, name: str, seconds: float, op: int = -1, **attrs) -> None:
        now = clock()
        self.spans.append(Span(name, now - seconds, now, op, dict(attrs)))

    def seconds(self, name: str) -> List[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def median_ms(self, name: str) -> float:
        values = self.seconds(name)
        if not values:
            raise KeyError(f"no span named {name!r}")
        return ms(p50(values))

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "op": s.op, "start": s.start,
                    "end": s.end, **s.attrs,
                }) + "\n")


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------

#: Op-class metrics and the op kinds each one covers, per workload.  A
#: workload with no op of a class reports ``latency_p50_ms`` for it (see
#: README.md, "Class metrics").
CLASS_METRICS = (
    "mis_p50_ms", "mm_p50_ms", "hit_p50_ms", "miss_p50_ms",
    "mutate_p50_ms", "read_p50_ms",
)


def end_to_end(
    ops: Sequence[Op],
    window_s: float,
    setup_s: float,
    rss_mb: float,
    classes: Dict[str, Callable[[Op], bool]],
) -> Dict[str, Dict[str, object]]:
    """The end-to-end metric block of one untraced run."""
    lat = [o.latency for o in ops]
    overall = ms(p50(lat))
    attempted = len(ops)
    failed = sum(1 for o in ops if not o.ok)
    out = {
        "setup_s": metric(setup_s, "s"),
        "throughput_ops_s": metric(attempted / window_s, "ops/s"),
        "latency_p50_ms": metric(overall, "ms"),
        "latency_p90_ms": metric(ms(p90(lat)), "ms"),
        "success_rate": metric(1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    for name in CLASS_METRICS:
        pred = classes.get(name)
        chosen = [o.latency for o in ops if pred is not None and pred(o)]
        out[name] = metric(ms(p50(chosen)) if chosen else overall, "ms")
    return out


def environment(seed: int, load_start: Sequence[float]) -> Dict[str, object]:
    """Machine and software facts recorded beside every result."""
    import numpy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


def nth(cycle: Sequence[str], i: int):
    """Item *i* of a repeating cycle, and how often it occurred before *i*."""
    size = len(cycle)
    item = cycle[i % size]
    return item, (i // size) * cycle.count(item) + cycle[: i % size].count(item)


def toggle_batches(u, v, deletions) -> List[tuple]:
    """``(insertions, deletions)`` edge-pair lists of toggle batches whose
    deleted edge ids are the rows of *deletions* (see
    :func:`toggle_deletions`)."""
    pairs = [[(int(u[e]), int(v[e])) for e in row] for row in deletions]
    return [(pairs[k - 1] if k else [], pairs[k]) for k in range(len(pairs))]


def toggle_deletions(m: int, count: int, batch: int, rng) -> "numpy.ndarray":
    """Edge ids deleted by each of *count* toggle batches.

    Batch ``k`` deletes *batch* distinct edges, none of them deleted by
    batch ``k - 1`` (whose deletions batch ``k`` re-inserts), so the
    graph after batch ``k`` is the base graph minus row ``k``.
    """
    import numpy

    out = numpy.empty((count, batch), dtype=numpy.int64)
    prev: List[int] = []
    for k, row in enumerate(rng.integers(0, m, size=(count, 4 * batch)).tolist()):
        pick: List[int] = []
        for e in row:
            if e not in prev and e not in pick:
                pick.append(e)
                if len(pick) == batch:
                    break
        out[k] = pick
        prev = pick
    return out
