#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload engine-solve --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with per-layer spans and prints
the per-layer metrics.  Every input is generated from ``--seed`` before
anything is timed, every answer is checked, and the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
The line before it records the environment.  The exit code is 0 only
for a correct run.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("engine-solve", "http-solve", "session-mutate")


def _prepare(workdir: str) -> None:
    """Point every file the program writes at the benchmark's own directory."""
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
    ledger = os.path.join(workdir, "ledger")
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(ledger)
    os.makedirs(tmp)
    os.environ["REPRO_LEDGER_DIR"] = ledger
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp


def _workload(name: str, seed: int, scale: str, workdir: str, seconds: float):
    if name == "engine-solve":
        import engine_solve

        return engine_solve, engine_solve.EngineSolve(seed, scale, workdir)
    if name == "http-solve":
        import http_solve

        return http_solve, http_solve.HTTPSolve(seed, scale, workdir)
    import session_mutate

    return session_mutate, session_mutate.SessionMutate(seed, scale, workdir, seconds)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    scale: str = "small",
    corrupt: bool = False,
) -> Dict[str, object]:
    """One run: inputs, set-up, the timed closed loop, checks, clean-up.

    *scale* ``"tiny"`` and *corrupt* exist for ``selftest.py``: tiny
    inputs, and one deliberately corrupted answer that the check must
    count as a failure.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"error: no repro package under {SRC}")
    load_start = os.getloadavg()
    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"run-{name}-", dir=base)
    _prepare(workdir)
    import common

    problems: List[str] = []
    try:
        module, wl = _workload(name, seed, scale, workdir, seconds)
        setup_s = wl.start()
        try:
            ops, window, layers = wl.run(seconds, trace, corrupt=corrupt)
            rss = wl.rss_mb()
        finally:
            problems = wl.stop()
            common.stop_tracker()
            problems += [
                f"child process {pid} still running"
                for pid in common.still_running(common.process_tree(os.getpid())[1:])
            ]
        spans = os.path.join(workdir, "spans.jsonl")
        if trace and os.path.exists(spans):
            trace_dir = os.path.join(base, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            shutil.move(spans, os.path.join(trace_dir, f"{name}-seed{seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.exists(workdir):
            problems.append(f"work directory {workdir} left behind")
    attempted = len(ops)
    failed = sum(1 for o in ops if not o.ok)
    if trace:
        metrics = dict(layers)
        metrics["error_rate"] = common.metric(failed / attempted, "ratio")
    else:
        metrics = common.end_to_end(ops, window, setup_s, rss, module.classes())
    problems += _check_metric_names(metrics, trace)
    notes = sorted({o.note for o in ops if o.note})
    return {
        "env": common.environment(seed, load_start),
        "problems": problems,
        "notes": notes[:5],
        "result": {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def _check_metric_names(metrics: Dict[str, object], trace: bool) -> List[str]:
    """The metric names and units must be exactly those BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got == want:
        return []
    return [f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, units "
            f"{sorted(k for k in want if k in got and want[k] != got[k])}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in out["problems"] + out["notes"]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps({"env": out["env"]}))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
