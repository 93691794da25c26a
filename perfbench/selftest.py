#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

For each workload: an untraced run must be correct and print exactly the
end-to-end metrics of ``BENCHMARK.json`` with their units; a traced run
must print exactly the per-layer metrics; and a run with one
deliberately corrupted answer must count it as failed.  Run from the
root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys

import run


def _spec(kind: str):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main() -> int:
    end_to_end, per_layer = _spec("end_to_end"), _spec("per_layer")
    failures = []
    for name in run.WORKLOADS:
        for trace, want in ((False, end_to_end), (True, per_layer)):
            out = run.run_workload(name, 3, 1.5, trace, scale="tiny")
            res = out["result"]
            label = f"{name} trace={int(trace)}"
            if not res["correct"] or res["failed"]:
                failures.append(f"{label}: not correct: {out['problems']} {out['notes']}")
            if _units(res) != want:
                failures.append(f"{label}: metrics differ from BENCHMARK.json")
            print(f"{label}: {res['attempted']} ops, {len(res['metrics'])} metrics")
        out = run.run_workload(name, 3, 1.5, False, scale="tiny", corrupt=True)
        res = out["result"]
        rate = res["metrics"]["success_rate"]["value"]
        if res["correct"] or res["failed"] < 1 or rate != 1 - res["failed"] / res["attempted"]:
            failures.append(f"{name}: a corrupted answer was not counted as failed")
        print(f"{name} corrupted: {res['failed']} of {res['attempted']} ops failed")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
