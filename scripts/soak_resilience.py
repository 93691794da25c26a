#!/usr/bin/env python
"""Run every declarative chaos scenario and write a resilience soak report.

Executes the full :data:`repro.resilience.SCENARIOS` suite — kernel
faults, worker kills pre/post compute, shared-memory segment
corruption/unlink/orphaning, deadline storms, queue floods, gateway
and network attacks, and session churn — via
:func:`repro.resilience.run_scenario`, then checks the invariants each
scenario is allowed to bend and the ones it never may:

* typed :class:`repro.errors.ReproError` failures and shed load are
  *expected* under chaos;
* untyped errors, result mismatches against a clean sequential-greedy
  reference, leaked ``/dev/shm`` segments surviving the reap, and stray
  worker processes are *never* acceptable.

The report is written as Markdown (default
``results/soak_resilience.md``) so a run's evidence can be committed.

Usage:
    python scripts/soak_resilience.py                 # full soak
    python scripts/soak_resilience.py --smoke         # tier-1 sized
    python scripts/soak_resilience.py --only segment-corrupt
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.resilience import SCENARIOS, run_scenario, scenario_by_name


def run_suite(args):
    """Run the selected scenarios, returning their outcomes in order."""
    scenarios = (
        [scenario_by_name(name) for name in args.only]
        if args.only
        else list(SCENARIOS)
    )
    if args.smoke:
        scenarios = [s.scaled(args.smoke_factor) for s in scenarios]
    outcomes = []
    for scenario in scenarios:
        print(f"running {scenario.name} ({scenario.requests} requests)...",
              flush=True)
        outcome = run_scenario(scenario, seed_offset=args.seed)
        verdict = "ok" if outcome.ok else "FAILED"
        print(f"  {verdict}: {outcome.completed}/{outcome.requests} completed,"
              f" {outcome.failed} typed failures, {outcome.shed} shed,"
              f" {len(outcome.reaped_segments)} reaped,"
              f" {outcome.duration_s:.1f}s", flush=True)
        outcomes.append((scenario, outcome))
    return outcomes


def render_report(outcomes, args) -> str:
    ok = all(o.ok for _, o in outcomes)
    total_req = sum(o.requests for _, o in outcomes)
    total_done = sum(o.completed for _, o in outcomes)
    total_reaped = sum(len(o.reaped_segments) for _, o in outcomes)
    elapsed = sum(o.duration_s for _, o in outcomes)
    lines = [
        "# Resilience soak report",
        "",
        f"Verdict: **{'SURVIVED' if ok else 'FAILED'}** — "
        f"{len(outcomes)} chaos scenarios, {total_done}/{total_req} "
        f"requests completed, {total_reaped} orphaned segments reaped, "
        f"0 leaked segments, in {elapsed:.1f}s.",
        "",
        "Reproduce with:",
        "",
        "```",
        f"python scripts/soak_resilience.py --seed {args.seed}"
        + (" --smoke" if args.smoke else ""),
        "```",
        "",
        "Every completed request is bit-identical to a clean in-process "
        "sequential-greedy solve of the same seeded instance.  Typed "
        "failures (deadline exceeded, worker crash, invalid ordering "
        "after corruption) and shed load are the *designed* responses to "
        "the injected faults; untyped errors, mismatches, leaked "
        "segments, and stray processes fail the soak.",
        "",
        "| scenario | requests | completed | shed | typed failures | "
        "reaped | leaked | strays | time (s) | verdict |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for scenario, o in outcomes:
        failures = (
            ", ".join(f"{k}×{v}" for k, v in sorted(o.failures.items()))
            or "—"
        )
        lines.append(
            f"| {scenario.name} | {o.requests} | {o.completed} | {o.shed} "
            f"| {failures} | {len(o.reaped_segments)} "
            f"| {len(o.leaked_segments)} | {len(o.stray_processes)} "
            f"| {o.duration_s:.1f} | {'ok' if o.ok else 'FAILED'} |"
        )
    lines += ["", "## Scenarios", ""]
    for scenario, o in outcomes:
        lines.append(f"- **{scenario.name}** — {scenario.description}")
        for note in o.notes:
            lines.append(f"  - {note}")
        for title, items in (("untyped", o.untyped_failures),
                             ("mismatch", o.mismatches),
                             ("leaked", o.leaked_segments),
                             ("stray", o.stray_processes)):
            for item in items:
                lines.append(f"  - **{title}**: {item}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the declarative chaos-scenario suite and write "
        "a resilience soak report."
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed offset mixed into every scenario stream")
    parser.add_argument("--only", nargs="*", default=None, metavar="NAME",
                        help="run only the named scenarios")
    parser.add_argument("--smoke", action="store_true",
                        help="scale request counts down for a <60s run")
    parser.add_argument("--smoke-factor", type=float, default=0.34,
                        help="request-count scale applied by --smoke")
    parser.add_argument("--out", default="results/soak_resilience.md",
                        help="report path ('-' = stdout only)")
    args = parser.parse_args(argv)

    outcomes = run_suite(args)
    report = render_report(outcomes, args)
    print()
    print(report)
    if args.out != "-":
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report)
        print(f"report written to {path}")
    return 0 if all(o.ok for _, o in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
