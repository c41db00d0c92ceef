"""Self-test of the benchmark's tracer.

    python3 perfbench/selftest.py

Makes two traced runs of each workload (``run.py --trace 1``, seed 1) and
checks:

1. the traced passes give the same fingerprints as the untraced passes;
2. span counts match the row mix, e.g. ``harness.verify_bound.calls`` is the
   number of bound and composite rows sent;
3. every ``.calls`` count is the same in both runs.

Exits with 1 when a check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run

WORKLOADS = ("exact-suites", "windowed-suites", "monte-carlo")
SEED = 1


def traced(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--trace", "1"]
    subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=600, check=True)
    return json.loads((run.OUT / f"trace-{workload}-seed{seed}.json").read_text())


def expected_calls(side: dict) -> dict[str, int]:
    """Calls implied by the rows sent.  Only the set-up (pass 0) and the
    rows are traced: the rows of later passes are made untraced."""
    mix = side["rows_sent"]
    suite_rows = mix["bound"] + mix["ratio"] + mix["composite"] + mix["weights"]
    return {
        "scenarios.suite_rows.calls": side["suites"],
        "scenarios.mc_cases.calls": 1 if mix["mc"] else 0,
        "scenario_io.load_scenario_text.calls": side["setup_rows"] + suite_rows,
        "scenario_io.build_scenario.calls": side["setup_rows"] + suite_rows,
        "harness.verify_bound.calls": mix["bound"] + mix["composite"],
        "harness.maximal_composite_check.calls": mix["composite"],
        "harness.ratio_study.calls": mix["ratio"],
        "operators.maximal_mod.calls": mix["composite"],
        "weights.ap_constant.calls": 2 * mix["weights"],
        "weights.rh_constant.calls": side["rh_rows_sent"],
        "sampling.integrate_mc.calls": mix["mc"],
    }


def check(workload: str, seed: int) -> list[str]:
    first, second = traced(workload, seed), traced(workload, seed)
    problems = []
    for side in (first, second):
        if side["fingerprints_untraced"] != side["fingerprints_traced"]:
            diff = [k for k, v in side["fingerprints_untraced"].items()
                    if side["fingerprints_traced"].get(k) != v]
            problems.append(f"traced and untraced fingerprints differ on {diff[:5]}")
    for name, want in expected_calls(first).items():
        got = first["metrics"][name]
        if got != want:
            problems.append(f"{name} is {got}, the row mix implies {want}")
    calls = {k: v for k, v in first["metrics"].items() if k.endswith(".calls")}
    again = {k: v for k, v in second["metrics"].items() if k.endswith(".calls")}
    moved = sorted(k for k in calls if calls[k] != again.get(k))
    if moved:
        problems.append(f"call counts differ between two runs: {moved}")
    return problems


def main() -> int:
    failed = False
    for workload in WORKLOADS:
        problems = check(workload, SEED)
        failed |= bool(problems)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
