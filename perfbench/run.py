"""Benchmark of the radialpadic library: one closed-loop client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are ``exact-suites``, ``windowed-suites`` and ``monte-carlo``
(see workloads.py).  Rows are sent one at a time, each after the previous
one has its verdict, for ``--seconds`` seconds, and on until the run holds
``MIN_ROWS`` rows so that ten of them lie beyond the p90.  Every row's
output is checked, and its fingerprint is compared with the previous run of the same
workload and seed (stored under ``.bench_out/``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the run makes a fixed number of
passes, sending each row untraced and traced, and reports the per-layer
metrics: call counts and self times of the traced layers, the tracing
overhead, and the Monte Carlo figures of the untraced runs.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_REPEATS = 5
#: a run goes on past --seconds (up to twice as long) until it holds this many
#: rows, so that at least ten lie beyond the p90
MIN_ROWS = 100
#: passes made with --trace 1, each row untraced and traced; fixed so that
#: call counts repeat exactly, and sized to take about 10-20 s a side here
TRACE_PASSES = {"exact-suites": 20, "windowed-suites": 1, "monte-carlo": 3}


@dataclass
class Measurement:
    """What one timed sweep over the rows produced."""

    wall_s: float = 0.0
    row_s: list[float] = field(default_factory=list)
    failed: int = 0
    samples: int = 0
    mc_var: list[tuple[float, float, float]] = field(default_factory=list)  # time, value, stderr
    fingerprints: dict[str, str] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.row_s)


def import_workloads():
    """Import the library from this checkout, with the workload definitions."""
    if not (SRC / "radialpadic").is_dir():
        raise ImportError(f"the library sources are missing: no {SRC / 'radialpadic'}")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def record(wl, row, m: Measurement) -> None:
    """Send one row, time it to its verdict, and check its output."""
    t0 = time.perf_counter()
    try:
        report = wl.execute(row)
    except Exception:
        m.row_s.append(time.perf_counter() - t0)
        m.failed += 1
        print(f"row {row.id} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return
    dt = time.perf_counter() - t0
    m.row_s.append(dt)
    out = wl.judge(row, report)
    if not out.ok:
        m.failed += 1
        print(f"row {row.id} failed its check: {out.fingerprint(row)}", file=sys.stderr)
    m.samples += out.samples
    if row.kind == "mc" and row.exact is not None:
        m.mc_var.append((dt, out.values[0], out.values[1]))
    m.fingerprints[row.id] = out.fingerprint(row)


def sweep(wl, seconds: float) -> Measurement:
    """Send rows one at a time for the given seconds, and on until the run
    holds MIN_ROWS rows or has taken twice as long.  Making the rows of a
    later pass is set-up work, so the clock stops for it."""
    m = Measurement()
    clock = time.perf_counter
    paused = 0.0
    start = clock()
    k = 0
    while True:
        t = clock()
        rows = wl.pass_rows(k)
        paused += clock() - t
        for row in rows:
            record(wl, row, m)
            m.wall_s = clock() - start - paused
            if m.wall_s >= seconds and (m.attempted >= MIN_ROWS or m.wall_s >= 2 * seconds):
                return m
        k += 1


def mc_figures(m: Measurement) -> tuple[float, float]:
    """Samples per second, and seconds to bring the stderr of the
    variance-carrying case to 1% of its estimate: t (stderr / (0.01 value))^2
    with the estimates of the run pooled."""
    mc_time = sum(m.row_s) if m.samples else 0.0
    rate = m.samples / mc_time if mc_time else 0.0
    if not m.mc_var:
        return rate, 0.0
    k = len(m.mc_var)
    t = sum(v[0] for v in m.mc_var)
    value = sum(v[1] for v in m.mc_var) / k
    stderr = math.sqrt(sum(v[2] ** 2 for v in m.mc_var)) / k
    return rate, t * (stderr / (0.01 * value)) ** 2


def compare_fingerprints(workload: str, seed: int, current: dict[str, str]) -> None:
    """Report rows whose fingerprint differs from the previous run's; store this run's."""
    path = OUT / "fingerprints" / f"{workload}-seed{seed}.json"
    previous = json.loads(path.read_text()) if path.exists() else {}
    changed = sorted(k for k, v in current.items() if k in previous and previous[k] != v)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**previous, **current}, indent=0, sort_keys=True))
    print(f"fingerprints: {len(current)} rows, {sum(k in previous for k in current)} compared "
          f"with the previous run, {len(changed)} differ {changed[:10]}")


def setup_samples(workload: str, seed: int, first: float) -> list[float]:
    """This process's set-up time plus that of fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def quantile_ms(m: Measurement, q: float) -> tuple[float, int]:
    """Quantile q of the row times in ms (nearest rank), and how many rows
    lie beyond it."""
    timed = sorted(m.row_s)
    t = timed[max(0, math.ceil(q * len(timed)) - 1)]
    return t * 1e3, sum(x > t for x in timed)


def end_to_end(m: Measurement, setup: list[float]) -> dict:
    p50, _ = quantile_ms(m, 0.5)
    p90, beyond = quantile_ms(m, 0.9)
    print(f"rows {m.attempted} in {m.wall_s:.2f} s, {m.failed} failed; "
          f"{beyond} rows beyond the p90; setup samples {[round(s, 4) for s in setup]}")
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "scenarios_per_s": metric(m.attempted / m.wall_s, "1/s"),
        "scenario_ms_p50": metric(p50, "ms"),
        "scenario_ms_p90": metric(p90, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def paired_sweep(wl, tracer, passes: int) -> tuple[Measurement, Measurement, list]:
    """Each row of the fixed passes twice, untraced and traced, in alternating
    order so that neither side always runs on warm caches.  Pairing the two
    runs of a row keeps drifts of the host's speed out of the overhead.
    Also returns the rows sent."""
    plain, traced = Measurement(), Measurement()
    sent = []
    for k in range(passes):
        rows = wl.pass_rows(k)
        sent += rows
        for i, row in enumerate(rows):
            for on in ((False, True) if i % 2 == 0 else (True, False)):
                if not on:
                    record(wl, row, plain)
                    continue
                tracer.install()
                try:
                    record(wl, row, traced)
                finally:
                    tracer.uninstall()
    plain.wall_s, traced.wall_s = sum(plain.row_s), sum(traced.row_s)
    return plain, traced, sent


def traced_run(workload: str, seed: int, wl, tracer) -> tuple[Measurement, dict]:
    """Per-layer metrics of fixed passes, with the untraced figures beside them."""
    passes = TRACE_PASSES[workload]
    setup_rows = sum(r.kind != "mc" for r in wl.pass_rows(0))
    plain, traced, sent = paired_sweep(wl, tracer, passes)
    same = plain.fingerprints == traced.fingerprints
    rate, to_1pct = mc_figures(plain)
    overhead = traced.wall_s - plain.wall_s
    print(f"untraced {plain.wall_s:.3f} s, traced {traced.wall_s:.3f} s, "
          f"overhead {overhead:.3f} s; "
          f"traced and untraced fingerprints {'agree' if same else 'DIFFER'}")
    layers = {name: metric(v, "count" if name.endswith(".calls") else "ms")
              for name, v in tracer.metrics().items()}
    layers.update({
        "error_frac": metric(plain.failed / plain.attempted, "fraction"),
        "mc_samples_per_s": metric(rate, "1/s"),
        "mc_s_to_1pct": metric(to_1pct, "s"),
        "trace_overhead_s": metric(overhead, "s"),
    })
    sidecar = {
        "workload": workload, "seed": seed, "passes": passes, "setup_rows": setup_rows,
        "fingerprints_untraced": plain.fingerprints, "fingerprints_traced": traced.fingerprints,
        "rows_sent": {k: sum(r.kind == k for r in sent)
                      for k in ("bound", "ratio", "composite", "weights", "mc")},
        "rh_rows_sent": sum(r.kind == "weights" and "rh" in r.data for r in sent),
        "suites": len({r.suite for r in sent if r.kind != "mc"}),
        "metrics": {k: v["value"] for k, v in layers.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(sidecar, indent=1))
    if not same:
        # a tracer that changes outputs invalidates the per-layer numbers
        traced.failed += 1
    return traced, layers


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    tracer = None
    try:
        wl_module = import_workloads()
        if args.trace:
            from tracer import Tracer

            tracer = Tracer([wl_module])
            tracer.install()
        try:
            wl = wl_module.Workload(args.workload, args.seed)
        finally:
            if tracer is not None:
                tracer.uninstall()
    except (ImportError, ValueError) as exc:
        print(f"cannot set the benchmark up: {exc}", file=sys.stderr)
        return 2
    setup = time.perf_counter() - start
    if args.setup_only:
        print(setup)
        return 0

    if tracer is not None:
        m, metrics = traced_run(args.workload, args.seed, wl, tracer)
    else:
        samples = setup_samples(args.workload, args.seed, setup)
        m = sweep(wl, seconds=args.seconds)
        metrics = end_to_end(m, samples)
    compare_fingerprints(args.workload, args.seed, m.fingerprints)
    print(json.dumps({"correct": m.failed == 0, "attempted": m.attempted,
                      "failed": m.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
