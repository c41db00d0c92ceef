"""The benchmark's workloads: inputs, the call into the library, output checks.

Suite workloads send generated suite rows one at a time, each as JSON text
through ``scenario_io.load_scenario_text`` and ``build_scenario`` and then
dispatched by kind.  Pass k of a run sends the suites drawn from suite seed
``pass_seed(k)``: pass 0 is the bundled suites (``scenarios.SUITE_SEED``, the
rows ROADMAP's targets and the c4-04 verdict refer to), and every later pass
is a fresh draw, so a run sends no row twice and a memo kept across rows
gains only what the paper's workload (each scenario checked once) would.
The one exception is ``prop-power-weights``, which has no seed: its 16 rows
are the same in every pass.  The suite seeds do not depend on the workload
seed, because the cost of a pass can move by up to 30% from one suite seed to
the next; every run sends the same passes, and the workload seed sets the
order of the rows within a pass and the sampler seeds.

The Monte Carlo workload estimates one point per case with
``hausdorff_apply(... pointwise families ...).estimate`` against the exact
value, on ``scenarios.mc_cases(pass_seed(k))`` plus one case with variance
inside a shell.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from radialpadic import harness, operators, scenario_io, scenarios, weights
from radialpadic.families import Pointwise
from radialpadic.padic import PAdicMatrix, PAdicVector
from radialpadic.radial import RadialFunction

SUITES = {
    "exact-suites": ("thm33", "c1-sharpness", "c8c9-commutator", "c2-lebesgue"),
    "windowed-suites": ("c4-morrey", "c5-local", "c6-lebesgue", "c7-composite",
                        "c10-morrey", "prop-power-weights"),
}
WORKLOADS = (*SUITES, "monte-carlo")

#: samples per Monte Carlo estimate: about 0.2 s per case, so a 35 s run
#: holds over 100 cases; the per-sample rate at this count matches the rate
#: at the tests' 3000 and 20 000 (README.md)
MC_SAMPLES = 1500

#: zero-variance estimates must match the exact value to float roundoff
ROUNDOFF = 1e-12


@dataclass(frozen=True)
class Row:
    """One request: a suite row as JSON text, or one Monte Carlo estimate."""

    id: str                # the generated row's id @ its pass
    suite: str
    kind: str
    text: str = ""
    data: Any = None       # the generated suite row, or the Monte Carlo case
    exact: float | None = None
    mc_seed: int = 0


@dataclass(frozen=True)
class Outcome:
    """A row's verdict, the numbers behind it, and whether the checks passed."""

    verdict: object
    values: tuple
    ok: bool
    samples: int = 0

    def fingerprint(self, row: Row) -> str:
        nums = ",".join(scenario_io.fmt_num(v) for v in self.values)
        return f"{row.id}|{row.kind}|{self.verdict}|{nums}"


# -- suite rows ------------------------------------------------------------------


def _interleave(groups: list[list[Row]]) -> list[Row]:
    """Interleave the suites evenly, so any stretch of a pass has the suite mix."""
    keyed = [((j + 0.5) / len(g), i, row) for i, g in enumerate(groups) for j, row in enumerate(g)]
    return [row for _, _, row in sorted(keyed, key=lambda t: t[:2])]


def pass_seed(k: int) -> int:
    """The suite seed of pass k: the bundled suites first, then fresh draws."""
    return scenarios.SUITE_SEED + k


def suite_rows(workload: str, seed: int, k: int) -> list[Row]:
    """Pass k's rows in send order; each is parsed and built once here."""
    groups = []
    for name in SUITES[workload]:
        generated = scenarios.suite_rows(name, pass_seed(k))
        random.Random(f"{seed}:{k}:{name}").shuffle(generated)
        group = []
        for data in generated:
            text = json.dumps(data)
            (model,) = scenario_io.load_scenario_text(text)
            scenario_io.build_scenario(model)
            group.append(Row(id=f"{data['id']}@{k}", suite=name, kind=data["kind"],
                             text=text, data=data))
        groups.append(group)
    return _interleave(groups)


def execute_suite_row(row: Row):
    """JSON text to report, through the public API."""
    (model,) = scenario_io.load_scenario_text(row.text)
    b = scenario_io.build_scenario(model)
    if b.kind == "bound":
        return harness.verify_bound(b.constant, b.scenario, b.scenario.inputs, window=b.window)
    if b.kind == "ratio":
        return harness.ratio_study(b.constant, b.scenario, b.rs, tol=b.tol, window=b.window)
    if b.kind == "composite":
        return harness.maximal_composite_check(b.scenario, window=b.window)
    if b.kind == "weights":
        # window stability as harness._check_muckenhoupt probes it
        half = weights.ap_constant(b.weight, b.ell, window=max(12, b.window // 2))
        full = weights.ap_constant(b.weight, b.ell, window=b.window)
        rh = weights.rh_constant(b.weight, b.rh, window=b.window) if b.rh is not None else None
        return half, full, rh
    raise ValueError(f"row {row.id}: kind {b.kind!r} is not part of any workload")


def _in_power_class(alpha: Fraction, ell: Fraction, n: int) -> bool:
    """The exact class rule of ``scenarios.prop_power_weight_rows``."""
    if ell == 1:
        return -n < alpha <= 0
    return -n < alpha < n * (ell - 1)


def judge_suite_row(row: Row, report) -> Outcome:
    """Apply the suite's output checks to one report."""
    if row.kind in ("bound", "composite"):
        # a bound verdict is recorded as computed, true or false
        ok = row.suite != "thm33" or abs(report.slack - 1.0) <= 1e-9
        return Outcome(report.holds, (report.constant, report.lhs, report.rhs, report.slack), ok)
    if row.kind == "ratio":
        if row.suite == "c1-sharpness":
            ok = report.converged
        elif row.suite == "c8c9-commutator":
            ok = all(math.isclose(r, report.target, rel_tol=1e-9) for r in report.ratios)
        else:
            ok = True
        return Outcome(report.converged, (report.target, *report.ratios), ok)
    half, full, rh = report
    stable = (half.is_finite and full.is_finite and not full.truncated
              and float(full.value) <= 2.0 * float(half.value))
    data = row.data
    in_class = _in_power_class(Fraction(str(data["weight"]["alpha"])), Fraction(str(data["ell"])),
                               data["dim"])
    values = (half, full) if rh is None else (half, full, rh)
    return Outcome(stable, values, stable == in_class)


# -- Monte Carlo rows ------------------------------------------------------------


def _first_coordinate_case() -> dict:
    """A(y) = y_1 I on p = 3, n = 2: the integrand varies inside shell 0.

    mass{y in S_0 : |y_1| = p^j} is p^j (1-1/p)^2 for j < 0, and f(y_1 x) = 1
    iff j + v <= 0, so the value at shell v >= 1 is p^-v (1 - 1/p).
    """
    p, n, v = 3, 2, 2
    return {
        "label": "mc-first-coordinate",
        "p": p, "n": n,
        "kernel_phi": RadialFunction.power(p, n, 1, 0, lo=0, hi=0),
        "pointwise_families": (Pointwise(lambda y: PAdicMatrix.scalar(p, n, y.coords[0])),),
        "inputs": (RadialFunction.chi_ball(p, n, 0),),
        "x": PAdicVector(p, (Fraction(1, p ** v), Fraction(0))),
        "shell": v,
        "exact": Fraction(1, p ** v) * (1 - Fraction(1, p)),
    }


def mc_rows(seed: int, k: int) -> list[Row]:
    """Pass k's cases in send order, each with a ready kernel and its own
    sampler seed."""
    cases = scenarios.mc_cases(pass_seed(k)) + [_first_coordinate_case()]
    random.Random(f"{seed}:{k}:mc").shuffle(cases)
    rows = []
    for j, case in enumerate(cases):
        case["kernel"] = operators.KernelSpec(case["kernel_phi"])
        exact = case.get("exact")
        rows.append(Row(
            id=f"{case['label']}@{k}", suite="mc", kind="mc", data=case,
            exact=None if exact is None else float(exact),
            mc_seed=random.Random(f"{seed}:{k}:{j}").getrandbits(31),
        ))
    return rows


def execute_mc_row(row: Row):
    """The exact value (unless known in closed form) and the sampled estimate."""
    case = row.data
    exact = row.exact
    if exact is None:
        res = operators.hausdorff_apply(case["kernel"], case["scalar_families"], case["inputs"])
        exact = float(res.as_radial().value_on_shell(case["shell"]))
    sampled = operators.hausdorff_apply(case["kernel"], case["pointwise_families"], case["inputs"])
    return exact, sampled.estimate(case["x"], n_samples=MC_SAMPLES, seed=row.mc_seed)


def judge_mc_row(row: Row, report) -> Outcome:
    """Check an estimate against its exact value."""
    exact, est = report
    if row.exact is None:
        # mc_cases integrands are constant on each shell
        tol = ROUNDOFF * max(1.0, abs(exact))
        ok = abs(est.value - exact) <= tol and est.stderr <= tol
    else:
        ok = est.stderr > 0 and est.within(exact)
    return Outcome(ok, (est.value, est.stderr, exact), ok, samples=est.n_samples)


# -- the workload ------------------------------------------------------------------


class Workload:
    """Rows of one workload for one seed; pass k is the k-th sweep, over rows
    of its own.  Pass 0 is made here, as part of the set-up; a later pass is
    made when it is first asked for, and only the current one is kept."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name, self.seed = name, seed
        self._pass = (0, self._make(0))

    def _make(self, k: int) -> list[Row]:
        if self.name == "monte-carlo":
            return mc_rows(self.seed, k)
        return suite_rows(self.name, self.seed, k)

    def pass_rows(self, k: int) -> list[Row]:
        if self._pass[0] != k:
            self._pass = (k, self._make(k))
        return self._pass[1]

    def execute(self, row: Row):
        return execute_mc_row(row) if row.kind == "mc" else execute_suite_row(row)

    def judge(self, row: Row, report) -> Outcome:
        return judge_mc_row(row, report) if row.kind == "mc" else judge_suite_row(row, report)
