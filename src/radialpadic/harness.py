"""Sharp operator-norm constants, extremal inputs, and bound verification.

Each of the paper's ten inequalities is identified by a :class:`ConstantId`
and described by one :class:`BoundSpec` in the table ``_SPECS``: its
hypothesis steps, the per-slot factors of its constant, the norms of its two
sides, its envelope K and its extremal family.  The functions below read the
spec of their id and do not branch on the id itself.

The constant is an exact shell series: the kernel weight ``Phi(y)/|y|^n``
integrated against per-slot factors built from the family data
(``||A_i(y)||``, ``||A_i^{-1}(y)||``, ``|det A_i^{-1}(y)|`` and, for
commutator bounds, the ``|log_p ||A_i(y)|| |`` oscillation factor).  A scalar
dilation family has ``||A_i(y)|| = p^k(g)`` on shell g, so each of its factors
is written as a function of k and pulled back along k(g) once, which keeps
the series in the radial power-log algebra with a closed form; constant-matrix
slots contribute shell-independent prefactors.

Each ingredient is stated once.  A spec gives a scalar slot's exponent e of
``p^(e k)`` and a matrix slot's factor.  A one-weight bound (C2, C4, C6, C10)
adds the delta split of ``_delta_split`` to both, on the sign of k or of
``log_p ||A||``.  A commutator bound multiplies a scalar slot by ``c + |k|``
(``_oscillation``, c = ``BoundSpec.oscillation``); its matrix slots carry
``psi * mu`` (``_psi_mu``) or their own ``|log_p ||A|| |`` term.

A :class:`Scenario` bundles the kernel, the families, and the space
parameters.  ``validate_scenario`` runs the hypothesis steps, raises
:class:`ScenarioError` naming the first violated condition, and returns the
record of derived exponents that the constant and the sides read.
``verify_bound`` evaluates both sides of the inequality on concrete inputs,
``ratio_study`` drives the extremal families toward the constant, and
``maximal_composite_check`` runs the composite maximal-of-commutator bound;
each validates its scenario once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from types import SimpleNamespace
from typing import Callable, Sequence

from .families import ConstantMatrix, Family, Pointwise, ScalarRadial, nu_of_scenario
from .numeric import ExtendedValue, Number, float_sat, is_exact, ppow
from .operators import KernelSpec, hausdorff_apply, maximal_mod
from .padic import valuation
from .radial import RadialFunction, RadialTerm, shell_sum
from .weights import (
    NormResult,
    Weight,
    ap_constant,
    cmo_norm,
    critical_index,
    lebesgue_norm,
    morrey_norm,
)

__all__ = [
    "ConstantId",
    "SpaceParams",
    "Scenario",
    "ScenarioError",
    "BoundReport",
    "RatioReport",
    "K_ENVELOPE",
    "validate_scenario",
    "compute_constant",
    "extremal_family",
    "verify_bound",
    "ratio_study",
    "maximal_composite_check",
]


class ConstantId(str, Enum):
    """Identifier of one sharp-constant inequality."""

    C1 = "C1"   # Lebesgue -> Lebesgue, power weights
    C2 = "C2"   # Lebesgue -> Lebesgue, one Muckenhoupt weight
    C3 = "C3"   # Morrey -> Morrey, power weights (exact eigenfunction case)
    C4 = "C4"   # Morrey -> Morrey, one Muckenhoupt weight
    C5 = "C5"   # commutator, local Lebesgue bound on a ball, power weights
    C6 = "C6"   # commutator, Lebesgue bound, one Muckenhoupt weight
    C7 = "C7"   # modified maximal of the commutator, power weights
    C8 = "C8"   # commutator, Morrey bound, power weights
    C9 = "C9"   # C8 specialized to scalar dilation families
    C10 = "C10"  # commutator, Morrey bound, one Muckenhoupt weight


class ScenarioError(ValueError):
    """A scenario violates a named hypothesis of its target inequality."""

    def __init__(self, condition: str, message: str):
        self.condition = condition
        super().__init__(f"{condition}: {message}")


@dataclass(frozen=True)
class SpaceParams:
    """Exponent data for the function spaces of one inequality.

    Fields are optional; validation demands exactly the ones its target
    inequality uses.  Per-slot fields carry one value per factor.
    """

    q: Number | None = None
    q_i: tuple[Number, ...] | None = None
    alpha: Number | None = None
    alpha_i: tuple[Number, ...] | None = None
    lam: Number | None = None
    lam_i: tuple[Number, ...] | None = None
    r_i: tuple[Number, ...] | None = None
    r_star_i: tuple[Number, ...] | None = None
    q_star_i: tuple[Number, ...] | None = None
    q_star: Number | None = None
    zeta: Number | None = None
    delta: Number | None = None
    gamma: int | None = None  # ball index for the local commutator bound


@dataclass(frozen=True)
class Scenario:
    """One fully specified instance of an inequality."""

    p: int
    n: int
    m: int
    kernel: KernelSpec
    families: tuple[Family, ...]
    params: SpaceParams = field(default_factory=SpaceParams)
    symbols: tuple[RadialFunction, ...] | None = None
    weight: Weight | None = None
    inputs: tuple[RadialFunction, ...] | None = None


@dataclass(frozen=True)
class BoundReport:
    """Both sides of one inequality evaluated on concrete inputs."""

    constant: ExtendedValue
    lhs: ExtendedValue
    rhs: ExtendedValue
    slack: float        # rhs / lhs; inf when lhs == 0
    holds: bool         # lhs <= K * rhs with the tracked envelope K
    envelope: float
    checks: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class RatioReport:
    """Norm ratios of the extremal families against the target constant."""

    rs: tuple[int, ...]
    ratios: tuple[float, ...]
    target: float
    converged: bool
    note: str = ""


@dataclass(frozen=True)
class BoundSpec:
    """Everything the harness knows about one inequality; one per id in ``_SPECS``."""

    steps: tuple[Callable, ...]      # hypothesis steps, run in order as step(s, rec, window)
    exponents: Callable              # slot -> e of the factor p^(e k) of a scalar slot
    matrix: Callable                 # slot -> the factor of a constant-matrix slot
    envelope: float                  # K of ``holds``: lhs <= K * rhs
    oscillation: int | None = None   # c of the commutator factor c + |k|, pulled back along
    #                                  k(g) like p^(e k); None: no commutator factor
    morrey: bool = False             # Morrey norms on both sides, else Lebesgue norms
    shared_weight: bool = False      # one Muckenhoupt weight, else |x|^alpha and |x|^alpha_i;
    #                                  the constant then splits at the weight's delta
    out_q: str = "q"                 # record key of the output exponent
    in_q: str = "q_i"                # record key of the input exponents
    cmo_r: str | None = None         # record key of the CMO exponents; None: no commutator
    local: bool = False              # C5: lhs on the ball B_gamma, its prefactor first on the rhs
    maximal: bool = False            # C7: lhs of maximal_mod of the output, inputs in
    #                                  L^(zeta q_i), symbols in unweighted CMO
    scalar_only: bool = False        # scalar dilation families only
    extremal: Callable | None = None  # (s, rec, r) -> extremal inputs; None: no sharpness study


# -- small numeric helpers ---------------------------------------------------------


def _fr(x: Number) -> Fraction:
    """x as a Fraction; a float or a bool raises ScenarioError('param-inexact')."""
    if not is_exact(x):
        _fail("param-inexact", f"parameter value {x!r} must be an int or a Fraction")
    return Fraction(x)


def _inv_sum(values: Sequence[Number]) -> Number:
    return sum((Fraction(1, 1) / _fr(v) for v in values), Fraction(0))


def _rh_ratio(r_omega: Number) -> Number:
    """r / (r - 1) with the convention that it tends to 1 as r -> inf."""
    if isinstance(r_omega, float) and math.isinf(r_omega):
        return Fraction(1)
    return _fr(r_omega) / (_fr(r_omega) - 1)


def _fail(condition: str, message: str) -> None:
    raise ScenarioError(condition, message)


def _req(value, name: str):
    if value is None:
        _fail("param-missing", f"parameter '{name}' is required for this bound")
    return value


def _req_list(values, name: str, m: int) -> tuple[Number, ...]:
    vals = _req(values, name)
    if len(vals) != m:
        _fail("param-length", f"'{name}' must list one value per factor (expected {m}, got {len(vals)})")
    return tuple(vals)


def _read(s: Scenario, *names: str) -> list:
    """The named parameters in order, each a Fraction (_fr); a name ending in
    ``_i`` is a per-slot list with one value per factor."""
    return [[_fr(v) for v in _req_list(getattr(s.params, k), k, s.m)] if k.endswith("_i")
            else _fr(_req(getattr(s.params, k), k)) for k in names]


def _prod_ev(parts: Sequence[ExtendedValue | Number]) -> ExtendedValue:
    """Product of norms/constants with explicit zero-beats-infinity semantics.

    A zero factor means an input is the zero function, which forces the
    whole side to vanish regardless of the remaining factors.
    """
    acc: Number = Fraction(1)
    saw_inf = False
    for part in parts:
        ev = part if isinstance(part, ExtendedValue) else ExtendedValue.finite(part)
        if not ev.is_finite:
            saw_inf = True
            continue
        acc = acc * ev.value
    if acc == 0:
        return ExtendedValue.finite(0)
    if saw_inf:
        return ExtendedValue.infinite()
    return ExtendedValue.finite(acc)


# -- validation --------------------------------------------------------------------
#
# A hypothesis step is called as step(s, rec, window): it raises ScenarioError
# on the first violated condition and adds what it derives to the record rec.


def _check_muckenhoupt(w: Weight, zeta: Number, n: int, window: int) -> None:
    """Membership gate for the Muckenhoupt class of index zeta.

    Pure power weights get the exact characterization; anything else is
    probed for window stability of the class constant.
    """
    prof = w.profile
    if prof.is_single_power():
        a = _fr(prof.terms[0].beta)
        upper_ok = (a <= 0) if zeta == 1 else (a < n * (zeta - 1))
        if not (-n < a and upper_ok):
            _fail(
                "muckenhoupt-class",
                f"power weight exponent {a} is outside the class range for index {zeta}",
            )
        return
    half = ap_constant(w, zeta, window=max(12, window // 2))
    full = ap_constant(w, zeta, window=window)
    stable = (
        half.is_finite
        and full.is_finite
        and not full.truncated
        and float(full.value) <= 2.0 * float(half.value)
    )
    if not stable:
        _fail("muckenhoupt-class", "the class constant is window-unstable; the weight is not in the class")


def _check_support_condition(s: Scenario, *_) -> None:
    """Kernel support must lie inside {||A_i(y)|| < 1} for every slot: its terms miss k(g) >= 0."""
    phi = s.kernel.phi
    if phi.is_zero():
        return
    k_nonneg = RadialFunction.power(s.p, s.n, 1, 0, lo=0)
    for i, fam in enumerate(s.families):
        if isinstance(fam, ConstantMatrix):
            ok = fam.k_norm < 0
        else:
            ok = (phi * k_nonneg.pullback(fam.slope, fam.offset)).is_zero()
        if not ok:
            _fail(
                "support-condition",
                f"the kernel support must lie inside {{||A_{i + 1}(y)|| < 1}}",
            )


def _check_common(spec: BoundSpec, s: Scenario) -> None:
    if s.m < 1:
        _fail("arity", "at least one factor is required")
    if len(s.families) != s.m:
        _fail("arity", f"expected {s.m} families, got {len(s.families)}")
    if s.kernel.p != s.p or s.kernel.n != s.n:
        _fail("kernel-domain", "the kernel must live on the scenario's Q_p^n")
    for fam in s.families:
        if isinstance(fam, Pointwise):
            _fail(
                "family-class",
                "pointwise families carry no shell-exact norms; use scalar or constant-matrix data",
            )
    if spec.scalar_only and not all(isinstance(f, ScalarRadial) for f in s.families):
        _fail("family-class", "this bound is stated for scalar dilation families only")
    if spec.cmo_r is not None:
        if s.symbols is None:
            _fail("symbols-required", "commutator bounds need one symbol per factor")
        if len(s.symbols) != s.m:
            _fail("symbols-required", f"expected {s.m} symbols, got {len(s.symbols)}")
        for b in s.symbols:
            if b.p != s.p or b.n != s.n:
                _fail("symbols-required", "symbols must live on the scenario's Q_p^n")
    if spec.shared_weight:
        w = _req(s.weight, "weight")
        if w.profile.p != s.p or w.profile.n != s.n:
            _fail("weight-domain", "the weight must live on the scenario's Q_p^n")


def _named(label: str, values: Sequence[Number]) -> list[tuple[str, Number]]:
    return [(f"{label}_{i + 1}", v) for i, v in enumerate(values)]


def _positive_exponents(pairs: Sequence[tuple[str, Number]], strict: bool = False) -> None:
    for name, v in pairs:
        bad = v <= 1 if strict else v < 1
        if bad:
            kind = "exceed 1" if strict else "be at least 1"
            _fail("exponent-range", f"exponent {name} = {v} must {kind}")


def _validate_power_lebesgue(s: Scenario, rec: dict[str, object], *_) -> None:
    """Shared checks for the power-weight Lebesgue-type hypotheses."""
    n = s.n
    q, qs, al, als = _read(s, "q", "q_i", "alpha", "alpha_i")
    _positive_exponents([("q", q)] + _named("q", qs))
    for i, a in enumerate(als):
        if not a > -n:
            _fail("alpha-range", f"alpha_{i + 1} = {a} must exceed -n = {-n}")
    if _inv_sum(qs) != 1 / q:
        _fail("holder-balance-q", "sum of 1/q_i must equal 1/q")
    if sum(a / qi for a, qi in zip(als, qs)) != al / q:
        _fail("holder-balance-alpha", "sum of alpha_i/q_i must equal alpha/q")
    rec.update({"q": q, "q_i": qs, "alpha": al, "alpha_i": als})


def _lambda_range(s: Scenario, qs: Sequence[Number], label: str) -> tuple[Number, list[Number]]:
    """lam and the lam_i, each lam_i in (-1/q_i, 0) for the exponents qs (named ``label``)."""
    lam, lams = _read(s, "lam", "lam_i")
    for i, (li, qi) in enumerate(zip(lams, qs)):
        if not (-1 / qi < li < 0):
            _fail("lambda-range", f"lam_{i + 1} = {li} must lie in (-1/{label}_{i + 1}, 0)")
    return lam, lams


def _validate_lambda_morrey(s: Scenario, rec: dict[str, object], *_) -> None:
    n = s.n
    lam, lams = _lambda_range(s, rec["q_i"], "q")
    target = (rec["alpha"] + n) * lam
    if target != sum((a + n) * li for a, li in zip(rec["alpha_i"], lams)):
        _fail("lambda-morrey-balance", "(alpha + n) lam must equal the sum of (alpha_i + n) lam_i")
    rec["lam"] = lam
    rec["lam_i"] = lams


def _validate_lambda_sum(s: Scenario, rec: dict[str, object], *_, key: str, label: str) -> None:
    """One-weight Morrey hypotheses on lam, against the exponents rec[key]."""
    lam, lams = _lambda_range(s, rec[key], label)
    if lam != sum(lams):
        _fail("lambda-sum", "lam must equal the sum of the lam_i")
    rec["lam"] = lam
    rec["lam_i"] = lams


def _validate_section4_balances(s: Scenario, rec: dict[str, object], *_) -> None:
    """Power-weight commutator hypotheses: r_i ranges and combined balances."""
    n = s.n
    q, qs, rs, al, als = _read(s, "q", "q_i", "r_i", "alpha", "alpha_i")
    _positive_exponents([("q", q)] + _named("q", qs))
    _positive_exponents(_named("r", rs), strict=True)
    for i, (a, ri) in enumerate(zip(als, rs)):
        if not (-n < a < n * (ri - 1)):
            _fail("alpha-range", f"alpha_{i + 1} = {a} must lie in (-n, n(r_{i + 1} - 1))")
    if _inv_sum(qs) + _inv_sum(rs) != 1 / q:
        _fail("holder-balance-q", "sum of 1/q_i plus sum of 1/r_i must equal 1/q")
    if sum(a / qi for a, qi in zip(als, qs)) + sum(a / ri for a, ri in zip(als, rs)) != al / q:
        _fail("holder-balance-alpha", "sum of alpha_i/q_i plus sum of alpha_i/r_i must equal alpha/q")
    rec.update({"q": q, "q_i": qs, "r_i": rs, "alpha": al, "alpha_i": als})


def _validate_shared_weight(s: Scenario, zeta: Number, window: int) -> dict[str, object]:
    """Muckenhoupt-weight checks shared by the single-weight bounds."""
    w = s.weight
    r_om = critical_index(w)
    if not float(r_om) > 1.0:
        _fail("reverse-holder-index", "the weight's critical reverse-Holder index must exceed 1")
    delta = s.params.delta
    if delta is None:
        delta = Fraction(2) if math.isinf(float(r_om)) else (1 + _fr(r_om)) / 2
    delta = _fr(delta)
    upper_ok = True if math.isinf(float(r_om)) else delta < _fr(r_om)
    if not (1 < delta and upper_ok):
        _fail("delta-range", f"delta = {delta} must lie strictly between 1 and the critical index {r_om}")
    _check_muckenhoupt(w, zeta, s.n, window)
    return {"r_omega": r_om, "delta": delta}


def _validate_weighted_holder(s: Scenario, rec: dict[str, object], window: int) -> None:
    """One-weight hypotheses of the Hausdorff operator (C2, C4)."""
    q_star, zeta, qs = _read(s, "q_star", "zeta", "q_i")
    _positive_exponents([("q_star", q_star), ("zeta", zeta)] + _named("q", qs))
    q = Fraction(1, 1) / _inv_sum(qs)
    rec.update({"q": q, "q_i": qs, "zeta": zeta, "q_star": q_star})
    rec.update(_validate_shared_weight(s, zeta, window))
    if not q > q_star * zeta * _rh_ratio(rec["r_omega"]):
        _fail(
            "q-exponent-gap",
            "q derived from the q_i must exceed q_star * zeta * r/(r-1) at the critical index",
        )


def _validate_weighted_commutator(s: Scenario, rec: dict[str, object], window: int) -> None:
    """One-weight hypotheses of the commutator (C6, C10)."""
    q_star, zeta, q_stars, r_stars = _read(s, "q_star", "zeta", "q_star_i", "r_star_i")
    _positive_exponents([("q_star", q_star), ("zeta", zeta)] + _named("q*", q_stars) + _named("r*", r_stars))
    for i, ri in enumerate(r_stars):
        if not zeta <= ri:
            _fail("zeta-r-compat", f"zeta = {zeta} must not exceed r*_{i + 1} = {ri}")
    rec.update({"zeta": zeta, "q_star": q_star, "q_star_i": q_stars, "r_star_i": r_stars})
    rec.update(_validate_shared_weight(s, zeta, window))
    gap = (_inv_sum(r_stars) + _inv_sum(q_stars)) * zeta * _rh_ratio(rec["r_omega"])
    if not Fraction(1, 1) / q_star > gap:
        _fail(
            "r-star-q-star-balance",
            "1/q_star must exceed (sum 1/r*_i + sum 1/q*_i) * zeta * r/(r-1) at the critical index",
        )


def _validate_composite(s: Scenario, rec: dict[str, object], *_) -> None:
    """Hypotheses of the maximal-of-commutator bound (C7)."""
    n = s.n
    zeta, q_star, qs, r_stars, al, als = _read(s, "zeta", "q_star", "q_i", "r_star_i", "alpha", "alpha_i")
    _positive_exponents([("zeta", zeta)], strict=True)
    _positive_exponents([("q_star", q_star)] + _named("q", qs) + _named("r*", r_stars))
    for i, a in enumerate(als):
        if not (-n < a < n * (zeta - 1)):
            _fail("alpha-range", f"alpha_{i + 1} = {a} must lie in (-n, n(zeta - 1))")
    if _inv_sum(qs) != zeta / q_star:
        _fail("holder-balance-q", "sum of 1/q_i must equal zeta/q_star")
    if sum(a / qi for a, qi in zip(als, qs)) != zeta * al / q_star:
        _fail("holder-balance-alpha", "sum of alpha_i/q_i must equal zeta * alpha / q_star")
    if _inv_sum(qs) + _inv_sum(r_stars) != 1:
        _fail("composite-balance", "sum of 1/q_i plus sum of 1/r*_i must equal 1")
    rec.update(
        {"zeta": zeta, "q_star": q_star, "q_i": qs, "r_star_i": r_stars, "alpha": al, "alpha_i": als}
    )


def _record_nu(s: Scenario, rec: dict[str, object], *_) -> None:
    rec["nu"] = nu_of_scenario(s.families)


def validate_scenario(cid: ConstantId, s: Scenario, *, window: int = 48) -> dict[str, object]:
    """Check every hypothesis of the target inequality.

    Returns recorded diagnostics (derived exponents, the oscillation bound
    nu, the reverse-Holder index, the chosen delta).
    Raises :class:`ScenarioError` naming the first violated condition.
    """
    spec = _SPECS[cid]
    _check_common(spec, s)
    rec: dict[str, object] = {}
    for step in spec.steps:
        step(s, rec, window)
    return rec


# -- factor construction -----------------------------------------------------------


def _k_factor(p: int, n: int, es: Sequence[Number]) -> RadialFunction:
    """A slot's power factor in the shell variable k: |x|^e for es = (e,), or
    for a delta split (e_le, e_gt) |x|^e_le on shells <= 0 plus |x|^e_gt on
    shells >= 1."""
    if len(es) == 1:
        return RadialFunction(p, n, (RadialTerm(Fraction(1), es[0], 0),))
    return RadialFunction(p, n, (RadialTerm(Fraction(1), es[0], 0, None, 0),
                                 RadialTerm(Fraction(1), es[1], 0, 1, None)))


def _oscillation(p: int, n: int, c: int) -> RadialFunction:
    """The oscillation factor c + |k| of a commutator bound as a function of k:
    c = 0 for a log symbol's |k| (C8, C9), and c = 4 where for scalar dilations
    the four bookkeeping summands of the commutator factor collapse to the
    constant 4, leaving only the |log_p ||A|| | term (C5, C6, C7, C10)."""
    abs_k = (RadialTerm(Fraction(-1), 0, 1, None, 0), RadialTerm(Fraction(1), 0, 1, 1, None))
    return RadialFunction(p, n, ((RadialTerm(Fraction(c), 0, 0),) if c else ()) + abs_k)


def _delta_split(v: SimpleNamespace, lam: Number) -> tuple[Number, Number]:
    """The exponents (on k <= 0, on k > 0) that a one-weight bound adds for the
    weight's reverse-Holder delta: n zeta lam and n lam (delta - 1)/delta.  A
    Morrey slot splits at its lam_i; a Lebesgue slot of input exponent q at
    lam = -1/q, since L^q is the Morrey space of index -1/q."""
    return v.n * v.zeta * lam, v.n * lam * (v.delta - 1) / v.delta


def _slot(s: Scenario, rec: dict[str, object], i: int, **extra) -> SimpleNamespace:
    """Slot i's view of a validated record (each per-slot list read at i), with p,
    n and pw(e) = p^e; a constant-matrix slot adds kp = log_p ||A||,
    km = log_p ||A^{-1}|| and vd = log_p |det A^{-1}|."""
    return SimpleNamespace(p=s.p, n=s.n, pw=lambda e: ppow(s.p, _fr(e)), **extra,
                           **{k: v[i] if isinstance(v, list) else v for k, v in rec.items()})


def _lebesgue_exponent(v: SimpleNamespace) -> Number:
    return -(v.alpha_i + v.n) / v.q_i


def _morrey_exponent(v: SimpleNamespace) -> Number:
    return (v.alpha_i + v.n) * v.lam_i


def _composite_exponent(v: SimpleNamespace) -> Number:
    return -(v.zeta + v.n) / (v.zeta * v.q_i)


def _morrey_matrix(v: SimpleNamespace) -> Number:
    return v.pw(-v.km * (v.alpha_i + v.n) * v.lam_i)


def _c5_matrix(v: SimpleNamespace) -> Number:
    kp, vd, n, a, ri, pw = v.kp, v.vd, v.n, v.alpha_i, v.r_i, v.pw
    mx = max(v.km * a, -kp * a)      # exponent of max{||A^{-1}||^a, ||A||^{-a}}
    psi = 1 + pw((mx + vd) / ri + kp * (n + a) / ri) + abs(kp) + 2 * pw(kp * n + vd)
    return psi * pw((mx + vd) / v.q_i)


def _psi_mu(v: SimpleNamespace, zeta: Number, r: Number, q: Number) -> Number:
    """The factors psi and mu of a commutator's matrix slot: at zeta, r*_i and
    q*_i for the one-weight bounds (C6, C10), at 1, r*_i and q_i for C7."""
    kp, pw = v.kp, v.pw
    e = v.vd + kp * v.n              # log_p of |det A^{-1}| ||A||^n
    psi = 1 + 2 * pw(e) + pw(e * zeta / r) + abs(kp)
    return psi * pw(e * zeta / q)


@lru_cache(maxsize=256)
def _slot_factor(p: int, n: int, oscillation: int | None, slope: int, offset: int,
                 *es: Number) -> RadialFunction:
    """A scalar slot's factor on the kernel line: the power factor of the
    exponents es (_k_factor) pulled back along k(g) = slope*g + offset, times
    the oscillation c + |k| (c = oscillation) pulled back alike when there is
    one.  With no exponents it is the pulled-back oscillation alone.

    Built once per key (p, n, oscillation, slope, offset, es) and kept for the
    process in a bounded cache of immutable functions.  The exponents are
    exact, each an int or a Fraction, so exponents that compare equal give
    one factor and share its entry.  Fresh exponents miss, but their
    oscillation, keyed without them, is found again.
    """
    if not es:
        return _oscillation(p, n, oscillation).pullback(slope, offset)
    factor = _k_factor(p, n, es).pullback(slope, offset)
    if oscillation is not None:
        factor = _slot_factor(p, n, oscillation, slope, offset) * factor
    return factor


def _constant(spec: BoundSpec, s: Scenario, rec: dict[str, object]) -> ExtendedValue:
    """compute_constant on a validated record: the kernel line times each scalar
    slot's factor (_slot_factor, cached on (p, n, spec.oscillation, slope,
    offset, the slot's exponents)), summed, times each constant-matrix slot's
    factor.  A one-weight bound's delta split (_delta_split) adds its pair to
    a scalar slot's exponent, and multiplies a matrix slot's factor by
    p^(kp e) with e the pair's entry for the sign of kp."""
    p, n = s.p, s.n
    line = s.kernel.phi
    pre: Number = Fraction(1)
    for i, fam in enumerate(s.families):
        scalar = isinstance(fam, ScalarRadial)
        v = _slot(s, rec, i) if scalar else _slot(
            s, rec, i, kp=fam.k_norm, km=fam.k_inverse, vd=valuation(fam.matrix.det(), p))
        split = None
        if spec.shared_weight:
            split = _delta_split(v, v.lam_i if spec.morrey else -1 / getattr(v, spec.in_q))
        if scalar:
            e = _fr(spec.exponents(v))
            es = (e,) if split is None else (e + split[0], e + split[1])
            line = line * _slot_factor(p, n, spec.oscillation, fam.slope, fam.offset, *es)
        else:
            factor = spec.matrix(v)
            if split is not None:
                factor = factor * v.pw(v.kp * (split[1] if v.kp > 0 else split[0]))
            pre = pre * factor
    unit = 1 - Fraction(p) ** (-n)
    return shell_sum(line).scaled(pre * unit)


def compute_constant(cid: ConstantId, s: Scenario, *, window: int = 48) -> ExtendedValue:
    """The inequality's constant as an exact shell series.

    Divergent series yield an infinite :class:`ExtendedValue` with its
    divergence flag set; hypothesis violations raise :class:`ScenarioError`.
    """
    rec = validate_scenario(cid, s, window=window)
    return _constant(_SPECS[cid], s, rec)


# -- extremal families --------------------------------------------------------------


def _truncated_powers(s: Scenario, rec: dict[str, object], r: int) -> tuple[RadialFunction, ...]:
    """C1: truncated powers whose exponent approaches the critical index as r grows."""
    p, n = s.p, s.n
    nu = rec["nu"]
    eps = Fraction(1, p ** r)
    return tuple(
        RadialFunction.power(p, n, 1, -(a + n) / qi - eps, lo=-nu)
        for a, qi in zip(rec["alpha_i"], rec["q_i"])
    )


def _power_eigenfunctions(s: Scenario, rec: dict[str, object], r: int) -> tuple[RadialFunction, ...]:
    """C3, C8, C9: the exact power eigenfunctions.  r is ignored, so every r
    gives the same family and a ratio study applies the operator once."""
    p, n = s.p, s.n
    return tuple(
        RadialFunction.power(p, n, 1, (a + n) * li)
        for a, li in zip(rec["alpha_i"], rec["lam_i"])
    )


def extremal_family(cid: ConstantId, s: Scenario, r: int = 1) -> tuple[RadialFunction, ...]:
    """The norm-ratio maximizing inputs at sharpness parameter r.

    The Lebesgue-case inputs are truncated powers whose exponent approaches
    the critical index as r grows; the Morrey/commutator cases use the exact
    power eigenfunctions (r is ignored there).
    """
    if r < 1:
        raise ValueError("the sharpness parameter r must be a positive integer")
    rec = validate_scenario(cid, s)
    spec = _SPECS[cid]
    if spec.extremal is None:
        raise ScenarioError("unsupported-id", f"no extremal family is defined for {ConstantId(cid).value}")
    return spec.extremal(s, rec, r)


# -- the table -----------------------------------------------------------------------


# Envelope K per inequality: ``holds`` asserts lhs <= K * rhs.  K = 1 where
# the proof chain is an equality chain on scalar dilation families (C1, C3).
# The other ids carry K = 1.25.  It was said to come from a fit on a
# calibration sweep (seed 20240811, 40 scenarios per id) with a 1.25 margin,
# but no code in this package reproduces that fit, and bundled rows exceed
# it (c4-04 reports lhs/rhs = 1.27, holds = False).
_SPECS: dict[ConstantId, BoundSpec] = {
    ConstantId.C1: BoundSpec(
        steps=(_validate_power_lebesgue, _record_nu), exponents=_lebesgue_exponent,
        matrix=lambda v: v.pw(v.km * (v.alpha_i + v.n) / v.q_i), envelope=1.0, extremal=_truncated_powers),
    ConstantId.C2: BoundSpec(
        steps=(_validate_weighted_holder,), exponents=lambda v: v.zeta / v.q_i * (1 - v.n),
        matrix=lambda v: v.pw((v.vd + v.kp) * v.zeta / v.q_i), envelope=1.25, shared_weight=True,
        out_q="q_star"),
    ConstantId.C3: BoundSpec(
        steps=(_validate_power_lebesgue, _validate_lambda_morrey, _record_nu), exponents=_morrey_exponent,
        matrix=_morrey_matrix, envelope=1.0, morrey=True, extremal=_power_eigenfunctions),
    ConstantId.C5: BoundSpec(
        steps=(_validate_section4_balances,), exponents=_lebesgue_exponent, oscillation=4,
        matrix=_c5_matrix, envelope=1.25, cmo_r="r_i", local=True),
    ConstantId.C6: BoundSpec(
        steps=(_validate_weighted_commutator,), exponents=lambda v: 0, oscillation=4,
        matrix=lambda v: _psi_mu(v, v.zeta, v.r_star_i, v.q_star_i), envelope=1.25, shared_weight=True,
        out_q="q_star", in_q="q_star_i", cmo_r="r_star_i"),
    ConstantId.C7: BoundSpec(
        steps=(_validate_composite,), exponents=_composite_exponent, oscillation=4,
        matrix=lambda v: _psi_mu(v, 1, v.r_star_i, v.q_i) * v.pw(v.kp * _composite_exponent(v)),
        envelope=1.25, out_q="q_star", cmo_r="r_star_i", maximal=True),
    ConstantId.C8: BoundSpec(
        steps=(_validate_section4_balances, _validate_lambda_morrey, _check_support_condition, _record_nu),
        exponents=_morrey_exponent, oscillation=0, matrix=lambda v: _morrey_matrix(v) * abs(v.kp),
        envelope=1.25, morrey=True, cmo_r="r_i", extremal=_power_eigenfunctions),
}
# C4 and C10 are C2 and C6 on Morrey spaces, and C9 is C8 on scalar families.
_SPECS[ConstantId.C4] = replace(
    _SPECS[ConstantId.C2], morrey=True,
    steps=_SPECS[ConstantId.C2].steps + (partial(_validate_lambda_sum, key="q_i", label="q"),))
_SPECS[ConstantId.C10] = replace(
    _SPECS[ConstantId.C6], morrey=True,
    steps=_SPECS[ConstantId.C6].steps + (partial(_validate_lambda_sum, key="q_star_i", label="q*"),))
_SPECS[ConstantId.C9] = replace(_SPECS[ConstantId.C8], scalar_only=True)

K_ENVELOPE: dict[ConstantId, float] = {cid: _SPECS[cid].envelope for cid in ConstantId}


# -- bound verification --------------------------------------------------------------


def _apply_exact(s: Scenario, fs: Sequence[RadialFunction],
                 symbols: Sequence[RadialFunction] | None) -> RadialFunction:
    """The operator's output on the inputs: the commutator with the symbols,
    or the Hausdorff operator itself when symbols is None."""
    if not all(isinstance(f, ScalarRadial) for f in s.families):
        _fail("family-class", "exact norm verification requires scalar dilation families")
    if s.kernel.support_shells() is None:
        _fail("kernel-support", "exact norm verification requires a finite-support kernel")
    return hausdorff_apply(s.kernel, s.families, fs, symbols=symbols).as_radial()


def _weights(spec: BoundSpec, s: Scenario, rec: dict[str, object]) -> tuple[Weight, list[Weight]]:
    """The output weight and the input weights: the shared weight, else
    |x|^alpha and the |x|^alpha_i."""
    if spec.shared_weight:
        return s.weight, [s.weight] * s.m
    return Weight.power(s.p, s.n, rec["alpha"]), [Weight.power(s.p, s.n, a) for a in rec["alpha_i"]]


def _sides(spec: BoundSpec, s: Scenario, rec: dict[str, object], F: RadialFunction,
           fs: Sequence[RadialFunction], window: int, weights: tuple[Weight, list[Weight]]
           ) -> tuple[ExtendedValue, list[Number], list[ExtendedValue]]:
    """(lhs, pre, factors): the norm of the output F, the factors put before
    the constant on the right side (C5's ball prefactor), and those after it
    (the CMO norms of the symbols, then the norms of the inputs).  weights
    is ``_weights(spec, s, rec)``."""
    p, n = s.p, s.n
    w, wis = weights
    in_qs = rec[spec.in_q]
    if spec.maximal:
        F = maximal_mod(F)
        in_qs = [rec["zeta"] * qi for qi in in_qs]
    pre, hi = [], None
    if spec.local:
        hi = _req(s.params.gamma, "gamma")
        pre = [ppow(p, sum((_fr(a) + n) / ri for a, ri in zip(rec["alpha_i"], rec["r_i"])) * hi)]
    seen: dict[tuple, ExtendedValue] = {}

    def once(norm: Callable[..., NormResult], *args: object, **kw: object) -> ExtendedValue:
        # slots with equal (input or symbol, weight, exponents) share one norm
        key = (norm, *args)
        if key not in seen:
            seen[key] = norm(*args, **kw).value
        return seen[key]

    if spec.morrey:
        lhs = morrey_norm(F, w, rec[spec.out_q], rec["lam"], window=window).value
        ins = [once(morrey_norm, f, wi, qi, li, window=window)
               for f, wi, qi, li in zip(fs, wis, in_qs, rec["lam_i"])]
    else:
        lhs = lebesgue_norm(F, w, rec[spec.out_q], hi=hi).value
        ins = [once(lebesgue_norm, f, wi, qi) for f, wi, qi in zip(fs, wis, in_qs)]
    cmos = []
    if spec.cmo_r is not None:
        cws = [Weight.power(p, n, 0)] * s.m if spec.maximal else wis
        cmos = [once(cmo_norm, b, cw, ri, window=window)
                for b, cw, ri in zip(s.symbols, cws, rec[spec.cmo_r])]
    return lhs, pre, cmos + ins


def verify_bound(cid: ConstantId, s: Scenario, fs: Sequence[RadialFunction],
                 *, window: int = 48) -> BoundReport:
    """Evaluate both sides of the inequality on the given inputs.

    slack = rhs/lhs; ``holds`` asserts lhs <= K * rhs with the tracked
    envelope K.  A divergent left side against a finite right side is the
    counterexample signal (holds = False).
    """
    rec = validate_scenario(cid, s, window=window)
    spec = _SPECS[cid]
    fs = tuple(fs)
    if len(fs) != s.m:
        _fail("arity", f"expected {s.m} inputs, got {len(fs)}")
    for f in fs:
        if f.p != s.p or f.n != s.n:
            _fail("arity", "inputs must live on the scenario's Q_p^n")

    constant = _constant(spec, s, rec)
    F = _apply_exact(s, fs, s.symbols if spec.cmo_r is not None else None)
    lhs, pre, factors = _sides(spec, s, rec, F, fs, window, _weights(spec, s, rec))
    rhs = _prod_ev(pre + [constant] + factors)

    K = spec.envelope
    lf, rf = float_sat(lhs.value), float_sat(rhs.value)
    if lf == 0.0:
        slack, holds = math.inf, True
    elif math.isinf(lf) and not math.isinf(rf):
        slack, holds = 0.0, False
    elif math.isinf(rf):
        slack, holds = math.inf, True
    else:
        slack = rf / lf
        holds = lf <= K * rf * (1 + 1e-9)
    return BoundReport(
        constant=constant, lhs=lhs, rhs=rhs,
        slack=slack, holds=holds, envelope=K, checks=rec,
    )


def maximal_composite_check(s: Scenario, fs: Sequence[RadialFunction] | None = None,
                            *, window: int = 48) -> BoundReport:
    """The composite bound: modified maximal of the commutator output.

    Inputs default to the scenario's, else to unit plateaus on shells
    [-2, 2]; the report is the composite inequality's :class:`BoundReport`.
    """
    if fs is None:
        fs = s.inputs
    if fs is None:
        plateau = RadialFunction.power(s.p, s.n, 1, 0, lo=-2, hi=2)
        fs = tuple(plateau for _ in range(s.m))
    return verify_bound(ConstantId.C7, s, fs, window=window)


# -- sharpness ratio studies ----------------------------------------------------------


def _ratio_for(spec: BoundSpec, s: Scenario, fs: tuple[RadialFunction, ...], rec: dict[str, object],
               window: int, symbols: tuple[RadialFunction, ...] | None,
               weights: tuple[Weight, list[Weight]] | None) -> float:
    """The norm ratio of one extremal family fs.  A commutator study passes
    its log symbols (weights is then None); any other passes ``_weights``."""
    if symbols is not None:
        # The commutator sends the power eigenfunctions to an exact constant
        # multiple of |x|^((alpha+n)lam); the study reports that eigenvalue
        # (the inputs have unit coefficient, so it is the shell-0 value).
        return float(_apply_exact(s, fs, symbols).value_on_shell(0))
    F = _apply_exact(s, fs, None)
    num, _, factors = _sides(spec, s, rec, F, fs, window, weights)
    num_f = float_sat(num.value)
    den_f = float_sat(_prod_ev(factors).value)
    if den_f == 0.0 or math.isinf(den_f):
        return math.inf if num_f > 0 else 0.0
    return num_f / den_f


def ratio_study(cid: ConstantId, s: Scenario, rs: Sequence[int],
                *, tol: float = 0.05, window: int = 48) -> RatioReport:
    """Drive the extremal families and report norm ratios against the constant.

    Each distinct extremal family is evaluated once: an r whose family equals
    an earlier r's reuses that ratio, so a study whose family ignores r
    (C3, C8, C9) applies the operator once.  The study converges when the
    last ratio is within ``tol`` of the (finite) target; an infinite target
    instead documents unbounded ratios.
    """
    spec = _SPECS[cid]
    if spec.extremal is None:
        raise ScenarioError("unsupported-id", f"no sharpness study is defined for {ConstantId(cid).value}")
    rec = validate_scenario(cid, s, window=window)
    rs = tuple(int(r) for r in rs)
    if not rs or any(r < 1 for r in rs):
        raise ValueError("rs must be a nonempty list of positive integers")
    target_ev = _constant(spec, s, rec)
    if not target_ev.is_finite:
        # The kernel mass against the factors diverges, so the operator sends
        # the (nonnegative) extremal inputs to an infinite-norm output.
        return RatioReport(
            rs=rs, ratios=(math.inf,) * len(rs), target=math.inf, converged=False,
            note="target constant diverges; the ratios are unbounded in r",
        )
    symbols = weights = None
    if spec.cmo_r is not None:
        symbols = tuple(RadialFunction.log(s.p, s.n) for _ in range(s.m))
    else:
        weights = _weights(spec, s, rec)
    by_family: dict[tuple[RadialFunction, ...], float] = {}
    ratios = []
    for r in rs:
        fs = spec.extremal(s, rec, r)
        if fs not in by_family:
            by_family[fs] = _ratio_for(spec, s, fs, rec, window, symbols, weights)
        ratios.append(by_family[fs])
    target = float_sat(target_ev.value)
    converged = target > 0 and abs(ratios[-1] / target - 1.0) <= tol
    return RatioReport(rs=rs, ratios=tuple(ratios), target=target, converged=converged)
