"""Constants, gates, extremal families, and bound verification.

The constants are pinned against a literal per-shell evaluation of their
defining integrals (oracles.oracle_constant); verification semantics are
pinned against hand-computed identities on eigenfunction inputs.
"""

import json
import math
import random
from dataclasses import replace
from functools import partial
from fractions import Fraction as Fr

import pytest

from radialpadic import harness, scenarios
from radialpadic.families import ConstantMatrix, Pointwise, ScalarRadial
from radialpadic.harness import (
    ConstantId,
    K_ENVELOPE,
    Scenario,
    ScenarioError,
    SpaceParams,
    compute_constant,
    extremal_family,
    maximal_composite_check,
    ratio_study,
    validate_scenario,
    verify_bound,
)
from radialpadic.numeric import ExtendedValue
from radialpadic.operators import KernelSpec, hausdorff_apply
from radialpadic.padic import PAdicMatrix
from radialpadic.radial import RadialFunction, RadialTerm
from radialpadic.scenario_io import build_scenario, load_scenario_text
from radialpadic.weights import Weight, ap_constant

from oracles import oracle_constant

C = ConstantId


def kernel_from_terms(p, n, terms):
    """Build the kernel and keep the plain tuples for the oracle."""
    phi = RadialFunction(p, n, tuple(RadialTerm(*t) for t in terms))
    return KernelSpec(phi), terms


def scalar_desc(fam):
    return ("scalar", fam.slope, fam.offset)


# ---------------------------------------------------------------- pinned values


def test_c1_single_shell_constant_is_shell_measure_ratio():
    # p = 2, n = 1, kernel chi_{S_0}, slope-1 family: the factor is 1 on the
    # only contributing shell, so the constant is the unit-sphere measure 1/2.
    ker, _ = kernel_from_terms(2, 1, [(Fr(1), 0, 0, 0, 0)])
    s = Scenario(p=2, n=1, m=1, kernel=ker, families=(ScalarRadial(1, 0),),
                 params=SpaceParams(q=2, q_i=(2,), alpha=0, alpha_i=(0,)))
    val = compute_constant(C.C1, s)
    assert val.is_finite
    assert math.isclose(float(val.value), 0.5, rel_tol=0, abs_tol=0)


def test_c3_single_shell_constant_quarter_root():
    # p = 2, n = 1, kernel chi_{S_1}, alpha = 0, lam = -1/4:
    # constant = (1/2) * 2^(-1/4).
    ker, _ = kernel_from_terms(2, 1, [(Fr(1), 0, 0, 1, 1)])
    s = Scenario(p=2, n=1, m=1, kernel=ker, families=(ScalarRadial(1, 0),),
                 params=SpaceParams(q=2, q_i=(2,), alpha=0, alpha_i=(0,),
                                    lam=Fr(-1, 4), lam_i=(Fr(-1, 4),)))
    val = compute_constant(C.C3, s)
    assert math.isclose(float(val.value), 0.5 * 2.0 ** -0.25, rel_tol=1e-14)


# ---------------------------------------------------------------- oracle checks


def test_c1_constant_matches_oracle_two_scalar_slots():
    p, n = 3, 1
    terms = [(Fr(1), 0, 0, -2, 3), (Fr(1, 2), 1, 0, 0, 2)]
    ker, kt = kernel_from_terms(p, n, terms)
    fams = (ScalarRadial(1, 0), ScalarRadial(-1, 2))
    P = SpaceParams(q=2, q_i=(4, 4), alpha=Fr(1, 2), alpha_i=(Fr(1, 2), Fr(1, 2)))
    s = Scenario(p=p, n=n, m=2, kernel=ker, families=fams, params=P)
    got = float(compute_constant(C.C1, s).value)
    want = oracle_constant("C1", p, n, kt, -2, 3, [scalar_desc(f) for f in fams],
                           {"q_i": [4.0, 4.0], "alpha_i": [0.5, 0.5]})
    assert math.isclose(got, want, rel_tol=1e-12)


def test_c1_constant_matches_oracle_with_matrix_slot():
    p, n = 2, 2
    terms = [(Fr(3, 2), 0, 0, -1, 2)]
    ker, kt = kernel_from_terms(p, n, terms)
    mat = ConstantMatrix(PAdicMatrix(p, ((Fr(2), Fr(0)), (Fr(0), Fr(4)))))
    fams = (ScalarRadial(1, -1), mat)
    # ||A|| = 2^-1, ||A^-1|| = 2^2, |det A^-1| = 8
    P = SpaceParams(q=2, q_i=(4, 4), alpha=0, alpha_i=(1, -1))
    s = Scenario(p=p, n=n, m=2, kernel=ker, families=fams, params=P)
    got = float(compute_constant(C.C1, s).value)
    want = oracle_constant("C1", p, n, kt, -1, 2,
                           [scalar_desc(fams[0]), ("matrix", -1, 2, 8.0)],
                           {"q_i": [4.0, 4.0], "alpha_i": [1.0, -1.0]})
    assert math.isclose(got, want, rel_tol=1e-12)


def test_c1_constant_matches_oracle_infinite_support_kernel():
    p, n = 3, 1
    terms = [(Fr(1), -2, 0, 0, None), (Fr(1), 2, 0, None, -1)]
    ker, kt = kernel_from_terms(p, n, terms)
    fams = (ScalarRadial(1, 0),)
    P = SpaceParams(q=4, q_i=(4,), alpha=0, alpha_i=(0,))
    s = Scenario(p=p, n=n, m=1, kernel=ker, families=fams, params=P)
    got = compute_constant(C.C1, s)
    assert got.is_finite
    want = oracle_constant("C1", p, n, kt, -60, 60, [scalar_desc(fams[0])],
                           {"q_i": [4.0], "alpha_i": [0.0]})
    assert math.isclose(float(got.value), want, rel_tol=1e-12)


def _shared_weight_scenario_c2():
    p, n = 2, 1
    terms = [(Fr(1), 0, 0, -3, 4), (Fr(2), -1, 0, 0, 3)]
    ker, kt = kernel_from_terms(p, n, terms)
    fams = (ScalarRadial(1, -1), ScalarRadial(-2, 1))
    P = SpaceParams(q_star=Fr(3, 2), zeta=1, q_i=(8, 8), delta=Fr(3, 2))
    w = Weight.power(p, n, Fr(-1, 2))
    s = Scenario(p=p, n=n, m=2, kernel=ker, families=fams, params=P, weight=w)
    oracle_params = {"zeta": 1.0, "q_i": [8.0, 8.0], "delta": 1.5}
    return s, kt, [scalar_desc(f) for f in fams], oracle_params


def test_c2_constant_matches_oracle():
    s, kt, fd, op = _shared_weight_scenario_c2()
    got = float(compute_constant(C.C2, s).value)
    want = oracle_constant("C2", s.p, s.n, kt, -3, 4, fd, op)
    assert math.isclose(got, want, rel_tol=1e-12)


def test_c2_records_delta():
    s, *_ = _shared_weight_scenario_c2()
    rec = validate_scenario(C.C2, s)
    assert rec["r_omega"] == 2
    assert rec["delta"] == Fr(3, 2)
    assert "sup_ball_mass" not in rec


def test_c3_constant_matches_oracle():
    p, n = 3, 2
    terms = [(Fr(1), 0, 0, -2, 2), (Fr(1, 3), 0, 1, 1, 4)]
    ker, kt = kernel_from_terms(p, n, terms)
    fams = (ScalarRadial(2, -1), ScalarRadial(1, 1))
    P = SpaceParams(q=2, q_i=(4, 4), alpha=1, alpha_i=(1, 1),
                    lam=Fr(-1, 8), lam_i=(Fr(-1, 16), Fr(-1, 16)))
    s = Scenario(p=p, n=n, m=2, kernel=ker, families=fams, params=P)
    got = float(compute_constant(C.C3, s).value)
    want = oracle_constant("C3", p, n, kt, -2, 4, [scalar_desc(f) for f in fams],
                           {"q_i": [4.0, 4.0], "alpha_i": [1.0, 1.0],
                            "lam_i": [-1 / 16, -1 / 16]})
    assert math.isclose(got, want, rel_tol=1e-12)


def test_c4_constant_matches_oracle():
    p, n = 2, 1
    terms = [(Fr(1), 0, 0, -2, 5)]
    ker, kt = kernel_from_terms(p, n, terms)
    fams = (ScalarRadial(1, 2), ScalarRadial(-1, -2))
    P = SpaceParams(q_star=Fr(3, 2), zeta=1, q_i=(8, 8), delta=Fr(3, 2),
                    lam=Fr(-1, 8), lam_i=(Fr(-1, 16), Fr(-1, 16)))
    w = Weight.power(p, n, Fr(-1, 2))
    s = Scenario(p=p, n=n, m=2, kernel=ker, families=fams, params=P, weight=w)
    got = float(compute_constant(C.C4, s).value)
    want = oracle_constant("C4", p, n, kt, -2, 5, [scalar_desc(f) for f in fams],
                           {"zeta": 1.0, "q_i": [8.0, 8.0], "delta": 1.5,
                            "lam_i": [-1 / 16, -1 / 16]})
    assert math.isclose(got, want, rel_tol=1e-12)


def test_c5_constant_matches_oracle():
    p, n = 3, 1
    terms = [(Fr(2), 0, 0, -2, 2)]
    ker, kt = kernel_from_terms(p, n, terms)
    fams = (ScalarRadial(1, 0), ScalarRadial(-1, 1))
    P = SpaceParams(q=Fr(4, 3), q_i=(8, 8), r_i=(4, 4),
                    alpha=Fr(3, 2), alpha_i=(1, 2),
                    gamma=0)
    logs = (RadialFunction.log(p, n), RadialFunction.log(p, n))
    s = Scenario(p=p, n=n, m=2, kernel=ker, families=fams, params=P, symbols=logs)
    got = float(compute_constant(C.C5, s).value)
    want = oracle_constant("C5", p, n, kt, -2, 2, [scalar_desc(f) for f in fams],
                           {"q_i": [8.0, 8.0], "r_i": [4.0, 4.0], "alpha_i": [1.0, 2.0]})
    assert math.isclose(got, want, rel_tol=1e-12)


@pytest.mark.parametrize("cid", ["C4", "C5"])
def test_constant_matches_oracle_on_every_slope_and_offset(cid):
    # the delta split (C4) and 4 + |k| (C5) cut the shell line where
    # k(g) = slope*g + offset changes sign; |slope| >= 2 with an odd offset
    # puts that cut between shells
    p, n = 2, 1
    ker, kt = kernel_from_terms(p, n, [(Fr(1), 0, 0, -2, 5), (Fr(1, 2), -1, 1, -1, 2)])
    if cid == "C4":
        P = SpaceParams(q_star=Fr(3, 2), zeta=1, q_i=(8, 8), delta=Fr(3, 2),
                        lam=Fr(-1, 8), lam_i=(Fr(-1, 16), Fr(-1, 16)))
        extra = dict(weight=Weight.power(p, n, Fr(-1, 2)))
        op = {"zeta": 1.0, "q_i": [8.0, 8.0], "delta": 1.5, "lam_i": [-1 / 16, -1 / 16]}
    else:
        P = SpaceParams(q=Fr(4, 3), q_i=(8, 8), r_i=(4, 4), alpha=Fr(3, 2), alpha_i=(1, 2), gamma=0)
        extra = dict(symbols=(RadialFunction.log(p, n),) * 2)
        op = {"q_i": [8.0, 8.0], "r_i": [4.0, 4.0], "alpha_i": [1.0, 2.0]}
    for sl in range(-3, 4):
        for off in range(-3, 4):
            fams = (ScalarRadial(sl, off), ScalarRadial(-1, 1))
            s = Scenario(p=p, n=n, m=2, kernel=ker, families=fams, params=P, **extra)
            got = float(compute_constant(cid, s).value)
            want = oracle_constant(cid, p, n, kt, -2, 5, [scalar_desc(f) for f in fams], op)
            assert math.isclose(got, want, rel_tol=1e-12), (sl, off)


def test_c5_constant_matches_oracle_with_matrix_slot():
    p, n = 3, 1
    terms = [(Fr(2), 0, 0, -2, 2)]
    ker, kt = kernel_from_terms(p, n, terms)
    mat = ConstantMatrix(PAdicMatrix(p, ((Fr(9),),)))  # ||A|| = 3^-2
    fams = (ScalarRadial(1, 0), mat)
    P = SpaceParams(q=Fr(4, 3), q_i=(8, 8), r_i=(4, 4),
                    alpha=Fr(3, 2), alpha_i=(1, 2), gamma=0)
    logs = (RadialFunction.log(p, n), RadialFunction.log(p, n))
    s = Scenario(p=p, n=n, m=2, kernel=ker, families=fams, params=P, symbols=logs)
    got = float(compute_constant(C.C5, s).value)
    want = oracle_constant("C5", p, n, kt, -2, 2,
                           [scalar_desc(fams[0]), ("matrix", -2, 2, 9.0)],
                           {"q_i": [8.0, 8.0], "r_i": [4.0, 4.0], "alpha_i": [1.0, 2.0]})
    assert math.isclose(got, want, rel_tol=1e-12)


def _c6_scenario():
    p, n = 2, 1
    terms = [(Fr(1), 0, 0, -1, 3)]
    ker, kt = kernel_from_terms(p, n, terms)
    fams = (ScalarRadial(1, 1), ScalarRadial(-1, 0))
    P = SpaceParams(q_star=Fr(5, 4), zeta=1, q_star_i=(8, 8), r_star_i=(4, 4), delta=2)
    w = Weight.power(p, n, 0)
    logs = (RadialFunction.log(p, n), RadialFunction.log(p, n))
    s = Scenario(p=p, n=n, m=2, kernel=ker, families=fams, params=P,
                 weight=w, symbols=logs)
    op = {"zeta": 1.0, "q_star_i": [8.0, 8.0], "r_star_i": [4.0, 4.0], "delta": 2.0}
    return s, kt, [scalar_desc(f) for f in fams], op


def test_c6_constant_matches_oracle():
    s, kt, fd, op = _c6_scenario()
    got = float(compute_constant(C.C6, s).value)
    want = oracle_constant("C6", s.p, s.n, kt, -1, 3, fd, op)
    assert math.isclose(got, want, rel_tol=1e-12)


def _c7_scenario():
    p, n = 3, 1
    terms = [(Fr(1), 0, 0, 0, 2), (Fr(1, 2), 0, 0, -2, -1)]
    ker, kt = kernel_from_terms(p, n, terms)
    fams = (ScalarRadial(1, 0), ScalarRadial(0, 1))
    P = SpaceParams(zeta=2, q_star=8, q_i=(8, 8), r_star_i=(Fr(8, 3), Fr(8, 3)),
                    alpha=0, alpha_i=(Fr(1, 2), Fr(-1, 2)))
    logs = (RadialFunction.log(p, n), RadialFunction.log(p, n))
    s = Scenario(p=p, n=n, m=2, kernel=ker, families=fams, params=P, symbols=logs)
    op = {"zeta": 2.0, "q_i": [8.0, 8.0], "r_star_i": [8 / 3, 8 / 3],
          "alpha_i": [0.5, -0.5]}
    return s, kt, [scalar_desc(f) for f in fams], op


def test_c7_constant_matches_oracle():
    s, kt, fd, op = _c7_scenario()
    got = float(compute_constant(C.C7, s).value)
    want = oracle_constant("C7", s.p, s.n, kt, -2, 2, fd, op)
    assert math.isclose(got, want, rel_tol=1e-12)


def _c8_scenario(p=2, n=1):
    terms = [(Fr(1), 0, 0, -2, 2), (Fr(1, 2), -1, 0, 0, 2)]
    ker, kt = kernel_from_terms(p, n, terms)
    fams = (ScalarRadial(1, -5), ScalarRadial(2, -7))
    P = SpaceParams(q=Fr(4, 3), q_i=(8, 8), r_i=(4, 4),
                    alpha=Fr(3, 2), alpha_i=(1, 2),
                    lam=Fr(-3, 20), lam_i=(Fr(-1, 16), Fr(-1, 12)))
    logs = (RadialFunction.log(p, n), RadialFunction.log(p, n))
    s = Scenario(p=p, n=n, m=2, kernel=ker, families=fams, params=P, symbols=logs)
    op = {"q_i": [8.0, 8.0], "r_i": [4.0, 4.0], "alpha_i": [1.0, 2.0],
          "lam_i": [-1 / 16, -1 / 12]}
    return s, kt, [scalar_desc(f) for f in fams], op


def test_c8_constant_matches_oracle():
    s, kt, fd, op = _c8_scenario()
    got = float(compute_constant(C.C8, s).value)
    want = oracle_constant("C8", s.p, s.n, kt, -2, 2, fd, op)
    assert math.isclose(got, want, rel_tol=1e-12)


def test_c9_equals_c8_on_scalar_families():
    s, *_ = _c8_scenario()
    v8 = compute_constant(C.C8, s)
    v9 = compute_constant(C.C9, s)
    assert float(v8.value) == pytest.approx(float(v9.value), rel=0, abs=0)


def test_c10_constant_matches_oracle():
    s6, kt, fd, op = _c6_scenario()
    P = SpaceParams(q_star=Fr(5, 4), zeta=1, q_star_i=(8, 8), r_star_i=(4, 4),
                    delta=2, lam=Fr(-1, 8), lam_i=(Fr(-1, 16), Fr(-1, 16)))
    s = Scenario(p=s6.p, n=s6.n, m=2, kernel=s6.kernel, families=s6.families,
                 params=P, weight=s6.weight, symbols=s6.symbols)
    got = float(compute_constant(C.C10, s).value)
    op = dict(op, lam_i=[-1 / 16, -1 / 16])
    want = oracle_constant("C10", s.p, s.n, kt, -1, 3, fd, op)
    assert math.isclose(got, want, rel_tol=1e-12)


def test_c1_random_scenarios_match_oracle():
    rng = random.Random(11)
    for trial in range(12):
        p = rng.choice([2, 3, 5])
        n = rng.choice([1, 2])
        m = rng.choice([1, 2, 3])
        qs = [Fr(rng.randint(m, 4 * m)) for _ in range(m)]
        als = [Fr(rng.randint(-(n * 2 - 1), 6), 2) for _ in range(m)]
        q = 1 / sum(Fr(1) / v for v in qs)
        al = q * sum(a / v for a, v in zip(als, qs))
        lo = rng.randint(-4, 0)
        hi = lo + rng.randint(0, 4)
        terms = [(Fr(rng.randint(1, 5), rng.randint(1, 3)), Fr(rng.randint(-2, 2)), 0, lo, hi)]
        ker, kt = kernel_from_terms(p, n, terms)
        fams = tuple(ScalarRadial(rng.randint(-2, 2), rng.randint(-3, 3)) for _ in range(m))
        s = Scenario(p=p, n=n, m=m, kernel=ker, families=fams,
                     params=SpaceParams(q=q, q_i=tuple(qs), alpha=al, alpha_i=tuple(als)))
        got = float(compute_constant(C.C1, s).value)
        want = oracle_constant("C1", p, n, kt, lo, hi, [scalar_desc(f) for f in fams],
                               {"q_i": [float(v) for v in qs],
                                "alpha_i": [float(a) for a in als]})
        assert math.isclose(got, want, rel_tol=1e-12), (trial, got, want)


def _bundled_scenarios():
    """(id, constant id, scenario, window) of every bundled row that names an
    inequality, except C9, which admits scalar families only."""
    for name in scenarios.SUITE_NAMES:
        for row in scenarios.suite_rows(name, scenarios.SUITE_SEED):
            (model,) = load_scenario_text(json.dumps(row))
            b = build_scenario(model)
            if b.scenario is not None and b.constant is not C.C9:
                yield row["id"], b.constant, b.scenario, b.window


@pytest.mark.parametrize("k", [-2, -1, 1, 2])
def test_matrix_factor_agrees_with_scalar_factor(k):
    # ConstantMatrix(p^-k I_n) and ScalarRadial(0, k) are the same dilation,
    # so the matrix-slot factors and the scalar-slot factors must agree, on
    # both sides of a delta split.  For k > 0, ||A|| = p^k >= 1 breaks C8's
    # support condition for either form.
    cases, refused = 0, []
    for rid, cid, s, window in _bundled_scenarios():
        mat = ConstantMatrix(PAdicMatrix(s.p, tuple(
            tuple(Fr(s.p) ** -k if i == j else Fr(0) for j in range(s.n)) for i in range(s.n))))
        scalar = replace(s, families=(ScalarRadial(0, k),) * s.m)
        matrix = replace(s, families=(mat,) * s.m)
        try:
            want = compute_constant(cid, scalar, window=window)
        except ScenarioError as exc:
            with pytest.raises(ScenarioError, match=exc.condition):
                compute_constant(cid, matrix, window=window)
            refused.append((cid, exc.condition))
            continue
        got = compute_constant(cid, matrix, window=window)
        assert want.is_finite and got.is_finite, rid
        assert math.isclose(float(got.value), float(want.value), rel_tol=1e-12), rid
        cases += 1
    assert refused == ([] if k < 0 else [(C.C8, "support-condition")] * 5)
    assert cases == 94 - len(refused)


def test_divergent_constant_reports_infinite():
    p, n = 2, 1
    ker = KernelSpec(RadialFunction.constant(p, n, 1))
    s = Scenario(p=p, n=n, m=1, kernel=ker, families=(ScalarRadial(0, 0),),
                 params=SpaceParams(q=2, q_i=(2,), alpha=0, alpha_i=(0,)))
    val = compute_constant(C.C1, s)
    assert not val.is_finite
    assert float(val.value) == math.inf


# ---------------------------------------------------------------- gates


def _c3_symmetric(p=2, n=1, kernel_terms=((Fr(1), 0, 0, 1, 1),), m=2):
    ker, _ = kernel_from_terms(p, n, list(kernel_terms))
    fams = tuple(ScalarRadial(1, 0) for _ in range(m))
    q, al, lam = Fr(2), Fr(1, 2), Fr(-1, 4)
    P = SpaceParams(q=q, q_i=(m * q,) * m, alpha=al, alpha_i=(al,) * m,
                    lam=lam, lam_i=(lam / m,) * m)
    return Scenario(p=p, n=n, m=m, kernel=ker, families=fams, params=P)


@pytest.mark.parametrize("mutate, condition", [
    (lambda s: Scenario(p=s.p, n=s.n, m=s.m, kernel=s.kernel, families=s.families[:1],
                        params=s.params), "arity"),
    (lambda s: Scenario(p=s.p, n=s.n, m=s.m, kernel=s.kernel, families=s.families,
                        params=SpaceParams(q=s.params.q, q_i=s.params.q_i,
                                           alpha=s.params.alpha, alpha_i=s.params.alpha_i,
                                           lam=s.params.lam)), "param-missing"),
    (lambda s: Scenario(p=s.p, n=s.n, m=s.m, kernel=s.kernel, families=s.families,
                        params=SpaceParams(q=s.params.q, q_i=s.params.q_i,
                                           alpha=s.params.alpha, alpha_i=s.params.alpha_i,
                                           lam=s.params.lam, lam_i=(Fr(-1, 8),))),
     "param-length"),
    (lambda s: Scenario(p=s.p, n=s.n, m=s.m, kernel=s.kernel, families=s.families,
                        params=SpaceParams(q=Fr(1, 2), q_i=s.params.q_i,
                                           alpha=s.params.alpha, alpha_i=s.params.alpha_i,
                                           lam=s.params.lam, lam_i=s.params.lam_i)),
     "exponent-range"),
    (lambda s: Scenario(p=s.p, n=s.n, m=s.m, kernel=s.kernel, families=s.families,
                        params=SpaceParams(q=s.params.q, q_i=s.params.q_i,
                                           alpha=Fr(-3), alpha_i=(Fr(-3, 2), Fr(-3, 2)),
                                           lam=s.params.lam, lam_i=s.params.lam_i)),
     "alpha-range"),
    (lambda s: Scenario(p=s.p, n=s.n, m=s.m, kernel=s.kernel, families=s.families,
                        params=SpaceParams(q=Fr(3), q_i=s.params.q_i,
                                           alpha=s.params.alpha, alpha_i=s.params.alpha_i,
                                           lam=s.params.lam, lam_i=s.params.lam_i)),
     "holder-balance-q"),
    (lambda s: Scenario(p=s.p, n=s.n, m=s.m, kernel=s.kernel, families=s.families,
                        params=SpaceParams(q=s.params.q, q_i=s.params.q_i,
                                           alpha=Fr(5), alpha_i=s.params.alpha_i,
                                           lam=s.params.lam, lam_i=s.params.lam_i)),
     "holder-balance-alpha"),
    (lambda s: Scenario(p=s.p, n=s.n, m=s.m, kernel=s.kernel, families=s.families,
                        params=SpaceParams(q=s.params.q, q_i=s.params.q_i,
                                           alpha=s.params.alpha, alpha_i=s.params.alpha_i,
                                           lam=Fr(1, 4), lam_i=(Fr(1, 8), Fr(1, 8)))),
     "lambda-range"),
    (lambda s: Scenario(p=s.p, n=s.n, m=s.m, kernel=s.kernel, families=s.families,
                        params=SpaceParams(q=s.params.q, q_i=s.params.q_i,
                                           alpha=s.params.alpha, alpha_i=s.params.alpha_i,
                                           lam=Fr(-1, 8), lam_i=s.params.lam_i)),
     "lambda-morrey-balance"),
])
def test_c3_gates_name_their_condition(mutate, condition):
    s = mutate(_c3_symmetric())
    with pytest.raises(ScenarioError) as exc:
        compute_constant(C.C3, s)
    assert exc.value.condition == condition


def test_pointwise_family_rejected():
    s0 = _c3_symmetric()
    fams = (s0.families[0], Pointwise(lambda x: x))
    s = Scenario(p=s0.p, n=s0.n, m=2, kernel=s0.kernel, families=fams, params=s0.params)
    with pytest.raises(ScenarioError) as exc:
        compute_constant(C.C3, s)
    assert exc.value.condition == "family-class"


def test_c9_requires_scalar_families():
    s8, *_ = _c8_scenario()
    mat = ConstantMatrix(PAdicMatrix(2, ((Fr(4),),)))
    fams = (s8.families[0], mat)
    s = Scenario(p=s8.p, n=s8.n, m=2, kernel=s8.kernel, families=fams,
                 params=s8.params, symbols=s8.symbols)
    with pytest.raises(ScenarioError) as exc:
        compute_constant(C.C9, s)
    assert exc.value.condition == "family-class"


def test_c8_support_gate_rejects_kernel_reaching_contractive_boundary():
    s8, *_ = _c8_scenario()
    fams = (ScalarRadial(1, -5), ScalarRadial(2, -4))  # k_2(2) = 0 on the support
    s = Scenario(p=s8.p, n=s8.n, m=2, kernel=s8.kernel, families=fams,
                 params=s8.params, symbols=s8.symbols)
    with pytest.raises(ScenarioError) as exc:
        compute_constant(C.C8, s)
    assert exc.value.condition == "support-condition"


@pytest.mark.parametrize("slope", [-3, -2, 2, 3])
def test_c8_support_gate_cuts_at_the_kernel_edge(slope):
    # the kernel lives on shells -3..1; its edge toward growing k is shell 1
    # for slope > 0 and shell -3 for slope < 0
    s8, *_ = _c8_scenario()
    ker = KernelSpec(RadialFunction.power(s8.p, s8.n, 1, 0, lo=-3, hi=1))
    edge = 1 if slope > 0 else -3
    for k_edge, ok in ((0, False), (-1, True)):
        fams = (ScalarRadial(slope, k_edge - slope * edge), s8.families[0])
        s = replace(s8, kernel=ker, families=fams)
        if ok:
            assert compute_constant(C.C8, s).is_finite
        else:
            with pytest.raises(ScenarioError) as exc:
                compute_constant(C.C8, s)
            assert exc.value.condition == "support-condition"


def test_c8_support_gate_rejects_unbounded_kernel_support():
    p, n = 2, 1
    ker = KernelSpec(RadialFunction.power(p, n, 1, -2, lo=0))
    s8, *_ = _c8_scenario()
    s = Scenario(p=p, n=n, m=2, kernel=ker, families=s8.families,
                 params=s8.params, symbols=s8.symbols)
    with pytest.raises(ScenarioError) as exc:
        compute_constant(C.C8, s)
    assert exc.value.condition == "support-condition"


def test_commutator_bounds_require_symbols():
    s8, *_ = _c8_scenario()
    s = Scenario(p=s8.p, n=s8.n, m=2, kernel=s8.kernel, families=s8.families,
                 params=s8.params, symbols=None)
    with pytest.raises(ScenarioError) as exc:
        compute_constant(C.C8, s)
    assert exc.value.condition == "symbols-required"


def test_c2_muckenhoupt_gate_rejects_out_of_class_power():
    s2, *_ = _shared_weight_scenario_c2()
    s = Scenario(p=s2.p, n=s2.n, m=2, kernel=s2.kernel, families=s2.families,
                 params=s2.params, weight=Weight.power(s2.p, s2.n, Fr(1, 2)))
    with pytest.raises(ScenarioError) as exc:
        compute_constant(C.C2, s)
    assert exc.value.condition == "muckenhoupt-class"


def _two_power_weight(top):
    """|x|^(-1/4) on shells <= 0 and |x|^top above, on Q_2: not a single
    power, so the Muckenhoupt gate probes the window stability of A_zeta."""
    return Weight(RadialFunction(2, 1, (RadialTerm(Fr(1), Fr(-1, 4), 0, None, 0),
                                        RadialTerm(Fr(1), top, 0, 1, None))))


def _c2_at_zeta_three_halves(w):
    s2, *_ = _shared_weight_scenario_c2()
    P = SpaceParams(q_star=Fr(3, 2), zeta=Fr(3, 2), q_i=(8, 8), delta=Fr(3, 2))
    return Scenario(p=s2.p, n=s2.n, m=2, kernel=s2.kernel, families=s2.families, params=P, weight=w)


def test_c2_muckenhoupt_gate_accepts_window_stable_non_power_weight():
    w = _two_power_weight(Fr(1, 4))
    half, full = ap_constant(w, Fr(3, 2), window=24), ap_constant(w, Fr(3, 2), window=48)
    assert math.isclose(float(half.value), 1.12714, rel_tol=1e-5)
    assert math.isclose(float(full.value), 1.12722, rel_tol=1e-5)
    assert not full.truncated
    assert compute_constant(C.C2, _c2_at_zeta_three_halves(w)).is_finite


def test_c2_muckenhoupt_gate_rejects_window_unstable_non_power_weight():
    w = _two_power_weight(2)  # A_zeta reads 3.6e10 at window 24 and 2.5e21 at 48
    assert float(ap_constant(w, Fr(3, 2), window=48).value) > 2 * float(ap_constant(w, Fr(3, 2), window=24).value)
    with pytest.raises(ScenarioError) as exc:
        compute_constant(C.C2, _c2_at_zeta_three_halves(w))
    assert exc.value.condition == "muckenhoupt-class"


def test_c2_exponent_gap_gate():
    s2, *_ = _shared_weight_scenario_c2()
    P = SpaceParams(q_star=Fr(3, 2), zeta=1, q_i=(2, 2), delta=Fr(3, 2))
    s = Scenario(p=s2.p, n=s2.n, m=2, kernel=s2.kernel, families=s2.families,
                 params=P, weight=s2.weight)
    with pytest.raises(ScenarioError) as exc:
        compute_constant(C.C2, s)
    assert exc.value.condition == "q-exponent-gap"


def test_c2_delta_range_gate():
    s2, *_ = _shared_weight_scenario_c2()
    P = SpaceParams(q_star=Fr(3, 2), zeta=1, q_i=(8, 8), delta=5)
    s = Scenario(p=s2.p, n=s2.n, m=2, kernel=s2.kernel, families=s2.families,
                 params=P, weight=s2.weight)
    with pytest.raises(ScenarioError) as exc:
        compute_constant(C.C2, s)
    assert exc.value.condition == "delta-range"


def test_c4_lambda_sum_gate():
    s2, *_ = _shared_weight_scenario_c2()
    P = SpaceParams(q_star=Fr(3, 2), zeta=1, q_i=(8, 8), delta=Fr(3, 2),
                    lam=Fr(-1, 4), lam_i=(Fr(-1, 16), Fr(-1, 16)))
    s = Scenario(p=s2.p, n=s2.n, m=2, kernel=s2.kernel, families=s2.families,
                 params=P, weight=s2.weight)
    with pytest.raises(ScenarioError) as exc:
        compute_constant(C.C4, s)
    assert exc.value.condition == "lambda-sum"


def test_c6_zeta_compat_gate():
    s6, *_ = _c6_scenario()
    P = SpaceParams(q_star=Fr(5, 4), zeta=8, q_star_i=(8, 8), r_star_i=(4, 4), delta=2)
    s = Scenario(p=s6.p, n=s6.n, m=2, kernel=s6.kernel, families=s6.families,
                 params=P, weight=s6.weight, symbols=s6.symbols)
    with pytest.raises(ScenarioError) as exc:
        compute_constant(C.C6, s)
    assert exc.value.condition == "zeta-r-compat"


def test_c6_exponent_balance_gate():
    s6, *_ = _c6_scenario()
    P = SpaceParams(q_star=4, zeta=1, q_star_i=(8, 8), r_star_i=(4, 4), delta=2)
    s = Scenario(p=s6.p, n=s6.n, m=2, kernel=s6.kernel, families=s6.families,
                 params=P, weight=s6.weight, symbols=s6.symbols)
    with pytest.raises(ScenarioError) as exc:
        compute_constant(C.C6, s)
    assert exc.value.condition == "r-star-q-star-balance"


def test_c7_composite_balance_gate():
    s7, *_ = _c7_scenario()
    P = SpaceParams(zeta=2, q_star=8, q_i=(8, 8), r_star_i=(8, 8),
                    alpha=0, alpha_i=(Fr(1, 2), Fr(-1, 2)))
    s = Scenario(p=s7.p, n=s7.n, m=2, kernel=s7.kernel, families=s7.families,
                 params=P, symbols=s7.symbols)
    with pytest.raises(ScenarioError) as exc:
        compute_constant(C.C7, s)
    assert exc.value.condition == "composite-balance"


def test_c5_alpha_range_uses_r_exponent():
    s5 = None
    p, n = 3, 1
    ker, _ = kernel_from_terms(p, n, [(Fr(2), 0, 0, -2, 2)])
    fams = (ScalarRadial(1, 0), ScalarRadial(-1, 1))
    logs = (RadialFunction.log(p, n), RadialFunction.log(p, n))
    P = SpaceParams(q=Fr(4, 3), q_i=(8, 8), r_i=(4, 4),
                    alpha=Fr(3, 2), alpha_i=(1, 4), gamma=0)  # 4 >= n(r-1) = 3
    s5 = Scenario(p=p, n=n, m=2, kernel=ker, families=fams, params=P, symbols=logs)
    with pytest.raises(ScenarioError) as exc:
        compute_constant(C.C5, s5)
    assert exc.value.condition == "alpha-range"


def _with_weight(s, w):
    return Scenario(p=s.p, n=s.n, m=s.m, kernel=s.kernel, families=s.families,
                    params=s.params, weight=w)


def _kernel_on_p3():
    s = _c3_symmetric()
    ker, _ = kernel_from_terms(3, 1, [(Fr(1), 0, 0, 1, 1)])
    return lambda: compute_constant(C.C3, Scenario(p=s.p, n=s.n, m=s.m, kernel=ker,
                                                    families=s.families, params=s.params))


def _weight_on_p3():
    s2, *_ = _shared_weight_scenario_c2()
    return lambda: compute_constant(C.C2, _with_weight(s2, Weight.power(3, 1, Fr(-1, 2))))


def _weight_not_reverse_holder():
    s2, *_ = _shared_weight_scenario_c2()  # |x|^-1 on Q_2: critical index -n/beta = 1
    return lambda: compute_constant(C.C2, _with_weight(s2, Weight.power(2, 1, -1)))


def _verify_infinite_support_kernel():
    ker, _ = kernel_from_terms(3, 1, [(Fr(1), -2, 0, 0, None), (Fr(1), 2, 0, None, -1)])
    s = Scenario(p=3, n=1, m=1, kernel=ker, families=(ScalarRadial(1, 0),),
                 params=SpaceParams(q=4, q_i=(4,), alpha=0, alpha_i=(0,)))
    return lambda: verify_bound(C.C1, s, (RadialFunction.chi_ball(3, 1, 0),))


def _no_factors():
    return lambda: compute_constant(C.C3, replace(_c3_symmetric(), m=0, families=()))


def _verify_one_input_short():
    f = RadialFunction.chi_ball(2, 1, 0)
    return lambda: verify_bound(C.C3, _c3_symmetric(), (f,))


def _verify_input_on_p3():
    f = RadialFunction.chi_ball(3, 1, 0)
    return lambda: verify_bound(C.C3, _c3_symmetric(), (f, f))


def _verify_matrix_family():
    s = replace(_c3_symmetric(), families=(ConstantMatrix(PAdicMatrix(2, ((Fr(1, 2),),))),) * 2)
    f = RadialFunction.chi_ball(2, 1, 0)
    return lambda: verify_bound(C.C3, s, (f, f))


def _one_symbol_short():
    s8, *_ = _c8_scenario()
    return lambda: compute_constant(C.C8, replace(s8, symbols=s8.symbols[:1]))


def _symbols_on_p3():
    s8, *_ = _c8_scenario()
    return lambda: compute_constant(C.C8, replace(s8, symbols=(RadialFunction.log(3, 1),) * 2))


def _params(make, cid, **changes):
    """The scenario of make() with its params changed, for bound cid."""
    s, *_ = make()
    return lambda: compute_constant(cid, replace(s, params=replace(s.params, **changes)))


@pytest.mark.parametrize("spoiled, condition", [
    (_kernel_on_p3, "kernel-domain"),
    (_weight_on_p3, "weight-domain"),
    (_weight_not_reverse_holder, "reverse-holder-index"),
    (_verify_infinite_support_kernel, "kernel-support"),
    (_no_factors, "arity"),
    (_verify_one_input_short, "arity"),
    (_verify_input_on_p3, "arity"),
    (_verify_matrix_family, "family-class"),
    (_one_symbol_short, "symbols-required"),
    (_symbols_on_p3, "symbols-required"),
    # the power-weight commutator balances (C5, C8) and the composite ones (C7)
    (partial(_params, _c8_scenario, C.C8, q=2), "holder-balance-q"),
    (partial(_params, _c8_scenario, C.C8, alpha=2), "holder-balance-alpha"),
    (partial(_params, _c7_scenario, C.C7, alpha_i=(1, -1)), "alpha-range"),
    (partial(_params, _c7_scenario, C.C7, q_star=4), "holder-balance-q"),
    (partial(_params, _c7_scenario, C.C7, alpha=1), "holder-balance-alpha"),
])
def test_spoiled_scenario_names_its_condition(spoiled, condition):
    with pytest.raises(ScenarioError) as exc:
        spoiled()()
    assert exc.value.condition == condition


@pytest.mark.parametrize("cid, make, delta", [
    (C.C2, _shared_weight_scenario_c2, Fr(3, 2)),  # (1 + r)/2 at the critical index r = 2
    (C.C6, _c6_scenario, 2),                       # the weight 1 has index inf
])
def test_delta_defaults_inside_the_reverse_holder_range(cid, make, delta):
    s, *_ = make()
    rec = validate_scenario(cid, replace(s, params=replace(s.params, delta=None)))
    assert rec["delta"] == delta


def test_a_divergent_lhs_against_a_finite_rhs_fails(monkeypatch):
    s = _c3_symmetric()
    monkeypatch.setattr(harness, "_sides", lambda *a: (ExtendedValue.infinite(), [], [Fr(1)] * s.m))
    f = RadialFunction.chi_ball(2, 1, 0)
    rep = verify_bound(C.C3, s, (f, f))
    assert rep.rhs.is_finite and not rep.lhs.is_finite
    assert (rep.holds, rep.slack) == (False, 0.0)


# ---------------------------------------------------------------- extremal inputs


def test_extremal_c1_truncated_power_shape():
    ker, _ = kernel_from_terms(2, 1, [(Fr(1), 0, 0, 0, 0)])
    s = Scenario(p=2, n=1, m=1, kernel=ker, families=(ScalarRadial(1, 0),),
                 params=SpaceParams(q=2, q_i=(2,), alpha=0, alpha_i=(0,)))
    (f,) = extremal_family(C.C1, s, r=3)
    assert len(f.terms) == 1
    t = f.terms[0]
    assert t.logpow == 0
    assert t.beta == Fr(-1, 2) - Fr(1, 8)
    assert t.lo is not None and t.hi is None


def test_extremal_c3_power_eigenfunction():
    s = _c3_symmetric()
    fs = extremal_family(C.C3, s, r=5)
    for f in fs:
        assert f.is_single_power()
        assert f.terms[0].beta == (Fr(1, 2) + 1) * Fr(-1, 8)
        assert f.terms[0].lo is None and f.terms[0].hi is None


def test_extremal_unsupported_id():
    s2, *_ = _shared_weight_scenario_c2()
    for cid in (C.C2, "C2"):  # a plain-string id is accepted as the enum is
        with pytest.raises(ScenarioError) as exc:
            extremal_family(cid, s2)
        assert exc.value.condition == "unsupported-id"
        with pytest.raises(ScenarioError) as exc:
            ratio_study(cid, s2, [1])
        assert exc.value.condition == "unsupported-id"


def test_extremal_requires_positive_r():
    s = _c3_symmetric()
    with pytest.raises(ValueError):
        extremal_family(C.C3, s, r=0)


# ---------------------------------------------------------------- verification


def test_verify_c3_eigenfunction_slack_is_one():
    s = _c3_symmetric()
    rep = verify_bound(C.C3, s, extremal_family(C.C3, s))
    assert rep.holds
    assert abs(rep.slack - 1.0) <= 1e-10


def test_verify_c1_single_shell_extremal_slack_is_one():
    ker, _ = kernel_from_terms(3, 1, [(Fr(1), 0, 0, 1, 1)])
    s = Scenario(p=3, n=1, m=1, kernel=ker, families=(ScalarRadial(1, -3),),
                 params=SpaceParams(q=2, q_i=(2,), alpha=Fr(1, 2), alpha_i=(Fr(1, 2),)))
    for r in (1, 4):
        rep = verify_bound(C.C1, s, extremal_family(C.C1, s, r))
        assert rep.holds
        assert abs(rep.slack - 1.0) <= 1e-10


def test_verify_c1_random_inputs_slack_at_least_one():
    rng = random.Random(23)
    ker, _ = kernel_from_terms(2, 1, [(Fr(1), 0, 0, -1, 1), (Fr(1, 2), 1, 0, 0, 2)])
    s = Scenario(p=2, n=1, m=2, kernel=ker,
                 families=(ScalarRadial(1, 0), ScalarRadial(-1, 1)),
                 params=SpaceParams(q=2, q_i=(4, 4), alpha=Fr(1, 2),
                                    alpha_i=(Fr(1, 2), Fr(1, 2))))
    for _ in range(10):
        fs = []
        for qi, ai in ((4, Fr(1, 2)), (4, Fr(1, 2))):
            crit = -(ai + 1) / qi
            beta = crit - Fr(rng.randint(1, 5), 7)
            lo = rng.randint(-4, 0)
            fs.append(RadialFunction.power(2, 1, Fr(rng.randint(1, 3)), beta, lo=lo))
        rep = verify_bound(C.C1, s, tuple(fs))
        assert rep.holds
        assert rep.slack >= 1.0 - 1e-12


def test_slot_factor_is_built_once_per_key():
    half = harness._slot_factor(2, 1, None, 1, 0, Fr(1, 2))
    assert harness._slot_factor(2, 1, None, 1, 0, Fr(1, 2)) is half
    # exponents that compare equal share one factor
    one = harness._slot_factor(2, 1, None, 1, 0, Fr(1))
    assert harness._slot_factor(2, 1, None, 1, 0, 1) is one
    osc = harness._slot_factor(3, 1, 4, -1, 2, Fr(1, 3))
    power = RadialFunction.power(3, 1, 1, Fr(1, 3))
    assert osc == harness._oscillation(3, 1, 4).pullback(-1, 2) * power.pullback(-1, 2)


@pytest.mark.parametrize("cid, norm", [(C.C1, "lebesgue_norm"), (C.C3, "morrey_norm")])
def test_equal_slots_share_one_norm(monkeypatch, cid, norm):
    s = _c3_symmetric(m=3)
    f = RadialFunction.power(2, 1, 1, Fr(-1, 4), lo=-2, hi=3)
    g = RadialFunction.power(2, 1, 2, Fr(-1, 4), lo=-2, hi=3)
    real = getattr(harness, norm)
    calls = []
    monkeypatch.setattr(harness, norm, lambda *a, **kw: calls.append((a, kw)) or real(*a, **kw))
    rep = verify_bound(cid, s, (f, f, f))
    # one call for the output, one for the three equal slots
    assert len(calls) == 2
    (args, kw), = [c for c in calls if c[0][0] is f]
    value = real(*args, **kw).value
    assert repr(rep.rhs) == repr(harness._prod_ev([rep.constant, value, value, value]))
    # another input takes a norm of its own
    calls.clear()
    verify_bound(cid, s, (f, g, f))
    assert len(calls) == 3


def test_verify_zero_inputs_hold_trivially():
    s = _c3_symmetric()
    zero = RadialFunction.zero(s.p, s.n)
    rep = verify_bound(C.C3, s, (zero, zero))
    assert rep.holds
    assert float(rep.lhs.value) == 0.0
    assert rep.slack == math.inf


def test_verify_infinite_input_norm_marks_rhs_divergent():
    ker, _ = kernel_from_terms(2, 1, [(Fr(1), 0, 0, 0, 0)])
    s = Scenario(p=2, n=1, m=1, kernel=ker, families=(ScalarRadial(1, 0),),
                 params=SpaceParams(q=2, q_i=(2,), alpha=0, alpha_i=(0,)))
    f = RadialFunction.power(2, 1, 1, Fr(-1, 2))  # exactly critical: no decay margin
    rep = verify_bound(C.C1, s, (f,))
    assert not rep.rhs.is_finite
    assert rep.holds  # an infinite right side cannot be violated


def test_verify_c8_matches_c9_report():
    s, *_ = _c8_scenario()
    fs = extremal_family(C.C8, s)
    rep8 = verify_bound(C.C8, s, fs)
    rep9 = verify_bound(C.C9, s, fs)
    assert float(rep8.lhs.value) == pytest.approx(float(rep9.lhs.value), rel=1e-12)
    assert rep8.slack == pytest.approx(rep9.slack, rel=1e-12)


def test_commutator_output_is_constant_times_power():
    s, *_ = _c8_scenario()
    fs = extremal_family(C.C9, s)
    out = hausdorff_apply(s.kernel, s.families, fs, symbols=s.symbols).as_radial()
    assert out.is_single_power()
    c9 = float(compute_constant(C.C9, s).value)
    t = out.terms[0]
    assert float(t.coeff) == pytest.approx(c9, rel=1e-10)
    al, lam = s.params.alpha, s.params.lam
    assert Fr(t.beta) == (Fr(al) + s.n) * Fr(lam)


def test_verify_c5_local_bound_holds():
    p, n = 3, 1
    ker, _ = kernel_from_terms(p, n, [(Fr(2), 0, 0, -2, 2)])
    fams = (ScalarRadial(1, 0), ScalarRadial(-1, 1))
    logs = (RadialFunction.log(p, n), RadialFunction.log(p, n))
    P = SpaceParams(q=Fr(4, 3), q_i=(8, 8), r_i=(4, 4),
                    alpha=Fr(3, 2), alpha_i=(1, 2), gamma=1)
    s = Scenario(p=p, n=n, m=2, kernel=ker, families=fams, params=P, symbols=logs)
    fs = tuple(RadialFunction.power(p, n, 1, Fr(-1, 2), lo=-3, hi=3) for _ in range(2))
    rep = verify_bound(C.C5, s, fs)
    assert rep.holds
    assert rep.rhs.is_finite and float(rep.lhs.value) > 0


def test_verify_c6_bound_holds():
    s, *_ = _c6_scenario()
    fs = tuple(RadialFunction.power(s.p, s.n, 1, Fr(-1, 2), lo=-3, hi=3) for _ in range(2))
    rep = verify_bound(C.C6, s, fs)
    assert rep.holds and rep.rhs.is_finite


def test_verify_c10_bound_holds():
    s6, *_ = _c6_scenario()
    P = SpaceParams(q_star=Fr(5, 4), zeta=1, q_star_i=(8, 8), r_star_i=(4, 4),
                    delta=2, lam=Fr(-1, 8), lam_i=(Fr(-1, 16), Fr(-1, 16)))
    s = Scenario(p=s6.p, n=s6.n, m=2, kernel=s6.kernel, families=s6.families,
                 params=P, weight=s6.weight, symbols=s6.symbols)
    fs = tuple(RadialFunction.power(s.p, s.n, 1, Fr(-1, 2), lo=-2, hi=4) for _ in range(2))
    rep = verify_bound(C.C10, s, fs)
    assert rep.holds and rep.rhs.is_finite


# ---------------------------------------------------------------- composite check


def test_composite_constant_symbols_vanish():
    s, *_ = _c7_scenario()
    const_syms = tuple(RadialFunction.constant(s.p, s.n, 3) for _ in range(2))
    s2 = Scenario(p=s.p, n=s.n, m=2, kernel=s.kernel, families=s.families,
                  params=s.params, symbols=const_syms)
    rep = maximal_composite_check(s2)
    assert float(rep.lhs.value) == 0.0
    assert rep.holds


def test_composite_zero_kernel_both_sides_vanish():
    s, *_ = _c7_scenario()
    zero_ker = KernelSpec(RadialFunction.zero(s.p, s.n))
    s2 = Scenario(p=s.p, n=s.n, m=2, kernel=zero_ker, families=s.families,
                  params=s.params, symbols=s.symbols)
    rep = maximal_composite_check(s2)
    assert float(rep.lhs.value) == 0.0
    assert float(rep.rhs.value) == 0.0
    assert rep.holds


def test_composite_log_symbols_finite_and_bounded():
    s, *_ = _c7_scenario()
    fs = tuple(RadialFunction.power(s.p, s.n, 1, 0, lo=-2, hi=2) for _ in range(2))
    rep = maximal_composite_check(s, fs)
    assert rep.rhs.is_finite
    assert float(rep.lhs.value) > 0
    assert rep.holds
    assert rep.slack >= 1.0


# ---------------------------------------------------------------- ratio studies


def _c1_two_shell():
    ker, _ = kernel_from_terms(2, 1, [(Fr(1), 0, 0, 0, 0), (Fr(1, 2), 0, 0, 2, 2)])
    return Scenario(p=2, n=1, m=1, kernel=ker, families=(ScalarRadial(1, 0),),
                    params=SpaceParams(q=2, q_i=(2,), alpha=0, alpha_i=(0,)))


def test_ratio_study_c3_is_exactly_the_constant():
    s = _c3_symmetric()
    rep = ratio_study(C.C3, s, [1, 2, 3])
    for r in rep.ratios:
        assert r == pytest.approx(rep.target, rel=1e-10)
    assert rep.converged


def test_ratio_study_c9_log_symbols_hit_constant():
    s, *_ = _c8_scenario()
    rep = ratio_study(C.C9, s, [1, 2])
    for r in rep.ratios:
        assert r == pytest.approx(rep.target, rel=1e-10)
    assert rep.converged


def test_ratio_study_c1_monotone_below_target():
    rep = ratio_study(C.C1, _c1_two_shell(), list(range(1, 9)))
    assert all(a <= b * (1 + 1e-10) for a, b in zip(rep.ratios, rep.ratios[1:]))
    assert all(r <= rep.target * (1 + 1e-10) for r in rep.ratios)
    assert abs(rep.ratios[-1] / rep.target - 1.0) <= 0.05
    assert rep.converged


def test_ratio_study_divergent_target_notes_unbounded():
    p, n = 2, 1
    ker = KernelSpec(RadialFunction.power(p, n, 1, 0, lo=0))  # chi on |y| >= 1
    s = Scenario(p=p, n=n, m=1, kernel=ker, families=(ScalarRadial(0, 0),),
                 params=SpaceParams(q=2, q_i=(2,), alpha=0, alpha_i=(0,)))
    rep = ratio_study(C.C1, s, [1, 2])
    assert rep.target == math.inf
    assert not rep.converged
    assert "unbounded" in rep.note


def _count_applications(monkeypatch):
    calls = []
    apply_exact = harness._apply_exact
    monkeypatch.setattr(harness, "_apply_exact", lambda *a: calls.append(a) or apply_exact(*a))
    return calls


@pytest.mark.parametrize("cid, make", [
    (C.C3, _c3_symmetric), (C.C8, lambda: _c8_scenario()[0]), (C.C9, lambda: _c8_scenario()[0]),
])
def test_ratio_study_applies_an_r_independent_family_once(monkeypatch, cid, make):
    calls = _count_applications(monkeypatch)
    rep = ratio_study(cid, make(), list(range(1, 9)))
    assert len(calls) == 1
    assert len(set(rep.ratios)) == 1 and len(rep.ratios) == 8


def test_ratio_study_c1_applies_once_per_distinct_r(monkeypatch):
    calls = _count_applications(monkeypatch)
    s = _c1_two_shell()
    every = ratio_study(C.C1, s, list(range(1, 9)))
    assert len(calls) == 8
    calls.clear()
    rep = ratio_study(C.C1, s, [3, 3, 1])
    assert len(calls) == 2
    assert rep.ratios == (every.ratios[2], every.ratios[2], every.ratios[0])


def _per_r_ratios(b):
    """The ratios of a study with every r evaluated afresh."""
    s, spec = b.scenario, harness._SPECS[b.constant]
    rec = validate_scenario(b.constant, s, window=b.window)
    out = []
    for r in b.rs:
        symbols = weights = None
        if spec.cmo_r is not None:
            symbols = tuple(RadialFunction.log(s.p, s.n) for _ in range(s.m))
        else:
            weights = harness._weights(spec, s, rec)
        out.append(harness._ratio_for(spec, s, spec.extremal(s, rec, r), rec, b.window,
                                      symbols, weights))
    return tuple(out)


@pytest.mark.parametrize("suite", ["c1-sharpness", "c8c9-commutator"])
def test_ratio_study_matches_a_per_r_loop_on_bundled_rows(suite):
    for row in scenarios.suite_rows(suite, scenarios.SUITE_SEED):
        (model,) = load_scenario_text(json.dumps(row))
        b = build_scenario(model)
        rep = ratio_study(b.constant, b.scenario, b.rs, tol=b.tol, window=b.window)
        assert rep.ratios == _per_r_ratios(b), row["id"]


def test_ratio_study_unsupported_id():
    s, *_ = _c6_scenario()
    with pytest.raises(ScenarioError) as exc:
        ratio_study(C.C6, s, [1])
    assert exc.value.condition == "unsupported-id"


# ---------------------------------------------------------------- envelopes


def test_rigorous_envelopes_are_unit():
    assert K_ENVELOPE[C.C1] == 1.0
    assert K_ENVELOPE[C.C3] == 1.0
