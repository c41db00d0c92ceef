"""Multilinear Hausdorff operator and its commutator on the radial algebra."""

import json
import math
import pickle
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialpadic import radial
from radialpadic.families import ConstantMatrix, Pointwise, ScalarRadial, scalar_matrix
from radialpadic.harness import extremal_family
from radialpadic.operators import KernelSpec, hausdorff_apply
from radialpadic.padic import PAdicMatrix, PAdicVector, log_norm
from radialpadic.radial import RadialFunction, RadialTerm
from radialpadic.scenario_io import build_scenario, load_scenario_text
from radialpadic.scenarios import SUITE_SEED, commutator_bound_rows, mc_cases, suite_rows

from oracles import brute_hausdorff_shell, reference_mc_estimate


def sphere_kernel(p, n, weights):
    """Phi = sum_g weights[g] * chi_{S_g}."""
    terms = tuple(RadialTerm(w, 0, 0, g, g) for g, w in weights.items())
    return KernelSpec(RadialFunction(p, n, terms))


# -- kernel validation ---------------------------------------------------------


def test_kernel_rejects_negative_values():
    phi = RadialFunction.power(2, 1, -1, 0, lo=0, hi=3)
    with pytest.raises(ValueError):
        KernelSpec(phi)
    # sign-changing: positive piece plus a negative spike
    phi2 = RadialFunction.constant(2, 1, 1) + RadialFunction.power(2, 1, -5, 0, lo=2, hi=2)
    with pytest.raises(ValueError):
        KernelSpec(phi2)


def test_kernel_rejects_negative_tail():
    # positive on every probed shell near zero but eventually negative
    phi = RadialFunction(
        2, 1,
        (RadialTerm(Fraction(1), 0, 0, None, None), RadialTerm(Fraction(-1, 10 ** 40), 1, 0, 100, None)),
    )
    with pytest.raises(ValueError):
        KernelSpec(phi)


def test_kernel_rejects_negative_shell_inside_the_certified_edge():
    # positive toward both ends, but phi(150) = -1; the right end is only
    # certified from shell 601, so every shell below that must be scanned
    phi = RadialFunction(
        2, 1,
        (RadialTerm(Fraction(1), 0, 2), RadialTerm(Fraction(-300), 0, 1),
         RadialTerm(Fraction(22499), 0, 0)),
    )
    assert phi.value_on_shell(150) == -1
    with pytest.raises(ValueError, match="fails on shell 150"):
        KernelSpec(phi)
    # a dip past the old +-96 probe; the certificates start beyond it
    spike = RadialFunction.constant(2, 1, 1) + RadialFunction.power(2, 1, -5, 0, lo=200, hi=200)
    with pytest.raises(ValueError, match="fails on shell 200"):
        KernelSpec(spike)


def test_kernel_support_and_line_mass():
    ker = sphere_kernel(3, 1, {-1: Fraction(2), 2: Fraction(1, 3)})
    assert ker.support_shells() == [-1, 2]
    unit = 1 - Fraction(1, 3)
    # the line mass integral Phi(y)/|y|^n dy is the operator's value on f = 1
    one = RadialFunction.constant(3, 1, 1)
    mass = hausdorff_apply(ker, [ScalarRadial(0, 0)], [one]).as_radial()
    assert mass == RadialFunction.constant(3, 1, (2 + Fraction(1, 3)) * unit)
    ker_inf = KernelSpec(RadialFunction.power(2, 1, 1, -1, hi=0))
    assert ker_inf.support_shells() is None


def test_kernel_support_is_scanned_once(monkeypatch):
    ker = sphere_kernel(3, 1, {-1: Fraction(2), 2: Fraction(1, 3)})
    fresh = sphere_kernel(3, 1, {-1: Fraction(2), 2: Fraction(1, 3)})
    evaluated = []
    value_on_shell = RadialFunction.value_on_shell
    monkeypatch.setattr(RadialFunction, "value_on_shell",
                        lambda self, g: evaluated.append(g) or value_on_shell(self, g))
    first = ker.support_shells()
    assert first == [-1, 2] and evaluated == [-1, 0, 1, 2]
    first.append(7)
    first[0] = 5
    assert ker.support_shells() == [-1, 2]
    assert ker.support_shells() is not ker.support_shells()
    assert evaluated == [-1, 0, 1, 2]
    # the cached support is not part of the kernel's value
    assert [f.name for f in fields(KernelSpec)] == ["phi"]
    assert ker == fresh and hash(ker) == hash(fresh)
    for k in (ker, fresh):
        back = pickle.loads(pickle.dumps(k))
        assert back == k and hash(back) == hash(k)
        assert back.support_shells() == [-1, 2]
    ker_inf = KernelSpec(RadialFunction.power(2, 1, 1, -1, hi=0))
    assert ker_inf.support_shells() is None and ker_inf.support_shells() is None


# -- exact radial branch -------------------------------------------------------


def test_single_shell_kernel_identity_family():
    # Phi = chi_{S_0}, |s(y)| = |y|, f = chi_{B_0}: result is (1/2) chi_{B_0}
    ker = sphere_kernel(2, 1, {0: Fraction(1)})
    res = hausdorff_apply(ker, [ScalarRadial(1, 0)], [RadialFunction.chi_ball(2, 1, 0)])
    assert res.kind == "radial" and res.exact
    out = res.as_radial()
    for v in range(-6, 7):
        assert out.value_on_shell(v) == (Fraction(1, 2) if v <= 0 else 0)


def test_single_shell_kernel_shifted():
    # Phi = chi_{S_{-1}}, |s(y)| = |y|, f = chi_{B_0}, at |x| = 2: 1/2
    ker = sphere_kernel(2, 1, {-1: Fraction(1)})
    res = hausdorff_apply(ker, [ScalarRadial(1, 0)], [RadialFunction.chi_ball(2, 1, 0)])
    assert res.as_radial().value_on_shell(1) == Fraction(1, 2)


@st.composite
def scalar_scenarios(draw):
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 2))
    m = draw(st.integers(1, 2))
    weights = {
        g: Fraction(draw(st.integers(0, 5)), draw(st.integers(1, 3)))
        for g in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True))
    }
    fams = [
        ScalarRadial(draw(st.integers(-2, 2)), draw(st.integers(-3, 3)))
        for _ in range(m)
    ]
    fs = []
    for _ in range(m):
        terms = []
        for _ in range(draw(st.integers(1, 2))):
            coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
            beta = draw(st.integers(-2, 2))
            k = draw(st.integers(0, 1))
            lo = draw(st.one_of(st.none(), st.integers(-9, 0)))
            hi = draw(st.integers(0, 9))
            terms.append(RadialTerm(coeff, beta, k, lo, hi))
        fs.append(RadialFunction(p, n, tuple(terms)))
    return p, n, weights, fams, fs


@settings(max_examples=60, deadline=None)
@given(scen=scalar_scenarios(), v=st.integers(-7, 7))
def test_exact_radial_matches_brute_sum(scen, v):
    p, n, weights, fams, fs = scen
    ker = sphere_kernel(p, n, weights)
    res = hausdorff_apply(ker, fams, fs)
    got = res.as_radial().value_on_shell(v)
    want = brute_hausdorff_shell(
        p, n, weights, [F.slope for F in fams], [F.offset for F in fams],
        [f.value_on_shell for f in fs], v,
    )
    assert got == want


@settings(max_examples=40, deadline=None)
@given(scen=scalar_scenarios(), v=st.integers(-5, 5))
def test_commutator_matches_brute_sum(scen, v):
    p, n, weights, fams, fs = scen
    ker = sphere_kernel(p, n, weights)
    bs = [
        RadialFunction.log(p, n, Fraction(i + 1, 2)) + RadialFunction.constant(p, n, i)
        for i in range(len(fams))
    ]
    res = hausdorff_apply(ker, fams, fs, symbols=bs)
    got = res.as_radial().value_on_shell(v)
    unit = 1 - Fraction(p) ** (-n)
    want = Fraction(0)
    for g, w in weights.items():
        term = w * unit
        for F, b, f in zip(fams, bs, fs):
            k = F.k_on_shell(g)
            term *= (b.value_on_shell(v) - b.value_on_shell(v + k)) * f.value_on_shell(v + k)
        want += term
    assert got == want


def fold_apply(ker, fams, fs, symbols=None):
    """The finite-support exact output as a fold: each shell's slot factors
    multiplied one at a time, and the shells summed one at a time."""
    p, n = ker.p, ker.n
    unit = 1 - Fraction(p) ** (-n)
    out = RadialFunction.zero(p, n)
    for g in ker.support_shells():
        prod = RadialFunction.constant(p, n, 1)
        for i, (fam, f) in enumerate(zip(fams, fs)):
            k = fam.k_on_shell(g)
            factor = f.dilate(k)
            if symbols is not None:
                factor = (symbols[i] - symbols[i].dilate(k)) * factor
            prod = prod * factor
        out = out + prod.scale(ker.phi.value_on_shell(g) * unit)
    return out


@settings(max_examples=40, deadline=None)
@given(scen=scalar_scenarios(), commutator=st.booleans())
def test_exact_output_is_the_fold_over_shells(scen, commutator):
    p, n, weights, fams, fs = scen
    ker = sphere_kernel(p, n, weights)
    bs = None
    if commutator:
        bs = [RadialFunction.log(p, n, Fraction(i + 1, 2)) + RadialFunction.constant(p, n, i)
              for i in range(len(fams))]
    got = hausdorff_apply(ker, fams, fs, symbols=bs).as_radial()
    want = fold_apply(ker, fams, fs, bs)
    assert [(type(t.coeff), t) for t in got.terms] == [(type(t.coeff), t) for t in want.terms]
    assert [got.float_on_shell(v, saturate=True) for v in range(-60, 61)] == \
        [want.float_on_shell(v, saturate=True) for v in range(-60, 61)]


def test_exact_apply_groups_its_output_once(monkeypatch):
    # power inputs keep their form under dilation, so the operator takes one
    # full grouping pass, for its output; each commutator slot and shell adds
    # one for b - b.dilate(k) of a log symbol
    p, n = 3, 1
    ker = sphere_kernel(p, n, {-1: Fraction(1), 0: Fraction(2, 3), 2: Fraction(1, 2)})
    fams = (ScalarRadial(1, 0), ScalarRadial(-1, 2), ScalarRadial(0, 1))
    fs = (RadialFunction(p, n, (RadialTerm(Fraction(1, 2), Fraction(-1, 2), 0, None, 0),
                                RadialTerm(Fraction(2), -1, 0, 1, None))),
          RadialFunction.power(p, n, 1, 0, lo=-2, hi=3),
          RadialFunction.power(p, n, Fraction(3), 1, hi=2))
    logs = tuple(RadialFunction.log(p, n, Fraction(i + 1)) for i in range(3))
    calls = []
    full = radial._regroup
    monkeypatch.setattr(radial, "_regroup", lambda terms: calls.append(terms) or full(terms))
    hausdorff_apply(ker, fams, fs)
    assert len(calls) == 1
    calls.clear()
    hausdorff_apply(ker, fams, fs, symbols=logs)
    assert len(calls) <= len(fams) * len(ker.support_shells()) + 1


@settings(max_examples=40, deadline=None)
@given(scen=scalar_scenarios(), v=st.integers(-5, 5), a=st.integers(-3, 3))
def test_linearity_in_first_slot(scen, v, a):
    p, n, weights, fams, fs = scen
    ker = sphere_kernel(p, n, weights)
    g0 = RadialFunction.power(p, n, Fraction(a, 2), 1, lo=-4, hi=4)
    lhs = hausdorff_apply(ker, fams, [fs[0] + g0] + fs[1:]).as_radial()
    r1 = hausdorff_apply(ker, fams, fs).as_radial()
    r2 = hausdorff_apply(ker, fams, [g0] + fs[1:]).as_radial()
    assert lhs.value_on_shell(v) == r1.value_on_shell(v) + r2.value_on_shell(v)
    scaled = hausdorff_apply(ker, fams, [fs[0].scale(3)] + fs[1:]).as_radial()
    assert scaled.value_on_shell(v) == 3 * r1.value_on_shell(v)


@settings(max_examples=40, deadline=None)
@given(scen=scalar_scenarios(), v=st.integers(-6, 6))
def test_positivity(scen, v):
    p, n, weights, fams, fs = scen
    ker = sphere_kernel(p, n, weights)
    nonneg = [
        RadialFunction(p, n, tuple(
            RadialTerm(abs(t.coeff), t.beta, 0, t.lo, t.hi) for t in f.terms
        ))
        for f in fs
    ]
    res = hausdorff_apply(ker, fams, nonneg)
    assert res.as_radial().value_on_shell(v) >= 0


def test_power_eigenfunction_single_term():
    # powers are joint eigenfunctions: the output is one power term whose
    # exponent is the sum of the input exponents
    p, n = 3, 1
    weights = {-2: Fraction(1, 2), 0: Fraction(2), 1: Fraction(1, 7)}
    ker = sphere_kernel(p, n, weights)
    fams = [ScalarRadial(1, 0), ScalarRadial(-1, 2)]
    betas = [Fraction(3, 2), Fraction(-1, 2)]
    fs = [RadialFunction.power(p, n, 1, b) for b in betas]
    res = hausdorff_apply(ker, fams, fs).as_radial()
    assert res.is_single_power()
    coeff, beta = res.terms[0].coeff, res.terms[0].beta
    assert beta == sum(betas)
    # half-integer exponents force the float track; compare numerically
    unit = 1 - 1 / float(p) ** n
    want = 0.0
    for g, w in weights.items():
        t = float(w) * unit
        for F, b in zip(fams, betas):
            t *= float(p) ** (F.k_on_shell(g) * float(b))
        want += t
    assert math.isclose(float(coeff), want, rel_tol=1e-13)


def test_log_symbol_commutator_single_power():
    # b_i = log, f_i = |x|^{beta_i}: result is exactly
    # [sum_g Phi(g) unit prod_i (-k_i(g)) p^{k_i(g) beta_i}] |x|^{sum beta}
    p, n = 2, 1
    weights = {1: Fraction(1), 2: Fraction(1, 3)}
    ker = sphere_kernel(p, n, weights)
    fams = [ScalarRadial(1, 0), ScalarRadial(2, -1)]
    betas = [Fraction(-1), Fraction(2)]
    fs = [RadialFunction.power(p, n, 1, b) for b in betas]
    bs = [RadialFunction.log(p, n), RadialFunction.log(p, n)]
    res = hausdorff_apply(ker, fams, fs, symbols=bs).as_radial()
    assert res.is_single_power()
    coeff, beta = res.terms[0].coeff, res.terms[0].beta
    assert beta == sum(betas)
    unit = 1 - Fraction(p) ** (-n)
    want = Fraction(0)
    for g, w in weights.items():
        t = w * unit
        for F, b in zip(fams, betas):
            k = F.k_on_shell(g)
            t *= -k * Fraction(p) ** int(k * b)
        want += t
    assert coeff == want


def test_commutator_annihilates_constant_symbols():
    p, n = 3, 2
    ker = sphere_kernel(p, n, {0: Fraction(1), -1: Fraction(5)})
    fams = [ScalarRadial(1, 1), ScalarRadial(0, -2)]
    fs = [RadialFunction.chi_ball(p, n, 3), RadialFunction.power(p, n, 2, -1, lo=-5)]
    bs = [RadialFunction.constant(p, n, Fraction(7, 3)), RadialFunction.log(p, n)]
    res = hausdorff_apply(ker, fams, fs, symbols=bs).as_radial()
    assert res.terms == ()


def test_commutator_log_symbol_single_shell_value():
    # Phi = chi_{S_1}, |s(y)| = |y|, b = log, f = 1 everywhere, p=2, n=1:
    # the symbol difference is -1 on S_1, so the value is -(1 - 1/2) = -1/2
    p, n = 2, 1
    ker = sphere_kernel(p, n, {1: Fraction(1)})
    res = hausdorff_apply(
        ker, [ScalarRadial(1, 0)], [RadialFunction.constant(p, n, 1)],
        symbols=[RadialFunction.log(p, n)],
    )
    out = res.as_radial()
    for v in range(-5, 6):
        assert out.value_on_shell(v) == Fraction(-1, 2)


# -- infinite-support kernels (table branch) -----------------------------------


def test_table_branch_matches_truncated_brute():
    p, n = 3, 2
    phi = RadialFunction(
        p, n,
        (RadialTerm(Fraction(1), 1, 0, None, 0), RadialTerm(Fraction(1), -3, 0, 1, None)),
    )
    ker = KernelSpec(phi)
    fams = [ScalarRadial(1, 0), ScalarRadial(-2, 3)]
    f1 = RadialFunction(p, n, (RadialTerm(Fraction(1), -1, 0, -4, None),
                               RadialTerm(Fraction(3), 0, 1, -8, -5)))
    f2 = RadialFunction.chi_ball(p, n, 2)
    bs = [RadialFunction.log(p, n), RadialFunction.log(p, n, Fraction(1, 2)) + RadialFunction.chi_ball(p, n, 0)]
    trunc = {g: phi.value_on_shell(g) for g in range(-220, 80)}
    for symbols in (None, bs):
        res = hausdorff_apply(ker, fams, [f1, f2], symbols=symbols, window=8)
        assert res.kind == "table" and res.exact
        for v in range(-8, 9):
            got = res.value_on_shell(v)
            assert got.is_finite
            slots = [f.value_on_shell for f in (f1, f2)]
            if symbols is not None:  # the commutator's slot factor (b(v) - b(s)) f(s)
                slots = [lambda s, b=b, f=f: (b.value_on_shell(v) - b.value_on_shell(s)) * f.value_on_shell(s)
                         for b, f in zip(symbols, (f1, f2))]
            want = brute_hausdorff_shell(p, n, trunc, [1, -2], [0, 3], slots, v)
            assert math.isclose(float(got.value), float(want), rel_tol=1e-10, abs_tol=1e-18)


def test_table_branch_power_eigenfunction_closed_form():
    # Phi = |y|^3 on |y| <= 1/2, f = |x|^{-1}: coefficient is the geometric sum
    # unit * sum_{g <= -1} p^{(3-1) g} = unit * p^{-2} / (1 - p^{-2})
    p, n = 2, 1
    ker = KernelSpec(RadialFunction.power(p, n, 1, 3, hi=-1))
    res = hausdorff_apply(ker, [ScalarRadial(1, 0)], [RadialFunction.power(p, n, 1, -1)], window=6)
    unit = Fraction(1, 2)
    coeff = unit * Fraction(1, 4) / (1 - Fraction(1, 4))
    for v in range(-6, 7):
        assert res.value_on_shell(v).value == coeff * Fraction(p) ** (-v)


def test_table_branch_window_bounds():
    p, n = 2, 1
    ker = KernelSpec(RadialFunction.power(p, n, 1, 2, hi=-1))
    res = hausdorff_apply(ker, [ScalarRadial(1, 0)], [RadialFunction.chi_ball(p, n, 0)], window=4)
    assert [g for g, _ in res.table] == list(range(-4, 5))
    with pytest.raises(ValueError):
        res.value_on_shell(5)


def test_divergent_shells_are_data():
    # Phi = chi_{|y| >= 1}, f = 1: every shell sum diverges to +inf
    p, n = 2, 1
    ker = KernelSpec(RadialFunction.power(p, n, 1, 0, lo=0))
    res = hausdorff_apply(
        ker, [ScalarRadial(1, 0)], [RadialFunction.constant(p, n, 1)], window=3,
    )
    for v in range(-3, 4):
        ev = res.value_on_shell(v)
        assert not ev.is_finite and ev.value == math.inf


# -- constant-matrix families (exact pointwise branch) --------------------------


def test_constant_matrix_evaluator_matches_manual():
    p, n = 3, 2
    ker = sphere_kernel(p, n, {-2: Fraction(2), 0: Fraction(1), 1: Fraction(1, 2)})
    a = PAdicMatrix(p, ((Fraction(1), Fraction(3)), (Fraction(0), Fraction(1, 3))))
    fams = [ConstantMatrix(a), ScalarRadial(1, 0)]
    f1 = RadialFunction(p, n, (RadialTerm(Fraction(1), -1, 0, -4, None),
                               RadialTerm(Fraction(3), 0, 1, -8, -5)))
    f2 = RadialFunction.chi_ball(p, n, 2)
    res = hausdorff_apply(ker, fams, [f1, f2])
    assert res.kind == "pointwise" and res.exact
    unit = 1 - Fraction(p) ** (-n)
    for x in [
        PAdicVector(p, (Fraction(9), Fraction(2, 3))),
        PAdicVector(p, (Fraction(1, 27), Fraction(0))),
        PAdicVector(p, (Fraction(5), Fraction(81))),
    ]:
        v = int(x.shell())
        sz = int(a.matvec(x).shell())
        want = Fraction(0)
        for g, w in {-2: Fraction(2), 0: Fraction(1), 1: Fraction(1, 2)}.items():
            want += w * unit * f1.value_on_shell(sz) * f2.value_on_shell(v + g)
        assert res.evaluate(x).value == want
    with pytest.raises(TypeError):
        res.as_radial()
    with pytest.raises(TypeError):
        res.value_on_shell(0)


def test_scalar_matrix_constant_family_consistent_with_scalar_radial():
    # ConstantMatrix(p^{-k} I) acts exactly like ScalarRadial(0, k)
    p, n, k = 2, 2, 3
    ker = sphere_kernel(p, n, {0: Fraction(1), 2: Fraction(1, 5)})
    f = RadialFunction.power(p, n, 1, -1, lo=-6, hi=6)
    exact = hausdorff_apply(ker, [ScalarRadial(0, k)], [f]).as_radial()
    mat = ConstantMatrix(PAdicMatrix.scalar(p, n, Fraction(1, p ** k)))
    viaeval = hausdorff_apply(ker, [mat], [f])
    for x in [PAdicVector(p, (Fraction(4), Fraction(1, 2))), PAdicVector(p, (Fraction(1), Fraction(8)))]:
        v = int(x.shell())
        assert viaeval.evaluate(x).value == exact.value_on_shell(v)


def test_constant_matrix_commutator_evaluator():
    p, n = 2, 1
    ker = sphere_kernel(p, n, {0: Fraction(1)})
    a = PAdicMatrix(p, ((Fraction(4),),))  # |Ax| = |x|/4, so k_A = -2
    res = hausdorff_apply(
        ker, [ConstantMatrix(a)], [RadialFunction.constant(p, n, 1)],
        symbols=[RadialFunction.log(p, n)],
    )
    x = PAdicVector(p, (Fraction(3),))  # shell 0; A x on shell -2
    # symbol difference: log|x| - log|Ax| = 0 - (-2) = 2; mass of S_0 = 1/2
    assert res.evaluate(x).value == Fraction(1)


# -- Monte Carlo branch ---------------------------------------------------------


def test_pointwise_disguised_scalar_has_zero_variance():
    p, n = 3, 2
    ker = sphere_kernel(p, n, {-2: Fraction(2), 0: Fraction(1), 1: Fraction(1, 2)})
    fams_exact = [ScalarRadial(1, 0), ScalarRadial(-2, 3)]
    f1 = RadialFunction(p, n, (RadialTerm(Fraction(1), -1, 0, -4, None),))
    f2 = RadialFunction.chi_ball(p, n, 2)
    exact = hausdorff_apply(ker, fams_exact, [f1, f2]).as_radial()

    def ev(y):
        return PAdicMatrix.scalar(p, n, Fraction(1) / Fraction(p) ** int(y.shell()))

    res = hausdorff_apply(ker, [Pointwise(ev), ScalarRadial(-2, 3)], [f1, f2])
    assert res.kind == "sampled" and not res.exact
    x = PAdicVector(p, (Fraction(9), Fraction(2, 3)))
    est = res.estimate(x, n_samples=3000, seed=11)
    # the integrand is constant on each shell stratum: the estimate is exact
    assert est.stderr == 0.0
    assert math.isclose(est.value, float(exact.value_on_shell(int(x.shell()))), rel_tol=1e-12)


def test_pointwise_first_coordinate_family_within_error_bars():
    # A(y) = y_1 I gives genuine within-shell variance; the exact value has a
    # closed form by conditioning on |y_1|.
    p, n = 3, 2
    ker = sphere_kernel(p, n, {0: Fraction(1)})

    def ev(y):
        return PAdicMatrix.scalar(p, n, y.coords[0])

    f = RadialFunction.chi_ball(p, n, 0)
    res = hausdorff_apply(ker, [Pointwise(ev)], [f])
    v = 2
    x = PAdicVector(p, (Fraction(1, 9), Fraction(0)))
    assert int(x.shell()) == v
    # mass{y in S_0 : |y_1| = p^j}: (1-1/p) for j=0, p^j (1-1/p)^2 for j<0;
    # f(y_1 x) = 1 iff j + v <= 0, so sum the masses over j <= -v
    q = 1 - Fraction(1, p)
    want = sum(Fraction(p) ** j * q * q for j in range(-40, -v + 1))
    hits = 0
    for seed in (1, 2, 3, 4, 5):
        est = res.estimate(x, n_samples=20_000, seed=seed)
        assert est.stderr > 0
        if est.within(float(want)):
            hits += 1
    assert hits >= 4


def _first_coordinate_case():
    p, n = 3, 2
    return {
        "label": "first-coordinate",
        "kernel_phi": RadialFunction.power(p, n, 1, 0, lo=0, hi=0),
        "pointwise_families": (Pointwise(lambda y: PAdicMatrix.scalar(p, n, y.coords[0])),),
        "inputs": (RadialFunction.chi_ball(p, n, 0),),
        "x": PAdicVector(p, (Fraction(1, 9), Fraction(0))),
    }


def _mixed_matrix_case(with_symbol):
    # by |y_1| relative to |y|: a triangular A(y), a general invertible one,
    # or a singular one that is not triangular (it must contribute 0)
    p, n = 3, 2

    def ev(y):
        y1, y2 = y.coords
        drop = int(y.shell()) - log_norm(y1, p)
        if drop == 0:
            rows = ((y1, y2), (0, 1))
        elif drop == 1:
            rows = ((y2, 1), (1, y1))
        else:
            rows = ((1, 2), (2, 4))
        return PAdicMatrix(p, rows)

    return {
        "label": "mixed-symbol" if with_symbol else "mixed",
        "kernel_phi": RadialFunction(p, n, (RadialTerm(Fraction(1), 0, 0, -1, 0),
                                            RadialTerm(Fraction(1, 2), 0, 0, 2, 2))),
        "pointwise_families": (Pointwise(ev),),
        "inputs": (RadialFunction.power(p, n, Fraction(3, 2), -1, lo=-4, hi=5),),
        "symbols": (RadialFunction.log(p, n),) if with_symbol else None,
        "x": PAdicVector(p, (Fraction(1, 3), Fraction(5))),
    }


@pytest.mark.parametrize(
    "case",
    mc_cases(SUITE_SEED) + [_first_coordinate_case(), _mixed_matrix_case(False),
                            _mixed_matrix_case(True)],
    ids=lambda case: case["label"],
)
def test_sampled_estimate_matches_reference_bit_for_bit(case):
    # the per-call memo and the fast p-adic paths change no drawn point and
    # no float: the estimate equals the memo-free, elimination-det reference;
    # a second point on another shell checks that no memo outlives its call
    kernel = KernelSpec(case["kernel_phi"])
    symbols = case.get("symbols")
    res = hausdorff_apply(kernel, case["pointwise_families"], case["inputs"], symbols=symbols)
    x = case["x"]
    for point in (x, x.scale(Fraction(1, x.p))):
        est = res.estimate(point, n_samples=300, seed=7)
        value, stderr, per_shell = reference_mc_estimate(
            case["kernel_phi"], case["pointwise_families"], case["inputs"], point,
            kernel.support_shells(), 300, 7, symbols=symbols,
        )
        assert est.value == value
        assert est.stderr == stderr
        assert est.per_shell == per_shell


def _memo_slot(kind, p):
    """A fresh Pointwise family on Q_p^2 whose evaluator returns matrix
    objects in the given pattern across samples."""

    def shear(g):  # invertible and not scalar; its image shell depends on g
        return PAdicMatrix(p, ((Fraction(p) ** -g, Fraction(1)), (Fraction(0), Fraction(p))))

    kept = {}
    if kind == "one-per-shell":
        def ev(y):
            g = int(y.shell())
            if g not in kept:
                kept[g] = shear(g)
            return kept[g]
    elif kind == "same-object":
        const = ConstantMatrix(shear(1))
        return Pointwise(lambda y: const.matrix)
    elif kind == "singular-on-some-shells":
        def ev(y):
            g = int(y.shell())
            if g not in kept:
                kept[g] = PAdicMatrix(p, ((1, 2), (2, 4))) if g == 0 else shear(g)
            return kept[g]
    elif kind == "alternating":
        pair, calls = (shear(-1), shear(2)), [0]

        def ev(y):
            calls[0] += 1
            return pair[calls[0] % 2]
    else:  # "fresh-equal": a new object on every sample, so the memo never hits
        def ev(y):
            return shear(int(y.shell()))
    return Pointwise(ev)


@pytest.mark.parametrize("second", ["dilation", "same-family"])
@pytest.mark.parametrize(
    "kind", ["one-per-shell", "same-object", "singular-on-some-shells", "alternating", "fresh-equal"],
)
def test_matrix_memo_matches_reference_bit_for_bit(kind, second):
    # the per-slot memo of the last matrix object gives every sample the
    # float it would get afresh, whatever objects the evaluator returns.
    # Slot 1 is a scalar dilation, or slot 0's family itself under another
    # input and symbol, so that a memo crossing slots would show.
    p, n = 3, 2
    phi = RadialFunction(p, n, (RadialTerm(Fraction(1), 0, 0, -1, 0), RadialTerm(Fraction(1, 2), 1, 0, 1, 2)))
    inputs = (RadialFunction.power(p, n, 2, Fraction(-1, 2), lo=-4, hi=6),
              RadialFunction.power(p, n, 1, 1, lo=-3, hi=5))
    symbols = (RadialFunction.log(p, n), RadialFunction.log(p, n, 2)) if second == "same-family" else None

    def families():
        fam = _memo_slot(kind, p)
        if second == "same-family":
            return (fam, fam)
        return (fam, Pointwise(lambda y: scalar_matrix(p, n, 1 - int(y.shell()))))

    res = hausdorff_apply(KernelSpec(phi), families(), inputs, symbols=symbols)
    # the reference gets families of its own that return the same sequence
    ref_families = families()
    x = PAdicVector(p, (Fraction(1, 3), Fraction(5)))
    # the second point, on another shell, fails if a memo outlives its call
    for point in (x, x.scale(Fraction(1, 9))):
        est = res.estimate(point, n_samples=400, seed=13)
        value, stderr, per_shell = reference_mc_estimate(
            phi, ref_families, inputs, point, [-1, 0, 1, 2], 400, 13, symbols=symbols,
        )
        assert (est.value, est.stderr, est.per_shell) == (value, stderr, per_shell)
        assert est.value != 0.0
        if kind == "singular-on-some-shells":
            assert (est.per_shell[0]["mean"], est.per_shell[0]["stderr"]) == (0.0, 0.0)


def test_image_shell_runs_once_per_slot_and_shell(monkeypatch):
    # a scalar-radial family returns one matrix object on each shell and the
    # sampler draws the shells in turn, so the integrand reads A(y) x once per
    # (slot, shell) run, not once per sample
    calls = [0]
    image_shell = PAdicMatrix.image_shell

    def counted(self, x):
        calls[0] += 1
        return image_shell(self, x)

    monkeypatch.setattr(PAdicMatrix, "image_shell", counted)
    for case in mc_cases(SUITE_SEED):
        kernel = KernelSpec(case["kernel_phi"])
        res = hausdorff_apply(kernel, case["pointwise_families"], case["inputs"])
        calls[0] = 0
        est = res.estimate(case["x"], n_samples=1500, seed=3)
        runs = len(case["pointwise_families"]) * len(kernel.support_shells())
        assert 0 < calls[0] <= runs < est.n_samples, case["label"]


def _estimate_matches_reference_and_exact(case, n_samples, seed):
    """The sampled estimate equals the reference bit for bit and, its integrand
    being constant on each shell, the exact value of the ScalarRadial path."""
    kernel = KernelSpec(case["kernel_phi"])
    res = hausdorff_apply(kernel, case["pointwise_families"], case["inputs"])
    est = res.estimate(case["x"], n_samples=n_samples, seed=seed)
    value, stderr, per_shell = reference_mc_estimate(
        case["kernel_phi"], case["pointwise_families"], case["inputs"], case["x"],
        kernel.support_shells(), n_samples, seed,
    )
    assert (est.value, est.stderr, est.per_shell) == (value, stderr, per_shell)
    # the reference shares the evaluator: only the exact path sees a wrong scalar
    exact = hausdorff_apply(kernel, case["scalar_families"], case["inputs"]).as_radial()
    want = float(exact.value_on_shell(int(case["x"].shell())))
    assert math.isclose(est.value, want, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    offset=st.integers(0, 199),
    index=st.integers(0, 19),
    n_samples=st.integers(20, 40),
    seed=st.integers(0, 2**31 - 1),
)
def test_deep_pass_estimate_matches_reference_bit_for_bit(offset, index, n_samples, seed):
    # the benchmark's pass k samples mc_cases(SUITE_SEED + k); the fast paths
    # must hold on the cases of every pass it can reach, not only pass 0's
    _estimate_matches_reference_and_exact(mc_cases(SUITE_SEED + offset)[index], n_samples, seed)


def test_shared_scalar_family_alternating_primes_matches_reference():
    # one ScalarRadial serves p = 2 and p = 3 in turn: its cached matrices
    # depend on p as well as on the exponent
    fam = ScalarRadial(1, -1)
    for p in (2, 3, 2, 3):
        n = 2
        case = {
            "kernel_phi": RadialFunction.power(p, n, 1, 0, lo=-2, hi=1),
            "scalar_families": (fam,),
            "pointwise_families": (Pointwise(lambda y, p=p: fam.matrix_at(p, n, y)),),
            "inputs": (RadialFunction.power(p, n, 2, Fraction(-1, 2), lo=-3, hi=3),),
            "x": PAdicVector(p, (Fraction(1, p), Fraction(0))),
        }
        _estimate_matches_reference_and_exact(case, 40, seed=11)


def test_sampled_commutator_disguised_scalar_matches_exact():
    # A(y) = p^-(shell(y) - 1) I behind an opaque evaluator: the commutator
    # integrand (log|x| - log|A(y)x|) f(A(y)x) is constant on each shell
    p, n = 2, 2
    ker = sphere_kernel(p, n, {-1: Fraction(1), 0: Fraction(2), 2: Fraction(1, 2)})
    f = RadialFunction(p, n, (RadialTerm(Fraction(3), -1, 0, -3, None),))
    b = RadialFunction.log(p, n)
    exact = hausdorff_apply(ker, [ScalarRadial(1, -1)], [f], symbols=[b]).as_radial()

    def ev(y):
        return PAdicMatrix.scalar(p, n, Fraction(p) ** -(int(y.shell()) - 1))

    res = hausdorff_apply(ker, [Pointwise(ev)], [f], symbols=[b])
    assert res.kind == "sampled"
    x = PAdicVector(p, (Fraction(1, 2), Fraction(3)))
    want = float(exact.value_on_shell(int(x.shell())))
    assert want != 0
    est = res.estimate(x, n_samples=600, seed=5)
    assert est.stderr == 0.0
    assert math.isclose(est.value, want, rel_tol=1e-12)


def test_mc_truncation_note_for_infinite_kernel():
    p, n = 2, 1
    ker = KernelSpec(RadialFunction.power(p, n, 1, 2, hi=0))
    res = hausdorff_apply(
        ker, [Pointwise(lambda y: PAdicMatrix.identity(p, n))],
        [RadialFunction.chi_ball(p, n, 0)],
    )
    assert res.kind == "sampled"
    assert "truncated" in res.note


# -- input validation ------------------------------------------------------------


def test_input_validation():
    p, n = 2, 1
    ker = sphere_kernel(p, n, {0: Fraction(1)})
    f = RadialFunction.chi_ball(p, n, 0)
    with pytest.raises(ValueError):
        hausdorff_apply(ker, [], [])
    with pytest.raises(ValueError):
        hausdorff_apply(ker, [ScalarRadial(1, 0)], [f, f])
    with pytest.raises(ValueError):
        hausdorff_apply(ker, [ScalarRadial(1, 0)], [RadialFunction.chi_ball(3, 1, 0)])
    with pytest.raises(ValueError):
        hausdorff_apply(ker, [ScalarRadial(1, 0)], [f], symbols=[])


# -- log symbols: the commutator is a Hausdorff operator -------------------------


def _rewritten_kernel_output(kernel, families, coeffs, inputs):
    """sum_g Phi(g) (1 - p^-n) prod_i (-c_i k_i(g)) f_i.dilate(k_i(g)).

    For b_i = c_i log_p|x| and ||A_i(y)|| = p^k_i(y), b_i(x) - b_i(A_i(y) x)
    = -c_i k_i(y) exactly, so the commutator is the Hausdorff operator of the
    kernel Phi(y) prod_i (-c_i k_i(y)).
    """
    p, n = kernel.p, kernel.n
    unit = 1 - Fraction(p) ** (-n)
    out = RadialFunction.zero(p, n)
    for g in kernel.support_shells():
        term = RadialFunction.constant(p, n, kernel.phi.value_on_shell(g) * unit)
        for fam, c, f in zip(families, coeffs, inputs):
            k = fam.k_on_shell(g)
            term = term * f.dilate(k).scale(-c * k)
        out = out + term
    return out


def test_log_symbol_commutator_is_the_rewritten_kernel_on_every_bundled_row():
    names = ("c8c9-commutator", "c5-local", "c6-lebesgue", "c7-composite", "c10-morrey")
    rows = [row for name in names for row in suite_rows(name, SUITE_SEED)]
    rows += commutator_bound_rows(SUITE_SEED, 40)
    assert len(rows) == 98
    for row in rows:
        (model,) = load_scenario_text(json.dumps(row))
        b = build_scenario(model)
        s = b.scenario
        coeffs = [Fraction(sym["log_coeff"]) for sym in row["symbols"]]
        assert s.symbols == tuple(RadialFunction.log(s.p, s.n, c) for c in coeffs)
        # a ratio row has no inputs; its study applies the extremal family
        fs = s.inputs if s.inputs is not None else extremal_family(b.constant, s)
        got = hausdorff_apply(s.kernel, s.families, fs, symbols=s.symbols).as_radial()
        assert got == _rewritten_kernel_output(s.kernel, s.families, coeffs, fs), row["id"]
