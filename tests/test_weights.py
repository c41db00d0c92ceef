"""Weighted norms, oscillation norms, and Muckenhoupt diagnostics."""

import math
import struct
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radialpadic import radial, weights
from radialpadic.numeric import FloatRangeError, abs_pow, exact_root, exp_sat, float_sat, fpow, is_exact, log_exact
from radialpadic.radial import RadialFunction, RadialTerm, ball_measure, integrate_radial
from radialpadic.weights import (
    _GROWTH_PROBES,
    NormResult,
    Weight,
    _dominant_term,
    ap_constant,
    ball_average,
    cmo_norm,
    critical_index,
    integral_abs_power,
    lebesgue_norm,
    morrey_norm,
    rh_constant,
    weight_ball_mass,
)

from oracles import (
    brute_ball_average,
    brute_ball_mass,
    brute_cmo_single_radius,
    brute_weighted_lq,
    decimal_lq_integral,
)


def power_weight(p, n, alpha):
    return Weight.power(p, n, alpha)


# -- weight basics -----------------------------------------------------------


def test_weight_positivity_enforced():
    with pytest.raises(ValueError):
        Weight(RadialFunction.power(2, 1, -1, 0))
    with pytest.raises(ValueError):
        Weight(RadialFunction.log(2, 1))  # negative on |x| < 1
    # positive on every scanned shell, but no term reaches one end
    with pytest.raises(ValueError, match="toward infinity"):
        Weight(RadialFunction.power(2, 1, 1, 0, hi=100))
    with pytest.raises(ValueError, match="toward infinity"):
        Weight(RadialFunction.power(2, 1, 1, 0, lo=-100))
    Weight(RadialFunction.power(2, 1, 1, 2))  # fine


def test_weight_positivity_checked_between_the_certified_edges():
    # g^2 - 300 g + 22499 is positive on every scanned shell and toward both
    # ends, yet 0 on shell 149 and -1 on shell 150
    g = RadialFunction.log(2, 1)
    profile = g * g - g.scale(300) + RadialFunction.constant(2, 1, 22499)
    with pytest.raises(ValueError, match="fails at 149"):
        Weight(profile)


def test_ball_mass_closed_form_integer_alpha():
    # omega(B_g) = p^(g(alpha+n)) (1 - p^-n) / (1 - p^-(alpha+n)), exact
    w = power_weight(2, 1, 1)
    got = weight_ball_mass(w, 3)
    want = Fraction(2) ** 6 * (1 - Fraction(1, 2)) / (1 - Fraction(1, 4))
    assert got.value == want and got.exact


@settings(max_examples=30, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(1, 2),
    num=st.integers(-15, 30),
    g=st.integers(-3, 4),
)
def test_ball_mass_matches_brute_float(p, n, num, g):
    alpha = Fraction(num, 16)
    if alpha <= -n + Fraction(1, 8):
        alpha = -n + Fraction(1, 8)
    w = power_weight(p, n, alpha)
    got = float(weight_ball_mass(w, g).value)
    want = brute_ball_mass(p, n, alpha, g, depth=900)
    assert math.isclose(got, want, rel_tol=1e-12)


def test_ball_mass_divergent_flagged():
    w = power_weight(2, 1, -1)  # alpha = -n: not locally integrable
    assert not weight_ball_mass(w, 0).is_finite


# -- Lebesgue norms -----------------------------------------------------------


def test_lnorm_indicator_exact():
    f = RadialFunction.chi_ball(2, 1, 0)
    w = power_weight(2, 1, 0)
    res = lebesgue_norm(f, w, 2)
    assert res.value.value == 1  # integral over B_0 of 1 is |B_0| = 1


def test_lnorm_truncated_power_exact_value():
    # f = |x|^-1 on |x| >= 1 over Q_2 with q = 2, w = 1:
    # integral = (1/2) sum_{g>=0} 2^(-2g) 2^g = 1, norm = 1
    f = RadialFunction.power(2, 1, 1, -1, lo=0)
    w = power_weight(2, 1, 0)
    res = lebesgue_norm(f, w, 2)
    assert res.value.value == 1


def test_lnorm_matches_brute_on_region():
    f = RadialFunction(
        2, 1,
        (RadialTerm(Fraction(3, 2), -1, 1, -5, 9), RadialTerm(Fraction(-1, 3), 0, 0, 0, 6)),
    )
    w = power_weight(2, 1, Fraction(1, 2))
    got = float(lebesgue_norm(f, w, Fraction(7, 3), lo=-5, hi=9).value)
    want = brute_weighted_lq(
        2, 1, f.value_on_shell, w.profile.value_on_shell, 7 / 3, -5, 9
    )
    assert math.isclose(got, want, rel_tol=1e-11)


def test_lnorm_infinite_tail_matches_deep_brute():
    f = RadialFunction.power(3, 1, 2, Fraction(-3, 2), lo=-4)
    w = power_weight(3, 1, Fraction(1, 4))
    got = float(lebesgue_norm(f, w, 2).value)
    want = brute_weighted_lq(3, 1, f.value_on_shell, w.profile.value_on_shell, 2, -4, 400)
    assert math.isclose(got, want, rel_tol=1e-12)


def test_odd_log_power_on_negative_shells_is_taken_in_absolute_value():
    # |log_2|x|| on |x| <= 1/2: (1/2) sum_{m >= 1} m 2^(-m) = 1
    f = RadialFunction.power(2, 1, 1, 0, hi=-1, logpow=1)
    assert integral_abs_power(f, power_weight(2, 1, 0), 1).value == 1
    g = RadialFunction.power(3, 2, Fraction(1, 2), Fraction(1, 2), hi=-1, logpow=3)
    w = power_weight(3, 2, 1)
    got = integral_abs_power(g, w, 1)
    assert got.value > 0
    want = brute_weighted_lq(3, 2, g.value_on_shell, w.profile.value_on_shell, 1, -400, -1)
    assert math.isclose(float(got.value), want, rel_tol=1e-12)


def spike(coeff, betas, lo, hi):
    """coeff * sum of |x|^beta on shells lo..hi, p = 3, n = 1."""
    return sum((RadialFunction.power(3, 1, coeff, b, lo, hi) for b in betas), RadialFunction.zero(3, 1))


@pytest.mark.parametrize("f, q, shells", [
    # every shell value of |f|^q overflows a float, yet each term is about 1e296
    (spike(1, (-1, -2), -155, -150), Fraction(5, 2), range(-155, -149)),
    # a convergent tail whose |f|^q overflows even after the dominant power is factored out
    (spike(10 ** 160, (-2, -3), 10, None), 2, range(10, 400)),
    # every shell value of |f|^q underflows to 0.0, yet the integral is about 5e-287
    (spike(1, (-1, -2), 600, 605), 2, range(600, 606)),
])
def test_lnorm_overflowing_piece_is_summed_in_log_space(f, q, shells):
    got = lebesgue_norm(f, Weight.power(3, 1, 0), q).value
    total = decimal_lq_integral(3, 1, f.value_on_shell, q, shells)
    want = float(total ** (Decimal(Fraction(q).denominator) / Decimal(Fraction(q).numerator)))
    assert got.is_finite and not got.exact
    assert math.isclose(got.value, want, rel_tol=1e-12)


def test_lnorm_piece_beyond_float_range_is_named():
    f = spike(1, (-1, -2), -405, -400)  # the integral is about 10^579.5
    with pytest.raises(FloatRangeError, match="outside the float range") as exc:
        lebesgue_norm(f, Weight.power(3, 1, 0), 2)
    assert type(exc.value) is FloatRangeError


def test_lnorm_divergence_is_data():
    f = RadialFunction.power(2, 1, 1, 0)  # constant 1 everywhere
    w = power_weight(2, 1, 0)
    res = lebesgue_norm(f, w, 2)
    assert not res.value.is_finite


def test_lnorm_rejects_bad_exponent():
    f = RadialFunction.chi_ball(2, 1, 0)
    with pytest.raises(ValueError):
        lebesgue_norm(f, power_weight(2, 1, 0), Fraction(1, 2))


@settings(max_examples=25, deadline=None)
@given(
    c=st.integers(1, 9),
    beta=st.integers(-3, 3),
    g=st.integers(-3, 3),
    q=st.sampled_from([1, 2, 3, Fraction(5, 2)]),
)
def test_lnorm_homogeneity_under_dilation(c, beta, g, q):
    # ||f(t .)||_q = |t|^(-(alpha+n)/q) ||f||_q for power weights, here alpha=0
    f = RadialFunction.power(2, 1, Fraction(c, 2), beta, lo=0, hi=7)
    w = power_weight(2, 1, 0)
    base = float(lebesgue_norm(f, w, q).value)
    moved = float(lebesgue_norm(f.dilate(g), w, q).value)
    assert math.isclose(moved, 2.0 ** (-g / float(q)) * base, rel_tol=1e-12)


# -- averages and CMO ---------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), n=st.integers(1, 2), radius=st.integers(-3, 6))
def test_log_ball_average_closed_form(p, n, radius):
    # average of log_p|x| over B_R is exactly R - 1/(p^n - 1)
    b = RadialFunction.log(p, n)
    got = ball_average(b, radius)
    assert got == radius - Fraction(1, p ** n - 1)
    approx = brute_ball_average(p, n, b.value_on_shell, radius, depth=700)
    assert math.isclose(float(got), approx, rel_tol=1e-12, abs_tol=1e-13)


def test_ball_average_requires_integrability():
    f = RadialFunction.power(2, 1, 1, -2)
    with pytest.raises(ValueError):
        ball_average(f, 0)


def test_cmo_log_matches_brute_and_is_radius_free():
    p, n = 2, 1
    b = RadialFunction.log(p, n)
    w = power_weight(p, n, Fraction(1, 2))
    res = cmo_norm(b, w, Fraction(3, 2), window=24)
    assert res.value.is_finite
    for radius in (-2, 0, 3):
        want = brute_cmo_single_radius(
            p, n, b.value_on_shell, 0.5, 1.5, radius, depth=900
        )
        assert math.isclose(float(res.value), want, rel_tol=1e-9)


def test_cmo_constant_is_zero():
    c = RadialFunction.constant(3, 1, Fraction(7, 2))
    res = cmo_norm(c, power_weight(3, 1, 0), 2)
    assert float(res.value) == 0


@settings(max_examples=15, deadline=None)
@given(shift=st.fractions(min_value=-4, max_value=4, max_denominator=8))
def test_cmo_shift_invariance(shift):
    b = RadialFunction.log(2, 1)
    b2 = b + RadialFunction.constant(2, 1, shift)
    w = power_weight(2, 1, 0)
    a = float(cmo_norm(b, w, 2, window=16).value)
    c = float(cmo_norm(b2, w, 2, window=16).value)
    assert math.isclose(a, c, rel_tol=1e-12) or (a == c == 0)


def test_cmo_unbounded_symbol_goes_infinite():
    # b = |x|: oscillation over B_R grows without bound
    b = RadialFunction.power(2, 1, 1, 1)
    res = cmo_norm(b, power_weight(2, 1, 0), 2, window=16)
    assert not res.value.is_finite


# -- Morrey -------------------------------------------------------------------


def morrey_value_formula(p, n, alpha, q, lam):
    # shell-independent value for f = |x|^((alpha+n)lam), w = |x|^alpha
    e_ball = float(q) * float(alpha + n) * float(lam) + float(alpha) + n
    d = (1 - float(p) ** (-n)) / (1 - float(p) ** (-e_ball))
    c = (1 - float(p) ** (-n)) / (1 - float(p) ** (-(float(alpha) + n)))
    return d ** (1 / float(q)) * c ** (-(1 / float(q) + float(lam)))


@settings(max_examples=25, deadline=None)
@given(
    p=st.sampled_from([2, 3]),
    n=st.integers(1, 2),
    qn=st.integers(1, 4),
    an=st.integers(-10, 12),
    ln=st.integers(1, 7),
)
def test_morrey_extremal_power_matches_formula(p, n, qn, an, ln):
    q = Fraction(qn)
    alpha = Fraction(an, 8)
    if alpha <= -n:
        alpha = Fraction(1 - 8 * n, 8)
    lam = -Fraction(ln, 8 * qn)  # in (-1/q, 0)
    f = RadialFunction.power(p, n, 1, (alpha + n) * lam)
    w = power_weight(p, n, alpha)
    res = morrey_norm(f, w, q, lam)
    assert res.value.is_finite
    want = morrey_value_formula(p, n, alpha, q, lam)
    assert math.isclose(float(res.value), want, rel_tol=1e-12)


def test_morrey_off_balance_power_is_infinite():
    # beta != (alpha+n) lam: the shell profile has nonzero slope, sup infinite
    f = RadialFunction.power(2, 1, 1, Fraction(-1, 8))
    w = power_weight(2, 1, 0)
    res = morrey_norm(f, w, 2, Fraction(-1, 4))
    assert not res.value.is_finite


def test_morrey_below_critical_lambda_infinite():
    f = RadialFunction.power(2, 1, 1, Fraction(-1, 8))
    res = morrey_norm(f, power_weight(2, 1, 0), 2, Fraction(-3, 4))
    assert not res.value.is_finite


def test_morrey_windowed_sup_reports_witness():
    # truncated data: sup attained at a finite shell inside the window
    f = RadialFunction.power(2, 1, 1, Fraction(-1, 2), lo=0, hi=10)
    w = power_weight(2, 1, 0)
    res = morrey_norm(f, w, 2, Fraction(-1, 4), window=24)
    assert res.value.is_finite
    assert res.witness_shell is not None


def test_morrey_zero_function():
    res = morrey_norm(RadialFunction.zero(2, 1), power_weight(2, 1, 0), 2, Fraction(-1, 4))
    assert float(res.value) == 0


# -- Muckenhoupt constants ----------------------------------------------------


def test_a1_power_weight_constant_exact():
    # A_1 of |x|^alpha for -n < alpha <= 0 equals (1-p^-n)/(1-p^-(alpha+n))
    p, n, alpha = 2, 1, Fraction(-1, 2)
    got = ap_constant(power_weight(p, n, alpha), 1, window=20)
    want = (1 - 2.0 ** -1) / (1 - 2.0 ** -0.5)
    assert not got.truncated
    assert math.isclose(float(got), want, rel_tol=1e-12)


def test_a1_outside_range_flagged():
    got = ap_constant(power_weight(2, 1, Fraction(1, 2)), 1, window=20)
    assert got.truncated  # true constant is infinite


def test_a2_power_weight_constant_formula():
    p, n, alpha = 3, 1, Fraction(1, 2)  # inside (-n, n(ell-1)) for ell = 2
    cw = (1 - 3.0 ** -1) / (1 - 3.0 ** -1.5)
    cs = (1 - 3.0 ** -1) / (1 - 3.0 ** -0.5)
    got = ap_constant(power_weight(p, n, alpha), 2, window=20)
    assert not got.truncated
    assert math.isclose(float(got), cw * cs, rel_tol=1e-12)


def test_ap_window_stability_inside_and_growth_outside():
    inside = power_weight(2, 1, Fraction(1, 2))
    a20 = float(ap_constant(inside, 2, window=20))
    a40 = float(ap_constant(inside, 2, window=40))
    assert abs(a40 - a20) <= 0.01 * a20
    outside = power_weight(2, 1, Fraction(11, 10))  # beyond n(ell-1) = 1 by 0.1
    b20 = float(ap_constant(outside, 2, window=20))
    b40 = float(ap_constant(outside, 2, window=40))
    assert ap_constant(outside, 2, window=20).truncated
    assert b40 >= 10 * b20


def test_rh_power_weight_formula():
    p, n, alpha, r = 2, 1, Fraction(-1, 2), Fraction(3, 2)
    cw = (1 - 2.0 ** -1) / (1 - 2.0 ** -0.5)
    cr = (1 - 2.0 ** -1) / (1 - 2.0 ** -0.25)
    got = rh_constant(power_weight(p, n, alpha), r, window=20)
    assert not got.truncated
    assert math.isclose(float(got), cr ** (2 / 3) / cw, rel_tol=1e-12)


def test_step_weight_constants_have_closed_forms():
    # 1 on shells <= 0 and 2 above: w^e is taken term by term, so the sigma
    # and w^r masses are exact and the constants are window-stable
    w = Weight(RadialFunction.power(2, 1, 1, 0, hi=0) + RadialFunction.power(2, 1, 2, 0, lo=1))
    for window in (24, 48):
        got = ap_constant(w, Fraction(3, 2), window=window)
        assert (got.value, got.truncated) == (1.1858541225631423, False)
    got = ap_constant(w, 2, window=24)
    assert (got.value, got.truncated) == (1.125, False)
    assert not rh_constant(w, 2, window=24).truncated


def test_power_profile_is_exact_or_absent():
    # w^e term by term: each c^e is rational here, by integer roots
    w = Weight(RadialFunction.power(2, 1, 4, 0, hi=0) + RadialFunction.power(2, 1, 9, Fraction(1, 3), lo=1))
    assert weights._power_profile(w, Fraction(1, 2)) == (
        RadialFunction.power(2, 1, 2, 0, hi=0) + RadialFunction.power(2, 1, 3, Fraction(1, 6), lo=1))
    assert weights._power_profile(w, Fraction(-3, 2)) == (
        RadialFunction.power(2, 1, Fraction(1, 8), 0, hi=0)
        + RadialFunction.power(2, 1, Fraction(1, 27), Fraction(-1, 2), lo=1))
    # 2^(1/2) is irrational: no closed form, so the masses are window sums
    assert weights._power_profile(Weight.power(2, 1, 0, 2), Fraction(1, 2)) is None
    assert rh_constant(Weight.power(2, 1, 0, 2), Fraction(3, 2), window=8).truncated
    assert not rh_constant(Weight.power(2, 1, 0, 4), Fraction(3, 2), window=8).truncated
    # |1|^-1, sigma's coefficient at ell = 2, is the exact 1
    assert abs_pow(1, -1) == 1 and type(abs_pow(1, -1)) is Fraction
    big = 10 ** 40 + 7
    assert exact_root(Fraction(big ** 5, 32), 5) == Fraction(big, 2)
    assert exact_root(big ** 5 + 1, 5) is None and exact_root(Fraction(8, 27), 3) == Fraction(2, 3)


def test_rh_beyond_critical_truncated():
    got = rh_constant(power_weight(2, 1, Fraction(-1, 2)), 3, window=16)
    assert got.truncated  # r alpha + n = -1/2 < 0


def test_critical_index_exact():
    assert critical_index(power_weight(2, 1, Fraction(-1, 2))) == 2
    assert critical_index(power_weight(3, 2, Fraction(-1, 2))) == 4
    assert critical_index(power_weight(2, 1, Fraction(1, 3))) == math.inf
    assert critical_index(power_weight(2, 1, 0)) == math.inf


def test_norm_result_float_protocol():
    res = lebesgue_norm(RadialFunction.chi_ball(2, 1, 0), power_weight(2, 1, 0), 1)
    assert isinstance(res, NormResult)
    assert float(res) == 1.0


# -- references for the shared CMO quotient and the one-pass ball sweeps ---


def cmo_reference(b, w, r, window):
    """cmo_norm with every ball from scratch."""
    rescale = w.power_exponent() is not None

    def d_at(g):
        dev = b - RadialFunction.constant(b.p, b.n, ball_average(b, g))
        dev, gam = (dev.dilate(g), 0) if rescale else (dev, g)
        mass = weight_ball_mass(w, gam)
        osc = integral_abs_power(dev, w, r, None, gam)
        if not (mass.is_finite and osc.is_finite):
            return math.inf
        if osc.value == 0 or (not is_exact(osc.value) and float(osc.value) == 0.0):
            return 0.0
        return exp_sat((log_exact(osc.value) - log_exact(mass.value)) / float(r))

    return windowed_sup_reference(d_at, window)


def windowed_sup_reference(quotient_at, window):
    """(sup, witness) of quotient_at over the window balls, infinite when a
    growth probe beyond the window exceeds it."""
    best, witness = -math.inf, None
    for g in range(-window, window + 1):
        v = quotient_at(g)
        if v > best:
            best, witness = v, g
    probes = [quotient_at(s * (window + off)) for off in _GROWTH_PROBES for s in (1, -1)]
    if math.isinf(best) or any(v > best * (1 + 1e-9) + 1e-300 for v in probes):
        return math.inf, witness
    return best, witness


def count_calls(monkeypatch, name, owner=weights):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kw):
        calls.append(args)
        return original(*args, **kw)

    monkeypatch.setattr(owner, name, counted)
    return calls


LOG = RadialFunction.power(2, 1, 1, 0, logpow=1)


@pytest.mark.parametrize(
    "b, w, window, integrations",
    [
        # a log symbol's dilated deviation is the same function on every
        # ball, so the 33 window balls and 8 probes share one quotient
        (LOG, power_weight(2, 1, Fraction(1, 2)), 16, 1),
        # cut off above shell 3: the deviation is cut to the unit ball, so
        # the 14 balls at or below shell 3 share one quotient and the 7
        # above it (3 window balls, 4 probes) differ
        (LOG.restrict(None, 3), power_weight(2, 1, Fraction(1, 2)), 6, 8),
        # not a power weight: every ball keeps gam = g, so none shares a quotient
        (LOG, Weight(RadialFunction.constant(2, 1, 1) + RadialFunction.power(2, 1, 1, Fraction(1, 2))), 6, 21),
    ],
    ids=["log", "cut-log", "non-power-weight"],
)
def test_cmo_memo_matches_reference(monkeypatch, b, w, window, integrations):
    want, want_witness = cmo_reference(b, w, 2, window)
    calls = count_calls(monkeypatch, "integral_abs_power")
    res = cmo_norm(b, w, 2, window=window)
    assert len(calls) == integrations
    assert float(res.value) == want
    assert res.witness_shell == want_witness


def a1_reference(w, window):
    """A_1 with the essential infimum rebuilt over floor..g for every ball."""
    p, n = w.p, w.n
    dom = _dominant_term(w.profile, -1)
    best = -math.inf
    for g in range(-window, window + 1):
        mass = weight_ball_mass(w, g)
        assert mass.is_finite
        lowvals = [float_sat(w.profile.value_on_shell(k)) for k in range(-window, g + 1)]
        if dom is not None and dom[0] == 0 and dom[1] == 0:
            lowvals.append(float(dom[2]))
        best = max(best, float_sat(mass.value) / fpow(float(p), n * g) / min(lowvals))
    return best, dom is not None and dom[0] > 0


@pytest.mark.parametrize(
    "extra",
    [
        RadialFunction.power(2, 1, 1, Fraction(-1, 2)),  # minimum at shell 0, not the floor
        RadialFunction.constant(2, 1, 2),  # flat deep end: infimum is the limit 2
        RadialFunction.power(2, 1, 1, 1),  # vanishes deep: truncated
    ],
    ids=["interior-min", "flat-deep", "vanishes-deep"],
)
def test_a1_running_min_matches_quadratic_reference(extra):
    w = Weight(RadialFunction.power(2, 1, 1, Fraction(1, 2)) + extra)
    want, want_truncated = a1_reference(w, 20)
    got = ap_constant(w, 1, window=20)
    assert float(got) == want
    assert got.truncated == want_truncated


# b's constant part and a log term both feed the constant of the dilated
# deviation, here with the decimal constant 0.1, read exactly
CONST_LOG = RadialFunction.constant(2, 1, Fraction("0.1")) + LOG


@pytest.mark.parametrize(
    "b, w",
    [
        (CONST_LOG, power_weight(2, 1, Fraction(1, 2))),
        (CONST_LOG.restrict(None, 3), power_weight(2, 1, Fraction(1, 2))),
        (CONST_LOG, Weight(RadialFunction.constant(2, 1, 1) + RadialFunction.power(2, 1, 1, Fraction(1, 2)))),
    ],
    ids=["float-const-log", "cut-float-const-log", "float-const-log-non-power-weight"],
)
def test_cmo_constant_part_matches_reference(b, w):
    want, want_witness = cmo_reference(b, w, 2, 6)
    res = cmo_norm(b, w, 2, window=6)
    assert float(res.value) == want
    assert res.witness_shell == want_witness


@pytest.mark.parametrize(
    "w",
    [power_weight(2, 1, Fraction(1, 2)),
     Weight(RadialFunction.constant(2, 1, 1) + RadialFunction.power(2, 1, 1, Fraction(1, 2)))],
    ids=["power", "non-power"],
)
@pytest.mark.parametrize(
    "b",
    [
        RadialFunction(2, 1, (RadialTerm(Fraction(1, 3), 0, 0, -2, 4), RadialTerm(2, Fraction(0), 2, None, 1),
                              RadialTerm(Fraction(1, 2), Fraction(-1, 2), 1, 0, None))),
        # no constant part, but a log term whose exponent is the decimal 0.0, read exactly
        RadialFunction(2, 1, (RadialTerm(2, Fraction("0.0"), 1, None, 1),
                              RadialTerm(Fraction("0.5"), Fraction(-1, 2), 1, 0, None))),
        # one exponent written as "0.5" and as 1/2: the dilation merges the two
        RadialFunction(2, 1, (RadialTerm(1, Fraction("0.5"), 0, 3, None), RadialTerm(1, Fraction(1, 2), 1, None, None))),
    ],
    ids=["mixed", "float-zero-log", "two-spellings"],
)
def test_cmo_deviation_cut_to_the_ball_matches_reference(b, w):
    # cmo_norm cuts each deviation to the ball it integrates; the reference
    # integrates the whole-line deviation up to the ball
    want, want_witness = cmo_reference(b, w, 2, 6)
    res = cmo_norm(b, w, 2, window=6)
    assert float(res.value) == want
    assert res.witness_shell == want_witness


ZERO = st.sampled_from([0, Fraction(0)])  # both spellings of the exact exponent 0


@st.composite
def affine_log_symbols(draw):
    """(b, window): c log_p|x| + d with exact c, d below a shell e with e - 1
    and e in the window, and an extra exact term that starts at e or takes
    over from e; or c log_p|x| + d alone, with no breakpoint."""
    p, n = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 2))
    window = draw(st.integers(4, 12))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    c, d = draw(small), draw(small)
    mode = draw(st.sampled_from(["none", "start", "stop"]))
    e = None if mode == "none" else draw(st.integers(1 - window, window))
    hi = e - 1 if mode == "stop" else None
    terms = [RadialTerm(c, draw(ZERO), 1, None, hi), RadialTerm(d, draw(ZERO), 0, None, hi)]
    if e is not None:
        beta = draw(st.sampled_from([-1, Fraction(-1, 2), 0, Fraction(1, 3)]))
        top = draw(st.one_of(st.none(), st.integers(e, e + 6)))
        terms.append(RadialTerm(draw(small.filter(bool)), beta, draw(st.integers(0, 2)), e, top))
    b = RadialFunction(p, n, tuple(terms))
    assume(not b.is_zero() and min(b.breakpoints(), default=None) == e)
    return b, window


@settings(max_examples=40, deadline=None)
@given(
    case=affine_log_symbols(),
    alpha=st.fractions(min_value=Fraction(-1, 2), max_value=3, max_denominator=4),
    r=st.sampled_from([1, Fraction(3, 2), 2, 3]),
)
def test_cmo_shared_quotient_matches_reference(case, alpha, r):
    b, window = case
    w = power_weight(b.p, b.n, alpha)
    want, want_witness = cmo_reference(b, w, r, window)
    res = cmo_norm(b, w, r, window=window)
    assert float(res.value) == want
    assert res.witness_shell == want_witness


@pytest.mark.parametrize(
    "b, w",
    [
        (RadialFunction.power(2, 1, 1, 0, logpow=2), power_weight(2, 1, Fraction(1, 2))),
    ],
    ids=["log-squared"],
)
def test_cmo_integrates_every_ball_outside_the_identity(monkeypatch, b, w):
    # the non-power weight is test_cmo_memo_matches_reference[non-power-weight]
    want, want_witness = cmo_reference(b, w, 2, 6)
    calls = count_calls(monkeypatch, "integral_abs_power")
    res = cmo_norm(b, w, 2, window=6)
    assert len(calls) == 13 + 2 * len(_GROWTH_PROBES)
    assert float(res.value) == want
    assert res.witness_shell == want_witness


@pytest.mark.parametrize(
    "b, window, dilations, sweeps",
    # cut-log: one deviation for the balls below shell 4, then one for each
    # of the 7 balls at or above it (3 window balls, 4 probes)
    [(LOG, 16, 1, 0), (LOG.restrict(None, 3), 6, 1 + 7, 1)],
    ids=["log", "cut-log"],
)
def test_cmo_builds_one_deviation_below_the_first_breakpoint(monkeypatch, b, window, dilations, sweeps):
    dilates = count_calls(monkeypatch, "dilate", owner=RadialFunction)
    totals = count_calls(monkeypatch, "_ball_totals")
    cmo_norm(b, power_weight(2, 1, Fraction(1, 2)), 2, window=window)
    assert len(dilates) == dilations
    assert len(totals) == sweeps


def test_cmo_tail_reads_shell_floats_without_fractions(monkeypatch):
    # the numeric tail of a log symbol under |x|^(-1/2) reads every shell
    # with float_on_shell: no Fraction is built per shell
    in_tail, shells, fractions = [False], [], []
    tail, value = weights._numeric_tail, RadialFunction.value_on_shell

    def counted_tail(h, edge, step):
        def counted_h(g):
            shells.append(g)
            return h(g)
        in_tail[0] = True
        try:
            return tail(counted_h, edge, step)
        finally:
            in_tail[0] = False

    def counted_value(self, g):
        if in_tail[0]:
            fractions.append(g)
        return value(self, g)

    monkeypatch.setattr(weights, "_numeric_tail", counted_tail)
    monkeypatch.setattr(RadialFunction, "value_on_shell", counted_value)
    res = cmo_norm(RadialFunction.log(3, 2, Fraction(1, 2)), Weight.power(3, 2, Fraction(-1, 2)), 8)
    assert res.value.is_finite
    assert len(shells) > 8 and fractions == []


def rescaled_reference(fsub, wsub, q, n, end):
    """h(g) of weights._rescaled_eval as first written: both factors shifted
    by a product, and each shell value read as float(value_on_shell(g))."""
    df, dw = _dominant_term(fsub, end), _dominant_term(wsub, end)
    bf = df[0] if df else 0
    bw = dw[0] if dw else 0
    f_shift = fsub * RadialFunction.power(fsub.p, n, 1, -bf)
    w_shift = wsub * RadialFunction.power(fsub.p, n, 1, -bw)
    e_tot = float(q) * float(bf) + float(bw) + n
    unit = 1.0 - float(fsub.p) ** (-n)

    def h(g):
        base = abs(float(f_shift.value_on_shell(g))) ** float(q)
        return base * float(w_shift.value_on_shell(g)) * fpow(float(fsub.p), e_tot * g) * unit

    return h


@pytest.mark.parametrize(
    "fsub, wsub, q",
    [
        # dominant exponents exact 0 on both: neither is shifted
        (RadialFunction.log(3, 2, Fraction(1, 2)) + RadialFunction.constant(3, 2, Fraction(-2, 3)),
         RadialFunction.constant(3, 2, 1), Fraction(3, 2)),
        # Fraction(0) and int exponents in one function
        (RadialFunction(2, 1, (RadialTerm(Fraction(1, 3), Fraction(0), 1), RadialTerm(2, -3, 0, 2, 9))),
         RadialFunction.power(2, 1, 1, Fraction(-1, 2)), 2),
        # the decimal exponent 0.0, read exactly, beside a fractional one
        (RadialFunction(2, 1, (RadialTerm(Fraction("1.5"), Fraction("0.0"), 1),
                               RadialTerm(Fraction(1, 2), Fraction(-1, 3), 0))),
         RadialFunction.power(2, 1, 1, Fraction(1, 4)), Fraction(5, 2)),
        # fractional dominant exponents, a decimal coefficient, huge shells
        (RadialFunction(5, 1, (RadialTerm(Fraction("0.75"), Fraction(7, 4), 2), RadialTerm(3, 1, 0, None, 4))),
         RadialFunction(5, 1, (RadialTerm(1, Fraction(-1, 2), 0, None, 0), RadialTerm(2, Fraction(1, 2), 0, 1, None))),
         3),
    ],
    ids=["zero-exponents", "fraction-zero", "float-zero", "fractional"],
)
def test_rescaled_eval_matches_reference(fsub, wsub, q):
    def outcome(h, g):
        try:
            return struct.pack("<d", h(g))  # bits: nan and -0.0 included
        except OverflowError as exc:
            return type(exc)

    for end in (-1, +1):
        got, want = weights._rescaled_eval(fsub, wsub, q, fsub.n, end), rescaled_reference(fsub, wsub, q, fsub.n, end)
        assert [outcome(got, g) for g in range(-400, 401, 7)] == [outcome(want, g) for g in range(-400, 401, 7)]


SWEPT = [
    RadialFunction.power(2, 1, 3, 1),  # exact single power: running product
    RadialFunction.power(3, 2, Fraction(2, 3), Fraction(-5, 4)),  # fractional exponent
    LOG + RadialFunction.power(2, 1, 1, -1, lo=-3),  # integral exponents: running sum
    RadialFunction.power(2, 1, 1, Fraction(1, 2)) + RadialFunction.power(2, 1, 1, 0, hi=2),  # per ball
    RadialFunction.power(2, 1, Fraction("1.5"), Fraction("0.25")),  # decimal data read exactly
    RadialFunction.power(2, 1, Fraction("0.1"), 1) + LOG,  # decimal coefficient: running sum
    RadialFunction.power(2, 1, 1, -2),  # not locally integrable
    RadialFunction.log(3, 2) + RadialFunction.power(3, 2, Fraction(1, 2), 1, hi=4),  # running sum, n = 2
    # a negative divergent deep tail, and a term entering inside the window:
    # every ball reads -inf, as its own closed form does
    RadialFunction.power(2, 1, Fraction(-1, 3), Fraction(-3, 2), hi=5) + RadialFunction.power(2, 1, 4, 1, lo=-2),
    # single powers: the geometric sum steps by r
    RadialFunction.power(2, 1, 1, Fraction(1, 2)),  # _power_profile's w^(1/2) of |x|
    RadialFunction.power(2, 1, 1, Fraction(-1, 2)),
    RadialFunction.power(3, 2, Fraction("-0.7"), 1),
    RadialFunction.power(5, 1, Fraction("2.5"), Fraction(-2, 3)),
    RadialFunction(2, 1, ()),  # no term at all
]


@pytest.mark.parametrize("f", SWEPT)
def test_ball_totals_equal_each_closed_form(f):
    totals = weights._ball_totals(f, -12, 12)
    for g, total in zip(range(-12, 13), totals):
        want = integrate_radial(f.restrict(None, g))
        assert ((total.value, type(total.value), total.is_finite, total.divergent)
                == (want.value, type(want.value), want.is_finite, want.divergent))


@pytest.mark.parametrize(
    "f, lo, hi, edge",
    [
        (RadialFunction.power(5, 3, Fraction("1.5"), 40), -12, 3, "0.0"),  # deep balls underflow
        (RadialFunction.power(2, 1, Fraction("0.5"), 90), -12, 12, OverflowError),  # top balls overflow
        (RadialFunction.power(3, 1, 1, Fraction(1301, 2)), -2, 3, OverflowError),
    ],
)
def test_float_power_ball_totals_at_the_float_limits(f, lo, hi, edge):
    # the ball totals are exact however far they lie off the float range;
    # read as floats they underflow to 0.0 or overflow, as each closed form does
    def outcome(totals):
        try:
            return [repr(float(t.value)) for t in totals]
        except OverflowError as exc:
            return type(exc)

    totals = weights._ball_totals(f, lo, hi)
    closed = [integrate_radial(f.restrict(None, g)) for g in range(lo, hi + 1)]
    assert [(t.value, type(t.value)) for t in totals] == [(t.value, type(t.value)) for t in closed]
    got = outcome(totals)
    assert got is edge or edge in got


@pytest.mark.parametrize("q", [2, Fraction(5, 2), Fraction(3, 2)], ids=["2", "q1", "1.5"])
@pytest.mark.parametrize("f", SWEPT[2:4] + [RadialFunction.power(2, 1, 1, Fraction(-1, 2), lo=-3, hi=5) + LOG])
def test_ball_integrals_equal_each_direct_integral(f, q):
    w = Weight(RadialFunction.constant(2, 1, 1) + RadialFunction.power(2, 1, 1, Fraction(1, 2), lo=1))
    got = weights._ball_integrals(f, w, q, -10, 10)
    for g, part in zip(range(-10, 11), got):
        want = integral_abs_power(f, w, q, None, g)
        assert (part.value, type(part.value), part.divergent) == (want.value, type(want.value), want.divergent)


def morrey_reference(f, w, q, lam, window):
    """morrey_norm's window sup with every ball integrated from -inf."""
    expo = float(Fraction(1) / Fraction(q) + Fraction(lam))

    def q_at(g):
        mass = weight_ball_mass(w, g)
        if not mass.is_finite:
            return math.inf
        part = integral_abs_power(f, w, q, None, g)
        if not part.is_finite:
            return math.inf
        if part.value == 0 or (not is_exact(part.value) and float(part.value) == 0.0):
            return 0.0
        return exp_sat(-expo * log_exact(mass.value) + log_exact(part.value) / float(q))

    return windowed_sup_reference(q_at, window)


MULTI = RadialFunction.power(2, 1, 1, Fraction(-1, 2), lo=-3, hi=10) + RadialFunction.power(2, 1, 3, 0, hi=2)


@pytest.mark.parametrize(
    "f, w, q, finite",
    [
        (MULTI, power_weight(2, 1, 1), 2, True),
        (MULTI, power_weight(2, 1, Fraction(1, 2)), 3, True),
        # overlapping terms under a non-integer q: numeric pieces, float sums
        (MULTI + RadialFunction.power(2, 1, 1, Fraction(-1, 4), lo=-6, hi=4), power_weight(2, 1, 0), Fraction(5, 2), True),
        (MULTI, Weight(RadialFunction.constant(2, 1, 1) + RadialFunction.power(2, 1, 1, Fraction(1, 2), lo=0)), 2, True),
        # |x|^-2 near 0 is not in L^2 of any ball
        (MULTI + RadialFunction.power(2, 1, 1, -2, hi=3), power_weight(2, 1, 0), 2, False),
    ],
    ids=["integer-alpha", "fractional-alpha", "non-integer-q", "non-power-weight", "deep-divergent"],
)
def test_morrey_sweep_matches_per_ball_reference(monkeypatch, f, w, q, finite):
    lam = Fraction(-1, 4) / q
    want, want_witness = morrey_reference(f, w, q, lam, 12)
    assert math.isfinite(want) == finite
    calls = count_calls(monkeypatch, "integral_abs_power")
    res = morrey_norm(f, w, q, lam, window=12)
    # the window balls come from the sweep; only the growth probes integrate
    assert len(calls) <= 2 * len(_GROWTH_PROBES)
    assert float(res.value) == want
    assert res.witness_shell == want_witness


@pytest.mark.parametrize("s", [47, 49, 60, 100, 200, -60])
def test_morrey_unit_plateau_has_its_sup_on_its_shell(s):
    # 1 on shell s alone, with p = 2, n = 1, w = 1, q = 2 and lam = -1/4:
    # the sup is omega(B_s)^(-1/4) |S_s|^(1/2) = 2^(s/4) / sqrt(2), on ball s,
    # also for a shell beyond the default window of 48
    f = RadialFunction.power(2, 1, 1, 0, lo=s, hi=s)
    res = morrey_norm(f, power_weight(2, 1, 0), 2, Fraction(-1, 4))
    assert res.value.is_finite
    assert math.isclose(float(res.value), math.exp((s / 4 - 0.5) * math.log(2)), rel_tol=1e-12)
    assert res.witness_shell == s


@st.composite
def compact_functions(draw):
    """Sums of up to three power-log terms, each on shells inside -12..12."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(st.integers(-12, 12))
        hi = min(12, lo + draw(st.integers(0, 6)))
        coeff = draw(st.one_of(
            st.fractions(-4, 4, max_denominator=6).filter(bool),
            st.builds(Fraction, st.floats(0.1, 4.0) | st.floats(-4.0, -0.1))))
        beta = draw(st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=4)))
        terms.append(RadialTerm(coeff, beta, draw(st.integers(0, 1)), lo, hi))
    return RadialFunction(2, 1, tuple(terms))


HULL_WEIGHTS = [
    power_weight(2, 1, Fraction(1, 2)),
    # a broken power weight: |x|^(-1/2) up to shell 1, 2|x|^(1/2) above
    Weight(RadialFunction.power(2, 1, 1, Fraction(-1, 2), hi=1) + RadialFunction.power(2, 1, 2, Fraction(1, 2), lo=2)),
    # not a power on any ray of shells
    Weight(RadialFunction.constant(2, 1, 1) + RadialFunction.power(2, 1, 1, Fraction(1, 2))),
]


@settings(max_examples=60, deadline=None)
@given(
    f=compact_functions(),
    w=st.sampled_from(HULL_WEIGHTS),
    q=st.sampled_from([1, 2, Fraction(5, 2), Fraction(3, 2)]),
    share=st.sampled_from([0, Fraction(1, 4), Fraction(1, 2), 1]),
)
def test_morrey_hull_matches_windowed_reference(f, w, q, share):
    # lam = -share/q, so 1/q + lam = (1 - share)/q >= 0, zero for share = 1
    lam = -Fraction(share) / q
    s, t = f.support_bounds()
    want, want_witness = morrey_reference(f, w, q, lam, 12)
    with pytest.MonkeyPatch.context() as mp:
        balls = count_calls(mp, "_sum_pieces")
        integrals = count_calls(mp, "integral_abs_power")
        masses = count_calls(mp, "weight_ball_mass")
        res = morrey_norm(f, w, q, lam)
    # one sum of pieces per ball of the hull, and no probe beyond it
    assert len(balls) <= t - s + 1
    assert integrals == masses == []
    assert float(res.value) == want
    if want > 0:  # a zero sup is attained on every ball
        assert res.witness_shell == want_witness


def windowed_mass_reference(closed, density, p, n, g, window):
    """Mass over B_g: the closed form when finite, else density summed over
    the shells -window..g from scratch (flagged truncated)."""
    total = closed(g) if closed is not None else None
    if total is not None and total.is_finite:
        return float_sat(total.value), False
    unit = 1 - float(p) ** (-n)
    return math.fsum(density(k) * fpow(float(p), n * k) * unit for k in range(-window, g + 1)), True


def power_closed_form(w, e):
    """Ball masses of w^e when w is the power weight |x|^alpha, else None."""
    if w.power_exponent() is None:
        return None
    assert w.profile.terms[0].coeff == 1
    return lambda g: integrate_radial(RadialFunction.power(w.p, w.n, 1, w.power_exponent() * e, hi=g))


def ap_reference(w, ell, window):
    """A_ell (ell > 1) with every ball mass and truncated sum from scratch."""
    p, n = w.p, w.n
    sigma = power_closed_form(w, -1 / (Fraction(ell) - 1))
    best, truncated = -math.inf, False
    for g in range(-window, window + 1):
        mass, t1 = windowed_mass_reference(lambda k: weight_ball_mass(w, k), lambda k: float_sat(w.profile.value_on_shell(k)), p, n, g, window)
        smass, t2 = windowed_mass_reference(sigma, lambda k: fpow(float_sat(w.profile.value_on_shell(k)), -1 / (float(ell) - 1)), p, n, g, window)
        truncated |= t1 or t2
        vol = fpow(float(p), n * g)
        best = max(best, (mass / vol) * fpow(smass / vol, float(ell) - 1))
    return best, truncated


def rh_reference(w, r, window):
    """Reverse-Holder constant with every ball mass and truncated sum from scratch."""
    p, n = w.p, w.n
    wr = power_closed_form(w, Fraction(r))
    best, truncated = -math.inf, False
    for g in range(-window, window + 1):
        mass, t1 = windowed_mass_reference(lambda k: weight_ball_mass(w, k), lambda k: float_sat(w.profile.value_on_shell(k)), p, n, g, window)
        rmass, t2 = windowed_mass_reference(wr, lambda k: fpow(float_sat(w.profile.value_on_shell(k)), float(r)), p, n, g, window)
        truncated |= t1 or t2
        vol = fpow(float(p), n * g)
        best = max(best, fpow(rmass / vol, 1 / float(r)) / (mass / vol))
    return best, truncated


NON_POWER = Weight(RadialFunction.power(2, 1, 1, Fraction(1, 2)) + RadialFunction.power(2, 1, 1, Fraction(-1, 2), hi=0))


@pytest.mark.parametrize(
    "w, ell, truncated",
    [
        (power_weight(3, 1, Fraction(1, 2)), 2, False),
        (power_weight(2, 1, Fraction(11, 10)), 2, True),  # sigma's tail diverges
        (NON_POWER, 2, True),  # sigma has no closed form
        (power_weight(2, 2, -1), Fraction(3, 2), False),
    ],
    ids=["inside", "truncated-tail", "non-power", "integer-alpha"],
)
def test_ap_sweep_matches_quadratic_reference(w, ell, truncated):
    want, want_truncated = ap_reference(w, ell, 20)
    assert want_truncated == truncated
    got = ap_constant(w, ell, window=20)
    assert float(got) == want
    assert got.truncated == want_truncated


@pytest.mark.parametrize(
    "w, r, truncated",
    [
        (power_weight(2, 1, Fraction(-1, 2)), Fraction(3, 2), False),
        (power_weight(2, 1, Fraction(-1, 2)), 3, True),  # w^r is not locally integrable
        (NON_POWER, 2, True),  # w^r has no closed form
    ],
    ids=["inside", "truncated-tail", "non-power"],
)
def test_rh_sweep_matches_quadratic_reference(w, r, truncated):
    want, want_truncated = rh_reference(w, r, 16)
    assert want_truncated == truncated
    got = rh_constant(w, r, window=16)
    assert float(got) == want
    assert got.truncated == want_truncated


def scan_accepts(profile):
    """Positivity on every shell of a wide window, on its own."""
    return all(profile.value_on_shell(g) > 0 for g in range(-300, 301))


@pytest.mark.parametrize(
    "profile, fast",
    [
        (RadialFunction.power(2, 1, 1, Fraction(1, 2)), True),
        (RadialFunction.power(3, 2, Fraction(1, 3), Fraction(-7, 3)), True),
        (RadialFunction.power(2, 1, Fraction(1, 10 ** 30), 50), True),
        (RadialFunction.power(2, 1, 1, -50), True),
        # decimal data, read exactly: an exact positive power on every shell
        (RadialFunction.power(2, 1, 1, Fraction("200.0")), True),
        (RadialFunction.power(2, 1, Fraction("1e-300"), 1), True),
        (RadialFunction.power(2, 1, Fraction("0.5"), Fraction(1, 2)), True),
        (RadialFunction.power(2, 1, -1, 0), False),
        (RadialFunction.power(2, 1, 1, 0) + RadialFunction.power(2, 1, 1, 1, lo=3), False),
    ],
    ids=["sqrt", "fractional", "tiny-coeff", "integer", "float-exponent", "float-coeff-underflow",
         "float-coeff", "negative", "two-terms"],
)
def test_weight_fast_path_agrees_with_scan(monkeypatch, profile, fast):
    # an exact positive single power skips the certified sign scan
    want = scan_accepts(profile)
    scans = count_calls(monkeypatch, "_end_signs", radial)
    try:
        Weight(profile)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == want
    assert (len(scans) == 0) == fast


# ---------------------------------------------------------------- divergent integrals and masses


@pytest.mark.parametrize("betas, lo, hi", [((-3, -4), None, 0), ((3, 4), 0, None)])
def test_a_two_term_integrand_diverging_at_either_end_is_infinite(betas, lo, hi):
    # |x|^-3 + |x|^-4 is not integrable near 0 on Q_2, nor |x|^3 + |x|^4 near
    # infinity; with two terms the piece takes the tail test, not the
    # single-power closed form
    f = RadialFunction(2, 1, tuple(RadialTerm(Fraction(1), b, 0) for b in betas))
    got = integral_abs_power(f, power_weight(2, 1, 0), 1, lo, hi)
    assert not got.is_finite and float(got.value) == math.inf


def test_morrey_of_a_power_not_integrable_on_balls_is_infinite():
    # q beta + alpha + n = -4 + 1 <= 0: every ball integral of |x|^-2 diverges
    f = RadialFunction.power(2, 1, 1, -2)
    got = morrey_norm(f, power_weight(2, 1, 0), 2, Fraction(-1, 4))
    assert not got.value.is_finite


def test_morrey_under_a_weight_not_locally_integrable_is_infinite():
    # |x|^-2 has infinite mass on every ball, so every quotient is infinite
    f = RadialFunction.power(2, 1, 1, 0, lo=0, hi=1)
    got = morrey_norm(f, power_weight(2, 1, -2), 2, Fraction(-1, 4))
    assert not got.value.is_finite


def test_cmo_under_a_weight_not_locally_integrable_is_infinite():
    got = cmo_norm(RadialFunction.log(2, 1), power_weight(2, 1, -2), 2, window=8)
    assert not got.value.is_finite


def test_cmo_of_a_symbol_not_in_l_r_near_the_origin_is_infinite():
    # |x|^(-3/4) has finite ball averages, but |x|^(-3/2) is not integrable
    b = RadialFunction.power(2, 1, 1, Fraction(-3, 4))
    assert math.isfinite(float(ball_average(b, 0)))
    got = cmo_norm(b, power_weight(2, 1, 0), 2, window=8)
    assert not got.value.is_finite
