"""Centered maximal operator and its ball-only variant, exact tails vs brute sups."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialpadic.operators import maximal, maximal_mod
from radialpadic.radial import RadialFunction, RadialTerm

from oracles import brute_maximal


def cached(f, lo, hi):
    vals = {g: f.value_on_shell(g) for g in range(lo, hi + 1)}
    zero = Fraction(0)
    return lambda g: vals.get(g, zero)


# -- closed-form examples --------------------------------------------------------


def test_ball_indicator_closed_form():
    f = RadialFunction.chi_ball(2, 1, 0)
    m = maximal(f)
    mm = maximal_mod(f)
    for v in range(-20, 21):
        want = Fraction(1) if v <= 0 else Fraction(2) ** (-v)
        assert m.value_on_shell(v) == want
        assert mm.value_on_shell(v) == want
    # spec point: |x| = 4 -> sup over gamma >= 2 of 2^{-gamma} = 1/4
    assert mm.value_on_shell(2) == Fraction(1, 4)


def test_constant_function():
    f = RadialFunction.constant(3, 2, Fraction(5, 7))
    m = maximal(f)
    mm = maximal_mod(f)
    assert len(m.terms) == 1 and m.terms[0].lo is None and m.terms[0].hi is None
    for v in (-50, -3, 0, 3, 50):
        assert m.value_on_shell(v) == Fraction(5, 7)
        assert mm.value_on_shell(v) == Fraction(5, 7)


def test_maximal_of_negated_function_is_same():
    f = RadialFunction.power(2, 1, Fraction(3), -1, lo=0) + RadialFunction.chi_ball(2, 1, -1)
    g = f.scale(-1)
    mf, mg = maximal(f), maximal(g)
    for v in range(-10, 11):
        assert mf.value_on_shell(v) == mg.value_on_shell(v)


# -- brute-force cross-checks ------------------------------------------------------

BRUTE_LO = -200
PROFILES = [
    # bounded bump plus decaying top plus integrable deep tail
    RadialFunction(
        2, 1,
        (
            RadialTerm(Fraction(3), 0, 0, -2, 1),
            RadialTerm(Fraction(1), -2, 0, 2, None),
            RadialTerm(Fraction(1, 2), 1, 0, None, -3),
        ),
    ),
    # log^2 top at the critical ratio, sign-changing bump
    RadialFunction(
        2, 1,
        (
            RadialTerm(Fraction(1), -1, 2, 1, None),
            RadialTerm(Fraction(-2), 0, 0, -5, 0),
        ),
    ),
    # bounded top with a spike: averages approach the plateau from below
    RadialFunction(
        3, 1,
        (
            RadialTerm(Fraction(1, 4), 0, 0, 0, None),
            RadialTerm(Fraction(9), 0, 0, -1, -1),
            RadialTerm(Fraction(2), 2, 0, None, -6),
        ),
    ),
    # n = 2, log top, log deep tail with growing deep averages
    RadialFunction(
        3, 2,
        (
            RadialTerm(Fraction(1), -1, 1, None, -1),
            RadialTerm(Fraction(1), 0, 0, 0, 3),
            RadialTerm(Fraction(5), -1, 0, 4, None),
        ),
    ),
]


@pytest.mark.parametrize("f", PROFILES)
@pytest.mark.parametrize("modified", [False, True])
def test_matches_brute_sup(f, modified):
    out = maximal_mod(f) if modified else maximal(f)
    fv = cached(f, BRUTE_LO - 1, 200)
    for v in (-35, -9, -2, 0, 3, 8, 30):
        got = float(out.value_on_shell(v))
        want = brute_maximal(f.p, f.n, fv, v, BRUTE_LO, v + 120, modified)
        assert math.isclose(got, want, rel_tol=1e-9), (v, got, want)


def test_window_choice_does_not_change_values():
    f = PROFILES[3]
    a = maximal(f, window=48)
    b = maximal(f, window=80)
    for v in list(range(-90, -60, 7)) + list(range(-12, 13, 3)) + list(range(55, 91, 7)):
        assert a.value_on_shell(v) == b.value_on_shell(v)
    am = maximal_mod(f, window=48)
    bm = maximal_mod(f, window=80)
    for v in (-88, -70, -5, 0, 60, 90):
        assert am.value_on_shell(v) == bm.value_on_shell(v)


# -- order properties ---------------------------------------------------------------


@st.composite
def tame_profiles(draw):
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 2))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coeff = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 3)))
        beta = draw(st.integers(-2, 2))
        k = draw(st.integers(0, 1))
        lo = draw(st.integers(-6, 0))
        hi = draw(st.integers(0, 6))
        terms.append(RadialTerm(coeff, beta, k, lo, hi))
    if draw(st.booleans()):  # decaying top tail
        terms.append(RadialTerm(Fraction(draw(st.integers(1, 3))), draw(st.integers(-3, -1)), 0, 7, None))
    if draw(st.booleans()):  # integrable deep tail
        terms.append(RadialTerm(Fraction(draw(st.integers(1, 3))), draw(st.integers(1 - n, 2)), 0, None, -7))
    return RadialFunction(p, n, tuple(terms))


@settings(max_examples=40, deadline=None)
@given(f=tame_profiles())
def test_modified_below_plain_and_plain_dominates_f(f):
    m = maximal(f)
    mm = maximal_mod(f)
    for v in range(-10, 11):
        assert mm.value_on_shell(v) <= m.value_on_shell(v)
        assert m.value_on_shell(v) >= abs(f.value_on_shell(v))


# -- rejected inputs -----------------------------------------------------------------


def test_rejects_non_locally_integrable():
    f = RadialFunction.power(2, 1, 1, -1, hi=0)  # |x|^{-n} mass near zero
    with pytest.raises(ValueError, match="locally integrable"):
        maximal(f)
    with pytest.raises(ValueError, match="locally integrable"):
        maximal_mod(RadialFunction.power(3, 2, 1, -3, hi=-1))


def test_rejects_unbounded_growth():
    with pytest.raises(ValueError, match="identically infinite"):
        maximal(RadialFunction.power(2, 1, 1, 1, lo=0))
    with pytest.raises(ValueError, match="identically infinite"):
        maximal_mod(RadialFunction.power(2, 1, 1, 0, lo=0, logpow=1))


def test_cancelled_deep_lead_raises_instead_of_hanging():
    # the leads of A(g) and |f|(g) on the deep tail cancel to a float
    # residue, whose sign certificate would start at shell -1 660 500 081 839 348
    f = (RadialFunction.power(3, 2, 3.2477, -3, lo=7)
         + RadialFunction.power(3, 2, 0.5, 0, hi=-7)
         + RadialFunction.power(3, 2, 0.7374101693, 0, hi=-7, logpow=1))
    with pytest.raises(ValueError, match="not certified within"):
        maximal_mod(f)


def test_rejects_mixed_tail_exponents():
    f = RadialFunction(
        2, 1,
        (RadialTerm(Fraction(1), -1, 0, 5, None), RadialTerm(Fraction(1), -2, 0, 9, None)),
    )
    with pytest.raises(NotImplementedError):
        maximal(f)
    g = RadialFunction(
        2, 1,
        (RadialTerm(Fraction(1), 1, 0, None, -5), RadialTerm(Fraction(1), 2, 0, None, -9)),
    )
    with pytest.raises(NotImplementedError):
        maximal(g)
