"""Radial power-log algebra: canonical form, evaluation, calculus."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialpadic.radial import (
    RadialFunction,
    RadialTerm,
    ball_measure,
    integrate_radial,
    shell_sum,
    sphere_measure,
)

from oracles import brute_haar_integral, canonicalize_reference, shell_value

TINY = Fraction(1, 10 ** 25)


def as_tuples(f):
    return [(t.coeff, t.beta, t.logpow, t.lo, t.hi) for t in f.terms]


@st.composite
def radial_functions(draw, p=None, n=None):
    p = p or draw(st.sampled_from([2, 3, 5]))
    n = n or draw(st.integers(1, 2))
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        coeff = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        beta = draw(st.integers(-3, 3))
        k = draw(st.integers(0, 2))
        lo = draw(st.one_of(st.none(), st.integers(-8, 4)))
        hi = draw(st.one_of(st.none(), st.integers(4, 12)))
        terms.append(RadialTerm(coeff, beta, k, lo, hi))
    return RadialFunction(p, n, tuple(terms))


def test_measures():
    assert ball_measure(2, 1, 3) == 8
    assert ball_measure(3, 2, -1) == Fraction(1, 9)
    assert sphere_measure(2, 1, 0) == Fraction(1, 2)
    assert sphere_measure(5, 2, 1) == 25 * Fraction(24, 25)


def test_ball_is_disjoint_union_of_spheres():
    # |B_g| - sum_{k=g-200..g} |S_k| = |B_{g-201}| exactly
    p, n, g = 3, 2, 4
    acc = sum(sphere_measure(p, n, k) for k in range(g - 200, g + 1))
    assert ball_measure(p, n, g) - acc == ball_measure(p, n, g - 201)


def test_evaluation_matches_term_formula():
    f = RadialFunction(
        2, 1,
        (RadialTerm(Fraction(3, 2), -1, 0, None, 5), RadialTerm(Fraction(1), 2, 1, 0, None)),
    )
    spec = [(Fraction(3, 2), -1, 0, None, 5), (Fraction(1), 2, 1, 0, None)]
    for g in range(-6, 9):
        assert f(g) == shell_value(2, spec, g)


def test_canonical_form_splits_overlaps():
    # [0,5] with coeff 1 and [3,8] with coeff 2 -> three disjoint pieces
    f = RadialFunction(
        2, 1, (RadialTerm(1, 0, 0, 0, 5), RadialTerm(2, 0, 0, 3, 8))
    )
    assert as_tuples(f) == [
        (Fraction(1), 0, 0, 0, 2),
        (Fraction(3), 0, 0, 3, 5),
        (Fraction(2), 0, 0, 6, 8),
    ]


def test_canonical_form_merges_adjacent_equal_pieces():
    f = RadialFunction(2, 1, (RadialTerm(1, 0, 0, 0, 4), RadialTerm(1, 0, 0, 5, 9)))
    assert as_tuples(f) == [(Fraction(1), 0, 0, 0, 9)]


def test_cancellation_gives_zero():
    f = RadialFunction(2, 1, (RadialTerm(1, 1, 0, None, None),))
    assert (f - f).is_zero()


@settings(max_examples=60, deadline=None)
@given(f=radial_functions(), g=radial_functions(p=2, n=1), v=st.integers(-10, 14))
def test_pointwise_ring_laws(f, g, v):
    g2 = RadialFunction(f.p, f.n, g.terms)
    assert (f + g2)(v) == f(v) + g2(v)
    assert (f * g2)(v) == f(v) * g2(v)
    assert (f.scale(Fraction(-7, 3)))(v) == Fraction(-7, 3) * f(v)


@settings(max_examples=60, deadline=None)
@given(f=radial_functions(), d=st.integers(-5, 5), v=st.integers(-9, 9))
def test_dilate_is_shift_on_shells(f, d, v):
    assert f.dilate(d)(v) == f(v + d)


@settings(max_examples=40, deadline=None)
@given(f=radial_functions(), d=st.integers(-4, 4))
def test_dilate_change_of_variables(f, d):
    # integral of f(tx) = |t|^-n integral of f, when finite
    try:
        base = integrate_radial(f)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            integrate_radial(f.dilate(d))
        return
    moved = integrate_radial(f.dilate(d))
    if base.is_finite:
        assert moved.value == Fraction(f.p) ** (-d * f.n) * base.value
    else:
        assert not moved.is_finite


def test_restrict_is_indicator_multiplication():
    f = RadialFunction.power(2, 1, 1, -1)
    r = f.restrict(0, 5)
    for g in range(-3, 8):
        assert r(g) == (f(g) if 0 <= g <= 5 else 0)


def test_integrate_finite_support_exact():
    terms = (RadialTerm(Fraction(2, 3), -1, 1, -4, 6),)
    f = RadialFunction(3, 2, terms)
    spec = [(Fraction(2, 3), -1, 1, -4, 6)]
    assert integrate_radial(f).value == brute_haar_integral(3, 2, spec, -4, 6)


def test_integrate_infinite_tail_matches_partial():
    # f = |x|^-3 on |x| >= 1 over Q_2^2: integrable, tail geometric
    f = RadialFunction.power(2, 2, 1, -3, lo=0)
    got = integrate_radial(f)
    partial = brute_haar_integral(2, 2, [(Fraction(1), -3, 0, 0, None)], 0, 200)
    assert got.is_finite and got.exact
    assert abs(got.value - partial) < TINY


def test_integrate_chi_ball_is_ball_measure():
    f = RadialFunction.chi_ball(5, 2, 3)
    assert integrate_radial(f).value == ball_measure(5, 2, 3)


def test_integrate_divergence_is_signed_data():
    grow = RadialFunction.power(2, 1, 1, 0, lo=0)  # constant on |x|>=1
    got = integrate_radial(grow)
    assert not got.is_finite and float(got) > 0
    shrink = RadialFunction.power(2, 1, -1, -1, hi=0)  # -|x|^-1 near 0, n=1
    got2 = integrate_radial(shrink)
    assert not got2.is_finite and float(got2) < 0


def test_mixed_divergence_raises():
    f = RadialFunction(
        2, 1, (RadialTerm(1, 0, 0, 0, None), RadialTerm(-1, -1, 0, None, 0))
    )
    with pytest.raises(ArithmeticError):
        integrate_radial(f)


def test_shell_sum_plain():
    f = RadialFunction.power(2, 1, 1, -1, lo=0)  # sum 2^-g over g>=0
    assert shell_sum(f).value == 2
    g = RadialFunction.chi_sphere(2, 1, 7)
    assert shell_sum(g).value == 1


def test_log_function_values():
    f = RadialFunction.log(2, 1)
    assert f(5) == 5 and f(-3) == -3 and f(0) == 0


def test_dilate_log_picks_up_constant():
    # log(|t x|) = log|x| + d when |t| = p^d
    f = RadialFunction.log(2, 1)
    d = f.dilate(3)
    expect = RadialFunction.log(2, 1) + RadialFunction.constant(2, 1, 3)
    assert d == expect


def test_equality_is_canonical():
    a = RadialFunction(2, 1, (RadialTerm(1, 0, 0, 0, 4), RadialTerm(1, 0, 0, 5, 9)))
    b = RadialFunction(2, 1, (RadialTerm(1, 0, 0, 0, 9),))
    assert a == b


COEFFS = [0, 1, -1, 2, True, False, Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(7, 3),
          0.0, 0.5, -0.5, 1.0, -2.5, 1e-300, -1e-300]
BETAS = [0, 0.0, Fraction(1, 2), 0.5, Fraction(1, 3), 1 / 3]  # the last two share a float


@st.composite
def term_lists(draw):
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        lo = draw(st.one_of(st.none(), st.integers(-4, 4)))
        hi = draw(st.one_of(st.none(), st.integers(-4, 4)))
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        coeff = draw(st.sampled_from(COEFFS))
        beta, k = draw(st.sampled_from(BETAS)), draw(st.integers(0, 2))
        terms.append(RadialTerm(coeff, beta, k, lo, hi))
        if draw(st.booleans()):
            # the same term negated over a nearby range: cancellation and splits
            lo2 = draw(st.one_of(st.none(), st.integers(-4, 4)))
            hi2 = None if lo2 is None else lo2 + draw(st.integers(0, 3))
            terms.append(RadialTerm(-coeff, draw(st.sampled_from(BETAS)), k, lo2, hi2))
    return tuple(draw(st.permutations(terms)))


def typed(terms):
    return [(type(c), c, type(b), b, k, lo, hi) for c, b, k, lo, hi in terms]


@settings(max_examples=200, deadline=None)
@given(term_lists())
def test_canonical_form_matches_reference(terms):
    assert typed(as_tuples(RadialFunction(2, 1, terms))) == typed(canonicalize_reference(terms))


def test_canonical_form_keeps_canonical_terms():
    exact = RadialTerm(Fraction(1, 2), 0, 0, 1, 3)
    inexact = RadialTerm(0.25, Fraction(1, 2), 1, None, 0)
    f = RadialFunction(2, 1, (inexact, exact))
    assert f.terms[0] is exact and f.terms[1] is inexact
    # an int coefficient is normalized to a Fraction in a new term
    g = RadialFunction(2, 1, (RadialTerm(3, 0, 0, 1, 3),))
    assert type(g.terms[0].coeff) is Fraction
    # a piece of a term split by another keeps neither
    h = RadialFunction(2, 1, (exact, RadialTerm(Fraction(1, 2), 0, 0, 2, 5)))
    assert as_tuples(h) == [(Fraction(1, 2), 0, 0, 1, 1), (1, 0, 0, 2, 3), (Fraction(1, 2), 0, 0, 4, 5)]
    assert all(t is not exact for t in h.terms)
