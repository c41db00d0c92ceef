"""Closed-form series sums against direct partial summation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialpadic.numeric import ExtendedValue
from radialpadic.series import antidifference, antidifference_at, power_log_sum

from oracles import brute_power_log_sum

TINY = Fraction(1, 10 ** 25)


@pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(2, 3), Fraction(1, 5)])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("lo", [-3, 0, 2, 7])
def test_plus_tail_matches_deep_partial_sum(r, k, lo):
    exact = power_log_sum(r, k, lo, None).value
    partial = brute_power_log_sum(r, k, lo, lo + 500)
    assert isinstance(exact, Fraction)
    assert abs(exact - partial) < TINY


@pytest.mark.parametrize("r", [Fraction(2), Fraction(3, 2), Fraction(9)])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("hi", [-2, 0, 5])
def test_minus_tail_matches_deep_partial_sum(r, k, hi):
    exact = power_log_sum(r, k, None, hi).value
    partial = brute_power_log_sum(r, k, hi - 500, hi)
    assert abs(exact - partial) < TINY


def test_geometric_closed_form_identity():
    # sum_{g<=G} r^g = r^(G+1)/(r-1) for r > 1
    for r in (Fraction(2), Fraction(5, 3)):
        for g in (-4, 0, 3):
            assert power_log_sum(r, 0, None, g).value == r ** (g + 1) / (r - 1)


def test_finite_range_exact():
    got = power_log_sum(Fraction(1, 2), 2, -3, 10)
    want = brute_power_log_sum(Fraction(1, 2), 2, -3, 10)
    assert got.value == want
    assert got.exact


def test_empty_range_is_zero():
    assert power_log_sum(Fraction(1, 2), 1, 5, 4).value == 0


def test_divergent_directions():
    up = power_log_sum(Fraction(2), 0, 0, None)
    assert not up.is_finite and float(up) > 0
    down = power_log_sum(Fraction(1, 2), 0, None, 0)
    assert not down.is_finite and float(down) > 0
    down_odd = power_log_sum(Fraction(1, 2), 1, None, 0)
    assert not down_odd.is_finite and float(down_odd) < 0
    # ratio exactly 1 with a nonzero coefficient diverges
    flat = power_log_sum(Fraction(1), 0, 0, None)
    assert not flat.is_finite


@settings(max_examples=60, deadline=None)
@given(
    num=st.integers(1, 7),
    den=st.integers(8, 15),
    k=st.integers(0, 3),
    a=st.integers(-6, 2),
    b=st.integers(3, 9),
    c=st.integers(10, 20),
)
def test_range_additivity(num, den, k, a, b, c):
    r = Fraction(num, den)
    left = power_log_sum(r, k, a, b).value
    right = power_log_sum(r, k, b + 1, c).value
    whole = power_log_sum(r, k, a, c).value
    assert left + right == whole


@settings(max_examples=40, deadline=None)
@given(num=st.integers(1, 7), den=st.integers(8, 15), k=st.integers(0, 3), edge=st.integers(-5, 5))
def test_tail_peeling(num, den, k, edge):
    # peeling one term off an infinite tail preserves the closed form exactly
    r = Fraction(num, den)
    tail = power_log_sum(r, k, edge, None).value
    peeled = power_log_sum(r, k, edge + 1, None).value
    head = (edge ** k if k else 1) * r ** edge
    assert tail == peeled + head


def test_huge_finite_range_uses_closed_form():
    r = Fraction(1, 2)
    got = power_log_sum(r, 1, 0, 10 ** 5)
    # the full tail minus the (numerically zero) remainder
    want = power_log_sum(r, 1, 0, None)
    assert abs(got.value - want.value) < TINY
    assert isinstance(got, ExtendedValue)


# -- the antidifference behind every closed form ----------------------------------


@pytest.mark.parametrize(
    "r",
    [Fraction(1, 2), Fraction(2, 7), Fraction(1), 1, Fraction(3), 3, Fraction(9, 4)],
    ids=["1-2", "2-7", "frac-1", "int-1", "frac-3", "int-3", "9-4"],
)
@pytest.mark.parametrize("t", [0, 1, 2, 3, 4])
def test_antidifference_telescopes_exactly(r, t):
    poly = antidifference(r, t)
    assert all(isinstance(c, Fraction) for c in poly)
    if r == 1:
        assert len(poly) == t + 2 and poly[0] == 0
    else:
        assert len(poly) == t + 1
    rf = Fraction(r)
    for a in range(-6, 6):
        for g in range(a, 6):
            direct = sum((k ** t * rf ** k for k in range(a, g + 1)), Fraction(0))
            closed = antidifference_at(r, poly, g) - antidifference_at(r, poly, a - 1)
            assert isinstance(closed, Fraction)
            assert closed == direct, (a, g)


FLOAT_RATIOS = [0.1, 0.5, 0.9, 0.99, 0.999, 1.001, 1.01, 1.5, 2.0, 9.0]


def float_cases(r):
    """Tails and ranges longer than the direct-sum limit on the convergent side."""
    if r < 1:
        return [(lo, None) for lo in (-20, -3, 0, 5, 40)] + [(-20, 4200), (3, 5000)]
    return [(None, hi) for hi in (-40, -5, 0, 3, 20)] + [(-4200, 20), (-5000, -3)]


def float_sum(r, k, lo, hi):
    """sum g^k r^g over lo..hi by math.fsum of float terms; a tail is cut
    past its peak once a term falls below 1e-20 of the running sum."""
    rf = float(r)
    if lo is not None and hi is not None:
        return math.fsum(g ** k * rf ** g for g in range(lo, hi + 1))
    step, g = (1, lo) if hi is None else (-1, hi)
    peak = k / abs(math.log(rf))
    terms, run = [], 0.0
    while True:
        t = g ** k * rf ** g
        terms.append(t)
        run += t
        if g * step > peak and abs(t) <= 1e-20 * abs(run):
            return math.fsum(terms)
        g += step


@pytest.mark.parametrize("r", FLOAT_RATIOS)
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_float_closed_forms_match_exact_rational(r, k):
    # a float ratio is refused; the same ratio read with decimal intent, as
    # scenario files read it (0.1 is 1/10), has exact closed forms, and each
    # matches the float sum of its terms
    with pytest.raises(ValueError, match="ratio must be an int or a Fraction"):
        power_log_sum(r, k, 0, None)
    exact = Fraction(str(r))
    for lo, hi in float_cases(exact):
        got = power_log_sum(exact, k, lo, hi)
        assert got.exact
        want = float_sum(exact, k, lo, hi)
        assert math.isclose(float(got), want, rel_tol=1e-9), (lo, hi)
