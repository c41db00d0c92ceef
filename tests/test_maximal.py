"""Centered maximal operator and its ball-only variant, exact tails vs brute sups."""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialpadic import operators
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


def test_averages_growing_to_a_limit_at_the_top():
    # chi_{|x| >= 1} on Q_2: A(g) = 1 - 2^-(g+1) for g >= 0 rises to its limit 1
    f = RadialFunction.power(2, 1, 1, 0, lo=0)
    for out in (maximal(f), maximal_mod(f)):
        for v in list(range(-60, 61)) + [-500, 500]:
            assert out.value_on_shell(v) == 1


@pytest.mark.parametrize("modified", [False, True])
def test_deep_log_tail_matches_brute_sup(modified):
    # 3|x| log_2|x| on shells <= -50: |f| peaks near the edge, then the
    # averages decay; M f follows |f| shell by shell below the breakpoint
    f = RadialFunction.power(2, 1, 3, 1, hi=-50, logpow=1)
    out = maximal_mod(f) if modified else maximal(f)
    fv = cached(f, BRUTE_LO - 1, 200)
    for v in range(-60, 10):
        got = float(out.value_on_shell(v))
        want = brute_maximal(f.p, f.n, fv, v, BRUTE_LO, v + 120, modified)
        assert math.isclose(got, want, rel_tol=1e-9), (v, got, want)


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


# -- the deep crossover of growing averages ------------------------------------------


def linear_walk(a_deep, s_w, top):
    """The shell-by-shell search the gallop replaced: the first v <= top,
    going down, with a_deep(v) >= s_w."""
    v = top
    while a_deep.value_on_shell(v) < s_w:
        v -= 1
    return v


@st.composite
def growing_deep_profiles(draw):
    """A bump over a decaying top, above a deep tail whose averages grow toward
    -inf: c0 - c1 log_p|x| (linear growth) or |x|^beta with -n < beta < 0."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 2))
    edge = draw(st.integers(-9, -3))
    if draw(st.booleans()):
        deep = [RadialTerm(Fraction(draw(st.integers(0, 4))), 0, 0, None, edge),
                RadialTerm(Fraction(-draw(st.integers(1, 5)), draw(st.integers(1, 4))), 0, 1, None, edge)]
    else:
        beta = Fraction(-draw(st.integers(1, 2 * n - 1)), 2)
        deep = [RadialTerm(Fraction(draw(st.integers(1, 3))), beta, 0, None, edge)]
    bump = RadialTerm(Fraction(draw(st.integers(1, 400)), draw(st.integers(1, 3))), draw(st.integers(-1, 1)), 0,
                      draw(st.integers(-2, 0)), draw(st.integers(0, 3)))
    top = RadialTerm(Fraction(draw(st.integers(1, 3))), draw(st.integers(-3, -1)), draw(st.integers(0, 1)), 5, None)
    return RadialFunction(p, n, tuple(deep + [bump, top]))


@settings(max_examples=30, deadline=None)
@given(f=growing_deep_profiles())
def test_deep_crossover_matches_linear_walk(f):
    with mock.patch.object(operators, "_deep_crossover", linear_walk):
        want = (maximal(f), maximal_mod(f))
    assert (maximal(f), maximal_mod(f)) == want


def slow_log_tail(c1):
    """1 - c1 log_p|x| on shells <= -5 (averages grow like c1 |g|) under a plateau 10."""
    return RadialFunction(3, 1, (RadialTerm(Fraction(1), 0, 0, None, -5),
                                 RadialTerm(-c1, 0, 1, None, -5),
                                 RadialTerm(Fraction(10), 0, 0, -1, 1)))


def count_shell_values(monkeypatch):
    calls = [0]
    value_on_shell = RadialFunction.value_on_shell

    def counting(self, gamma):
        calls[0] += 1
        return value_on_shell(self, gamma)

    monkeypatch.setattr(RadialFunction, "value_on_shell", counting)
    return calls


def test_deep_crossover_is_found_in_few_evaluations(monkeypatch):
    # a slowly growing deep tail under a large sup above it: the shell-by-shell
    # walk evaluated the averages on about 335 000 shells to reach -335 344
    f = RadialFunction(5, 1, tuple(RadialTerm(Fraction(c), b, k, lo, hi) for c, b, k, lo, hi in [
        (1, 0, 0, None, -9), (-5, 0, 1, None, -9), (1, -4, 0, 1, 2), (4, -4, 0, 4, None),
        (Fraction(1, 2), -4, 1, 4, None), (-1, 1, 0, 0, 2), (Fraction(4, 3), 2, 1, -2, 4)]))
    calls = count_shell_values(monkeypatch)
    m = maximal(f)
    assert calls[0] < 1000
    assert {t.hi for t in m.terms if t.lo is None} == {-335344}
    assert m(-335344) > m(-335343) == m(-100)


def test_deep_crossover_beyond_a_million_shells_is_found(monkeypatch):
    seen = []
    crossover = operators._deep_crossover

    def recording(a_deep, s_w, top):
        v = crossover(a_deep, s_w, top)
        seen.append((a_deep, s_w, v))
        return v

    monkeypatch.setattr(operators, "_deep_crossover", recording)
    calls = count_shell_values(monkeypatch)
    m = maximal(slow_log_tail(Fraction(1, 10 ** 5)))  # crossover at -863 100
    assert {t.hi for t in m.terms if t.lo is None} == {-863100}
    f = slow_log_tail(Fraction(1, 10 ** 7))
    for profile in (maximal(f), maximal_mod(f)):
        assert {t.hi for t in profile.terms if t.lo is None} == {-86310014}
    assert calls[0] < 1000
    assert len(seen) == 3
    for a_deep, s_w, v in seen:
        # v is the highest shell whose average reaches the sup above it
        assert a_deep(v) >= s_w > a_deep(v + 1)


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
    # the deep tail 1/2 + 10^-12 g changes sign near shell -5 * 10^11, so
    # its sign certificate would start beyond shell -10^12
    f = (RadialFunction.power(3, 2, Fraction("3.2477"), -3, lo=7)
         + RadialFunction.power(3, 2, Fraction(1, 2), 0, hi=-7)
         + RadialFunction.power(3, 2, Fraction(1, 10 ** 12), 0, hi=-7, logpow=1))
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
