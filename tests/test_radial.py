"""Radial power-log algebra: canonical form, evaluation, calculus."""

import copy
import math
import pickle
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialpadic import radial
from radialpadic.numeric import float_sat, ppow
from radialpadic.radial import (
    RadialFunction,
    RadialTerm,
    ball_measure,
    integrate_radial,
    shell_sum,
    sphere_measure,
    sum_of_products,
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


@settings(max_examples=80, deadline=None)
@given(f=radial_functions(), m=st.integers(-3, 3), c=st.integers(-6, 6), v=st.integers(-8, 8))
def test_pullback_is_affine_change_of_shell(f, m, c, v):
    assert f.pullback(m, c)(v) == f(m * v + c)


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
    g = RadialFunction.power(2, 1, 1, 0, lo=7, hi=7)  # chi of the sphere S_7
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


def test_float_coefficient_times_out_of_range_power_saturates_only_out_of_range():
    # the decimal coefficient 1e-300, read exactly as a scenario file reads
    # it, times 5^500: the power is outside the float range, the product
    # (about 3.05e49) is not
    tiny = Fraction("1e-300")
    f = RadialFunction(5, 2, (RadialTerm(tiny, -1, 0),))
    want = tiny * 5 ** 500
    assert f.value_on_shell(-500) == want
    assert f.float_on_shell(-500) == f.float_on_shell(-500, saturate=True) == float(want)
    assert RadialFunction(5, 2, (RadialTerm(-tiny, -1, 2),)).float_on_shell(-500) == float(-want * 500 ** 2)
    # the deep term 0.75 |x|^-1 of a maximal profile: 0.75 * 5^500 is itself
    # out of range, so it saturates
    deep = RadialFunction(5, 2, (RadialTerm(Fraction("0.75"), -1, 0, None, -9),))
    assert deep.float_on_shell(-500, saturate=True) == math.inf
    # in-range products are the plain products, bit for bit
    assert deep.float_on_shell(-9) == 0.75 * 5 ** 9
    assert f.float_on_shell(-100) == float(tiny * 5 ** 100)


def test_exact_term_beside_float_term_saturates_out_of_range():
    # the 5^500 of the first term is outside the float range; beside the
    # decimal term 0.5, read exactly, the sum saturates
    f = RadialFunction(5, 2, (RadialTerm(1, -1, 0), RadialTerm(Fraction("0.5"), 0, 0)))
    assert f.value_on_shell(-500) == 5 ** 500 + Fraction(1, 2)
    assert f.float_on_shell(-500, saturate=True) == math.inf
    assert (-f).float_on_shell(-500, saturate=True) == -math.inf
    with pytest.raises(OverflowError):
        f.float_on_shell(-500)
    # in range the sum is correctly rounded
    assert f.float_on_shell(-9) == 5 ** 9 + 0.5


def test_opposite_out_of_range_exact_terms_beside_a_float_term_saturate():
    # 5^500 and -500 * 5^500 are each outside the float range; their sum
    # -499 * 5^500 (plus the decimal 0.5, read exactly) saturates once
    f = RadialFunction(5, 2, (RadialTerm(1, -1, 0), RadialTerm(1, -1, 1), RadialTerm(Fraction("0.5"), 0, 0)))
    assert f.value_on_shell(-500) == -499 * 5 ** 500 + Fraction(1, 2)
    assert f.float_on_shell(-500, saturate=True) == -math.inf
    assert (-f).float_on_shell(-500, saturate=True) == math.inf
    # in range the sum is correctly rounded
    assert f.float_on_shell(-9) == float(-8 * 5 ** 9 + Fraction(1, 2))


def active(t, g):
    return (t.lo is None or g >= t.lo) and (t.hi is None or g <= t.hi)


def term_sum(f, g):
    """The exact shell value as a sum of the term values, one Fraction at a time."""
    return sum((t.coeff * ppow(f.p, g * t.beta) * g ** t.logpow for t in f.terms if active(t, g)), Fraction(0))


@st.composite
def exact_functions(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        coeff = Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 12)))
        beta = draw(st.one_of(st.integers(-3, 3), st.fractions(-4, 4, max_denominator=12)))
        lo = draw(st.one_of(st.none(), st.integers(-30, 10)))
        hi = draw(st.one_of(st.none(), st.integers(10, 40)))
        terms.append(RadialTerm(coeff, beta, draw(st.integers(0, 3)), lo, hi))
    return RadialFunction(p, draw(st.integers(1, 2)), tuple(terms))


@settings(max_examples=150, deadline=None)
@given(exact_functions(), st.one_of(st.integers(-40, 50), st.integers(-3000, 3000)))
def test_exact_shell_value_is_the_sum_of_its_terms(f, g):
    got = f.value_on_shell(g)
    if not any(active(t, g) for t in f.terms):
        assert got == 0 and type(got) is int
        return
    want = term_sum(f, g)
    assert got == want and type(got) is type(want) is Fraction


def test_exact_shell_value_far_out_and_off_support():
    f = RadialFunction(3, 2, (
        RadialTerm(Fraction(-2, 7), Fraction(5, 3), 2, None, 100),
        RadialTerm(Fraction(1, 4), Fraction(-7, 12), 1, -50, None),
        RadialTerm(3, 2, 0, -50, 100),
    ))
    for g in (-100_000, -51, -50, 0, 1, 100, 101, 77_777):
        got = f.value_on_shell(g)
        assert got == term_sum(f, g) and type(got) is Fraction
    # no term is active on shell 5: the value is the int 0, as before
    gap = RadialFunction(2, 1, (RadialTerm(Fraction(1, 3), Fraction(1, 2), 1, None, 4),
                                RadialTerm(1, -1, 0, 6, None)))
    assert gap.value_on_shell(5) == 0 and type(gap.value_on_shell(5)) is int


@st.composite
def shell_cases(draw):
    """(f, g): integral and fractional exponents, coefficients from tiny to
    huge, log powers 0..3, and a shell in [-600, 600]; some f are cut so that
    no term is active at g, some cancel to 0 at g."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        coeff = draw(st.one_of(
            st.fractions(-9, 9, max_denominator=12).filter(bool),
            st.builds(Fraction, st.floats(-1e300, 1e300, allow_nan=False).filter(bool)),
        ))
        beta = draw(st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=12)))
        lo = draw(st.one_of(st.none(), st.integers(-600, 600)))
        hi = draw(st.one_of(st.none(), st.integers(-600 if lo is None else lo, 600)))
        terms.append(RadialTerm(coeff, beta, draw(st.integers(0, 3)), lo, hi))
    f = RadialFunction(p, draw(st.integers(1, 2)), tuple(terms))
    g = draw(st.integers(-600, 600))
    if draw(st.booleans()):
        v = f.value_on_shell(g)
        if v != 0:
            # a term on shell g alone that cancels the others there
            f = f + RadialFunction.power(p, f.n, -v, 0, lo=g, hi=g)
    return f, g


def bits(x):
    return struct.pack("<d", x)


def outcome(read):
    try:
        return bits(read())
    except OverflowError as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(shell_cases())
def test_float_on_shell_is_float_of_value_on_shell(case):
    f, g = case
    v = f.value_on_shell(g)
    if not any(active(t, g) for t in f.terms):
        assert v == 0 and type(v) is int
    else:
        assert type(v) is Fraction
    # bit identical, raising the same OverflowError together
    assert outcome(lambda: f.float_on_shell(g)) == outcome(lambda: float(v))
    assert bits(f.float_on_shell(g, saturate=True)) == bits(float_sat(v))


def test_float_on_shell_saturates_exact_values_off_the_float_range():
    # -1/3 * 7^1200 and 7^-1200 / 3: exact, off the float range either way
    f = RadialFunction.power(7, 1, Fraction(-1, 3), 3)
    with pytest.raises(OverflowError):
        f.float_on_shell(400)
    assert f.float_on_shell(400, saturate=True) == -math.inf
    assert (-f).float_on_shell(400, saturate=True) == math.inf
    assert f.float_on_shell(-400) == f.float_on_shell(-400, saturate=True) == -0.0
    assert math.copysign(1, f.float_on_shell(-400)) == -1


def test_float_terms_off_the_float_range_saturate_where_fsum_raises():
    # 10^308 twice on one shell: each term's float is in range, but fsum of
    # them overflows; the exact sum 2 * 10^308 is off the float range, so it
    # saturates to inf
    f = RadialFunction(2, 1, (RadialTerm(10 ** 308, 0, 0), RadialTerm(10 ** 308, 1, 0, 0, 0)))
    with pytest.raises(OverflowError):
        math.fsum([1e308, 1e308])
    assert f.float_on_shell(0, saturate=True) == math.inf
    assert (-f).float_on_shell(0, saturate=True) == -math.inf
    # 5^500 and -500 * 5^500 have no floats for fsum to add; the exact
    # sum -499 * 5^500 saturates to -inf
    g = RadialFunction(5, 2, (RadialTerm(1, -1, 0), RadialTerm(1, -1, 1)))
    with pytest.raises(OverflowError):
        g.float_on_shell(-500)
    assert g.float_on_shell(-500, saturate=True) == -math.inf
    assert (-g).float_on_shell(-500, saturate=True) == math.inf
    # in range the reads are the plain fsums, bit for bit
    assert f.float_on_shell(1) == 1e308
    assert g.float_on_shell(-9) == math.fsum([5.0 ** 9, -9 * 5.0 ** 9])


def test_lazy_shell_data_is_invisible():
    f = RadialFunction(3, 2, (RadialTerm(Fraction(1, 2), Fraction(-1, 3), 2, None, 4),
                              RadialTerm(Fraction(1, 4), 1, 0, 2, None)))
    twin = RadialFunction(3, 2, f.terms)
    before, text, h = pickle.dumps(f), repr(f), hash(f)
    values = [(f.value_on_shell(g), f.float_on_shell(g)) for g in (-7, 3, 9)]
    assert pickle.dumps(f) == before and repr(f) == text and hash(f) == h and f == twin
    for clone in (pickle.loads(before), pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert clone == f
        assert [(clone.value_on_shell(g), clone.float_on_shell(g)) for g in (-7, 3, 9)] == values


def test_equality_is_canonical():
    a = RadialFunction(2, 1, (RadialTerm(1, 0, 0, 0, 4), RadialTerm(1, 0, 0, 5, 9)))
    b = RadialFunction(2, 1, (RadialTerm(1, 0, 0, 0, 9),))
    assert a == b


COEFFS = [0, 1, -1, 2, Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(7, 3),
          Fraction(1, 10 ** 300), Fraction(-1, 10 ** 300)]
# 0 and Fraction(0) compare equal; the last two are distinct and share a float
BETAS = [0, Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10 ** 30)]


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


SPELLINGS = [(0, Fraction(0)), (1, Fraction(1)), (-3, Fraction(-3))]  # each pair compares equal


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exponent_spelling_does_not_depend_on_term_order(data):
    # a group whose exponent is written both as an int and as a Fraction is
    # named by its first term's spelling; the function, its values and the
    # type of each value do not depend on the order
    terms = []
    for _ in range(data.draw(st.integers(1, 6))):
        lo = data.draw(st.one_of(st.none(), st.integers(-4, 4)))
        hi = None if lo is None else lo + data.draw(st.integers(0, 4))
        spelling = data.draw(st.sampled_from(SPELLINGS))[data.draw(st.integers(0, 1))]
        coeff = data.draw(st.sampled_from([Fraction(1), Fraction(-2, 3), 1, -2]))
        terms.append(RadialTerm(coeff, spelling, data.draw(st.integers(0, 1)), lo, hi))
    shuffled = data.draw(st.permutations(terms))
    f, g = RadialFunction(2, 1, tuple(terms)), RadialFunction(2, 1, tuple(shuffled))
    assert f == g
    for t in f.terms:
        first = next(u for u in terms if u.beta == t.beta and u.logpow == t.logpow)
        assert type(t.beta) is type(first.beta) and type(t.coeff) is Fraction
    values = [(f.value_on_shell(v), g.value_on_shell(v)) for v in range(-6, 10)]
    assert all(a == b and type(a) is type(b) for a, b in values)


def test_canonical_form_keeps_canonical_terms():
    exact = RadialTerm(Fraction(1, 2), 0, 0, 1, 3)
    other = RadialTerm(Fraction(1, 4), Fraction(1, 2), 1, None, 0)
    f = RadialFunction(2, 1, (other, exact))
    assert f.terms[0] is exact and f.terms[1] is other
    # an int coefficient is normalized to a Fraction in a new term
    g = RadialFunction(2, 1, (RadialTerm(3, 0, 0, 1, 3),))
    assert type(g.terms[0].coeff) is Fraction
    # a piece of a term split by another keeps neither
    h = RadialFunction(2, 1, (exact, RadialTerm(Fraction(1, 2), 0, 0, 2, 5)))
    assert as_tuples(h) == [(Fraction(1, 2), 0, 0, 1, 1), (1, 0, 0, 2, 3), (Fraction(1, 2), 0, 0, 4, 5)]
    assert all(t is not exact for t in h.terms)


# -- canonical terms pass through ----------------------------------------------

RUN_COEFFS = [1, Fraction(1), 0, 2, Fraction(1, 2), -1, Fraction(-1, 2), Fraction(1, 10 ** 300)]
THIRD_BESIDE = Fraction(1, 3) + Fraction(1, 10 ** 30)  # distinct from 1/3, with the same float
RUN_BETAS = [0, Fraction(0), 1, Fraction(1), Fraction(1, 3), THIRD_BESIDE, Fraction(1, 2)]


@st.composite
def near_canonical_terms(draw):
    """Term lists in or near canonical form: runs of disjoint increasing
    ranges, some adjacent, sorted as canonical terms are sorted.  The
    coefficients are int or Fraction, often the last one again, among them
    the spellings 1 and Fraction(1).  A run repeats its beta object, or each
    of its terms spells it as that object, as an equal new Fraction or as
    the distinct exponent beside it with the same float.  Some lists are
    shuffled."""
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        beta, k = draw(st.sampled_from(RUN_BETAS)), draw(st.integers(0, 1))
        lo, c = draw(st.one_of(st.none(), st.integers(-6, 0))), None
        respell = draw(st.booleans())
        for _ in range(draw(st.integers(1, 4))):
            hi = draw(st.one_of(st.none(), st.integers(0, 3)))
            if hi is not None and lo is not None:
                hi += lo
            beside = THIRD_BESIDE if beta == Fraction(1, 3) else Fraction(1, 3)
            b = draw(st.sampled_from([beta, Fraction(beta), beside])) if respell else beta
            if c is None or draw(st.booleans()):  # else the last coefficient again
                c = draw(st.sampled_from(RUN_COEFFS))
            terms.append(RadialTerm(c, b, k, lo, hi))
            if hi is None:
                break
            lo = hi + 1 + draw(st.sampled_from([0, 0, 1, 3]))
    terms.sort(key=radial._sort_key)
    if draw(st.integers(0, 4)) == 0:
        terms = draw(st.permutations(terms))
    return tuple(terms)


def typed_terms(terms):
    return typed([(t.coeff, t.beta, t.logpow, t.lo, t.hi) for t in terms])


@settings(max_examples=300, deadline=None)
@given(st.one_of(near_canonical_terms(), term_lists()))
def test_canonical_check_agrees_with_the_full_pass(terms):
    full = radial._regroup(terms)
    got = radial._canonicalize(terms)
    assert typed_terms(got) == typed_terms(full)
    if radial._is_canonical(terms):
        assert got is terms
    # the full pass gives terms the check accepts, unless two groups have
    # distinct exponents with one float (Fraction(1, 3) and THIRD_BESIDE)
    shared = len({t.beta for t in full}) > len({float(t.beta) for t in full})
    assert radial._is_canonical(full) or shared


THIRD, HALF, OTHER_HALF = Fraction(1, 3), Fraction(1, 2), Fraction(1, 2)


@pytest.mark.parametrize("terms, kept", [
    (((Fraction(1), 0, 0, 0, 2), (Fraction(1), 0, 0, 3, 5)), False),   # adjacent equal pieces
    (((Fraction(1), 0, 0, 0, 2), (1, 0, 0, 3, 5)), False),              # ... spelled apart
    (((Fraction(1), 0, 0, 0, 2), (Fraction(2), 0, 0, 3, 5)), True),    # adjacent, different
    (((Fraction(1), HALF, 0, 0, 2), (Fraction(2), OTHER_HALF, 0, 4, 5)), False),  # equal objects
    (((Fraction(1), THIRD, 0, 0, 2), (Fraction(2), THIRD_BESIDE, 0, 4, 5)), False),  # one float
    (((Fraction(1), 1, 0, 0, 2), (Fraction(2), Fraction(1), 0, 4, 5)), False),  # 1 and Fraction(1)
    (((1, 0, 0, 0, 2),), False),
    (((-3, 0, 0, 0, 2),), False),
    (((Fraction(1, 2), THIRD, 1, None, None),), True),
    (((Fraction(0), 0, 0, 0, 2),), False),
    (((Fraction(1), 0, 1, None, 0), (Fraction(1), 0, 0, None, None)), False),  # out of order
    (((Fraction(1), 0, 0, 0, 4), (Fraction(2), 0, 0, 3, 5)), False),   # overlapping
])
def test_canonical_check_agrees_with_the_full_pass_on_hand_cases(terms, kept):
    assert HALF is not OTHER_HALF
    terms = tuple(RadialTerm(*t) for t in terms)
    got = radial._canonicalize(terms)
    assert typed_terms(got) == typed_terms(radial._regroup(terms))
    assert (got is terms) == kept


@settings(max_examples=60, deadline=None)
@given(f=radial_functions())
def test_canonical_terms_are_kept_as_they_are(f):
    assert RadialFunction(f.p, f.n, f.terms).terms is f.terms


def count_full_passes(monkeypatch):
    """A list that gains one entry per full grouping pass (radial._regroup)."""
    calls = []
    full = radial._regroup
    monkeypatch.setattr(radial, "_regroup", lambda terms: calls.append(terms) or full(terms))
    return calls


@st.composite
def power_functions(draw):
    """Canonical exact functions without log terms; exponents int or Fraction."""
    p = draw(st.sampled_from([2, 3, 5]))
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        coeff = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        beta = draw(st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)))
        lo = draw(st.one_of(st.none(), st.integers(-8, 4)))
        hi = draw(st.one_of(st.none(), st.integers(4, 12)))
        terms.append(RadialTerm(coeff, beta, 0, lo, hi))
    return RadialFunction(p, draw(st.integers(1, 2)), tuple(terms))


@settings(max_examples=80, deadline=None)
@given(f=power_functions(), g=radial_functions(), d=st.integers(-5, 5),
       lo=st.one_of(st.none(), st.integers(-6, 6)), width=st.integers(0, 8))
def test_structure_preserving_operations_skip_the_full_pass(f, g, d, lo, width):
    # restrict and negation of any canonical exact function, dilate of one
    # without log terms, and dilate by 0 of any, build no group afresh
    hi = None if lo is None else lo + width
    with pytest.MonkeyPatch.context() as mp:
        calls = count_full_passes(mp)
        for h in (f, g):
            h.restrict(lo, hi), h.restrict(lo, None), h.scale(-1), -h, h.dilate(0)
        f.dilate(d)
    assert calls == []


@st.composite
def product_rows(draw):
    """(p, n, rows) for sum_of_products: exact coefficients and exponents,
    log powers, and factors that overlap and cancel."""
    p, n = draw(st.sampled_from([2, 3])), draw(st.integers(1, 2))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        c = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        fs = [draw(radial_functions(p=p, n=n)) for _ in range(draw(st.integers(1, 3)))]
        rows.append((c, fs))
    return p, n, rows


@settings(max_examples=100, deadline=None)
@given(product_rows())
def test_sum_of_products_is_the_fold_of_products_and_sums(case):
    p, n, rows = case
    fold = RadialFunction.zero(p, n)
    for c, fs in rows:
        prod = fs[0]
        for f in fs[1:]:
            prod = prod * f
        fold = fold + prod.scale(c)
    got = sum_of_products(p, n, rows)
    assert typed(as_tuples(got)) == typed(as_tuples(fold))
    assert [bits(got.float_on_shell(v, saturate=True)) for v in range(-60, 61)] == \
        [bits(fold.float_on_shell(v, saturate=True)) for v in range(-60, 61)]


@settings(max_examples=30, deadline=None)
@given(f=radial_functions())
def test_sum_of_products_scales_by_every_spelling_of_one(f):
    # 1 and Fraction(1) both leave every coefficient as it is
    for c in (1, Fraction(1)):
        got = sum_of_products(f.p, f.n, [(c, (f,))])
        assert typed(as_tuples(got)) == typed(as_tuples(f.scale(c))) == typed(as_tuples(f))
    if not f.is_zero():  # the float 1.0 is no coefficient
        with pytest.raises(ValueError, match="coeff must be an int or a Fraction"):
            sum_of_products(f.p, f.n, [(1.0, (f,))])


def test_sum_of_products_checks_contexts():
    f, g = RadialFunction.constant(2, 1, 1), RadialFunction.constant(3, 1, 1)
    with pytest.raises(ValueError, match="mismatched"):
        sum_of_products(2, 1, [(1, (f, g))])
    with pytest.raises(ValueError, match="mismatched"):
        f * g
