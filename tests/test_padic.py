"""Exact p-adic arithmetic: valuations, norms, matrices."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialpadic.padic import (
    PAdicMatrix,
    PAdicVector,
    check_prime,
    is_prime,
    log_norm,
    pnorm,
    valuation,
)
from radialpadic.sampling import sample_sphere

from oracles import brute_shell, det_by_elimination

PRIMES = [2, 3, 5, 7, 11]


def test_prime_validation():
    assert is_prime(2) and is_prime(97)
    assert not is_prime(1) and not is_prime(91)
    assert check_prime(2) == 2 and check_prime(3) == 3
    for bad in (6, True, 4, 1, 2.0, -3):
        with pytest.raises(ValueError):
            check_prime(bad)
    with pytest.raises(ValueError):
        PAdicVector(4, (Fraction(1),))
    with pytest.raises(ValueError):
        PAdicMatrix(2.0, ((Fraction(1),),))


def test_accepted_prime_admits_no_lookalike():
    class LookAlike(int):
        """An int equal to `like` by == and hash, whatever its value."""

        like = 0

        def __eq__(self, other):
            return other == self.like

        def __hash__(self):
            return hash(self.like)

    class LikeTwo(LookAlike):
        like = 2

    class LikeFour(LookAlike):
        like = 4

    assert check_prime(2) == 2 and check_prime(2) == 2
    for bad in (True, 2.0, 4, -2, LikeTwo(4)):
        with pytest.raises(ValueError, match="prime"):
            check_prime(bad)
    with pytest.raises(ValueError, match="prime"):
        PAdicMatrix.scalar(2.0, 2, 1)
    # a prime subclass instance is accepted, but admits no int after it
    three = LikeFour(3)
    assert check_prime(three) is three
    with pytest.raises(ValueError, match="prime"):
        check_prime(4)


@settings(max_examples=120, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    v=st.integers(-8, 8),
    unit_num=st.integers(1, 500),
    unit_den=st.integers(1, 500),
)
def test_valuation_constructive(p, v, unit_num, unit_den):
    # build x = p^v * (a/b) with p dividing neither a nor b
    while unit_num % p == 0:
        unit_num += 1
    while unit_den % p == 0:
        unit_den += 1
    x = Fraction(p) ** v * Fraction(unit_num, unit_den)
    assert valuation(x, p) == v
    assert pnorm(x, p) == Fraction(p) ** (-v)
    assert log_norm(x, p) == -v


def test_zero_conventions():
    assert valuation(0, 5) == math.inf
    assert pnorm(0, 5) == 0
    assert log_norm(0, 5) == -math.inf


@settings(max_examples=120, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    a=st.fractions(max_denominator=1000),
    b=st.fractions(max_denominator=1000),
)
def test_ultrametric_and_multiplicativity(p, a, b):
    na, nb = pnorm(a, p), pnorm(b, p)
    assert pnorm(a * b, p) == na * nb
    assert pnorm(a + b, p) <= max(na, nb)
    if na != nb:
        assert pnorm(a + b, p) == max(na, nb)


def test_vector_norm_is_max():
    x = PAdicVector(3, (Fraction(9), Fraction(1, 3), Fraction(2)))
    assert x.norm() == Fraction(3)
    assert x.shell() == 1
    assert x.scale(Fraction(1, 9)).shell() == 3


def test_matrix_norm_det_inverse_exact():
    a = PAdicMatrix(2, ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1))))
    assert a.det() == 1
    assert a.norm() == 1
    inv = a.inverse()
    prod = [
        [sum(inv.rows[i][k] * a.rows[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert prod == [[1, 0], [0, 1]]


def test_singular_matrix_raises():
    a = PAdicMatrix(5, ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))))
    assert a.det() == 0
    with pytest.raises(ZeroDivisionError):
        a.inverse()


@st.composite
def invertible_matrices(draw):
    # L (unit lower) times U (nonzero diagonal) is always invertible
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 3))
    low = [[Fraction(draw(st.integers(-5, 5))) if i > j else Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    diag = [Fraction(draw(st.sampled_from([-4, -2, -1, 1, 2, 3, 8]))) for _ in range(n)]
    up = [[Fraction(draw(st.integers(-5, 5))) if i < j else (diag[i] if i == j else Fraction(0)) for j in range(n)] for i in range(n)]
    prod = tuple(
        tuple(sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )
    return PAdicMatrix(p, prod)


@settings(max_examples=80, deadline=None)
@given(m=invertible_matrices())
def test_det_norm_sandwich(m):
    # ||A||^-n <= |det A^-1|_p <= ||A^-1||^n
    det_inv = pnorm(Fraction(1) / m.det(), m.p)
    assert m.norm() ** (-m.n) <= det_inv <= m.inverse().norm() ** m.n


@settings(max_examples=80, deadline=None)
@given(m=invertible_matrices(), coords=st.lists(st.integers(-50, 50), min_size=1, max_size=3))
def test_operator_norm_bound(m, coords):
    coords = (coords * 3)[: m.n]
    x = PAdicVector(m.p, tuple(Fraction(c) for c in coords))
    ax = m.matvec(x)
    assert ax.norm() <= m.norm() * x.norm()


def test_scalar_matrix_norm_identity():
    # |s I| has norm |s| and k_A = -valuation(s)
    a = PAdicMatrix.scalar(3, 2, Fraction(1, 9))
    assert a.norm() == 9
    assert a.log_norm() == 2
    assert a.inverse().log_norm() == -2


@st.composite
def rational_matrices(draw):
    # upper or lower triangular, general, general with a zero top-left entry
    # (elimination swaps rows), or singular (one row a multiple of another)
    n = draw(st.integers(1, 3))
    entry = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["upper", "lower", "general", "swap", "singular"]))
    if shape == "swap":
        rows[0][0] = Fraction(0)
    for i in range(n):
        for j in range(n):
            if (shape == "upper" and i > j) or (shape == "lower" and i < j):
                rows[i][j] = Fraction(0)
    if shape == "singular" and n > 1:
        t = draw(entry)
        rows[-1] = [t * e for e in rows[0]]
    return PAdicMatrix(draw(st.sampled_from(PRIMES)), tuple(tuple(r) for r in rows))


@settings(max_examples=150, deadline=None)
@given(m=rational_matrices())
def test_det_equals_elimination(m):
    # elimination skips zero subdiagonal entries; the value is the same rational
    d = m.det()
    assert isinstance(d, Fraction)
    assert d == det_by_elimination(m.rows)


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    coords=st.lists(
        st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=10**6)),
        min_size=1, max_size=4,
    ),
    shift=st.integers(-6, 6),
)
def test_shell_equals_brute_shell(p, coords, shift):
    # valuation reads only the side of the fraction that p divides
    coords = [c * Fraction(p) ** shift for c in coords]
    assert PAdicVector(p, tuple(coords)).shell() == brute_shell(p, coords)


def test_shell_of_zero_vector_and_negative_valuations():
    assert PAdicVector(5, (Fraction(0), Fraction(0))).shell() == -math.inf
    assert PAdicVector(3, (Fraction(0), Fraction(2, 27))).shell() == 3
    assert PAdicVector(2, (Fraction(12), Fraction(3, 5))).shell() == 0


# -- integer shells: cached vector shells, carried scalars, image_shell ----------

SMALL_PRIMES = [2, 3, 5]


@st.composite
def shaped_matrices(draw):
    """(A, x): A scalar (built by `scalar` or from rows), diagonal, general or
    singular, with s = 0 among the scalars; x may have zero coordinates."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    n = draw(st.integers(1, 3))
    entry = st.fractions(min_value=-30, max_value=30, max_denominator=30)
    shape = draw(st.sampled_from(["scalar", "scalar-int", "scalar-rows", "diagonal", "general", "singular"]))
    if shape.startswith("scalar"):
        if shape == "scalar-int":
            s = draw(st.integers(-400, 400))
        else:
            s = draw(st.one_of(st.just(Fraction(0)), entry)) * Fraction(p) ** draw(st.integers(-6, 6))
        if shape == "scalar-rows":
            a = PAdicMatrix(p, tuple(tuple(s if i == j else 0 for j in range(n)) for i in range(n)))
        else:
            a = PAdicMatrix.scalar(p, n, s)
    else:
        rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
        if shape == "diagonal":
            rows = [[e if i == j else 0 for j, e in enumerate(row)] for i, row in enumerate(rows)]
        if shape == "singular":
            rows[-1] = [draw(entry) * e for e in rows[0]]
        a = PAdicMatrix(p, tuple(tuple(r) for r in rows))
    coord = st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=10**4))
    shift = draw(st.integers(-5, 5))
    x = PAdicVector(p, tuple(draw(coord) * Fraction(p) ** shift for _ in range(n)))
    return a, x


@settings(max_examples=200, deadline=None)
@given(case=shaped_matrices())
def test_image_shell_and_det_match_brute_force(case):
    a, x = case
    assert a.image_shell(x) == brute_shell(a.p, a.matvec(x).coords)
    d = a.det()
    assert isinstance(d, Fraction) and d == det_by_elimination(a.rows)
    # the carried scalar is not part of the value
    plain = PAdicMatrix(a.p, a.rows)
    assert a == plain and hash(a) == hash(plain) and repr(a) == repr(plain)


@settings(max_examples=100, deadline=None)
@given(
    p=st.sampled_from(SMALL_PRIMES),
    n=st.integers(1, 3),
    gamma=st.integers(-4, 4),
    depth=st.sampled_from([1, 2, 32]),
    seed=st.integers(0, 2**31),
)
def test_sampled_point_carries_its_shell(p, n, gamma, depth, seed):
    x = sample_sphere(random.Random(seed), p, n, gamma, depth)
    assert x.shell() == brute_shell(p, x.coords) == gamma
    # the cached shell is not part of the value
    plain = PAdicVector(p, x.coords)
    assert x == plain and hash(x) == hash(plain) and repr(x) == repr(plain)
    assert plain.shell() == gamma


@pytest.mark.parametrize("a", [
    PAdicMatrix.scalar(3, 2, Fraction(1, 3)),
    PAdicMatrix.scalar(3, 2, 0),
    PAdicMatrix(3, ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1)))),
])
def test_image_shell_rejects_mismatched_vector(a):
    for x in (PAdicVector(5, (Fraction(1), Fraction(1))),
              PAdicVector(3, (Fraction(1),)),
              PAdicVector(3, (Fraction(1), Fraction(1), Fraction(1)))):
        with pytest.raises(ValueError, match="mismatched matrix and vector"):
            a.image_shell(x)


def test_scalar_matrix_is_checked():
    for n in (0, -1):
        with pytest.raises(ValueError, match="square and nonempty"):
            PAdicMatrix.scalar(3, n, Fraction(1, 3))
    with pytest.raises(ValueError, match="prime"):
        PAdicMatrix.scalar(4, 2, 1)


@settings(max_examples=100, deadline=None)
@given(case=shaped_matrices())
def test_is_singular_matches_det(case):
    a, _ = case
    assert a.is_singular() == (a.det() == 0)


def _check_built_on_first_read(make, eager, name):
    """Each call of `make()` gives a fresh object lacking attribute `name`
    until it is read; every operation on one sees the eagerly built `eager`."""
    built = getattr(eager, name)

    def same(y):
        return hash(y) == hash(eager) and y == eager and getattr(y, name) == built

    checks = [
        lambda x: x == eager and eager == x,
        lambda x: hash(x) == hash(eager),
        lambda x: repr(x) == repr(eager),
        lambda x: getattr(x, name) == built,
        lambda x: not hasattr(x, "other"),
        lambda x: same(pickle.loads(pickle.dumps(x))),
        lambda x: same(copy.copy(x)),
        lambda x: same(copy.deepcopy(x)),
    ]
    for check in checks:
        x = make()
        assert name not in vars(x)
        assert check(x)
    x = make()
    assert type(getattr(x, name)) is tuple and getattr(x, name) is getattr(x, name)


@settings(max_examples=100, deadline=None)
@given(
    p=st.sampled_from(SMALL_PRIMES),
    n=st.integers(1, 3),
    s=st.one_of(st.just(0), st.integers(-400, 400), st.fractions(max_denominator=30)),
)
def test_scalar_matrix_builds_rows_on_first_read(p, n, s):
    eager = PAdicMatrix(p, tuple(tuple(s if i == j else 0 for j in range(n)) for i in range(n)))
    _check_built_on_first_read(lambda: PAdicMatrix.scalar(p, n, s), eager, "rows")
    rows = PAdicMatrix.scalar(p, n, s).rows
    assert all(type(e) is Fraction for row in rows for e in row)


@settings(max_examples=100, deadline=None)
@given(
    p=st.sampled_from(SMALL_PRIMES),
    n=st.integers(1, 3),
    gamma=st.integers(-4, 4),
    depth=st.sampled_from([1, 2, 32]),
    seed=st.integers(0, 2**31),
)
def test_sampled_point_builds_coords_on_first_read(p, n, gamma, depth, seed):
    def make():
        return sample_sphere(random.Random(seed), p, n, gamma, depth)

    eager = PAdicVector(p, make().coords)
    _check_built_on_first_read(make, eager, "coords")
    x = make()
    assert x.n == n and "coords" not in vars(x)
    assert all(type(c) is Fraction for c in x.coords)
