"""Matrix families: shell-scalar dilations, constant matrices and their exact nu."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialpadic.families import (
    ConstantMatrix,
    Pointwise,
    ScalarRadial,
    nu_of_family,
    nu_of_scenario,
    scalar_matrix,
)
from radialpadic.padic import PAdicMatrix, PAdicVector, log_norm, valuation


def _on_shell(p, n, gamma):
    """The point (p^-gamma, 0, ..., 0) of Q_p^n, on shell gamma."""
    return PAdicVector(p, (Fraction(p) ** -gamma,) + (Fraction(0),) * (n - 1))


# -- scalar-radial families ----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    slope=st.integers(-3, 3),
    offset=st.integers(-4, 4),
    gamma=st.integers(-6, 6),
)
def test_scalar_radial_norm_on_shell(p, slope, offset, gamma):
    fam = ScalarRadial(slope, offset)
    k = fam.k_on_shell(gamma)
    assert k == slope * gamma + offset
    s = fam.matrix_at(p, 1, _on_shell(p, 1, gamma)).rows[0][0]
    # |s|_p = p^k by construction
    assert log_norm(s, p) == k


def test_scalar_radial_matrix_is_scalar_multiple_of_identity():
    fam = ScalarRadial(1, -2)
    y = PAdicVector(3, (Fraction(9), Fraction(27)))  # shell -2 in Q_3^2 (max norm 1/9)
    a = fam.matrix_at(3, 2, y)
    s = Fraction(3) ** -fam.k_on_shell(-2)
    assert a.rows == PAdicMatrix.scalar(3, 2, s).rows
    assert a.log_norm() == fam.k_on_shell(-2)


def test_scalar_radial_matrix_is_one_object_per_p_n_k():
    # the matrix is cached on (p, n, k): equal keys give the identical object,
    # alternating p and n never cross keys, and families meeting on one k share it
    fam = ScalarRadial(1, -1)
    seen = {}
    for _ in range(2):
        for p in (2, 3):
            for n in (1, 2):
                for gamma in (-1, 0, 2):
                    k = fam.k_on_shell(gamma)
                    a = fam.matrix_at(p, n, _on_shell(p, n, gamma))
                    assert (a.p, a.n) == (p, n)
                    assert a == PAdicMatrix.scalar(p, n, Fraction(p) ** -k)
                    assert a is seen.setdefault((p, n, k), a)
                    assert a is scalar_matrix(p, n, k)
                    assert a is ScalarRadial(0, k).matrix_at(p, n, _on_shell(p, n, 5))
    assert len({id(a) for a in seen.values()}) == len(seen) == 12


def test_scalar_matrix_cache_admits_no_lookalike_prime():
    # the key is typed: after p = 2 is cached, 2.0 and True still meet check_prime
    fam = ScalarRadial(0, 1)
    y = _on_shell(2, 1, 0)
    assert fam.matrix_at(2, 1, y) is scalar_matrix(2, 1, 1)
    for bad in (2.0, True):
        with pytest.raises(ValueError, match="prime"):
            fam.matrix_at(bad, 1, y)
        with pytest.raises(ValueError, match="prime"):
            scalar_matrix(bad, 1, 1)


def test_scalar_radial_rejects_origin():
    fam = ScalarRadial(1, 0)
    with pytest.raises(ValueError):
        fam.matrix_at(2, 1, PAdicVector(2, (Fraction(0),)))


# -- constant matrices ---------------------------------------------------------


def test_constant_matrix_rejects_singular():
    bad = PAdicMatrix(2, ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))))
    with pytest.raises(ValueError):
        ConstantMatrix(bad)


def test_constant_matrix_norm_exponents():
    # diag(3, 1/3) over Q_3: ||A|| = |1/3|_3 = 3, ||A^-1|| = 3 as well
    a = PAdicMatrix(3, ((Fraction(3), Fraction(0)), (Fraction(0), Fraction(1, 3))))
    fam = ConstantMatrix(a)
    assert fam.k_norm == 1
    assert fam.k_inverse == 1
    assert valuation(a.det(), 3) == 0  # det = 1
    y = PAdicVector(3, (Fraction(1), Fraction(1)))
    assert fam.matrix_at(3, 2, y).rows == a.rows


def test_constant_matrix_nu_is_exact():
    a = PAdicMatrix(2, ((Fraction(1), Fraction(1, 4)), (Fraction(0), Fraction(1))))
    fam = ConstantMatrix(a)
    # ||A|| = 4 (entry 1/4), A^-1 = [[1, -1/4], [0, 1]] so ||A^-1|| = 4
    assert nu_of_family(fam) == fam.k_norm + fam.k_inverse == 4


# -- nu of a family ------------------------------------------------------------


def test_scalar_radial_nu_is_zero():
    assert nu_of_family(ScalarRadial(2, -3)) == 0
    assert nu_of_family(ScalarRadial(0, 7)) == 0


def test_pointwise_family_has_no_nu():
    a = PAdicMatrix(3, ((Fraction(9), Fraction(0)), (Fraction(0), Fraction(1))))
    with pytest.raises(TypeError, match="scalar-radial and constant-matrix"):
        nu_of_family(Pointwise(lambda y: a))
    with pytest.raises(TypeError):
        nu_of_scenario([ScalarRadial(1, 0), Pointwise(lambda y: a)])


def test_nu_of_scenario_takes_max():
    a = PAdicMatrix(2, ((Fraction(4),),))
    fams = [ScalarRadial(1, 0), ConstantMatrix(a)]
    # k_A = -2? ||A|| = |4|_2 = 1/4 -> log = -2; inverse norm = 4 -> log = 2; nu = 0
    assert nu_of_scenario(fams) == 0
    b = PAdicMatrix(2, ((Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(1))))
    fams2 = [ScalarRadial(0, 0), ConstantMatrix(b)]
    assert nu_of_scenario(fams2) == 2
