"""Matrix families A(y) parameterizing Hausdorff operators.

Three kinds, in decreasing order of exact computability:

  * ScalarRadial: A(y) = s(y) I with log_p ||A(y)|| = slope * shell(y) + offset.
    Acting on radial functions this is a pure shell dilation, so operators
    built from these families stay inside the radial algebra and every norm
    is exactly computable.  ||A|| ||A^-1|| = 1 identically.  Its matrix on a
    shell, s = p^(-k), is scalar_matrix(p, n, k), built once per (p, n, k).
  * ConstantMatrix: A(y) = A fixed and invertible.  Operator values at a
    point remain exact; outputs are no longer radial.
  * Pointwise: an opaque evaluator y -> A(y).  Only Monte Carlo estimates
    are available, and the distortion exponent nu is not computed for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .padic import PAdicMatrix, PAdicVector


@lru_cache(maxsize=1024, typed=True)
def scalar_matrix(p: int, n: int, k: int) -> PAdicMatrix:
    """p^(-k) I on Q_p^n, whose norm is p^k: the matrix of a scalar-radial
    family on a shell where log_p ||A(y)|| = k.

    Built once per (p, n, k) and kept in a bounded cache for the life of the
    process; the matrix is immutable, so every caller may share it.  The key
    is typed, so p = 2.0 or True never reaches the entry for 2: check_prime
    rejects it.
    """
    return PAdicMatrix.scalar(p, n, Fraction(p) ** -k)


@dataclass(frozen=True)
class ScalarRadial:
    """A(y) = s(y) I with ||A(y)||_p = p^(slope * shell(y) + offset) on each shell."""

    slope: int
    offset: int

    def k_on_shell(self, gamma: int) -> int:
        """log_p ||A(y)||_p for y on shell gamma."""
        return self.slope * gamma + self.offset

    def matrix_at(self, p: int, n: int, y: PAdicVector) -> PAdicMatrix:
        """scalar_matrix(p, n, k) with k = k_on_shell(shell(y)): one shared
        object for every y on a shell."""
        shell = y.shell()
        if shell == -math.inf:
            raise ValueError("family is undefined at the origin")
        return scalar_matrix(p, n, self.k_on_shell(int(shell)))


@dataclass(frozen=True)
class ConstantMatrix:
    """A(y) = A for an invertible rational matrix A."""

    matrix: PAdicMatrix

    def __post_init__(self) -> None:
        if self.matrix.is_singular():
            raise ValueError("family matrix must be invertible")

    @property
    def k_norm(self) -> int:
        return int(self.matrix.log_norm())

    @property
    def k_inverse(self) -> int:
        return int(self.matrix.inverse().log_norm())

    def matrix_at(self, p: int, n: int, y: PAdicVector) -> PAdicMatrix:
        return self.matrix


@dataclass(frozen=True)
class Pointwise:
    """An arbitrary measurable family given by an evaluator y -> A(y)."""

    evaluator: Callable[[PAdicVector], PAdicMatrix]

    def matrix_at(self, p: int, n: int, y: PAdicVector) -> PAdicMatrix:
        return self.evaluator(y)


Family = ScalarRadial | ConstantMatrix | Pointwise


def nu_of_family(family: Family) -> int:
    """Least nu with ||A(y)|| ||A(y)^-1|| <= p^nu for every y, exactly.

    That is 0 for ScalarRadial and k_norm + k_inverse for ConstantMatrix; a
    Pointwise family raises TypeError.
    """
    if isinstance(family, ScalarRadial):
        return 0
    if isinstance(family, ConstantMatrix):
        return family.k_norm + family.k_inverse
    raise TypeError("nu is computed for scalar-radial and constant-matrix families only")


def nu_of_scenario(families: Sequence[Family]) -> int:
    return max(nu_of_family(f) for f in families)
