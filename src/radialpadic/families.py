"""Matrix families A(y) parameterizing Hausdorff operators.

Three kinds, in decreasing order of exact computability:

  * ScalarRadial: A(y) = s(y) I with log_p ||A(y)|| = slope * shell(y) + offset.
    Acting on radial functions this is a pure shell dilation, so operators
    built from these families stay inside the radial algebra and every norm
    is exactly computable.  ||A|| ||A^-1|| = 1 identically.
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


@lru_cache(maxsize=1024)
def _p_power(p: int, e: int) -> Fraction:
    """p^e as a Fraction, kept per (p, e): both decide the value."""
    return Fraction(p) ** e


@dataclass(frozen=True)
class ScalarRadial:
    """A(y) = s(y) I with ||A(y)||_p = p^(slope * shell(y) + offset) on each shell."""

    slope: int
    offset: int

    def k_on_shell(self, gamma: int) -> int:
        """log_p ||A(y)||_p for y on shell gamma."""
        return self.slope * gamma + self.offset

    def scalar_on_shell(self, p: int, gamma: int) -> Fraction:
        """A concrete scalar with the required norm: s = p^(-k).

        The power is built once per (p, -k) and then taken from a bounded cache.
        """
        return _p_power(p, -self.k_on_shell(gamma))

    def matrix_at(self, p: int, n: int, y: PAdicVector) -> PAdicMatrix:
        shell = y.shell()
        if shell == -math.inf:
            raise ValueError("family is undefined at the origin")
        return PAdicMatrix.scalar(p, n, self.scalar_on_shell(p, int(shell)))


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
