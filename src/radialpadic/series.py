"""Closed forms for sums of the shape sum_{g=lo}^{hi} g^k * r^g with r > 0.

These sums are what every shell decomposition in this package reduces to: a
radial power-log term evaluated on shell g contributes c * g^k * r^g with
ratio r = p^(beta + n) (or p^beta for plain shell sums).

Every closed form telescopes one antidifference: for each r > 0 and t >= 0
exactly one polynomial P, of degree t (t + 1 with P(0) = 0 when r == 1),
satisfies r^g P(g) - r^(g-1) P(g-1) = g^t r^g for every integer g, so

    sum_{g=a}^{b} g^t r^g = r^b P(b) - r^(a-1) P(a-1).

r^g P(g) vanishes toward -inf when r > 1 and toward +inf when r < 1, which
gives both infinite tails.  Short finite ranges are summed directly.  The
ratio r is exact (an int or a Fraction), and so is every closed form.

A tail toward -inf converges iff r > 1; toward +inf iff r < 1.  r == 1 with a
nonzero coefficient always diverges.  Divergent results are returned as
signed-infinite ExtendedValues, never raised.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .numeric import ExtendedValue, Number, require_exact

#: ranges longer than this are summed by telescoping the antidifference
_DIRECT_SUM_LIMIT = 4096


def antidifference(r: Number, t: int) -> list[Number]:
    """Coefficients, lowest degree first, of the P with
    r^g P(g) - r^(g-1) P(g-1) = g^t r^g on the whole shell line.

    Comparing coefficients of g^i in P(g) - P(g-1)/r = g^t gives a triangular
    system, solved from the top degree down.
    """
    if require_exact(r, "ratio") <= 0:
        raise ValueError("ratio must be positive")
    shift = 1 if r == 1 else 0
    r = Fraction(r)
    a = [r * 0] * (t + 1 + shift)
    for i in range(t, -1, -1):
        acc = r if i == t else r * 0
        for j in range(i + 1 + shift, t + 1 + shift):
            acc += (-1) ** (j - i) * comb(j, i) * a[j]
        # row i pivots on (r - 1) a_i, or on (i + 1) a_(i+1) when r == 1
        a[i + shift] = acc / (i + 1 if shift else r - 1)
    return a


def antidifference_at(r: Number, poly: list[Number], g: int) -> Number:
    """r^g P(g) for the antidifference P = ``poly`` of ratio r."""
    acc = poly[-1]
    for c in reversed(poly[:-1]):
        acc = acc * g + c
    return Fraction(r) ** g * acc


def _direct(r: Number, k: int, lo: int, hi: int) -> Number:
    r = Fraction(r)
    return sum((g ** k if k else 1) * r ** g for g in range(lo, hi + 1))


def power_log_sum(r: Number, k: int, lo: int | None, hi: int | None) -> ExtendedValue:
    """sum_{g=lo}^{hi} g^k r^g as an ExtendedValue; endpoints None mean +-inf.

    Divergent sums come back as signed infinities; the sign is that of the
    dominant end (g^k is eventually positive toward +inf and has sign (-1)^k
    toward -inf).  A doubly-infinite divergent sum with k odd has no single
    sign and raises ArithmeticError.
    """
    if require_exact(r, "ratio") <= 0:
        raise ValueError("ratio must be positive")
    if lo is not None and hi is not None:
        if lo > hi:
            return ExtendedValue.finite(0)
        if hi - lo <= _DIRECT_SUM_LIMIT:
            return ExtendedValue.finite(_direct(r, k, lo, hi))
        poly = antidifference(r, k)
        return ExtendedValue.finite(
            antidifference_at(r, poly, hi) - antidifference_at(r, poly, lo - 1)
        )
    if lo is None and hi is None:
        if k % 2 == 0:
            return ExtendedValue.infinite(+1)
        raise ArithmeticError("doubly infinite sum with odd log power has no signed limit")
    if lo is None:
        if r > 1:
            return ExtendedValue.finite(antidifference_at(r, antidifference(r, k), hi))
        return ExtendedValue.infinite(+1 if k % 2 == 0 else -1)
    if r < 1:
        return ExtendedValue.finite(-antidifference_at(r, antidifference(r, k), lo - 1))
    return ExtendedValue.infinite(+1)
