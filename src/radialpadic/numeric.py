"""Two-layer numeric tower: exact rationals where possible, float64 elsewhere.

Every quantity in this package is either an ``int``/``Fraction`` (exact) or a
``float`` (inexact, accumulated with compensated summation).  Mixed arithmetic
degrades to float.  Infinite and divergent results are carried explicitly by
``ExtendedValue`` rather than raised, so that divergence propagates into norms
and reports as data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Number = Union[int, Fraction, float]


class FloatRangeError(OverflowError):
    """A float result that lies outside the float64 range."""


def is_exact(x: Number) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def integral_part(x: Number) -> int | None:
    """Return x as an int when x is an exact integer, else None."""
    if isinstance(x, bool):
        return None
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return None


def ppow(p: int, e: Number) -> Number:
    """p**e: exact for integral exponents; for other rational exponents a
    Fraction carrying the exact integral-part power times a float-precision
    correction in [1, p), so deep-shell magnitudes survive far outside the
    float64 range; plain float for float exponents."""
    ei = integral_part(e)
    if ei is not None:
        if ei >= 0:
            return p ** ei
        return Fraction(1, p ** (-ei))
    if is_exact(e):
        fl = math.floor(e)
        return Fraction(ppow(p, fl)) * Fraction(float(p) ** float(e - fl))
    return fpow(float(p), float(e))


def fpow(base: float, e: float) -> float:
    """Float power that saturates to 0.0 / inf instead of raising."""
    if base == 0.0:
        if e > 0:
            return 0.0
        if e == 0:
            return 1.0
        return math.inf
    try:
        return base ** e
    except OverflowError:
        lg = math.log(abs(base)) * e
        return math.inf if lg > 0 else 0.0


def float_sat(x: Number) -> float:
    """float(x) that saturates to +-inf instead of raising on huge rationals."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def log_exact(x: Number) -> float:
    """log(x) for x > 0 without overflow or underflow on extreme rationals."""
    if is_exact(x):
        f = Fraction(x)
        return math.log(f.numerator) - math.log(f.denominator)
    return math.log(float(x))


def exp_sat(x: float) -> float:
    """exp(x) saturating to inf / 0.0 instead of raising."""
    if math.isinf(x):
        return math.inf if x > 0 else 0.0
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def abs_pow(c: Number, q: Number) -> Number:
    """|c|**q, exact when c is rational and q a nonnegative integer."""
    qi = integral_part(q)
    if qi is not None and qi >= 0 and is_exact(c):
        return abs(Fraction(c)) ** qi
    if is_exact(c) and c != 0:
        fc = float_sat(abs(Fraction(c)))
        if math.isinf(fc) or fc == 0.0:
            # the base is off the float scale; take the power in log space
            return exp_sat(float(q) * log_exact(abs(Fraction(c))))
        return fpow(fc, float(q))
    return fpow(abs(float(c)), float(q))


def nth_root(x: Number, q: Number) -> Number:
    """x**(1/q) for x >= 0; exact only in the trivial q == 1 case."""
    if isinstance(x, float) and math.isinf(x):
        return math.inf
    if x < 0:
        raise ValueError("nth_root of negative value")
    if q == 1:
        return x
    if is_exact(x) and x != 0:
        fx = float_sat(x)
        if math.isinf(fx) or fx == 0.0:
            # the radicand is off the float scale; take the root in log space
            return exp_sat(log_exact(x) / float(q))
        return fpow(fx, 1.0 / float(q))
    return fpow(float(x), 1.0 / float(q))


@dataclass(frozen=True)
class ExtendedValue:
    """A finite number or a signed infinity, with a divergence marker.

    ``truncated`` marks a finite number obtained by cutting a divergent tail
    at a window edge: the value is a windowed diagnostic and the untruncated
    quantity is infinite.
    """

    value: Number
    divergent: bool = False
    truncated: bool = False

    @staticmethod
    def finite(v: Number) -> "ExtendedValue":
        return ExtendedValue(v)

    @staticmethod
    def infinite(sign: int = 1, divergent: bool = True) -> "ExtendedValue":
        return ExtendedValue(math.inf if sign >= 0 else -math.inf, divergent=divergent)

    @property
    def is_finite(self) -> bool:
        return not (isinstance(self.value, float) and math.isinf(self.value))

    @property
    def exact(self) -> bool:
        return self.is_finite and is_exact(self.value)

    def __float__(self) -> float:
        return float_sat(self.value)

    def __add__(self, other: "ExtendedValue") -> "ExtendedValue":
        if not isinstance(other, ExtendedValue):
            return NotImplemented
        if self.is_finite and other.is_finite:
            return ExtendedValue(
                self.value + other.value,
                truncated=self.truncated or other.truncated,
            )
        if self.is_finite:
            return other
        if other.is_finite:
            return self
        if float(self.value) == float(other.value):
            return self
        raise ArithmeticError("sum of opposite infinities is undefined")

    def scaled(self, c: Number) -> "ExtendedValue":
        if not self.is_finite:
            if c == 0:
                return ExtendedValue(0)
            sign = 1 if (float(self.value) > 0) == (c > 0) else -1
            return ExtendedValue.infinite(sign, divergent=self.divergent)
        return ExtendedValue(c * self.value, self.divergent, self.truncated)
