"""Exact numbers in, floats out.

Every datum of this package, a coefficient, an exponent or a norm exponent,
is an ``int`` or a ``Fraction``; a float or a bool is refused with a
``ValueError`` that names the field (require_exact).  Closed forms stay
exact.  Floats appear only as outputs: norm values, numeric-tail sums,
windowed masses and Monte Carlo estimates, and those are accumulated with
compensated summation.  A fractional power of p is the one exception inside
the algebra: ppow carries its fractional part as a float-precision
correction.  Infinite and divergent results are carried explicitly by
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


def require_exact(x: Number, name: str) -> Number:
    """x itself when it is an int or a Fraction; a ValueError naming ``name``
    for anything else, a float or a bool included."""
    if not is_exact(x):
        raise ValueError(f"{name} must be an int or a Fraction, got {type(x).__name__} {x!r}")
    return x


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
    """p**e for an exact e: exact for an integral exponent; for any other a
    Fraction carrying the exact integral-part power times a float-precision
    correction in [1, p), so deep-shell magnitudes survive far outside the
    float64 range."""
    ei = integral_part(e)
    if ei is not None:
        if ei >= 0:
            return p ** ei
        return Fraction(1, p ** (-ei))
    return Fraction(*ppow_ratio(p, e.numerator, e.denominator))


def ppow_ratio(p: int, num: int, den: int) -> tuple[int, int]:
    """Integers (a, b), not reduced, with a / b == ppow(p, num / den) for
    den > 0: p to the floor of the exponent, times the float correction of
    its fractional part."""
    fl, rem = divmod(num, den)
    a, b = (p ** fl, 1) if fl >= 0 else (1, p ** -fl)
    if rem:
        # rem / den is the correctly rounded float of the fractional part
        c, d = (float(p) ** (rem / den)).as_integer_ratio()
        a, b = a * c, b * d
    return a, b


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
    """|c|**q for exact c and q: exact for an integer q (but 0 to a negative
    power, which is inf), else a float."""
    c = abs(Fraction(c))
    qi = integral_part(q)
    if qi is not None and (qi >= 0 or c):
        return c ** qi
    if c == 0:
        return fpow(0.0, float(q))
    fc = float_sat(c)
    if math.isinf(fc) or fc == 0.0:
        # the base is off the float scale; take the power in log space
        return exp_sat(float(q) * log_exact(c))
    return fpow(fc, float(q))


def exact_root(x: Number, k: int) -> Fraction | None:
    """The k-th root of a rational x >= 0 when it is rational, else None: the
    integer roots of the numerator and the denominator (Newton's method on
    integers), each checked by its k-th power."""
    x = Fraction(x)
    roots = [_int_root(m, k) for m in (x.numerator, x.denominator)]
    return None if None in roots else Fraction(*roots)


def _int_root(m: int, k: int) -> int | None:
    """The integer r with r**k == m >= 0, or None when there is none."""
    if m < 2:
        return m
    r = 1 << -(-m.bit_length() // k)  # at least the root
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r if r ** k == m else None
        r = s


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

    def scaled(self, c: Number) -> "ExtendedValue":
        if not self.is_finite:
            if c == 0:
                return ExtendedValue(0)
            sign = 1 if (float(self.value) > 0) == (c > 0) else -1
            return ExtendedValue.infinite(sign, divergent=self.divergent)
        return ExtendedValue(c * self.value, self.divergent, self.truncated)
