"""Radial power-log functions on Q_p^n and their exact shell calculus.

A radial function here is a finite sum of terms

    c * |x|_p^beta * (log_p |x|_p)^k            restricted to shells in [lo, hi]

identified with the map  shell gamma -> c * p^(gamma*beta) * gamma^k.  The
class is closed under addition, multiplication, scalar multiplication, range
restriction, and dilation x -> t*x, which is what makes Hausdorff operators
with scalar-radial matrix families exactly computable on it.

Functions are kept in canonical form: for each exponent pair (beta, k) the
shell line is split into maximal intervals with a single combined coefficient,
zero coefficients dropped, adjacent equal-coefficient intervals merged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .numeric import ExtendedValue, Number, is_exact, ppow
from .padic import check_prime
from .series import power_log_sum

_NEG = -(10 ** 9)  # sentinel ordering keys for unbounded interval ends
_POS = 10 ** 9


@dataclass(frozen=True)
class RadialTerm:
    """One term c * |x|^beta * (log_p|x|)^k supported on shells lo..hi."""

    coeff: Number
    beta: Number
    logpow: int
    lo: int | None = None
    hi: int | None = None

    def __post_init__(self) -> None:
        if self.logpow < 0:
            raise ValueError("log power must be nonnegative")
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError("empty shell range")

    def active(self, gamma: int) -> bool:
        return (self.lo is None or gamma >= self.lo) and (self.hi is None or gamma <= self.hi)

    def value(self, p: int, gamma: int) -> Number:
        v = self.coeff * ppow(p, gamma * self.beta)
        if self.logpow:
            v = v * gamma ** self.logpow
        return v


def _lo_key(lo: int | None) -> int:
    return _NEG if lo is None else lo


def _hi_key(hi: int | None) -> int:
    return _POS if hi is None else hi


def _canonicalize(terms: Iterable[RadialTerm]) -> tuple[RadialTerm, ...]:
    groups: dict[tuple, list[RadialTerm]] = {}
    for t in terms:
        if t.coeff == 0:
            continue
        groups.setdefault((t.beta, t.logpow), []).append(t)
    out: list[RadialTerm] = []
    for (beta, k), ts in groups.items():
        # sweep: split the line at every range endpoint
        edges = sorted({e for t in ts for e in _edges(t)})
        if not edges:
            c = _sum_coeffs([t.coeff for t in ts])
            if c != 0:
                out.append(RadialTerm(c, beta, k, None, None))
            continue
        pieces: list[tuple[int | None, int | None, Number]] = []
        bounds = [None] + edges + [None]
        for i in range(len(bounds) - 1):
            lo = bounds[i]
            hi = bounds[i + 1] - 1 if bounds[i + 1] is not None else None
            if lo is not None and hi is not None and lo > hi:
                continue
            rep = hi if lo is None else lo
            c = _sum_coeffs([t.coeff for t in ts if t.active(rep)])
            pieces.append((lo, hi, c))
        # merge adjacent pieces with identical coefficients, drop zeros
        merged: list[tuple[int | None, int | None, Number]] = []
        for lo, hi, c in pieces:
            if merged and merged[-1][2] == c and merged[-1][1] is not None and lo == merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], hi, merged[-1][2])
            else:
                merged.append((lo, hi, c))
        for lo, hi, c in merged:
            if c != 0:
                out.append(RadialTerm(c, beta, k, lo, hi))
    out.sort(key=lambda t: (float(t.beta), t.logpow, _lo_key(t.lo), _hi_key(t.hi)))
    return tuple(out)


def _edges(t: RadialTerm) -> list[int]:
    es = []
    if t.lo is not None:
        es.append(t.lo)
    if t.hi is not None:
        es.append(t.hi + 1)
    return es


def _sum_coeffs(cs: Sequence[Number]) -> Number:
    if not cs:
        return 0
    if all(is_exact(c) for c in cs):
        return sum(cs, Fraction(0))
    return math.fsum(float(c) for c in cs)


@dataclass(frozen=True)
class RadialFunction:
    """A canonical finite sum of radial power-log terms on Q_p^n."""

    p: int
    n: int
    terms: tuple[RadialTerm, ...] = ()

    def __post_init__(self) -> None:
        check_prime(self.p)
        if self.n < 1:
            raise ValueError("dimension must be positive")
        object.__setattr__(self, "terms", _canonicalize(self.terms))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(p: int, n: int) -> "RadialFunction":
        return RadialFunction(p, n, ())

    @staticmethod
    def power(
        p: int, n: int, coeff: Number = 1, beta: Number = 0,
        lo: int | None = None, hi: int | None = None, logpow: int = 0,
    ) -> "RadialFunction":
        return RadialFunction(p, n, (RadialTerm(coeff, beta, logpow, lo, hi),))

    @staticmethod
    def constant(p: int, n: int, c: Number) -> "RadialFunction":
        return RadialFunction.power(p, n, c, 0)

    @staticmethod
    def log(p: int, n: int, coeff: Number = 1) -> "RadialFunction":
        return RadialFunction.power(p, n, coeff, 0, logpow=1)

    @staticmethod
    def chi_ball(p: int, n: int, gamma: int) -> "RadialFunction":
        return RadialFunction.power(p, n, 1, 0, hi=gamma)

    @staticmethod
    def chi_sphere(p: int, n: int, gamma: int) -> "RadialFunction":
        return RadialFunction.power(p, n, 1, 0, lo=gamma, hi=gamma)

    # -- evaluation --------------------------------------------------------

    def value_on_shell(self, gamma: int) -> Number:
        vals = [t.value(self.p, gamma) for t in self.terms if t.active(gamma)]
        if not vals:
            return 0
        if all(is_exact(v) for v in vals):
            return sum(vals, Fraction(0))
        return math.fsum(float(v) for v in vals)

    def __call__(self, gamma: int) -> Number:
        return self.value_on_shell(gamma)

    def is_zero(self) -> bool:
        return not self.terms

    def breakpoints(self) -> list[int]:
        """Sorted shell indices where the active term set can change."""
        return sorted({e for t in self.terms for e in _edges(t)})

    def support_bounds(self) -> tuple[int | None, int | None]:
        """(lo, hi) hull of all term ranges; None means unbounded."""
        if not self.terms:
            return (0, -1)  # empty marker: lo > hi
        lo = None if any(t.lo is None for t in self.terms) else min(t.lo for t in self.terms)
        hi = None if any(t.hi is None for t in self.terms) else max(t.hi for t in self.terms)
        return (lo, hi)

    def is_single_power(self) -> bool:
        return (
            len(self.terms) == 1
            and self.terms[0].logpow == 0
            and self.terms[0].lo is None
            and self.terms[0].hi is None
        )

    # -- algebra -----------------------------------------------------------

    def _check_like(self, other: "RadialFunction") -> None:
        if self.p != other.p or self.n != other.n:
            raise ValueError("mismatched (p, n) contexts")

    def __add__(self, other: "RadialFunction") -> "RadialFunction":
        self._check_like(other)
        return RadialFunction(self.p, self.n, self.terms + other.terms)

    def __neg__(self) -> "RadialFunction":
        return self.scale(-1)

    def __sub__(self, other: "RadialFunction") -> "RadialFunction":
        return self + (-other)

    def scale(self, c: Number) -> "RadialFunction":
        return RadialFunction(
            self.p, self.n,
            tuple(RadialTerm(c * t.coeff, t.beta, t.logpow, t.lo, t.hi) for t in self.terms),
        )

    def __mul__(self, other: "RadialFunction") -> "RadialFunction":
        self._check_like(other)
        prods = []
        for a in self.terms:
            for b in other.terms:
                lo = _max_lo(a.lo, b.lo)
                hi = _min_hi(a.hi, b.hi)
                if lo is not None and hi is not None and lo > hi:
                    continue
                prods.append(RadialTerm(a.coeff * b.coeff, a.beta + b.beta, a.logpow + b.logpow, lo, hi))
        return RadialFunction(self.p, self.n, tuple(prods))

    def restrict(self, lo: int | None, hi: int | None) -> "RadialFunction":
        """Pointwise multiplication by the indicator of shells lo..hi."""
        clipped = []
        for t in self.terms:
            nlo = _max_lo(t.lo, lo)
            nhi = _min_hi(t.hi, hi)
            if nlo is not None and nhi is not None and nlo > nhi:
                continue
            clipped.append(RadialTerm(t.coeff, t.beta, t.logpow, nlo, nhi))
        return RadialFunction(self.p, self.n, tuple(clipped))

    def dilate(self, d: int) -> "RadialFunction":
        """The function x -> f(t x) for any t with |t|_p = p^d.

        On shell v the dilated function takes f's value on shell v + d, so
        each term picks up p^(d*beta), its range shifts down by d, and the
        log factor (v + d)^k expands binomially into powers of v.
        """
        new_terms = []
        for t in self.terms:
            scale = t.coeff * ppow(self.p, d * t.beta)
            lo = None if t.lo is None else t.lo - d
            hi = None if t.hi is None else t.hi - d
            for j in range(t.logpow + 1):
                c = scale * comb(t.logpow, j) * d ** (t.logpow - j)
                new_terms.append(RadialTerm(c, t.beta, j, lo, hi))
        return RadialFunction(self.p, self.n, tuple(new_terms))


def _max_lo(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _min_hi(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


# -- Haar measure and integration ------------------------------------------


def ball_measure(p: int, n: int, gamma: int) -> Fraction:
    """Haar measure of the ball B_gamma = {|x|_p <= p^gamma}: p^(n*gamma)."""
    return Fraction(p) ** (n * gamma)


def sphere_measure(p: int, n: int, gamma: int) -> Fraction:
    """Haar measure of the shell S_gamma = {|x|_p = p^gamma}."""
    return ball_measure(p, n, gamma) * (1 - Fraction(p) ** (-n))


def _sum_weighted_shells(f: RadialFunction, extra_exp: int, unit: Number) -> ExtendedValue:
    """sum_gamma f(gamma) * unit * p^(extra_exp * gamma) with honest divergence.

    Divergence is resolved per tail end: among the terms whose tail diverges
    toward one end, the fastest-growing one fixes the sign (a slower term can
    never flip a divergent partial sum).  Opposite ends diverging to opposite
    signs have no signed limit and raise ArithmeticError.
    """
    finite_exact = Fraction(0)
    finite_float: list[float] = []
    down: list[tuple[Number, int, Number]] = []  # (ratio, logpow, coeff) at -inf
    up: list[tuple[Number, int, Number]] = []

    def add_finite(v: Number) -> None:
        nonlocal finite_exact
        if is_exact(v):
            finite_exact += v
        else:
            finite_float.append(float(v))

    for t in f.terms:
        ratio = ppow(f.p, t.beta + extra_exp)
        coeff = t.coeff * unit
        lo, hi = t.lo, t.hi
        if lo is None and hi is None:
            lo_parts: list[tuple[int | None, int | None]] = [(None, -1), (0, None)]
        else:
            lo_parts = [(lo, hi)]
        for a, b in lo_parts:
            if a is None:
                if ratio > 1:
                    add_finite(coeff * power_log_sum(ratio, t.logpow, None, b).value)
                else:
                    down.append((ratio, t.logpow, coeff))
            elif b is None:
                if ratio < 1:
                    add_finite(coeff * power_log_sum(ratio, t.logpow, a, None).value)
                else:
                    up.append((ratio, t.logpow, coeff))
            else:
                add_finite(coeff * power_log_sum(ratio, t.logpow, a, b).value)

    signs = set()
    if down:
        # toward -inf the smallest ratio grows fastest; gamma^k carries (-1)^k
        r, k, c = min(down, key=lambda it: (float(it[0]), -it[1]))
        signs.add(1 if (c > 0) == (k % 2 == 0) else -1)
    if up:
        r, k, c = max(up, key=lambda it: (float(it[0]), it[1]))
        signs.add(1 if c > 0 else -1)
    if len(signs) == 2:
        raise ArithmeticError("tails diverge to opposite infinities; no signed value")
    if signs:
        return ExtendedValue.infinite(signs.pop())
    if finite_float:
        return ExtendedValue.finite(math.fsum(finite_float + [float(finite_exact)]))
    return ExtendedValue.finite(finite_exact)


def integrate_radial(f: RadialFunction) -> ExtendedValue:
    """Exact integral of f over Q_p^n against Haar measure.

    Each term contributes  c * (1 - p^-n) * sum_gamma gamma^k (p^(beta+n))^gamma.
    Divergent integrals come back as signed infinities.
    """
    return _sum_weighted_shells(f, f.n, 1 - Fraction(f.p) ** (-f.n))


def shell_sum(f: RadialFunction) -> ExtendedValue:
    """Plain sum of f over all shells (no measure factor)."""
    return _sum_weighted_shells(f, 0, 1)
