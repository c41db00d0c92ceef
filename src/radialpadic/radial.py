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
_MAX_EDGE = 10 ** 6  # farthest shell an eventual-sign certificate may need


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
    """The canonical terms of the sum of ``terms``.

    Terms with a zero coefficient are dropped and the rest grouped on
    (beta, logpow) as a dict key, so exponents that compare equal share a
    group (0 and 0.0, Fraction(1, 2) and 0.5; Fraction(1, 3) and 1/3 do
    not).  A group is named after the beta and logpow objects of its first
    term, so which spelling survives depends on the input order.  Each
    group's shell line is cut at every range end; a piece's coefficient is
    _sum_coeffs of the coefficients covering it, in input order: a Fraction
    when all are int or Fraction, else a float (a bool counts as inexact).
    Adjacent pieces with equal coefficients merge and keep the first one's
    coefficient; zero pieces are dropped.  The terms come out sorted on
    (float(beta), logpow, lo, hi), unbounded ends outermost; the sort is
    stable, so groups whose betas share a float keep the input order.

    A piece that one term covers over exactly that term's range, with a
    Fraction or float coefficient and the group's beta and logpow objects,
    is that term object itself.
    """
    groups: dict[tuple, list[RadialTerm]] = {}
    for t in terms:
        if t.coeff == 0:
            continue
        groups.setdefault((t.beta, t.logpow), []).append(t)
    out: list[RadialTerm] = []
    for (beta, k), ts in groups.items():
        if len(ts) == 1:
            t = ts[0]
            out.append(t if _keeps_coeff(t.coeff) else
                       RadialTerm(_sum_coeffs((t.coeff,)), beta, k, t.lo, t.hi))
        else:
            out += _sweep(ts, beta, k)
    if len(out) > 1:
        out.sort(key=lambda t: (float(t.beta), t.logpow, _lo_key(t.lo), _hi_key(t.hi)))
    return tuple(out)


def _keeps_coeff(c: Number) -> bool:
    """Whether _sum_coeffs((c,)) is c itself, in value and type."""
    return type(c) is Fraction or type(c) is float


def _sweep(ts: list[RadialTerm], beta: Number, k: int) -> list[RadialTerm]:
    """One group's canonical terms, from one pass over its pieces from the
    left that keeps the set of terms covering the current piece."""
    starts = sorted({e for t in ts for e in _edges(t)})
    active = [i for i, t in enumerate(ts) if t.lo is None]
    opening = sorted((t.lo, i) for i, t in enumerate(ts) if t.lo is not None)
    nxt = 0
    pieces: list[list] = []  # [lo, hi, coeff, term reused or None]
    prev = None  # the piece just left, while nonzero
    lo = None
    for j in range(len(starts) + 1):
        hi = starts[j] - 1 if j < len(starts) else None
        if lo is not None:
            active = [i for i in active if ts[i].hi is None or ts[i].hi >= lo]
            while nxt < len(opening) and opening[nxt][0] == lo:
                active.append(opening[nxt][1])
                nxt += 1
        src = None
        if len(active) == 1 and _keeps_coeff(ts[active[0]].coeff):
            t = ts[active[0]]
            c = t.coeff
            if t.lo == lo and t.hi == hi and t.beta is beta and t.logpow is k:
                src = t
        else:
            c = _sum_coeffs([ts[i].coeff for i in sorted(active)])
        if c == 0:
            prev = None
        elif prev is not None and prev[2] == c:
            prev[1], prev[3] = hi, None
        else:
            prev = [lo, hi, c, src]
            pieces.append(prev)
        lo = hi + 1 if hi is not None else None
    return [src if src is not None else RadialTerm(c, beta, k, lo, hi) for lo, hi, c, src in pieces]


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


# -- sign certification for power-log expressions ----------------------------


def _eventual_sign(fn: RadialFunction, end: int, start_edge: int) -> tuple[int, int]:
    """(sign, edge): the constant sign of fn(g) for every |g| >= edge toward `end`.

    The dominant exponent group is bounded below by half its leading monomial
    beyond its root bound; every subordinate group is bounded above and decays
    geometrically relative to it, so the first margin-2 win in the scan
    certifies the sign from that shell outward.  Every caller visits the
    shells up to the edge, so an edge beyond _MAX_EDGE (a lead that is a float
    cancellation residue, say) raises ValueError instead of running on.
    """
    if not fn.terms:
        return 0, max(1, start_edge)
    groups: dict[Number, dict[int, Number]] = {}
    for t in fn.terms:
        groups.setdefault(t.beta, {})[t.logpow] = (
            groups.get(t.beta, {}).get(t.logpow, 0) + t.coeff
        )
    betas = sorted(groups, key=float)
    bdom = betas[0] if end < 0 else betas[-1]
    pdom = groups[bdom]
    kd = max(pdom)
    lead = pdom[kd]
    lead_eff = -lead if (end < 0 and kd % 2) else lead
    # only coefficients opposing the lead (after g -> -g for the left end)
    # can flip the sign of the dominant polynomial; same-sign ones reinforce it
    opposing = 0.0
    for k, c in pdom.items():
        if k == kd:
            continue
        c_eff = -c if (end < 0 and k % 2) else c
        if (float(c_eff) > 0) != (float(lead_eff) > 0):
            opposing += abs(float(c))
    r_dom = max(1.0, 2.0 * opposing / abs(float(lead)))
    sign = 1 if lead_eff > 0 else -1
    subs = []
    for b in betas:
        if b == bdom:
            continue
        delta = abs(float(bdom) - float(b))
        s_abs = sum(abs(float(c)) for c in groups[b].values())
        if s_abs == 0:
            continue
        subs.append((delta, math.log(s_abs), max(groups[b])))
    if not subs:
        return sign, _checked_edge(max(int(math.ceil(r_dom)) + 1, start_edge, 1))
    lnp = math.log(fn.p)
    g0 = max([r_dom] + [max(1.0, (km - kd) / (d * lnp)) for d, _, km in subs])
    g = _checked_edge(max(int(math.ceil(g0)) + 1, start_edge, 1))
    log_lead = math.log(abs(float(lead)) / 2.0)
    while True:
        log_dom = log_lead + kd * math.log(g)
        log_sub = max(ls + km * math.log(g) - d * lnp * g for d, ls, km in subs)
        if log_dom > math.log(2.0 * len(subs)) + log_sub:
            return sign, g
        g = _checked_edge(2 * g)


def _checked_edge(edge: int) -> int:
    if edge > _MAX_EDGE:
        raise ValueError(f"eventual sign not certified within {_MAX_EDGE} shells")
    return edge


def _end_part(f: RadialFunction, end: int) -> RadialFunction:
    """The restriction of f beyond all its breakpoints toward one end."""
    bps = f.breakpoints()
    if end < 0:
        return f.restrict(None, (min(bps) - 1) if bps else 0)
    return f.restrict((max(bps) + 1) if bps else 0, None)


def _end_signs(f: RadialFunction) -> tuple[tuple[int, int], tuple[int, int]]:
    """(sign, edge) of f toward -inf, then toward +inf (_eventual_sign).

    f equals its end part past the breakpoint hull, so each certificate
    starts there; the shells strictly between -edge and +edge are the only
    ones a caller still has to visit.
    """
    bps = f.breakpoints()
    lo, hi = (1 - bps[0], bps[-1] + 1) if bps else (0, 0)
    return _eventual_sign(_end_part(f, -1), -1, lo), _eventual_sign(_end_part(f, +1), +1, hi)


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
