"""Radial power-log functions on Q_p^n and their exact shell calculus.

A radial function here is a finite sum of terms

    c * |x|_p^beta * (log_p |x|_p)^k            restricted to shells in [lo, hi]

identified with the map  shell gamma -> c * p^(gamma*beta) * gamma^k.  The
class is closed under addition, multiplication, scalar multiplication, range
restriction, and affine pullback g -> f(m*g + c) along the shell line (the
dilation x -> t*x is m = 1), which is what makes Hausdorff operators with
scalar-radial matrix families, and the constants of their bounds, exactly
computable on it.

Functions are kept in canonical form: for each exponent pair (beta, k) the
shell line is split into maximal intervals with a single combined coefficient,
zero coefficients dropped, adjacent equal-coefficient intervals merged.  Every
RadialFunction holds its terms in that form.  Building one from terms that are
canonical already costs one linear check (_is_canonical), which hands the
tuple back unchanged; only other term lists take the full grouping pass
(_regroup).  On a function with exact coefficients, restrict, negation, scale
by a nonzero exact number and dilate (of a function without log terms, or by
0) give canonical terms, so they take no grouping pass.  A sum of products of
functions is formed term by term and canonicalized once (sum_of_products), so
a chain of products and sums takes one grouping pass, not one per step.

Every coefficient and exponent is exact, an int or a Fraction: RadialTerm
refuses a float or a bool with a ValueError naming the field, so the algebra
has one number type and no float path.  A shell value is one integer ratio
num/den (_shell_ratio).  Its integer data, one tuple per term holding the
range, the numerator and denominator of the coefficient and of the exponent,
and the log power, is built on first evaluation and kept on the function;
equality, hashing, repr and pickling do not see it.  value_on_shell makes the
ratio a Fraction, float_on_shell divides it once: int true division is
correctly rounded, as float(Fraction) is, so the two agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .numeric import ExtendedValue, Number, ppow, ppow_ratio, require_exact
from .padic import check_prime
from .series import power_log_sum

_NEG = -(10 ** 9)  # sentinel ordering keys for unbounded interval ends
_POS = 10 ** 9
_MAX_EDGE = 10 ** 6  # farthest shell an eventual-sign certificate may need
_EXACT_TYPES = (Fraction, int)  # RadialTerm's fast check; subclasses go to require_exact


@dataclass(frozen=True)
class RadialTerm:
    """One term c * |x|^beta * (log_p|x|)^k supported on shells lo..hi; c and
    beta are each an int or a Fraction."""

    coeff: Number
    beta: Number
    logpow: int
    lo: int | None = None
    hi: int | None = None

    def __post_init__(self) -> None:
        if type(self.coeff) not in _EXACT_TYPES or type(self.beta) not in _EXACT_TYPES:
            require_exact(self.coeff, "coeff")
            require_exact(self.beta, "beta")
        if self.logpow < 0:
            raise ValueError("log power must be nonnegative")
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError("empty shell range")


def _term_kernel(t: RadialTerm) -> tuple:
    """(lo, hi, coeff num, coeff den, beta num, beta den, logpow) of one term,
    unbounded ends as -inf and inf."""
    lo = -math.inf if t.lo is None else t.lo
    hi = math.inf if t.hi is None else t.hi
    c, b = t.coeff, t.beta
    return (lo, hi, c.numerator, c.denominator, b.numerator, b.denominator, t.logpow)


def _lo_key(lo: int | None) -> int:
    return _NEG if lo is None else lo


def _hi_key(hi: int | None) -> int:
    return _POS if hi is None else hi


def _sort_key(t: RadialTerm) -> tuple:
    """The order of canonical terms: (float(beta), logpow, lo, hi), unbounded
    ends outermost."""
    return (float(t.beta), t.logpow, _lo_key(t.lo), _hi_key(t.hi))


def _canonicalize(terms: Iterable[RadialTerm]) -> tuple[RadialTerm, ...]:
    """The canonical terms of the sum of ``terms``: the tuple of ``terms``
    itself when it is canonical already, else _regroup's."""
    terms = tuple(terms)
    return terms if _is_canonical(terms) else _regroup(terms)


def _is_canonical(terms: tuple[RadialTerm, ...]) -> bool:
    """Whether _regroup(terms) is ``terms`` again, decided in one pass.

    It holds when every coefficient is a nonzero Fraction; the terms are in
    _regroup's sort order; each run of terms with one (float(beta), logpow)
    shares one beta object and has disjoint, increasing ranges; and no two
    adjacent pieces of a run (hi + 1 == lo) have equal coefficients.  Two
    beta objects with one float and one logpow (1 beside Fraction(1), or two
    distinct exponents that round to one float) fail it, so _regroup's
    naming and stable sort decide them.
    """
    prev = None
    fb = 0.0  # float(prev.beta)
    for t in terms:
        c = t.coeff
        if type(c) is not Fraction or c == 0:
            return False
        if prev is None:
            fb = float(t.beta)
        elif t.beta is prev.beta and t.logpow == prev.logpow:
            if prev.hi is None or t.lo is None or t.lo <= prev.hi:
                return False
            if t.lo == prev.hi + 1 and c == prev.coeff:
                return False
        else:
            f = fb if t.beta is prev.beta else float(t.beta)
            if not (f > fb or (f == fb and t.logpow > prev.logpow)):
                return False
            fb = f
        prev = t
    return True


def _regroup(terms: tuple[RadialTerm, ...]) -> tuple[RadialTerm, ...]:
    """The canonical terms of the sum of ``terms``, by the full grouping pass.

    Terms with a zero coefficient are dropped and the rest grouped on
    (beta, logpow) as a dict key, so exponents that compare equal share a
    group (1 and Fraction(1)).  A group is named after the beta and the
    logpow of its first term; its spellings all give one value.  Each
    group's shell line is cut at every range end; a piece's coefficient is
    the Fraction sum of the coefficients covering it.
    Adjacent pieces with equal coefficients merge and keep the first one's
    coefficient; zero pieces are dropped.  The terms come out sorted on
    (float(beta), logpow, lo, hi), unbounded ends outermost; the sort is
    stable, so groups whose betas share a float keep the input order.

    A piece that one term covers over exactly that term's range, with a
    Fraction coefficient and the group's beta and logpow objects, is that
    term object itself.
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
            out.append(t if type(t.coeff) is Fraction else
                       RadialTerm(Fraction(t.coeff), beta, k, t.lo, t.hi))
        else:
            out += _sweep(ts, beta, k)
    if len(out) > 1:
        out.sort(key=_sort_key)
    return tuple(out)


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
        if len(active) == 1 and type(ts[active[0]].coeff) is Fraction:
            t = ts[active[0]]
            c = t.coeff
            if t.lo == lo and t.hi == hi and t.beta is beta and t.logpow is k:
                src = t
        else:
            c = sum((ts[i].coeff for i in sorted(active)), Fraction(0))
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
        # the coefficient as _regroup would normalize it, so the term is canonical
        c = require_exact(coeff, "coeff")
        c = c if type(c) is Fraction else Fraction(c)
        return RadialFunction(p, n, (RadialTerm(c, beta, logpow, lo, hi),))

    @staticmethod
    def constant(p: int, n: int, c: Number) -> "RadialFunction":
        return RadialFunction.power(p, n, c, 0)

    @staticmethod
    def log(p: int, n: int, coeff: Number = 1) -> "RadialFunction":
        return RadialFunction.power(p, n, coeff, 0, logpow=1)

    @staticmethod
    def chi_ball(p: int, n: int, gamma: int) -> "RadialFunction":
        return RadialFunction.power(p, n, 1, 0, hi=gamma)

    # -- evaluation --------------------------------------------------------

    def value_on_shell(self, gamma: int) -> Number:
        """f(gamma): a Fraction, or the int 0 where no term is active."""
        r = self._shell_ratio(gamma)
        if r is None:
            return 0
        return Fraction(*r)

    def float_on_shell(self, gamma: int, saturate: bool = False) -> float:
        """float(f(gamma)), bit for bit, without building a Fraction.

        An exact value is one integer division of its unreduced ratio, which
        raises OverflowError where float(value_on_shell(gamma)) does; with
        ``saturate`` such a value reads as +-inf instead, as float_sat gives.
        """
        r = self._shell_ratio(gamma)
        if r is None:
            return 0.0
        num, den = r
        try:
            return num / den
        except OverflowError:
            if not saturate:
                raise
            return math.inf if num > 0 else -math.inf

    def _shell_ratio(self, gamma: int) -> tuple[int, int] | None:
        """(num, den), den > 0 and not reduced, with f(gamma) = num / den;
        None when no term is active.

        Each value c p^(gamma beta) gamma^k is a ratio of integers
        (ppow_ratio); they are summed over one common denominator.
        """
        kernel = self.__dict__.get("_kernel")
        if kernel is None:
            kernel = self.__dict__["_kernel"] = tuple(_term_kernel(t) for t in self.terms)
        p = self.p
        num, den, hit = 0, 1, False
        for lo, hi, cn, cd, bn, bd, k in kernel:
            if gamma < lo or gamma > hi:
                continue
            hit = True
            e = gamma * bn
            if bd != 1:
                a, b = ppow_ratio(p, e, bd)
                a, b = cn * a, cd * b
            elif e >= 0:
                a, b = cn * p ** e, cd
            else:
                a, b = cn, cd * p ** -e
            if k:
                a *= gamma ** k
            if b == den:
                num += a
            else:
                num, den = num * b + a * den, den * b
        return (num, den) if hit else None

    def __getstate__(self) -> dict:
        # the lazy shell data is rebuilt on first use, never pickled
        state = dict(self.__dict__)
        state.pop("_kernel", None)
        return state

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
        return sum_of_products(self.p, self.n, ((1, (self, other)),))

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
        """The function x -> f(t x) for any t with |t|_p = p^d: on shell v it
        takes f's value on shell v + d."""
        return self.pullback(1, d)

    def pullback(self, m: int, c: int) -> "RadialFunction":
        """The shell-line function g -> f(m*g + c), inside the same algebra.

        Each term picks up p^(c*beta) and the exponent m*beta, its log factor
        (m g + c)^k expands binomially into powers of g, and its range maps
        through the inverse change of shell (ends swapped when m < 0).  For
        m = 0 the result is the constant f(c).
        """
        if m == 0:
            return RadialFunction.constant(self.p, self.n, self.value_on_shell(c))
        out = []
        for t in self.terms:
            a, b = (t.lo, t.hi) if m > 0 else (t.hi, t.lo)
            lo = None if a is None else -((c - a) // m)
            hi = None if b is None else (b - c) // m
            if lo is not None and hi is not None and lo > hi:
                continue
            # a factor of 1 is skipped: it leaves the coefficient as it is.
            # With m = 1 each term keeps its beta object, so the pullback of
            # a canonical f without log terms is canonical as it is built.
            base = t.coeff if c == 0 else t.coeff * ppow(self.p, c * t.beta)
            beta = t.beta if m == 1 else m * t.beta
            k = t.logpow
            for j in range(k + 1):
                # the integer factor first: one Fraction product per term fewer
                coeff = base
                f = comb(k, j) * m ** j
                if f != 1:
                    coeff = coeff * f
                if j < k and c != 1:
                    coeff = coeff * c ** (k - j)
                if coeff != 0:  # c = 0 zeroes every j < k; _regroup drops those too
                    out.append(RadialTerm(coeff, beta, j, lo, hi))
        return RadialFunction(self.p, self.n, tuple(out))


def sum_of_products(p: int, n: int,
                    rows: Iterable[tuple[Number, Sequence[RadialFunction]]]) -> RadialFunction:
    """sum_j c_j * prod_i f_ij, canonicalized once.

    Each row (c, fs), with one or more factors fs, gives every product of one
    term from each factor whose ranges meet: the coefficients multiplied left
    to right and then by c (skipped when c is 1), the exponents and
    log powers added.  The terms of every row go through one canonicalization,
    so a chain of products and sums takes one grouping pass, not one per
    step.  The result equals the left fold of * and + (and scale by c).
    """
    out: list[RadialTerm] = []
    for c, fs in rows:
        for f in fs:
            if f.p != p or f.n != n:
                raise ValueError("mismatched (p, n) contexts")
        acc = [(t.coeff, t.beta, t.logpow, t.lo, t.hi) for t in fs[0].terms]
        for f in fs[1:]:
            nxt = []
            for ac, ab, ak, alo, ahi in acc:
                for t in f.terms:
                    lo, hi = _max_lo(alo, t.lo), _min_hi(ahi, t.hi)
                    if lo is None or hi is None or lo <= hi:
                        nxt.append((ac * t.coeff, ab + t.beta, ak + t.logpow, lo, hi))
            acc = nxt
        unit = require_exact(c, "coeff") == 1
        out += [RadialTerm(ac if unit else ac * c, ab, ak, lo, hi) for ac, ab, ak, lo, hi in acc]
    return RadialFunction(p, n, tuple(out))


# -- sign certification for power-log expressions ----------------------------


def _eventual_sign(fn: RadialFunction, end: int, start_edge: int) -> tuple[int, int]:
    """(sign, edge): the constant sign of fn(g) for every |g| >= edge toward `end`.

    The dominant exponent group is bounded below by half its leading monomial
    beyond its root bound; every subordinate group is bounded above and decays
    geometrically relative to it, so the first margin-2 win in the scan
    certifies the sign from that shell outward.  Every caller visits the
    shells up to the edge, so an edge beyond _MAX_EDGE (a lead far smaller
    than the terms it must outgrow, say) raises ValueError instead of running
    on.
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


def _sign_fault(f: RadialFunction, strict: bool) -> int | float | None:
    """Where f fails to be >= 0 (> 0 when ``strict``), certified on every
    shell: -inf or inf when it fails toward that end, else the first shell
    where it fails, else None.

    The ends come first (_end_signs; a strict check fails an end no term
    reaches), then every shell between the two certified edges.  An exact
    single power c|x|^beta with c > 0 is positive everywhere and is not
    scanned.
    """
    if f.is_single_power() and f.terms[0].coeff > 0:
        return None
    (s_lo, e_lo), (s_hi, e_hi) = _end_signs(f)
    least = 1 if strict else 0
    if s_lo < least:
        return -math.inf
    if s_hi < least:
        return math.inf
    for g in range(1 - e_lo, e_hi):
        v = f.value_on_shell(g)
        if v < 0 or (strict and v == 0):
            return g
    return None


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
    finite = Fraction(0)
    down: list[tuple[Number, int, Number]] = []  # (ratio, logpow, coeff) at -inf
    up: list[tuple[Number, int, Number]] = []
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
                    finite += coeff * power_log_sum(ratio, t.logpow, None, b).value
                else:
                    down.append((ratio, t.logpow, coeff))
            elif b is None:
                if ratio < 1:
                    finite += coeff * power_log_sum(ratio, t.logpow, a, None).value
                else:
                    up.append((ratio, t.logpow, coeff))
            else:
                finite += coeff * power_log_sum(ratio, t.logpow, a, b).value

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
    return ExtendedValue.finite(finite)


def integrate_radial(f: RadialFunction) -> ExtendedValue:
    """Exact integral of f over Q_p^n against Haar measure.

    Each term contributes  c * (1 - p^-n) * sum_gamma gamma^k (p^(beta+n))^gamma.
    Divergent integrals come back as signed infinities.
    """
    return _sum_weighted_shells(f, f.n, 1 - Fraction(f.p) ** (-f.n))


def shell_sum(f: RadialFunction) -> ExtendedValue:
    """Plain sum of f over all shells (no measure factor)."""
    return _sum_weighted_shells(f, 0, 1)
