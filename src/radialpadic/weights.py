"""Weighted norms and Muckenhoupt-type diagnostics for radial weights.

Implements, on the radial power-log algebra over Q_p^n:

  * weighted Lebesgue norms over shell regions,
  * central Morrey norms (sup over balls centered at 0),
  * central oscillation (CMO-type) norms,
  * A_ell and reverse-Holder constants with exact tails, and the critical
    reverse-Holder index.

Every ball integral is exact (closed-form tails) whenever it converges.  A
divergent tail is truncated at the window floor and flagged: the returned
number is then a windowed diagnostic and the untruncated constant is
infinite.  This keeps in-range constants exactly window-stable while
out-of-range constants grow without bound as the window widens.

A central Morrey sup of a compactly supported f, with 1/q + lam >= 0, is
taken over the balls of f's support hull s..t alone, and needs no window and
no growth probe: below s every ball quotient is 0, and above t the integral
of |f|^q w keeps its value on B_t while omega(B_g) grows, so no ball beyond
t exceeds B_t.  The other sups (Morrey of f with unbounded support, CMO,
A_ell, reverse Holder) are windowed: they take the balls B_g, |g| <= window,
and a Morrey or CMO sup probes for growth beyond the window.

Either way the quantities of a run of balls come from one upward sweep
instead of integrating every ball from -inf: ball integrals of |f|^q w reuse
each piece below the ball (_ball_integrals), and plain ball totals step from
one ball to the next where the closed form is exact (_ball_totals).  Each
ball still gets exactly the value the direct call gives, because exact parts
are equal as rationals and float parts go through the same math.fsum; a
running float sum would round differently, so none is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Sequence

from .numeric import (
    ExtendedValue,
    FloatRangeError,
    Number,
    abs_pow,
    exp_sat,
    float_sat,
    fpow,
    integral_part,
    log_exact,
    is_exact,
    nth_root,
    ppow,
)
from .radial import (
    RadialFunction,
    RadialTerm,
    _end_signs,
    ball_measure,
    integrate_radial,
    sphere_measure,
)
from .series import power_log_sum

#: probe offsets used to classify growth beyond a sup window
_GROWTH_PROBES = (8, 16, 32, 64)
#: relative cutoff for adaptive tail summation
_TAIL_RTOL = 1e-18
_TAIL_CONSECUTIVE = 8
_TAIL_MAX_TERMS = 200_000
#: shells probed when validating weight positivity
_POSITIVITY_WINDOW = 96


@dataclass(frozen=True)
class NormResult:
    """A norm value together with the shell witnessing the sup, if any."""

    value: ExtendedValue
    witness_shell: int | None = None

    def __float__(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class Weight:
    """A positive radial weight in the power-log algebra."""

    profile: RadialFunction

    def __post_init__(self) -> None:
        w = self.profile
        t = w.terms[0] if w.is_single_power() else None
        # c|x|^beta with exact c > 0 and exact beta is an exact positive
        # number on every shell, so it needs no check; a float coefficient or
        # exponent can underflow to 0 on a probed shell, so those keep the scan
        if t is not None and is_exact(t.coeff) and is_exact(t.beta) and t.coeff > 0:
            return
        for g in range(-_POSITIVITY_WINDOW, _POSITIVITY_WINDOW + 1):
            if w.value_on_shell(g) <= 0:
                raise ValueError(f"weight must be positive on every shell; fails at {g}")
        (s_lo, e_lo), (s_hi, e_hi) = _end_signs(w)
        if s_lo <= 0 or s_hi <= 0:  # 0: no term reaches that end, so w vanishes there
            raise ValueError("weight must stay positive toward infinity")
        # the shells between the two certified edges that the scan skipped
        for g in chain(range(1 - e_lo, -_POSITIVITY_WINDOW), range(_POSITIVITY_WINDOW + 1, e_hi)):
            if w.value_on_shell(g) <= 0:
                raise ValueError(f"weight must be positive on every shell; fails at {g}")

    @property
    def p(self) -> int:
        return self.profile.p

    @property
    def n(self) -> int:
        return self.profile.n

    @staticmethod
    def power(p: int, n: int, alpha: Number, coeff: Number = 1) -> "Weight":
        return Weight(RadialFunction.power(p, n, coeff, alpha))

    def power_exponent(self) -> Number | None:
        """alpha when the weight is exactly c|x|^alpha, else None."""
        if self.profile.is_single_power():
            return self.profile.terms[0].beta
        return None


def _dominant_term(f: RadialFunction, end: int) -> tuple[Number, int, Number] | None:
    """(beta, logpow, coeff) of the term dominating f toward the given end."""
    cands = [t for t in f.terms if (t.lo is None if end < 0 else t.hi is None)]
    if not cands:
        return None
    if end < 0:
        t = min(cands, key=lambda t: (float(t.beta), -t.logpow))
    else:
        t = max(cands, key=lambda t: (float(t.beta), t.logpow))
    return (t.beta, t.logpow, t.coeff)


# -- weighted integrals -----------------------------------------------------


def weight_ball_mass(w: Weight, gamma: int) -> ExtendedValue:
    """omega(B_gamma), exact; infinite when the weight is not locally integrable."""
    return integrate_radial(w.profile.restrict(None, gamma))


def ball_average(f: RadialFunction, gamma: int) -> Number:
    """Unweighted average of f over B_gamma, exact.

    Raises ValueError when f is not integrable on the ball.
    """
    return _average(integrate_radial(f.restrict(None, gamma)), f.p, f.n, gamma)


def _average(total: ExtendedValue, p: int, n: int, gamma: int) -> Number:
    """A ball total over B_gamma divided by the ball's measure."""
    if not total.is_finite:
        raise ValueError("function is not integrable on the ball")
    return total.value / ball_measure(p, n, gamma)


def _ball_totals(f: RadialFunction, lo: int, hi: int) -> list[ExtendedValue]:
    """integrate_radial(f.restrict(None, g)) for g = lo..hi, in one pass.

    Each ball's total equals its closed form as a rational wherever the
    closed form is exact:

      * c|x|^beta with exact c and beta sums the geometric series in the
        exact ratio r = ppow(p, beta + n) (integrate_radial), so each ball is
        the one below it times r, also for a fractional beta;
      * with exact coefficients and integral exponents, each ball is the one
        below it plus f(g)|S_g|.

    A float c with an exact beta gives each ball as the float
    (c (1 - p^-n)) float(S_g), where the geometric sum S_g is exact and is
    the one below it times r; S_g is kept as an unreduced integer ratio,
    whose true division rounds as float(S_g) does.

    Where the first ball diverges, its deep tail lies in every ball above,
    so every ball takes that same signed infinity.  Otherwise each ball keeps
    its own closed form: a running float sum would round differently.
    """
    totals = [integrate_radial(f.restrict(None, lo))]
    if totals[0].divergent:
        return totals * (hi - lo + 1)
    single = totals[0].is_finite and f.is_single_power() and is_exact(f.terms[0].beta)
    ratio = ppow(f.p, f.terms[0].beta + f.n) if single else None
    if single and not is_exact(f.terms[0].coeff):
        coeff = f.terms[0].coeff * (1 - Fraction(f.p) ** -f.n)  # integrate_radial's factor, a float
        s = power_log_sum(ratio, 0, None, lo).value
        num, den = s.numerator, s.denominator
        for _ in range(lo + 1, hi + 1):
            num, den = num * ratio.numerator, den * ratio.denominator
            # + 0.0: integrate_radial's fsum with its exact part 0 turns -0.0 into 0.0
            totals.append(ExtendedValue.finite(coeff * (num / den) + 0.0))
        return totals
    exact = totals[0].is_finite and all(is_exact(t.coeff) and is_exact(t.beta) for t in f.terms)
    running = exact and all(integral_part(t.beta) is not None for t in f.terms)
    sphere, step = sphere_measure(f.p, f.n, lo), f.p ** f.n
    for g in range(lo + 1, hi + 1):
        if ratio is not None:
            totals.append(ExtendedValue.finite(totals[-1].value * ratio))
        elif running:
            sphere *= step  # |S_g|, exactly
            totals.append(ExtendedValue.finite(totals[-1].value + f.value_on_shell(g) * sphere))
        else:
            totals.append(integrate_radial(f.restrict(None, g)))
    return totals


def _tail_exponent(fsub: RadialFunction, wsub: RadialFunction, q: Number, n: int, end: int) -> Number:
    """Exponent E with |f|^q w p^(n g) ~ p^(E g) toward the given end."""
    df = _dominant_term(fsub, end)
    dw = _dominant_term(wsub, end)
    bf = df[0] if df else 0
    bw = dw[0] if dw else 0
    if is_exact(bf) and is_exact(bw) and is_exact(q):
        return Fraction(q) * bf + bw + n
    return float(q) * float(bf) + float(bw) + n


def _numeric_tail(h: Callable[[int], float], edge: int, step: int) -> float:
    """Adaptive sum of h(edge), h(edge+step), ... for eventually geometric h."""
    acc = 0.0
    small = 0
    g = edge
    for _ in range(_TAIL_MAX_TERMS):
        v = h(g)
        acc += v
        if abs(v) <= _TAIL_RTOL * max(abs(acc), 1e-300):
            small += 1
            if small >= _TAIL_CONSECUTIVE:
                return acc
        else:
            small = 0
        g += step
    raise RuntimeError("tail summation did not settle; exponent too close to critical")


def _rescaled_eval(fsub: RadialFunction, wsub: RadialFunction, q: Number, n: int, end: int) -> Callable[[int], float]:
    """Per-shell h(g) = |f|^q w |S_g| with the dominant scale factored out.

    Rescaling by the dominant exponents keeps every factor inside float range
    even when |f(g)| alone would overflow; the product is mathematically
    unchanged.  A dominant exponent that is an exact 0 shifts nothing, so
    that function is read as it is.  Each factor is read with
    float_on_shell, one integer division per exact shell value, and equals
    float(value_on_shell(g)) bit for bit; like it, it raises OverflowError
    off the float range.
    """
    p = fsub.p
    df = _dominant_term(fsub, end)
    dw = _dominant_term(wsub, end)
    bf = df[0] if df else 0
    bw = dw[0] if dw else 0
    f_at = _shifted(fsub, bf).float_on_shell
    w_at = _shifted(wsub, bw).float_on_shell
    qf, pf = float(q), float(p)
    e_tot = qf * float(bf) + float(bw) + n
    unit = 1.0 - pf ** (-n)

    def h(g: int) -> float:
        return abs(f_at(g)) ** qf * w_at(g) * fpow(pf, e_tot * g) * unit

    return h


def _shifted(fn: RadialFunction, beta: Number) -> RadialFunction:
    """fn * |x|^(-beta); fn itself when beta is an exact 0, where the product
    has the same value, exact or float, on every shell."""
    if beta == 0 and is_exact(beta):
        return fn
    return fn * RadialFunction.power(fn.p, fn.n, 1, -beta)


def _log_eval(fsub: RadialFunction, wsub: RadialFunction, q: Number, n: int) -> Callable[[int], float]:
    """Per-shell log h(g) = log(|f|^q w |S_g|), -inf where f or w vanishes;
    every factor is taken as a logarithm, so no shell overflows.  The shell
    values stay value_on_shell Fractions: log_exact reads the numerator and
    denominator of the reduced ratio, which float_on_shell never forms."""
    log_p = math.log(fsub.p)
    log_unit = math.log1p(-float(fsub.p) ** (-n))

    def log_abs(x: Number) -> float:
        return -math.inf if x == 0 else log_exact(abs(x))

    def lh(g: int) -> float:
        return (float(q) * log_abs(fsub.value_on_shell(g)) + log_abs(wsub.value_on_shell(g))
                + n * g * log_p + log_unit)

    return lh


def _sum_shells(h: Callable[[int], float], a: int | None, b: int | None) -> float:
    """h summed over shells a..b; an unbounded end is a tail (_numeric_tail)."""
    if a is None:
        return _numeric_tail(h, b, -1)
    if b is None:
        return _numeric_tail(h, a, +1)
    return math.fsum(h(g) for g in range(a, b + 1))


def _numeric_piece(fsub: RadialFunction, wsub: RadialFunction, q: Number, n: int,
                   a: int | None, b: int | None) -> float:
    """The sum of |f|^q w |S_g| over shells a..b, in floats (_rescaled_eval).

    Where a float overflows on the way, or the float sum comes back as 0.0
    or inf (a shell's |f|^q underflowed or its product rounded to inf), the
    piece is summed again on logarithms: each shell's term is taken relative
    to a reference shell (the largest of a bounded piece, the first of a
    tail) and the scale is restored at the end.  A sum outside the float
    range raises FloatRangeError; it never comes back as 0 or inf.
    """
    try:
        total = _sum_shells(_rescaled_eval(fsub, wsub, q, n, +1 if b is None else -1), a, b)
        if 0.0 < total < math.inf:
            return total
    except OverflowError:
        pass
    lh = _log_eval(fsub, wsub, q, n)
    if a is None or b is None:
        ref = lh(b if a is None else a)
    else:
        ref = max(lh(g) for g in range(a, b + 1))
    if ref == -math.inf:
        ref = 0.0  # f vanishes on the reference shell
    total = _sum_shells(lambda g: exp_sat(lh(g) - ref), a, b)
    if total == 0.0:
        return 0.0
    log_total = ref + math.log(total)
    value = exp_sat(log_total)
    if not math.isfinite(value) or value == 0.0:
        raise FloatRangeError(f"integral of |f|^q w over shells {a}..{b} is about "
                              f"10^{log_total / math.log(10):.1f}, outside the float range")
    return value


def _interval_pieces(
    f: RadialFunction, w: RadialFunction, lo: int | None, hi: int | None
) -> list[tuple[int | None, int | None]]:
    """Split [lo, hi] at every breakpoint of f or w and at the sign change of g."""
    pts = sorted(set(f.breakpoints()) | set(w.breakpoints()) | {0, 1})
    bounds: list[int | None] = [lo]
    for e in pts:
        if (lo is None or e > lo) and (hi is None or e <= hi):
            bounds.append(e)
    bounds.append(None if hi is None else hi + 1)
    pieces = []
    for i in range(len(bounds) - 1):
        a = bounds[i]
        b = bounds[i + 1] - 1 if bounds[i + 1] is not None else hi
        if a is not None and b is not None and a > b:
            continue
        pieces.append((a, b))
    return pieces


def _piece_integral(
    f: RadialFunction, w: RadialFunction, q: Number, a: int | None, b: int | None
) -> ExtendedValue | None:
    """integral of |f|^q * w over shells a..b, a piece of _interval_pieces.

    None when f vanishes there; infinite with ``divergent`` set when the
    piece diverges.  If f has one active term there (and either no log factor
    or an integral q) the integrand is a single power-log expression with a
    closed form; otherwise the piece is summed numerically with rescaled
    evaluation and a classified tail (_numeric_piece).
    """
    fsub = f.restrict(a, b)
    if fsub.is_zero():
        return None
    p, n = f.p, f.n
    wsub = w.restrict(a, b)
    qi = integral_part(q)
    if len(fsub.terms) == 1 and len(wsub.terms) == 1 and (fsub.terms[0].logpow == 0 or qi is not None):
        ft, wt = fsub.terms[0], wsub.terms[0]
        kf = ft.logpow * (qi if qi is not None else 1)
        coeff = abs_pow(ft.coeff, q) * wt.coeff
        if b is not None and b <= -1 and kf % 2:
            coeff = -coeff  # |g|^kf = -g^kf on negative shells for odd kf
        ratio = ppow(p, q * ft.beta + wt.beta + n)
        unit = 1 - Fraction(p) ** (-n)
        piece = power_log_sum(ratio, kf + wt.logpow, a, b).scaled(coeff * unit)
        return piece if piece.is_finite else ExtendedValue.infinite(+1)
    if a is None and not _tail_exponent(fsub, wsub, q, n, -1) > 0:
        return ExtendedValue.infinite(+1)
    if b is None and not _tail_exponent(fsub, wsub, q, n, +1) < 0:
        return ExtendedValue.infinite(+1)
    return ExtendedValue.finite(_numeric_piece(fsub, wsub, q, n, a, b))


def _sum_pieces(parts: Sequence[ExtendedValue | None]) -> ExtendedValue:
    """Total of piece integrals: exact pieces summed as one Fraction, which
    math.fsum adds to the float pieces; infinite when a piece diverges."""
    exact_acc = Fraction(0)
    float_parts: list[float] = []
    for part in parts:
        if part is None:
            continue
        if part.divergent:
            return ExtendedValue.infinite(+1)
        if is_exact(part.value):
            exact_acc += part.value
        else:
            float_parts.append(float(part.value))
    if float_parts:
        return ExtendedValue.finite(math.fsum(float_parts + [float(exact_acc)]))
    return ExtendedValue.finite(exact_acc)


def integral_abs_power(
    f: RadialFunction, w: Weight, q: Number, lo: int | None = None, hi: int | None = None
) -> ExtendedValue:
    """integral over {p^lo <= |x| <= p^hi} of |f|^q * w, exact where possible.

    The region is split at every breakpoint of f and w (_interval_pieces);
    each piece has a closed form or a numeric sum (_piece_integral).
    """
    return _sum_pieces([_piece_integral(f, w.profile, q, a, b)
                        for a, b in _interval_pieces(f, w.profile, lo, hi)])


def _ball_integrals(f: RadialFunction, w: Weight, q: Number, lo: int, hi: int) -> list[ExtendedValue]:
    """integral_abs_power(f, w, q, None, g) for g = lo..hi, in one pass.

    Ball g is cut into the pieces below the piece holding g, whole, and that
    piece clipped at g.  Each ball integrates only its clipped piece, and the
    clip at a piece's top shell is the whole piece that every ball above
    reuses.  The parts are summed as integral_abs_power sums them, in the
    same order, so every value is the same, bit for bit.
    """
    done: list[ExtendedValue | None] = []
    totals = []
    for a, b in _interval_pieces(f, w.profile, None, hi):
        part = None
        for g in range(lo if a is None else max(a, lo), b + 1):
            part = _piece_integral(f, w.profile, q, a, g)
            totals.append(_sum_pieces(done + [part]))
        if b < lo:
            part = _piece_integral(f, w.profile, q, a, b)
        done.append(part)
    return totals


def lebesgue_norm(
    f: RadialFunction, w: Weight, q: Number, lo: int | None = None, hi: int | None = None
) -> NormResult:
    """Weighted L^q norm of f over the shell region [lo, hi] (all of Q_p^n by default)."""
    if q < 1:
        raise ValueError("q must be at least 1")
    total = integral_abs_power(f, w, q, lo, hi)
    if not total.is_finite:
        return NormResult(total)
    return NormResult(ExtendedValue.finite(nth_root(total.value, q)))


# -- Morrey and oscillation norms -------------------------------------------


def _sup_over_balls(
    values: Sequence[float], lo: int, probe: Callable[[int], float] | None = None
) -> NormResult:
    """The sup of the ball quotients values[i] at shell lo + i, with the first
    ball that attains it as witness; infinite when it is, or when a growth
    probe beyond the window lo..-lo exceeds it."""
    best = -math.inf
    witness = None
    for g, v in enumerate(values, lo):
        if v > best:
            best, witness = v, g
    grows = probe is not None and any([probe(g) > best * (1 + 1e-9) + 1e-300
                                       for off in _GROWTH_PROBES for g in (-lo + off, lo - off)])
    if grows or math.isinf(best):
        return NormResult(ExtendedValue.infinite(+1), witness)
    return NormResult(ExtendedValue.finite(best), witness)


def morrey_norm(
    f: RadialFunction, w: Weight, q: Number, lam: Number, window: int = 48
) -> NormResult:
    """Central Morrey norm sup_g omega(B_g)^(-(1/q + lam)) ||f||_{L^q_w(B_g)}.

    For lam < -1/q the space contains only zero, so any nonzero f has
    infinite norm.  For single-power data the sup is evaluated analytically:
    it is shell-independent exactly when q beta + alpha + n = q (alpha + n)
    (1/q + lam), finite there, and infinite otherwise.

    Otherwise the balls are swept once, upward: each piece of the |f|^q w
    integral is evaluated once and reused by every ball above it
    (_ball_integrals), and exact weight masses step from one ball to the
    next (_ball_totals).  Both give each ball exactly the value a direct
    integral_abs_power / weight_ball_mass call would.  When f has finite
    support s..t and 1/q + lam >= 0, the sweep covers s..t alone and the
    first ball attaining the largest quotient is the witness: every ball
    below s has quotient 0, and a ball above t has the integral of B_t over
    a larger mass, so no ball outside s..t exceeds the sup.  This value and
    witness are exact for any window, so ``window`` serves only an f with
    unbounded support (or a float q or lam with 1/q + lam < 0): its sup is
    taken over |g| <= window, and growth probes beyond the window are
    integrated directly.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    p, n = f.p, f.n
    if f.is_zero():
        return NormResult(ExtendedValue.finite(Fraction(0)))
    expo = Fraction(1, 1) / Fraction(q) + Fraction(lam) if is_exact(q) and is_exact(lam) else 1 / float(q) + float(lam)
    if is_exact(lam) and is_exact(q) and Fraction(lam) < -1 / Fraction(q):
        return NormResult(ExtendedValue.infinite(+1))

    def quotient(mass: ExtendedValue, part: ExtendedValue) -> float:
        if not (mass.is_finite and part.is_finite):
            return math.inf
        if part.value == 0:
            return 0.0
        # evaluated in log space so off-scale balls neither overflow nor
        # collapse to 0/0 before the exponents cancel
        if not is_exact(part.value) and float(part.value) == 0.0:
            return 0.0
        return exp_sat(-float(expo) * log_exact(mass.value)
                       + log_exact(part.value) / float(q))

    def q_at(g: int) -> float:
        mass = weight_ball_mass(w, g)
        if not mass.is_finite:
            return math.inf
        return quotient(mass, integral_abs_power(f, w, q, None, g))

    alpha = w.power_exponent()
    if f.is_single_power() and alpha is not None:
        ft = f.terms[0]
        e_ball = _tail_exponent(f, w.profile, q, n, -1)
        if not e_ball > 0:
            return NormResult(ExtendedValue.infinite(+1))
        if is_exact(ft.beta) and is_exact(alpha) and is_exact(q) and is_exact(lam):
            slope = Fraction(q) * Fraction(ft.beta) + Fraction(alpha) + n - Fraction(q) * (Fraction(alpha) + n) * (Fraction(1) / Fraction(q) + Fraction(lam))
        else:
            slope = float(q) * float(ft.beta) + float(alpha) + n - float(q) * (float(alpha) + n) * (1 / float(q) + float(lam))
        if slope == 0:
            return NormResult(ExtendedValue.finite(q_at(0)), None)
        return NormResult(ExtendedValue.infinite(+1))

    # the sup of a compactly supported f lies on its support hull (docstring)
    s, t = f.support_bounds()
    hull = s is not None and t is not None and expo >= 0
    lo, hi = (s, t) if hull else (-window, window)
    masses = _ball_totals(w.profile, lo, hi)
    if masses[0].is_finite:
        values = [quotient(m, part) for m, part in zip(masses, _ball_integrals(f, w, q, lo, hi))]
    else:
        # a weight that is not locally integrable has infinite mass on every ball
        values = [math.inf] * len(masses)
    return _sup_over_balls(values, lo, None if hull else q_at)


def cmo_norm(b: RadialFunction, w: Weight, r: Number, window: int = 48) -> NormResult:
    """Central oscillation norm: sup over balls of the weighted L^r deviation
    of b from its unweighted ball average, normalized by the ball's weight mass.

    For a power weight, the deviation integral and the mass over B_g both
    scale by p^(g(n + alpha)) under x -> p^(-g) x, so each ball's quotient is
    taken on B_0, of the deviation b - avg_g dilated by g and cut to B_0.
    When the terms of b that reach shell -inf make up c log_p|x| + d with
    exact c and d, b = c s + d on every ball B_g below b's lowest breakpoint
    e (+inf when b has none), and that deviation is c (s - m0) on B_0 for
    each of them, m0 being B_0's mean shell: one exact function, hence one
    quotient, computed at the first such ball reached.  Every other ball (at
    or above e, of another symbol, or under a weight that is not a power) is
    integrated on its own, its average from one pass over the window
    (_ball_totals), each exactly the ball_average value.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if b.is_zero():
        return NormResult(ExtendedValue.finite(Fraction(0)))
    rescale = w.power_exponent() is not None
    affine = rescale and all(is_exact(t.coeff) and is_exact(t.beta) and t.beta == 0 and t.logpow <= 1
                             for t in b.terms if t.lo is None)
    # the balls B_g with g < reach share one quotient
    reach = min(b.breakpoints(), default=math.inf) if affine else -math.inf
    totals = None if window < reach else _ball_totals(b, -window, window)
    shared: float | None = None

    def d_at(g: int) -> float:
        nonlocal shared
        if g < reach and shared is not None:
            return shared
        if totals is not None and abs(g) <= window:
            avg = _average(totals[g + window], b.p, b.n, g)
        else:
            avg = ball_average(b, g)
        dev = b + RadialFunction.constant(b.p, b.n, -avg)
        dev, gam = (dev.dilate(g), 0) if rescale else (dev, g)
        # only shells <= gam are integrated, so the cut changes no value
        value = quotient(dev.restrict(None, gam), gam)
        if g < reach:
            shared = value
        return value

    def quotient(dev: RadialFunction, gam: int) -> float:
        mass = weight_ball_mass(w, gam)
        if not mass.is_finite:
            return math.inf
        osc = integral_abs_power(dev, w, r, None, gam)
        if not osc.is_finite:
            return math.inf
        if osc.value == 0 or (not is_exact(osc.value) and float(osc.value) == 0.0):
            return 0.0
        # log-space quotient: exact masses can exceed the float range
        return exp_sat((log_exact(osc.value) - log_exact(mass.value)) / float(r))

    return _sup_over_balls([d_at(g) for g in range(-window, window + 1)], -window, d_at)


# -- Muckenhoupt machinery ---------------------------------------------------


def _windowed_masses(totals: Sequence[ExtendedValue] | None, density: Callable[[int], float],
                     p: int, n: int, window: int) -> list[tuple[float, bool]]:
    """(mass, truncated) over each ball B_g, g = -window..window.

    A ball takes its exact total (totals[i]) when that is finite; otherwise
    the density summed over shells -window..g, flagged truncated.  Each
    shell's float is evaluated once per call, and every truncated sum is the
    same math.fsum over the same floats in the same order.
    """
    unit = 1 - float(p) ** (-n)
    shells: list[float] = []
    masses = []
    for i in range(2 * window + 1):
        if totals is not None and totals[i].is_finite:
            masses.append((float_sat(totals[i].value), False))
            continue
        if not shells:
            shells = [density(g) * fpow(float(p), n * g) * unit for g in range(-window, window + 1)]
        masses.append((math.fsum(shells[: i + 1]), True))
    return masses


def _power_profile(w: Weight, e: Number) -> RadialFunction | None:
    """w^e inside the algebra, or None when it has no closed form there.

    e = 1 gives the profile itself.  Otherwise w^e is taken term by term,
    which is w^e exactly when no two terms share a shell and none carries a
    log factor (each term is then positive on its own range).
    """
    prof = w.profile
    if e == 1:
        return prof
    ts = sorted(prof.terms, key=lambda t: -math.inf if t.lo is None else t.lo)
    if any(t.logpow for t in ts) or any(
        a.hi is None or b.lo is None or a.hi >= b.lo for a, b in zip(ts, ts[1:])
    ):
        return None
    return RadialFunction(prof.p, prof.n, tuple(
        RadialTerm(abs_pow(t.coeff, e),
                   Fraction(t.beta) * Fraction(e) if is_exact(t.beta) and is_exact(e)
                   else float(t.beta) * float(e),
                   0, t.lo, t.hi)
        for t in ts
    ))


def _power_masses(w: Weight, e: Number, window: int) -> list[tuple[float, bool]]:
    """(mass of w^e over B_g, truncated) for g = -window..window (_windowed_masses).

    The closed form of _power_profile gives exact totals; without one every
    ball sums the density w(g)^e over the window and is flagged truncated.
    """
    prof = _power_profile(w, e)
    w_at, fe = w.profile.float_on_shell, float(e)
    return _windowed_masses(None if prof is None else _ball_totals(prof, -window, window),
                            lambda g: fpow(w_at(g, saturate=True), fe), w.p, w.n, window)


def ap_constant(w: Weight, ell: Number, window: int = 40) -> ExtendedValue:
    """Muckenhoupt A_ell constant over centered balls B_gamma, |gamma| <= window.

    Inner integrals use exact convergent tails; a divergent inner integral is
    truncated at the window floor and the result is flagged truncated (the
    untruncated constant is infinite and grows with the window).  The masses
    of all balls come from one pass (_power_masses).

    sigma = w^(-1/(ell-1)) has a closed form only when the terms of w do not
    overlap and carry no log factor (_power_profile).  Otherwise every sigma
    mass is a window sum, so for ell > 1 the result is always flagged
    truncated, even for a weight in the class such as |x|^(1/2) + |x|^(-1/2)
    on shells <= 0 (2 above) at ell = 2.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    p, n = w.p, w.n
    truncated = False

    masses = _power_masses(w, 1, window)
    if ell == 1:
        dom = _dominant_term(w.profile, -1)
        vanishes_deep = dom is not None and float(dom[0]) > 0
        flat_deep = dom is not None and float(dom[0]) == 0 and dom[1] == 0
        best = -math.inf
        low = math.inf  # min of w over the shells -window..g
        for g, (mass, tflag) in zip(range(-window, window + 1), masses):
            truncated |= tflag
            low = min(low, w.profile.float_on_shell(g, saturate=True))
            essinf = min(low, float(dom[2])) if flat_deep else low
            truncated |= vanishes_deep
            avg = mass / fpow(float(p), n * g)
            best = max(best, avg / essinf)
        return ExtendedValue(best, truncated=truncated)

    # sigma = w^(-1/(ell-1))
    smasses = _power_masses(
        w, Fraction(-1) / (Fraction(ell) - 1) if is_exact(ell) else -1 / (float(ell) - 1), window)
    best = -math.inf
    for g, (mass, t1), (smass, t2) in zip(range(-window, window + 1), masses, smasses):
        truncated |= t1 or t2
        vol = fpow(float(p), n * g)
        a_val = (mass / vol) * fpow(smass / vol, float(ell) - 1)
        best = max(best, a_val)
    return ExtendedValue(best, truncated=truncated)


def rh_constant(w: Weight, r: Number, window: int = 40) -> ExtendedValue:
    """Reverse-Holder constant: sup over centered balls of
    (avg of w^r)^(1/r) / (avg of w), with window-truncated divergent tails.

    As for sigma in ap_constant, w^r has a closed form only when the terms of
    w do not overlap and carry no log factor; otherwise the result is always
    flagged truncated.
    """
    if r <= 1:
        raise ValueError("r must exceed 1")
    p, n = w.p, w.n
    truncated = False
    masses = _power_masses(w, 1, window)
    rmasses = _power_masses(w, r, window)
    best = -math.inf
    for g, (mass, t1), (rmass, t2) in zip(range(-window, window + 1), masses, rmasses):
        truncated |= t1 or t2
        vol = fpow(float(p), n * g)
        val = fpow(rmass / vol, 1 / float(r)) / (mass / vol)
        best = max(best, val)
    return ExtendedValue(best, truncated=truncated)


def critical_index(w: Weight) -> Number:
    """sup{r > 1 : w satisfies a reverse Holder inequality with exponent r}.

    For weights in the algebra this is determined by the deep dominant
    exponent beta: the r-th power stays locally integrable iff r beta + n > 0,
    so the index is -n/beta for beta < 0 and +inf otherwise.  Exact.
    """
    dom = _dominant_term(w.profile, -1)
    if dom is None or not float(dom[0]) < 0:
        return math.inf
    beta = dom[0]
    if is_exact(beta):
        return Fraction(-w.n, 1) / Fraction(beta)
    return -w.n / float(beta)
