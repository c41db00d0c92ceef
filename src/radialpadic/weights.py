"""Weighted norms and Muckenhoupt-type diagnostics for radial weights.

Implements, on the radial power-log algebra over Q_p^n:

  * weighted Lebesgue norms over shell regions,
  * central Morrey norms (sup over balls centered at 0),
  * central oscillation (CMO-type) norms,
  * A_ell and reverse-Holder constants with exact tails, and the critical
    reverse-Holder index,
  * the sandwich and embedding inequalities that power weights satisfy.

Every ball integral is exact (closed-form tails) whenever it converges.  A
divergent tail is truncated at the window floor and flagged: the returned
number is then a windowed diagnostic and the untruncated constant is
infinite.  This keeps in-range constants exactly window-stable while
out-of-range constants grow without bound as the window widens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .numeric import (
    ExtendedValue,
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
from .radial import RadialFunction, ball_measure, integrate_radial
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
        for g in range(-_POSITIVITY_WINDOW, _POSITIVITY_WINDOW + 1):
            if w.value_on_shell(g) <= 0:
                raise ValueError(f"weight must be positive on every shell; fails at {g}")
        for end in (-1, +1):
            dom = _dominant_term(w, end)
            if dom is not None:
                beta, k, c = dom
                sign = c * ((-1) ** k if end < 0 else 1)
                if sign <= 0:
                    raise ValueError("weight must stay positive toward infinity")

    @property
    def p(self) -> int:
        return self.profile.p

    @property
    def n(self) -> int:
        return self.profile.n

    @staticmethod
    def power(p: int, n: int, alpha: Number, coeff: Number = 1) -> "Weight":
        return Weight(RadialFunction.power(p, n, coeff, alpha))

    def value(self, gamma: int) -> Number:
        return self.profile.value_on_shell(gamma)

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
    total = integrate_radial(f.restrict(None, gamma))
    if not total.is_finite:
        raise ValueError("function is not integrable on the ball")
    return total.value / ball_measure(f.p, f.n, gamma)


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
    unchanged.
    """
    p = fsub.p
    df = _dominant_term(fsub, end)
    dw = _dominant_term(wsub, end)
    bf = df[0] if df else 0
    bw = dw[0] if dw else 0
    f_shift = fsub * RadialFunction.power(p, n, 1, -bf)
    w_shift = wsub * RadialFunction.power(p, n, 1, -bw)
    e_tot = float(q) * float(bf) + float(bw) + n
    unit = 1.0 - float(p) ** (-n)

    def h(g: int) -> float:
        base = abs(float(f_shift.value_on_shell(g))) ** float(q)
        return base * float(w_shift.value_on_shell(g)) * fpow(float(p), e_tot * g) * unit

    return h


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


def integral_abs_power(
    f: RadialFunction, w: Weight, q: Number, lo: int | None = None, hi: int | None = None
) -> ExtendedValue:
    """integral over {p^lo <= |x| <= p^hi} of |f|^q * w, exact where possible.

    On every maximal interval where both term sets are constant the integrand
    is a single power-log expression whenever f has one active term there (and
    either no log factor or an integral q); those pieces use closed forms.
    Remaining pieces are summed numerically with rescaled evaluation and
    classified tails.
    """
    p, n = f.p, f.n
    unit = 1 - Fraction(p) ** (-n)
    qi = integral_part(q)
    exact_acc = Fraction(0)
    float_parts: list[float] = []
    divergent = False

    for a, b in _interval_pieces(f, w.profile, lo, hi):
        fsub = f.restrict(a, b)
        wsub = w.profile.restrict(a, b)
        if fsub.is_zero():
            continue
        single = len(fsub.terms) == 1 and len(wsub.terms) == 1
        ft = fsub.terms[0] if single else None
        exact_ok = single and (ft.logpow == 0 or qi is not None)
        if exact_ok:
            wt = wsub.terms[0]
            kf = ft.logpow * (qi if qi is not None else 1)
            coeff = abs_pow(ft.coeff, q) * wt.coeff
            if b is not None and b <= -1 and kf % 2:
                coeff = -coeff  # |g|^kf = -g^kf on negative shells for odd kf
            ratio = ppow(p, q * ft.beta + wt.beta + n)
            piece = power_log_sum(ratio, kf + wt.logpow, a, b).scaled(coeff * unit)
            if not piece.is_finite:
                divergent = True
                continue
            if is_exact(piece.value):
                exact_acc += piece.value
            else:
                float_parts.append(float(piece.value))
            continue
        # numeric piece
        if a is None:
            e = _tail_exponent(fsub, wsub, q, n, -1)
            if not e > 0:
                divergent = True
                continue
            h = _rescaled_eval(fsub, wsub, q, n, -1)
            float_parts.append(_numeric_tail(h, b, -1))
        elif b is None:
            e = _tail_exponent(fsub, wsub, q, n, +1)
            if not e < 0:
                divergent = True
                continue
            h = _rescaled_eval(fsub, wsub, q, n, +1)
            float_parts.append(_numeric_tail(h, a, +1))
        else:
            h = _rescaled_eval(fsub, wsub, q, n, -1)
            float_parts.append(math.fsum(h(g) for g in range(a, b + 1)))
    if divergent:
        return ExtendedValue.infinite(+1)
    if float_parts:
        return ExtendedValue.finite(math.fsum(float_parts + [float(exact_acc)]))
    return ExtendedValue.finite(exact_acc)


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


def _sup_over_window(
    qfun: Callable[[int], float], window: int
) -> tuple[float, int | None, bool]:
    """(sup, witness, grows) of qfun over [-window, window] with growth probes."""
    best = -math.inf
    witness = None
    for g in range(-window, window + 1):
        v = qfun(g)
        if v > best:
            best, witness = v, g
    grows = False
    for off in _GROWTH_PROBES:
        for g in (window + off, -window - off):
            if qfun(g) > best * (1 + 1e-9) + 1e-300:
                grows = True
    return best, witness, grows


def morrey_norm(
    f: RadialFunction, w: Weight, q: Number, lam: Number, window: int = 48
) -> NormResult:
    """Central Morrey norm sup_g omega(B_g)^(-(1/q + lam)) ||f||_{L^q_w(B_g)}.

    For lam < -1/q the space contains only zero, so any nonzero f has
    infinite norm.  For single-power data the sup is evaluated analytically:
    it is shell-independent exactly when q beta + alpha + n = q (alpha + n)
    (1/q + lam), finite there, and infinite otherwise.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    p, n = f.p, f.n
    if f.is_zero():
        return NormResult(ExtendedValue.finite(Fraction(0)))
    expo = Fraction(1, 1) / Fraction(q) + Fraction(lam) if is_exact(q) and is_exact(lam) else 1 / float(q) + float(lam)
    if is_exact(lam) and is_exact(q) and Fraction(lam) < -1 / Fraction(q):
        return NormResult(ExtendedValue.infinite(+1))

    def q_at(g: int) -> float:
        mass = weight_ball_mass(w, g)
        if not mass.is_finite:
            return math.inf
        part = integral_abs_power(f, w, q, None, g)
        if not part.is_finite:
            return math.inf
        if part.value == 0:
            return 0.0
        # evaluated in log space so off-scale balls neither overflow nor
        # collapse to 0/0 before the exponents cancel
        if not is_exact(part.value) and float(part.value) == 0.0:
            return 0.0
        return exp_sat(-float(expo) * log_exact(mass.value)
                       + log_exact(part.value) / float(q))

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

    best, witness, grows = _sup_over_window(q_at, window)
    if grows or math.isinf(best):
        return NormResult(ExtendedValue.infinite(+1), witness)
    return NormResult(ExtendedValue.finite(best), witness)


def cmo_norm(b: RadialFunction, w: Weight, r: Number, window: int = 48) -> NormResult:
    """Central oscillation norm: sup over balls of the weighted L^r deviation
    of b from its unweighted ball average, normalized by the ball's weight mass.

    Ball quotients are memoized within one call, keyed on the deviation as
    integrated (dilated to the unit ball for a power weight) and the ball it
    is integrated over.  The reuse is exact: for fixed w and r the quotient is
    a function of that pair alone, and for a power weight the pair is
    (dev.dilate(g), 0), which for a log symbol is the same function on every
    ball.  Other weights integrate over B_g itself, so their keys never repeat.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if b.is_zero():
        return NormResult(ExtendedValue.finite(Fraction(0)))
    rescale = w.power_exponent() is not None
    quotients: dict[tuple, float] = {}

    def d_at(g: int) -> float:
        avg = ball_average(b, g)
        dev = b - RadialFunction.constant(b.p, b.n, avg)
        if rescale:
            # for power weights both the deviation integral and the mass
            # scale by p^(g(n+alpha)) under x -> p^(-g) x, so evaluate the
            # quotient on the unit ball where every shell value is O(|g|^r)
            dev, gam = dev.dilate(g), 0
        else:
            gam = g
        # Fraction(1, 2) and 0.5 compare and hash equal; the number types keep
        # an exact deviation from sharing a quotient with a float one
        key = (dev, gam, tuple((type(t.coeff), type(t.beta)) for t in dev.terms))
        if key not in quotients:
            quotients[key] = quotient(dev, gam)
        return quotients[key]

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

    best, witness, grows = _sup_over_window(d_at, window)
    if grows or math.isinf(best):
        return NormResult(ExtendedValue.infinite(+1), witness)
    return NormResult(ExtendedValue.finite(best), witness)


# -- Muckenhoupt machinery ---------------------------------------------------


def _ball_mass_windowed(profile_eval: Callable[[int], float], p: int, n: int,
                        gamma: int, floor: int, tail: ExtendedValue | None) -> tuple[float, bool]:
    """Mass over B_gamma: exact tail when available, else truncated at `floor`."""
    if tail is not None and tail.is_finite:
        return float_sat(tail.value), False
    unit = 1 - float(p) ** (-n)
    acc = math.fsum(
        profile_eval(g) * fpow(float(p), n * g) * unit for g in range(floor, gamma + 1)
    )
    return acc, True


def _power_mass(w_eval: Callable[[int], float], aux: RadialFunction | None,
                p: int, n: int, gamma: int, floor: int) -> tuple[float, bool]:
    """Mass of an auxiliary per-shell density over B_gamma with window truncation."""
    if aux is not None:
        ev = integrate_radial(aux.restrict(None, gamma))
        if ev.is_finite:
            return float_sat(ev.value), False
    unit = 1 - float(p) ** (-n)
    acc = math.fsum(w_eval(g) * fpow(float(p), n * g) * unit for g in range(floor, gamma + 1))
    return acc, True


def ap_constant(w: Weight, ell: Number, window: int = 40) -> ExtendedValue:
    """Muckenhoupt A_ell constant over centered balls B_gamma, |gamma| <= window.

    Inner integrals use exact convergent tails; a divergent inner integral is
    truncated at the window floor and the result is flagged truncated (the
    untruncated constant is infinite and grows with the window).
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    p, n = w.p, w.n
    floor = -window
    truncated = False

    if ell == 1:
        dom = _dominant_term(w.profile, -1)
        vanishes_deep = dom is not None and float(dom[0]) > 0
        flat_deep = dom is not None and float(dom[0]) == 0 and dom[1] == 0
        best = -math.inf
        low = math.inf  # min of w over the shells floor..g
        for g in range(-window, window + 1):
            mass, tflag = _ball_mass_windowed(
                lambda k: float_sat(w.value(k)), p, n, g, floor, weight_ball_mass(w, g)
            )
            truncated |= tflag
            low = min(low, float_sat(w.value(g)))
            essinf = min(low, float(dom[2])) if flat_deep else low
            truncated |= vanishes_deep
            avg = mass / fpow(float(p), n * g)
            best = max(best, avg / essinf)
        return ExtendedValue(best, truncated=truncated)

    # sigma = w^(-1/(ell-1)); exact when w is a pure power
    alpha = w.power_exponent()
    sigma_exact: RadialFunction | None = None
    if alpha is not None:
        c = w.profile.terms[0].coeff
        sigma_exact = RadialFunction.power(
            p, n, abs_pow(c, Fraction(-1, 1) / (Fraction(ell) - 1)) if is_exact(c) and is_exact(ell)
            else fpow(float(c), -1 / (float(ell) - 1)),
            -Fraction(alpha) / (Fraction(ell) - 1) if is_exact(alpha) and is_exact(ell)
            else -float(alpha) / (float(ell) - 1),
        )

    def sigma_eval(g: int) -> float:
        return fpow(float_sat(w.value(g)), -1 / (float(ell) - 1))

    best = -math.inf
    for g in range(-window, window + 1):
        mass, t1 = _ball_mass_windowed(
            lambda k: float_sat(w.value(k)), p, n, g, floor, weight_ball_mass(w, g)
        )
        smass, t2 = _power_mass(sigma_eval, sigma_exact, p, n, g, floor)
        truncated |= t1 or t2
        vol = fpow(float(p), n * g)
        a_val = (mass / vol) * fpow(smass / vol, float(ell) - 1)
        best = max(best, a_val)
    return ExtendedValue(best, truncated=truncated)


def rh_constant(w: Weight, r: Number, window: int = 40) -> ExtendedValue:
    """Reverse-Holder constant: sup over centered balls of
    (avg of w^r)^(1/r) / (avg of w), with window-truncated divergent tails."""
    if r <= 1:
        raise ValueError("r must exceed 1")
    p, n = w.p, w.n
    floor = -window
    truncated = False
    alpha = w.power_exponent()
    wr_exact: RadialFunction | None = None
    if alpha is not None:
        c = w.profile.terms[0].coeff
        wr_exact = RadialFunction.power(
            p, n,
            abs_pow(c, r),
            Fraction(alpha) * Fraction(r) if is_exact(alpha) and is_exact(r) else float(alpha) * float(r),
        )

    def wr_eval(g: int) -> float:
        return fpow(float_sat(w.value(g)), float(r))

    best = -math.inf
    for g in range(-window, window + 1):
        mass, t1 = _ball_mass_windowed(
            lambda k: float_sat(w.value(k)), p, n, g, floor, weight_ball_mass(w, g)
        )
        rmass, t2 = _power_mass(wr_eval, wr_exact, p, n, g, floor)
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


@dataclass(frozen=True)
class PropositionReport:
    """Fitted constants for the measure-sandwich and averaging inequalities."""

    sandwich_lower: float
    sandwich_upper: float
    sandwich_holds: bool
    embedding_constant: float
    embedding_holds: bool
    monotone_holds: bool


def proposition_checks(
    w: Weight,
    ell: Number,
    r: Number,
    nested_pairs: Sequence[tuple[int, int]],
    window: int = 24,
) -> PropositionReport:
    """Numerically certify the power-weight inequalities on given ball pairs.

    For nested centered balls E = B_a subset B = B_b the mass ratio
    omega(E)/omega(B) is sandwiched between C1 (|E|/|B|)^ell and
    C2 (|E|/|B|)^((r-1)/r); the fitted constants must be positive and finite.
    The embedding inequality bounds the plain average of chi_{B_{b-1}} by the
    weighted L^ell average.  Monotonicity: A_q <= A_ell for q >= ell.
    """
    p, n = w.p, w.n
    lower = math.inf
    upper = -math.inf
    for a, b in nested_pairs:
        if a > b:
            a, b = b, a
        me = weight_ball_mass(w, a)
        mb = weight_ball_mass(w, b)
        if not (me.is_finite and mb.is_finite):
            return PropositionReport(0.0, math.inf, False, math.inf, False, False)
        if is_exact(me.value) and is_exact(mb.value):
            # exact quotient first: the masses themselves may be off-scale
            ratio = float_sat(Fraction(me.value) / Fraction(mb.value))
        else:
            ratio = float_sat(me.value) / float_sat(mb.value)
        mu = fpow(float(p), n * (a - b))
        lower = min(lower, ratio / fpow(mu, float(ell)))
        upper = max(upper, ratio / fpow(mu, (float(r) - 1) / float(r)))
    sandwich_ok = 0 < lower and upper < math.inf

    embed = -math.inf
    for _, b in nested_pairs:
        f = RadialFunction.chi_ball(p, n, b - 1)
        avg = abs(float(ball_average(f, b)))
        mb = weight_ball_mass(w, b)
        num = integral_abs_power(f, w, ell, None, b)
        if not (mb.is_finite and num.is_finite):
            return PropositionReport(lower, upper, sandwich_ok, math.inf, False, False)
        if is_exact(num.value) and is_exact(mb.value):
            quot = float_sat(Fraction(num.value) / Fraction(mb.value))
        else:
            quot = float_sat(num.value) / float_sat(mb.value)
        rhs = fpow(quot, 1 / float(ell))
        embed = max(embed, avg / rhs if rhs > 0 else math.inf)
    embed_ok = math.isfinite(embed)

    base = ap_constant(w, ell, window)
    bigger = ap_constant(w, float(ell) + 1, window)
    monotone = float(bigger) <= float(base) * (1 + 1e-9)

    return PropositionReport(lower, upper, sandwich_ok, embed, embed_ok, monotone)
