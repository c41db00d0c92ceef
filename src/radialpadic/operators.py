"""Multilinear Hausdorff operators, commutators, and centered maximal functions.

Computes

    H(f_1..f_m)(x)   = integral  Phi(y) |y|_p^-n  prod_i f_i(A_i(y) x)  dy
    H_b(f_1..f_m)(x) = same integrand times  prod_i (b_i(x) - b_i(A_i(y) x))

together with the centered Hardy-Littlewood maximal function and its
modified variant (sup restricted to balls at least as large as |x|).

For scalar-radial families everything stays inside the radial power-log
algebra: a finite-support kernel yields an exact radial output (each
input dilated by ``RadialFunction.dilate``); an infinite-support kernel
reduces output shell v to a closed-form sum along the kernel's shell line,
each input pulled back along g -> k(g) + v by ``RadialFunction.pullback``.
Constant-matrix families give exact values at rational points (the output
is no longer radial); general pointwise families fall back to stratified
Monte Carlo.

The maximal functions return exact radial profiles on the whole shell
line.  The key identity is the one-step recurrence of centered ball
averages A(g) = p^(-ng) * integral_{B_g} |f|,

    A(g+1) - A(g) = (1 - p^-n) (|f|(g+1) - A(g)),
    A(g-1) - A(g) = (p^n - 1)  (A(g)     - |f|(g)),

so monotonicity of the averages past f's breakpoint hull is decided by
the sign of an explicit power-log expression, which is certified exactly
by polynomial root bounds plus a geometric dominance gap.

Past the hull a tail c g^t p^(beta g) of |f| adds c (1 - p^-n) g^t r^g
to the ball mass on shell g, with r = p^(beta + n).  The antidifference P
of ``series.antidifference`` sums it for every r > 0,
sum_{k=a}^{g} k^t r^k = r^g P(g) - r^(a-1) P(a-1), so the averages stay
power-log expressions on both tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .families import Family, Pointwise, ScalarRadial
from .numeric import ExtendedValue, Number, fpow, ppow
from .padic import PAdicVector
from .radial import RadialFunction, RadialTerm, _eventual_sign, _sign_fault, shell_sum, sum_of_products
from .sampling import MCEstimate, integrate_mc
from .series import antidifference, antidifference_at


# -- kernels -------------------------------------------------------------------


@dataclass(frozen=True)
class KernelSpec:
    """A nonnegative radial kernel Phi; the operator weight is Phi(y)/|y|_p^n."""

    phi: RadialFunction

    def __post_init__(self) -> None:
        fault = _sign_fault(self.phi, strict=False)
        if fault is not None:
            if math.isinf(fault):
                raise ValueError("kernel must be nonnegative toward infinity")
            raise ValueError(f"kernel must be nonnegative; fails on shell {fault}")

    @property
    def p(self) -> int:
        return self.phi.p

    @property
    def n(self) -> int:
        return self.phi.n

    @cached_property
    def _support(self) -> tuple[int, ...] | None:
        lo, hi = self.phi.support_bounds()
        if lo is None or hi is None:
            return None
        return tuple(g for g in range(lo, hi + 1) if self.phi.value_on_shell(g) != 0)

    def support_shells(self) -> list[int] | None:
        """Shells where Phi is nonzero, or None when the support is unbounded.

        The support is computed once, on the first call, and each call
        returns a fresh list.
        """
        supp = self._support
        return None if supp is None else list(supp)


# -- operator application --------------------------------------------------------


@dataclass(frozen=True)
class OperatorResult:
    """An operator output in the strongest form the inputs allow."""

    kind: str  # "radial" | "table" | "pointwise" | "sampled"
    p: int
    n: int
    radial: RadialFunction | None = None
    table: tuple[tuple[int, ExtendedValue], ...] | None = None
    evaluate: Callable[[PAdicVector], ExtendedValue] | None = None
    estimate: Callable[..., MCEstimate] | None = None
    exact: bool = False
    note: str = ""

    def as_radial(self) -> RadialFunction:
        if self.radial is None:
            raise TypeError("result is not radial; use the table or pointwise interface")
        return self.radial

    def value_on_shell(self, v: int) -> ExtendedValue:
        if self.radial is not None:
            return ExtendedValue.finite(self.radial.value_on_shell(v))
        if self.table is not None:
            for g, ev in self.table:
                if g == v:
                    return ev
            raise ValueError(f"shell {v} is outside the synthesized window")
        raise TypeError("pointwise results have no shell values; evaluate at a point")


def _check_inputs(
    kernel: KernelSpec,
    families: Sequence[Family],
    inputs: Sequence[RadialFunction],
    symbols: Sequence[RadialFunction] | None,
) -> None:
    if len(families) == 0:
        raise ValueError("need at least one matrix family")
    if len(inputs) != len(families):
        raise ValueError("need exactly one input function per matrix family")
    if symbols is not None and len(symbols) != len(families):
        raise ValueError("need exactly one symbol per matrix family")
    p, n = kernel.p, kernel.n
    for f in list(inputs) + (list(symbols) if symbols else []):
        if f.p != p or f.n != n:
            raise ValueError("mismatched (p, n) contexts")


def hausdorff_apply(
    kernel: KernelSpec,
    families: Sequence[Family],
    inputs: Sequence[RadialFunction],
    *,
    symbols: Sequence[RadialFunction] | None = None,
    window: int = 48,
) -> OperatorResult:
    """Apply the multilinear Hausdorff operator (or its commutator when
    `symbols` is given) in the strongest computable form.

    All-scalar-radial families with a finite-support kernel give an exact
    radial output.  Infinite kernel support gives exact per-shell values
    over [-window, window].  Constant matrices give an exact evaluator at
    rational points; pointwise families give a Monte Carlo estimator
    ``estimate(x, n_samples, seed)`` that takes its budget and seed per call.
    """
    _check_inputs(kernel, families, inputs, symbols)
    p, n = kernel.p, kernel.n
    unit = 1 - Fraction(p) ** (-n)
    scalar = all(isinstance(F, ScalarRadial) for F in families)
    any_pointwise = any(isinstance(F, Pointwise) for F in families)
    supp = kernel.support_shells()

    if scalar and supp is not None:
        # each kernel shell g adds phi(g) (1 - p^-n) times the product of its
        # slot factors; every shell's product terms are collected and the
        # output is canonicalized once
        rows = []
        for g in supp:
            factors = []
            for i, (fam, f) in enumerate(zip(families, inputs)):
                k = fam.k_on_shell(g)
                if symbols is not None:
                    b = symbols[i]
                    factors.append(b - b.dilate(k))
                factors.append(f.dilate(k))
            rows.append((kernel.phi.value_on_shell(g) * unit, factors))
        return OperatorResult("radial", p, n, radial=sum_of_products(p, n, rows), exact=True)

    def at_shell(v: int, x: PAdicVector | None = None) -> ExtendedValue:
        """The exact output on shell v; x is read only by matrix slots."""
        pre: Number = 1
        line = kernel.phi
        for i, (fam, f) in enumerate(zip(families, inputs)):
            if isinstance(fam, ScalarRadial):
                pf = f.pullback(fam.slope, fam.offset + v)
                if symbols is not None:
                    b = symbols[i]
                    pb = b.pullback(fam.slope, fam.offset + v)
                    at_v = RadialFunction.constant(p, n, b.value_on_shell(v))
                    pf = (at_v - pb) * pf
                line = line * pf
            else:
                sz = int(fam.matrix.image_shell(x))
                val = f.value_on_shell(sz)
                if symbols is not None:
                    b = symbols[i]
                    val = (b.value_on_shell(v) - b.value_on_shell(sz)) * val
                pre = pre * val
        return shell_sum(line).scaled(pre * unit)

    if scalar:
        return OperatorResult(
            "table", p, n,
            table=tuple((v, at_shell(v)) for v in range(-window, window + 1)),
            exact=True,
            note="infinite-support kernel: closed-form shell values over the window",
        )

    if not any_pointwise:

        def evaluate(x: PAdicVector) -> ExtendedValue:
            vshell = x.shell()
            if vshell == -math.inf:
                raise ValueError("evaluation point must be nonzero")
            return at_shell(int(vshell), x)

        return OperatorResult("pointwise", p, n, evaluate=evaluate, exact=True)

    if supp is None:
        shells = list(range(-window, window + 1))
        note = "kernel support truncated to the window for sampling"
    else:
        shells = supp
        note = ""

    def estimate(x: PAdicVector, n_samples: int, seed: int) -> MCEstimate:
        vshell = x.shell()
        if vshell == -math.inf:
            raise ValueError("evaluation point must be nonzero")
        v = int(vshell)
        # the kernel weight depends only on shell(y), and a slot's factor only
        # on (slot, shell(A(y) x)) once x is fixed: each is computed once per
        # call, by the same float operations, so every sample is unchanged.
        # Each slot also keeps the matrix object its family returned last,
        # with that matrix's factor or None when it is singular: a family that
        # returns the same object again (a scalar-radial family on one shell,
        # a constant matrix) skips is_singular, image_shell and the lookup.
        # The kept reference holds the object alive, so its identity cannot
        # pass to another matrix; all of this lives for one call.
        weights: dict[int, float] = {}
        factors: dict[tuple[int, int], float] = {}
        unseen = object()  # no family returns it
        last: list[tuple[object, float | None]] = [(unseen, None)] * len(families)

        def integrand(y: PAdicVector) -> float:
            g = int(y.shell())
            w = weights.get(g)
            if w is None:
                w = weights[g] = float(kernel.phi.value_on_shell(g)) * fpow(float(p), -n * g)
            if w == 0.0:
                return 0.0
            acc = w
            for i, fam in enumerate(families):
                mat = fam.matrix_at(p, n, y)
                seen, fv = last[i]
                if seen is not mat:
                    if mat.is_singular():
                        fv = None
                    else:
                        sz = int(mat.image_shell(x))
                        fv = factors.get((i, sz))
                        if fv is None:
                            fv = float(inputs[i].value_on_shell(sz))
                            if symbols is not None:
                                b = symbols[i]
                                fv *= float(b.value_on_shell(v)) - float(b.value_on_shell(sz))
                            factors[i, sz] = fv
                    last[i] = (mat, fv)
                if fv is None:
                    return 0.0
                acc *= fv
            return acc

        return integrate_mc(integrand, p, n, shells, n_samples=n_samples, seed=seed)

    return OperatorResult("sampled", p, n, estimate=estimate, exact=False, note=note)


# -- tail data for the maximal engine ---------------------------------------------


def _tail_data(part: RadialFunction, end: int, start_edge: int) -> tuple[RadialFunction, int]:
    """Validate one tail of f and return (|f| there as unbounded terms, edge).

    f's sign is constant for |g| >= edge toward `end`; an empty tail gives
    (part, 0).  Tails mixing several growth exponents are outside the exact
    maximal engine, as are a deep tail without locally finite mass and a top
    tail that does not stay bounded.
    """
    if part.is_zero():
        return part, 0
    betas = {t.beta for t in part.terms}
    if len(betas) > 1:
        raise NotImplementedError(
            "maximal profile needs a single growth exponent on each tail of |f|"
        )
    # one exponent group has the sign of its polynomial in g
    sign, edge = _eventual_sign(part, end, start_edge)
    beta = betas.pop()
    if end < 0 and not ppow(part.p, beta + part.n) > 1:
        raise ValueError("not locally integrable: |f| has infinite mass on small balls")
    if end > 0 and (float(beta) > 0 or (float(beta) == 0 and max(t.logpow for t in part.terms) > 0)):
        raise ValueError("maximal function is identically infinite: |f| does not stay bounded")
    return RadialFunction(
        part.p, part.n, tuple(RadialTerm(sign * t.coeff, beta, t.logpow) for t in part.terms)
    ), edge


def _tail_averages(tail: RadialFunction, mass: Number = 0, edge: int | None = None) -> RadialFunction:
    """The ball averages A(g) = head p^(-ng) + unit sum_k c_k p^(beta g) P_k(g)
    of a tail |f| = sum_k c_k g^k p^(beta g), P_k the antidifference of ratio
    p^(beta + n).

    Without an edge the tail runs to -inf and the head is 0.  With one, the
    tail starts at shell edge + 1 over the ball mass `mass` at the edge, and
    the head is that mass minus the tail sum up to the edge.
    """
    p, n = tail.p, tail.n
    unit = 1 - Fraction(p) ** (-n)
    coeffs: dict[int, Number] = {}
    extra: Number = 0
    for t in tail.terms:
        r = ppow(p, t.beta + n)
        poly = antidifference(r, t.logpow)
        for j, d in enumerate(poly):
            coeffs[j] = coeffs.get(j, 0) + unit * t.coeff * d
        if edge is not None:
            extra -= unit * t.coeff * antidifference_at(r, poly, edge)
    terms = [RadialTerm(mass + extra, -n, 0)] if edge is not None and mass + extra != 0 else []
    terms += [RadialTerm(c, tail.terms[0].beta, j) for j, c in coeffs.items() if c != 0]
    return RadialFunction(p, n, tuple(terms))


def _deep_crossover(a_deep: RadialFunction, s_w: Number, top: int) -> int:
    """The highest shell v <= top with a_deep(v) >= s_w.

    Below the resolved shells the averages a_deep grow strictly toward -inf
    (their direction is certified), so the shells that qualify are exactly
    those at or below some v: gallop down from top in doubling steps, then
    bisect.  The gallop always ends: only a deep tail c g^t p^(beta g) with
    beta in (-n, 0), or with beta = 0 and t > 0, gives growing averages, and
    those grow without bound, as p^(beta g) or |g|^t, so some shell reaches
    the finite s_w.  A crossover 10^k shells down costs about 7k evaluations.
    """
    if a_deep.value_on_shell(top) >= s_w:
        return top
    miss, step = top, 1  # a_deep(miss) < s_w
    while True:
        hit = top - step
        if a_deep.value_on_shell(hit) >= s_w:
            break
        miss, step = hit, 2 * step
    while miss - hit > 1:
        mid = (miss + hit) // 2
        if a_deep.value_on_shell(mid) >= s_w:
            hit = mid
        else:
            miss = mid
    return hit


# -- centered maximal functions ---------------------------------------------------


def maximal(f: RadialFunction) -> RadialFunction:
    """Centered Hardy-Littlewood maximal function of a radial f, exact on the
    whole shell line.

    M f(x) = sup over balls centered at x of the average of |f|.  For
    |x|_p = p^v the balls with radius >= p^v coincide with centered balls;
    smaller balls sit inside the shell S_v where |f| is constant, so
    M f(v) = max(|f(v)|, sup_{g >= v} A(g)).
    """
    return _maximal_profile(f, modified=False)


def maximal_mod(f: RadialFunction) -> RadialFunction:
    """The modified maximal function, exact on the whole shell line: the sup
    restricted to balls with radius at least |x|_p (only the centered-average
    branch)."""
    return _maximal_profile(f, modified=True)


def _maximal_profile(f: RadialFunction, modified: bool) -> RadialFunction:
    """Resolves the shells of f's breakpoint hull, with shell 0 kept in it,
    and those up to the certified edges beyond; past them every piece of the
    profile is a closed form."""
    p, n = f.p, f.n
    unit = 1 - Fraction(p) ** (-n)
    if f.is_zero():
        return f
    bps = f.breakpoints()
    lo_hull = min(bps[0] - 2, 0) if bps else 0
    hi_hull = max(bps[-1] + 2, 0) if bps else 0

    # ---- deep tail: closed-form running averages --------------------------------
    abs_deep, edge_d = _tail_data(f.restrict(None, lo_hull - 1), -1, 1 - lo_hull)
    w_lo = min(lo_hull, -edge_d)
    a_deep = _tail_averages(abs_deep)
    ddeep = a_deep - abs_deep  # A(g) - |f|(g): sign of A(g-1) - A(g)
    deep_grows = False
    if not ddeep.is_zero():
        sgn, edge = _eventual_sign(ddeep, -1, abs(w_lo))
        w_lo = min(w_lo, -edge)
        deep_grows = sgn > 0

    # ---- top tail: validate decay, fix the resolved ceiling ---------------------
    abs_top, edge_t = _tail_data(f.restrict(hi_hull + 1, None), +1, hi_hull + 1)
    w_hi = max(hi_hull, edge_t)

    # ---- forward pass: exact averages on [w_lo, w_hi] ---------------------------
    t_mass = a_deep.value_on_shell(w_lo - 1) * ppow(p, n * (w_lo - 1))
    avals: dict[int, Number] = {}
    for g in range(w_lo, w_hi + 1):
        fv = f.value_on_shell(g)
        av = -fv if fv < 0 else fv
        t_mass = t_mass + av * ppow(p, n * g) * unit
        avals[g] = t_mass * ppow(p, -n * g)
    a_top = _tail_averages(abs_top, t_mass, w_hi)

    # ---- direction of the averages beyond w_hi -----------------------------------
    dtop = a_top - abs_top.dilate(1)  # A(g) - |f|(g+1): sign of A(g+1) - A(g), negated
    g_top = w_hi + 1
    top_grows = False
    if not dtop.is_zero():
        sgn, edge = _eventual_sign(dtop, +1, w_hi + 1)
        top_grows = sgn < 0
        g_top = max(g_top, edge)
    if not modified:
        # Past the certified edge of A - |f|, the top tail of M f is that of
        # the averages, never |f|: for |f| = sum_k c_k g^k p^(beta g) with
        # -n < beta < 0 the lead of A - |f| is c_K (1 - p^beta)/(p^(beta+n) - 1)
        # > 0; for beta <= -n the positive head, or the extra log power,
        # dominates; for a constant |f|, A - |f| = head p^(-ng) is negative
        # only when the averages grow, and they grow to the limit |f|.  The
        # edge still moves g_top, below which M f is written shell by shell.
        d2 = a_top - abs_top
        if not d2.is_zero():
            g_top = max(g_top, _eventual_sign(d2, +1, g_top)[1])

    for g in range(w_hi + 1, g_top):
        avals[g] = a_top.value_on_shell(g)

    # ---- running sup from the top down --------------------------------------------
    if top_grows:  # the averages rise to their constant term
        s_run = next((t.coeff for t in a_top.terms if float(t.beta) == 0 and t.logpow == 0), 0)
        if not s_run > 0:
            raise RuntimeError("internal: growing averages without a finite limit")
        top_tail = [RadialTerm(s_run, 0, 0, g_top, None)]
    else:
        s_run = a_top.value_on_shell(g_top)
        top_tail = [RadialTerm(t.coeff, t.beta, t.logpow, g_top, None) for t in a_top.terms]
    svals: dict[int, Number] = {}
    for g in range(g_top - 1, w_lo - 1, -1):
        a = avals[g]
        if a > s_run:
            s_run = a
        svals[g] = s_run
    s_w = svals[w_lo]

    # ---- deep sup -------------------------------------------------------------------
    first = w_lo  # the lowest shell written on its own
    if deep_grows:
        v = _deep_crossover(a_deep, s_w, w_lo - 1)
        deep_terms = [RadialTerm(t.coeff, t.beta, t.logpow, None, v) for t in a_deep.terms]
        if v < w_lo - 1:
            deep_terms.append(RadialTerm(s_w, 0, 0, v + 1, w_lo - 1))
    else:
        edge_val = a_deep.value_on_shell(w_lo - 1)
        deep_const = edge_val if edge_val > s_w else s_w
        if not modified and not abs_deep.is_zero():
            # Averages that do not grow toward -inf have A(g-1) <= A(g), so
            # |f| >= A there, and an |f| that blew up would drag A up with it.
            # So |f| tends to 0, or to a constant c with A -> c <= deep_const:
            # |f| - deep_const is eventually negative and M f is deep_const there.
            dcmp = abs_deep - RadialFunction.constant(p, n, deep_const)
            if not dcmp.is_zero():
                first = -_eventual_sign(dcmp, -1, abs(w_lo))[1]
        deep_terms = [RadialTerm(deep_const, 0, 0, None, first - 1)]
        for g in range(first, w_lo):
            svals[g] = deep_const

    # ---- assemble -----------------------------------------------------------------
    singles = []
    for g in range(first, g_top):
        s = svals[g]
        if not modified:
            fv = f.value_on_shell(g)
            af = -fv if fv < 0 else fv
            if af > s:
                s = af
        singles.append(RadialTerm(s, 0, 0, g, g))
    return RadialFunction(p, n, tuple(deep_terms + singles + top_tail))
