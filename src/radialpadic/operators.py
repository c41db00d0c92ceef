"""Multilinear Hausdorff operators, commutators, and centered maximal functions.

Computes

    H(f_1..f_m)(x)   = integral  Phi(y) |y|_p^-n  prod_i f_i(A_i(y) x)  dy
    H_b(f_1..f_m)(x) = same integrand times  prod_i (b_i(x) - b_i(A_i(y) x))

together with the centered Hardy-Littlewood maximal function and its
modified variant (sup restricted to balls at least as large as |x|).

For scalar-radial families everything stays inside the radial power-log
algebra: a finite-support kernel yields an exact radial output; an
infinite-support kernel reduces each output shell to a closed-form sum
along the kernel's shell line.  Constant-matrix families give exact values
at rational points (the output is no longer radial); general pointwise
families fall back to stratified Monte Carlo.

The maximal functions return exact radial profiles on the whole shell
line.  The key identity is the one-step recurrence of centered ball
averages A(g) = p^(-ng) * integral_{B_g} |f|,

    A(g+1) - A(g) = (1 - p^-n) (|f|(g+1) - A(g)),
    A(g-1) - A(g) = (p^n - 1)  (A(g)     - |f|(g)),

so monotonicity of the averages beyond the resolved window is decided by
the sign of an explicit power-log expression, which is certified exactly
by polynomial root bounds plus a geometric dominance gap.

Beyond the window a tail c g^t p^(beta g) of |f| adds c (1 - p^-n) g^t r^g
to the ball mass on shell g, with r = p^(beta + n).  The antidifference P
of ``series.antidifference`` sums it for every r > 0,
sum_{k=a}^{g} k^t r^k = r^g P(g) - r^(a-1) P(a-1), so the averages stay
power-log expressions on both tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Sequence

from .families import ConstantMatrix, Family, Pointwise, ScalarRadial
from .numeric import ExtendedValue, Number, fpow, ppow
from .padic import PAdicVector
from .radial import RadialFunction, RadialTerm, _end_signs, _eventual_sign, shell_sum
from .sampling import MCEstimate, integrate_mc
from .series import antidifference, antidifference_at


# -- kernels -------------------------------------------------------------------


@dataclass(frozen=True)
class KernelSpec:
    """A nonnegative radial kernel Phi; the operator weight is Phi(y)/|y|_p^n."""

    phi: RadialFunction

    def __post_init__(self) -> None:
        phi = self.phi
        (s_lo, e_lo), (s_hi, e_hi) = _end_signs(phi)
        if s_lo < 0 or s_hi < 0:
            raise ValueError("kernel must be nonnegative toward infinity")
        for g in range(1 - e_lo, e_hi):
            if phi.value_on_shell(g) < 0:
                raise ValueError(f"kernel must be nonnegative; fails on shell {g}")

    @property
    def p(self) -> int:
        return self.phi.p

    @property
    def n(self) -> int:
        return self.phi.n

    def support_shells(self) -> list[int] | None:
        """Shells where Phi is nonzero, or None when the support is unbounded."""
        lo, hi = self.phi.support_bounds()
        if lo is None or hi is None:
            return None
        return [g for g in range(lo, hi + 1) if self.phi.value_on_shell(g) != 0]

    def line_mass(self) -> ExtendedValue:
        """integral Phi(y)/|y|^n dy = (1 - p^-n) sum_g Phi(g)."""
        return shell_sum(self.phi).scaled(1 - Fraction(self.p) ** (-self.n))


# -- shell-line pullbacks -------------------------------------------------------


def _ceil_div(a: int, b: int) -> int:
    return math.ceil(Fraction(a, b))


def _floor_div(a: int, b: int) -> int:
    return math.floor(Fraction(a, b))


def _affine_pullback(f: RadialFunction, m: int, c: int) -> RadialFunction:
    """The shell-line function g -> f(m*g + c), inside the same algebra.

    Each term of f pulls back with exponent m*beta, a binomial expansion of
    (m g + c)^k, and the range mapped through the affine change of shell.
    """
    if m == 0:
        return RadialFunction.constant(f.p, f.n, f.value_on_shell(c))
    out = []
    for t in f.terms:
        if m > 0:
            lo = None if t.lo is None else _ceil_div(t.lo - c, m)
            hi = None if t.hi is None else _floor_div(t.hi - c, m)
        else:
            lo = None if t.hi is None else _ceil_div(t.hi - c, m)
            hi = None if t.lo is None else _floor_div(t.lo - c, m)
        if lo is not None and hi is not None and lo > hi:
            continue
        base = t.coeff * ppow(f.p, c * t.beta)
        beta = m * t.beta
        for j in range(t.logpow + 1):
            cj = base * comb(t.logpow, j) * m ** j * c ** (t.logpow - j)
            out.append(RadialTerm(cj, beta, j, lo, hi))
    return RadialFunction(f.p, f.n, tuple(out))


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

    def shell_table(self, lo: int, hi: int) -> list[tuple[int, ExtendedValue]]:
        if self.radial is not None:
            return [
                (g, ExtendedValue.finite(self.radial.value_on_shell(g)))
                for g in range(lo, hi + 1)
            ]
        if self.table is not None:
            return [(g, ev) for g, ev in self.table if lo <= g <= hi]
        raise TypeError("pointwise results have no shell table; evaluate at points")


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
    mc_samples: int = 100_000,
    mc_seed: int = 1,
) -> OperatorResult:
    """Apply the multilinear Hausdorff operator (or its commutator when
    `symbols` is given) in the strongest computable form.

    All-scalar-radial families with a finite-support kernel give an exact
    radial output.  Infinite kernel support gives exact per-shell values
    over [-window, window].  Constant matrices give an exact evaluator at
    rational points; pointwise families give a seeded Monte Carlo estimator.
    """
    _check_inputs(kernel, families, inputs, symbols)
    p, n = kernel.p, kernel.n
    unit = 1 - Fraction(p) ** (-n)
    scalar = all(isinstance(F, ScalarRadial) for F in families)
    any_pointwise = any(isinstance(F, Pointwise) for F in families)
    supp = kernel.support_shells()

    if scalar and supp is not None:
        out = RadialFunction.zero(p, n)
        for g in supp:
            w = kernel.phi.value_on_shell(g)
            prod = RadialFunction.constant(p, n, 1)
            for i, (fam, f) in enumerate(zip(families, inputs)):
                k = fam.k_on_shell(g)
                factor = f.dilate(k)
                if symbols is not None:
                    b = symbols[i]
                    factor = (b - b.dilate(k)) * factor
                prod = prod * factor
            out = out + prod.scale(w * unit)
        return OperatorResult("radial", p, n, radial=out, exact=True)

    def at_shell(v: int, x: PAdicVector | None = None) -> ExtendedValue:
        """The exact output on shell v; x is read only by matrix slots."""
        pre: Number = 1
        line = kernel.phi
        for i, (fam, f) in enumerate(zip(families, inputs)):
            if isinstance(fam, ScalarRadial):
                pf = _affine_pullback(f, fam.slope, fam.offset + v)
                if symbols is not None:
                    b = symbols[i]
                    pb = _affine_pullback(b, fam.slope, fam.offset + v)
                    at_v = RadialFunction.constant(p, n, b.value_on_shell(v))
                    pf = (at_v - pb) * pf
                line = line * pf
            else:
                z = fam.matrix.matvec(x)
                sz = int(z.shell())
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

    def estimate(x: PAdicVector, n_samples: int = mc_samples, seed: int = mc_seed) -> MCEstimate:
        vshell = x.shell()
        if vshell == -math.inf:
            raise ValueError("evaluation point must be nonzero")
        v = int(vshell)
        # the kernel weight depends only on shell(y), and a slot's factor only
        # on (slot, shell(A(y) x)) once x is fixed: each is computed once per
        # call, by the same float operations, so every sample is unchanged
        weights: dict[int, float] = {}
        factors: dict[tuple[int, int], float] = {}

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
                if mat.det() == 0:
                    return 0.0
                sz = int(mat.matvec(x).shell())
                fv = factors.get((i, sz))
                if fv is None:
                    fv = float(inputs[i].value_on_shell(sz))
                    if symbols is not None:
                        b = symbols[i]
                        fv *= float(b.value_on_shell(v)) - float(b.value_on_shell(sz))
                    factors[i, sz] = fv
                acc *= fv
            return acc

        return integrate_mc(integrand, p, n, shells, n_samples=n_samples, seed=seed)

    return OperatorResult("sampled", p, n, estimate=estimate, exact=False, note=note)


def commutator_apply(
    kernel: KernelSpec,
    families: Sequence[Family],
    symbols: Sequence[RadialFunction],
    inputs: Sequence[RadialFunction],
    **kw,
) -> OperatorResult:
    """The Coifman-Rochberg-Weiss commutator: inserts
    prod_i (b_i(x) - b_i(A_i(y)x)) into the Hausdorff integrand."""
    return hausdorff_apply(kernel, families, inputs, symbols=symbols, **kw)


# -- tail data for the maximal engine ---------------------------------------------


def _tail_data(part: RadialFunction, end: int, start_edge: int):
    """Validate and describe one tail of f: (beta, poly, sign, edge) or None.

    `poly` maps log power to coefficient; `sign` is the constant sign of the
    tail for |g| >= edge.  Tails mixing several growth exponents are outside
    the exact maximal engine.
    """
    if part.is_zero():
        return None
    betas = {t.beta for t in part.terms}
    if len(betas) > 1:
        raise NotImplementedError(
            "maximal profile needs a single growth exponent on each tail of |f|"
        )
    # one exponent group has the sign of its polynomial in g
    sign, edge = _eventual_sign(part, end, start_edge)
    return betas.pop(), {t.logpow: t.coeff for t in part.terms}, sign, edge


# -- centered maximal functions ---------------------------------------------------


def maximal(f: RadialFunction, window: int = 48) -> RadialFunction:
    """Centered Hardy-Littlewood maximal function of a radial f, exact.

    M f(x) = sup over balls centered at x of the average of |f|.  For
    |x|_p = p^v the balls with radius >= p^v coincide with centered balls;
    smaller balls sit inside the shell S_v where |f| is constant, so
    M f(v) = max(|f(v)|, sup_{g >= v} A(g)).
    """
    return _maximal_profile(f, window, modified=False)


def maximal_mod(f: RadialFunction, window: int = 48) -> RadialFunction:
    """The modified maximal function: sup restricted to balls with radius
    at least |x|_p (only the centered-average branch)."""
    return _maximal_profile(f, window, modified=True)


def _maximal_profile(f: RadialFunction, window: int, modified: bool) -> RadialFunction:
    p, n = f.p, f.n
    unit = 1 - Fraction(p) ** (-n)
    if f.is_zero():
        return f
    bps = f.breakpoints()
    lo_hull = min([-window] + ([min(bps) - 2] if bps else []))
    hi_hull = max([window] + ([max(bps) + 2] if bps else []))

    # ---- deep tail: closed-form running averages --------------------------------
    dd = _tail_data(f.restrict(None, lo_hull - 1), -1, abs(lo_hull) + 1)
    if dd is None:
        w_lo = lo_hull
        a_deep = RadialFunction.zero(p, n)
        abs_deep = RadialFunction.zero(p, n)
        deep_dir = "empty"
    else:
        beta_d, poly_d, sign_d, edge_d = dd
        w_lo = min(lo_hull, -edge_d)
        r_d = ppow(p, beta_d + n)
        if not r_d > 1:
            raise ValueError("not locally integrable: |f| has infinite mass on small balls")
        abs_poly = {k: sign_d * c for k, c in poly_d.items()}
        acoeffs: dict[int, Number] = {}
        for k, c in abs_poly.items():
            for j, d in enumerate(antidifference(r_d, k)):
                acoeffs[j] = acoeffs.get(j, 0) + unit * c * d
        a_deep = RadialFunction(
            p, n, tuple(RadialTerm(c, beta_d, j) for j, c in acoeffs.items() if c != 0)
        )
        abs_deep = RadialFunction(
            p, n, tuple(RadialTerm(c, beta_d, k) for k, c in abs_poly.items() if c != 0)
        )
        ddeep = a_deep - abs_deep  # A(g) - |f|(g): sign of A(g-1) - A(g)
        if ddeep.is_zero():
            deep_dir = "flat"
        else:
            sgn, edge = _eventual_sign(ddeep, -1, abs(w_lo))
            w_lo = min(w_lo, -edge)
            deep_dir = "averages_grow" if sgn > 0 else "averages_shrink"

    # ---- top tail: validate decay, fix the resolved ceiling ---------------------
    td = _tail_data(f.restrict(hi_hull + 1, None), +1, abs(hi_hull) + 1)
    if td is not None:
        beta_t, poly_t, sign_t, edge_t = td
        if float(beta_t) > 0 or (float(beta_t) == 0 and max(poly_t) > 0):
            raise ValueError(
                "maximal function is identically infinite: |f| does not stay bounded"
            )
        w_hi = max(hi_hull, edge_t)
    else:
        w_hi = hi_hull

    # ---- forward pass: exact averages on [w_lo, w_hi] ---------------------------
    if dd is None:
        t_mass: Number = Fraction(0)
    else:
        t_mass = a_deep.value_on_shell(w_lo - 1) * ppow(p, n * (w_lo - 1))
    avals: dict[int, Number] = {}
    for g in range(w_lo, w_hi + 1):
        fv = f.value_on_shell(g)
        av = -fv if fv < 0 else fv
        t_mass = t_mass + av * ppow(p, n * g) * unit
        avals[g] = t_mass * ppow(p, -n * g)
    t_end = t_mass

    # ---- analytic averages beyond w_hi -------------------------------------------
    if td is None:
        a_top = RadialFunction.power(p, n, t_end, -n)
        abs_top = RadialFunction.zero(p, n)
    else:
        abs_poly_t = {k: sign_t * c for k, c in poly_t.items()}
        r_t = ppow(p, beta_t + n)
        a0 = w_hi + 1
        # mass(g) = t_end + unit * sum_{k=a0}^{g} |f|(k) p^(nk); each log power
        # telescopes to r^g P(g) - r^(a0-1) P(a0-1), and r^g p^(-ng) = p^(beta_t g)
        const_extra: Number = 0  # extra coefficient on p^(-n g)
        tpoly: dict[int, Number] = {}  # coefficients on g^j p^(beta_t g)
        for k, c in abs_poly_t.items():
            poly = antidifference(r_t, k)
            for j, d in enumerate(poly):
                tpoly[j] = tpoly.get(j, 0) + unit * c * d
            const_extra -= unit * c * antidifference_at(r_t, poly, a0 - 1)
        head = t_end + const_extra
        terms = []
        if head != 0:
            terms.append(RadialTerm(head, -n, 0))
        terms.extend(RadialTerm(c, beta_t, j) for j, c in tpoly.items() if c != 0)
        a_top = RadialFunction(p, n, tuple(terms))
        abs_top = RadialFunction(
            p, n, tuple(RadialTerm(c, beta_t, k) for k, c in abs_poly_t.items() if c != 0)
        )

    # ---- direction of the averages beyond the window -----------------------------
    dtop = a_top - abs_top.dilate(1)  # A(g) - |f|(g+1): sign of A(g+1) - A(g), negated
    if dtop.is_zero():
        top_dir = "flat"
        g_top = w_hi + 1
    else:
        sgn_t2, edge2 = _eventual_sign(dtop, +1, w_hi + 1)
        top_dir = "averages_shrink" if sgn_t2 > 0 else "averages_grow"
        g_top = max(w_hi + 1, edge2)
    limit_top: Number = 0
    if top_dir == "averages_grow":
        for t in a_top.terms:
            if float(t.beta) == 0 and t.logpow == 0:
                limit_top = t.coeff
        if not limit_top > 0:
            raise RuntimeError("internal: growing averages without a finite limit")

    sgn_d2 = 0
    if not modified:
        d2 = a_top - abs_top  # A(g) - |f|(g) beyond the window
        if not d2.is_zero():
            sgn_d2, edge3 = _eventual_sign(d2, +1, g_top)
            g_top = max(g_top, edge3)

    for g in range(w_hi + 1, g_top):
        avals[g] = a_top.value_on_shell(g)

    # ---- running sup from the top down --------------------------------------------
    if top_dir == "averages_grow":
        s_at_gtop: Number = limit_top
        top_tail = [RadialTerm(limit_top, 0, 0, g_top, None)]
    else:
        s_at_gtop = a_top.value_on_shell(g_top)
        top_tail = [RadialTerm(t.coeff, t.beta, t.logpow, g_top, None) for t in a_top.terms]
    svals: dict[int, Number] = {}
    s_run = s_at_gtop
    for g in range(g_top - 1, w_lo - 1, -1):
        a = avals[g]
        if a > s_run:
            s_run = a
        svals[g] = s_run
    s_w = svals[w_lo]

    # ---- deep sup -------------------------------------------------------------------
    if deep_dir == "averages_grow":
        v = w_lo - 1
        steps = 0
        while a_deep.value_on_shell(v) < s_w:
            v -= 1
            steps += 1
            if steps > 1_000_000:
                raise RuntimeError("deep crossover not found")
        deep_terms = [RadialTerm(t.coeff, t.beta, t.logpow, None, v) for t in a_deep.terms]
        if v < w_lo - 1:
            deep_terms.append(RadialTerm(s_w, 0, 0, v + 1, w_lo - 1))
    else:
        if deep_dir == "empty":
            deep_const = s_w
        else:
            edge_val = a_deep.value_on_shell(w_lo - 1)
            deep_const = edge_val if edge_val > s_w else s_w
        deep_terms = [RadialTerm(deep_const, 0, 0, None, w_lo - 1)]

    # ---- assemble -----------------------------------------------------------------
    if modified:
        window_terms = [RadialTerm(svals[g], 0, 0, g, g) for g in range(w_lo, g_top)]
        return RadialFunction(p, n, tuple(deep_terms + window_terms + top_tail))

    window_terms = []
    for g in range(w_lo, g_top):
        fv = f.value_on_shell(g)
        af = -fv if fv < 0 else fv
        window_terms.append(RadialTerm(af if af > svals[g] else svals[g], 0, 0, g, g))
    if top_dir != "averages_grow" and sgn_d2 < 0:
        top_tail = [RadialTerm(t.coeff, t.beta, t.logpow, g_top, None) for t in abs_top.terms]
    if deep_dir != "averages_grow" and not abs_deep.is_zero():
        deep_const = deep_terms[0].coeff
        dcmp = abs_deep - RadialFunction.constant(p, n, deep_const)
        if not dcmp.is_zero():
            sgn_dc, edge4 = _eventual_sign(dcmp, -1, abs(w_lo))
            w_deep = -edge4
            deep_singles = []
            for g in range(w_deep, w_lo):
                fv = abs_deep.value_on_shell(g)
                deep_singles.append(
                    RadialTerm(fv if fv > deep_const else deep_const, 0, 0, g, g)
                )
            if sgn_dc < 0:
                deep_terms = [RadialTerm(deep_const, 0, 0, None, w_deep - 1)] + deep_singles
            else:
                deep_terms = [
                    RadialTerm(t.coeff, t.beta, t.logpow, None, w_deep - 1)
                    for t in abs_deep.terms
                ] + deep_singles
    return RadialFunction(p, n, tuple(deep_terms + window_terms + top_tail))
