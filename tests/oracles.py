"""Brute-force reference implementations used to pin the library's values.

Everything in this module is deliberately naive: direct sums over explicit
shell ranges with exact Fraction arithmetic wherever the data is rational.
The library must agree with these up to documented tails; the oracles never
import the closed-form machinery they are checking.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product as iproduct

from radialpadic.padic import PAdicVector


def brute_power_log_sum(r, k: int, lo: int, hi: int):
    """Direct sum_{g=lo}^{hi} g^k r^g, exact when r is a Fraction."""
    total = Fraction(0) if isinstance(r, (int, Fraction)) else 0.0
    for g in range(lo, hi + 1):
        term = (Fraction(r) if isinstance(r, (int, Fraction)) else r) ** g
        if k:
            term *= g ** k
        total += term
    return total


def shell_value(p: int, terms, gamma: int):
    """Evaluate a list of (coeff, beta, k, lo, hi) tuples on one shell."""
    total = Fraction(0)
    anyfloat = False
    for c, beta, k, lo, hi in terms:
        if lo is not None and gamma < lo:
            continue
        if hi is not None and gamma > hi:
            continue
        if isinstance(beta, (int, Fraction)) and Fraction(beta).denominator == 1:
            pw = Fraction(p) ** (gamma * int(Fraction(beta)))
        else:
            pw = float(p) ** (gamma * float(beta))
            anyfloat = True
        term = c * pw * (gamma ** k if k else 1)
        if isinstance(term, float):
            anyfloat = True
        total = float(total) + float(term) if anyfloat else total + term
    return total


def brute_haar_integral(p: int, n: int, terms, lo: int, hi: int):
    """sum over shells lo..hi of f(gamma) * |S_gamma| with |S_gamma| exact."""
    unit = 1 - Fraction(p) ** (-n)
    total = Fraction(0)
    anyfloat = False
    for g in range(lo, hi + 1):
        v = shell_value(p, terms, g)
        contrib = v * Fraction(p) ** (n * g) * unit
        if isinstance(contrib, float):
            anyfloat = True
        total = float(total) + float(contrib) if anyfloat else total + contrib
    return total


def brute_ball_mass(p: int, n: int, alpha, gamma: int, depth: int = 600):
    """Windowed mass of |x|^alpha over B_gamma, shells gamma-depth..gamma."""
    unit = 1 - float(p) ** (-n)
    return math.fsum(
        float(p) ** (g * float(alpha) + n * g) * unit for g in range(gamma - depth, gamma + 1)
    )


def brute_weighted_lq(p: int, n: int, fvals, wvals, q, lo: int, hi: int):
    """(sum |f(g)|^q w(g) |S_g|)^(1/q) over shells lo..hi, all floats.

    fvals / wvals are callables shell -> value.
    """
    unit = 1 - float(p) ** (-n)
    total = math.fsum(
        abs(float(fvals(g))) ** float(q) * float(wvals(g)) * float(p) ** (n * g) * unit
        for g in range(lo, hi + 1)
    )
    return total ** (1.0 / float(q))


def decimal_lq_integral(p: int, n: int, fvals, q, shells):
    """sum over the given shells of |f(g)|^q |S_g| in 40-digit decimals, for
    exact shell values far outside the float range; returns a Decimal."""
    with localcontext() as ctx:
        ctx.prec = 40
        qd = Decimal(Fraction(q).numerator) / Decimal(Fraction(q).denominator)
        unit = 1 - Decimal(p) ** (-n)
        total = Decimal(0)
        for g in shells:
            v = Fraction(fvals(g))
            total += (abs(Decimal(v.numerator) / Decimal(v.denominator)) ** qd) * Decimal(p) ** (n * g) * unit
        return +total


def brute_ball_average(p: int, n: int, fvals, gamma: int, depth: int = 600):
    unit = 1 - float(p) ** (-n)
    acc = math.fsum(
        float(fvals(g)) * float(p) ** (n * (g - gamma)) * unit
        for g in range(gamma - depth, gamma + 1)
    )
    return acc


def brute_cmo_single_radius(p, n, bvals, alpha, r, radius, depth=800):
    """CMO integrand at one radius: unweighted ball average, weighted L^r osc."""
    avg = brute_ball_average(p, n, bvals, radius, depth)
    unit = 1 - float(p) ** (-n)
    num = math.fsum(
        abs(float(bvals(g)) - avg) ** float(r)
        * float(p) ** (g * float(alpha) + n * g)
        * unit
        for g in range(radius - depth, radius + 1)
    )
    den = math.fsum(
        float(p) ** (g * float(alpha) + n * g) * unit for g in range(radius - depth, radius + 1)
    )
    return (num / den) ** (1.0 / float(r))


def brute_maximal(p: int, n: int, fvals, v: int, lo: int, hi: int, modified: bool):
    """Direct sup of ball averages of |f| over B_gamma for gamma in [v, hi].

    Averages truncate the inner sum at `lo`; callers pick lo deep enough that
    the truncation error is negligible for the function under test.
    """
    unit = 1 - float(p) ** (-n)
    best = -math.inf
    for g in range(v, hi + 1):
        avg = math.fsum(
            abs(float(fvals(k))) * float(p) ** (n * (k - g)) * unit for k in range(lo, g + 1)
        )
        best = max(best, avg)
    if not modified:
        best = max(best, abs(float(fvals(v))))
    return best


def brute_hausdorff_shell(p, n, kernel_shells, slopes, offsets, f_list, v: int):
    """H(f_1..f_m)(x) on shell v for scalar-radial families, direct double sum.

    kernel_shells: dict gamma -> Phi(gamma).  Each f in f_list is a callable
    shell -> value.  The y-integral collapses to sum_gamma Phi(gamma) |S_gamma|
    p^(-n gamma) prod_i f_i(shell(s_i(y) x)) with shell(s_i y x) = m_i*gamma +
    d_i + v on S_gamma.
    """
    unit = 1 - Fraction(p) ** (-n)
    total = Fraction(0)
    anyfloat = False
    for g, phi in kernel_shells.items():
        prod = phi * unit
        for slope, off, f in zip(slopes, offsets, f_list):
            prod = prod * f(slope * g + off + v)
        if isinstance(prod, float):
            anyfloat = True
        total = float(total) + float(prod) if anyfloat else total + prod
    return total


def enumerate_sphere_depth2(p: int, n: int):
    """Exact Haar distribution of depth-2 digit patterns on the unit sphere.

    Returns a dict mapping coordinate tuples (d0 + d1*p per coordinate, scaled
    to two digits) -> probability weight as a Fraction.  The sphere S_0 in
    B_0^n is {max |x_j| = 1}; at depth 2 each coordinate is u_j / 1 with
    u_j in [0, p^2) uniform, conditioned on not all u_j divisible by p.
    """
    weights: dict[tuple[int, ...], Fraction] = {}
    count = 0
    for us in iproduct(range(p * p), repeat=n):
        if all(u % p == 0 for u in us):
            continue
        weights[us] = weights.get(us, 0) + 1
        count += 1
    return {k: Fraction(v, count) for k, v in weights.items()}


def det_by_elimination(rows):
    """Exact determinant of a square rational matrix by Gaussian elimination."""
    m = [[Fraction(e) for e in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


def brute_shell(p: int, coords) -> int | float:
    """log_p of the max norm: max over coordinates of -valuation; -inf for 0."""
    best = -math.inf
    for c in coords:
        c = Fraction(c)
        if c == 0:
            continue
        v = 0
        num, den = abs(c.numerator), c.denominator
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        best = max(best, -v)
    return best


def reference_mc_estimate(kernel_phi, families, inputs, x, shells, n_samples, seed,
                          symbols=None, depth=32):
    """The sampled Hausdorff estimate with no memo and no fast path.

    Coordinates are ``Fraction(u) * p^-gamma``; every sample evaluates the
    kernel and each slot's input and symbol afresh, takes det(A(y)) by
    elimination and A(y) x as a full Fraction matrix-vector product.  The
    stratified mean and variance are those of ``sampling.integrate_mc``.
    Returns ``(value, stderr, per_shell)``.
    """
    p, n = kernel_phi.p, kernel_phi.n
    v = int(brute_shell(p, x.coords))

    def integrand(y):
        g = int(brute_shell(p, y.coords))
        acc = float(kernel_phi.value_on_shell(g)) * float(p) ** (-n * g)
        if acc == 0.0:
            return 0.0
        for i, (fam, f) in enumerate(zip(families, inputs)):
            rows = fam.matrix_at(p, n, y).rows
            if det_by_elimination(rows) == 0:
                return 0.0
            z = [sum((a * c for a, c in zip(row, x.coords)), Fraction(0)) for row in rows]
            sz = int(brute_shell(p, z))
            fv = float(f.value_on_shell(sz))
            if symbols is not None:
                b = symbols[i]
                fv *= float(b.value_on_shell(v)) - float(b.value_on_shell(sz))
            acc *= fv
        return acc

    shells = sorted(set(shells))
    rng = random.Random(seed)
    per = max(2, n_samples // len(shells))
    top = p ** depth
    total, var, detail = 0.0, 0.0, {}
    for gamma in shells:
        mass = float(Fraction(p) ** (n * gamma) * (1 - Fraction(p) ** (-n)))
        scale = Fraction(p) ** (-gamma)
        vals = []
        for _ in range(per):
            while True:
                units = [rng.randrange(top) for _ in range(n)]
                if any(u % p for u in units):
                    break
            vals.append(integrand(PAdicVector(p, tuple(Fraction(u) * scale for u in units))))
        mean = math.fsum(vals) / per
        sample_var = math.fsum((t - mean) ** 2 for t in vals) / (per - 1)
        total += mass * mean
        var += mass * mass * sample_var / per
        detail[gamma] = {"mean": mean, "stderr": math.sqrt(sample_var / per), "n": per}
    return total, math.sqrt(var), detail


def oracle_slot_factor(cid: str, p: int, n: int, na: float, ninv: float,
                       det_inv: float, logk: float, i: int, P: dict) -> float:
    """One slot's factor in the constant integrand, straight from the formulas.

    na = ||A||, ninv = ||A^{-1}||, det_inv = |det A^{-1}|, logk = log_p ||A||.
    P holds plain parameter lists keyed q, q_i, alpha_i, lam_i, r_i, r_star_i,
    q_star_i, zeta, delta.  Everything is float; no library code is used.
    """
    det_a = 1.0 / det_inv
    if cid == "C1":
        return ninv ** ((P["alpha_i"][i] + n) / P["q_i"][i])
    if cid == "C2":
        z, q, d = P["zeta"], P["q_i"][i], P["delta"]
        branch = na ** (-n * z / q) if na <= 1 else na ** (-n * (d - 1) / (q * d))
        return det_inv ** (z / q) * na ** (z / q) * branch
    if cid == "C3":
        return ninv ** (-(P["alpha_i"][i] + n) * P["lam_i"][i])
    if cid == "C4":
        z, q, d, li = P["zeta"], P["q_i"][i], P["delta"], P["lam_i"][i]
        branch = na ** (n * z * li) if na <= 1 else na ** (n * li * (d - 1) / d)
        return det_inv ** (z / q) * na ** (z / q) * branch
    if cid == "C5":
        a, q, r = P["alpha_i"][i], P["q_i"][i], P["r_i"][i]
        mx = max(ninv ** a, na ** (-a))
        psi = 1 + (mx * det_inv) ** (1 / r) * na ** ((n + a) / r) + abs(logk) + 2 * na ** n / det_a
        mu = (mx * det_inv) ** (1 / q)
        return psi * mu
    if cid == "C6":
        z, d, rs, qs = P["zeta"], P["delta"], P["r_star_i"][i], P["q_star_i"][i]
        psi = 1 + 2 * na ** n / det_a + det_inv ** (z / rs) * na ** (n * z / rs) + abs(logk)
        mu = det_inv ** (z / qs) * na ** (n * z / qs)
        branch = na ** (-n * z / qs) if na <= 1 else na ** (-n * (d - 1) / (qs * d))
        return psi * mu * branch
    if cid == "C7":
        z, rs, q = P["zeta"], P["r_star_i"][i], P["q_i"][i]
        gam = (1 + abs(logk) + 2 * na ** n / det_a + na ** (n / rs) * det_inv ** (1 / rs))
        gam = gam * det_inv ** (1 / q) * na ** (n / q)
        return gam * na ** (-(z + n) / (z * q))
    if cid in ("C8", "C9"):
        return ninv ** (-(P["alpha_i"][i] + n) * P["lam_i"][i]) * abs(logk)
    if cid == "C10":
        z, d, rs, qs, li = P["zeta"], P["delta"], P["r_star_i"][i], P["q_star_i"][i], P["lam_i"][i]
        psi = 1 + 2 * na ** n / det_a + det_inv ** (z / rs) * na ** (n * z / rs) + abs(logk)
        mu = det_inv ** (z / qs) * na ** (n * z / qs)
        branch = na ** (n * z * li) if na <= 1 else na ** (n * li * (d - 1) / d)
        return psi * mu * branch
    raise ValueError(cid)


def oracle_constant(cid: str, p: int, n: int, kernel_terms, shell_lo: int, shell_hi: int,
                    fams, P: dict) -> float:
    """The sharp constant as a direct float sum over explicit shells.

    fams: list of ("scalar", slope, offset) or ("matrix", kp, km, det_inv).
    kernel_terms feed shell_value; the shell range must cover the kernel
    support (or be wide enough that the tail is negligible).
    """
    contribs = []
    for g in range(shell_lo, shell_hi + 1):
        w = float(shell_value(p, kernel_terms, g))
        if w == 0.0:
            continue
        prod = w
        for i, fam in enumerate(fams):
            if fam[0] == "scalar":
                k = fam[1] * g + fam[2]
                na, ninv, det_inv, logk = float(p) ** k, float(p) ** (-k), float(p) ** (-k * n), float(k)
            else:
                kp, km, det_inv = fam[1], fam[2], float(fam[3])
                na, ninv, logk = float(p) ** kp, float(p) ** km, float(kp)
            prod *= oracle_slot_factor(cid, p, n, na, ninv, det_inv, logk, i, P)
        contribs.append(prod)
    return math.fsum(contribs) * (1 - float(p) ** (-n))


def canonicalize_reference(terms):
    """The canonical form by the per-piece rescan, as (coeff, beta, logpow, lo, hi).

    For each (beta, logpow) group, in order of first appearance and named
    after the beta of its first term, the line is split at every range end,
    each piece sums the coefficients of every term active on it as a
    Fraction, adjacent equal pieces merge keeping the first coefficient, and
    zero pieces are dropped.
    The result is sorted stably on (float(beta), logpow, lo, hi).
    """
    neg, pos = -(10 ** 9), 10 ** 9
    groups = {}
    for t in terms:
        if t.coeff == 0:
            continue
        groups.setdefault((t.beta, t.logpow), []).append(t)

    def active(t, g):
        return (t.lo is None or g >= t.lo) and (t.hi is None or g <= t.hi)

    out = []
    for (beta, k), ts in groups.items():
        edges = sorted({e for t in ts for e in
                        ([t.lo] if t.lo is not None else []) + ([t.hi + 1] if t.hi is not None else [])})
        if not edges:
            c = sum((t.coeff for t in ts), Fraction(0))
            if c != 0:
                out.append((c, beta, k, None, None))
            continue
        pieces = []
        bounds = [None] + edges + [None]
        for i in range(len(bounds) - 1):
            lo = bounds[i]
            hi = bounds[i + 1] - 1 if bounds[i + 1] is not None else None
            if lo is not None and hi is not None and lo > hi:
                continue
            rep = hi if lo is None else lo
            pieces.append((lo, hi, sum((t.coeff for t in ts if active(t, rep)), Fraction(0))))
        merged = []
        for lo, hi, c in pieces:
            if merged and merged[-1][2] == c and merged[-1][1] is not None and lo == merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], hi, merged[-1][2])
            else:
                merged.append((lo, hi, c))
        out += [(c, beta, k, lo, hi) for lo, hi, c in merged if c != 0]
    out.sort(key=lambda t: (float(t[1]), t[2], neg if t[3] is None else t[3], pos if t[4] is None else t[4]))
    return tuple(out)
