"""Seeded generators for scenario suites and cross-check batches.

Every row of a bound, ratio or composite suite shares one schema, built by
``_row``: ``id, kind, constant, prime, dim, kernel, families, params`` plus the
keys its kind adds (``weight``, ``symbols``, ``inputs``, ``rs``, ``tol``,
``window``).  Two tables drive the generators: ``_SUITES`` maps each bundled
suite name to its maker (``SUITE_NAMES`` is its key order), and ``_BOUNDS``
maps each sufficiency bound to its row recipe.  Recipes that share a draw
take it from one function: ``_weighted_draw`` and ``_weighted_row`` for
C2/C4/C6/C10, ``_commutator_draw`` for the C8/C9 ratio and bound rows.

The bundled suites are regenerated by ``suite_rows`` from ``SUITE_SEED``; no
suite files ship with the package.  Benchmark passes draw them again at
``SUITE_SEED + k``, and ``CALIBRATION_SEED`` names an independent sweep for
checking the envelope constants against fresh rows.  The order of the random
draws is therefore part of each generator's contract: the same seed must give
the same rows, and a digest in the tests pins them.

All emitted scenarios satisfy their bound's hypotheses by construction:
exponent balances are solved exactly in rational arithmetic, weights are
drawn with clear margins inside their classes, and commutator kernels are
kept inside the contractive region of their families.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

from .families import Pointwise, ScalarRadial, scalar_matrix
from .padic import PAdicVector
from .radial import RadialFunction, RadialTerm

__all__ = [
    "SUITE_SEED",
    "CALIBRATION_SEED",
    "SUITE_NAMES",
    "suite_rows",
    "thm33_rows",
    "c1_sharpness_rows",
    "c8c9_rows",
    "prop_power_weight_rows",
    "bound_rows",
    "commutator_bound_rows",
    "mc_cases",
    "frac",
]

SUITE_SEED = 20240812
CALIBRATION_SEED = 20240811


def frac(x) -> int | str:
    """JSON-ready exact number: plain int when integral, else 'a/b'."""
    f = Fraction(x)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def _row(rid: str, kind: str, cid: str, p: int, n: int, kt: list, fams: list,
         params: dict, **extra) -> dict:
    """One scenario row: the keys every bound, ratio and composite row has,
    then the keys its kind adds, in the order given."""
    return {"id": rid, "kind": kind, "constant": cid, "prime": p, "dim": n,
            "kernel": {"terms": kt}, "families": fams, "params": params, **extra}


def _pnm(rng: random.Random, ms: Sequence[int] = (1, 2)) -> tuple[int, int, int]:
    """The prime, the dimension and the number of slots, drawn in that order."""
    return rng.choice((2, 3, 5)), rng.choice((1, 2)), rng.choice(ms)


def _kernel_terms(rng: random.Random, lo_min: int = -3, hi_max: int = 3,
                  max_terms: int = 2) -> list[list]:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        lo = rng.randint(lo_min, hi_max)
        hi = rng.randint(lo, hi_max)
        coeff = Fraction(rng.randint(1, 4), rng.choice((1, 2, 3)))
        beta = Fraction(rng.randint(-2, 2))
        terms.append([frac(coeff), frac(beta), 0, lo, hi])
    return terms


def _kernel_bounds(terms: Sequence[Sequence]) -> tuple[int, int]:
    return min(t[3] for t in terms), max(t[4] for t in terms)


def _scalar_family(rng: random.Random) -> dict:
    return {"slope": rng.randint(-2, 2), "offset": rng.randint(-3, 3)}


def _contractive_family(rng: random.Random, lo: int, hi: int) -> dict:
    """A scalar family with ||A(y)|| < 1 on every kernel shell in [lo, hi]."""
    slope = rng.choice((-2, -1, 0, 1, 2))
    margin = rng.randint(1, 4)
    if slope > 0:
        offset = -slope * hi - margin
    elif slope < 0:
        offset = -slope * lo - margin
    else:
        offset = -margin
    return {"slope": slope, "offset": offset}


def _expansive_family(rng: random.Random, lo: int, hi: int) -> dict:
    """A scalar family with ||A(y)|| >= 1 on every kernel shell in [lo, hi]."""
    slope = rng.choice((-1, 0, 1))
    margin = rng.randint(0, 2)
    if slope > 0:
        offset = -slope * lo + margin
    elif slope < 0:
        offset = -slope * hi + margin
    else:
        offset = margin
    return {"slope": slope, "offset": offset}


def _input_profile(rng: random.Random, lo_min: int = -3, hi_max: int = 4) -> dict:
    terms = []
    for _ in range(rng.randint(1, 2)):
        lo = rng.randint(lo_min, min(0, hi_max))
        hi = rng.randint(lo, hi_max)
        coeff = Fraction(rng.randint(1, 4), rng.choice((1, 2))) * rng.choice((1, 1, 1, -1))
        beta = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 4)))
        terms.append([frac(coeff), frac(beta), 0, lo, hi])
    return {"terms": terms}


def _log_symbols(rng: random.Random, m: int) -> list[dict]:
    return [{"log_coeff": frac(rng.choice((Fraction(1), Fraction(1, 2), Fraction(2))))}
            for _ in range(m)]


# ----------------------------------------------------------------- Morrey exactness


def thm33_rows(seed: int = SUITE_SEED, count: int = 12) -> list[dict]:
    """Symmetric Morrey scenarios whose eigenfunction slack is exactly 1.

    The Morrey norm of a power factorizes across slots only for the
    symmetric split (equal alpha_i, q_i = m q, lam_i = lam / m), so that is
    what the generator draws; kernels, dilation families, p, n, m vary.
    """
    rng = random.Random(seed)
    rows = []
    for j in range(count):
        p, n, m = _pnm(rng, (1, 2, 3))
        q = Fraction(rng.randint(4, 10), rng.choice((1, 2, 3)))
        alpha = Fraction(rng.randint(-2 * n + 1, 4 * n), 2)
        lam = Fraction(-1, math.ceil(q) + rng.randint(1, 6))
        kt = _kernel_terms(rng)
        fams = [_scalar_family(rng) for _ in range(m)]
        params = {"q": frac(q), "q_i": [frac(m * q)] * m,
                  "alpha": frac(alpha), "alpha_i": [frac(alpha)] * m,
                  "lam": frac(lam), "lam_i": [frac(lam / m)] * m}
        beta_in = (alpha + n) * lam / m
        rows.append(_row(f"thm33-{j:02d}", "bound", "C3", p, n, kt, fams, params,
                         inputs=[{"terms": [[1, frac(beta_in), 0, None, None]]} for _ in range(m)]))
    return rows


# ----------------------------------------------------------------- sharpness studies


def c1_sharpness_rows() -> list[dict]:
    """Five ratio studies with nonnegative dilation exponents on the kernel
    support, so the truncated extremal ratios increase toward the constant."""
    def row(j, p, n, kt, fams, q, alpha, m):
        params = {"q": frac(q), "q_i": [frac(m * q)] * m,
                  "alpha": frac(alpha), "alpha_i": [frac(alpha)] * m}
        return _row(f"c1-sharp-{j}", "ratio", "C1", p, n, kt, fams, params,
                    rs=list(range(1, 9)), tol=0.05)

    return [
        row(1, 2, 1, [[1, 0, 0, 0, 0], ["1/2", 0, 0, 2, 2]],
            [{"slope": 1, "offset": 0}], Fraction(2), Fraction(0), 1),
        row(2, 3, 1, [[1, 0, 0, 0, 1]],
            [{"slope": 1, "offset": 1}], Fraction(2), Fraction(1, 2), 1),
        row(3, 2, 2, [[1, 0, 0, 0, 0], [1, -1, 0, 1, 2]],
            [{"slope": 2, "offset": 0}], Fraction(3, 2), Fraction(1), 1),
        row(4, 5, 1, [[1, 0, 0, 0, 1]],
            [{"slope": 1, "offset": 0}, {"slope": 1, "offset": 1}],
            Fraction(2), Fraction(1, 4), 2),
        row(5, 3, 1, [[1, 0, 0, 0, 0], ["1/2", 0, 0, 1, 1]],
            [{"slope": 1, "offset": 0}, {"slope": 0, "offset": 1}, {"slope": 1, "offset": 2}],
            Fraction(3), Fraction(1, 2), 3),
    ]


# ----------------------------------------------------------------- commutator identity


def _commutator_draw(rng: random.Random, n: int, m: int) -> tuple[list, list, dict]:
    """(kernel terms, families, params) of the adjusted-Morrey commutator recipe.

    The families are contractive on the kernel support, so the logarithmic
    symbol differences carry a single sign there.
    """
    r0 = rng.randint(2, 4)
    c0 = rng.randint(2, 5)
    q = Fraction(c0 * r0, c0 + r0)
    hi_a = n * (m * r0 - 1)
    alpha = Fraction(rng.randint(-2 * n + 1, min(4 * n, 2 * hi_a - 1)), 2)
    lam = Fraction(-1, c0 + rng.randint(1, 5))
    kt = _kernel_terms(rng, lo_min=-2, hi_max=2)
    lo, hi = _kernel_bounds(kt)
    fams = [_contractive_family(rng, lo, hi) for _ in range(m)]
    params = {"q": frac(q), "q_i": [frac(m * c0)] * m, "r_i": [frac(m * r0)] * m,
              "alpha": frac(alpha), "alpha_i": [frac(alpha)] * m,
              "lam": frac(lam), "lam_i": [frac(lam / m)] * m}
    return kt, fams, params


def c8c9_rows(seed: int = SUITE_SEED, count: int = 10) -> list[dict]:
    """Commutator eigen-identity studies: the ratio trace equals the constant.

    With contractive families the eigen-coefficient matches the
    absolute-value form of the constant exactly.
    """
    rng = random.Random(seed)
    rows = []
    for j in range(count):
        p, n, m = _pnm(rng, (1, 2) if j % 2 else (1, 2, 3))
        kt, fams, params = _commutator_draw(rng, n, m)
        rows.append(_row(f"c8c9-{j:02d}", "ratio", "C9" if j % 2 else "C8", p, n, kt, fams,
                         params, symbols=[{"log_coeff": 1} for _ in range(m)], rs=list(range(1, 9)),
                         tol=0.05))
    return rows


def commutator_bound_rows(seed: int, count: int = 40) -> list[dict]:
    """Commutator norm-bound scenarios with random finite inputs.

    Shares the adjusted-Morrey parameter recipe of :func:`c8c9_rows` but
    exercises verify_bound on generic data, so the C8/C9 envelope can be
    checked on rows from any seed.
    """
    rng = random.Random(seed)
    rows = []
    for j in range(count):
        p, n, m = _pnm(rng)
        kt, fams, params = _commutator_draw(rng, n, m)
        rows.append(_row(f"c8c9-bound-{j:02d}", "bound", "C9" if j % 2 else "C8", p, n, kt,
                         fams, params, symbols=[{"log_coeff": 1} for _ in range(m)],
                         inputs=[_input_profile(rng, hi_max=2) for _ in range(m)]))
    return rows


# ----------------------------------------------------------------- weight class grid


def prop_power_weight_rows() -> list[dict]:
    """Power weights on both sides of their class boundaries.

    Rows pass when empirical window stability of the class constant agrees
    with the exact characterization (index 1: -n < alpha <= 0, including the
    boundary alpha = 0; index ell > 1: -n < alpha < n(ell-1), open).
    Margins are at least 1/4 so windowed growth is unambiguous.
    """
    rows = []
    for p, n in ((2, 1), (3, 2)):
        def row(tag: str, a: Fraction, ell: int, **extra) -> dict:
            return {"id": f"pw-p{p}n{n}-{tag}", "kind": "weights", "prime": p, "dim": n,
                    "weight": {"alpha": frac(a)}, "ell": ell, **extra, "window": 40}

        grid = [
            (1, Fraction(0)), (1, Fraction(-n, 2)), (1, Fraction(1, 2)),
            (1, Fraction(-n) - Fraction(1, 2)),
            (2, Fraction(n, 2)), (2, Fraction(-n, 2)), (2, Fraction(3 * n, 2)),
        ]
        for ell, a in grid:
            tag = f"{a.numerator}_{a.denominator}" if a.denominator != 1 else str(a.numerator)
            rows.append(row(f"l{ell}-a{tag}", a, ell))
        rows.append(row("rh2", Fraction(-n, 4), 1, rh=2))
    return rows


# ----------------------------------------------------------------- sufficiency suites


def _weight_in_class(rng: random.Random, n: int, zeta: Fraction) -> Fraction:
    """A power-weight exponent comfortably inside the class of index zeta."""
    if zeta == 1:
        return rng.choice((Fraction(0), Fraction(-n, 2), Fraction(-n, 4)))
    return rng.choice((Fraction(0), Fraction(-n, 2), Fraction(n, 4)))


def _rh_of(n: int, a: Fraction) -> Fraction:
    """Conjugate r/(r-1) of the weight's critical index (1 when infinite)."""
    if a >= 0:
        return Fraction(1)
    r = Fraction(-n) / a
    return r / (r - 1)


def _pick_q_star(rng: random.Random, gap: Fraction) -> Fraction | None:
    cands = [Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2)]
    ok = [c for c in cands if Fraction(1) / c > gap]
    return rng.choice(ok) if ok else None


def _weighted_draw(rng: random.Random) -> tuple[int, int, int, Fraction, Fraction, Fraction]:
    """(p, n, m, zeta, weight exponent, r/(r-1)) of a weighted Lebesgue or Morrey row."""
    p, n, m = _pnm(rng)
    zeta = rng.choice((Fraction(1), Fraction(3, 2)))
    a_w = _weight_in_class(rng, n, zeta)
    return p, n, m, zeta, a_w, _rh_of(n, a_w)


def _weighted_row(rng: random.Random, cid: str, j: int, p: int, n: int, m: int,
                  a_w: Fraction, params: dict, slots: Sequence[Fraction],
                  spread: int | None, symbols: bool) -> dict:
    """A C2/C4/C6/C10 row once its exponents are drawn.

    Expansive families and inputs supported in the unit ball keep the
    realized weight masses O(1), where the envelope constant is uniform.  A
    Morrey bound (``spread`` set) draws lam_i = -1/(slot + 1..spread).
    """
    kt = _kernel_terms(rng)
    lo, hi = _kernel_bounds(kt)
    fams = [_expansive_family(rng, lo, hi) for _ in range(m)]
    params["delta"] = frac(Fraction(3, 2))
    extra: dict = {"weight": {"alpha": frac(a_w)}}
    if symbols:
        extra["symbols"] = _log_symbols(rng, m)
    extra["inputs"] = [_input_profile(rng, hi_max=0) for _ in range(m)]
    if spread is not None:
        lam_i = [Fraction(-1, int(v) + rng.randint(1, spread)) for v in slots]
        params["lam_i"] = [frac(v) for v in lam_i]
        params["lam"] = frac(sum(lam_i))
    return _row(f"{cid.lower()}-{j:02d}", "bound", cid, p, n, kt, fams, params, **extra)


def _c2_row(cid: str, spread: int | None, rng: random.Random, j: int) -> dict:
    p, n, m, zeta, a_w, rh = _weighted_draw(rng)
    q_star = rng.choice((Fraction(1), Fraction(5, 4)))
    base = int(m * q_star * zeta * rh) + rng.randint(2, 5)
    q_i = [base + (rng.randint(0, 2) if m > 1 else 0) for _ in range(m)]
    params = {"q_star": frac(q_star), "zeta": frac(zeta), "q_i": [frac(v) for v in q_i]}
    return _weighted_row(rng, cid, j, p, n, m, a_w, params, q_i, spread, symbols=False)


def _c6_row(cid: str, spread: int | None, rng: random.Random, j: int) -> dict:
    for _ in range(100):
        p, n, m, zeta, a_w, rh = _weighted_draw(rng)
        r_star = [Fraction(rng.randint(8, 12)) for _ in range(m)]
        q_star_i = [Fraction(rng.randint(16, 24)) for _ in range(m)]
        gap = (sum(1 / v for v in r_star) + sum(1 / v for v in q_star_i)) * zeta * rh
        q_star = _pick_q_star(rng, gap)
        if q_star is not None:
            params = {"q_star": frac(q_star), "zeta": frac(zeta),
                      "q_star_i": [frac(v) for v in q_star_i],
                      "r_star_i": [frac(v) for v in r_star]}
            return _weighted_row(rng, cid, j, p, n, m, a_w, params, q_star_i, spread,
                                 symbols=True)
    raise RuntimeError("could not draw admissible exponents")  # pragma: no cover


def _c5_row(rng: random.Random, j: int) -> dict:
    p, n, m = _pnm(rng)
    r0 = rng.randint(2, 4)
    c0 = rng.randint(2, 5)
    q = Fraction(c0 * r0, c0 + r0)
    hi_a = n * (m * r0 - 1)
    alpha_i = [Fraction(rng.randint(-2 * n + 1, min(4 * n, 2 * hi_a - 1)), 2)
               for _ in range(m)]
    alpha = sum(alpha_i, Fraction(0)) / m
    kt = _kernel_terms(rng)
    fams = [_scalar_family(rng) for _ in range(m)]
    params = {"q": frac(q), "q_i": [frac(m * c0)] * m, "r_i": [frac(m * r0)] * m,
              "alpha": frac(alpha), "alpha_i": [frac(v) for v in alpha_i],
              "gamma": rng.randint(-2, 3)}
    return _row(f"c5-{j:02d}", "bound", "C5", p, n, kt, fams, params,
                symbols=_log_symbols(rng, m), inputs=[_input_profile(rng) for _ in range(m)])


def _c7_row(rng: random.Random, j: int) -> dict:
    p, n, m = _pnm(rng)
    zeta = rng.choice((Fraction(3, 2), Fraction(2)))
    c = rng.randint(3, 6)
    q_star = zeta * c
    r_star = Fraction(m * c, c - 1)
    # alpha_i from the central half of (-n, n(zeta-1)): the hidden maximal
    # operator bounds blow up toward the class endpoints
    margin = math.ceil(n * zeta)
    lo_q, hi_q = -4 * n + margin, int(4 * n * (zeta - 1)) - margin
    alpha_i = [Fraction(rng.randint(lo_q, hi_q), 4) for _ in range(m)]
    alpha = sum(alpha_i, Fraction(0)) / m
    kt = _kernel_terms(rng)
    lo, hi = _kernel_bounds(kt)
    # contractive families: there the constant's closed form dominates the
    # proof's per-slot factors, so a uniform envelope applies
    fams = [_contractive_family(rng, lo, hi) for _ in range(m)]
    params = {"zeta": frac(zeta), "q_star": frac(q_star),
              "q_i": [frac(Fraction(m * c))] * m, "r_star_i": [frac(r_star)] * m,
              "alpha": frac(alpha), "alpha_i": [frac(v) for v in alpha_i]}
    return _row(f"c7-{j:02d}", "composite", "C7", p, n, kt, fams, params,
                symbols=_log_symbols(rng, m),
                inputs=[_input_profile(rng, hi_max=2) for _ in range(m)], window=40)


#: each sufficiency bound's row recipe; the Morrey bounds add their lam spread
_BOUNDS: dict[str, Callable[[random.Random, int], dict]] = {
    "C2": partial(_c2_row, "C2", None),
    "C4": partial(_c2_row, "C4", 4),
    "C5": _c5_row,
    "C6": partial(_c6_row, "C6", None),
    "C7": _c7_row,
    "C10": partial(_c6_row, "C10", 6),
}


def bound_rows(cid: str, seed: int = SUITE_SEED, count: int = 12) -> list[dict]:
    """Random admissible scenarios for one sufficiency bound."""
    make = _BOUNDS[cid]
    rng = random.Random(f"{seed}:{cid}")  # str seeding is deterministic across processes
    return [make(rng, j) for j in range(count)]


#: each bundled suite's maker, called with the suite seed
_SUITES: dict[str, Callable[[int], list[dict]]] = {
    "thm33": thm33_rows,
    "c1-sharpness": lambda seed: c1_sharpness_rows(),
    "c8c9-commutator": c8c9_rows,
    "prop-power-weights": lambda seed: prop_power_weight_rows(),
    "c2-lebesgue": partial(bound_rows, "C2"),
    "c4-morrey": partial(bound_rows, "C4"),
    "c5-local": partial(bound_rows, "C5"),
    "c6-lebesgue": partial(bound_rows, "C6"),
    "c7-composite": partial(bound_rows, "C7"),
    "c10-morrey": partial(bound_rows, "C10"),
}
SUITE_NAMES = tuple(_SUITES)


def suite_rows(name: str, seed: int = SUITE_SEED) -> list[dict]:
    """Rows of one named bundled suite."""
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return _SUITES[name](seed)


# ----------------------------------------------------------------- Monte Carlo batch


def _pointwise_of(fam: ScalarRadial, p: int, n: int) -> Pointwise:
    """The same scalar dilation action exposed only through an evaluator.

    It returns the shared scalar_matrix of y's shell, as fam.matrix_at does,
    without calling fam.matrix_at, so a wrapper that counts matrix_at calls
    counts each sample once.
    """
    return Pointwise(lambda y: scalar_matrix(p, n, fam.k_on_shell(int(y.shell()))))


def mc_cases(seed: int = SUITE_SEED, count: int = 20) -> list[dict]:
    """Scenarios for the sampled path with their exact reference values.

    Each case carries the kernel, the scalar families both as ScalarRadial
    (exact path) and wrapped as opaque Pointwise evaluators (sampled path),
    the inputs, and the evaluation point.
    """
    rng = random.Random(seed)
    cases = []
    for j in range(count):
        p = rng.choice((2, 3))
        n = rng.choice((1, 2))
        m = rng.choice((1, 2))
        kt = []
        for _ in range(rng.randint(1, 2)):
            lo = rng.randint(-2, 1)
            hi = rng.randint(lo, 2)
            kt.append(RadialTerm(Fraction(rng.randint(1, 3), rng.choice((1, 2))),
                                 Fraction(rng.randint(-1, 1)), 0, lo, hi))
        kernel_phi = RadialFunction(p, n, tuple(kt))
        fams = tuple(ScalarRadial(rng.randint(-1, 1), rng.randint(-2, 2)) for _ in range(m))
        inputs = []
        for _ in range(m):
            lo = rng.randint(-3, 0)
            hi = rng.randint(lo, 3)
            inputs.append(RadialFunction.power(
                p, n, Fraction(rng.randint(1, 3)),
                Fraction(rng.randint(-2, 2), rng.choice((1, 2))), lo=lo, hi=hi))
        v = rng.randint(-1, 1)
        coords = [Fraction(0)] * n
        coords[0] = Fraction(1, p ** v) if v >= 0 else Fraction(p ** (-v))
        cases.append({
            "label": f"mc-{j:02d}",
            "p": p, "n": n,
            "kernel_phi": kernel_phi,
            "scalar_families": fams,
            "pointwise_families": tuple(_pointwise_of(f, p, n) for f in fams),
            "inputs": tuple(inputs),
            "x": PAdicVector(p, tuple(coords)),
            "shell": v,
        })
    return cases
