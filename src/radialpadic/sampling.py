"""Seeded Monte Carlo sampling on p-adic spheres and shells.

Haar measure on the ball B_gamma factors over coordinates: x_j = p^(-gamma) u_j
with u_j Haar-uniform in Z_p, realized to finite depth D as a uniform integer
in [0, p^D).  Each coordinate is built as one exact Fraction: u_j p^(-gamma)
when gamma <= 0, else u_j / p^gamma, reduced once, with no Fraction product.
A sphere point keeps its integer units and builds these coordinates on
first read, so an integrand that reads only the shell builds none.
The sphere S_gamma = B_gamma minus the interior is sampled by
rejection (resample while every coordinate has positive valuation), which is
exactly Haar conditioned on the sphere.  A sphere point knows its shell: some
unit is prime to p, so the shell is gamma, and it is never recomputed.
Estimates over a set of shells are stratified: shell masses |S_gamma| are
exact, so only the within-shell means are estimated.

integrate_mc checks (p, n, depth) and builds the unit range p^D once per
call, before its first draw, and each shell's scale once per shell; its points
come from the same draw rule as sample_sphere's (_sphere_points), so both
read the rng stream alike: a unit is the rng.randrange(p^D) of a
random.Random.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Sequence

from .padic import PAdicVector, _sampled_vector, check_prime
from .radial import sphere_measure

#: base-p digits kept per coordinate; valuations beyond this depth are
#: indistinguishable from zero for the sampled point
DIGIT_DEPTH = 32


def _checked_top(p: int, n: int, depth: int) -> int:
    """Check the sampler's arguments; return p^depth, the range of one unit.

    With n < 1 there is no coordinate to draw, and with depth < 1 every
    draw is 0, so the sphere's rejection loop would never accept.
    """
    check_prime(p)
    if n < 1:
        raise ValueError(f"dimension n must be at least 1, got {n!r}")
    if depth < 1:
        raise ValueError(f"digit depth must be at least 1, got {depth!r}")
    return p ** depth


def _sphere_points(rng: random.Random, p: int, n: int, gamma: int, top: int) -> Iterator[PAdicVector]:
    """Endless Haar-uniform points of S_gamma drawn from rng, for arguments
    already checked by _checked_top.

    Each unit is the rng.randrange(top) of a random.Random, read the way its
    _randbelow reads it: getrandbits of top's bit length, redrawn while it
    is at least top.  A point is rejected while every unit is divisible by p.
    """
    num, den = (p ** -gamma, 1) if gamma <= 0 else (1, p ** gamma)
    getrandbits, bits, coords = rng.getrandbits, top.bit_length(), range(n)
    while True:
        units = []
        for _ in coords:
            u = getrandbits(bits)
            while u >= top:
                u = getrandbits(bits)
            units.append(u)
        if any(u % p for u in units):
            yield _sampled_vector(p, units, num, den, gamma)


def sample_sphere(rng: random.Random, p: int, n: int, gamma: int, depth: int = DIGIT_DEPTH) -> PAdicVector:
    """One Haar-uniform point of the sphere S_gamma = {|x|_p = p^gamma}.

    Rejection from the ball: a ball point lies in the interior iff every
    coordinate's unit part is divisible by p, which happens with probability
    p^-n, so the loop accepts quickly.  The point's coordinates are
    built on first read.
    """
    return next(_sphere_points(rng, p, n, gamma, _checked_top(p, n, depth)))


@dataclass(frozen=True)
class MCEstimate:
    """Stratified estimate of an integral over a union of shells."""

    value: float
    stderr: float
    n_samples: int
    seed: int
    per_shell: dict

    def within(self, target: float, sigmas: float = 4.0, floor: float = 1e-12) -> bool:
        """|estimate - target| <= sigmas * stderr plus a roundoff floor.

        The floor covers the degenerate zero-variance case (integrands that
        are constant on every shell), where the only discrepancy left is
        float accumulation error.
        """
        tol = sigmas * self.stderr + floor * max(1.0, abs(target))
        return abs(self.value - target) <= tol


def integrate_mc(
    integrand: Callable[[PAdicVector], float],
    p: int,
    n: int,
    shells: Sequence[int],
    n_samples: int,
    seed: int,
    depth: int = DIGIT_DEPTH,
) -> MCEstimate:
    """Stratified Monte Carlo integral of `integrand` over the given shells.

    Each shell gamma receives an equal share of the sample budget; the shell
    contribution is |S_gamma| times the within-shell sample mean, and the
    variance combines the exact stratum masses with sample variances.
    """
    shells = sorted(set(shells))
    if not shells:
        return MCEstimate(0.0, 0.0, 0, seed, {})
    top = _checked_top(p, n, depth)
    rng = random.Random(seed)
    per = max(2, n_samples // len(shells))
    total = 0.0
    var = 0.0
    detail = {}
    for gamma in shells:
        mass = float(sphere_measure(p, n, gamma))
        vals = [float(integrand(x)) for x in islice(_sphere_points(rng, p, n, gamma, top), per)]
        mean = math.fsum(vals) / per
        centered = math.fsum((v - mean) ** 2 for v in vals)
        sample_var = centered / (per - 1) if per > 1 else 0.0
        total += mass * mean
        var += mass * mass * sample_var / per
        detail[gamma] = {"mean": mean, "stderr": math.sqrt(sample_var / per), "n": per}
    return MCEstimate(total, math.sqrt(var), per * len(shells), seed, detail)
