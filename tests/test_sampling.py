"""Seeded sphere sampling and stratified Monte Carlo integration."""

import math
import random
import re
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from radialpadic.padic import pnorm
from radialpadic.radial import RadialFunction, integrate_radial, sphere_measure
from radialpadic.sampling import MCEstimate, integrate_mc, sample_sphere

from oracles import enumerate_sphere_depth2


def test_sample_sphere_hits_exact_norm():
    rng = random.Random(11)
    for p, n, gamma in [(2, 1, 0), (2, 2, -1), (5, 2, 2), (3, 3, 0)]:
        for _ in range(60):
            x = sample_sphere(rng, p, n, gamma)
            assert x.norm() == Fraction(p) ** gamma


def test_sampler_is_deterministic_per_seed():
    # integrand must depend on more than the shell or every seed agrees
    def h(x):
        return float(pnorm(x.coords[0], 2))

    a = integrate_mc(h, 2, 2, [0, 1], 400, seed=123)
    b = integrate_mc(h, 2, 2, [0, 1], 400, seed=123)
    c = integrate_mc(h, 2, 2, [0, 1], 400, seed=124)
    assert a.value == b.value and a.stderr == b.stderr
    assert a.value != c.value


def test_first_coordinate_max_fraction():
    # P(|x_1| = |x| on S_0) = (1 - 1/p) / (1 - p^-n); for p=2, n=2 this is 2/3
    rng = random.Random(42)
    n_samp = 4000
    hits = 0
    for _ in range(n_samp):
        x = sample_sphere(rng, 2, 2, 0)
        if pnorm(x.coords[0], 2) == x.norm():
            hits += 1
    frac = hits / n_samp
    sigma = math.sqrt((2 / 3) * (1 / 3) / n_samp)
    assert abs(frac - 2 / 3) <= 4 * sigma


def test_depth2_patterns_match_enumeration():
    # exact Haar distribution of two-digit patterns, frozen by enumeration
    p, n = 2, 2
    dist = enumerate_sphere_depth2(p, n)
    rng = random.Random(99)
    n_samp = 12000
    counts = {k: 0 for k in dist}
    for _ in range(n_samp):
        x = sample_sphere(rng, p, n, 0, depth=2)
        key = tuple(int(c * 1) % (p * p) for c in x.coords)
        counts[key] += 1
    for key, prob in dist.items():
        want = float(prob)
        got = counts[key] / n_samp
        sigma = math.sqrt(want * (1 - want) / n_samp)
        assert abs(got - want) <= 5 * sigma, (key, got, want)


def test_constant_integrand_zero_variance():
    est = integrate_mc(lambda x: 2.5, 3, 1, [0, 1, 2], 300, seed=5)
    mass = sum(float(sphere_measure(3, 1, g)) for g in (0, 1, 2))
    assert est.stderr == 0.0
    assert math.isclose(est.value, 2.5 * mass, rel_tol=1e-12)
    assert est.within(2.5 * mass)


def test_radial_integrand_matches_exact_integral():
    # radial integrands are constant per stratum: MC is exact up to roundoff
    f = RadialFunction.power(2, 2, Fraction(3, 4), -1, lo=-1, hi=3)
    shells = list(range(-1, 4))
    est = integrate_mc(lambda x: float(f.value_on_shell(int(x.shell()))), 2, 2, shells, 500, seed=17)
    want = integrate_radial(f)
    assert est.within(float(want.value))


def test_nonradial_integrand_within_4_sigma():
    # indicator of {|x_1| = |x|} on S_0 over Q_2^2: integral = (2/3) |S_0| = 1/2
    def ind(x):
        return 1.0 if pnorm(x.coords[0], 2) == x.norm() else 0.0

    est = integrate_mc(ind, 2, 2, [0], 6000, seed=31)
    assert est.stderr > 0
    assert est.within(0.5)


def test_estimate_record_fields():
    est = integrate_mc(lambda x: 1.0, 2, 1, [0], 100, seed=1)
    assert isinstance(est, MCEstimate)
    assert est.n_samples >= 100 and est.seed == 1
    assert 0 in est.per_shell and est.per_shell[0]["n"] >= 100


@contextmanager
def _deadline(seconds):
    """Fail the test, instead of hanging the suite, if the call never returns."""

    def expire(signum, frame):
        raise TimeoutError(f"call did not return within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("sampler", [sample_sphere])
@pytest.mark.parametrize(
    "n, depth, match",
    [(0, 32, "dimension"), (-1, 32, "dimension"), (1, 0, "depth"), (2, -3, "depth")],
)
def test_sampler_rejects_empty_draws(sampler, n, depth, match):
    # with no coordinate or no digit to draw, the sphere's rejection loop
    # could never accept a point
    with _deadline(5), pytest.raises(ValueError, match=match):
        sampler(random.Random(0), 3, n, 0, depth=depth)


@pytest.mark.parametrize(
    "n, depth, message",
    [(0, 32, "dimension n must be at least 1, got 0"), (1, 0, "digit depth must be at least 1, got 0")],
)
def test_integrate_mc_rejects_empty_draws_before_sampling(n, depth, message):
    # the arguments are checked once, before the first draw
    seen = []

    def integrand(x):
        seen.append(x)
        return 1.0

    with _deadline(5), pytest.raises(ValueError, match=re.escape(message)):
        integrate_mc(integrand, 3, n, [0, 1], 100, seed=1, depth=depth)
    assert not seen
