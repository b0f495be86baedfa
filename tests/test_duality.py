import math

import numpy as np
import pytest

from conftest import assert_within_se
from geomix.core import (
    BoundaryParams,
    RandomSeed,
    configuration_batch,
    profile_batch,
)
from geomix.duality import le_deviation
from geomix.moments import theta_product_moment
from oracles import DualConfiguration, duality_expectation, duality_polynomial_batch


def test_polynomial_values():
    eta = np.array([[3, 1, 0]])
    assert duality_polynomial_batch(eta, DualConfiguration({}))[0] == 1.0
    assert duality_polynomial_batch(eta, DualConfiguration({1: 2}))[0] == 3.0
    assert duality_polynomial_batch(eta, DualConfiguration({3: 1}))[0] == 0.0
    assert duality_polynomial_batch(eta, DualConfiguration({1: 1, 2: 1}))[0] == 3.0


def test_polynomial_batch_matches_scalar():
    # reference: the product of binomial coefficients, one row at a time
    rng = np.random.default_rng(2)
    occ = rng.integers(0, 8, size=(300, 6))
    xi = DualConfiguration({2: 2, 5: 1})
    batch = duality_polynomial_batch(occ, xi)
    for row in range(0, 300, 37):
        scalar = math.prod(math.comb(int(occ[row, s - 1]), m) for s, m in xi.multiplicities.items())
        assert batch[row] == float(scalar)


def test_dual_mass_cap(bounds):
    with pytest.raises(ValueError):
        DualConfiguration({1: 21})
    with pytest.raises(ValueError, match="dual mass"):
        le_deviation(0.5, [20, 1], 100, bounds)
    with pytest.raises(ValueError, match="multiplicities"):
        le_deviation(0.5, [2, -1], 100, bounds)


def test_expectation_single_particle(bounds):
    for n in (5, 20):
        for i in (1, n // 2, n):
            assert duality_expectation(
                DualConfiguration({i: 1}), n, bounds
            ) == pytest.approx(theta_product_moment(i, [1], n, bounds), rel=1e-12)
    assert duality_expectation(DualConfiguration({}), 5, bounds) == 1.0


def test_expectation_factorizes_at_equilibrium():
    eq = BoundaryParams(1.5, 1.5)
    xi = DualConfiguration({2: 2, 3: 1, 7: 1})
    assert duality_expectation(xi, 10, eq) == pytest.approx(1.5**4, rel=1e-12)


def test_expectation_against_monte_carlo(bounds):
    n, r = 12, 2 * 10**5
    rng = RandomSeed(29, 0).generator()
    cases = [
        DualConfiguration({3: 1}),
        DualConfiguration({2: 2, 3: 1}),
        DualConfiguration({1: 1, 6: 1, 11: 2}),
    ]
    thetas = profile_batch(n, bounds, rng, r)
    occ = configuration_batch(thetas, rng)
    for xi in cases:
        vals = duality_polynomial_batch(occ, xi)
        se = vals.std(ddof=1) / math.sqrt(r)
        assert_within_se(
            vals.mean(), duality_expectation(xi, n, bounds), se, 4, f"E[D] for {xi}"
        )


def test_conditional_identity_given_profile(bounds):
    # conditioned on the parameters, E[D(eta, xi)] = prod Theta_i^{xi_i}
    n, r = 8, 2 * 10**5
    profile = profile_batch(n, bounds, RandomSeed(31, 0).generator(), 1)[0]
    xi = DualConfiguration({2: 1, 5: 2})
    rng = RandomSeed(31, 1).generator()
    occ = configuration_batch(np.broadcast_to(profile, (r, n)), rng)
    vals = duality_polynomial_batch(occ, xi)
    target = profile[1] * profile[4] ** 2
    se = vals.std(ddof=1) / math.sqrt(r)
    assert_within_se(vals.mean(), target, se, 4, "conditional duality mean")


def test_le_deviation_single_particle_formula(bounds):
    for n in (64, 257, 1000):
        x = 0.37
        expected = bounds.width * ((math.floor(x * n) + 1) / (n + 1) - x)
        assert le_deviation(x, [1], n, bounds) == pytest.approx(expected, rel=1e-10)


def test_le_deviation_zero_at_equilibrium():
    eq = BoundaryParams(2.0, 2.0)
    for n in (32, 256):
        assert le_deviation(0.5, [2, 1], n, eq) == pytest.approx(0.0, abs=1e-12)


def test_le_deviation_ladder_decays(bounds):
    devs = [abs(le_deviation(0.5, [2, 1], 2**j, bounds)) for j in range(7, 15)]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 1e-3


def test_le_deviation_window_overflow(bounds):
    with pytest.raises(ValueError):
        le_deviation(0.99, [1, 1, 1], 100, bounds)
