import math

import numpy as np
import pytest

from conftest import assert_within_se
from geomix.asymptotics import QuadratureSpec, lln_limit
from geomix.core import (
    Configuration,
    RandomSeed,
    configuration_batch,
    density_function,
    pair_product_function,
    polynomial_function,
    profile_batch,
)
from geomix.fields import (
    TestFunction,
    block_average,
    block_average_curve,
    empirical_profile,
    field_value,
    field_values_batch,
    phi_identity,
    phi_one,
    phi_polynomial,
    shift_apply,
)


def test_shift_apply_projects_coordinates():
    g = density_function()
    eta = Configuration(np.array([5, 7, 9]))
    assert shift_apply(g, 2, eta) == 9.0
    assert shift_apply(g, 0, eta) == 5.0
    g2 = pair_product_function()
    assert shift_apply(g2, 0, Configuration(np.array([3, 4, 1]))) == 12.0


def test_shift_apply_window_overflow():
    g = pair_product_function()
    with pytest.raises(ValueError):
        shift_apply(g, 2, Configuration(np.array([1, 2, 3])))


def test_field_value_is_weighted_mean():
    g = density_function()
    eta = Configuration(np.array([1, 2, 3]))
    assert field_value(g, phi_one(), eta) == pytest.approx(2.0)
    assert field_value(g, phi_one(), Configuration(np.zeros(5, dtype=int))) == 0.0


def test_field_value_monte_carlo_mean(bounds):
    # LLN anchor: the field mean at N = 10^4 approaches the limit integral
    n, r = 10**4, 50
    quad = QuadratureSpec.for_bounds(bounds)
    limit = lln_limit(density_function(), phi_one(), bounds, quad)
    assert limit == pytest.approx((bounds.theta_left + bounds.theta_right) / 2)
    rng = RandomSeed(81, 0).generator()
    thetas = profile_batch(n, bounds, rng, r)
    occ = configuration_batch(thetas, rng)
    vals = field_values_batch(density_function(), phi_one(), occ)
    se = vals.std(ddof=1) / math.sqrt(r)
    assert_within_se(vals.mean(), limit, se, 5, "density field mean")


def test_empirical_profile_pairs_exactly():
    rng = np.random.default_rng(3)
    occ = rng.integers(0, 6, size=40)
    eta = Configuration(occ)
    for g in (density_function(), pair_product_function()):
        prof = empirical_profile(g, eta)
        assert prof.locations.size == occ.size - g.k + 1
        for phi in (phi_one(), phi_identity(), phi_polynomial([0.3, -1.2, 2.0])):
            assert prof.pair(phi) == field_value(g, phi, eta)
    zero = empirical_profile(density_function(), Configuration(np.zeros(7, dtype=int)))
    assert np.all(zero.weights == 0)


def test_field_linearity_in_g_and_phi():
    rng = np.random.default_rng(8)
    occ = rng.integers(0, 5, size=60)
    eta = Configuration(occ)
    g1 = polynomial_function(2, {(1, 0): 1.0}, name="left")
    g2 = polynomial_function(2, {(0, 2): 1.0}, name="right-squared")
    a, b = 1.7, -0.4
    combo = polynomial_function(2, {(1, 0): a, (0, 2): b}, name="combo")
    phi = phi_polynomial([0.5, 1.0])
    assert field_value(combo, phi, eta) == pytest.approx(
        a * field_value(g1, phi, eta) + b * field_value(g2, phi, eta), rel=1e-12
    )
    phi1, phi2 = phi_one(), phi_identity()
    phi_mix = TestFunction(lambda x: a * phi1(x) + b * phi2(x), name="mix")
    assert field_value(g1, phi_mix, eta) == pytest.approx(
        a * field_value(g1, phi1, eta) + b * field_value(g1, phi2, eta), rel=1e-12
    )


def test_block_average_basics():
    eta = Configuration(np.full(100, 3))
    assert block_average(eta, 50, 0.05) == 3.0
    eta2 = Configuration(np.arange(100))
    # eps small enough that the window is the single site
    assert block_average(eta2, 37, 0.005) == 36.0
    with pytest.raises(ValueError):
        block_average(eta2, 2, 0.05)
    with pytest.raises(ValueError):
        block_average(eta2, 99, 0.05)


def test_block_average_curve_matches_pointwise():
    rng = np.random.default_rng(10)
    eta = Configuration(rng.integers(0, 7, size=200))
    sites, avgs = block_average_curve(eta, 0.03)
    for site, avg in zip(sites[::17], avgs[::17]):
        assert avg == pytest.approx(block_average(eta, int(site), 0.03), rel=1e-12)


def test_block_average_tracks_local_density(bounds):
    # at N = 10^5 the block mean around x sits near the linear profile
    n, eps = 10**5, 0.01
    rng = RandomSeed(90, 0).generator()
    thetas = profile_batch(n, bounds, rng, 1)
    occ = configuration_batch(thetas, rng)
    eta = Configuration(occ[0])
    for x in (0.25, 0.5, 0.75):
        site = int(x * n)
        block = block_average(eta, site, eps)
        rho = bounds.density(site / (n + 1))
        # fluctuation scale of the block mean: sqrt(variance / block size)
        width = 2 * int(eps * n) + 1
        se = math.sqrt(rho * (1 + rho) / width) + bounds.width * eps
        assert abs(block - rho) < 5 * se


def test_replacement_by_block_averages_improves_with_n(bounds):
    # |X_N(g; phi) - sum h(block average) phi| shrinks from N=10^3 to 10^5
    # on the same seed ladder, with h(rho) = rho^2 for the pair product
    g = pair_product_function()
    phi = phi_one()
    eps = 1e-2

    def discrepancy(n, stream):
        rng = RandomSeed(4242, stream).generator()
        thetas = profile_batch(n, bounds, rng, 1)
        occ = configuration_batch(thetas, rng)
        eta = Configuration(occ[0])
        x_val = field_value(g, phi, eta)
        sites, avgs = block_average_curve(eta, eps)
        weights = phi((sites - 1) / (n + 1))
        replaced = float(np.sum(avgs**2 * weights) / n)
        return abs(x_val - replaced)

    small = np.mean([discrepancy(10**3, s) for s in range(3)])
    large = np.mean([discrepancy(10**5, s) for s in range(3)])
    assert large < small
