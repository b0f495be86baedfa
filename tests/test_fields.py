import math

import numpy as np
import pytest

from conftest import assert_within_se
from geomix.asymptotics import lln_limit
from geomix.core import (
    RandomSeed,
    configuration_batch,
    density_function,
    pair_product_function,
    polynomial_function,
    profile_batch,
)
from geomix.fields import (
    TestFunction,
    field_values_batch,
    phi_identity,
    phi_one,
    phi_polynomial,
)


def _block_means(occ, half):
    """Means of occ over the windows |j - i| <= half, at every centre
    i = half+1..N-half (1-based), by a running sum."""
    width = 2 * half + 1
    csum = np.concatenate(([0.0], np.cumsum(occ, dtype=float)))
    return np.arange(half + 1, occ.size - half + 1), (csum[width:] - csum[:-width]) / width


def test_field_window_overflow():
    g = polynomial_function(4, {(1, 1, 1, 1): 1.0})
    with pytest.raises(ValueError):
        field_values_batch(g, phi_one(), np.array([1, 2, 3]))


def test_field_value_is_weighted_mean():
    g = density_function()
    assert field_values_batch(g, phi_one(), np.array([1, 2, 3])) == pytest.approx(2.0)
    assert field_values_batch(g, phi_one(), np.zeros(5, dtype=int)) == 0.0


def test_field_value_monte_carlo_mean(bounds):
    # LLN anchor: the field mean at N = 10^4 approaches the limit integral
    n, r = 10**4, 50
    limit = lln_limit(density_function(), phi_one(), bounds)
    assert limit == pytest.approx((bounds.theta_left + bounds.theta_right) / 2)
    rng = RandomSeed(81, 0).generator()
    thetas = profile_batch(n, bounds, rng, r)
    occ = configuration_batch(thetas, rng)
    vals = field_values_batch(density_function(), phi_one(), occ)
    se = vals.std(ddof=1) / math.sqrt(r)
    assert_within_se(vals.mean(), limit, se, 5, "density field mean")


def test_field_linearity_in_g_and_phi():
    rng = np.random.default_rng(8)
    eta = rng.integers(0, 5, size=60)
    g1 = polynomial_function(2, {(1, 0): 1.0}, name="left")
    g2 = polynomial_function(2, {(0, 2): 1.0}, name="right-squared")
    a, b = 1.7, -0.4
    combo = polynomial_function(2, {(1, 0): a, (0, 2): b}, name="combo")
    phi = phi_polynomial([0.5, 1.0])
    assert field_values_batch(combo, phi, eta) == pytest.approx(
        a * field_values_batch(g1, phi, eta) + b * field_values_batch(g2, phi, eta), rel=1e-12
    )
    phi1, phi2 = phi_one(), phi_identity()
    phi_mix = TestFunction(lambda x: a * phi1(x) + b * phi2(x), name="mix")
    assert field_values_batch(g1, phi_mix, eta) == pytest.approx(
        a * field_values_batch(g1, phi1, eta) + b * field_values_batch(g1, phi2, eta), rel=1e-12
    )


def test_block_average_tracks_local_density(bounds):
    # at N = 10^5 the block mean around x sits near the linear profile
    n, eps = 10**5, 0.01
    rng = RandomSeed(90, 0).generator()
    thetas = profile_batch(n, bounds, rng, 1)
    occ = configuration_batch(thetas, rng)[0]
    half = int(np.floor(eps * n))
    for x in (0.25, 0.5, 0.75):
        site = int(x * n)
        block = float(np.mean(occ[site - 1 - half : site + half]))
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
        occ = configuration_batch(thetas, rng)[0]
        x_val = field_values_batch(g, phi, occ)
        sites, avgs = _block_means(occ, int(np.floor(eps * n)))
        weights = phi((sites - 1) / (n + 1))
        replaced = float(np.sum(avgs**2 * weights) / n)
        return abs(x_val - replaced)

    small = np.mean([discrepancy(10**3, s) for s in range(3)])
    large = np.mean([discrepancy(10**5, s) for s in range(3)])
    assert large < small
