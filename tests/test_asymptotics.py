import itertools
import math
import warnings

import numpy as np
import pytest

from conftest import assert_within_se
from geomix.asymptotics import (
    QuadratureError,
    QuadratureSpec,
    _grid_local_variance,
    _grid_mean,
    bridge_covariance,
    clt_variances,
    geometric_tail_bound,
    homogeneous_mean_batch,
    homogeneous_mean_deriv_batch,
    lln_limit,
    local_variance_batch,
    truncation_for,
)
from geomix.core import (
    BoundaryParams,
    LocalFunction,
    RandomSeed,
    configuration_batch,
    density_function,
    geometric_pmf,
    indicator_vacuum_function,
    pair_product_function,
    polynomial_function,
)
from geomix.fields import phi_identity, phi_one


@pytest.fixture
def quad(bounds):
    return QuadratureSpec.for_bounds(bounds)


def at(evaluator, g, rho, quad):
    """One value of a batch evaluator of the homogeneous layer."""
    return float(evaluator(g, np.array([rho]), quad)[0])


def test_tail_bound_certifies_truncation():
    m = truncation_for(2.0, 1e-12)
    assert geometric_tail_bound(2.0, m) <= 1e-12
    assert geometric_tail_bound(0.0, 5) == 0.0


def test_for_bounds_certifies_the_derivative_tail():
    # the cutoff certifies h' of bounded g as well as its mass tail; at
    # theta_right = 0.2 the mass tail alone picks a cutoff (16) whose
    # d nu/d theta tail is 4e-12
    g = indicator_vacuum_function()
    for theta in (0.2, 0.7, 1.8):
        quad = QuadratureSpec.for_bounds(BoundaryParams(0.0, theta))
        assert at(homogeneous_mean_deriv_batch, g, theta, quad) == pytest.approx(
            -1 / (1 + theta) ** 2, rel=1e-10
        )
    bounds = BoundaryParams(0.0, 0.2)
    var = clt_variances(g, phi_one(), bounds, QuadratureSpec.for_bounds(bounds))
    assert np.isfinite(var.total) and var.bridge_variance > 0


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(panels=0)
    spec = QuadratureSpec.for_bounds(BoundaryParams(0.0, 3.0))
    assert geometric_tail_bound(3.0, spec.truncation) <= spec.tail_tol


def test_homogeneous_mean_examples(quad):
    for rho in (0.2, 1.0, 1.8):
        assert at(homogeneous_mean_batch, density_function(), rho, quad) == pytest.approx(rho, rel=1e-10)
        # conditional independence: product of the two site means
        assert at(homogeneous_mean_batch, pair_product_function(), rho, quad) == pytest.approx(
            rho**2, rel=1e-10
        )
        assert at(homogeneous_mean_batch, indicator_vacuum_function(), rho, quad) == pytest.approx(
            1 / (1 + rho), rel=1e-12
        )


def test_homogeneous_mean_unbounded_non_polynomial_rejected(quad):
    g = LocalFunction(k=1, evaluator=lambda n: np.exp(np.asarray(n, dtype=float)))
    with pytest.raises(ValueError):
        at(homogeneous_mean_batch, g, 1.0, quad)


def test_homogeneous_mean_truncation_error():
    # only bounded g is truncated; polynomial g is exact at any truncation
    tiny = QuadratureSpec(truncation=4, tail_tol=1e-12)
    with pytest.raises(QuadratureError):
        at(homogeneous_mean_batch, indicator_vacuum_function(), 2.0, tiny)
    with pytest.raises(QuadratureError):
        at(homogeneous_mean_deriv_batch, indicator_vacuum_function(), 2.0, tiny)
    assert at(homogeneous_mean_batch, density_function(), 2.0, tiny) == 2.0


def test_homogeneous_mean_monte_carlo_consistency(quad, bounds):
    # h(g, rho) equals the mixture mean at equal reservoirs, by simulation
    rho, r = 1.2, 10**5
    rng = RandomSeed(55, 0).generator()
    occ = configuration_batch(np.full((r, 2), rho), rng)
    vals = occ[:, 0].astype(float) * occ[:, 1]
    se = vals.std(ddof=1) / math.sqrt(r)
    assert_within_se(
        vals.mean(), at(homogeneous_mean_batch, pair_product_function(), rho, quad), se, 4
    )


def test_homogeneous_mean_deriv_examples(quad):
    for rho in (0.3, 1.0, 1.7):
        assert at(homogeneous_mean_deriv_batch, density_function(), rho, quad) == pytest.approx(
            1.0, abs=1e-7
        )
        assert at(homogeneous_mean_deriv_batch, pair_product_function(), rho, quad) == pytest.approx(
            2 * rho, abs=1e-7
        )
        assert at(homogeneous_mean_deriv_batch, indicator_vacuum_function(), rho, quad) == pytest.approx(
            -1 / (1 + rho) ** 2, abs=1e-7
        )


def test_homogeneous_mean_deriv_exact_at_zero(quad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vacuum = at(homogeneous_mean_deriv_batch, indicator_vacuum_function(), 0.0, quad)
        density = at(homogeneous_mean_deriv_batch, density_function(), 0.0, quad)
    assert vacuum == pytest.approx(-1.0, abs=1e-15)
    assert density == 1.0


@pytest.mark.parametrize(
    "g",
    [
        density_function(),
        pair_product_function(),
        # the g of the exact-clt benchmark workload
        polynomial_function(2, {(1, 1): 1.0, (2, 1): 1.0}),
        polynomial_function(3, {(1, 0, 1): 1.0, (0, 2, 0): -0.5, (0, 0, 0): 2.0}),
    ],
    ids=lambda g: f"k{g.k}-deg{g.degree}",
)
def test_exact_layer_matches_grid_path(g):
    # the closed forms for polynomial g against the truncated grid sums
    # (h' on the grid is the analytic d nu/d rho contraction, so it is held
    # to the same 1e-12 as h and V); at rho = 2 the cutoffs leave
    # sum_{n > m} n^d nu(n) below 2e-13 for every site degree d here
    rhos = np.array([0.0, 0.3, 1.0, 2.0])
    grid_quad = QuadratureSpec(truncation=200 if g.k < 3 else 120)
    exact = [
        f(g, rhos, grid_quad)
        for f in (homogeneous_mean_batch, homogeneous_mean_deriv_batch, local_variance_batch)
    ]
    grid = [
        _grid_mean(g, rhos, grid_quad),
        _grid_mean(g, rhos, grid_quad, deriv=True),
        _grid_local_variance(g, rhos, grid_quad),
    ]
    for e, r in zip(exact, grid):
        np.testing.assert_allclose(e, r, rtol=1e-12, atol=1e-12)


def test_local_variance_single_site(quad):
    for rho in (0.4, 1.0, 2.0):
        assert at(local_variance_batch, density_function(), rho, quad) == pytest.approx(
            rho * (1 + rho), rel=1e-10
        )
        p = 1 / (1 + rho)
        assert at(local_variance_batch, indicator_vacuum_function(), rho, quad) == pytest.approx(
            p * (1 - p), rel=1e-10
        )


def test_local_variance_pair_against_enumeration(quad):
    # brute-force covariance sum over the four-site window at cutoff 60
    rho = 1.0
    m = 60
    n = np.arange(m + 1)
    w = geometric_pmf(rho, n)
    mean_pair = float((n * w).sum() ** 2)
    second = float((n**2 * w).sum())
    first = float((n * w).sum())
    # windows (2,3) vs (1,2), (2,3), (3,4): independence factorizes sums
    lag = first * second * first - mean_pair**2
    var = second**2 - mean_pair**2
    brute = var + 2 * lag
    assert at(local_variance_batch, pair_product_function(), rho, quad) == pytest.approx(
        brute, rel=1e-9
    )


def test_local_variance_pair_triple_loop_oracle(quad):
    # fully independent enumeration of cov(g(eta_2, eta_3), g(eta_m, eta_m+1))
    rho, m = 0.8, 40
    n = np.arange(m + 1)
    w = geometric_pmf(rho, n)
    g = lambda a, b: a * b
    total = 0.0
    mean = float(sum(g(a, b) * w[a] * w[b] for a in n for b in n))
    # lag 0
    total += float(sum((g(a, b) ** 2) * w[a] * w[b] for a in n for b in n)) - mean**2
    # lags +-1 share one site
    joint = 0.0
    for a in n:
        inner1 = float(np.sum(g(n, a) * w))
        inner2 = float(np.sum(g(a, n) * w))
        joint += w[a] * inner1 * inner2
    total += 2 * (joint - mean**2)
    assert at(local_variance_batch, pair_product_function(), rho, quad) == pytest.approx(
        total, rel=1e-6
    )


def test_lln_limit_examples(bounds, quad):
    assert lln_limit(density_function(), phi_one(), bounds, quad) == pytest.approx(
        (bounds.theta_left + bounds.theta_right) / 2, rel=1e-9
    )
    ub = BoundaryParams(0.0, 1.0)
    assert lln_limit(density_function(), phi_identity(), ub, quad) == pytest.approx(
        1 / 3, rel=1e-9
    )
    eq = BoundaryParams(1.3, 1.3)
    assert lln_limit(pair_product_function(), phi_one(), eq, quad) == pytest.approx(
        1.3**2, rel=1e-9
    )


def test_lln_limit_panel_doubling_is_stable(bounds, quad):
    base = lln_limit(density_function(), phi_identity(), bounds, quad)
    finer = lln_limit(
        density_function(),
        phi_identity(),
        bounds,
        QuadratureSpec(
            panels=2 * quad.panels,
            nodes_per_panel=quad.nodes_per_panel,
            truncation=quad.truncation,
            tail_tol=quad.tail_tol,
            integral_tol=quad.integral_tol,
        ),
    )
    assert abs(base - finer) <= quad.integral_tol * max(1.0, abs(base))


def test_clt_variances_density_flat_weight(bounds, quad):
    cv = clt_variances(density_function(), phi_one(), bounds, quad)
    assert cv.bridge_variance == pytest.approx(bounds.width**2 / 12, rel=1e-8)
    # integral of rho (1 + rho) over the linear profile
    lo, hi = bounds.theta_left, bounds.theta_right
    w = bounds.width
    exact = (hi**2 - lo**2) / (2 * w) + (hi**3 - lo**3) / (3 * w)
    assert cv.white_noise_variance == pytest.approx(exact, rel=1e-8)
    assert cv.total == cv.bridge_variance + cv.white_noise_variance


def test_clt_variances_unit_interval(unit_bounds, quad):
    cv = clt_variances(density_function(), phi_one(), unit_bounds, quad)
    assert cv.bridge_variance == pytest.approx(1 / 12, rel=1e-8)
    assert cv.white_noise_variance == pytest.approx(5 / 6, rel=1e-8)


def test_clt_variance_bridge_with_ramp_weight(unit_bounds, quad):
    # double integral of (s^t - st) s t over the square equals 1/45
    cv = clt_variances(density_function(), phi_identity(), unit_bounds, quad)
    assert cv.bridge_variance == pytest.approx(1 / 45, rel=1e-7)


def test_clt_variances_vanishing_bridge_at_equilibrium(quad):
    eq = BoundaryParams(0.9, 0.9)
    cv = clt_variances(density_function(), phi_one(), eq, quad)
    assert cv.bridge_variance == 0.0
    assert cv.white_noise_variance == pytest.approx(0.9 * 1.9, rel=1e-9)


def test_variances_nonnegative_across_inputs(bounds, quad):
    for g, phi in itertools.product(
        (density_function(), indicator_vacuum_function(), pair_product_function()),
        (phi_one(), phi_identity()),
    ):
        cv = clt_variances(g, phi, bounds, quad)
        assert cv.bridge_variance >= 0.0
        assert cv.white_noise_variance >= 0.0


def test_bridge_covariance_kernel(unit_bounds):
    assert bridge_covariance(0.5, 0.5, unit_bounds) == 0.25
    assert bridge_covariance(0.0, 0.7, unit_bounds) == 0.0
    assert bridge_covariance(0.3, 1.0, unit_bounds) == pytest.approx(0.0, abs=1e-15)
    assert bridge_covariance(0.25, 0.75, unit_bounds) == pytest.approx(1 / 16)
    assert bridge_covariance(0.2, 0.6, unit_bounds) == bridge_covariance(0.6, 0.2, unit_bounds)
    with pytest.raises(ValueError):
        bridge_covariance(-0.1, 0.5, unit_bounds)


def test_bridge_kernel_positive_semidefinite():
    s = np.linspace(0.0, 1.0, 41)
    k = np.minimum.outer(s, s) - np.outer(s, s)
    assert np.linalg.eigvalsh(k).min() > -1e-10


def test_white_noise_variance_adjudication(bounds, quad):
    # the summed window covariance must reproduce the conditional variance
    # growth (1/N) var(sum of shifted g | flat profile) by simulation
    theta, n, r = 1.0, 2000, 4000
    g = pair_product_function()
    rng = RandomSeed(66, 0).generator()
    occ = configuration_batch(np.full((r, n), theta), rng)
    windows = occ[:, :-1].astype(float) * occ[:, 1:]
    sums = windows.sum(axis=1) / math.sqrt(n)
    target = at(local_variance_batch, g, theta, quad)
    emp = sums.var(ddof=1)
    centered = (sums - sums.mean()) ** 2
    se = centered.std(ddof=1) / math.sqrt(r)
    assert_within_se(emp, target, se, 5, "conditional variance growth")
