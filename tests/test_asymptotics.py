import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import assert_within_se
import geomix.asymptotics as asymptotics_module
import geomix.moments as moments_module
from geomix.asymptotics import (
    _GAUSS_LEGENDRE,
    _grid_local_variance,
    _grid_mean,
    _poly_coefficients,
    bridge_covariance,
    clt_variances,
    homogeneous_mean_batch,
    homogeneous_mean_deriv_batch,
    lln_limit,
    local_variance_batch,
)
from geomix.core import (
    BoundaryParams,
    LocalFunction,
    RandomSeed,
    configuration_batch,
    density_function,
    indicator_vacuum_function,
    pair_product_function,
    polynomial_function,
)
from geomix.fields import phi_identity, phi_one, phi_polynomial
from geomix.ldp import SolverConfig, annealed_free_energy, profile_rate
from oracles import geometric_tables, homogeneous_layer_exact, truncated_grid

# the g of the exact-clt benchmark workload, eta_1 eta_2 + eta_1^2 eta_2
EXACT_CLT_G = polynomial_function(2, {(1, 1): 1.0, (2, 1): 1.0})


def at(evaluator, g, rho):
    """One value of a batch evaluator of the homogeneous layer."""
    return float(evaluator(g, np.array([rho]))[0])


def make_capped_count():
    # min(n, 3) / 3, saturating at c = 3
    def evaluator(n):
        return np.minimum(np.asarray(n, dtype=float), 3.0) / 3.0

    return LocalFunction(k=1, evaluator=evaluator, saturation=3, name="capped-count")


def test_indicator_derivative_exact_at_small_rho():
    # h' of indicator-vacuum is an exact sum over the states 0 and n >= 1
    g = indicator_vacuum_function()
    for theta in (0.2, 0.7, 1.8):
        assert at(homogeneous_mean_deriv_batch, g, theta) == pytest.approx(
            -1 / (1 + theta) ** 2, rel=1e-10
        )
    var = clt_variances(g, phi_one(), BoundaryParams(0.0, 0.2))
    assert np.isfinite(var.total) and var.bridge_variance > 0


def test_homogeneous_mean_examples():
    for rho in (0.2, 1.0, 1.8):
        assert at(homogeneous_mean_batch, density_function(), rho) == pytest.approx(rho, rel=1e-10)
        # conditional independence: product of the two site means
        assert at(homogeneous_mean_batch, pair_product_function(), rho) == pytest.approx(
            rho**2, rel=1e-10
        )
        assert at(homogeneous_mean_batch, indicator_vacuum_function(), rho) == pytest.approx(
            1 / (1 + rho), rel=1e-12
        )


def test_homogeneous_mean_unbounded_non_polynomial_rejected():
    g = LocalFunction(k=1, evaluator=lambda n: np.exp(np.asarray(n, dtype=float)))
    with pytest.raises(ValueError):
        at(homogeneous_mean_batch, g, 1.0)


def test_homogeneous_mean_truncation_error():
    # polynomial g is exact at any rho
    assert at(homogeneous_mean_batch, density_function(), 1e6) == 1e6


def test_indicator_limit_objects_exact_at_large_rho():
    # the tail state n >= 1 makes h, h' and V finite sums at any rho
    g, rho = indicator_vacuum_function(), 1e6
    p = rho / (1 + rho)
    assert at(homogeneous_mean_batch, g, rho) == pytest.approx(1 / (1 + rho), rel=0, abs=1e-12)
    assert at(homogeneous_mean_deriv_batch, g, rho) == pytest.approx(
        -1 / (1 + rho) ** 2, rel=1e-9, abs=1e-12
    )
    assert at(local_variance_batch, g, rho) == pytest.approx(p * (1 - p), rel=0, abs=1e-12)
    var = clt_variances(g, phi_one(), BoundaryParams(5e5, 1e6))
    assert np.isfinite(var.total) and var.bridge_variance > 0
    # at rho = 1e9 the masses 1/(1+rho) must not come from 1 - p, which
    # cancels; h = q, h' = -q^2 and V = p q with q = 1/(1+rho), to rounding
    rho = 1e9
    q = 1 / (1 + rho)
    assert at(homogeneous_mean_batch, g, rho) == pytest.approx(q, rel=1e-12, abs=0)
    assert at(homogeneous_mean_deriv_batch, g, rho) == pytest.approx(-q * q, rel=1e-12, abs=0)
    assert at(local_variance_batch, g, rho) == pytest.approx(rho * q * q, rel=1e-12, abs=0)


def test_capped_count_limit_objects_closed_forms():
    # min(n, 3): E = p + p^2 + p^3 (sum of P(n >= j)), E[min^2] = p + 3p^2 + 5p^3;
    # windows of one site share only themselves, so V is the variance
    g = make_capped_count()
    rhos = np.array([0.0, 0.3, 1.0, 2.0, 50.0])
    p = rhos / (1 + rhos)
    mean = (p + p**2 + p**3) / 3
    d_mean = (1 - p) ** 2 * (1 + 2 * p + 3 * p**2) / 3
    var = (p + 3 * p**2 + 5 * p**3) / 9 - mean**2
    np.testing.assert_allclose(homogeneous_mean_batch(g, rhos), mean, rtol=0, atol=1e-14)
    np.testing.assert_allclose(homogeneous_mean_deriv_batch(g, rhos), d_mean, rtol=0, atol=1e-14)
    np.testing.assert_allclose(local_variance_batch(g, rhos), var, rtol=0, atol=1e-14)


def test_homogeneous_mean_monte_carlo_consistency(bounds):
    # h(g, rho) equals the mixture mean at equal reservoirs, by simulation
    rho, r = 1.2, 10**5
    rng = RandomSeed(55, 0).generator()
    occ = configuration_batch(np.full((r, 2), rho), rng)
    vals = occ[:, 0].astype(float) * occ[:, 1]
    se = vals.std(ddof=1) / math.sqrt(r)
    assert_within_se(
        vals.mean(), at(homogeneous_mean_batch, pair_product_function(), rho), se, 4
    )


def test_homogeneous_mean_deriv_examples():
    for rho in (0.3, 1.0, 1.7):
        assert at(homogeneous_mean_deriv_batch, density_function(), rho) == pytest.approx(
            1.0, abs=1e-7
        )
        assert at(homogeneous_mean_deriv_batch, pair_product_function(), rho) == pytest.approx(
            2 * rho, abs=1e-7
        )
        assert at(homogeneous_mean_deriv_batch, indicator_vacuum_function(), rho) == pytest.approx(
            -1 / (1 + rho) ** 2, abs=1e-7
        )


def test_homogeneous_mean_deriv_exact_at_zero():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vacuum = at(homogeneous_mean_deriv_batch, indicator_vacuum_function(), 0.0)
        density = at(homogeneous_mean_deriv_batch, density_function(), 0.0)
    assert vacuum == pytest.approx(-1.0, abs=1e-15)
    assert density == 1.0


@pytest.mark.parametrize(
    "g",
    [
        density_function(),
        pair_product_function(),
        EXACT_CLT_G,
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
    m = 200 if g.k < 3 else 120
    exact = [
        f(g, rhos)
        for f in (homogeneous_mean_batch, homogeneous_mean_deriv_batch, local_variance_batch)
    ]
    states, (w, dw) = truncated_grid(g, m), geometric_tables(rhos, m)
    grid = [
        _grid_mean(states, w),
        _grid_mean(states, w, dw),
        _grid_local_variance(states, w),
    ]
    for e, r in zip(exact, grid):
        np.testing.assert_allclose(e, r, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "g",
    [
        polynomial_function(1, {(3,): 0.375, (1,): -1.25, (0,): 0.5}),
        polynomial_function(2, {(1, 1): 0.3, (2, 0): -1.7, (0, 3): 0.1}),
        polynomial_function(3, {(1, 0, 2): 0.625, (2, 0, 1): -0.3, (0, 1, 0): 0.1, (0, 0, 0): 1.5}),
    ],
    ids=["k1", "k2", "k3-zero-inside"],
)
def test_polynomial_layer_is_the_correctly_rounded_rational(g):
    # h, h' and V of a g with non-integer coefficients: every coefficient is
    # the exact rational rounded once
    for part, want in zip(("h", "h'", "V"), homogeneous_layer_exact(g)):
        assert _poly_coefficients(g, part).tolist() == [float(c) for c in want]
    # the example whose V(5) the float polynomial algebra rounded to 54553.799999999974
    if g.k == 2:
        assert at(local_variance_batch, g, 5.0) == 54553.8


@pytest.mark.parametrize("g", [EXACT_CLT_G, pair_product_function()], ids=["exact-clt", "pair"])
def test_polynomial_layer_bits_match_the_rational_oracle(g):
    # integer coefficients: the batch evaluators are P.polyval of the
    # oracle's coefficients, bit for bit
    rhos = np.array([0.0, 0.3, 1.0, 2.0, 5.0, 1e6])
    oracle = homogeneous_layer_exact(g)
    evaluators = (homogeneous_mean_batch, homogeneous_mean_deriv_batch, local_variance_batch)
    for f, coefs in zip(evaluators, oracle):
        want = np.polynomial.polynomial.polyval(rhos, [float(c) for c in coefs])
        assert f(g, rhos).tobytes() == want.tobytes()


def test_layer_of_a_high_power_matches_the_rational_oracle():
    # eta^11 at k = 1: V reads E[eta^22 | rho], Stirling row 22, and no
    # moment order is capped
    g = polynomial_function(1, {(11,): 1.0})
    h, _, v = homogeneous_layer_exact(g)
    rhos = np.array([0.0, 0.3, 1.0, 2.0, 5.0])
    want = np.polynomial.polynomial.polyval(rhos, [float(c) for c in v])
    assert local_variance_batch(g, rhos).tobytes() == want.tobytes()

    # on bounds (0, 1) and phi = 1, rho(x) = x: the white-noise part is the
    # integral of V over [0, 1], and the bridge part the variance of h(U)
    def integral(coefs):
        return sum(c / (j + 1) for j, c in enumerate(coefs))

    h_sq = [0] * (2 * len(h) - 1)
    for (i, a), (j, b) in itertools.product(enumerate(h), repeat=2):
        h_sq[i + j] += a * b
    variances = clt_variances(g, phi_one(), BoundaryParams(0.0, 1.0))
    assert variances.white_noise_variance == pytest.approx(float(integral(v)), rel=1e-9)
    exact_bridge = integral(h_sq) - integral(h) ** 2
    assert variances.bridge_variance == pytest.approx(float(exact_bridge), rel=1e-9)


def test_polynomial_variance_cost_is_linear_in_k(monkeypatch):
    # eta_1 eta_k: every monomial pair has at most four non-zero site
    # exponents, and the expansion builds a raw-moment row for the non-zero
    # ones only, so V builds O(k) rows
    counts = {}
    row = moments_module._raw_moment_row

    def counted(p):
        counts[k] += 1
        return row(p)

    monkeypatch.setattr(moments_module, "_raw_moment_row", counted)
    for k in (10, 20, 40):
        counts[k] = 0
        g = polynomial_function(k, {(1,) + (0,) * (k - 2) + (1,): 1.0})
        local_variance_batch(g, np.array([1.0]))
    assert counts[10] > 0
    assert counts[40] - counts[20] == 2 * (counts[20] - counts[10])
    assert counts[40] <= 10 * 40


def test_local_variance_single_site():
    for rho in (0.4, 1.0, 2.0):
        assert at(local_variance_batch, density_function(), rho) == pytest.approx(
            rho * (1 + rho), rel=1e-10
        )
        p = 1 / (1 + rho)
        assert at(local_variance_batch, indicator_vacuum_function(), rho) == pytest.approx(
            p * (1 - p), rel=1e-10
        )


def test_local_variance_pair_against_enumeration():
    # brute-force covariance sum over the four-site window at cutoff 60
    rho = 1.0
    m = 60
    n = np.arange(m + 1)
    w = geometric_tables(rho, m)[0][0]
    mean_pair = float((n * w).sum() ** 2)
    second = float((n**2 * w).sum())
    first = float((n * w).sum())
    # windows (2,3) vs (1,2), (2,3), (3,4): independence factorizes sums
    lag = first * second * first - mean_pair**2
    var = second**2 - mean_pair**2
    brute = var + 2 * lag
    assert at(local_variance_batch, pair_product_function(), rho) == pytest.approx(
        brute, rel=1e-9
    )


def test_local_variance_pair_triple_loop_oracle():
    # fully independent enumeration of cov(g(eta_2, eta_3), g(eta_m, eta_m+1))
    rho, m = 0.8, 40
    n = np.arange(m + 1)
    w = geometric_tables(rho, m)[0][0]
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
    assert at(local_variance_batch, pair_product_function(), rho) == pytest.approx(
        total, rel=1e-6
    )


def test_lln_limit_examples(bounds):
    assert lln_limit(density_function(), phi_one(), bounds) == pytest.approx(
        (bounds.theta_left + bounds.theta_right) / 2, rel=1e-9
    )
    ub = BoundaryParams(0.0, 1.0)
    assert lln_limit(density_function(), phi_identity(), ub) == pytest.approx(
        1 / 3, rel=1e-9
    )
    eq = BoundaryParams(1.3, 1.3)
    assert lln_limit(pair_product_function(), phi_one(), eq) == pytest.approx(
        1.3**2, rel=1e-9
    )


def test_lln_limit_panel_doubling_is_stable(bounds, monkeypatch):
    base = lln_limit(density_function(), phi_identity(), bounds)
    monkeypatch.setattr(asymptotics_module, "_FIRST_PANELS", 2 * asymptotics_module._FIRST_PANELS)
    finer = lln_limit(density_function(), phi_identity(), bounds)
    assert abs(base - finer) <= 1e-9 * max(1.0, abs(base))


def test_clt_variances_density_flat_weight(bounds):
    cv = clt_variances(density_function(), phi_one(), bounds)
    assert cv.bridge_variance == pytest.approx(bounds.width**2 / 12, rel=1e-8)
    # integral of rho (1 + rho) over the linear profile
    lo, hi = bounds.theta_left, bounds.theta_right
    w = bounds.width
    exact = (hi**2 - lo**2) / (2 * w) + (hi**3 - lo**3) / (3 * w)
    assert cv.white_noise_variance == pytest.approx(exact, rel=1e-8)
    assert cv.total == cv.bridge_variance + cv.white_noise_variance


def test_clt_variances_unit_interval(unit_bounds):
    cv = clt_variances(density_function(), phi_one(), unit_bounds)
    assert cv.bridge_variance == pytest.approx(1 / 12, rel=1e-8)
    assert cv.white_noise_variance == pytest.approx(5 / 6, rel=1e-8)


def test_clt_variance_bridge_with_ramp_weight(unit_bounds):
    # double integral of (s^t - st) s t over the square equals 1/45
    cv = clt_variances(density_function(), phi_identity(), unit_bounds)
    assert cv.bridge_variance == pytest.approx(1 / 45, rel=1e-7)


def test_clt_variances_vanishing_bridge_at_equilibrium():
    eq = BoundaryParams(0.9, 0.9)
    cv = clt_variances(density_function(), phi_one(), eq)
    assert cv.bridge_variance == 0.0
    assert cv.white_noise_variance == pytest.approx(0.9 * 1.9, rel=1e-9)


def test_variances_nonnegative_across_inputs(bounds):
    for g, phi in itertools.product(
        (density_function(), indicator_vacuum_function(), pair_product_function()),
        (phi_one(), phi_identity()),
    ):
        cv = clt_variances(g, phi, bounds)
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
    # arrays broadcast elementwise, and one bad entry rejects the call
    s = np.array([0.0, 0.25, 0.5, 1.0])
    cov = bridge_covariance(s[:, None], s[None, :], unit_bounds)
    for i, j in itertools.product(range(4), repeat=2):
        assert cov[i, j] == bridge_covariance(s[i], s[j], unit_bounds)
    for bad in ([0.5, 1.0005], [np.nan], [-1e-12, 0.5]):
        with pytest.raises(ValueError):
            bridge_covariance(np.array(bad), 0.5, unit_bounds)


def test_bridge_kernel_positive_semidefinite(unit_bounds):
    s = np.linspace(0.0, 1.0, 41)
    k = bridge_covariance(s[:, None], s[None, :], unit_bounds)
    assert np.linalg.eigvalsh(k).min() > -1e-10


CLOSED_FORM_BRIDGES = [
    # width^2 * double integral of (min(s,t) - st) a(s) a(t), a = phi * h'(rho)
    (density_function(), phi_one(), (0.0, 2.0), 1 / 3),
    (density_function(), phi_identity(), (0.0, 1.0), 1 / 45),
    # h' = 4 rho + 6 rho^2 on rho = 2x
    (EXACT_CLT_G, phi_one(), (0.0, 2.0), 14992 / 315),
    # h' = -1/(1+rho)^2, so width * (C(u) - C_bar) = ln(3)/2 - 1/(1+2u)
    (indicator_vacuum_function(), phi_one(), (0.0, 2.0), 1 / 3 - math.log(3) ** 2 / 4),
]


@pytest.mark.parametrize(
    "g, phi, ends, exact", CLOSED_FORM_BRIDGES, ids=["density", "density-x", "exact-clt", "vacuum"]
)
def test_bridge_variance_closed_forms(g, phi, ends, exact):
    bounds = BoundaryParams(*ends)
    cv = clt_variances(g, phi, bounds)
    assert cv.bridge_variance == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize(
    "g, phi, ends, exact", CLOSED_FORM_BRIDGES[:3], ids=["density", "density-x", "exact-clt"]
)
def test_polynomial_variances_stop_after_one_doubling(monkeypatch, g, phi, ends, exact):
    # the Gauss rule integrates the bridge and white-noise integrands of
    # low-degree polynomial g exactly, so 16 and 32 panels already agree
    evaluated = []
    nodes = asymptotics_module._composite_nodes

    def counted(panels):
        evaluated.append(panels)
        return nodes(panels)

    monkeypatch.setattr(asymptotics_module, "_composite_nodes", counted)
    clt_variances(g, phi, BoundaryParams(*ends))
    assert evaluated == [16, 32]


@pytest.mark.parametrize(
    "g", [EXACT_CLT_G, indicator_vacuum_function()], ids=["exact-clt", "vacuum"]
)
def test_clt_variances_memory_is_linear_in_nodes(bounds, g, monkeypatch):
    # 256 panels are 1536 nodes: an n x n bridge kernel alone would be 18 MiB
    monkeypatch.setattr(asymptotics_module, "_FIRST_PANELS", 256)
    tracemalloc.start()
    try:
        clt_variances(g, phi_identity(), bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_white_noise_variance_adjudication(bounds):
    # the summed window covariance must reproduce the conditional variance
    # growth (1/N) var(sum of shifted g | flat profile) by simulation
    theta, n, r = 1.0, 2000, 4000
    g = pair_product_function()
    rng = RandomSeed(66, 0).generator()
    occ = configuration_batch(np.full((r, n), theta), rng)
    windows = occ[:, :-1].astype(float) * occ[:, 1:]
    sums = windows.sum(axis=1) / math.sqrt(n)
    target = at(local_variance_batch, g, theta)
    emp = sums.var(ddof=1)
    centered = (sums - sums.mean()) ** 2
    se = centered.std(ddof=1) / math.sqrt(r)
    assert_within_se(emp, target, se, 5, "conditional variance growth")


@pytest.mark.parametrize("nodes", sorted(_GAUSS_LEGENDRE))
def test_gauss_table_is_numpys_rule(nodes):
    x, w = _GAUSS_LEGENDRE[nodes]
    want_x, want_w = np.polynomial.legendre.leggauss(nodes)
    np.testing.assert_array_max_ulp(x, want_x, maxulp=1)
    np.testing.assert_array_max_ulp(w, want_w, maxulp=1)
    # exact for every monomial of degree <= 2 * nodes - 1 on [-1, 1]
    for degree in range(2 * nodes):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert abs(w @ x**degree - exact) <= 1e-15


def test_quadrature_runs_no_eigensolver(monkeypatch, bounds):
    # numpy's leggauss takes its nodes from an eigensolver; the table does not
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    with pytest.raises(AssertionError, match="eigvalsh"):
        np.polynomial.legendre.leggauss(6)
    g, vacuum = pair_product_function(), indicator_vacuum_function()
    solver = SolverConfig(multistart=2, grid_size=20, max_iterations=200)
    assert math.isfinite(lln_limit(g, phi_identity(), bounds))
    assert clt_variances(g, phi_identity(), bounds).bridge_variance > 0
    for phi in (phi_polynomial([0.2]), phi_polynomial([0.0, 0.3])):  # closed form, Newton
        assert math.isfinite(annealed_free_energy(phi, vacuum, bounds, solver).value)
    assert profile_rate(phi_polynomial([0.5]), vacuum, bounds, solver).value >= 0
