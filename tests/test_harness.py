import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from geomix.core import (
    BoundaryParams,
    RandomSeed,
    density_function,
    pair_product_function,
    polynomial_function,
)
from geomix.fields import phi_identity, phi_one
from geomix.harness import (
    ExperimentConfig,
    SlopeFit,
    _theta_polynomial,
    check_profile_marginals,
    exact_field_mean,
    fit_log_slope,
    ks_critical_value,
    ks_statistic,
    normal_cdf,
    run_bridge,
    run_clt,
    run_concentration,
    run_le_scaling,
    run_lln,
)
from geomix.moments import (
    geometric_raw_moment_coefficients,
    theta_product_moment,
    theta_window_moments,
    uniform_orderstat_product_moment_exact,
)


def exact_window_mean(g, start, n_sites, bounds):
    """The exact mean of g on one window, read from the vectorized path."""
    return float(theta_window_moments([start], _theta_polynomial(g), n_sites, bounds)[0])


def test_ks_calibration_at_the_one_percent_level():
    # samples drawn from the target law itself stay below the 1% critical
    # value in >= 99% of runs (fixed calibration seed)
    rng = RandomSeed(303, 0).generator()
    crit = ks_critical_value(2000, 0.01)
    cdf = normal_cdf(0.0, 1.0)
    hits = sum(ks_statistic(rng.normal(size=2000), cdf) < crit for _ in range(400))
    assert hits / 400 >= 0.99


def test_ks_degenerate_single_value():
    # repeated value against its own point mass: the estimator treats the
    # target CDF as continuous, so the full left gap of 1.0 is reported
    cdf = lambda x: (np.asarray(x) >= 2.0).astype(float)
    assert ks_statistic([2.0, 2.0, 2.0], cdf) == 1.0


def test_ks_shifted_gaussian_matches_max_gap():
    rng = RandomSeed(9, 9).generator()
    samples = rng.normal(loc=0.4, size=4000)
    d = ks_statistic(samples, normal_cdf(0.0, 1.0))
    analytic_gap = norm.cdf(0.2) - norm.cdf(-0.2)
    assert abs(d - analytic_gap) < 3 * 1.36 / math.sqrt(4000)


def test_ks_empty_input_rejected():
    with pytest.raises(ValueError):
        ks_statistic([], normal_cdf(0.0, 1.0))


def test_fit_log_slope_power_law():
    pts = [(n, 3.0 * n**-1.5) for n in (10, 100, 1000, 10000)]
    fit = fit_log_slope(pts)
    assert fit.slope == pytest.approx(-1.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_log_slope_constant_values():
    fit = fit_log_slope([(10, 2.0), (100, 2.0), (1000, 2.0)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0


def test_fit_log_slope_rejects_nonpositive():
    with pytest.raises(ValueError):
        fit_log_slope([(10, 1.0), (100, 0.0), (1000, 2.0)])
    with pytest.raises(ValueError):
        fit_log_slope([(10, 1.0), (100, 2.0)])


def test_slope_fit_r_squared_range():
    with pytest.raises(ValueError):
        SlopeFit(slope=1.0, intercept=0.0, r_squared=1.5)


def test_exact_window_mean_pair_and_square(bounds):
    assert exact_window_mean(pair_product_function(), 3, 10, bounds) == pytest.approx(
        theta_product_moment(3, [1, 1], 10, bounds), rel=1e-12
    )
    # E[eta^2 | theta] = theta + 2 theta^2, taken through the mixture
    g_sq = polynomial_function(1, {(2,): 1.0})
    expected = theta_product_moment(4, [1], 10, bounds) + 2 * theta_product_moment(4, [2], 10, bounds)
    assert exact_window_mean(g_sq, 4, 10, bounds) == pytest.approx(expected, rel=1e-12)


def test_run_lln_equilibrium_control(seed):
    # equal reservoirs: no bridge term, deviations still decay like 1/sqrt(N)
    eq = BoundaryParams(1.0, 1.0)
    cfg = ExperimentConfig(
        n_ladder=(500, 5000), replicas=80, bounds=eq,
        g=density_function(), phi=phi_one(), seed=seed,
    )
    res = run_lln(cfg)
    assert res.sigma_total == pytest.approx(2.0, rel=1e-6)
    assert res.rows[1][1] < res.rows[0][1]


def test_exact_window_mean_small_case(bounds):
    # N=2 density field: E[field] = (E[Theta_1] phi(0) + E[Theta_2] phi(1/3)) / 2
    g = density_function()
    assert exact_window_mean(g, 1, 2, bounds) == pytest.approx(
        theta_product_moment(1, [1], 2, bounds), rel=1e-12
    )
    mean = exact_field_mean(g, phi_identity(), 2, bounds)
    expected = (theta_product_moment(1, [1], 2, bounds) * 0.0 + theta_product_moment(2, [1], 2, bounds) * (1 / 3)) / 2
    assert mean == pytest.approx(expected, rel=1e-12)


def test_exact_field_mean_flat_weight_is_half_sum(bounds):
    # with phi = 1 the exact mean telescopes to the midpoint of the bounds
    n = 31
    mean = exact_field_mean(density_function(), phi_one(), n, bounds)
    assert mean == pytest.approx((bounds.theta_left + bounds.theta_right) / 2, rel=1e-12)


def test_exact_field_mean_requires_polynomial(bounds):
    from geomix.core import indicator_vacuum_function

    with pytest.raises(ValueError):
        exact_field_mean(indicator_vacuum_function(), phi_one(), 10, bounds)


def test_exact_field_mean_degree_cap(bounds):
    g = polynomial_function(1, {(7,): 1.0})
    with pytest.raises(ValueError):
        exact_field_mean(g, phi_one(), 10, bounds)


@st.composite
def small_polynomials(draw):
    k = draw(st.integers(1, 4))
    exps = st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(lambda e: sum(e) <= 4)
    # positive coefficients on nonnegative parameters: no cancellation, so
    # a relative tolerance is meaningful for every window
    terms = draw(st.dictionaries(exps.map(tuple), st.integers(1, 5), min_size=1, max_size=3))
    return polynomial_function(k, terms)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    g=small_polynomials(),
    lo=st.floats(0.0, 3.0),
    width=st.floats(0.0, 3.0),
    n=st.integers(3, 40),
)
def test_window_means_match_exact_rationals(g, lo, width, n):
    # every window mean of the vectorized path against exact rationals:
    # E[eta^p | theta] expanded over its raw-moment coefficients, each
    # Theta = lo + width * U expanded binomially, and each uniform moment
    # taken from the exact-rational product-moment identity
    bounds = BoundaryParams(lo, lo + width)
    lo_q, width_q = Fraction(bounds.theta_left), Fraction(bounds.width)
    uniform = {}

    def exact_monomial_moment(start, qs):
        total = Fraction(0)
        for ls in itertools.product(*(range(q + 1) for q in qs)):
            coef = Fraction(1)
            for q, l in zip(qs, ls):
                coef *= math.comb(q, l) * lo_q ** (q - l) * width_q**l
            if coef:
                full = [0] * n
                full[start - 1 : start - 1 + len(ls)] = ls
                key = tuple(full)
                if key not in uniform:
                    uniform[key] = uniform_orderstat_product_moment_exact(n, full)
                total += coef * uniform[key]
        return total

    expected = []
    for start in range(1, n - g.k + 2):
        mean = Fraction(0)
        for exps, coef in g.monomials.items():
            per_site = [[int(c) for c in geometric_raw_moment_coefficients(e)] for e in exps]
            for qs in itertools.product(*(range(len(c)) for c in per_site)):
                weight = Fraction(coef)
                for c, q in zip(per_site, qs):
                    weight *= c[q]
                if weight:
                    mean += weight * exact_monomial_moment(start, qs)
        expected.append(float(mean))
    means = theta_window_moments(np.arange(1, n - g.k + 2), _theta_polynomial(g), n, bounds)
    np.testing.assert_allclose(means, expected, rtol=1e-12, atol=0.0)


def test_clt_centering_cross_check(bounds, seed):
    # the exact centering agrees with the empirical mean within 5 se
    cfg = ExperimentConfig(
        n_ladder=(800,),
        replicas=2000,
        bounds=bounds,
        g=density_function(),
        phi=phi_identity(),
        seed=seed,
        workers=1,
    )
    res = run_clt(cfg)
    shifted = res.samples / math.sqrt(res.n_sites)  # X_N - exact mean
    se = shifted.std(ddof=1) / math.sqrt(shifted.size)
    assert abs(shifted.mean()) < 5 * se


def test_run_lln_smoke(bounds, seed):
    cfg = ExperimentConfig(
        n_ladder=(200, 2000),
        replicas=80,
        bounds=bounds,
        g=density_function(),
        phi=phi_one(),
        seed=seed,
    )
    res = run_lln(cfg)
    assert res.limit == pytest.approx(1.0, rel=1e-9)
    assert len(res.rows) == 2
    assert res.rows[1][1] < res.rows[0][1]


def test_run_clt_replica_floor(bounds, seed):
    cfg = ExperimentConfig(
        n_ladder=(100,), replicas=10, bounds=bounds,
        g=density_function(), phi=phi_one(), seed=seed,
    )
    with pytest.raises(ValueError):
        run_clt(cfg)


def test_experiment_config_validation(bounds, seed):
    with pytest.raises(ValueError):
        ExperimentConfig(
            n_ladder=(100, 100), replicas=10, bounds=bounds,
            g=density_function(), phi=phi_one(), seed=seed,
        )


def test_reproducible_across_worker_counts(bounds):
    base = dict(
        n_ladder=(300, 1500),
        replicas=64,
        bounds=bounds,
        g=pair_product_function(),
        phi=phi_identity(),
        seed=RandomSeed(77, 2),
    )
    runs = [run_lln(ExperimentConfig(workers=w, **base)) for w in (1, 4, 8)]
    assert runs[0].rows == runs[1].rows == runs[2].rows
    clt_base = dict(
        n_ladder=(400,),
        replicas=2000,
        bounds=bounds,
        g=density_function(),
        phi=phi_one(),
        seed=RandomSeed(78, 2),
    )
    samples = [run_clt(ExperimentConfig(workers=w, **clt_base)).samples for w in (1, 4, 8)]
    assert np.array_equal(samples[0], samples[1])
    assert np.array_equal(samples[0], samples[2])


def test_run_le_scaling_degenerate_report():
    res = run_le_scaling(0.5, [1], [128, 256, 512], BoundaryParams(1.0, 1.0))
    assert res.degenerate
    assert res.fit is None
    assert all(dev == 0.0 for _, dev in res.rows)


def test_run_concentration_eps_beyond_range(bounds, seed):
    # eps larger than the reservoir gap can never be exceeded
    res = run_concentration([50], bounds, 10**4, seed, eps_schedule=[bounds.width + 0.5])
    assert res.rows[0][2] == 0.0


def test_run_concentration_replica_floor(bounds, seed):
    with pytest.raises(ValueError):
        run_concentration([50], bounds, 10, seed)


def test_run_bridge_small(bounds, seed):
    cfg = ExperimentConfig(
        n_ladder=(1000,), replicas=2000, bounds=bounds,
        g=density_function(), phi=phi_one(), seed=seed,
    )
    res = run_bridge(cfg, grid=(0.25, 0.5, 0.75))
    assert res.empirical.shape == (3, 3)
    assert res.max_deviation_in_se() <= 4.0
    assert np.allclose(res.analytic, res.analytic.T)


def test_marginal_check_rules_out_competing_variance(bounds, seed):
    res = check_profile_marginals(10, bounds, 10**5, seed)
    assert float(np.max(res.mean_deviations_in_se())) < 4
    assert float(np.max(res.var_deviations_in_se())) < 4
    assert float(np.min(res.competing_var_deviations_in_se())) > 20
