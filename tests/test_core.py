import math

import numpy as np
import pytest
from scipy.stats import beta as beta_dist

from conftest import assert_within_se
from geomix.core import (
    BoundaryParams,
    Configuration,
    ParameterProfile,
    RandomSeed,
    _after_draws,
    _geometric_counts,
    configuration_batch,
    geometric_pmf,
    profile_batch,
    sample_configuration,
    sample_ness,
    sample_parameter_profile,
)
from geomix.moments import theta_product_moment


def test_pmf_values():
    assert geometric_pmf(1.0, 0) == 0.5
    assert geometric_pmf(2.0, 1) == pytest.approx(2.0 / 9.0, rel=1e-15)
    assert geometric_pmf(0.0, 0) == 1.0
    assert geometric_pmf(0.0, 3) == 0.0


def test_pmf_normalizes_and_has_mean_theta():
    n = np.arange(2000)
    for theta in (0.3, 1.0, 2.0):
        p = geometric_pmf(theta, n)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert (n * p).sum() == pytest.approx(theta, abs=1e-9)


def test_pmf_rejects_negative_theta():
    with pytest.raises(ValueError):
        geometric_pmf(-0.1, 0)


def test_boundary_params_invariants():
    with pytest.raises(ValueError):
        BoundaryParams(-1.0, 1.0)
    with pytest.raises(ValueError):
        BoundaryParams(2.0, 1.0)
    BoundaryParams(1.0, 1.0)  # equilibrium allowed


def test_profiles_are_sorted_and_in_range(bounds):
    for stream in range(5):
        prof = sample_parameter_profile(64, bounds, RandomSeed(3, stream))
        assert np.all(np.diff(prof.values) >= 0)
        assert prof.values[0] >= bounds.theta_left
        assert prof.values[-1] <= bounds.theta_right


def test_degenerate_interval_profile():
    prof = sample_parameter_profile(1, BoundaryParams(1.5, 1.5), RandomSeed(0, 0))
    assert prof.values.tolist() == [1.5]


def test_identical_seeds_reproduce_bitwise(bounds):
    s = RandomSeed(99, 4)
    p1, c1 = sample_ness(200, bounds, s)
    p2, c2 = sample_ness(200, bounds, s)
    assert np.array_equal(p1.values, p2.values)
    assert np.array_equal(c1.occupations, c2.occupations)
    p3, _ = sample_ness(200, bounds, RandomSeed(99, 5))
    assert not np.array_equal(p1.values, p3.values)


@pytest.mark.parametrize("draws", [0, 1, 2, 3, 4, 5, 10**5 + 3])
def test_after_draws_continues_the_stream(draws):
    source = RandomSeed(99, 4).generator()
    positioned = _after_draws(source, draws)
    source.random(draws)
    assert np.array_equal(positioned.random(9), source.random(9))


def test_after_draws_refuses_other_generators():
    with pytest.raises(ValueError, match="Philox"):
        _after_draws(np.random.default_rng(1), 4)
    drawn = RandomSeed(99, 4).generator()
    drawn.random()
    with pytest.raises(ValueError, match="not drawn"):
        _after_draws(drawn, 4)


def test_profile_type_rejects_unsorted(bounds):
    with pytest.raises(ValueError):
        ParameterProfile(values=np.array([1.0, 0.5]), bounds=bounds)


def test_configuration_type_rejects_negative():
    with pytest.raises(ValueError):
        Configuration(occupations=np.array([1, -1]))


def test_profile_marginal_mean_and_variance(bounds):
    # entry i is Beta(i, N+1-i) rescaled: mean i/(N+1), variance
    # i(N+1-i) w^2 / ((N+1)^2 (N+2)).  The competing denominator with an
    # extra factor (N+2) is decisively ruled out by the same data.
    n, r = 10, 2 * 10**5
    rng = RandomSeed(7, 0).generator()
    thetas = profile_batch(n, bounds, rng, r)
    i = np.arange(1, n + 1)
    mean_target = bounds.theta_left + bounds.width * i / (n + 1)
    var_target = i * (n + 1 - i) * bounds.width**2 / ((n + 1) ** 2 * (n + 2))
    emp_mean = thetas.mean(axis=0)
    emp_var = thetas.var(axis=0, ddof=1)
    mean_se = thetas.std(axis=0, ddof=1) / math.sqrt(r)
    centered = (thetas - emp_mean) ** 2
    var_se = centered.std(axis=0, ddof=1) / math.sqrt(r)
    assert_within_se(emp_mean, mean_target, mean_se, 4, "order-statistic means")
    assert_within_se(emp_var, var_target, var_se, 4, "order-statistic variances")
    competing = var_target / (n + 2)
    assert np.all(np.abs(emp_var - competing) / var_se > 50)


def test_profile_marginal_ks_against_beta(bounds):
    # fixed calibration seed; the 99% critical value is an exact-level
    # test, so a run over 10 sites fails ~10% of the time on a random seed
    n, r = 10, 10**5
    rng = RandomSeed(7, 1).generator()
    thetas = profile_batch(n, bounds, rng, r)
    crit = 1.6276 / math.sqrt(r)
    for i in range(n):
        u = np.sort((thetas[:, i] - bounds.theta_left) / bounds.width)
        f = beta_dist.cdf(u, i + 1, n - i)
        d_plus = np.max(np.arange(1, r + 1) / r - f)
        d_minus = np.max(f - np.arange(0, r) / r)
        assert max(d_plus, d_minus) < crit


def test_configuration_point_mass_at_zero():
    prof = ParameterProfile(values=np.zeros(20), bounds=BoundaryParams(0.0, 0.0))
    cfg = sample_configuration(prof, RandomSeed(1, 1))
    assert np.all(cfg.occupations == 0)


def test_configuration_batch_matches_masked_reference():
    # reference: the inverse-CDF transform applied only where theta > 0,
    # with theta = 0 entries left at zero; the in-place version must give
    # the same integers from the same uniforms
    def masked(thetas, rng):
        u = rng.random(thetas.shape)
        out = np.zeros(thetas.shape, dtype=np.int64)
        pos = thetas > 0.0
        if np.any(pos):
            log_p = np.log(thetas[pos]) - np.log1p(thetas[pos])
            vals = np.ceil(np.log1p(-u[pos]) / log_p) - 1.0
            out[pos] = np.maximum(vals, 0.0).astype(np.int64)
        return out

    thetas = np.linspace(0.0, 3.0, 7 * 40).reshape(7, 40)
    thetas[:, :5] = 0.0
    thetas[3] = 0.0
    got = configuration_batch(thetas, RandomSeed(5, 2).generator())
    assert got.dtype == np.int64
    assert np.array_equal(got, masked(thetas, RandomSeed(5, 2).generator()))
    assert np.all(got[:, :5] == 0) and np.all(got[3] == 0)


def test_float_counts_are_the_configuration_batch_counts():
    # the field runs' float counts and configuration_batch's int64 counts
    # come from the same transform of the same uniforms; theta = 0 columns
    # and a theta = 0 row are the point mass at zero
    thetas = np.linspace(0.0, 50.0, 9 * 300).reshape(9, 300)
    thetas[:, :7] = 0.0
    thetas[4] = 0.0
    got = _geometric_counts(thetas, RandomSeed(6, 1).generator().random(thetas.shape))
    want = configuration_batch(thetas, RandomSeed(6, 1).generator())
    assert got.dtype == np.float64
    assert np.array_equal(got, want.astype(float))
    assert np.all(got[:, :7] == 0) and np.all(got[4] == 0)
    assert not np.signbit(got).any()


def test_configuration_site_moments_given_profile(bounds):
    prof = sample_parameter_profile(8, bounds, RandomSeed(12, 0))
    rng = RandomSeed(12, 1).generator()
    occ = configuration_batch(np.broadcast_to(prof.values, (10**5, 8)), rng)
    theta = prof.values
    emp_mean = occ.mean(axis=0)
    mean_se = occ.std(axis=0, ddof=1) / math.sqrt(occ.shape[0])
    assert_within_se(emp_mean, theta, mean_se, 4, "geometric means")
    emp_var = occ.var(axis=0, ddof=1)
    centered = (occ - emp_mean) ** 2
    var_se = centered.std(axis=0, ddof=1) / math.sqrt(occ.shape[0])
    # series oracle for the second moment: var = theta (1 + theta)
    assert_within_se(emp_var, theta * (1 + theta), var_se, 4, "geometric variances")


def test_configuration_pmf_termwise(bounds):
    # mixture consistency: conditional on a fixed profile the site laws
    # match the pmf term by term
    theta = 1.3
    rng = RandomSeed(15, 0).generator()
    occ = configuration_batch(np.full((2 * 10**5, 1), theta), rng)[:, 0]
    for n in range(8):
        p = geometric_pmf(theta, n)
        emp = float(np.mean(occ == n))
        se = math.sqrt(p * (1 - p) / occ.size)
        assert abs(emp - p) < 4 * se


def test_ness_site_means(bounds):
    n, r = 20, 10**5
    rng = RandomSeed(33, 0).generator()
    thetas = profile_batch(n, bounds, rng, r)
    occ = configuration_batch(thetas, rng)
    target = bounds.theta_left + bounds.width * np.arange(1, n + 1) / (n + 1)
    se = occ.std(axis=0, ddof=1) / math.sqrt(r)
    assert_within_se(occ.mean(axis=0), target, se, 4, "steady-state site means")


def test_ness_equilibrium_sites_are_uncorrelated():
    b = BoundaryParams(1.0, 1.0)
    rng = RandomSeed(44, 0).generator()
    thetas = profile_batch(30, b, rng, 10**5)
    occ = configuration_batch(thetas, rng).astype(float)
    x, y = occ[:, 0], occ[:, -1]
    cov = float(np.mean(x * y) - x.mean() * y.mean())
    se = float(np.std((x - x.mean()) * (y - y.mean()), ddof=1)) / math.sqrt(x.size)
    assert abs(cov) < 4 * se


def test_ness_long_range_covariance(bounds):
    # the shared mixture layer couples distant sites; the exact covariance
    # cov(eta_1, eta_N) = w^2 * 1 * 1 / ((N+1)^2 (N+2)) is positive (the
    # limiting kernel min(s,t) - s*t is nonnegative).  The occupation-layer
    # Monte Carlo at 10^6 replicas brackets it; the parameter layer, whose
    # noise is far smaller, resolves the sign.
    n, r = 50, 10**6
    exact = (
        theta_product_moment(1, [1] + [0] * (n - 2) + [1], n, bounds)
        - theta_product_moment(1, [1], n, bounds) * theta_product_moment(n, [1], n, bounds)
    )
    assert exact == pytest.approx(bounds.width**2 / ((n + 1) ** 2 * (n + 2)), rel=1e-9)
    assert exact > 0
    rng = RandomSeed(2024, 3).generator()
    sums_eta = np.zeros(3)
    sums_th = np.zeros(3)
    cross_eta = []
    cross_th = []
    for lo in range(0, r, 50000):
        c = min(50000, r - lo)
        th = profile_batch(n, bounds, rng, c)
        occ = configuration_batch(th, rng).astype(float)
        sums_eta += np.array([occ[:, 0].sum(), occ[:, -1].sum(), (occ[:, 0] * occ[:, -1]).sum()])
        sums_th += np.array([th[:, 0].sum(), th[:, -1].sum(), (th[:, 0] * th[:, -1]).sum()])
        cross_eta.append(occ[:, 0] * occ[:, -1])
        cross_th.append(th[:, 0] * th[:, -1])
    m_eta = sums_eta / r
    cov_eta = m_eta[2] - m_eta[0] * m_eta[1]
    se_eta = float(np.std(np.concatenate(cross_eta), ddof=1)) / math.sqrt(r)
    assert abs(cov_eta - exact) < 4 * se_eta
    m_th = sums_th / r
    cov_th = m_th[2] - m_th[0] * m_th[1]
    se_th = float(np.std(np.concatenate(cross_th), ddof=1)) / math.sqrt(r)
    assert cov_th > 0
    assert abs(cov_th - exact) < 4 * se_th
