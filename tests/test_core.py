import math

import mpmath
import numpy as np
import pytest
from scipy.stats import beta as beta_dist

from conftest import assert_within_se
from geomix.core import (
    BoundaryParams,
    Purpose,
    RandomSeed,
    _geometric_counts,
    configuration_batch,
    profile_batch,
)
from geomix.moments import theta_product_moment
from oracles import geometric_tables


def test_pmf_values():
    # the oracle's pmf rows, which the site-law tests read as the geometric law
    assert geometric_tables(1.0, 0)[0][0][0] == 0.5
    assert geometric_tables(2.0, 1)[0][0][1] == pytest.approx(2.0 / 9.0, rel=1e-15)
    assert geometric_tables(0.0, 3)[0][0].tolist() == [1.0, 0.0, 0.0, 0.0]


def test_pmf_normalizes_and_has_mean_theta():
    n = np.arange(2000)
    for theta in (0.3, 1.0, 2.0):
        p = geometric_tables(theta, 1999)[0][0]
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert (n * p).sum() == pytest.approx(theta, abs=1e-9)


def test_boundary_params_invariants():
    with pytest.raises(ValueError):
        BoundaryParams(-1.0, 1.0)
    with pytest.raises(ValueError):
        BoundaryParams(2.0, 1.0)
    BoundaryParams(1.0, 1.0)  # equilibrium allowed


def test_profiles_are_sorted_and_in_range(bounds):
    for stream in range(5):
        prof = profile_batch(64, bounds, RandomSeed(3, stream).generator(), 1)[0]
        assert np.all(np.diff(prof) >= 0)
        assert prof[0] >= bounds.theta_left
        assert prof[-1] <= bounds.theta_right


def test_degenerate_interval_profile():
    prof = profile_batch(1, BoundaryParams(1.5, 1.5), RandomSeed(0, 0).generator(), 1)[0]
    assert prof.tolist() == [1.5]


def test_identical_seeds_reproduce_bitwise(bounds):
    def sample(seed):
        thetas = profile_batch(200, bounds, seed.generator(Purpose.PROFILES), 1)[0]
        return thetas, configuration_batch(thetas, seed.generator(Purpose.CONFIGURATIONS))

    s = RandomSeed(99, 4)
    p1, c1 = sample(s)
    p2, c2 = sample(s)
    assert np.array_equal(p1, p2)
    assert np.array_equal(c1, c2)
    p3, _ = sample(RandomSeed(99, 5))
    assert not np.array_equal(p1, p3)


@pytest.mark.parametrize("draws", [0, 1, 2, 3, 4, 5, 10**5 + 3])
def test_after_draws_continues_the_stream(draws):
    # a stream drawn in row blocks is the stream drawn whole: one double is
    # one 64-bit word, so after any number of draws the next doubles are
    # the whole draw's continuation
    def rng():
        return RandomSeed(99, 4).generator(Purpose.CONFIGURATIONS, 2, 7)

    whole = rng().random(draws + 9)
    blocks = rng()
    buf = np.empty(draws)
    blocks.random(out=buf[: draws // 2])
    blocks.random(out=buf[draws // 2 :])
    assert np.array_equal(buf, whole[:draws])
    assert np.array_equal(blocks.random(9), whole[draws:])


def test_generator_key_is_stream_purpose_ladder_and_chunk():
    rng = RandomSeed(99, 4).generator(Purpose.FILLS, 2, 7)
    assert isinstance(rng.bit_generator, np.random.PCG64)
    keyed = rng.bit_generator.seed_seq
    assert (keyed.entropy, keyed.spawn_key) == (99, (4, Purpose.FILLS, 2, 7))
    # each entry of the key selects its own stream
    first = RandomSeed(99, 4).generator().random(4)
    assert np.array_equal(first, RandomSeed(99, 4).generator(Purpose.PROFILES, 0, 0).random(4))
    for other in (
        RandomSeed(98, 4).generator(),
        RandomSeed(99, 5).generator(),
        RandomSeed(99, 4).generator(Purpose.CONFIGURATIONS),
        RandomSeed(99, 4).generator(ladder=1),
        RandomSeed(99, 4).generator(chunk=1),
    ):
        assert not np.array_equal(first, other.random(4))


@pytest.mark.parametrize("master, stream", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_seeds_outside_64_bits_are_refused(master, stream):
    # masking them would make RandomSeed(-1, 0) the stream of
    # RandomSeed(2**64 - 1, 0)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        RandomSeed(master, stream)
    RandomSeed(2**64 - 1, 2**64 - 1).generator()


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
    occ = configuration_batch(np.zeros(20), RandomSeed(1, 1).generator())
    assert np.all(occ == 0)


def test_configuration_batch_matches_masked_reference():
    # reference: the inverse-CDF transform applied only where theta > 0,
    # with theta = 0 entries left at zero; the in-place version must give
    # the same integers from the same uniforms
    def masked(thetas, rng):
        u = rng.random(thetas.shape)
        out = np.zeros(thetas.shape, dtype=np.int64)
        pos = thetas > 0.0
        if np.any(pos):
            log_p = -np.log1p(1.0 / thetas[pos])
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


@pytest.mark.parametrize("theta", [1e3, 1e6])
def test_geometric_counts_are_exact_quantiles_at_large_theta(theta):
    # uniforms at relative distance 1e-14 on either side of the quantile
    # bounds 1 - p**m, p = theta/(1+theta): log p = log(theta) - log1p(theta)
    # is off by 7e-14 relative at theta = 1e3 and by 9.5e-11 at 1e6, which
    # puts such a uniform on the wrong side; -log1p(1/theta) does not
    mpmath.mp.dps = 50
    p = mpmath.mpf(theta) / (1 + mpmath.mpf(theta))
    ms = [1, 2, int(theta) // 10 + 1, int(theta), 5 * int(theta)]
    u = np.array([float(1 - p ** (m * (1 + side * 1e-14))) for m in ms for side in (-1, 1)])
    exact = [int(mpmath.ceil(mpmath.log(1 - mpmath.mpf(x)) / mpmath.log(p))) - 1 for x in u]
    got = _geometric_counts(np.full(u.shape, theta), u.copy())
    assert got.tolist() == exact
    assert exact[1::2] == ms and exact[0::2] == [m - 1 for m in ms]


def test_configuration_site_moments_given_profile(bounds):
    theta = profile_batch(8, bounds, RandomSeed(12, 0).generator(), 1)[0]
    rng = RandomSeed(12, 1).generator()
    occ = configuration_batch(np.broadcast_to(theta, (10**5, 8)), rng)
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
    pmf = geometric_tables(theta, 7)[0][0]
    for n in range(8):
        p = pmf[n]
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
