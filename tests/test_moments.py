import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import assert_within_se, orderstat_product_moment
from geomix.core import RandomSeed, profile_batch
from geomix.moments import _raw_moment_row, stirling2, theta_product_moment
from oracles import uniform_orderstat_product_moment_exact


def raw_moment(theta, p):
    """E[eta^p] under the geometric law with mean theta."""
    return float(np.polynomial.polynomial.polyval(theta, np.array(_raw_moment_row(p), dtype=float)))


def _first_two_orderstat_integral(n, fun):
    """2-d quadrature of fun(u, v) against the joint density of the first
    two order statistics of n uniforms: n(n-1)(1-v)^(n-2) on {u < v}."""
    nodes, weights = np.polynomial.legendre.leggauss(60)
    v = (nodes + 1) / 2
    wv = weights / 2
    total = 0.0
    for vj, wj in zip(v, wv):
        u = vj * (nodes + 1) / 2
        wu = vj * weights / 2
        dens = n * (n - 1) * (1 - vj) ** (n - 2)
        total += wj * np.sum(wu * fun(u, vj) * dens)
    return total


def test_product_moment_single_index_example(unit_bounds):
    assert theta_product_moment(1, [1], 2, unit_bounds) == pytest.approx(1 / 3, rel=1e-12)


def test_product_moment_of_constant_is_one(unit_bounds):
    for n in (1, 5, 40):
        assert theta_product_moment(1, [0] * n, n, unit_bounds) == pytest.approx(1.0, rel=1e-14)


def test_product_moment_pair_example_against_integral_oracle():
    # E[U_{1:3} U_{2:3}] by quadrature of the joint order-statistic density
    oracle = _first_two_orderstat_integral(3, lambda u, v: u * v)
    assert oracle == pytest.approx(3 / 20, rel=1e-10)
    assert orderstat_product_moment(np.array([1, 1, 0])) == pytest.approx(oracle, rel=1e-9)
    assert uniform_orderstat_product_moment_exact(3, [1, 1, 0]) == Fraction(3, 20)


def test_product_moment_pair_example_against_mc_oracle():
    rng = RandomSeed(61, 0).generator()
    u = np.sort(rng.random((10**6, 3)), axis=1)
    prods = u[:, 0] * u[:, 1]
    se = prods.std(ddof=1) / math.sqrt(prods.size)
    assert_within_se(prods.mean(), 3 / 20, se, 4, "E[U1 U2] of three uniforms")


def _sparse_exponents(rng, n_max, e_max):
    """A random length n < n_max with at most three sites carrying
    exponents in 1..e_max.  The window between them may be wide, but
    theta_product_moment expands it into at most (e_max + 1)^3 binomial
    terms; a window of k nonzero exponents would take prod_j (e_j + 1)."""
    n = int(rng.integers(1, n_max))
    exps = np.zeros(n, dtype=np.int64)
    support = rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)), replace=False)
    exps[support] = rng.integers(1, e_max + 1, size=support.size)
    return n, exps


def test_telescoped_and_gamma_forms_agree():
    # the collapsed window moment against the Gamma-ratio form of the
    # identity over the full exponent vector
    rng = np.random.default_rng(5)
    for _ in range(200):
        n, exps = _sparse_exponents(rng, 30, 3)
        partial = np.cumsum(exps)
        j = np.arange(1, n + 1)
        gamma_form = math.exp(
            math.lgamma(n + 1)
            + float(np.sum([math.lgamma(s + jj) - math.lgamma(s + jj + 1) for s, jj in zip(partial, j)]))
        )
        assert orderstat_product_moment(exps) == pytest.approx(gamma_form, rel=1e-12)


def test_exact_rational_path_matches_float():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n, exps = _sparse_exponents(rng, 20, 2)
        exact = uniform_orderstat_product_moment_exact(n, exps)
        assert orderstat_product_moment(exps) == pytest.approx(float(exact), rel=1e-12)


def test_single_index_reduction_exhaustive(unit_bounds):
    # the general product formula with one nonzero exponent reproduces
    # r(r+1)...(r+k-1) / ((N+1)...(N+k)) for all N <= 20, k <= 5
    for n in range(1, 21):
        for r in range(1, n + 1):
            for k in range(1, 6):
                exps = [0] * n
                exps[r - 1] = k
                general = uniform_orderstat_product_moment_exact(n, exps)
                num = Fraction(1)
                for j in range(k):
                    num *= Fraction(r + j, n + 1 + j)
                assert general == num
                assert theta_product_moment(r, [k], n, unit_bounds) == pytest.approx(
                    float(num), rel=1e-12
                )


def test_large_n_evaluation_paths_agree(unit_bounds):
    # the full-length partial-sum form lgamma(N+1) - sum_j log(S_j + j) and
    # the collapsed window are independent evaluations of the same
    # identity; at N = 10^5 they must agree and stay finite in log space
    n = 10**5
    exps = np.zeros(n, dtype=np.int64)
    exps[999] = 2
    exps[49999] = 1
    j = np.arange(1, n + 1)
    full_path = math.exp(math.lgamma(n + 1) - float(np.sum(np.log(np.cumsum(exps) + j))))
    window = [2] + [0] * (50000 - 1001) + [1]
    collapsed = theta_product_moment(1000, window, n, unit_bounds)
    assert full_path == pytest.approx(collapsed, rel=1e-10)
    assert 0.0 < full_path < 1.0


def test_theta_moment_first_power(bounds):
    for n in (3, 9, 50):
        for i in (1, n // 2 + 1, n):
            expected = bounds.theta_left + bounds.width * i / (n + 1)
            assert theta_product_moment(i, [1], n, bounds) == pytest.approx(expected, rel=1e-12)


def test_theta_moment_zeroth_power(bounds):
    assert theta_product_moment(4, [0], 9, bounds) == 1.0


def test_theta_moment_reduces_to_uniform(unit_bounds):
    for p in range(5):
        assert theta_product_moment(3, [p], 7, unit_bounds) == pytest.approx(
            float(uniform_orderstat_product_moment_exact(7, [0, 0, p, 0, 0, 0, 0])), rel=1e-12
        )


def test_theta_moment_monotone_in_index(bounds):
    for p in (1, 2, 3):
        vals = [theta_product_moment(i, [p], 12, bounds) for i in range(1, 13)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_theta_moment_index_range(bounds):
    with pytest.raises(ValueError):
        theta_product_moment(0, [1], 5, bounds)
    with pytest.raises(ValueError):
        theta_product_moment(6, [1], 5, bounds)


def test_theta_product_single_site_matches_theta_moment(bounds):
    # E[Theta_i^p] with theta_left = 0 is width^p E[U_{i:N}^p]
    assert bounds.theta_left == 0.0
    for p in range(4):
        assert theta_product_moment(2, [p], 6, bounds) == pytest.approx(
            bounds.width**p * float(uniform_orderstat_product_moment_exact(6, [0, p, 0, 0, 0, 0])),
            rel=1e-12,
        )


def test_theta_product_pair_example(unit_bounds):
    oracle = _first_two_orderstat_integral(2, lambda u, v: u * v)
    assert oracle == pytest.approx(0.25, abs=1e-10)
    assert theta_product_moment(1, [1, 1], 2, unit_bounds) == pytest.approx(
        oracle, rel=1e-9
    )


def test_theta_product_window_out_of_range(bounds):
    with pytest.raises(ValueError):
        theta_product_moment(5, [1, 1], 5, bounds)


def test_theta_product_against_monte_carlo(bounds):
    rng_cases = np.random.default_rng(17)
    r = 2 * 10**5
    sample_rng = RandomSeed(71, 0).generator()
    for _ in range(8):
        n = int(rng_cases.integers(4, 12))
        k = int(rng_cases.integers(1, 4))
        start = int(rng_cases.integers(1, n - k + 2))
        exps = rng_cases.integers(0, 4, size=k)
        thetas = profile_batch(n, bounds, sample_rng, r)
        window = thetas[:, start - 1 : start - 1 + k]
        prods = np.prod(window ** exps[None, :], axis=1)
        se = prods.std(ddof=1) / math.sqrt(r)
        assert_within_se(
            prods.mean(),
            theta_product_moment(start, exps, n, bounds),
            se,
            4,
            f"window moment n={n} start={start} exps={exps}",
        )


def test_geometric_raw_moment_values():
    assert raw_moment(2.0, 1) == 2.0
    assert raw_moment(1.5, 0) == 1.0
    n = np.arange(0, 120, dtype=float)
    series = float(np.sum(n**2 * 0.5 ** (n + 1)))
    assert raw_moment(1.0, 2) == pytest.approx(3.0, rel=1e-12)
    assert raw_moment(1.0, 2) == pytest.approx(series, abs=1e-10)
    # variance theta (1 + theta)
    for theta in (0.5, 1.0, 2.5):
        var = raw_moment(theta, 2) - theta**2
        assert var == pytest.approx(theta * (1 + theta), rel=1e-12)


def test_raw_moment_series_oracle_general():
    n = np.arange(0, 400, dtype=float)
    for theta, p in ((0.4, 3), (1.2, 4), (2.0, 5)):
        q = theta / (1 + theta)
        series = float(np.sum(n**p * (1 - q) * q**n))
        assert raw_moment(theta, p) == pytest.approx(series, rel=1e-9)


def test_stirling_triangle():
    assert stirling2(0, 0) == 1
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert stirling2(3, 5) == 0
