import math
import tracemalloc
import warnings

import numpy as np
import pytest

from geomix.asymptotics import _weight_tables
from geomix.core import (
    BoundaryParams,
    LocalFunction,
    RandomSeed,
    indicator_vacuum_function,
)
from geomix.fields import TestFunction
from geomix.harness import annealed_mc_estimate
import geomix.ldp as ldp_module
from geomix.ldp import (
    MonotoneProfile,
    NumericError,
    SolverConfig,
    VariationalResult,
    annealed_free_energy,
    free_energy,
    free_energy_finite_chain,
    free_energy_transfer,
    inhom_free_energy,
    path_rate,
    profile_rate,
    rate_function,
    _legendre,
)


def make_pair_vacuum():
    def evaluator(a, b):
        return ((np.asarray(a) == 0) & (np.asarray(b) == 0)).astype(float)

    return LocalFunction(k=2, evaluator=evaluator, bounded=True, bound=1.0, name="pair-vacuum")


def make_capped_count():
    # four values 0, 1/3, 2/3, 1: min(n, 3) / 3
    def evaluator(n):
        return np.minimum(np.asarray(n, dtype=float), 3.0) / 3.0

    return LocalFunction(k=1, evaluator=evaluator, bounded=True, bound=1.0, name="capped-count")


def free_energy_at(theta, lam, g):
    return float(free_energy(theta, lam, g)[0][0])


def const_phi(value, name="const"):
    return TestFunction(lambda x, v=value: np.full_like(x, v), name=name)


@pytest.fixture
def ind_g():
    return indicator_vacuum_function()


def test_site_free_energy_closed_form(ind_g):
    g = indicator_vacuum_function()
    for theta, lam in ((0.5, 0.3), (1.0, 0.7), (2.0, -1.1)):
        expected = math.log((math.exp(lam) + theta) / (1 + theta))
        assert free_energy_at(theta, lam, g) == pytest.approx(expected, abs=1e-12)


def test_site_free_energy_vanishes_at_zero_tilt(ind_g):
    for theta in (0.0, 0.5, 2.0):
        assert abs(free_energy_at(theta, 0.0, indicator_vacuum_function())) < 1e-8


def test_site_free_energy_of_constant_is_linear():
    g = LocalFunction(
        k=1,
        evaluator=lambda n: np.full_like(np.asarray(n, dtype=float), 0.7),
        bounded=True,
        bound=0.7,
        name="const",
    )
    for lam in (-2.0, 0.4, 3.0):
        assert free_energy_at(1.2, lam, g) == pytest.approx(0.7 * lam, abs=1e-10)


def test_free_energy_requires_bounded_g():
    from geomix.core import density_function

    for evaluate in (free_energy, rate_function, free_energy_transfer):
        with pytest.raises(ValueError, match="bounded"):
            evaluate(1.0, 0.5, density_function())


def test_transfer_stochastic_kernel_at_zero_tilt(ind_g):
    assert abs(free_energy_transfer(1.0, 0.0, ind_g)) < 1e-10
    assert abs(free_energy_transfer(1.3, 0.0, make_pair_vacuum())) < 1e-10


def test_transfer_reduces_to_site_form(ind_g):
    g = indicator_vacuum_function()
    for theta, lam in ((0.7, 0.5), (1.0, -0.8), (1.9, 1.2)):
        assert abs(
            free_energy_transfer(theta, lam, ind_g) - free_energy_at(theta, lam, g)
        ) < 1e-8


def test_free_energy_closed_forms_including_theta_zero(ind_g):
    # indicator-vacuum: F = log((e^lam + theta)/(1 + theta)) with
    # dF/dlambda = e^lam/(e^lam + theta), dF/dtheta = 1/(e^lam + theta) - 1/(1 + theta)
    thetas = np.array([0.0, 0.0, 0.0, 0.5, 1.0, 2.0, 1.0])
    lams = np.array([-1.5, 0.0, 2.0, 0.3, 0.7, -1.1, -6.0])
    f, f_lam, f_theta = free_energy(thetas, lams, ind_g)
    e = np.exp(lams)
    assert f == pytest.approx(np.log((e + thetas) / (1 + thetas)), abs=1e-12)
    assert f_lam == pytest.approx(e / (e + thetas), abs=1e-12)
    assert f_theta == pytest.approx(1 / (e + thetas) - 1 / (1 + thetas), rel=1e-12, abs=1e-12)


def test_transfer_derivatives_match_central_differences():
    g = make_pair_vacuum()
    thetas = np.array([0.4, 1.0, 1.8])
    lams = np.array([-0.9, 0.3, 1.2])
    f, f_lam, f_theta = free_energy(thetas, lams, g)
    h = 1e-5
    for i, (theta, lam) in enumerate(zip(thetas, lams)):
        assert f[i] == free_energy_transfer(theta, lam, g)
        d_lam = (free_energy_transfer(theta, lam + h, g) - free_energy_transfer(theta, lam - h, g)) / (2 * h)
        d_theta = (free_energy_transfer(theta + h, lam, g) - free_energy_transfer(theta - h, lam, g)) / (2 * h)
        assert f_lam[i] == pytest.approx(d_lam, abs=1e-8)
        assert f_theta[i] == pytest.approx(d_theta, abs=1e-8)


def test_transfer_against_direct_simulation():
    # the finite-chain kernel value sits inside the Monte Carlo band;
    # the power-iteration limit differs from it by O(1/N)
    g = make_pair_vacuum()
    theta, lam, n = 1.0, 0.3, 200
    limit = free_energy_transfer(theta, lam, g)
    finite = free_energy_finite_chain(theta, lam, g, n)
    # equal reservoirs give the homogeneous product at theta
    est, se = annealed_mc_estimate(
        g, lam, n, BoundaryParams(theta, theta), 20000, RandomSeed(11, 5)
    )
    assert abs(est - finite) <= 4 * se
    assert abs(limit - finite) <= 5.0 / n


def test_lambda_convexity(ind_g):
    lams = np.linspace(-3.0, 3.0, 41)
    for theta in (0.4, 1.0, 2.0):
        vals = np.array(
            [free_energy_at(theta, l, indicator_vacuum_function()) for l in lams]
        )
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert second.min() >= -1e-9


def test_rate_vanishes_at_the_mean(ind_g):
    for theta in (0.5, 1.0, 2.0):
        mean = 1 / (1 + theta)
        assert abs(rate_function(theta, mean, ind_g)) < 1e-8


def test_rate_nonnegative(ind_g):
    for x in np.linspace(0.05, 0.95, 10):
        assert rate_function(1.0, float(x), ind_g) >= -1e-12


def test_rate_bernoulli_closed_form(ind_g):
    # sup_lam(3 lam / 4 - log((e^lam + 1)/2)) is the Bernoulli(1/2)
    # relative entropy of 3/4
    expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert rate_function(1.0, 0.75, ind_g) == pytest.approx(expected, abs=1e-8)


def test_rate_outside_range_is_infinite(ind_g):
    assert rate_function(1.0, 1.5, ind_g) == math.inf
    assert rate_function(1.0, -0.2, ind_g) == math.inf


def test_rate_just_outside_range_is_infinite(ind_g):
    assert rate_function(1.0, -1e-9, ind_g) == math.inf
    assert rate_function(1.0, 1 + 1e-9, ind_g) == math.inf


def test_rate_at_range_edge_is_log_inverse_mass(ind_g):
    # x = 1 forces every site empty: rate -log nu_theta(0) = log(1+theta)
    assert rate_function(1.0, 1.0, ind_g) == pytest.approx(math.log(2.0), abs=1e-6)


def test_legendre_consistency(ind_g):
    # I(theta, F'(lambda)) + F(lambda) = lambda F'(lambda)
    g = indicator_vacuum_function()
    theta = 1.2
    for lam in (-1.5, -0.4, 0.3, 1.1, 2.0):
        h = 1e-6
        deriv = (
            free_energy_at(theta, lam + h, g) - free_energy_at(theta, lam - h, g)
        ) / (2 * h)
        lhs = rate_function(theta, deriv, ind_g) + free_energy_at(theta, lam, g)
        assert lhs == pytest.approx(lam * deriv, abs=1e-6)


@pytest.mark.parametrize("make_g", [indicator_vacuum_function, make_capped_count])
def test_free_energy_does_not_depend_on_the_batch(make_g):
    g = make_g()
    rng = np.random.default_rng(257)
    thetas = rng.uniform(0.0, 3.0, 257)
    lams = rng.uniform(-3.0, 3.0, 257)
    batch = free_energy(thetas, lams, g)
    for i, (theta, lam) in enumerate(zip(thetas, lams)):
        single = free_energy(theta, lam, g)
        for b, s in zip(batch, single):
            assert b[i] == s[0]


@pytest.mark.parametrize("make_g", [indicator_vacuum_function, make_capped_count])
def test_level_masses_match_the_weight_table(make_g):
    # closed-form run masses against nu and d nu/d theta summed state by
    # state over each level set of g, at theta = 0, a large theta and random ones
    rng = np.random.default_rng(17)
    thetas = np.concatenate(([0.0, 50.0], rng.uniform(0.0, 2.0, 200)))
    table = ldp_module._FreeEnergyTable(thetas, make_g())
    w, dw = _weight_tables(thetas, ldp_module._M_STATE)
    gvals = table.gvals.ravel()
    mass = np.stack([w[:, gvals == v].sum(axis=1) for v in table.levels], axis=1)
    d_mass = np.stack([dw[:, gvals == v].sum(axis=1) for v in table.levels], axis=1)
    np.testing.assert_allclose(table.mass, mass, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(table.d_mass, d_mass, rtol=0.0, atol=1e-15)


def test_run_table_budget_counts_runs_not_states():
    # indicator-vacuum has two runs, so 300 000 nodes build a (300000, 2)
    # table, bit-identical to two batches of 150 000, where a table over
    # the 129 states would hold 3.9e7 cells, above the 2**25 budget
    n = 300_000
    thetas = np.linspace(0.05, 2.0, n)
    lams = np.linspace(-1.0, 1.0, n)
    g = indicator_vacuum_function()
    whole = free_energy(thetas, lams, g)
    halves = [free_energy(thetas[s], lams[s], g) for s in (slice(0, n // 2), slice(n // 2, n))]
    for w, a, b in zip(whole, *halves):
        assert np.array_equal(w, np.concatenate([a, b]))
    # n mod 2 has 129 runs: the 300000 x 129 run table is refused unbuilt
    parity = LocalFunction(
        k=1, evaluator=lambda n: np.asarray(n) % 2.0, bounded=True, bound=1.0, name="parity"
    )
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cells"):
            free_energy(thetas, lams, parity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def bisection_legendre(thetas, xs, g, steps=200):
    """Oracle: bisect dF/dlambda = x over each node's certified lambda range."""
    caps = ldp_module._lambda_caps(thetas, g)
    lo, hi = -caps, caps.copy()
    for _ in range(steps):
        mid = (lo + hi) / 2.0
        below = free_energy(thetas, mid, g)[1] < xs
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    lam = (lo + hi) / 2.0
    return lam * xs - free_energy(thetas, lam, g)[0], lam


@pytest.mark.parametrize(
    "g, x_range",
    [(make_capped_count(), (0.02, 0.98)), (make_pair_vacuum(), (0.05, 0.8))],
    ids=["four-valued", "pair-vacuum"],
)
def test_legendre_matches_bisection(g, x_range):
    rng = np.random.default_rng(31)
    thetas = rng.uniform(0.2, 2.0, 8)
    xs = rng.uniform(*x_range, 8)
    # next to the range edges the maximizer runs far out in lambda
    xs[:2] = (1e-9, 1.0 - 1e-9)
    rates, lams, _ = _legendre(thetas, xs, g)
    oracle_rates, oracle_lams = bisection_legendre(thetas, xs, g)
    assert np.all(np.isfinite(rates))
    assert rates == pytest.approx(oracle_rates, abs=1e-12)
    assert lams[2:] == pytest.approx(oracle_lams[2:], abs=1e-9)


def test_legendre_two_valued_g_takes_at_most_three_evaluations(ind_g, monkeypatch):
    calls = []
    evaluate = ldp_module._FreeEnergyTable.__call__

    def counted(self, lams):
        calls.append(self.thetas.size)
        return evaluate(self, lams)

    monkeypatch.setattr(ldp_module._FreeEnergyTable, "__call__", counted)
    rng = np.random.default_rng(400)
    thetas, xs = rng.uniform(0.0, 2.0, 400), rng.uniform(0.3, 0.95, 400)
    rates = _legendre(thetas, xs, ind_g)[0]
    assert len(calls) <= 3
    # closed form: the Bernoulli(1/(1+theta)) relative entropy of x
    q = 1.0 / (1.0 + thetas)
    expected = xs * np.log(xs / q) + (1 - xs) * np.log((1 - xs) / (1 - q))
    assert rates == pytest.approx(expected, abs=1e-12)


def test_legendre_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(ldp_module, "_LEGENDRE_ITERATION_CAP", 1)
    with pytest.raises(NumericError):
        _legendre(np.array([1.0, 0.5]), np.array([0.4, 0.7]), make_capped_count())


def test_path_rate_linear_is_exactly_zero(bounds):
    assert path_rate(MonotoneProfile.linear(bounds, 256)) == 0.0


def test_path_rate_quadratic_profile(bounds):
    m = 10**4
    t = np.arange(m + 1) / m
    prof = MonotoneProfile(values=bounds.theta_left + bounds.width * t**2, bounds=bounds)
    assert path_rate(prof) == pytest.approx(1 - math.log(2), abs=1e-3)


def test_path_rate_nonnegative_from_left_reservoir(bounds):
    # when the path starts at theta_left the mean slope equals the full
    # width, so the log-slope average is <= 0 and J >= 0
    rng = np.random.default_rng(13)
    for _ in range(25):
        incs = rng.exponential(size=50)
        incs = incs / incs.sum() * bounds.width
        vals = np.concatenate(([bounds.theta_left], bounds.theta_left + np.cumsum(incs)))
        vals[-1] = bounds.theta_right
        assert path_rate(MonotoneProfile(values=vals, bounds=bounds)) >= -1e-12


def test_path_rate_flat_step_is_infinite(bounds):
    vals = np.concatenate(([0.0, 0.0], np.linspace(0.0, 2.0, 9)[1:]))
    assert path_rate(MonotoneProfile(values=vals, bounds=bounds)) == math.inf


def test_monotone_profile_validation(bounds):
    with pytest.raises(ValueError):
        MonotoneProfile(values=np.array([0.0, 1.5, 1.0, 2.0]), bounds=bounds)
    with pytest.raises(ValueError):
        MonotoneProfile(values=np.array([0.0, 1.0]), bounds=BoundaryParams(1.0, 1.0))
    with pytest.raises(ValueError):
        MonotoneProfile(values=np.array([0.0, 1.0, 1.9]), bounds=bounds)


def test_inhom_free_energy_zero_weight(bounds, ind_g):
    prof = MonotoneProfile.linear(bounds, 128)
    assert abs(inhom_free_energy(prof, const_phi(0.0), ind_g)) < 1e-10


def test_inhom_free_energy_constant_profile_reduction(ind_g):
    b = BoundaryParams(0.5, 1.5)
    # constant-value profile built directly on the grid (endpoint pinned)
    vals = np.full(129, b.theta_right)
    prof = MonotoneProfile(values=vals, bounds=b)
    lam = 0.4
    assert inhom_free_energy(prof, const_phi(lam), ind_g) == pytest.approx(
        free_energy_at(b.theta_right, lam, indicator_vacuum_function()), abs=1e-9
    )


def test_inhom_free_energy_linear_profile_closed_form(bounds, ind_g):
    lam = 0.6
    prof = MonotoneProfile.linear(bounds, 2048)
    # high-resolution quadrature of the two-term closed-form integrand
    x, w = np.polynomial.legendre.leggauss(200)
    x = (x + 1) / 2
    w = w / 2
    rho = bounds.density(x)
    oracle = float(np.sum(w * np.log((math.exp(lam) + rho) / (1 + rho))))
    assert inhom_free_energy(prof, const_phi(lam), ind_g) == pytest.approx(
        oracle, abs=1e-6
    )


def test_annealed_zero_weight_returns_linear(bounds, ind_g):
    solver = SolverConfig(multistart=2, seed=3, grid_size=256, max_iterations=500)
    res = annealed_free_energy(const_phi(0.0), ind_g, bounds, solver)
    assert isinstance(res, VariationalResult)
    assert abs(res.value) < 1e-12
    assert np.allclose(res.profile.values, MonotoneProfile.linear(bounds, 256).values, atol=1e-7)


def test_annealed_never_below_linear_benchmark(bounds, ind_g):
    solver = SolverConfig(multistart=3, seed=5, grid_size=100, max_iterations=800)
    phi = TestFunction(lambda x: 0.3 * x, name="ramp")
    res = annealed_free_energy(phi, ind_g, bounds, solver)
    linear = MonotoneProfile.linear(bounds, 100)
    benchmark = inhom_free_energy(linear, phi, ind_g) - path_rate(linear)
    assert res.value >= benchmark - 1e-8
    assert res.value >= max(res.start_values) - 1e-12


def test_annealed_small_tilt_matches_oracles(bounds, ind_g):
    # quantile reparametrization collapses the variational problem in the
    # single-site case: sup = log( (1/w) integral of exp(F(theta)) dtheta ),
    # and the finite-chain expectation is exactly N-independent, so the
    # Monte Carlo estimate is unbiased for the limit
    lam = 0.2
    solver = SolverConfig(multistart=3, seed=9, max_iterations=3000)
    res = annealed_free_energy(const_phi(lam), ind_g, bounds, solver)
    closed = math.log(
        (bounds.width + (math.exp(lam) - 1) * math.log((1 + bounds.theta_right) / (1 + bounds.theta_left)))
        / bounds.width
    )
    assert res.value == pytest.approx(closed, abs=5e-7)
    est, se = annealed_mc_estimate(
        indicator_vacuum_function(), lam, 200, bounds, 10**5, RandomSeed(21, 0)
    )
    assert abs(res.value - est) <= 5 * se


def test_annealed_rejects_equilibrium():
    with pytest.raises(ValueError):
        annealed_free_energy(
            const_phi(0.1),
            indicator_vacuum_function(),
            BoundaryParams(1.0, 1.0),
            SolverConfig(),
        )


def test_profile_rate_vanishes_at_lln_profile(bounds, ind_g):

    def mu(x):
        return 1.0 / (1.0 + bounds.density(x))

    solver = SolverConfig(multistart=2, seed=4, max_iterations=200)
    res = profile_rate(TestFunction(mu, name="lln"), ind_g, bounds, solver)
    assert 0.0 <= res.value <= 1e-4
    assert np.max(np.abs(res.profile.values - MonotoneProfile.linear(bounds, solver.grid_size).values)) < 0.05


def test_profile_rate_near_left_reservoir_zero_is_finite(bounds, ind_g):
    # theta_left = 0 puts profile nodes at theta ~ 1e-9 with lambda ~ -16,
    # where a theta-stencil reaching below zero turned F into NaN
    def mu(x):
        return 1.0 / (1.0 + bounds.density(x)) - 0.05

    solver = SolverConfig(grid_size=20, multistart=2, seed=0, max_iterations=300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = profile_rate(TestFunction(mu, name="lln-shifted"), ind_g, bounds, solver)
    assert math.isfinite(res.value)
    assert all(math.isfinite(v) for v in res.start_values)


def test_profile_rate_perturbed_target_strictly_positive():
    # keep the shifted target inside the value range of g
    b = BoundaryParams(1.0, 3.0)
    g = indicator_vacuum_function()
    solver = SolverConfig(multistart=2, seed=8, grid_size=60, max_iterations=400)

    def mu(x):
        return 1.0 / (1.0 + b.density(x)) + 0.1

    mu_tf = TestFunction(mu, name="shifted")
    res = profile_rate(mu_tf, g, b, solver)
    assert res.value > 1e-3

    # weak oracle: dense grid over the two-parameter power-profile family
    m = solver.grid_size
    from geomix.ldp import _cell_nodes

    x, w, _ = _cell_nodes(m)
    mux = mu_tf(x)
    grid_best = math.inf
    for u0 in np.linspace(b.theta_left, b.theta_right - 0.05, 10):
        for a in np.exp(np.linspace(-0.8, 0.8, 9)):
            t = np.arange(m + 1) / m
            vals = u0 + (b.theta_right - u0) * t**a
            prof = MonotoneProfile(values=vals, bounds=b)
            thetas = np.interp(x, t, vals)
            rates = _legendre(thetas, mux, g)[0]
            obj = float(w @ rates) + path_rate(prof)
            grid_best = min(grid_best, obj)
    assert res.value <= grid_best + 1e-6


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(grid_size=1)
    with pytest.raises(ValueError):
        SolverConfig(multistart=0)
