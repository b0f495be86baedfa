import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomix.asymptotics import _weight_tables
from geomix.core import (
    BoundaryParams,
    LocalFunction,
    NumericError,
    RandomSeed,
    indicator_vacuum_function,
)
from geomix.fields import TestFunction, phi_one, phi_polynomial
import geomix.ldp as ldp_module
from geomix.ldp import (
    MonotoneProfile,
    SolverConfig,
    VariationalResult,
    annealed_free_energy,
    free_energy,
    inhom_free_energy,
    path_rate,
    profile_rate,
    rate_function,
    rate_function_batch,
    _legendre,
)
from oracles import (
    annealed_mc_estimate,
    free_energy_finite_chain,
    free_energy_transfer,
    geometric_tables,
)


def make_pair_vacuum():
    def evaluator(a, b):
        return ((np.asarray(a) == 0) & (np.asarray(b) == 0)).astype(float)

    return LocalFunction(k=2, evaluator=evaluator, saturation=1, name="pair-vacuum")


def make_capped_count():
    # four values 0, 1/3, 2/3, 1: min(n, 3) / 3
    def evaluator(n):
        return np.minimum(np.asarray(n, dtype=float), 3.0) / 3.0

    return LocalFunction(k=1, evaluator=evaluator, saturation=3, name="capped-count")


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
        saturation=0,
        name="const",
    )
    for lam in (-2.0, 0.4, 3.0):
        assert free_energy_at(1.2, lam, g) == pytest.approx(0.7 * lam, abs=1e-10)


def test_free_energy_requires_bounded_g():
    from geomix.core import density_function

    for evaluate in (free_energy, rate_function):
        with pytest.raises(ValueError, match="saturation"):
            evaluate(1.0, 0.5, density_function())


@pytest.mark.parametrize(
    "evaluator, k",
    [
        (lambda n: np.asarray(n) % 2.0, 1),
        # saturates on the first axis only
        (lambda a, b: (np.asarray(a) == 0) * (np.asarray(b) % 2.0), 2),
    ],
    ids=["parity", "second-axis"],
)
def test_wrong_saturation_is_refused(evaluator, k):
    g = LocalFunction(k=k, evaluator=evaluator, saturation=1, name="unsaturated")
    with pytest.raises(ValueError, match="does not saturate"):
        free_energy(1.0, 0.5, g)
    with pytest.raises(ValueError, match="does not saturate"):
        rate_function(1.0, 0.5, g)


@pytest.mark.parametrize("c", [-1, 1.5, True, "2"])
def test_saturation_must_be_a_non_negative_integer(c):
    with pytest.raises(ValueError, match="saturation"):
        LocalFunction(k=1, evaluator=lambda n: np.minimum(n, 1), saturation=c)


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
    # dF/dlambda = e^lam/(e^lam + theta), dF/dtheta = 1/(e^lam + theta) - 1/(1 + theta);
    # the tail state n >= 1 carries mass p exactly, at large theta too
    thetas = np.array([0.0, 0.0, 0.0, 0.5, 1.0, 2.0, 1.0, 50.0, 50.0, 50.0, 1e6, 1e6, 1e6])
    lams = np.array([-1.5, 0.0, 2.0, 0.3, 0.7, -1.1, -6.0, -6.0, 0.0, 6.0, -1.0, 0.5, 6.0])
    f, f_lam, f_theta = free_energy(thetas, lams, ind_g)
    e = np.exp(lams)
    assert f == pytest.approx(np.log((e + thetas) / (1 + thetas)), abs=1e-12)
    assert f_lam == pytest.approx(e / (e + thetas), abs=1e-12)
    assert f_theta == pytest.approx(1 / (e + thetas) - 1 / (1 + thetas), rel=1e-12, abs=1e-12)
    # at theta = 1e9 the state masses 1/(1+theta) must not come from 1 - p, and
    # the closed forms are written without cancellation: both derivatives are
    # held to relative rounding
    thetas, lams = np.full(3, 1e9), np.array([-1.0, 0.5, 6.0])
    f, f_lam, f_theta = free_energy(thetas, lams, ind_g)
    e = np.exp(lams)
    assert f == pytest.approx(np.log1p(np.expm1(lams) / (1 + thetas)), abs=1e-12)
    assert f_lam == pytest.approx(e / (e + thetas), rel=1e-12, abs=0)
    d_theta = -np.expm1(lams) / ((e + thetas) * (1 + thetas))
    assert f_theta == pytest.approx(d_theta, rel=1e-12, abs=0)


def test_transfer_derivatives_match_central_differences():
    g = make_pair_vacuum()
    thetas = np.array([0.4, 1.0, 1.8])
    lams = np.array([-0.9, 0.3, 1.2])
    f, f_lam, f_theta = free_energy(thetas, lams, g)
    h = 1e-5
    for i, (theta, lam) in enumerate(zip(thetas, lams)):
        assert f[i] == pytest.approx(free_energy_transfer(theta, lam, g), abs=1e-12)
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
    for theta in (0.5, 1.0, 2.0, 50.0):
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


@pytest.mark.parametrize(
    "g, empty_value",
    [(indicator_vacuum_function(), 1.0), (make_pair_vacuum(), 1.0), (make_capped_count(), 0.0)],
    ids=["indicator-vacuum", "pair-vacuum", "capped-count"],
)
def test_rate_at_theta_zero_is_the_point_mass(g, empty_value, monkeypatch):
    # at theta = 0 every site is empty: the rate is 0 at g(0, ..., 0) and
    # +inf everywhere else, inside the value range of g too, with no solve
    calls = []
    evaluate = ldp_module._FreeEnergyTable.__call__

    def counted(self, lams, **kwargs):
        calls.append(self.thetas.size)
        return evaluate(self, lams, **kwargs)

    monkeypatch.setattr(ldp_module._FreeEnergyTable, "__call__", counted)
    xs = np.array([0.0, 0.3, 0.5, 0.99, 1.0])
    rates = rate_function_batch(0.0, xs, g)
    assert len(calls) == 1
    assert np.array_equal(rates, np.where(xs == empty_value, 0.0, math.inf))
    assert rate_function(0.0, 0.3, g) == math.inf
    assert rate_function(0.0, empty_value, g) == 0.0
    # a node at theta > 0 in the same batch keeps its own solve
    mixed = _legendre(np.array([0.0, 1.0]), np.array([0.3, 0.3]), g)[0]
    assert mixed[0] == math.inf
    assert mixed[1] == rate_function(1.0, 0.3, g)


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
def test_rate_over_an_x_grid_is_the_per_x_loop(make_g):
    # the 39-point x grid of the benchmark's rate op, the range edges and
    # points outside it: one Legendre solve over the grid is bitwise the
    # per-x loop
    g = make_g()
    xs = [round(0.025 * i, 3) for i in range(1, 40)] + [0.0, 1.0, -0.1, 1.1]
    for theta in (0.0, 0.3, 1.0, 5.0):
        loop = np.array([rate_function(theta, x, g) for x in xs])
        assert np.array_equal(rate_function_batch(theta, xs, g), loop)


@pytest.mark.parametrize("make_g", [indicator_vacuum_function, make_capped_count])
def test_level_masses_match_the_weight_table(make_g):
    # the closed-form masses of the saturated states 0..c against nu and
    # d nu/d theta summed state by state, the states n >= c folded into c,
    # at theta = 0, a large theta and random ones; at theta = 50 the states
    # n > 4000 hold (50/51)**4001 < 1e-34
    rng = np.random.default_rng(17)
    thetas = np.concatenate(([0.0, 50.0], rng.uniform(0.0, 2.0, 200)))
    c = make_g().saturation
    table_w, table_dw = _weight_tables(thetas, c)
    cutoff = 4000
    w, dw = geometric_tables(thetas, cutoff)
    folded = np.minimum(np.arange(cutoff + 1), c)
    mass = np.stack([w[:, folded == n].sum(axis=1) for n in range(c + 1)], axis=1)
    d_mass = np.stack([dw[:, folded == n].sum(axis=1) for n in range(c + 1)], axis=1)
    np.testing.assert_allclose(table_w, mass, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(table_dw, d_mass, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize(
    "g", [indicator_vacuum_function(), make_pair_vacuum()], ids=lambda g: g.name
)
def test_large_batch_is_bitwise_its_halves(g):
    # 300 000 nodes in one kernel stack, bit-identical to two batches of 150 000
    n = 300_000
    thetas = np.linspace(0.05, 2.0, n)
    lams = np.linspace(-1.0, 1.0, n)
    whole = free_energy(thetas, lams, g)
    halves = [free_energy(thetas[s], lams[s], g) for s in (slice(0, n // 2), slice(n // 2, n))]
    for w, a, b in zip(whole, *halves):
        assert np.array_equal(w, np.concatenate([a, b]))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([indicator_vacuum_function(), make_capped_count(), make_pair_vacuum()]),
    st.lists(
        st.tuples(st.floats(0.0, 50.0), st.floats(-5.0, 5.0)), min_size=1, max_size=40
    ),
    st.data(),
)
def test_node_values_do_not_depend_on_the_subset_or_order(g, nodes, data):
    # each node leaves the power iteration at its own stop, so its
    # (F, dF/dlambda, dF/dtheta) are bitwise the same in any batch
    thetas, lams = np.array(nodes).T
    whole = np.array(free_energy(thetas, lams, g))
    picked = data.draw(
        st.lists(st.integers(0, len(nodes) - 1), min_size=1, max_size=len(nodes), unique=True)
    )
    part = np.array(free_energy(thetas[picked], lams[picked], g))
    assert np.array_equal(part, whole[:, picked])


def test_kernel_stack_above_the_cell_budget_is_refused_before_allocating():
    # c = 5000 at 10^4 nodes asks for 5e7 cells per table, 400 MB each
    g = LocalFunction(k=1, evaluator=lambda n: np.minimum(n, 5000), saturation=5000, name="capped")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            free_energy(np.linspace(0.0, 2.0, 10_000), 0.5, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def bisection_legendre(thetas, xs, g, bracket, steps=200):
    """Oracle: bisect dF/dlambda = x over lambda in [-bracket, bracket]."""
    lo, hi = np.full(thetas.size, -bracket), np.full(thetas.size, bracket)
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
    # |g| <= 1, so exp(lambda * g) stays finite on [-600, 600]
    oracle_rates, oracle_lams = bisection_legendre(thetas, xs, g, bracket=600.0)
    assert np.all(np.isfinite(rates))
    assert rates == pytest.approx(oracle_rates, abs=1e-12)
    assert lams[2:] == pytest.approx(oracle_lams[2:], abs=1e-9)


def test_legendre_two_valued_g_takes_at_most_three_evaluations(ind_g, monkeypatch):
    calls = []
    evaluate = ldp_module._FreeEnergyTable.__call__

    def counted(self, lams, **kwargs):
        calls.append(self.thetas.size)
        return evaluate(self, lams, **kwargs)

    monkeypatch.setattr(ldp_module._FreeEnergyTable, "__call__", counted)
    rng = np.random.default_rng(400)
    thetas, xs = rng.uniform(0.0, 2.0, 400), rng.uniform(0.3, 0.95, 400)
    rates = _legendre(thetas, xs, ind_g)[0]
    assert len(calls) <= 3
    # closed form: the Bernoulli(1/(1+theta)) relative entropy of x
    q = 1.0 / (1.0 + thetas)
    expected = xs * np.log(xs / q) + (1 - xs) * np.log((1 - xs) / (1 - q))
    assert rates == pytest.approx(expected, abs=1e-12)


def test_free_energy_overflow_raises(ind_g):
    # exp(800) overflows a double; F = 800 - log(2) is not computed as inf,
    # and at k = 2 the overflow is the same error, not a warning
    for g in (ind_g, make_pair_vacuum()):
        with pytest.raises(NumericError, match="floating-point range"):
            free_energy(1.0, 800.0, g)


def test_legendre_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(ldp_module, "_LEGENDRE_ITERATION_CAP", 1)
    with pytest.raises(NumericError):
        _legendre(np.array([1.0, 0.5]), np.array([0.4, 0.7]), make_capped_count())


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["lambda-below", "lambda-above"])
def test_legendre_root_beyond_the_first_bracket(sign):
    # g = +-min(eta, 800): the first bracket ends at 600/800 = 0.75, and the
    # maximizer at theta = 1, x = +-0.3 is lambda = -+log(1.3/0.6) = -+0.773,
    # on the side where lambda * g <= 0 cannot overflow.  The saturation
    # lies below double precision at theta = 1, so the rate is the relative
    # entropy of the geometric law of mean 0.3 against that of mean 1
    def evaluator(n):
        return sign * np.minimum(np.asarray(n, dtype=float), 800.0)

    g = LocalFunction(k=1, evaluator=evaluator, saturation=800)
    x, theta = 0.3, 1.0
    exact = x * math.log(x / theta) - (1 + x) * math.log((1 + x) / (1 + theta))
    assert exact == 0.19882594962240974
    assert rate_function(theta, sign * x, g) == pytest.approx(exact, rel=1e-12)
    lam = _legendre(np.array([theta]), np.array([sign * x]), g)[1][0]
    assert lam == pytest.approx(-sign * math.log(1.3 / 0.6), rel=1e-12)


def test_legendre_on_a_g_far_from_zero():
    # g = 1 + 1e-3 min(eta, 1): at theta = 1, x = 1 + 1e-9 the maximizer is
    # lambda ~ -1.4e4, where exp(lambda * g) underflows for every state; the
    # rate is the relative entropy of Bernoulli(q) against Bernoulli(1/2),
    # q = (x - g_lo) / (g_hi - g_lo), both differences exact in doubles
    def evaluator(n):
        return 1.0 + 1e-3 * np.minimum(np.asarray(n, dtype=float), 1.0)

    g = LocalFunction(k=1, evaluator=evaluator, saturation=1)
    x, step = 1.0 + 1e-9, (1.0 + 1e-3) - 1.0
    q = (x - 1.0) / step
    exact = q * math.log(2.0 * q) + (1.0 - q) * math.log(2.0 * (1.0 - q))
    assert rate_function(1.0, x, g) == pytest.approx(exact, rel=1e-10)
    f, f_lam, _ = free_energy(1.0, -1e4, g)
    assert f[0] == pytest.approx(-1e4 + math.log((1.0 + math.exp(-1e4 * step)) / 2.0), rel=1e-14)
    assert f_lam[0] == pytest.approx(1.0 + step / (1.0 + math.exp(1e4 * step)), rel=1e-14)


def test_legendre_rate_does_not_cancel_the_tilt():
    # the g above, s = g_lo = 1: lam * x - F at lam ~ -1.4e4 cancels two
    # terms near -1.4e4 down to a rate near 0.69 (1.35e-12 relative error);
    # lam * (x - s) - (F - lam * s) keeps the rate to rounding
    def evaluator(n):
        return 1.0 + 1e-3 * np.minimum(np.asarray(n, dtype=float), 1.0)

    g = LocalFunction(k=1, evaluator=evaluator, saturation=1)
    x, step = 1.0 + 1e-9, (1.0 + 1e-3) - 1.0
    q = (x - 1.0) / step
    exact = q * math.log(2.0 * q) + (1.0 - q) * math.log(2.0 * (1.0 - q))
    assert rate_function(1.0, x, g) == pytest.approx(exact, rel=1e-15)


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


def _indicator_vacuum_quantiles(bounds, lam, m):
    """The optimal constant-strength profile of indicator-vacuum at x = j/m:
    theta with G(theta) = x * G(theta_right), for G the integral of
    exp F = 1 + (e^lam - 1)/(1 + theta) from theta_left, by bisection."""
    a = math.exp(lam) - 1.0

    def big_g(theta):
        return theta - bounds.theta_left + a * np.log1p((theta - bounds.theta_left) / (1 + bounds.theta_left))

    goal = np.arange(m + 1) / m * big_g(bounds.theta_right)
    lo, hi = np.full(m + 1, bounds.theta_left), np.full(m + 1, bounds.theta_right)
    for _ in range(200):
        mid = (lo + hi) / 2
        below = big_g(mid) < goal
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return (lo + hi) / 2


@pytest.mark.parametrize("lam", [-1.0, 0.0, 0.2, 1.5])
@pytest.mark.parametrize("edges", [(0.0, 2.0), (0.5, 10.0)], ids=["0-2", "0.5-10"])
def test_annealed_constant_strength_closed_form(edges, lam, ind_g):
    # indicator-vacuum: exp F = 1 + (e^lam - 1)/(1 + theta), so the Gibbs
    # value log of the mean of exp F over [theta_left, theta_right] is
    # log((w + (e^lam - 1) log((1 + theta_r)/(1 + theta_l))) / w)
    b = BoundaryParams(*edges)
    res = annealed_free_energy(phi_polynomial([lam]), ind_g, b, SolverConfig(grid_size=200))
    closed = math.log(
        (b.width + (math.exp(lam) - 1) * math.log((1 + b.theta_right) / (1 + b.theta_left)))
        / b.width
    )
    assert abs(res.value - closed) <= 1e-12 * abs(closed) + 1e-15
    # start_values holds the linear profile's value, which Jensen puts below
    linear = MonotoneProfile.linear(b, 200)
    assert res.start_values[0] == pytest.approx(
        inhom_free_energy(linear, phi_polynomial([lam]), ind_g), rel=1e-9, abs=1e-15
    )
    assert res.value >= res.start_values[0] - 1e-15
    if lam == 0.0:
        assert np.max(np.abs(res.profile.values - linear.values)) <= 1e-12
        return
    exact = _indicator_vacuum_quantiles(b, lam, 200)
    assert np.max(np.abs(res.profile.values - exact)) <= 1e-9 * b.width
    # the grid-200 solver's profile carries its own O(1/M^2) discretization
    # error, up to 1.06e-6 of the width here (a quarter of that at M = 400)
    newton = annealed_free_energy(const_phi(lam), ind_g, b, SolverConfig(multistart=2, grid_size=200))
    assert np.max(np.abs(res.profile.values - newton.profile.values)) <= 2e-6 * b.width


def test_constant_strength_takes_the_closed_form(bounds, ind_g, monkeypatch):
    def no_newton(*args):
        raise AssertionError("a constant strength ran the Newton solver")

    monkeypatch.setattr(ldp_module, "_newton", no_newton)
    solver = SolverConfig(grid_size=50)
    values = [
        annealed_free_energy(phi, ind_g, bounds, solver).value
        for phi in (phi_polynomial([1.0]), phi_polynomial([1.0, 0.0, 0.0]), phi_one())
    ]
    assert values[0] == values[1] == values[2]


@pytest.mark.parametrize(
    "phi",
    [TestFunction(lambda x: 0.3 * x, name="ramp"), phi_polynomial([0.0, 0.3]), const_phi(0.2)],
    ids=["ramp", "polynomial-ramp", "constant-without-coefficients"],
)
def test_strength_not_known_constant_runs_the_solver(bounds, ind_g, phi, monkeypatch):
    calls = []
    newton = ldp_module._newton

    def counted(*args):
        calls.append(1)
        return newton(*args)

    monkeypatch.setattr(ldp_module, "_newton", counted)
    solver = SolverConfig(multistart=2, grid_size=20, max_iterations=200)
    annealed_free_energy(phi, ind_g, bounds, solver)
    assert len(calls) == solver.multistart


# the benchmark's profile-rate target on [0, 2]: the indicator-vacuum lln
# profile 1/(1 + 2x) less 0.05, which has no closed form
LLN_SHIFTED = TestFunction(lambda x: 1.0 / (1.0 + 2.0 * x) - 0.05, name="lln-shifted")


@pytest.mark.parametrize(
    "problem, strength, edges, grid",
    [
        (annealed_free_energy, TestFunction(lambda x: 0.3 * x, name="ramp"), (0.0, 2.0), 200),
        (annealed_free_energy, TestFunction(lambda x: 1.0 - 2.0 * x, name="fall"), (0.5, 10.0), 200),
        (annealed_free_energy, TestFunction(lambda x: -1.0 + 2.0 * x**2, name="bowl"), (0.5, 10.0), 200),
        (profile_rate, LLN_SHIFTED, (0.0, 2.0), 50),
        (profile_rate, LLN_SHIFTED, (0.0, 2.0), 200),
    ],
    ids=["ramp", "fall", "bowl", "lln-shifted-50", "lln-shifted-200"],
)
def test_random_starts_reach_one_value(problem, strength, edges, grid, ind_g):
    # the linear start and three random ones
    b = BoundaryParams(*edges)
    res = problem(strength, ind_g, b, SolverConfig(multistart=4, seed=7, grid_size=grid))
    values = np.array(res.start_values)
    assert np.all(np.isfinite(values))
    assert np.ptp(values) <= 1e-12 * abs(res.value)


@pytest.mark.parametrize("grid, gap", [(200, 2.4e-8), (1000, 9.3e-10)])
def test_bare_constant_converges_to_the_closed_form(bounds, ind_g, grid, gap):
    # a constant evaluator without coefficients runs the solver; its
    # discrete optimum approaches the Gibbs value at second order in the grid
    lam = 0.2
    res = annealed_free_energy(const_phi(lam), ind_g, bounds, SolverConfig(multistart=2, grid_size=grid))
    closed = math.log((bounds.width + (math.exp(lam) - 1) * math.log(3.0)) / bounds.width)
    assert abs(res.value - closed) <= gap


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
    for steps in (0, -1):
        with pytest.raises(ValueError, match="max_iterations"):
            SolverConfig(max_iterations=steps)
