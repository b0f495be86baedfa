import math
import tracemalloc

import numpy as np
import pytest

from conftest import assert_within_se
from geomix.asymptotics import lln_limit
from geomix.core import (
    LocalFunction,
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
from oracles import horner_polynomial

# a k = 3 g of four monomials with integer coefficients whose Horner
# coefficients below the top degree are polynomials, not constants or bare
# sites, so that the evaluator adds them by pieces
NESTED_K3 = {(1, 0, 2): 3.0, (0, 0, 0): -2.0, (2, 1, 1): 1.0, (0, 3, 0): -5.0}


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


def test_polynomial_test_functions_carry_their_coefficients():
    assert phi_one().coefficients == (1.0,) and phi_one().constant == 1.0
    assert phi_identity().coefficients == (0.0, 1.0) and phi_identity().constant is None
    assert phi_polynomial([0.5, 1.0]).coefficients == (0.5, 1.0)
    assert phi_polynomial([0.5, 1.0]).constant is None
    # degree 0 whatever trailing zeros the list carries
    assert phi_polynomial([0.5, 0.0, 0.0]).constant == 0.5
    # an evaluator alone declares no polynomial
    assert TestFunction(lambda x: np.full_like(x, 0.5)).constant is None
    with pytest.raises(ValueError):
        phi_polynomial([])


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


def _per_monomial(monos, *window):
    """The polynomial one monomial at a time: a float cast, a power and a
    product per site and monomial, in the order coef * eta_1^e_1 * ... *
    eta_k^e_k, monomials summed in order."""
    acc = None
    for exps, coef in monos.items():
        term = coef * np.ones_like(np.asarray(window[0], dtype=float))
        for j, e in enumerate(exps):
            if e:
                term = term * np.asarray(window[j], dtype=float) ** e
        acc = term if acc is None else acc + term
    if acc is None:
        acc = np.zeros_like(np.asarray(window[0], dtype=float))
    return acc


def _python_ints(monos, *window):
    """An integer-coefficient polynomial at integer windows in Python's
    integers, rounded once to a double."""
    points = zip(*(w.ravel().tolist() for w in np.broadcast_arrays(*window)))
    values = [
        sum(int(c) * math.prod(int(x) ** e for x, e in zip(p, exps)) for exps, c in monos.items())
        for p in points
    ]
    return np.array(values, dtype=float).reshape(np.shape(window[0]))


@pytest.mark.parametrize(
    "k, terms",
    [
        (1, {(1,): 1.0}),
        (1, {(3,): -0.7, (0,): 2.5, (1,): 1.3}),
        (2, {(1, 1): 1.0, (2, 1): 1.0}),
        # zero exponents, a constant, a repeated power and a power of a
        # site that another monomial takes to a different exponent
        (2, {(2, 0): -1.25, (0, 0): 0.3, (2, 2): 0.1, (1, 2): -3.0, (0, 2): 1.7}),
        (3, {(1, 0, 2): 0.6, (0, 0, 0): -2.0, (2, 1, 1): 1.0 / 3.0, (0, 3, 0): -0.45}),
        (3, {(0, 0, 0): 4.0}),
        (2, {}),
        (3, NESTED_K3),
    ],
)
@pytest.mark.parametrize("phi", [phi_one(), phi_identity()], ids=["one", "x"])
def test_polynomial_evaluator_matches_the_per_monomial_arithmetic(k, terms, phi):
    # integer counts as int64 and as float64, and non-integer values that
    # make a reordered product or sum round differently.  The evaluator
    # takes Horner's rule, so it matches Horner's rule written out of place
    # bit for bit, and the per-monomial arithmetic to rounding, exactly where
    # both are exact: an integer-coefficient g on integer counts gives the
    # value in Python's integers
    g = polynomial_function(k, terms)
    integer = all(float(c).is_integer() for c in terms.values())
    rng = np.random.default_rng(14)
    counts = rng.geometric(0.3, size=(5, 301)) - 1
    for occ in (counts, counts.astype(float), rng.random((5, 301)) * 4.0):
        windows = [occ[:, j : occ.shape[1] - k + 1 + j] for j in range(k)]
        got = g(*windows)
        want = horner_polynomial(g.monomials, *windows)
        assert np.array_equal(got, want)
        magnitude = _per_monomial(
            {e: abs(c) for e, c in g.monomials.items()}, *(np.abs(w) for w in windows)
        )
        per_monomial = _per_monomial(g.monomials, *windows)
        assert np.all(np.abs(got - per_monomial) <= 1e-14 * magnitude)
        if integer and np.array_equal(occ, np.round(occ)):
            assert np.array_equal(got, per_monomial)
            assert np.array_equal(got, _python_ints(g.monomials, *windows))
        n = occ.shape[1]
        field = (want * phi(np.arange(n - k + 1) / (n + 1))).sum(axis=-1) / n
        assert np.array_equal(field_values_batch(g, phi, occ), field)
        assert np.array_equal(field_values_batch(g, phi, occ[2]), field[2])
    # scalar windows give the scalar value
    point = range(2, 2 + k)
    assert float(g(*point)) == float(horner_polynomial(g.monomials, *point))


@pytest.mark.parametrize(
    "k, terms", [(2, {(1, 1): 1.0, (2, 1): 1.0}), (3, NESTED_K3)], ids=["exact-clt", "nested-k3"]
)
def test_polynomial_evaluator_holds_one_block(k, terms):
    # a row block as the field runs draw it at N = 2*10^4: three rows.  The
    # value is the one block-sized array the evaluator allocates; a nested
    # coefficient's scratch and buffers are pieces (0.14 of this block
    # measured for the k = 3 g).  The per-monomial evaluator held 3 and 6
    # blocks
    g = polynomial_function(k, terms)
    occ = (np.random.default_rng(5).geometric(0.5, size=(3, 20000)) - 1).astype(float)
    windows = [occ[:, j : occ.shape[1] - k + 1 + j] for j in range(k)]
    g(*windows)
    tracemalloc.start()
    try:
        g(*windows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * occ.nbytes


def test_field_weights_do_not_write_the_evaluator_input():
    # an evaluator that returns its own (float) window: the weights must
    # not be applied in place on the caller's configuration
    occ = np.arange(1.0, 9.0)
    keep = occ.copy()
    g = LocalFunction(k=1, evaluator=lambda n: n)
    assert field_values_batch(g, phi_identity(), occ) == pytest.approx(
        float(np.sum(keep * np.arange(8) / 9) / 8), rel=1e-15
    )
    assert np.array_equal(occ, keep)


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
    # on the same seed ladder, with h(rho) = rho^2 for the pair product.
    # Both sums run over the centres of the full blocks: leaving the 2 * half
    # edge sites out of the replacement alone biases it by about
    # eps * rho(1)^2 = 0.04 at every N
    g = pair_product_function()
    phi = phi_one()
    eps = 1e-2

    def discrepancy(n, stream):
        rng = RandomSeed(4242, stream).generator()
        thetas = profile_batch(n, bounds, rng, 1)
        occ = configuration_batch(thetas, rng)[0]
        half = int(np.floor(eps * n))
        # sites half+1..n-half+1 hold the pair windows at every block centre
        inner = occ[half : n - half + 1]
        x_val = field_values_batch(g, phi, inner) * inner.size / n
        sites, avgs = _block_means(occ, half)
        weights = phi((sites - 1) / (n + 1))
        replaced = float(np.sum(avgs**2 * weights) / n)
        return abs(x_val - replaced)

    small = np.mean([discrepancy(10**3, s) for s in range(3)])
    large = np.mean([discrepancy(10**5, s) for s in range(3)])
    assert large < small
