"""Closed-form moments of uniform order statistics and geometric marginals.

The workhorse is the product-moment identity for the order statistics
U_{1:N} <= ... <= U_{N:N} of N standard uniforms: with natural exponents
alpha_1, ..., alpha_N and partial sums S_j = alpha_1 + ... + alpha_j,

    E[ prod_j U_{j:N}^{alpha_j} ] = N! * prod_{j=1}^{N} 1 / (S_j + j).

Moments of the rescaled parameters and window product moments reduce to
this by binomial expansion; geometric raw moments are polynomials in the
mean, with Stirling-number coefficients.
Evaluation is done in log space to stay finite for N up to 10^6; an
exact-rational path exists for N <= 64 and is used in unit tests.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from geomix.core import BoundaryParams

__all__ = [
    "uniform_orderstat_product_moment",
    "uniform_orderstat_product_moment_exact",
    "uniform_orderstat_moment",
    "theta_marginals",
    "theta_window_moments",
    "theta_product_moment",
    "stirling2",
    "geometric_raw_moment_coefficients",
]

_MAX_STIRLING_ORDER = 20
_WINDOW_BUDGET = 2**16  # (start, site) cells per block of window starts; each
# start's row is summed on its own, so any value gives the same bits


def _check_exponents(exps: Sequence[int]) -> np.ndarray:
    arr = np.asarray(exps)
    if arr.ndim != 1:
        raise ValueError("exponent vector must be 1-d")
    if arr.size and (np.any(arr < 0) or not np.issubdtype(arr.dtype, np.integer)):
        raise ValueError("exponents must be natural numbers")
    return arr.astype(np.int64)


def uniform_orderstat_product_moment(n: int, exps: Sequence[int]) -> float:
    """E[ prod_j U_{j:N}^{alpha_j} ] for the order statistics of n uniforms.

    ``exps`` must have length n.  Computed as
    exp(lgamma(n+1) - sum_j log(S_j + j)) with S_j the exponent partial
    sums, which telescopes the Gamma-ratio form of the identity.
    """
    alphas = _check_exponents(exps)
    if alphas.size != n:
        raise ValueError(f"exponent vector has length {alphas.size}, expected {n}")
    partial = np.cumsum(alphas, dtype=np.int64)
    j = np.arange(1, n + 1, dtype=np.int64)
    return math.exp(math.lgamma(n + 1) - float(np.sum(np.log(partial + j))))


def uniform_orderstat_product_moment_exact(n: int, exps: Sequence[int]) -> Fraction:
    """Exact-rational evaluation of the product moment; n <= 64."""
    if n > 64:
        raise ValueError("exact-rational path is limited to n <= 64")
    alphas = _check_exponents(exps)
    if alphas.size != n:
        raise ValueError(f"exponent vector has length {alphas.size}, expected {n}")
    value = Fraction(math.factorial(n))
    s = 0
    for j, a in enumerate(alphas, start=1):
        s += int(a)
        value /= s + j
    return value


def _window_log_moment(n: int, starts: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """log E[ U_{s:N}^{e_1} ... U_{s+k-1:N}^{e_k} ] for every start s in ``starts``.

    Only the k sites of the window carry exponents, so the partial-sum
    product collapses: sites before the window contribute lgamma(s),
    sites after it contribute lgamma(L+n+1) - lgamma(L+s+k) with L the
    total exponent.  Cost is O(k) per start, independent of n, and the
    starts run in blocks of about ``_WINDOW_BUDGET`` cells, so memory does
    not grow with the number of starts times k; the caller keeps every
    window inside 1..n.
    """
    k = exps.size
    partial = np.cumsum(exps, dtype=np.int64)
    total = int(partial[-1])
    inside = np.empty(starts.size)
    rows = max(1, _WINDOW_BUDGET // k)
    for lo in range(0, starts.size, rows):
        block = starts[lo : lo + rows, None] + np.arange(k)
        block += partial
        inside[lo : lo + rows] = np.sum(np.log(block), axis=1)
    before = np.array([math.lgamma(s) for s in starts.tolist()])
    ends = np.array([math.lgamma(s + total + k) for s in starts.tolist()])
    return math.lgamma(n + 1) - (before + inside + (math.lgamma(total + n + 1) - ends))


def uniform_orderstat_moment(r: int, n: int, power: int) -> float:
    """E[U_{r:N}^k]: the single-index moment r(r+1)...(r+k-1)/((N+1)...(N+k))."""
    if not 1 <= r <= n:
        raise ValueError(f"index r={r} out of range 1..{n}")
    if power < 0:
        raise ValueError("power must be a natural number")
    if power == 0:
        return 1.0
    return math.exp(_window_log_moment(n, np.array([r]), np.array([power]))[0])


def theta_marginals(n: int, bounds: BoundaryParams) -> tuple[np.ndarray, np.ndarray]:
    """E[Theta_i] and Var[Theta_i] for i = 1..n, from the rescaled
    Beta(i, n+1-i) law: theta_left + width * i/(n+1) and
    i(n+1-i) width^2 / ((n+1)^2 (n+2))."""
    i = np.arange(1, n + 1)
    mean = bounds.theta_left + bounds.width * i / (n + 1)
    var = i * (n + 1 - i) * bounds.width**2 / ((n + 1) ** 2 * (n + 2))
    return mean, var


def theta_window_moments(
    starts, poly: Sequence[tuple[float, Sequence[int]]], n: int, bounds: BoundaryParams
) -> np.ndarray:
    """E[ sum_t c_t prod_j Theta_{s+j-1}^{e_tj} ] at every window start s.

    ``poly`` is a window's Theta-polynomial as (c_t, exponent vector)
    pairs.  Each monomial is expanded binomially in
    Theta = theta_left + width * U into uniform exponent vectors, and each
    vector is evaluated at all starts at once in log space.
    """
    starts = np.atleast_1d(np.asarray(starts, dtype=np.int64))
    lo, width = bounds.theta_left, bounds.width
    out = np.zeros(starts.size)
    for weight, exps in poly:
        powers = _check_exponents(exps).tolist()
        if starts.size and (starts.min() < 1 or starts.max() + len(powers) - 1 > n):
            raise ValueError(f"windows of {len(powers)} sites out of range for n={n}")
        moment = np.zeros(starts.size)
        for ls in itertools.product(*(range(p + 1) for p in powers)):
            coef = lo ** (sum(powers) - sum(ls)) * width ** sum(ls)
            if coef == 0.0:
                continue
            for p, l in zip(powers, ls):
                coef *= math.comb(p, l)
            active = np.flatnonzero(ls)
            if active.size == 0:
                moment += coef
                continue
            # zero exponents at the window edges shrink the window
            a, b = active[0], active[-1] + 1
            moment += coef * np.exp(_window_log_moment(n, starts + a, np.array(ls[a:b])))
        out += weight * moment
    return out


def theta_product_moment(
    start: int, exps: Sequence[int], n: int, bounds: BoundaryParams
) -> float:
    """E[Theta_{start}^{e_1} * ... * Theta_{start+k-1}^{e_k}] exactly.

    The one-start case of :func:`theta_window_moments`; the window must
    satisfy start + k - 1 <= n.
    """
    return float(theta_window_moments([start], [(1.0, exps)], n, bounds)[0])


@lru_cache(maxsize=None)
def _stirling_row(p: int) -> tuple[int, ...]:
    if p == 0:
        return (1,)
    prev = _stirling_row(p - 1)
    row = [0] * (p + 1)
    for j in range(1, p + 1):
        below = prev[j] if j < len(prev) else 0
        row[j] = j * below + prev[j - 1]
    return tuple(row)


def stirling2(p: int, j: int) -> int:
    """Stirling number of the second kind S(p, j); p <= 20."""
    if p < 0 or j < 0:
        raise ValueError("indices must be natural numbers")
    if p > _MAX_STIRLING_ORDER:
        raise ValueError(f"moment order {p} exceeds the supported cap {_MAX_STIRLING_ORDER}")
    if j > p:
        return 0
    return _stirling_row(p)[j]


def geometric_raw_moment_coefficients(p: int) -> np.ndarray:
    """Coefficients c_j with E[eta^p | theta] = sum_j c_j theta^j under the
    geometric law with mean theta.

    Uses eta^p = sum_j S(p,j) * eta(eta-1)...(eta-j+1) together with the
    factorial-moment identity E[falling(eta, j)] = j! * theta^j.
    """
    if p < 0:
        raise ValueError("p must be a natural number")
    return np.array(
        [stirling2(p, j) * math.factorial(j) for j in range(p + 1)], dtype=float
    )
