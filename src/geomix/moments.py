"""Closed-form moments of uniform order statistics and geometric marginals.

The workhorse is the product-moment identity for the order statistics
U_{1:N} <= ... <= U_{N:N} of N standard uniforms: with natural exponents
alpha_1, ..., alpha_N and partial sums S_j = alpha_1 + ... + alpha_j,

    E[ prod_j U_{j:N}^{alpha_j} ] = N! * prod_{j=1}^{N} 1 / (S_j + j).

Moments of the rescaled parameters and window product moments reduce to
this by binomial expansion; geometric raw moments are polynomials in the
mean, with Stirling-number coefficients.
A window's moment at start s needs only its k sites: the sites before it
and after it collapse into Gamma ratios.  As exact arithmetic, they make
the moment N!/(N+L)! times an integer polynomial of degree L in s, L the
window's total exponent (:func:`_window_polynomial`), from which
``harness.exact_field_mean`` sums the windows of a field in closed form.
:func:`theta_product_moment` evaluates one window's moment in log space,
which stays finite for N up to 10^6.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from geomix.core import BoundaryParams

__all__ = [
    "theta_marginals",
    "theta_product_moment",
    "stirling2",
    "geometric_raw_moment_coefficients",
]

_MAX_STIRLING_ORDER = 20


def _check_exponents(exps: Sequence[int]) -> np.ndarray:
    arr = np.asarray(exps)
    if arr.ndim != 1:
        raise ValueError("exponent vector must be 1-d")
    if arr.size and (np.any(arr < 0) or not np.issubdtype(arr.dtype, np.integer)):
        raise ValueError("exponents must be natural numbers")
    return arr.astype(np.int64)


def _window_log_moment(n: int, start: int, exps: np.ndarray) -> float:
    """log E[ U_{s:N}^{e_1} ... U_{s+k-1:N}^{e_k} ] at the start s = ``start``.

    Only the k sites of the window carry exponents, so the partial-sum
    product collapses: sites before the window contribute lgamma(s),
    sites after it contribute lgamma(L+n+1) - lgamma(L+s+k) with L the
    total exponent.  Cost is O(k), independent of n; the caller keeps the
    window inside 1..n.
    """
    k = exps.size
    partial = np.cumsum(exps, dtype=np.int64)
    total = int(partial[-1])
    inside = np.sum(np.log(start + np.arange(k) + partial))
    before = math.lgamma(start)
    ends = math.lgamma(start + total + k)
    return math.lgamma(n + 1) - (before + inside + (math.lgamma(total + n + 1) - ends))


def _window_polynomial(exps: Sequence[int]) -> list[int]:
    """Integer coefficients, lowest degree first, of
    Q_e(s) = prod_{t in T} (s + t) with T = {0, ..., k-1+L} minus
    {i-1+P_i : i = 1..k}, P_i the partial sums of the k exponents and L
    their total: by the product-moment identity,

        E[ U_{s:N}^{e_1} ... U_{s+k-1:N}^{e_k} ] = N!/(N+L)! * Q_e(s)

    for every start s and every N >= s + k - 1."""
    removed = {i + p for i, p in enumerate(itertools.accumulate(exps))}
    coefs = [1]
    for t in range(len(exps) + sum(exps)):
        if t not in removed:  # times (s + t)
            coefs = [t * a + b for a, b in zip(coefs + [0], [0] + coefs)]
    return coefs


def theta_marginals(n: int, bounds: BoundaryParams) -> tuple[np.ndarray, np.ndarray]:
    """E[Theta_i] and Var[Theta_i] for i = 1..n, from the rescaled
    Beta(i, n+1-i) law: theta_left + width * i/(n+1) and
    i(n+1-i) width^2 / ((n+1)^2 (n+2))."""
    i = np.arange(1, n + 1)
    mean = bounds.theta_left + bounds.width * i / (n + 1)
    var = i * (n + 1 - i) * bounds.width**2 / ((n + 1) ** 2 * (n + 2))
    return mean, var


def theta_product_moment(
    start: int, exps: Sequence[int], n: int, bounds: BoundaryParams
) -> float:
    """E[Theta_{start}^{e_1} * ... * Theta_{start+k-1}^{e_k}] in log space.

    The monomial is expanded binomially in Theta = theta_left + width * U
    into uniform exponent vectors, and each vector's moment is taken from
    :func:`_window_log_moment`; the window must satisfy
    start + k - 1 <= n.
    """
    powers = _check_exponents(exps).tolist()
    if start < 1 or start + len(powers) - 1 > n:
        raise ValueError(f"windows of {len(powers)} sites out of range for n={n}")
    lo, width = bounds.theta_left, bounds.width
    moment = 0.0
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
        moment += coef * np.exp(_window_log_moment(n, start + a, np.array(ls[a:b])))
    return float(moment)


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
