"""Deterministic objects of the limit theorems.

For a local function g and a homogeneous geometric product measure at
parameter rho, this module computes

* the conditional mean  h(rho) = E[g(eta_1, ..., eta_k)],
* its diagonal derivative h'(rho),
* the summed window covariance
  V(rho) = sum_{m=1}^{2k-1} cov(g(eta_k..eta_{2k-1}), g(eta_m..eta_{m+k-1})),

and from these the law-of-large-numbers limit integral, the two
central-limit variances (parameter-fluctuation part and white-noise part)
and the bridge covariance kernel.  All three integrals are 1-d composite
Gauss-Legendre rules on the same nodes: the bridge double integral of
(min(s,t) - s*t) a(s) a(t) equals the integral of (C(u) - C_bar)^2, with
C(u) the integral of a over [u, 1], which has no kink.  The rules are
exact when the integrands are polynomials of low degree on each panel.

For polynomial g, h, h' and V are exact polynomials in rho built from the
geometric raw moments E[eta^p]; only bounded, non-polynomial g is summed
over a truncated state grid, at the smallest cutoff whose certified tail
bounds for h, h' and V all fall below 1e-12.  The integrals double their
panels until two rules agree to 1e-9.  Neither accuracy is a setting.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P
from numpy.polynomial.legendre import leggauss, legint, legval, legvander

from geomix.core import BoundaryParams, LocalFunction
from geomix.fields import TestFunction
from geomix.moments import geometric_raw_moment_coefficients

__all__ = [
    "QuadratureError",
    "CltVariances",
    "geometric_tail_bound",
    "homogeneous_mean_batch",
    "homogeneous_mean_deriv_batch",
    "local_variance_batch",
    "lln_limit",
    "clt_variances",
    "bridge_covariance",
]

# composite Gauss-Legendre rules start at _FIRST_PANELS panels and double
# until two rules agree to _INTEGRAL_TOL; bounded g is truncated where the
# certified tails of h, h' and V fall below _TRUNCATION_TOL
_FIRST_PANELS = 16
_NODES_PER_PANEL = 6
_INTEGRAL_TOL = 1e-9
_TRUNCATION_TOL = 1e-12
_MAX_PANELS = 4096
_MAX_TRUNCATION = 200_000
# largest state table built in one piece; k = 3 at truncation 256 needs
# 257**3 ~ 1.7e7 cells, k = 4 at the same truncation would need 4.4e9
_CELL_BUDGET = 2**25


class QuadratureError(RuntimeError):
    """Raised when a truncation or panel-doubling tolerance is unattainable."""


def geometric_tail_bound(theta: float, m: int) -> float:
    """The geometric tail mass sum_{n > m} nu_theta(n) = (theta/(1+theta))**(m+1)."""
    if theta < 0:
        raise ValueError("theta must be >= 0")
    return (theta / (1.0 + theta)) ** (m + 1)


def _deriv_tail_bound(theta: float, m: int) -> float:
    """sum_{n > m} |d nu_theta(n)/d theta|.  For m >= theta the terms are
    positive and sum to (m+1) p**m (1-p)**2 with p = theta/(1+theta)."""
    if m < theta:
        return math.inf
    p = theta / (1.0 + theta)
    return (m + 1) * p**m * (1.0 - p) ** 2


def _truncation(g: LocalFunction, theta_max: float) -> int:
    """Smallest cutoff m = 16 * 2**j whose certified truncation errors of
    h, h' and V of a bounded g are all at most _TRUNCATION_TOL.

    States beyond m at any of k sites move h by at most bound * k * p**(m+1).
    For h' each slot adds the tail of d nu/d theta, and a whole row of
    d nu/d theta has total variation at most 2.  Each of the 2k-1
    covariances in V spans at most 2k-1 sites and squares g, and its
    product of means moves by at most 2k bound**2 p**(m+1).
    """
    if not g.bounded:
        raise ValueError("cannot certify truncation: g is neither bounded nor polynomial")
    k, bound = g.k, float(g.bound)
    m = 16
    while True:
        tail = geometric_tail_bound(theta_max, m)
        errs = (
            bound * k * tail,
            bound * k * (_deriv_tail_bound(theta_max, m) + 2 * (k - 1) * tail),
            bound**2 * (2 * k - 1) * (4 * k - 1) * tail,
        )
        if max(errs) <= _TRUNCATION_TOL:
            return m
        m *= 2
        if m > _MAX_TRUNCATION:
            raise QuadratureError(
                f"truncation tolerance {_TRUNCATION_TOL} unattainable below cutoff "
                f"{_MAX_TRUNCATION} for theta={theta_max}"
            )


@dataclass(frozen=True)
class CltVariances:
    """The two limit variances of a fluctuation field.

    ``bridge_variance`` is the contribution of the correlated random
    parameters (zero in equilibrium); ``white_noise_variance`` is the
    local-equilibrium product-measure contribution.
    """

    bridge_variance: float
    white_noise_variance: float

    def __post_init__(self) -> None:
        if self.bridge_variance < 0 or self.white_noise_variance < 0:
            raise ValueError("variances must be non-negative")

    @property
    def total(self) -> float:
        return self.bridge_variance + self.white_noise_variance


def _product_moment(exps) -> np.ndarray:
    """E[prod_j eta_j^{e_j}] under the homogeneous product, as coefficients in rho."""
    out = np.ones(1)
    for e in exps:
        if e:  # E[eta^0] = 1 adds nothing
            out = P.polymul(out, geometric_raw_moment_coefficients(int(e)))
    return out


def _poly_mean(g: LocalFunction) -> np.ndarray:
    """h of a polynomial g as coefficients in rho."""
    h = np.zeros(1)
    for exps, coef in g.monomials.items():
        h = P.polyadd(h, coef * _product_moment(exps))
    return h


def _poly_variance(g: LocalFunction) -> np.ndarray:
    """V of a polynomial g as coefficients in rho.  On 3k-2 sites the
    reference window covers k..2k-1 and window m covers m..m+k-1; a pair
    of monomials adds its exponents on the sites the two windows share."""
    k, h = g.k, _poly_mean(g)
    total = -(2 * k - 1) * P.polymul(h, h)
    for m in range(1, 2 * k):
        for (ref, c_ref), (mov, c_mov) in itertools.product(g.monomials.items(), repeat=2):
            exps = np.zeros(3 * k - 2, dtype=np.int64)
            exps[k - 1 : 2 * k - 1] += ref
            exps[m - 1 : m - 1 + k] += mov
            total = P.polyadd(total, c_ref * c_mov * _product_moment(exps))
    return total


def _geometric_weights(rhos: np.ndarray, m: int) -> np.ndarray:
    """(len(rhos), m+1) matrix of nu_rho(n); rho = 0 rows are (1, 0, ...)."""
    rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
    p = rhos / (1.0 + rhos)
    weights = p[:, None] ** np.arange(m + 1)[None, :]
    weights *= (1.0 - p)[:, None]
    return weights


def _weight_tables(thetas: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """nu_theta(n) and its theta-derivative on n = 0..m, one row per theta.

    d nu_theta(n)/d theta = (1-p)^2 (n p^{n-1} - (n+1) p^n), written as
    (1-p) (n nu(n-1) - (n+1) nu(n)) so that it stays finite at theta = 0.
    """
    w = _geometric_weights(thetas, m)
    p = thetas / (1.0 + thetas)
    n = np.arange(m + 1)
    prev = np.zeros_like(w)
    prev[:, 1:] = w[:, :-1]
    return w, (1.0 - p)[:, None] * (n * prev - (n + 1) * w)


def _check_cells(cells: int, what: str) -> None:
    """Reject a state table above the cell budget before allocating it."""
    if cells > _CELL_BUDGET:
        raise ValueError(f"{what} needs {cells:.3e} cells, above the budget {_CELL_BUDGET:.3e}")


def _g_grid(g: LocalFunction, m: int) -> np.ndarray:
    """g on the full state grid [0, m]^k."""
    _check_cells((m + 1) ** g.k, f"the k={g.k} state grid at truncation {m}")
    axes = np.meshgrid(*([np.arange(m + 1)] * g.k), indexing="ij")
    return np.asarray(g(*axes), dtype=float)


def _contract(grid: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
    """sum_n grid(n_1..n_k) * prod_j tables[j][r, n_j], one value per row r."""
    t = np.tensordot(grid, tables[-1], axes=([grid.ndim - 1], [1]))
    for w in reversed(tables[:-1]):
        t = np.einsum("...ir,ri->...r", t, w)
    return t


def _grid_mean(g: LocalFunction, rhos: np.ndarray, m: int, deriv: bool = False) -> np.ndarray:
    """h, or h' with ``deriv``, by sums truncated at m: the state grid
    contracted with nu_rho in every slot, and for h' the sum over slots j
    of the contraction with d nu_rho/d rho in slot j."""
    k = g.k
    grid = _g_grid(g, m)
    out = np.empty(rhos.size)
    chunk = max(1, 2**22 // max(grid.size, 1))
    for lo in range(0, rhos.size, chunk):
        sl = slice(lo, lo + chunk)
        if not deriv:
            out[sl] = _contract(grid, [_geometric_weights(rhos[sl], m)] * k)
            continue
        w, dw = _weight_tables(rhos[sl], m)
        out[sl] = sum(_contract(grid, [dw if i == j else w for i in range(k)]) for j in range(k))
    return out


def _grid_local_variance(g: LocalFunction, rhos: np.ndarray, m: int) -> np.ndarray:
    """V by sums truncated at m: each covariance term conditions on the
    sites the two windows share, which factorizes the product expectation."""
    k = g.k
    grid = _g_grid(g, m)
    out = np.zeros(rhos.size)
    for i, w in enumerate(_geometric_weights(rhos, m)):

        def conditional(shared):
            t = grid
            for ax in sorted(set(range(k)) - set(shared), reverse=True):
                t = np.tensordot(t, w, axes=([ax], [0]))
            return t

        mean = float(conditional(()))
        for s in range(1, 2 * k):
            lo, hi = max(s, k), min(s + k - 1, 2 * k - 1)
            joint = conditional(range(lo - k, hi - k + 1)) * conditional(range(lo - s, hi - s + 1))
            for _ in range(joint.ndim):
                joint = np.tensordot(joint, w, axes=([joint.ndim - 1], [0]))
            out[i] += float(joint) - mean * mean
    return out


def _rhos(rhos) -> np.ndarray:
    rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
    if np.any(rhos < 0):
        raise ValueError("rho must be >= 0")
    return rhos


def _mean(g: LocalFunction, rhos, deriv: bool) -> np.ndarray:
    rhos = _rhos(rhos)
    if g.monomials is not None:
        h = _poly_mean(g)
        return P.polyval(rhos, P.polyder(h) if deriv else h)
    return _grid_mean(g, rhos, _truncation(g, float(rhos.max(initial=0.0))), deriv)


def homogeneous_mean_batch(g: LocalFunction, rhos: np.ndarray) -> np.ndarray:
    """h(rho) = E[g(eta_1, ..., eta_k)] under the homogeneous geometric
    product at each rho.

    Exact for polynomial g.  Bounded g is summed over [0, m]^k, with the
    cutoff m chosen at the largest rho so that the truncation error is
    certified below 1e-12.
    """
    return _mean(g, rhos, deriv=False)


def homogeneous_mean_deriv_batch(g: LocalFunction, rhos: np.ndarray) -> np.ndarray:
    """Derivative of t -> E[g | all parameters equal t] at each rho: exact
    for polynomial g, and for bounded g the truncated sum with d nu/d rho
    in one slot at a time (finite at rho = 0 too)."""
    return _mean(g, rhos, deriv=True)


def local_variance_batch(g: LocalFunction, rhos: np.ndarray) -> np.ndarray:
    """Summed covariance of g between a reference window and its 2k-1 shifts.

    Under the homogeneous product at each rho, with the reference window on
    sites k..2k-1 and moving windows m..m+k-1 for m = 1..2k-1:
    V(rho) = sum_m cov(g(reference), g(window m)).  Exact for polynomial
    g; bounded g is summed over the truncated state grid (k <= 3).
    """
    rhos = _rhos(rhos)
    if g.monomials is not None:
        return P.polyval(rhos, _poly_variance(g))
    if g.k > 3:
        raise ValueError("local variances of non-polynomial g are limited to k <= 3")
    return _grid_local_variance(g, rhos, _truncation(g, float(rhos.max(initial=0.0))))


def _composite_nodes(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1] split into equal panels."""
    x, w = leggauss(_NODES_PER_PANEL)
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    return (mid[:, None] + half[:, None] * x[None, :]).ravel(), (
        half[:, None] * w[None, :]
    ).ravel()


def _refine(evaluate, label: str):
    """Panel-doubling convergence: returns the refined value, a float or
    an array, once every entry is stable."""
    panels = _FIRST_PANELS
    prev = evaluate(panels)
    while panels <= _MAX_PANELS:
        panels *= 2
        cur = evaluate(panels)
        if np.all(np.abs(cur - prev) <= _INTEGRAL_TOL * np.maximum(1.0, np.abs(cur))):
            return cur
        prev = cur
    raise QuadratureError(f"{label}: panel doubling did not converge at {panels} panels")


def lln_limit(
    g: LocalFunction,
    phi: TestFunction,
    bounds: BoundaryParams,
) -> float:
    """The almost-sure limit of the field: integral of h(rho(x)) * phi(x)."""

    def evaluate(panels: int) -> float:
        x, w = _composite_nodes(panels)
        vals = homogeneous_mean_batch(g, bounds.density(x)) * phi(x)
        return float(w @ vals)

    return _refine(evaluate, "lln_limit")


def _tail_matrix(nodes: int) -> np.ndarray:
    """T[i, j] = integral over [t_i, 1] of the Lagrange basis polynomial
    l_j on the Gauss-Legendre nodes t of [-1, 1].  T @ f integrates the
    interpolant of f from each node to the right end, exactly when f has
    degree <= nodes - 1."""
    t, w = leggauss(nodes)
    # Legendre coefficients of l_j by Gauss orthogonality, exact at this degree
    coefs = (np.arange(nodes) + 0.5)[:, None] * (legvander(t, nodes - 1) * w[:, None]).T
    anti = legint(coefs, axis=0)
    return legval(1.0, anti)[None, :] - legval(t, anti).T


def clt_variances(
    g: LocalFunction,
    phi: TestFunction,
    bounds: BoundaryParams,
) -> CltVariances:
    """Both central-limit variances of the fluctuation field of g.

    The parameter-fluctuation part is
    width^2 * double-integral of (min(s,t) - st) a(s) a(t), a = phi * h'(rho),
    evaluated as width^2 * integral of (C(u) - C_bar)^2 with C(u) the
    integral of a over [u, 1] and C_bar the integral of C; the white-noise
    part is the integral of V(rho(x)) * phi(x)^2.  Both come from one
    panel-doubling pass over the same nodes.
    """
    nodes = _NODES_PER_PANEL
    tail = _tail_matrix(nodes)

    def evaluate(panels: int) -> np.ndarray:
        x, w = _composite_nodes(panels)
        rho, phi_x = bounds.density(x), phi(x)
        a = (phi_x * homogeneous_mean_deriv_batch(g, rho)).reshape(panels, nodes)
        # C at the nodes: the panels to the right plus the rest of the own panel
        pieces = np.sum(w.reshape(panels, nodes) * a, axis=1)
        right = np.append(np.cumsum(pieces[:0:-1])[::-1], 0.0)
        c = (right[:, None] + a @ tail.T / (2 * panels)).ravel()
        c -= w @ c
        return np.array([w @ c**2, w @ (local_variance_batch(g, rho) * phi_x**2)])

    bridge, white = _refine(evaluate, "CLT variances")
    return CltVariances(
        bridge_variance=float(bounds.width**2 * bridge),
        white_noise_variance=float(max(white, 0.0) if white > -1e-10 else white),
    )


def bridge_covariance(s, t, bounds: BoundaryParams) -> np.ndarray:
    """width^2 * (min(s,t) - s*t), the parameter-fluctuation covariance,
    elementwise over s and t in [0, 1] broadcast against each other."""
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    if not (np.all((s >= 0.0) & (s <= 1.0)) and np.all((t >= 0.0) & (t <= 1.0))):
        raise ValueError("s and t must lie in [0, 1]")
    return bounds.width**2 * (np.minimum(s, t) - s * t)
