"""Deterministic objects of the limit theorems.

For a local function g and a homogeneous geometric product measure at
parameter rho, this module computes

* the conditional mean  h(rho) = E[g(eta_1, ..., eta_k)],
* its diagonal derivative h'(rho),
* the summed window covariance
  V(rho) = sum_{m=1}^{2k-1} cov(g(eta_k..eta_{2k-1}), g(eta_m..eta_{m+k-1})),

and from these the law-of-large-numbers limit integral, the two
central-limit variances (parameter-fluctuation part and white-noise part)
and the bridge covariance kernel, by composite Gauss-Legendre quadrature.
The 2-d variance integral is split along its diagonal, where the kernel
min(s,t) - s*t has a kink.

For polynomial g, h, h' and V are exact polynomials in rho built from the
geometric raw moments E[eta^p]; only bounded, non-polynomial g is summed
over a truncated state grid, with certified tail bounds for h and h'.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P
from numpy.polynomial.legendre import leggauss

from geomix.core import BoundaryParams, LocalFunction
from geomix.fields import TestFunction
from geomix.moments import geometric_raw_moment_coefficients

__all__ = [
    "QuadratureError",
    "QuadratureSpec",
    "CltVariances",
    "geometric_tail_bound",
    "truncation_for",
    "homogeneous_mean_batch",
    "homogeneous_mean_deriv_batch",
    "local_variance_batch",
    "lln_limit",
    "clt_variances",
    "bridge_covariance",
]

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


def truncation_for(theta_max: float, tol: float = 1e-12) -> int:
    """Smallest power-of-two-ish cutoff whose tails of nu_theta and of
    d nu_theta/d theta are both certified below tol."""
    m = 16
    while max(geometric_tail_bound(theta_max, m), _deriv_tail_bound(theta_max, m)) > tol:
        m *= 2
        if m > _MAX_TRUNCATION:
            raise QuadratureError(
                f"tail tolerance {tol} unattainable below cutoff {_MAX_TRUNCATION} "
                f"for theta={theta_max}"
            )
    return m


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite-quadrature and state-truncation settings.

    ``truncation`` is the per-site state cutoff for the geometric sums of
    bounded, non-polynomial g (polynomial g is never truncated); the
    constructor :meth:`for_bounds` chooses it from the certified tail
    bound at the largest parameter in play.  ``integral_tol`` is the
    panel-doubling convergence tolerance of the x-integrals.
    """

    panels: int = 16
    nodes_per_panel: int = 6
    truncation: int = 96
    tail_tol: float = 1e-12
    integral_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.panels < 1 or self.nodes_per_panel < 1 or self.truncation < 0:
            raise ValueError("panels, nodes_per_panel and truncation must be positive")

    @classmethod
    def for_bounds(
        cls, bounds: BoundaryParams, tail_tol: float = 1e-12, **kwargs
    ) -> "QuadratureSpec":
        m = truncation_for(bounds.theta_right, tail_tol)
        return cls(truncation=m, tail_tol=tail_tol, **kwargs)


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


def _check_truncation(
    g: LocalFunction, theta_max: float, quad: QuadratureSpec, deriv: bool = False
) -> None:
    """Certify the truncated grid sums of a bounded g for h, or for h'.

    States beyond m at any of k sites move h by at most bound * k * p**(m+1).
    For h' each slot adds the tail of d nu/d theta, and a whole row of
    d nu/d theta has total variation at most 2.
    """
    if not g.bounded:
        raise ValueError("cannot certify truncation: g is neither bounded nor polynomial")
    m = quad.truncation
    tail = geometric_tail_bound(theta_max, m)
    if deriv:
        tail = _deriv_tail_bound(theta_max, m) + 2 * (g.k - 1) * tail
    err = float(g.bound) * g.k * tail
    if err > quad.tail_tol:
        raise QuadratureError(
            f"truncation {m} leaves certified tail {err:.3e} above "
            f"tolerance {quad.tail_tol:.3e} (theta={theta_max})"
        )


def _geometric_weights(rhos: np.ndarray, m: int) -> np.ndarray:
    """(len(rhos), m+1) matrix of nu_rho(n); rho = 0 rows are (1, 0, ...)."""
    rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
    p = rhos / (1.0 + rhos)
    powers = p[:, None] ** np.arange(m + 1)[None, :]
    return (1.0 - p)[:, None] * powers


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


def _grid_mean(
    g: LocalFunction, rhos: np.ndarray, quad: QuadratureSpec, deriv: bool = False
) -> np.ndarray:
    """h, or h' with ``deriv``, by truncated sums: the state grid
    contracted with nu_rho in every slot, and for h' the sum over slots j
    of the contraction with d nu_rho/d rho in slot j."""
    k, m = g.k, quad.truncation
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


def _grid_local_variance(g: LocalFunction, rhos: np.ndarray, quad: QuadratureSpec) -> np.ndarray:
    """V by truncated sums: each covariance term conditions on the sites
    the two windows share, which factorizes the product expectation."""
    k = g.k
    grid = _g_grid(g, quad.truncation)
    out = np.zeros(rhos.size)
    for i, w in enumerate(_geometric_weights(rhos, quad.truncation)):

        def conditional(shared):
            t = grid
            for ax in sorted(set(range(k)) - set(shared), reverse=True):
                t = np.tensordot(t, w, axes=([ax], [0]))
            return t

        mean = float(conditional(()))
        for m in range(1, 2 * k):
            lo, hi = max(m, k), min(m + k - 1, 2 * k - 1)
            joint = conditional(range(lo - k, hi - k + 1)) * conditional(range(lo - m, hi - m + 1))
            for _ in range(joint.ndim):
                joint = np.tensordot(joint, w, axes=([joint.ndim - 1], [0]))
            out[i] += float(joint) - mean * mean
    return out


def _rhos(rhos) -> np.ndarray:
    rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
    if np.any(rhos < 0):
        raise ValueError("rho must be >= 0")
    return rhos


def _mean(g: LocalFunction, rhos, quad: QuadratureSpec, deriv: bool) -> np.ndarray:
    rhos = _rhos(rhos)
    if g.monomials is not None:
        h = _poly_mean(g)
        return P.polyval(rhos, P.polyder(h) if deriv else h)
    _check_truncation(g, float(rhos.max(initial=0.0)), quad, deriv)
    return _grid_mean(g, rhos, quad, deriv)


def homogeneous_mean_batch(g: LocalFunction, rhos: np.ndarray, quad: QuadratureSpec) -> np.ndarray:
    """h(rho) = E[g(eta_1, ..., eta_k)] under the homogeneous geometric
    product at each rho.

    Exact for polynomial g.  Bounded g is summed over [0, truncation]^k,
    with the truncation error certified against ``quad.tail_tol``.
    """
    return _mean(g, rhos, quad, deriv=False)


def homogeneous_mean_deriv_batch(
    g: LocalFunction, rhos: np.ndarray, quad: QuadratureSpec
) -> np.ndarray:
    """Derivative of t -> E[g | all parameters equal t] at each rho: exact
    for polynomial g, and for bounded g the truncated sum with d nu/d rho
    in one slot at a time (finite at rho = 0 too)."""
    return _mean(g, rhos, quad, deriv=True)


def local_variance_batch(g: LocalFunction, rhos: np.ndarray, quad: QuadratureSpec) -> np.ndarray:
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
    _check_truncation(g, float(rhos.max(initial=0.0)), quad)
    return _grid_local_variance(g, rhos, quad)


def _composite_nodes(panels: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1] split into equal panels."""
    x, w = leggauss(nodes)
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    return (mid[:, None] + half[:, None] * x[None, :]).ravel(), (
        half[:, None] * w[None, :]
    ).ravel()


def _refine(evaluate, quad: QuadratureSpec, label: str) -> float:
    """Panel-doubling convergence: returns the refined value once stable."""
    panels = quad.panels
    prev = evaluate(panels)
    while panels <= _MAX_PANELS:
        panels *= 2
        cur = evaluate(panels)
        if abs(cur - prev) <= quad.integral_tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise QuadratureError(f"{label}: panel doubling did not converge at {panels} panels")


def lln_limit(
    g: LocalFunction,
    phi: TestFunction,
    bounds: BoundaryParams,
    quad: QuadratureSpec,
) -> float:
    """The almost-sure limit of the field: integral of h(rho(x)) * phi(x)."""

    def evaluate(panels: int) -> float:
        x, w = _composite_nodes(panels, quad.nodes_per_panel)
        vals = homogeneous_mean_batch(g, bounds.density(x), quad) * phi(x)
        return float(w @ vals)

    return _refine(evaluate, quad, "lln_limit")


def _bridge_kernel(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """min(s,t) - s*t, the covariance of the Brownian bridge on [0, 1]."""
    return np.minimum(s, t) - s * t


def _sigma_bridge_at(
    g: LocalFunction,
    phi: TestFunction,
    bounds: BoundaryParams,
    quad: QuadratureSpec,
    panels: int,
) -> float:
    """Double integral of (s^t - st) a(s) a(t), a = phi * h'(rho), at a
    fixed panel count.  Off-diagonal panel pairs use the tensor rule; the
    panel squares touching the diagonal are re-integrated as two
    triangles, on which the kernel is smooth."""
    nodes = quad.nodes_per_panel
    x, w = _composite_nodes(panels, nodes)
    a = phi(x) * homogeneous_mean_deriv_batch(g, bounds.density(x), quad)
    wa = w * a
    kernel = _bridge_kernel(x[:, None], x[None, :])
    total = float(wa @ kernel @ wa)

    # replace the diagonal-panel squares by triangle quadrature
    xg, wg = leggauss(nodes)
    edges = np.linspace(0.0, 1.0, panels + 1)
    inner_pts = np.empty((panels, nodes, nodes))
    inner_wts = np.empty((panels, nodes, nodes))
    for p in range(panels):
        alpha = edges[p]
        sl = slice(p * nodes, (p + 1) * nodes)
        total -= float(wa[sl] @ kernel[sl, sl] @ wa[sl])
        t_nodes = x[sl]
        half = (t_nodes - alpha) / 2.0
        inner_pts[p] = alpha + half[:, None] * (xg[None, :] + 1.0)
        inner_wts[p] = half[:, None] * wg[None, :]
    a_inner = (
        phi(inner_pts.ravel())
        * homogeneous_mean_deriv_batch(g, bounds.density(inner_pts.ravel()), quad)
    ).reshape(inner_pts.shape)
    for p in range(panels):
        sl = slice(p * nodes, (p + 1) * nodes)
        t_nodes, t_wts = x[sl], w[sl]
        s_pts, s_wts = inner_pts[p], inner_wts[p]
        k_tri = _bridge_kernel(s_pts, t_nodes[:, None])
        inner = np.sum(s_wts * k_tri * a_inner[p], axis=1)
        total += 2.0 * float(t_wts @ (a[sl] * inner))
    return total


def clt_variances(
    g: LocalFunction,
    phi: TestFunction,
    bounds: BoundaryParams,
    quad: QuadratureSpec,
) -> CltVariances:
    """Both central-limit variances of the fluctuation field of g.

    The parameter-fluctuation part is
    width^2 * double-integral of (min(s,t) - st) phi(s) phi(t) h'(rho(s)) h'(rho(t));
    the white-noise part is the integral of V(rho(x)) * phi(x)^2.
    """
    if bounds.width == 0.0:
        bridge = 0.0
    else:
        bridge = bounds.width**2 * _refine(
            lambda p: _sigma_bridge_at(g, phi, bounds, quad, p), quad, "bridge variance"
        )

    def white_at(panels: int) -> float:
        x, w = _composite_nodes(panels, quad.nodes_per_panel)
        return float(w @ (local_variance_batch(g, bounds.density(x), quad) * phi(x) ** 2))

    white = _refine(white_at, quad, "white-noise variance")
    return CltVariances(
        bridge_variance=max(bridge, 0.0) if bridge > -1e-10 else bridge,
        white_noise_variance=max(white, 0.0) if white > -1e-10 else white,
    )


def bridge_covariance(s: float, t: float, bounds: BoundaryParams) -> float:
    """width^2 * (min(s,t) - s*t), the parameter-fluctuation covariance."""
    if not (0.0 <= s <= 1.0 and 0.0 <= t <= 1.0):
        raise ValueError("s and t must lie in [0, 1]")
    return float(bounds.width**2 * _bridge_kernel(s, t))
