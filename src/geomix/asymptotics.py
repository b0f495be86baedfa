"""Deterministic objects of the limit theorems.

For a local function g and a homogeneous geometric product measure at
parameter rho, this module computes

* the conditional mean  h(rho) = E[g(eta_1, ..., eta_k)],
* its diagonal derivative h'(rho),
* the summed window covariance
  V(rho) = sum_{m=1}^{2k-1} cov(g(eta_k..eta_{2k-1}), g(eta_m..eta_{m+k-1})),

by truncated sums with certified geometric tail bounds, and from these the
law-of-large-numbers limit integral, the two central-limit variances
(parameter-fluctuation part and white-noise part) and the bridge
covariance kernel, by composite Gauss-Legendre quadrature.  The 2-d
variance integral is split along its diagonal, where the kernel
min(s,t) - s*t has a kink.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from geomix.core import BoundaryParams, LocalFunction
from geomix.fields import TestFunction

__all__ = [
    "QuadratureError",
    "QuadratureSpec",
    "CltVariances",
    "geometric_tail_bound",
    "truncation_for",
    "homogeneous_mean",
    "homogeneous_mean_batch",
    "homogeneous_mean_deriv",
    "local_variance",
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


def geometric_tail_bound(theta: float, m: int, degree: int = 0) -> float:
    """Certified bound on sum_{n > m} n^degree * nu_theta(n).

    For degree 0 this is the exact tail mass (theta/(1+theta))**(m+1).
    For degree > 0 the geometric-ratio bound
    q * (m+1)^d * p^{m+1} / (1 - r) with r = p * ((m+2)/(m+1))^d is used.
    """
    if theta < 0:
        raise ValueError("theta must be >= 0")
    if theta == 0.0:
        return 0.0
    p = theta / (1.0 + theta)
    if degree == 0:
        return p ** (m + 1)
    r = p * ((m + 2) / (m + 1)) ** degree
    if r >= 1.0:
        return math.inf
    return (1.0 - p) * (m + 1) ** degree * p ** (m + 1) / (1.0 - r)


def truncation_for(theta_max: float, tol: float = 1e-12, degree: int = 0) -> int:
    """Smallest power-of-two-ish cutoff with certified tail below tol."""
    m = 16
    while geometric_tail_bound(theta_max, m, degree) > tol:
        m *= 2
        if m > _MAX_TRUNCATION:
            raise QuadratureError(
                f"tail tolerance {tol} unattainable below cutoff {_MAX_TRUNCATION} "
                f"for theta={theta_max}, degree={degree}"
            )
    return m


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite-quadrature and state-truncation settings.

    ``truncation`` is the per-site state cutoff for the geometric sums;
    the constructor :meth:`for_bounds` chooses it from the certified tail
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
        cls,
        bounds: BoundaryParams,
        tail_tol: float = 1e-12,
        degree: int = 0,
        **kwargs,
    ) -> "QuadratureSpec":
        m = truncation_for(bounds.theta_right, tail_tol, degree)
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


def _truncation_scale(g: LocalFunction) -> tuple[float, int]:
    """(magnitude scale, tail degree) certifying the truncated sums of g."""
    if g.bounded:
        return float(g.bound), 0
    if g.monomials is not None:
        scale = sum(abs(c) for c in g.monomials.values())
        return max(scale, 1.0) * g.k, g.degree or 0
    raise ValueError(
        "cannot certify truncation: local function is neither bounded nor polynomial"
    )


def _check_truncation(g: LocalFunction, theta_max: float, quad: QuadratureSpec) -> None:
    scale, degree = _truncation_scale(g)
    err = scale * geometric_tail_bound(theta_max, quad.truncation, degree)
    if err > quad.tail_tol:
        raise QuadratureError(
            f"truncation {quad.truncation} leaves certified tail {err:.3e} above "
            f"tolerance {quad.tail_tol:.3e} (theta={theta_max}, degree={degree})"
        )


def _geometric_weights(rhos: np.ndarray, m: int) -> np.ndarray:
    """(len(rhos), m+1) matrix of nu_rho(n); rho = 0 rows are (1, 0, ...)."""
    rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
    p = rhos / (1.0 + rhos)
    powers = p[:, None] ** np.arange(m + 1)[None, :]
    return (1.0 - p)[:, None] * powers


def _check_cells(cells: int, what: str) -> None:
    """Reject a state table above the cell budget before allocating it."""
    if cells > _CELL_BUDGET:
        raise ValueError(f"{what} needs {cells:.3e} cells, above the budget {_CELL_BUDGET:.3e}")


def _g_grid(g: LocalFunction, m: int) -> np.ndarray:
    """g on the full state grid [0, m]^k."""
    _check_cells((m + 1) ** g.k, f"the k={g.k} state grid at truncation {m}")
    axes = np.meshgrid(*([np.arange(m + 1)] * g.k), indexing="ij")
    return np.asarray(g(*axes), dtype=float)


def homogeneous_mean_batch(
    g: LocalFunction, rhos: np.ndarray, quad: QuadratureSpec, _grid: np.ndarray | None = None
) -> np.ndarray:
    """h at many parameters at once; see :func:`homogeneous_mean`."""
    rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
    if np.any(rhos < 0):
        raise ValueError("rho must be >= 0")
    _check_truncation(g, float(rhos.max(initial=0.0)), quad)
    m = quad.truncation
    grid = _g_grid(g, m) if _grid is None else _grid
    out = np.empty(rhos.size)
    chunk = max(1, 2**22 // max(grid.size, 1))
    for lo in range(0, rhos.size, chunk):
        w = _geometric_weights(rhos[lo : lo + chunk], m)
        t = np.tensordot(grid, w, axes=([grid.ndim - 1], [1]))
        while t.ndim > 1:
            t = np.einsum("...ir,ri->...r", t, w)
        out[lo : lo + chunk] = t
    return out


def homogeneous_mean(g: LocalFunction, rho: float, quad: QuadratureSpec) -> float:
    """E[g(eta_1, ..., eta_k)] under the homogeneous geometric product at rho.

    Truncated k-fold sum over [0, truncation]^k; the truncation error is
    certified against ``quad.tail_tol`` (exactly for bounded g, via the
    degree-inflated tail bound for polynomial g).  Requires g.k <= 4.
    """
    if g.k > 4:
        raise ValueError("homogeneous means are limited to k <= 4")
    return float(homogeneous_mean_batch(g, np.array([rho]), quad)[0])


def _deriv_stencils(rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Richardson-extrapolated difference stencils along the diagonal.

    Central where rho - delta >= 0, one-sided otherwise.  Returns
    (points, coefficients, one_sided mask); points and coefficients have
    one row of four entries per input parameter.
    """
    rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
    delta = np.maximum(1e-5, 1e-5 * rhos)
    pts = np.empty((rhos.size, 4))
    coefs = np.empty((rhos.size, 4))
    one_sided = rhos - delta < 0.0
    c = ~one_sided
    d = delta[c]
    # (4*D(d/2) - D(d)) / 3 with D central
    pts[c] = np.stack([rhos[c] - d, rhos[c] - d / 2, rhos[c] + d / 2, rhos[c] + d], axis=1)
    coefs[c] = np.stack([1 / (6 * d), -8 / (6 * d), 8 / (6 * d), -1 / (6 * d)], axis=1)
    if np.any(one_sided):
        d = delta[one_sided]
        r = rhos[one_sided]
        # forward D(s) = (-3f(x) + 4f(x+s) - f(x+2s)) / (2s) at s = d, d/2,
        # Richardson-combined (4 D(d/2) - D(d)) / 3
        pts[one_sided] = np.stack([r, r + d / 2, r + d, r + 2 * d], axis=1)
        coefs[one_sided] = np.stack(
            [-21 / (6 * d), 16 / (3 * d), -2 / d, 1 / (6 * d)], axis=1
        )
    return pts, coefs, one_sided


def homogeneous_mean_deriv_batch(
    g: LocalFunction, rhos: np.ndarray, quad: QuadratureSpec
) -> np.ndarray:
    rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
    pts, coefs, _ = _deriv_stencils(rhos)
    vals = homogeneous_mean_batch(g, pts.ravel(), quad).reshape(pts.shape)
    return np.sum(coefs * vals, axis=1)


def homogeneous_mean_deriv(g: LocalFunction, rho: float, quad: QuadratureSpec) -> float:
    """Derivative of t -> E[g | all parameters equal t] at t = rho.

    Richardson-extrapolated central difference with step
    max(1e-5, 1e-5 * rho); falls back to a one-sided stencil (with a
    warning) when rho sits within a step of zero.
    """
    pts, coefs, one_sided = _deriv_stencils(np.array([rho]))
    if one_sided[0]:
        warnings.warn(
            f"one-sided difference used for h' at rho={rho}", RuntimeWarning
        )
    vals = homogeneous_mean_batch(g, pts[0], quad)
    return float(np.sum(coefs[0] * vals))


def _conditional_on_shared(
    grid: np.ndarray, w: np.ndarray, shared_axes: tuple[int, ...]
) -> np.ndarray:
    """Average the g grid over the non-shared axes with weights w."""
    t = grid
    for ax in sorted(set(range(grid.ndim)) - set(shared_axes), reverse=True):
        t = np.tensordot(t, w, axes=([ax], [0]))
    return t


def local_variance(g: LocalFunction, rho: float, quad: QuadratureSpec) -> float:
    """Summed covariance of g between a reference window and its 2k-1 shifts.

    Under the homogeneous product at rho, with the reference window on
    sites k..2k-1 and moving windows m..m+k-1 for m = 1..2k-1:
    V(rho) = sum_m cov(g(reference), g(window m)).  Each term is computed
    by conditioning on the shared sites, which factorizes the product
    expectation over at most (truncation+1)^k states.  Requires g.k <= 3.
    """
    k = g.k
    if k > 3:
        raise ValueError("local variances are limited to k <= 3")
    if rho < 0:
        raise ValueError("rho must be >= 0")
    _check_truncation(g, rho, quad)
    m_cut = quad.truncation
    grid = _g_grid(g, m_cut)
    w = _geometric_weights(np.array([rho]), m_cut)[0]
    mean = grid
    for _ in range(k):
        mean = np.tensordot(mean, w, axes=([mean.ndim - 1], [0]))
    mean = float(mean)

    total = 0.0
    ref_lo, ref_hi = k, 2 * k - 1
    for m in range(1, 2 * k):
        lo, hi = max(m, ref_lo), min(m + k - 1, ref_hi)
        ref_axes = tuple(range(lo - ref_lo, hi - ref_lo + 1))
        mov_axes = tuple(range(lo - m, hi - m + 1))
        cond_ref = _conditional_on_shared(grid, w, ref_axes)
        cond_mov = _conditional_on_shared(grid, w, mov_axes)
        joint = cond_ref * cond_mov
        for _ in range(joint.ndim):
            joint = np.tensordot(joint, w, axes=([joint.ndim - 1], [0]))
        total += float(joint) - mean * mean
    return total


def local_variance_batch(
    g: LocalFunction, rhos: np.ndarray, quad: QuadratureSpec
) -> np.ndarray:
    rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
    return np.array([local_variance(g, float(r), quad) for r in rhos])


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
    return bounds.width**2 * (min(s, t) - s * t)
