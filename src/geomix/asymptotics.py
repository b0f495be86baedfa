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

For polynomial g, h, h' and V are polynomials in rho whose coefficients
are exact rationals rounded once, from the one expansion of E[g | Theta]
(``moments._conditional_mean``).  A non-polynomial g must declare its
saturation c (it reads each occupation n only through min(n, c)); its h,
h' and V are exact sums over the state grid [0, c]^k, whose last state
of each site carries the whole geometric tail n >= c.  The integrals
double their panels until two rules agree to 1e-9, which is not a
setting.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P
from numpy.polynomial.legendre import legint, legval, legvander

from geomix.core import BoundaryParams, LocalFunction, NumericError
from geomix.fields import TestFunction
from geomix.moments import _conditional_mean, _dyadic

__all__ = [
    "QuadratureError",
    "CltVariances",
    "homogeneous_mean_batch",
    "homogeneous_mean_deriv_batch",
    "local_variance_batch",
    "lln_limit",
    "clt_variances",
    "bridge_covariance",
]

# composite Gauss-Legendre rules start at _FIRST_PANELS panels and double
# until two rules agree to _INTEGRAL_TOL
_FIRST_PANELS = 16
_NODES_PER_PANEL = 6
_INTEGRAL_TOL = 1e-9
_MAX_PANELS = 4096
# the Gauss-Legendre rules on [-1, 1], (nodes, weights) by node count: the
# doubles of numpy's leggauss as literals, so that no rule runs an eigensolver
_GAUSS_LEGENDRE = {
    2: (np.array([-0.5773502691896257, 0.5773502691896257]), np.array([1.0, 1.0])),
    6: (
        np.array([-0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
                  0.2386191860831969, 0.6612093864662645, 0.9324695142031519]),
        np.array([0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
                  0.46791393457269104, 0.3607615730481387, 0.17132449237917027]),
    ),
}
# largest state table built in one piece, checked before it is allocated
_CELL_BUDGET = 2**25


class QuadratureError(NumericError):
    """Raised when panel doubling does not converge."""


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


def _poly_coefficients(g: LocalFunction, part: str) -> np.ndarray:
    """Coefficients in rho, lowest first, of h, h' or V (``part``) of a
    polynomial g: the conditional-mean expansion at every Theta_j = rho, in
    integers over one power of two, each divided once.  For V, on 3k-2
    sites the reference window covers k..2k-1 and window m covers
    m..m+k-1; a pair of monomials multiplies its weights and adds its
    exponents on the sites the two windows share, and (2k-1) h^2 is the
    same pair on two disjoint windows."""
    k = g.k
    weights, den = _dyadic(g.monomials.values())
    terms = list(zip(weights, g.monomials))
    if part == "V":
        pairs, den = [], den**2
        for (a, ref), (b, mov) in itertools.product(terms, repeat=2):
            pairs.append((-(2 * k - 1) * a * b, (*ref, *mov)))
            centred = (0,) * (k - 1) + (*ref,) + (0,) * (k - 1)
            for m in range(1, 2 * k):
                shifted = (0,) * (m - 1) + (*mov,) + (0,) * (2 * k - 1 - m)
                pairs.append((a * b, [e + f for e, f in zip(centred, shifted)]))
        terms = pairs
    poly = _conditional_mean(terms)
    coefs = [0] * (max((sum(exps) for _, exps in poly), default=0) + 1)
    for weight, exps in poly:
        coefs[sum(exps)] += weight
    if part == "h'":
        coefs = [j * c for j, c in enumerate(coefs)][1:] or [0]
    return np.array([c / den for c in coefs])


def _weight_tables(thetas: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Masses of the states 0..c of a site saturated at c, and their
    theta-derivatives, one row per theta.

    With q = 1/(1+theta) and p = theta q, state n < c has mass
    nu_theta(n) = q p^n and state c the whole tail P(eta >= c) = p^c.  The
    derivatives are q (n nu(n-1) - (n+1) nu(n)) for n < c and q c nu(c-1)
    for the tail, finite at theta = 0 too.  q is formed directly, not as
    1 - p, which would cancel at large theta.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    q = (1.0 / (1.0 + thetas))[:, None]
    n = np.arange(c + 1)
    w = (thetas[:, None] * q) ** n
    w[:, :c] *= q
    prev = np.zeros_like(w)
    prev[:, 1:] = w[:, :-1]
    outflow = (n + 1) * w
    outflow[:, c] = 0.0
    return w, q * (n * prev - outflow)


def _check_cells(cells: int, what: str) -> None:
    """Reject a state table above the cell budget before allocating it."""
    if cells > _CELL_BUDGET:
        raise ValueError(f"{what} needs {cells:.3e} cells, above the budget {_CELL_BUDGET:.3e}")


def _g_grid(g: LocalFunction) -> np.ndarray:
    """g on the state grid [0, c]^k of its saturation c.

    g is evaluated on [0, c+1]^k, and refused unless index c+1 repeats
    index c along every axis."""
    c = g.saturation
    if c is None:
        raise ValueError(
            f"{g.name} declares no saturation c; exact state sums need g to read "
            "each occupation n only through min(n, c)"
        )
    _check_cells((c + 2) ** g.k, f"the k={g.k} state grid at saturation {c}")
    axes = np.meshgrid(*([np.arange(c + 2)] * g.k), indexing="ij")
    grid = np.broadcast_to(np.asarray(g(*axes), dtype=float), axes[0].shape)
    for axis in range(g.k):
        if not np.array_equal(grid.take(c, axis=axis), grid.take(c + 1, axis=axis)):
            raise ValueError(
                f"{g.name} changes between n = {c} and n = {c + 1} on axis {axis}: "
                f"it does not saturate at c = {c}"
            )
    return grid[(slice(0, c + 1),) * g.k]


def _contract(grid: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
    """sum_n grid(n_1..n_k) * prod_j tables[j][r, n_j], one value per row r."""
    t = np.tensordot(grid, tables[-1], axes=([grid.ndim - 1], [1]))
    for w in reversed(tables[:-1]):
        t = np.einsum("...ir,ri->...r", t, w)
    return t


def _by_node_blocks(evaluate, cells: int, *tables: np.ndarray) -> np.ndarray:
    """evaluate(*row blocks of the (nodes, states) tables), one value per
    row, in blocks of rows that keep rows * cells near 2**22."""
    out = np.empty(tables[0].shape[0])
    chunk = max(1, 2**22 // max(cells, 1))
    for lo in range(0, out.size, chunk):
        out[lo : lo + chunk] = evaluate(*(t[lo : lo + chunk] for t in tables))
    return out


def _grid_mean(grid: np.ndarray, w: np.ndarray, dw: np.ndarray | None = None) -> np.ndarray:
    """h, or h' when ``dw`` is given: the k-site state grid contracted with
    the state masses w in every slot, and for h' the sum over slots j of
    the contraction with their derivatives dw in slot j; one value per row
    of the (nodes, states) tables."""
    k = grid.ndim
    if dw is None:
        return _by_node_blocks(lambda w: _contract(grid, [w] * k), grid.size, w)

    def deriv(w: np.ndarray, dw: np.ndarray) -> np.ndarray:
        return sum(_contract(grid, [dw if i == j else w for i in range(k)]) for j in range(k))

    return _by_node_blocks(deriv, grid.size, w, dw)


def _grid_local_variance(grid: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """V from the k-site state grid and one row of state masses per node.

    On the sites spanned by the reference window k..2k-1 and the window
    s..s+k-1, E[g(reference) g(window s)] is one contraction of two copies
    of the grid with a mass row per site, all nodes at once on the leading
    axis Z."""
    k = grid.ndim

    def expectation(w: np.ndarray, *starts: int) -> np.ndarray:
        lo = min(starts)
        sites = string.ascii_letters[: max(starts) + k - lo]
        windows = [sites[s - lo : s - lo + k] for s in starts]
        spec = ",".join(windows + [f"Z{x}" for x in sites]) + "->Z"
        return np.einsum(spec, *[grid] * len(starts), *[w] * len(sites), optimize=True)

    def variance(w: np.ndarray) -> np.ndarray:
        mean = expectation(w, k)
        return sum(expectation(w, k, s) for s in range(1, 2 * k)) - (2 * k - 1) * mean * mean

    return _by_node_blocks(variance, grid.size, weights)


def _layer(g: LocalFunction, rhos, part: str) -> np.ndarray:
    """h, h' or V (``part``) of g at each rho >= 0."""
    rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
    if np.any(rhos < 0):
        raise ValueError("rho must be >= 0")
    if g.monomials is not None:
        return P.polyval(rhos, _poly_coefficients(g, part))
    grid = _g_grid(g)
    w, dw = _weight_tables(rhos, g.saturation)
    if part == "V":
        return _grid_local_variance(grid, w)
    return _grid_mean(grid, w, dw if part == "h'" else None)


def homogeneous_mean_batch(g: LocalFunction, rhos: np.ndarray) -> np.ndarray:
    """h(rho) = E[g(eta_1, ..., eta_k)] under the homogeneous geometric
    product at each rho.

    Exact for polynomial g, and for g saturating at c an exact sum over
    [0, c]^k.
    """
    return _layer(g, rhos, "h")


def homogeneous_mean_deriv_batch(g: LocalFunction, rhos: np.ndarray) -> np.ndarray:
    """Derivative of t -> E[g | all parameters equal t] at each rho: exact
    for polynomial g, and for saturating g the state sum with d nu/d rho
    in one slot at a time (finite at rho = 0 too)."""
    return _layer(g, rhos, "h'")


def local_variance_batch(g: LocalFunction, rhos: np.ndarray) -> np.ndarray:
    """Summed covariance of g between a reference window and its 2k-1 shifts.

    Under the homogeneous product at each rho, with the reference window on
    sites k..2k-1 and moving windows m..m+k-1 for m = 1..2k-1:
    V(rho) = sum_m cov(g(reference), g(window m)).  Exact for polynomial
    g, and for saturating g an exact sum over its state grid.
    """
    return _layer(g, rhos, "V")


def _composite_nodes(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1] split into equal panels."""
    x, w = _GAUSS_LEGENDRE[_NODES_PER_PANEL]
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


def _interpolant_coefficients(nodes: int) -> np.ndarray:
    """L[n, j] = Legendre coefficient n of the Lagrange basis polynomial l_j
    on the Gauss-Legendre nodes t of [-1, 1], by Gauss orthogonality, which
    is exact at this degree.  L @ f gives the Legendre series of the
    interpolant of the node values f."""
    t, w = _GAUSS_LEGENDRE[nodes]
    return (np.arange(nodes) + 0.5)[:, None] * (legvander(t, nodes - 1) * w[:, None]).T


def _tail_matrix(nodes: int) -> np.ndarray:
    """T[i, j] = integral over [t_i, 1] of the Lagrange basis polynomial
    l_j on the Gauss-Legendre nodes t of [-1, 1].  T @ f integrates the
    interpolant of f from each node to the right end, exactly when f has
    degree <= nodes - 1."""
    anti = legint(_interpolant_coefficients(nodes), axis=0)
    return legval(1.0, anti)[None, :] - legval(_GAUSS_LEGENDRE[nodes][0], anti).T


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
