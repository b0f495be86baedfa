"""Large-deviation machinery: free energies, rate functions, and the two
variational problems for the mixture measure.

For a local function g that saturates at c (it reads each occupation n
only through min(n, c)), the homogeneous free energy F(theta, lambda) is
the exponential growth rate per site of E[exp(lambda * sum of shifted g)]
under the geometric product at theta.  Each site then has the c + 1
states 0..c, the last one carrying the whole geometric tail n >= c, so
every sum below is exact and finite.  One evaluator, :func:`free_energy`,
returns F with its analytic lambda- and theta-derivatives at every k: the
log of the leading eigenvalue of a transfer kernel on the (c+1)^(k-1)
states of a (k-1)-site window, from one power iteration over a stack of
kernels with a node axis, and the derivatives from its left and right
Perron vectors.  At k = 1 the window has one state, and F is the log of
sum_n nu_theta(n) exp(lambda * g(n)).  Level-1 rates follow by Legendre
transform, solved by safeguarded secant steps in the logit of the tilted
mean.  The
parameter-path rate J penalizes the log-slope of monotone profiles.  At a
strength that does not depend on x, the annealed free energy is the Gibbs
variational value log of the integral of exp F(theta_left + width * s) over
s in [0, 1], one refined quadrature, and its optimal profile is the
quantile function of the density proportional to exp F.  Every other
strength, and the rate of a target profile, are solved by one Newton
solver on the values of discretized monotone profiles, whose Hessian is
tridiagonal.
"""

from __future__ import annotations

import copy
import math
import string
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import legint, legval

from geomix.core import BoundaryParams, LocalFunction, NumericError
from geomix.asymptotics import (
    _GAUSS_LEGENDRE,
    _NODES_PER_PANEL,
    _check_cells,
    _composite_nodes,
    _g_grid,
    _interpolant_coefficients,
    _refine,
    _weight_tables,
)
from geomix.fields import TestFunction

__all__ = [
    "OptimizationError",
    "SolverConfig",
    "MonotoneProfile",
    "free_energy",
    "rate_function",
    "rate_function_batch",
    "path_rate",
    "inhom_free_energy",
    "annealed_free_energy",
    "profile_rate",
    "VariationalResult",
]

_POWER_ITERATION_CAP = 20_000
_EIGEN_TOL = 1e-12
_LEGENDRE_ITERATION_CAP = 100
# safeguarded Newton steps of the quantile inversion, and their stop in the
# panel coordinate [-1, 1]
_QUANTILE_ITERATION_CAP = 100
_QUANTILE_TOL = 1e-14
# Gauss nodes per profile cell of the path objectives
_CELL_NODES = 2
# least profile increment, relative to the width, of a finite path rate
_DELTA_MIN = 1e-8


class OptimizationError(NumericError):
    """Every solver start hit an infeasible profile."""


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the Newton solver (exposed through the CLI): profiles of
    ``grid_size`` cells, the linear start and ``multistart - 1`` random ones
    drawn from ``seed``, and at most ``max_iterations`` steps per start.
    ``annealed_free_energy`` at a constant strength (a test function of
    polynomial degree 0) takes its closed form instead and reads only
    ``grid_size``, the number of cells of the profile it returns.
    """

    max_iterations: int = 4000
    multistart: int = 4
    seed: int = 0
    grid_size: int = 200

    def __post_init__(self) -> None:
        if self.grid_size < 2:
            raise ValueError("grid size must be >= 2")
        if self.multistart < 1:
            raise ValueError("multistart must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True, eq=False)
class MonotoneProfile:
    """Non-decreasing parameter path on the uniform grid j/M, ending at
    theta_right.  Strict increase (increments >= 1e-8 * width) is required
    only where a finite path rate is needed."""

    values: np.ndarray
    bounds: BoundaryParams

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if self.bounds.width <= 0.0:
            raise ValueError("monotone profiles require theta_left < theta_right")
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("profile grid needs at least two values")
        if not np.all(np.isfinite(vals)):
            raise ValueError("profile values must be finite")
        if np.any(np.diff(vals) < -1e-12 * self.bounds.width):
            raise ValueError("profile values must be non-decreasing")
        if vals[0] < self.bounds.theta_left - 1e-9 * max(1.0, self.bounds.width):
            raise ValueError("profile values must be >= theta_left")
        if abs(vals[-1] - self.bounds.theta_right) > 1e-9 * max(1.0, self.bounds.width):
            raise ValueError("profile must end at theta_right")

    @property
    def m_cells(self) -> int:
        return self.values.size - 1

    @property
    def abscissae(self) -> np.ndarray:
        return np.arange(self.values.size) / self.m_cells

    def interpolate(self, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.abscissae, self.values)

    @classmethod
    def linear(cls, bounds: BoundaryParams, m_cells: int) -> "MonotoneProfile":
        vals = bounds.theta_left + bounds.width * (np.arange(m_cells + 1) / m_cells)
        vals[-1] = bounds.theta_right
        return cls(values=vals, bounds=bounds)


class _FreeEnergyTable:
    """State masses of the free-energy evaluator at each theta, built once
    and evaluated at any number of lambda vectors paired with the thetas.

    F(theta, lambda) is the log of the leading eigenvalue Lambda of the
    transfer kernel K(w, w') = nu_theta(n_k) * exp(lambda * g(n_1..n_k)) on
    the (c+1)^(k-1) window states w = (n_1..n_{k-1}), w' = (n_2..n_k),
    with the whole tail n >= c in state c.  All nodes sit on the leading
    axis Z of one kernel stack, and one power iteration converges the right
    and left Perron vectors r, l of every node together; each node drops
    out at its own stop, so its values do not depend on the batch.  Then
    Lambda = <l, K r> / <l, r>, whose error is quadratic in that of the
    vectors, and the derivatives follow from Hellmann-Feynman,
    d Lambda = <l, dK r> / <l, r>.  At k = 1 the kernel has one state,
    r = l = 1, and Lambda = sum_n nu_theta(n) exp(lambda * g(n)) needs no
    iteration.  exp(lambda * (g - s)) tilts the kernel, s the value of g's
    range nearest 0, and lambda * s is added back to F, so that no state
    underflows where all of g lies far from 0; the derivatives are ratios.
    """

    def __init__(self, thetas: np.ndarray, g: LocalFunction) -> None:
        self.thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        if not np.all(np.isfinite(self.thetas) & (self.thetas >= 0)):
            raise ValueError("theta must be finite and >= 0")
        self.gvals = _g_grid(g)
        _check_cells(
            self.thetas.size * self.gvals.size,
            f"the transfer kernels of {self.thetas.size} nodes at k={g.k}, c={g.saturation}",
        )
        self.w, self.dw = _weight_tables(self.thetas, g.saturation)
        self.shift = float(np.clip(0.0, self.gvals.min(), self.gvals.max()))

    def take(self, mask: np.ndarray) -> "_FreeEnergyTable":
        """The table restricted to the nodes selected by a mask or index array."""
        sub = copy.copy(self)
        sub.thetas, sub.w, sub.dw = self.thetas[mask], self.w[mask], self.dw[mask]
        return sub

    def __call__(self, lams, tilted: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """F, dF/dlambda and dF/dtheta at ``lams``; with ``tilted``, the log
        of the tilted kernel's eigenvalue, F - lambda * s, in place of F."""
        lams = np.broadcast_to(np.asarray(lams, dtype=float), self.thetas.shape)
        if not np.all(np.isfinite(lams)):
            raise ValueError("lambda must be finite")
        k, states, n = self.gvals.ndim, self.gvals.shape[0], lams.size
        node = (n,) + (1,) * (k - 1)  # one value per node, broadcast over the window
        sites = string.ascii_lowercase[:k]
        right = f"Z{sites},Z{sites[1:]}->Z{sites[:-1]}"
        left = f"Z{sites[:-1]},Z{sites}->Z{sites[1:]}"
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            tilt = np.exp(lams.reshape(node + (1,)) * (self.gvals - self.shift))
            t = tilt * self.w.reshape(node + (states,))
            r = np.full((n,) + (states,) * (k - 1), float(states) ** (1 - k))
            l = r.copy()
            # a k = 1 kernel has one state, r = l = 1, and nothing to iterate
            eigen, idx = np.full((2, n), np.nan), np.arange(n if k > 1 else 0)
            for _ in range(_POWER_ITERATION_CAP):
                if not idx.size:
                    break
                kr, kl = np.einsum(right, t[idx], r[idx]), np.einsum(left, l[idx], t[idx])
                new = np.stack([x.reshape(idx.size, -1).sum(axis=1) for x in (kr, kl)])
                r[idx] = kr / new[0].reshape((-1,) + node[1:])
                l[idx] = kl / new[1].reshape((-1,) + node[1:])
                settled = np.abs(new - eigen[:, idx]) <= _EIGEN_TOL * np.maximum(1.0, new)
                # a node whose iterate leaves the floating-point range stops too
                done = settled.all(axis=0) | ~((new > 0.0) & np.isfinite(new)).all(axis=0)
                eigen[:, idx] = new
                idx = idx[~done]
            if idx.size:
                raise NumericError(
                    f"power iteration did not converge within {_POWER_ITERATION_CAP} steps "
                    f"at theta={self.thetas[idx[0]]}, lambda={lams[idx[0]]}"
                )
            # <l, K r>, <l, dK/dlambda r> and <l, dK/dtheta r> of every node
            kernels = np.stack([t, t * self.gvals, tilt * self.dw.reshape(node + (states,))])
            lk = np.einsum(f"Z{sites[:-1]},YZ{sites}->YZ{sites[1:]}", l, kernels)
            norm, d_lam, d_theta = (lk * r).reshape(3, n, -1).sum(axis=2)
            log_tilted = np.log(norm / (l * r).reshape(n, -1).sum(axis=1))
            f = log_tilted + lams * self.shift
            f_lam, f_theta = d_lam / norm, d_theta / norm
        finite = np.isfinite(f) & np.isfinite(f_lam) & np.isfinite(f_theta)
        if not np.all(finite):
            bad = int(np.argmin(finite))
            raise NumericError(
                f"exp(lambda * g) leaves the floating-point range at "
                f"theta={self.thetas[bad]}, lambda={lams[bad]}"
            )
        return log_tilted if tilted else f, f_lam, f_theta


def free_energy(thetas, lams, g: LocalFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F(theta, lambda), dF/dlambda and dF/dtheta at paired nodes (thetas
    and lams broadcast against each other).

    g must declare its saturation c.  F is the log of the leading
    eigenvalue of the transfer kernel on the saturated states, with
    derivatives from the Perron vectors; for k = 1 it is the exact sum
    F = log sum_n exp(lam * g(n)) nu_theta(n).
    """
    thetas, lams = np.broadcast_arrays(
        np.atleast_1d(np.asarray(thetas, dtype=float)), np.asarray(lams, dtype=float)
    )
    return _FreeEnergyTable(thetas, g)(lams)


def _legendre(
    thetas: np.ndarray, xs: np.ndarray, g: LocalFunction
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sup_lam(lam*x - F) at paired (theta, x) nodes: (rate values,
    maximizing lambdas, dF/dtheta there); +inf where x falls outside
    [g_lo, g_hi], the closure of the range of dF/dlambda.

    With s = (dF/dlambda - g_lo)/(g_hi - g_lo), secant steps solve
    logit(s(lam)) = logit(s(x)) from lam = 0, where F vanishes; the first
    slope, g_hi - g_lo, is exact for two-valued g.  A step that is not
    finite or leaves the node's bracket is replaced by bisection.  The
    first bracket is [-cap, cap], cap = 600 / max|g|, which keeps
    exp(lam * g) finite.  On a side where lam * g <= 0 for every value of
    g, exp(lam * g) cannot overflow, so a node whose root lies beyond that
    end has the end doubled until it brackets x, and is solved between the
    last two ends.  At x = g_lo or g_hi the sup is approached as
    lambda -> -+inf, and the value at the cap is returned as its lower
    estimate.  At theta = 0 every site is empty, so the law is the point
    mass at g(0, ..., 0): the rate is 0 at that x and +inf at every other
    x, with no solve.
    """
    table = _FreeEnergyTable(thetas, g)
    xs = np.broadcast_to(np.atleast_1d(np.asarray(xs, dtype=float)), table.thetas.shape)
    if not np.all(np.isfinite(xs)):
        raise ValueError("x must be finite")
    g_lo, g_hi = float(table.gvals.min()), float(table.gvals.max())
    cap = 600.0 / (max(abs(g_lo), abs(g_hi)) or 1.0)
    empty = table.thetas == 0.0
    at_mass = empty & (np.abs(xs - table.gvals[(0,) * table.gvals.ndim]) <= 1e-12)
    interior = ~empty & (xs > g_lo + 1e-12) & (xs < g_hi - 1e-12)
    boundary = ~empty & ~interior & (xs >= g_lo) & (xs <= g_hi)
    lam = np.where(boundary, np.where(xs >= (g_lo + g_hi) / 2.0, cap, -cap), 0.0)

    def solve(idx: np.ndarray, lo: float, hi: float, at: float) -> None:
        """lam at the interior nodes ``idx``, by secant steps from ``at``
        inside the bracket [lo, hi]."""
        lo, hi, at = (np.full(idx.size, v) for v in (lo, hi, at))
        nodes, x = table.take(idx), xs[idx]
        target = np.log((x - g_lo) / (g_hi - x))
        slope = np.full(idx.size, g_hi - g_lo)
        last_at = last_r = np.full(idx.size, np.nan)
        for _ in range(_LEGENDRE_ITERATION_CAP):
            if not idx.size:
                return
            d = nodes(at)[1]
            with np.errstate(divide="ignore", invalid="ignore"):
                r = np.log((d - g_lo) / (g_hi - d)) - target
                secant = (r - last_r) / (at - last_at)
            lo, hi = np.where(d < x, at, lo), np.where(d < x, hi, at)
            slope = np.where(np.isfinite(secant) & (secant > 0.0), secant, slope)
            nxt = at - r / slope
            tol = 1e-12 * np.maximum(1.0, np.abs(at))
            # test the step before the bracket, so that a rounding-level step converges
            converged = np.abs(nxt - at) <= tol
            nxt = np.where(converged | ((nxt > lo) & (nxt < hi)), nxt, (lo + hi) / 2.0)
            done = converged | (hi - lo <= tol)
            lam[idx[done]] = nxt[done]
            keep = ~done
            idx, nodes, x, target = idx[keep], nodes.take(keep), x[keep], target[keep]
            lo, hi, slope = lo[keep], hi[keep], slope[keep]
            at, last_at, last_r = nxt[keep], at[keep], r[keep]
        if idx.size:
            raise NumericError(
                f"Legendre solve did not converge at theta={nodes.thetas[0]}, x={x[0]}"
            )

    idx = np.flatnonzero(interior)
    solve(idx, -cap, cap, 0.0)
    for side, safe in ((-1.0, g_lo >= 0.0), (1.0, g_hi <= 0.0)):
        # the nodes stopped at this end, and of those the ones whose root
        # lies beyond it, where dF/dlambda still falls short of x
        near, end = idx[safe & (np.abs(lam[idx] - side * cap) <= 1e-9 * cap)], side * cap
        # the loop ends: far enough out exp(lam * g) underflows, and dF/dlambda
        # reaches g_lo or g_hi exactly, or F leaves the range (NumericError)
        while near.size:
            short = side * (table.take(near)(end)[1] - xs[near]) < 0.0
            if end != side * cap:  # the others' roots lie between end / 2 and end
                solve(near[~short], *sorted((end, end / 2.0)), end / 2.0)
            near, end = near[short], 2.0 * end
    # lam * x - F as lam * (x - s) - (F - lam * s), with no cancellation of
    # the two lam * s terms where g lies far from 0
    log_tilted, _, f_theta = table(lam, tilted=True)
    rate = lam * (xs - table.shift) - log_tilted
    # lambda = 0 at the point mass, where F vanishes and the rate is 0
    rates = np.where(interior | boundary | at_mass, np.maximum(rate, 0.0), math.inf)
    return rates, lam, f_theta


def rate_function(theta: float, x: float, g: LocalFunction) -> float:
    """Level-1 rate sup_lambda (lambda * x - F(theta, lambda)).

    Returns +inf when x lies outside the closure of the range of
    dF/dlambda (equivalently outside the value range of g).
    """
    return float(_legendre(np.array([theta]), np.array([x]), g)[0][0])


def rate_function_batch(theta: float, xs, g: LocalFunction) -> np.ndarray:
    """``rate_function`` at every x of ``xs``, from one Legendre solve.

    The values are those of ``rate_function`` at each x alone.  The solve
    evaluates |xs| transfer kernels of (c+1)^k cells at once, so the cell
    budget caps |xs| * (c+1)^k.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    return _legendre(np.full(xs.size, float(theta)), xs, g)[0]


def path_rate(u: MonotoneProfile) -> float:
    """Log-slope rate of a monotone profile:
    -(1/M) * sum_j log(M * (u_{j+1} - u_j) / width).

    Exactly zero for the linear profile from theta_left; +inf when any
    increment falls below 1e-8 * width, in particular for any
    non-strictly-increasing discretization.
    """
    width = u.bounds.width
    incs = np.diff(u.values)
    if np.any(incs < 0):
        raise ValueError("profile increments must be non-negative")
    # rounding slack so solver output sitting exactly at the least increment passes
    if np.any(incs < _DELTA_MIN * width * (1.0 - 1e-9)):
        return math.inf
    m = u.m_cells
    return float(-np.sum(np.log(m * incs / width)) / m)


def inhom_free_energy(u: MonotoneProfile, phi: TestFunction, g: LocalFunction) -> float:
    """Integral of x -> F(u(x), phi(x); g) with u piecewise linear.

    phi supplies the pointwise tilt strength."""

    def evaluate(panels: int) -> float:
        x, w = _composite_nodes(panels)
        return float(w @ free_energy(u.interpolate(x), phi(x), g)[0])

    return _refine(evaluate, "inhomogeneous free energy")


def _starts(bounds: BoundaryParams, solver: SolverConfig) -> list[np.ndarray]:
    """Solver start profiles on solver.grid_size cells: the linear one, then
    multistart - 1 random ones from solver.seed, whose increments are the
    least increment plus exponential draws scaled to fill the width, with
    u_0 - theta_left one more draw times a uniform one."""
    m, delta_min = solver.grid_size, _DELTA_MIN * bounds.width
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(solver.seed)))
    starts = [MonotoneProfile.linear(bounds, m).values]
    for _ in range(solver.multistart - 1):
        raw = rng.exponential(size=m + 1)
        raw[0] *= rng.random()  # keep the left endpoint low on average
        e = raw / raw.sum() * (bounds.width - m * delta_min)
        vals = bounds.theta_left + e[0] + np.concatenate(([0.0], np.cumsum(delta_min + e[1:])))
        vals[-1] = bounds.theta_right
        starts.append(vals)
    return starts


def _cell_nodes(m_cells: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss nodes per profile cell: (x, weights, the in-cell coordinates
    of one cell's nodes)."""
    xg, wg = _GAUSS_LEGENDRE[_CELL_NODES]
    tau = (xg + 1.0) / 2.0
    cells = np.arange(m_cells)[:, None]
    x = ((cells + tau[None, :]) / m_cells).ravel()
    w = np.tile(wg / (2.0 * m_cells), m_cells)
    return x, w, tau


def _path_objective(
    bounds: BoundaryParams,
    m_cells: int,
    strength: TestFunction,
    node_terms: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    sign: float,
) -> Callable[[np.ndarray], tuple[float, np.ndarray, np.ndarray, np.ndarray]]:
    """u -> (G, gradient, Hessian diagonal, Hessian off-diagonal) of
    G(u) = J(u) - sign * (integral of an integrand along u), in the profile
    values u_0..u_{M-1}; u_M = theta_right is fixed.

    ``node_terms(u(x), strength(x))`` gives the integrand and its
    theta-derivative at the Gauss nodes x of the profile cells.  Each node
    touches the two values of its cell through the hat basis, and J couples
    only neighbours, so the Hessian is tridiagonal.  J's part is exact; the
    integrand's comes from one curvature per node, a forward difference
    (step 1e-6 * width) of the theta-derivative, with negative curvatures
    set to 0 so that the Hessian stays positive definite.  A non-finite
    integrand gives G = +inf.
    """
    m = m_cells
    x, w, tau = _cell_nodes(m)
    # hat-basis weights of a cell's nodes on its left and right values
    left, right = 1.0 - tau, tau
    grid = np.arange(m + 1) / m
    sx = np.asarray(strength(x), dtype=float)
    step = 1e-6 * bounds.width

    def objective(vals: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        u = np.interp(x, grid, vals)
        f, f_theta = node_terms(u, sx)
        if not np.all(np.isfinite(f)):
            return math.inf, None, None, None
        curvature = -sign * (node_terms(u + step, sx)[1] - f_theta) / step
        w_grad = (-sign * w * f_theta).reshape(m, _CELL_NODES)
        w_curv = (w * np.where(curvature > 0.0, curvature, 0.0)).reshape(m, _CELL_NODES)
        incs = np.diff(vals)
        j_grad, j_curv = 1.0 / (m * incs), 1.0 / (m * incs**2)
        value = -sign * float(w @ f) - float(np.sum(np.log(m * incs / bounds.width)) / m)
        # each cell's terms on its left value, then on its right one (u_M is fixed)
        grad = w_grad @ left + j_grad
        grad[1:] += (w_grad @ right - j_grad)[:-1]
        diag = w_curv @ left**2 + j_curv
        diag[1:] += (w_curv @ right**2 + j_curv)[:-1]
        return value, grad, diag, (w_curv @ (left * right) - j_curv)[:-1]

    return objective


def _thomas(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the symmetric tridiagonal system with this diagonal and
    off-diagonal by elimination without pivoting, which the positive
    definite systems of the Newton steps allow."""
    c, d, lower = [0.0], [0.0], 0.0
    for a_i, r_i, b_i in zip(diag.tolist(), rhs.tolist(), off.tolist() + [0.0]):
        denom = a_i - lower * c[-1]
        c.append(b_i / denom)
        d.append((r_i - lower * d[-1]) / denom)
        lower = b_i
    x = [0.0]
    for c_i, d_i in zip(c[:0:-1], d[:0:-1]):
        x.append(d_i - c_i * x[-1])
    return np.array(x[:0:-1])


def _newton(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray, np.ndarray, np.ndarray]],
    start: np.ndarray,
    bounds: BoundaryParams,
    max_iterations: int,
) -> tuple[float, np.ndarray]:
    """Minimize a :func:`_path_objective` from a start profile by Newton
    steps, with Armijo backtracking that keeps every increment >=
    _DELTA_MIN * width.  A step that would take u_0 below theta_left is cut
    there, and the other values take the model's Newton step with u_0 held
    at theta_left.  Stops when the Newton decrement (the gain the quadratic
    model promises) reaches rounding, when no step gains, or after
    max_iterations steps; returns (G, profile values)."""
    lo, delta_min = bounds.theta_left, _DELTA_MIN * bounds.width
    u = start
    value, grad, diag, off = objective(u)
    if not math.isfinite(value):
        return value, u
    for _ in range(max_iterations):
        step = np.zeros(u.size)
        step[:-1] = -_thomas(diag, off, grad)
        if u[0] + step[0] < lo:
            step[0] = lo - u[0]
            rhs = grad[1:].copy()
            rhs[0] += off[0] * step[0]
            step[1:-1] = -_thomas(diag[1:], off[1:], rhs)
        slope = float(grad @ step[:-1])
        if -slope <= 1e-15 * max(1.0, abs(value)):
            break
        t = 1.0
        while True:
            trial = u + t * step
            trial[0] = max(trial[0], lo)
            if np.all(np.diff(trial) >= delta_min):
                cand = objective(trial)
                if cand[0] <= value + 1e-4 * t * slope:
                    break
            t /= 2.0
            if t < 1e-12:
                return value, u
        u, (value, grad, diag, off) = trial, cand
    return value, u


@dataclass(frozen=True)
class VariationalResult:
    """Optimum over monotone profiles, the profile that attains it, and the
    value each solver start reached."""

    value: float
    profile: MonotoneProfile
    start_values: tuple[float, ...]


def _optimize_profile(
    strength: TestFunction,
    node_terms: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    bounds: BoundaryParams,
    solver: SolverConfig,
    sign: float,
) -> VariationalResult:
    """sup (sign = 1) or inf (sign = -1) over monotone profiles of
    [integral of node_terms along u - sign * J(u)], by Newton steps on the
    profile values from each start of :func:`_starts`; the best finite
    start wins."""
    if bounds.width <= 0.0:
        raise ValueError("the variational problems require theta_left < theta_right")
    objective = _path_objective(bounds, solver.grid_size, strength, node_terms, sign)
    results = [_newton(objective, s, bounds, solver.max_iterations) for s in _starts(bounds, solver)]
    finite = [r for r in results if math.isfinite(r[0])]
    if not finite:
        raise OptimizationError("every solver start hit an infeasible profile")
    g_min, vals = min(finite, key=lambda r: r[0])
    return VariationalResult(
        value=-sign * g_min,
        profile=MonotoneProfile(values=vals, bounds=bounds),
        start_values=tuple(-sign * r[0] for r in results),
    )


def _quantiles(xs: np.ndarray, q: np.ndarray, panels: int) -> np.ndarray:
    """C^-1(xs), for C the normalised integral of a positive density on
    [0, 1] given by its values q at the composite Gauss nodes of equal
    panels.  On each panel C follows the integral of the polynomial that
    interpolates q at the panel's nodes, whose total is the panel's Gauss
    sum; Newton steps, safeguarded by bisection, solve C(s) = x in the
    panel that holds x."""
    by_panel = q.reshape(panels, _NODES_PER_PANEL)
    coefs = _interpolant_coefficients(_NODES_PER_PANEL) @ by_panel.T
    # C at the panel edges, unnormalised, in the panel coordinate t in [-1, 1],
    # where a Legendre series integrates to twice its constant term
    edges = np.concatenate(([0.0], np.cumsum(2.0 * coefs[0])))
    goal = xs * edges[-1]
    panel = np.clip(np.searchsorted(edges, goal, side="right") - 1, 0, panels - 1)
    need, coefs = goal - edges[panel], coefs[:, panel]
    anti = legint(coefs, lbnd=-1.0, axis=0)
    lo, hi, t = np.full(xs.size, -1.0), np.ones(xs.size), np.zeros(xs.size)
    for _ in range(_QUANTILE_ITERATION_CAP):
        r = legval(t, anti, tensor=False) - need
        lo, hi = np.where(r < 0.0, t, lo), np.where(r < 0.0, hi, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = r / legval(t, coefs, tensor=False)
        nxt = t - step
        # test the step before the bracket, so that a rounding-level step converges
        converged = np.abs(step) <= _QUANTILE_TOL
        t = np.where(converged | ((nxt > lo) & (nxt < hi)), nxt, (lo + hi) / 2.0)
        if np.all(converged | (hi - lo <= _QUANTILE_TOL)):
            return (panel + (t + 1.0) / 2.0) / panels
    raise NumericError(f"quantile inversion did not converge in {_QUANTILE_ITERATION_CAP} steps")


def _annealed_constant(
    lam: float, g: LocalFunction, bounds: BoundaryParams, grid_size: int
) -> VariationalResult:
    """The annealed free energy at the constant strength lam, in closed form.

    With s = (u(x) - theta_left)/width for x uniform, J(u) is the relative
    entropy of the law of s against the uniform law, so by the Gibbs
    variational principle the sup is log Z, Z = integral over [0, 1] of
    exp F(theta_left + width * s, lam) ds, attained by the profile
    u(x) = theta_left + width * C^-1(x), C the normalised integral of
    exp F.  Z and the linear profile's value, the integral of F, come from
    one :func:`free_energy` call per panel refinement, and the profile is
    read off the panels of the last one at x = j / grid_size."""
    if bounds.width <= 0.0:
        raise ValueError("the variational problems require theta_left < theta_right")
    last = {}

    def evaluate(panels: int) -> np.ndarray:
        s, w = _composite_nodes(panels)
        f = free_energy(bounds.theta_left + bounds.width * s, lam, g)[0]
        top = float(f.max())
        last.update(panels=panels, q=np.exp(f - top))
        return np.array([top + math.log(w @ last["q"]), w @ f])

    value, linear = _refine(evaluate, "annealed free energy")
    s = _quantiles(np.arange(grid_size + 1) / grid_size, last["q"], last["panels"])
    vals = bounds.theta_left + bounds.width * s
    vals[-1] = bounds.theta_right
    return VariationalResult(
        value=float(value),
        profile=MonotoneProfile(values=vals, bounds=bounds),
        start_values=(float(linear),),
    )


def annealed_free_energy(
    phi: TestFunction,
    g: LocalFunction,
    bounds: BoundaryParams,
    solver: SolverConfig,
) -> VariationalResult:
    """sup over monotone profiles of [integral of F(u(x), phi(x)) - J(u)].

    A constant strength (``phi.constant`` is set) takes the closed form of
    :func:`_annealed_constant`; its ``start_values`` hold the linear
    profile's value, which the closed form never falls below (Jensen's
    inequality), and only ``solver.grid_size`` is read.  Any other phi is
    solved by Newton steps: the free energy and its theta-derivative come
    from one :func:`free_energy` call per iterate and the curvature from
    one more, and the path rate's derivatives are analytic.  Each start
    accepts only improvements and the linear profile is one of the starts,
    so the value is never below the linear profile's.
    """
    if phi.constant is not None:
        return _annealed_constant(phi.constant, g, bounds, solver.grid_size)

    def node_terms(thetas: np.ndarray, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        f, _, f_theta = free_energy(thetas, lams, g)
        return f, f_theta

    return _optimize_profile(phi, node_terms, bounds, solver, sign=1.0)


def profile_rate(
    mu_density: TestFunction,
    g: LocalFunction,
    bounds: BoundaryParams,
    solver: SolverConfig,
) -> VariationalResult:
    """inf over monotone profiles of [integral of I(u(x), mu(x)) + J(u)].

    The gradient of the rate integral uses the envelope identity
    dI/dtheta = -dF/dtheta, with the analytic dF/dtheta evaluated at the
    maximizing lambda of each node.
    """

    def node_terms(thetas: np.ndarray, mus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rates, _, f_theta = _legendre(thetas, mus, g)
        return rates, -f_theta

    return _optimize_profile(mu_density, node_terms, bounds, solver, sign=-1.0)
