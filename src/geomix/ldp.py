"""Large-deviation machinery: free energies, rate functions, and the two
variational problems for the mixture measure.

For a bounded local function g, the homogeneous free energy
F(theta, lambda) is the exponential growth rate per site of
E[exp(lambda * sum of shifted g)] under the geometric product at theta.
One evaluator, :func:`free_energy`, returns F with its analytic lambda-
and theta-derivatives: geometric masses on the level sets of g for
k = 1, the left and right Perron vectors of a transfer kernel on
(k-1)-site windows for k >= 2.  Level-1 rates follow by Legendre
transform, solved by safeguarded secant steps in the logit of the tilted
mean.  The parameter-path rate J penalizes the log-slope of monotone
profiles, and the two variational problems (annealed free energy, rate
of a target profile) are solved by one projected-gradient solver, in
ascent or descent, over discretized monotone profiles in the increment
parametrization.
"""

from __future__ import annotations

import copy
import math
import string
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from geomix.core import BoundaryParams, LocalFunction
from geomix.asymptotics import (
    QuadratureError,
    _check_cells,
    _composite_nodes,
    _g_grid,
    _geometric_weights,
    _refine,
    _weight_tables,
)
from geomix.fields import TestFunction

__all__ = [
    "NumericError",
    "OptimizationError",
    "SolverConfig",
    "MonotoneProfile",
    "free_energy",
    "free_energy_transfer",
    "free_energy_finite_chain",
    "rate_function",
    "path_rate",
    "inhom_free_energy",
    "annealed_free_energy",
    "profile_rate",
    "VariationalResult",
]

# free energies sum the states n = 0..128 at every site; a fixed truncation
# keeps each node's lambda cap, and so its value, independent of its batch
_M_STATE = 128
_POWER_ITERATION_CAP = 20_000
_EIGEN_TOL = 1e-12
_LEGENDRE_ITERATION_CAP = 100
# projected gradient: first step, backtracking factor, and the move (relative
# to the increment budget) below which an accepted step counts as converged
_PGD_STEP = 0.25
_PGD_SHRINK = 0.5
_PGD_TOL = 1e-9
# Gauss nodes per profile cell of the path objectives
_CELL_NODES = 2
# least profile increment, relative to the width, of a finite path rate
_DELTA_MIN = 1e-8


class NumericError(RuntimeError):
    """Power iteration or root finding failed to converge."""


class OptimizationError(RuntimeError):
    """Every solver start hit an infeasible profile."""


_TAIL_TOL = 1e-9


def _state_grid(g: LocalFunction) -> np.ndarray:
    """g on the state grid [0, _M_STATE]^k; free energies need a bounded g."""
    if not g.bounded:
        raise ValueError("free energies require a bounded local function")
    return _g_grid(g, _M_STATE)


def _lambda_caps(thetas: np.ndarray, g: LocalFunction) -> np.ndarray:
    """Largest |lambda| per theta whose truncated tail stays certified:
    exp(|lam| * bound) * (theta/(1+theta))**(_M_STATE+1) <= tolerance,
    and exp(|lam| * bound) stays finite."""
    p = thetas / (1.0 + thetas)
    bound = max(float(g.bound), 1e-9)
    finite_cap = min(600.0 / bound, 1e6)
    with np.errstate(divide="ignore"):
        caps = (math.log(_TAIL_TOL) - (_M_STATE + 1) * np.log(p)) / bound
    caps = np.where(p == 0.0, finite_cap, caps)
    # shave a rounding margin so evaluation at the cap stays certified
    return np.clip(caps * (1.0 - 1e-9), 1.0, finite_cap)


@dataclass(frozen=True)
class SolverConfig:
    """Projected-gradient solver settings (exposed through the CLI)."""

    max_iterations: int = 4000
    multistart: int = 4
    seed: int = 0
    grid_size: int = 200

    def __post_init__(self) -> None:
        if self.grid_size < 2:
            raise ValueError("grid size must be >= 2")
        if self.multistart < 1:
            raise ValueError("multistart must be >= 1")


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


def _check_tail(thetas: np.ndarray, lams: np.ndarray, g: LocalFunction) -> None:
    """Certify the state truncation at every (theta, lambda) node: the
    dropped mass exp(|lam| * bound) * (theta/(1+theta))**(_M_STATE+1)."""
    if not np.all(np.isfinite(lams)):
        raise ValueError("lambda must be finite")
    p = thetas / (1.0 + thetas)
    errs = np.exp(np.abs(lams) * float(g.bound)) * p ** (_M_STATE + 1)
    if np.any(errs > _TAIL_TOL):
        worst = int(np.argmax(errs))
        raise QuadratureError(
            f"state truncation {_M_STATE} leaves tail {errs[worst]:.2e} at "
            f"theta={thetas[worst]}, lambda={lams[worst]}"
        )


def _perron(theta: float, lam: float, gvals: np.ndarray) -> tuple[float, float, float]:
    """(log Lambda, d log Lambda/d lambda, d log Lambda/d theta) for the
    leading eigenvalue Lambda of the transfer kernel.

    The kernel acts on (k-1)-site windows,
    K(w, w') = nu_theta(n_k) * exp(lam * g(n_1, ..., n_k)) for
    w = (n_1..n_{k-1}), w' = (n_2..n_k); single-site functions are lifted
    to a two-site kernel.  One power iteration converges the right and
    left Perron vectors r, l together, and the derivatives follow from
    Hellmann-Feynman: d Lambda = <l, dK r> / <l, r>.
    """
    k, m = max(gvals.ndim, 2), _M_STATE
    gk = np.broadcast_to(gvals.reshape(gvals.shape + (1,) * (k - gvals.ndim)), (m + 1,) * k)
    w, dw = _weight_tables(np.array([theta]), m)
    last = (1,) * (k - 1) + (m + 1,)
    tilt = np.exp(lam * gk)
    t = tilt * w[0].reshape(last)
    letters = string.ascii_lowercase[:k]
    right = f"{letters},{letters[1:]}->{letters[:-1]}"
    left = f"{letters[:-1]},{letters}->{letters[1:]}"
    r = np.full((m + 1,) * (k - 1), 1.0 / (m + 1) ** (k - 1))
    l = r.copy()
    eigen = np.full(2, np.nan)
    for _ in range(_POWER_ITERATION_CAP):
        kr, kl = np.einsum(right, t, r), np.einsum(left, l, t)
        new_eigen = np.array([kr.sum(), kl.sum()])
        if not np.all((new_eigen > 0.0) & np.isfinite(new_eigen)):
            raise NumericError(f"degenerate transfer iterate at theta={theta}, lam={lam}")
        r, l = kr / new_eigen[0], kl / new_eigen[1]
        if np.all(np.abs(new_eigen - eigen) <= _EIGEN_TOL * np.maximum(1.0, new_eigen)):
            break
        eigen = new_eigen
    else:
        raise NumericError(
            f"power iteration did not converge within {_POWER_ITERATION_CAP} steps"
        )
    pair = f"{letters[:-1]},{letters},{letters[1:]}->"
    norm = float(np.einsum(pair, l, t, r))  # Lambda * <l, r>
    d_lam = float(np.einsum(pair, l, t * gk, r)) / norm
    d_theta = float(np.einsum(pair, l, tilt * dw[0].reshape(last), r)) / norm
    return math.log(new_eigen[0]), d_lam, d_theta


class _FreeEnergyTable:
    """Per-theta state tables of the free-energy evaluator, built once and
    evaluated at any number of lambda vectors paired with the thetas.  For
    k = 1 they hold the masses of nu_theta and d nu_theta/d theta on each
    level set of g, in closed form per run of equal g, so building costs
    O(nodes * runs) and one evaluation O(nodes * distinct values of g)."""

    def __init__(self, thetas: np.ndarray, g: LocalFunction) -> None:
        self.thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        if not np.all(np.isfinite(self.thetas) & (self.thetas >= 0)):
            raise ValueError("theta must be finite and >= 0")
        self.g = g
        self.gvals = _state_grid(g)
        if g.k == 1:
            # runs of equal g, gathered by level; every level holds a run
            self.levels, level_of = np.unique(self.gvals, return_inverse=True)
            starts = np.flatnonzero(np.diff(level_of, prepend=-1))
            _check_cells(
                self.thetas.size * starts.size,
                f"the run table of {self.thetas.size} nodes and {starts.size} runs",
            )
            order = np.argsort(level_of[starts], kind="stable")
            firsts = np.searchsorted(level_of[starts][order], np.arange(self.levels.size))
            ends = np.append(starts[1:] - 1, _M_STATE)
            p = (self.thetas / (1.0 + self.thetas))[:, None]
            # run [a, b] holds p^a - p^(b+1) = p^a (1 - p^(b-a+1)), free of
            # cancellation; log p = -inf at theta = 0 gives the mass 0^a
            with np.errstate(divide="ignore"):
                runs = p**starts * -np.expm1((ends - starts + 1) * np.log(p))
            # summation by parts, exact at theta = 0: sum_n d nu(n)/d theta t(n)
            # = (1-p) sum_n nu(n) (n+1) (t(n+1) - t(n)) with t(m+1) = 0, so for
            # t a level indicator only the last state n of each run contributes
            moved = p**ends * (1.0 - p) * (ends + 1.0) / (1.0 + self.thetas)[:, None]
            d_runs = -np.diff(moved, axis=1, prepend=0.0)
            self.mass = np.add.reduceat(runs[:, order], firsts, axis=1)
            self.d_mass = np.add.reduceat(d_runs[:, order], firsts, axis=1)

    def take(self, mask: np.ndarray) -> "_FreeEnergyTable":
        """The table restricted to the nodes selected by a mask or index array."""
        sub = copy.copy(self)
        sub.thetas = self.thetas[mask]
        if self.g.k == 1:
            sub.mass, sub.d_mass = self.mass[mask], self.d_mass[mask]
        return sub

    def __call__(self, lams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lams = np.broadcast_to(np.asarray(lams, dtype=float), self.thetas.shape)
        _check_tail(self.thetas, lams, self.g)
        if self.g.k == 1:
            # F = log Z, dF/dlambda the tilted mean of g, dF/dtheta the
            # tilted sum of d nu/d theta, all over Z = sum nu * exp(lam g);
            # row-wise sums keep each node independent of the batch
            tilt = np.exp(lams[:, None] * self.levels[None, :])
            tilted = self.mass * tilt
            z = np.sum(tilted, axis=1)
            f_lam = np.sum(tilted * self.levels, axis=1) / z
            return np.log(z), f_lam, np.sum(self.d_mass * tilt, axis=1) / z
        rows = [_perron(t, l, self.gvals) for t, l in zip(self.thetas, lams)]
        out = np.array(rows, dtype=float).reshape(lams.size, 3)
        return out[:, 0], out[:, 1], out[:, 2]


def free_energy(thetas, lams, g: LocalFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F(theta, lambda), dF/dlambda and dF/dtheta at paired nodes (thetas
    and lams broadcast against each other).

    g must be bounded.  For k = 1, F = log sum_n exp(lam * g(n))
    nu_theta(n) is a sum truncated at n = 128; for k >= 2 it is the log of
    the leading transfer-kernel eigenvalue, with derivatives from the
    Perron vectors.  Every node's truncation tail is certified against
    exp(|lam| * bound) times the geometric tail.
    """
    thetas, lams = np.broadcast_arrays(
        np.atleast_1d(np.asarray(thetas, dtype=float)), np.asarray(lams, dtype=float)
    )
    return _FreeEnergyTable(thetas, g)(lams)


def free_energy_transfer(theta: float, lam: float, g: LocalFunction) -> float:
    """Free energy of g via the leading transfer-kernel eigenvalue (power
    iteration; single-site g is lifted to a two-site kernel, which
    reproduces the k = 1 sum of :func:`free_energy`)."""
    gvals = _state_grid(g)
    _check_tail(np.array([theta]), np.array([lam]), g)
    return _perron(theta, lam, gvals)[0]


def free_energy_finite_chain(theta: float, lam: float, g: LocalFunction, n_sites: int) -> float:
    """Exact (1/N) log E[exp(lam * sum of shifted g)] on a finite chain.

    Repeated application of the transfer kernel (with running
    renormalization) against the window marginal; the large-N limit of
    this quantity is :func:`free_energy_transfer`.
    """
    if g.k == 1:
        # all N windows tilt independently, so the per-site value is exact
        return float(free_energy(theta, lam, g)[0][0])
    k = g.k
    if n_sites < k:
        raise ValueError(f"chain of {n_sites} sites is shorter than the window {k}")
    gvals = _state_grid(g)
    _check_tail(np.array([theta]), np.array([lam]), g)
    w = _geometric_weights(np.array([theta]), _M_STATE)[0]
    t = np.exp(lam * gvals) * w
    letters = string.ascii_lowercase[:k]
    sub = f"{letters},{letters[1:]}->{letters[:-1]}"
    v = np.ones((_M_STATE + 1,) * (k - 1))
    log_total = 0.0
    for _ in range(n_sites - k + 1):
        v = np.einsum(sub, t, v)
        norm = float(v.sum())
        log_total += math.log(norm)
        v /= norm
    marginal = w
    for _ in range(k - 2):
        marginal = np.multiply.outer(marginal, w)
    return (log_total + math.log(float(np.sum(marginal * v)))) / n_sites


def _legendre(
    thetas: np.ndarray, xs: np.ndarray, g: LocalFunction
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sup_lam(lam*x - F) at paired (theta, x) nodes: (rate values,
    maximizing lambdas, dF/dtheta there); +inf where x falls outside
    [g_lo, g_hi], the closure of the range of dF/dlambda.

    With s = (dF/dlambda - g_lo)/(g_hi - g_lo), secant steps solve
    logit(s(lam)) = logit(s(x)) from lam = 0, where the untruncated F
    vanishes; the first slope, g_hi - g_lo, is exact for two-valued g.  A
    step that is not finite or leaves the node's bracket in [-cap, cap]
    is replaced by bisection.  At x = g_lo or g_hi the sup is approached
    as lambda -> -+inf and bounded below by the value at the cap.
    """
    table = _FreeEnergyTable(thetas, g)
    xs = np.broadcast_to(np.atleast_1d(np.asarray(xs, dtype=float)), table.thetas.shape)
    if not np.all(np.isfinite(xs)):
        raise ValueError("x must be finite")
    g_lo, g_hi = float(table.gvals.min()), float(table.gvals.max())
    caps = _lambda_caps(table.thetas, g)
    interior = (xs > g_lo + 1e-12) & (xs < g_hi - 1e-12)
    boundary = ~interior & (xs >= g_lo) & (xs <= g_hi)
    lam = np.where(boundary, np.where(xs >= (g_lo + g_hi) / 2.0, caps, -caps), 0.0)
    idx = np.flatnonzero(interior)
    nodes, x, hi = table.take(idx), xs[idx], caps[idx]
    target, lo = np.log((x - g_lo) / (g_hi - x)), -hi
    at, slope = np.zeros(idx.size), np.full(idx.size, g_hi - g_lo)
    last_at = last_r = np.full(idx.size, np.nan)
    for _ in range(_LEGENDRE_ITERATION_CAP):
        if not idx.size:
            break
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
        raise NumericError(f"Legendre solve did not converge at theta={nodes.thetas[0]}, x={x[0]}")
    f, _, f_theta = table(lam)
    rates = np.where(interior | boundary, np.maximum(lam * xs - f, 0.0), math.inf)
    return rates, lam, f_theta


def rate_function(theta: float, x: float, g: LocalFunction) -> float:
    """Level-1 rate sup_lambda (lambda * x - F(theta, lambda)).

    Returns +inf when x lies outside the closure of the range of
    dF/dlambda (equivalently outside the value range of g).
    """
    return float(_legendre(np.array([theta]), np.array([x]), g)[0][0])


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


def _project_capped_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = total}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    idx = np.arange(1, v.size + 1)
    pos = u - css / idx > 0
    rho = idx[pos][-1]
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


@dataclass(frozen=True)
class _ProfileParam:
    """Increment parametrization u_0 = theta_left + e[0],
    d_j = delta_min + e[1+j], with e >= 0 and sum(e) = budget."""

    bounds: BoundaryParams
    m_cells: int

    @property
    def delta_min(self) -> float:
        return _DELTA_MIN * self.bounds.width

    @property
    def budget(self) -> float:
        return self.bounds.width - self.m_cells * self.delta_min

    def to_values(self, e: np.ndarray) -> np.ndarray:
        u0 = self.bounds.theta_left + e[0]
        incs = self.delta_min + e[1:]
        vals = np.concatenate(([u0], u0 + np.cumsum(incs)))
        vals[-1] = self.bounds.theta_right
        return vals

    def linear_start(self) -> np.ndarray:
        e = np.full(self.m_cells + 1, self.budget / self.m_cells)
        e[0] = 0.0
        return e

    def starts(self, solver: SolverConfig) -> list[np.ndarray]:
        """The linear start, then multistart - 1 random ones from solver.seed."""
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(solver.seed)))
        starts = [self.linear_start()]
        for _ in range(solver.multistart - 1):
            raw = rng.exponential(size=self.m_cells + 1)
            raw[0] *= rng.random()  # keep the left endpoint low on average
            starts.append(raw / raw.sum() * self.budget)
        return starts


def _cell_nodes(m_cells: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss nodes per profile cell: (x, weights, in-cell coordinates)."""
    xg, wg = leggauss(_CELL_NODES)
    tau = (xg + 1.0) / 2.0
    cells = np.arange(m_cells)[:, None]
    x = ((cells + tau[None, :]) / m_cells).ravel()
    w = np.tile(wg / (2.0 * m_cells), m_cells)
    return x, w, np.tile(tau, m_cells)


def _path_objective(
    param: _ProfileParam,
    strength: TestFunction,
    node_terms: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    j_sign: float,
) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """e -> (integral of an integrand along u + j_sign * J(u), its e-gradient).

    ``node_terms(u(x), strength(x))`` gives the integrand and its u-derivative
    at the Gauss nodes x of the profile cells.  The gradient chains through
    the hat basis to du_j, then through the suffix sums of the increment
    parametrization.  A non-finite integrand gives the worst value, j_sign * inf.
    """
    m = param.m_cells
    x, w, tau = _cell_nodes(m)
    tau_c = tau.reshape(m, _CELL_NODES)
    grid = np.arange(m + 1) / m
    sx = np.asarray(strength(x), dtype=float)

    def objective(e: np.ndarray) -> tuple[float, np.ndarray]:
        vals = param.to_values(e)
        node_vals, node_grads = node_terms(np.interp(x, grid, vals), sx)
        if not np.all(np.isfinite(node_vals)):
            return j_sign * math.inf, np.zeros(m + 1)
        per_cell = (w * node_grads).reshape(m, _CELL_NODES)
        grad_u = np.zeros(m + 1)
        grad_u[:-1] += np.sum(per_cell * (1.0 - tau_c), axis=1)
        grad_u[1:] += np.sum(per_cell * tau_c, axis=1)
        incs = np.diff(vals)
        j_val = float(-np.sum(np.log(m * incs / param.bounds.width)) / m)
        suffix = np.cumsum(grad_u[::-1])[::-1]
        grad_e = np.empty(m + 1)
        grad_e[0] = suffix[0]
        grad_e[1:] = suffix[1:] + j_sign * (-1.0 / (m * incs))
        return float(w @ node_vals) + j_sign * j_val, grad_e

    return objective


def _pgd(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]],
    start: np.ndarray,
    param: _ProfileParam,
    solver: SolverConfig,
    sign: float,
) -> tuple[float, np.ndarray]:
    """Projected gradient with backtracking, ascent for sign = 1 and descent
    for sign = -1; accepts only improvements and returns (value, e)."""
    e = _project_capped_simplex(start, param.budget)
    value, grad = objective(e)
    step = _PGD_STEP
    scale = max(param.budget, 1e-12)
    for _ in range(solver.max_iterations):
        moved = False
        while step > 1e-16 * scale:
            cand = _project_capped_simplex(e + sign * step * grad, param.budget)
            if not np.any(cand != e):
                break
            cand_value, cand_grad = objective(cand)
            improvement = sign * (cand_value - value)
            if improvement > 0.0:
                shift = float(np.max(np.abs(cand - e)))
                e, value, grad = cand, cand_value, cand_grad
                moved = True
                step /= _PGD_SHRINK
                # converged: the step or the gain has hit numerical noise
                if shift < _PGD_TOL * scale or improvement <= 1e-13 * max(1.0, abs(value)):
                    return value, e
                break
            step *= _PGD_SHRINK
        if not moved:
            return value, e
    return value, e


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
    [integral of node_terms along u - sign * J(u)], by projected gradient
    from the linear start and multistart - 1 random ones; the best finite
    start wins."""
    if bounds.width <= 0.0:
        raise ValueError("the variational problems require theta_left < theta_right")
    param = _ProfileParam(bounds, solver.grid_size)
    objective = _path_objective(param, strength, node_terms, j_sign=-sign)
    results = [_pgd(objective, s, param, solver, sign) for s in param.starts(solver)]
    finite = [r for r in results if math.isfinite(r[0])]
    if not finite:
        raise OptimizationError("every solver start hit an infeasible profile")
    value, e = max(finite, key=lambda r: sign * r[0])
    return VariationalResult(
        value=value,
        profile=MonotoneProfile(values=param.to_values(e), bounds=bounds),
        start_values=tuple(r[0] for r in results),
    )


def annealed_free_energy(
    phi: TestFunction,
    g: LocalFunction,
    bounds: BoundaryParams,
    solver: SolverConfig,
) -> VariationalResult:
    """sup over monotone profiles of [integral of F(u(x), phi(x)) - J(u)].

    The free energy and its theta-derivative come from one
    :func:`free_energy` call per iterate; the path-rate gradient is
    analytic.  The linear start is the first iterate and only improvements
    are accepted, so the value is never below the linear profile's, up to
    the rounding of that start's projection.
    """

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
