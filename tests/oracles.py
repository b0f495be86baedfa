"""Independent oracles that the tests compare the library against.

They compute the same objects as the library by other means: free
energies by dense eigenvalues and finite-chain transfer sums over the
states 0..128, state sums over a truncated grid, and duality polynomials
and their expectations from a sparse dual configuration.  None of them is
reached by the program itself.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from geomix.core import BoundaryParams, LocalFunction
from geomix.moments import theta_product_moment

# the free-energy oracles drop the states n > 128; at theta <= 2 the
# dropped mass (theta/(1+theta))**129 is below 1e-22
M_STATE = 128
_MAX_DUAL_MASS = 20


def geometric_tables(thetas, m: int) -> tuple[np.ndarray, np.ndarray]:
    """nu_theta(n) and its theta-derivative on n = 0..m, one row per theta,
    with the tail n > m dropped.

    d nu_theta(n)/d theta = (1-p)^2 (n p^{n-1} - (n+1) p^n), written as
    (1-p) (n nu(n-1) - (n+1) nu(n)) so that it stays finite at theta = 0.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    p = thetas / (1.0 + thetas)
    n = np.arange(m + 1)
    w = p[:, None] ** n[None, :] * (1.0 - p)[:, None]
    prev = np.zeros_like(w)
    prev[:, 1:] = w[:, :-1]
    return w, (1.0 - p)[:, None] * (n * prev - (n + 1) * w)


def truncated_grid(g: LocalFunction, m: int) -> np.ndarray:
    """g on the state grid [0, m]^k."""
    axes = np.meshgrid(*([np.arange(m + 1)] * g.k), indexing="ij")
    return np.broadcast_to(np.asarray(g(*axes), dtype=float), axes[0].shape)


def free_energy_transfer(theta: float, lam: float, g: LocalFunction) -> float:
    """Free energy of g with k <= 2 as the log of the largest eigenvalue of
    the dense transfer matrix K(a, b) = nu_theta(b) exp(lam g(a, b)) on the
    states 0..128; a single-site g is lifted to g(a)."""
    if g.k > 2:
        raise ValueError("the dense transfer oracle covers k <= 2")
    grid = truncated_grid(g, M_STATE)
    if g.k == 1:
        grid = np.broadcast_to(grid[:, None], (M_STATE + 1,) * 2)
    kernel = np.exp(lam * grid) * geometric_tables(theta, M_STATE)[0]
    return math.log(float(np.max(np.linalg.eigvals(kernel).real)))


def free_energy_finite_chain(theta: float, lam: float, g: LocalFunction, n_sites: int) -> float:
    """Exact (1/N) log E[exp(lam * sum of shifted g)] on a chain of N sites,
    for k >= 2, over the states 0..128.

    Repeated application of the transfer kernel (with running
    renormalization) against the window marginal; its large-N limit is
    the free energy.
    """
    k = g.k
    if k < 2 or n_sites < k:
        raise ValueError(f"need 2 <= k <= N, got k={k}, N={n_sites}")
    w = geometric_tables(theta, M_STATE)[0][0]
    t = np.exp(lam * truncated_grid(g, M_STATE)) * w
    letters = string.ascii_lowercase[:k]
    sub = f"{letters},{letters[1:]}->{letters[:-1]}"
    v = np.ones((M_STATE + 1,) * (k - 1))
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


@dataclass(frozen=True)
class DualConfiguration:
    """Sparse dual configuration: 1-based site -> particle multiplicity."""

    multiplicities: Mapping[int, int]

    def __post_init__(self) -> None:
        cleaned = {
            int(site): int(mult)
            for site, mult in self.multiplicities.items()
            if int(mult) != 0
        }
        object.__setattr__(self, "multiplicities", cleaned)
        for site, mult in cleaned.items():
            if site < 1:
                raise ValueError(f"dual sites are 1-based, got {site}")
            if mult < 0:
                raise ValueError(f"multiplicities must be >= 0, got {mult}")
        if self.total_mass > _MAX_DUAL_MASS:
            raise ValueError(
                f"dual mass {self.total_mass} exceeds the supported cap {_MAX_DUAL_MASS}"
            )

    @property
    def total_mass(self) -> int:
        return sum(self.multiplicities.values())

    @property
    def max_site(self) -> int:
        return max(self.multiplicities, default=0)


def duality_polynomial_batch(occupations: np.ndarray, xi: DualConfiguration) -> np.ndarray:
    """Duality polynomial prod_i C(eta_i, xi_i) over the support of xi, per
    row of a (replicas, N) occupation batch; 0 where any eta_i < xi_i."""
    occ = np.asarray(occupations)
    if xi.max_site > occ.shape[-1]:
        raise ValueError("dual support exceeds the configuration length")
    out = np.ones(occ.shape[0])
    for site, mult in xi.multiplicities.items():
        n = occ[:, site - 1].astype(float)
        term = np.ones_like(n)
        for j in range(mult):
            term *= n - j
        out *= np.maximum(term, 0.0) / math.factorial(mult)
    return out


def duality_expectation(xi: DualConfiguration, n_sites: int, bounds: BoundaryParams) -> float:
    """Exact steady-state expectation of the duality polynomial:
    E[prod_i Theta_i^{xi_i}], an order-statistic product moment."""
    if xi.max_site > n_sites:
        raise ValueError("dual support exceeds the chain length")
    if not xi.multiplicities:
        return 1.0
    start = min(xi.multiplicities)
    exps = [xi.multiplicities.get(site, 0) for site in range(start, xi.max_site + 1)]
    return theta_product_moment(start, exps, n_sites, bounds)
