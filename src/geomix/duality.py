"""Self-duality polynomials and exact local-equilibrium deviations.

The duality polynomial of a configuration eta against a finite dual
configuration xi is the product of binomial coefficients C(eta_i, xi_i)
over the support of xi (zero as soon as some eta_i < xi_i).  Conditioned
on the parameter profile its expectation is prod_i Theta_i^{xi_i}, so the
steady-state expectation reduces to an exact order-statistic product
moment and needs no simulation.  That exactness is what makes the O(1/N)
deviation from local equilibrium measurable down to ~1e-4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from geomix.core import BoundaryParams
from geomix.moments import theta_product_moment

__all__ = [
    "DualConfiguration",
    "duality_polynomial_batch",
    "duality_expectation",
    "le_deviation",
]

_MAX_DUAL_MASS = 20


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

    @classmethod
    def from_window(cls, start: int, powers) -> "DualConfiguration":
        """Multiplicities (p_1, ..., p_k) on consecutive sites from ``start``."""
        return cls({start + j: int(p) for j, p in enumerate(powers)})


def duality_polynomial_batch(
    occupations: np.ndarray, xi: DualConfiguration
) -> np.ndarray:
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


def duality_expectation(
    xi: DualConfiguration, n_sites: int, bounds: BoundaryParams
) -> float:
    """Exact steady-state expectation of the duality polynomial.

    Equals E[prod_i Theta_i^{xi_i}], an order-statistic product moment;
    no Monte Carlo is involved.
    """
    if xi.max_site > n_sites:
        raise ValueError("dual support exceeds the chain length")
    if not xi.multiplicities:
        return 1.0
    start = min(xi.multiplicities)
    stop = xi.max_site
    exps = [xi.multiplicities.get(site, 0) for site in range(start, stop + 1)]
    return theta_product_moment(start, exps, n_sites, bounds)


def le_deviation(
    x: float, powers, n_sites: int, bounds: BoundaryParams
) -> float:
    """Deviation of the duality expectation from its local-equilibrium value.

    For the dual window p_1 delta_{floor(x*N)+1} + ... + p_k delta_{floor(x*N)+k},
    returns E[D(eta, xi)] - rho(x)^(p_1+...+p_k), computed exactly; the
    deviation decays like 1/N.
    """
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    powers = [int(p) for p in powers]
    if sum(powers) < 1:  # else E[D] = 1 = rho^0 at every N, trivially
        raise ValueError("the dual window must hold at least one particle")
    k = len(powers)
    base = int(math.floor(x * n_sites))
    if base + k > n_sites:
        raise ValueError(
            f"dual window [{base + 1}, {base + k}] overflows the chain of {n_sites}"
        )
    xi = DualConfiguration.from_window(base + 1, powers)
    target = bounds.density(x) ** sum(powers)
    return duality_expectation(xi, n_sites, bounds) - float(target)
