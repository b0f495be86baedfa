"""Exact local-equilibrium deviations from self-duality.

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

from geomix.core import BoundaryParams
from geomix.moments import theta_product_moment

__all__ = ["le_deviation"]

_MAX_DUAL_MASS = 20


def le_deviation(
    x: float, powers, n_sites: int, bounds: BoundaryParams
) -> float:
    """Deviation of the duality expectation from its local-equilibrium value.

    For the dual window p_1 delta_{floor(x*N)+1} + ... + p_k delta_{floor(x*N)+k},
    returns E[D(eta, xi)] - rho(x)^(p_1+...+p_k), computed exactly; the
    deviation decays like 1/N.  E[D(eta, xi)] is the product moment of the
    parameters on the whole window; zero powers add nothing to it.
    """
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    powers = [int(p) for p in powers]
    if any(p < 0 for p in powers):
        raise ValueError(f"multiplicities must be >= 0, got {powers}")
    if sum(powers) < 1:  # else E[D] = 1 = rho^0 at every N, trivially
        raise ValueError("the dual window must hold at least one particle")
    if sum(powers) > _MAX_DUAL_MASS:
        raise ValueError(f"dual mass {sum(powers)} exceeds the supported cap {_MAX_DUAL_MASS}")
    k = len(powers)
    base = int(math.floor(x * n_sites))
    if base + k > n_sites:
        raise ValueError(
            f"dual window [{base + 1}, {base + k}] overflows the chain of {n_sites}"
        )
    moment = theta_product_moment(base + 1, powers, n_sites, bounds)
    target = bounds.density(x) ** sum(powers)
    return moment - float(target)
