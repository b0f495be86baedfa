import numpy as np
import pytest

from geomix.core import BoundaryParams, RandomSeed
from geomix.moments import theta_product_moment


@pytest.fixture
def bounds():
    return BoundaryParams(0.0, 2.0)


@pytest.fixture
def unit_bounds():
    return BoundaryParams(0.0, 1.0)


def assert_within_se(estimate, target, se, n_se, label=""):
    """Monte Carlo comparison in standard-error bands, never absolute."""
    estimate = np.asarray(estimate, dtype=float)
    target = np.asarray(target, dtype=float)
    se = np.asarray(se, dtype=float)
    gap = np.abs(estimate - target)
    ok = gap <= n_se * se
    # a zero-variance estimator must match exactly
    ok |= (se == 0) & (gap == 0)
    assert np.all(ok), (
        f"{label}: estimate {estimate} vs target {target} "
        f"deviates by {gap / np.where(se > 0, se, 1.0)} se (band {n_se})"
    )


def orderstat_product_moment(exps) -> float:
    """E[ prod_j U_{j:N}^{e_j} ] for a full exponent vector of length N:
    :func:`theta_product_moment` on unit bounds over the window from the
    first to the last nonzero exponent (1 when there is none)."""
    support = np.flatnonzero(exps)
    if support.size == 0:
        return 1.0
    a, b = int(support[0]), int(support[-1]) + 1
    return theta_product_moment(a + 1, exps[a:b], len(exps), BoundaryParams(0.0, 1.0))


@pytest.fixture
def seed():
    return RandomSeed(20240801, 0)
