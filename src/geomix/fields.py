"""Fields of local functions on configurations, and the test functions
that weight them.

The field of a local function g with dependence-set size k pairs the
shifted values g(eta_{i+1}, ..., eta_{i+k}) with test-function weights
phi(i/(N+1)) for i = 0, ..., N-k and normalizes by 1/N.  A single grid
convention i/(N+1) is used everywhere; the O(1/N) difference to other
conventions is below every tolerance in use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from geomix.core import LocalFunction

__all__ = [
    "TestFunction",
    "phi_one",
    "phi_identity",
    "phi_polynomial",
    "field_values_batch",
]


@dataclass(frozen=True)
class TestFunction:
    """A test function on [0, 1]; the evaluator must be numpy-vectorized.

    ``coefficients`` holds the power-series coefficients, lowest degree
    first, when phi is a polynomial, and is None otherwise."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    name: str = "phi"
    coefficients: tuple[float, ...] | None = None

    __test__ = False  # not a test case despite the name

    def __call__(self, x):
        return self.evaluator(np.asarray(x, dtype=float))

    @property
    def constant(self) -> float | None:
        """The value of phi when it is a polynomial of degree 0, else None."""
        coefs = self.coefficients
        if coefs is None or any(c != 0.0 for c in coefs[1:]):
            return None
        return coefs[0]


def phi_one() -> TestFunction:
    return TestFunction(lambda x: np.ones_like(x), name="one", coefficients=(1.0,))


def phi_identity() -> TestFunction:
    return TestFunction(lambda x: x, name="x", coefficients=(0.0, 1.0))


def phi_polynomial(coefficients) -> TestFunction:
    coefs = np.asarray(coefficients, dtype=float)
    if coefs.ndim != 1 or not coefs.size:
        raise ValueError("a polynomial test function needs a non-empty list of coefficients")

    def evaluator(x):
        return np.polynomial.polynomial.polyval(x, coefs)

    return TestFunction(evaluator, name="poly", coefficients=tuple(coefs.tolist()))


def _windows(occ: np.ndarray, k: int) -> list[np.ndarray]:
    n = occ.shape[-1]
    if n < k:
        raise ValueError(f"configuration has {n} sites, need at least k={k}")
    return [occ[..., j : n - k + 1 + j] for j in range(k)]


def _field_grid(n_sites: int, k: int) -> np.ndarray:
    """Field abscissae i/(N+1) for i = 0, ..., N-k."""
    return np.arange(n_sites - k + 1, dtype=float) / (n_sites + 1)


def field_values_batch(
    g: LocalFunction, phi: TestFunction, occupations: np.ndarray
) -> np.ndarray:
    """(1/N) * sum_i g(window at i) * phi(i/(N+1)) for each row of a
    (replicas, N) batch of configurations; a single (N,) configuration
    gives a scalar.

    Each row is reduced on its own by numpy's pairwise sum, so a row's
    value does not depend on how many rows come with it; a matrix-vector
    product would group rows differently for different batch sizes.  The
    phi weights are applied in place when g returns an array that owns its
    data and has the product's shape; a view, of the configuration say,
    is never written.
    """
    occ = np.asarray(occupations)
    n = occ.shape[-1]
    weights = phi(_field_grid(n, g.k))
    vals = np.asarray(g(*_windows(occ, g.k)), dtype=float)
    if vals.flags.owndata and vals.flags.writeable and vals.shape[-1:] == weights.shape:
        vals *= weights
    else:
        vals = vals * weights
    return vals.sum(axis=-1) / n
