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
    """A test function on [0, 1]; the evaluator must be numpy-vectorized."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    name: str = "phi"

    __test__ = False  # not a test case despite the name

    def __call__(self, x):
        return self.evaluator(np.asarray(x, dtype=float))


def phi_one() -> TestFunction:
    return TestFunction(lambda x: np.ones_like(x), name="one")


def phi_identity() -> TestFunction:
    return TestFunction(lambda x: x, name="x")


def phi_polynomial(coefficients) -> TestFunction:
    coefs = np.asarray(coefficients, dtype=float)

    def evaluator(x):
        return np.polynomial.polynomial.polyval(x, coefs)

    return TestFunction(evaluator, name="poly")


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
    gives a scalar."""
    occ = np.asarray(occupations)
    n = occ.shape[-1]
    vals = np.asarray(g(*_windows(occ, g.k)), dtype=float)
    return vals @ phi(_field_grid(n, g.k)) / n
