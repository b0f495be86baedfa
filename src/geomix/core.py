"""Probabilistic building blocks: geometric marginals, ordered parameter
profiles, and the mixture sampler.

A steady-state sample is produced in two layers.  First the local
parameters (Theta_1, ..., Theta_N) are drawn as the order statistics of N
independent uniforms on [theta_left, theta_right].  Second, conditionally
on that profile, site i receives an independent geometric number of
particles with mean Theta_i.  All sampling is driven by counter-based
streams so that results are bit-reproducible for a given seed, replica by
replica, regardless of how work is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "BoundaryParams",
    "RandomSeed",
    "ParameterProfile",
    "Configuration",
    "LocalFunction",
    "density_function",
    "pair_product_function",
    "indicator_vacuum_function",
    "polynomial_function",
    "geometric_pmf",
    "sample_parameter_profile",
    "sample_configuration",
    "sample_ness",
    "profile_batch",
    "configuration_batch",
]


@dataclass(frozen=True)
class BoundaryParams:
    """Reservoir parameter pair; ``theta_left <= theta_right``.

    Equality of the two parameters is the equilibrium case and is allowed
    everywhere except in the large-deviation module.
    """

    theta_left: float
    theta_right: float

    def __post_init__(self) -> None:
        if self.theta_left < 0:
            raise ValueError(f"theta_left must be >= 0, got {self.theta_left}")
        if self.theta_right < self.theta_left:
            raise ValueError(
                f"theta_right ({self.theta_right}) must be >= theta_left ({self.theta_left})"
            )

    @property
    def width(self) -> float:
        return self.theta_right - self.theta_left

    def density(self, x):
        """Linear parameter profile theta_left + width * x on [0, 1]."""
        return self.theta_left + self.width * np.asarray(x, dtype=float)


def _mix64(a: int, b: int) -> int:
    """Deterministic 64-bit mix of two integers (splitmix64 finalizer)."""
    z = (a * 0x9E3779B97F4A7C15 + b) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RandomSeed:
    """A (master, stream) pair selecting one counter-based random stream.

    Identical pairs reproduce identical output; distinct pairs give
    statistically independent streams (Philox keyed through a
    ``SeedSequence``).  Use :meth:`substream` to derive per-replica or
    per-purpose streams from a base seed.
    """

    master: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.master & 0xFFFFFFFFFFFFFFFF,
            spawn_key=(self.stream & 0xFFFFFFFFFFFFFFFF,),
        )
        return np.random.Generator(np.random.Philox(ss))

    def substream(self, index: int) -> "RandomSeed":
        return RandomSeed(self.master, _mix64(self.stream, index))


@dataclass(frozen=True, eq=False)
class ParameterProfile:
    """A sorted realization of the N local parameters."""

    values: np.ndarray
    bounds: BoundaryParams

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("profile values must be a non-empty 1-d array")
        if np.any(np.diff(vals) < 0):
            raise ValueError("profile values must be non-decreasing")
        lo, hi = self.bounds.theta_left, self.bounds.theta_right
        if vals[0] < lo - 1e-12 or vals[-1] > hi + 1e-12:
            raise ValueError("profile values must lie in [theta_left, theta_right]")

    @property
    def n_sites(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class Configuration:
    """Occupation numbers of the N sites."""

    occupations: np.ndarray

    def __post_init__(self) -> None:
        occ = np.asarray(self.occupations, dtype=np.int64)
        object.__setattr__(self, "occupations", occ)
        if occ.ndim != 1 or occ.size < 1:
            raise ValueError("occupations must be a non-empty 1-d array")
        if np.any(occ < 0):
            raise ValueError("occupations must be non-negative")

    @property
    def n_sites(self) -> int:
        return self.occupations.size


@dataclass(frozen=True, eq=False)
class LocalFunction:
    """A function of ``k`` consecutive site occupations.

    ``evaluator`` receives the k window coordinates as separate arguments
    and must be numpy-vectorized (each argument may be a scalar or an
    array of window values).  ``monomials`` optionally records a
    polynomial representation {exponent tuple -> coefficient}; it enables
    exact mixture expectations in the harness and is filled automatically
    by :func:`polynomial_function`.
    """

    k: int
    evaluator: Callable[..., np.ndarray]
    bounded: bool = False
    bound: float | None = None
    monomials: Mapping[tuple[int, ...], float] | None = None
    name: str = "local"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("dependence-set size k must be >= 1")
        if self.bounded and self.bound is None:
            raise ValueError("bounded local functions must declare a bound")
        if self.monomials is not None:
            for exps in self.monomials:
                if len(exps) != self.k:
                    raise ValueError("monomial exponent tuples must have length k")

    def __call__(self, *window):
        return self.evaluator(*window)

    @property
    def degree(self) -> int | None:
        """Total polynomial degree, or None for non-polynomial functions."""
        if self.monomials is None:
            return None
        return max((sum(e) for e in self.monomials), default=0)


def polynomial_function(
    k: int, terms: Mapping[tuple[int, ...], float], name: str = "polynomial"
) -> LocalFunction:
    """Local function sum_m c_m * prod_j eta_j^{m_j} from its monomials."""
    monos = {tuple(int(e) for e in exps): float(c) for exps, c in terms.items()}
    for exps in monos:
        if len(exps) != k or any(e < 0 for e in exps):
            raise ValueError(f"invalid exponent tuple {exps} for k={k}")

    def evaluator(*window):
        acc = None
        for exps, coef in monos.items():
            term = coef * np.ones_like(np.asarray(window[0], dtype=float))
            for j, e in enumerate(exps):
                if e:
                    term = term * np.asarray(window[j], dtype=float) ** e
            acc = term if acc is None else acc + term
        if acc is None:
            acc = np.zeros_like(np.asarray(window[0], dtype=float))
        return acc

    return LocalFunction(k=k, evaluator=evaluator, monomials=monos, name=name)


def density_function() -> LocalFunction:
    """g(eta) = eta_1, the local particle number."""
    return polynomial_function(1, {(1,): 1.0}, name="density")


def pair_product_function() -> LocalFunction:
    """g(eta) = eta_1 * eta_2, the nearest-neighbour product."""
    return polynomial_function(2, {(1, 1): 1.0}, name="pair-product")


def indicator_vacuum_function() -> LocalFunction:
    """g(eta) = 1 if the first window site is empty, else 0. Bounded by 1."""

    def evaluator(n1):
        return (np.asarray(n1) == 0).astype(float)

    return LocalFunction(
        k=1, evaluator=evaluator, bounded=True, bound=1.0, name="indicator-vacuum"
    )


def geometric_pmf(theta: float, n) -> np.ndarray | float:
    """Probability of ``n`` particles under the geometric law with mean theta.

    The law is (1/(1+theta)) * (theta/(1+theta))**n on n = 0, 1, 2, ...;
    theta = 0 is the point mass at zero.
    """
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    n_arr = np.asarray(n)
    if np.any(n_arr < 0):
        raise ValueError("n must be >= 0")
    if theta == 0.0:
        out = np.where(n_arr == 0, 1.0, 0.0)
    else:
        p = theta / (1.0 + theta)
        out = (1.0 - p) * p ** n_arr.astype(float)
    return float(out) if np.isscalar(n) else out


def profile_batch(
    n_sites: int, bounds: BoundaryParams, rng: np.random.Generator, size: int
) -> np.ndarray:
    """``size`` independent parameter profiles as a (size, n_sites) array.

    Each row is the sorted affine image of n_sites standard uniforms, so
    row entry i-1 follows the Beta(i, n_sites+1-i) law rescaled to the
    reservoir interval.
    """
    u = rng.random((size, n_sites))
    u.sort(axis=1)
    return bounds.theta_left + bounds.width * u


def configuration_batch(thetas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Geometric occupation numbers, one per entry of ``thetas``.

    Inverse-CDF transform of a single uniform draw per site:
    eta = ceil(log(1-u)/log(theta/(1+theta))) - 1, clipped at zero.  At
    theta = 0 the log is -inf, so the quotient is 0 and eta is the point
    mass at zero.  The steps run in place on the uniforms.
    """
    thetas = np.asarray(thetas, dtype=float)
    u = rng.random(thetas.shape)
    with np.errstate(divide="ignore"):
        log_p = np.log(thetas)
    log_p -= np.log1p(thetas)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    u /= log_p
    np.ceil(u, out=u)
    u -= 1.0
    np.maximum(u, 0.0, out=u)
    return u.astype(np.int64)


def sample_parameter_profile(
    n_sites: int, bounds: BoundaryParams, seed: RandomSeed
) -> ParameterProfile:
    """Draw one sorted parameter profile of length ``n_sites``."""
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    values = profile_batch(n_sites, bounds, seed.generator(), size=1)[0]
    return ParameterProfile(values=values, bounds=bounds)


def sample_configuration(profile: ParameterProfile, seed: RandomSeed) -> Configuration:
    """Draw one configuration from the product of geometrics at ``profile``."""
    occ = configuration_batch(profile.values, seed.generator())
    return Configuration(occupations=occ)


def sample_ness(
    n_sites: int, bounds: BoundaryParams, seed: RandomSeed
) -> tuple[ParameterProfile, Configuration]:
    """Draw one steady-state sample: hidden profile plus configuration.

    The profile and the configuration use separate substreams of ``seed``
    so that either layer can be reproduced independently.
    """
    profile = sample_parameter_profile(n_sites, bounds, seed.substream(0))
    configuration = sample_configuration(profile, seed.substream(1))
    return profile, configuration
