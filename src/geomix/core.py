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
    "sorted_profile",
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
        if not (np.isfinite(self.theta_left) and np.isfinite(self.theta_right)):
            raise ValueError(
                f"reservoir parameters must be finite, got {self.theta_left}, {self.theta_right}"
            )
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
    per-purpose streams from a base seed.  Philox is counter-based: a
    stream's n-th word is reached by setting its counter, without drawing
    the words before it.  The harness's stream layout relies on that (a
    chunk's configuration draws follow its profile draws, and are reached
    by counter offset).
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


def _after_draws(rng: np.random.Generator, draws: int) -> np.random.Generator:
    """A generator that continues the fresh Philox ``rng`` after its first
    ``draws`` 64-bit words (one word per ``random()`` double); ``rng``
    does not move.  One Philox counter step makes four words, so the copy
    starts its counter at draws // 4 and draws the remaining words: O(1)
    for any ``draws``."""
    state = rng.bit_generator.state
    if state["bit_generator"] != "Philox":
        raise ValueError(f"counter offsets need a Philox generator, got {state['bit_generator']}")
    if state["state"]["counter"].any():
        raise ValueError("counter offsets need a generator that has not drawn yet")
    bits = np.random.Philox(counter=draws // 4, key=state["state"]["key"])
    bits.random_raw(draws % 4)
    return np.random.Generator(bits)


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
    array of window values).  Occupations arrive as exact integer counts:
    float64 arrays in the field runs, int64 arrays from
    :func:`configuration_batch`, so an evaluator must accept both.  The
    field runs weight a returned array that owns its data in place, so an
    evaluator returns a fresh array, never one it keeps.  ``monomials``
    optionally records a polynomial representation {exponent tuple ->
    coefficient}; it enables exact mixture expectations in the harness
    and is filled automatically by :func:`polynomial_function`.

    ``saturation`` declares an integer c >= 0 such that g reads each
    occupation n only through min(n, c): indicator-vacuum has c = 1 and a
    constant c = 0.  The states n >= c of a site then merge into one state
    of mass (theta/(1+theta))**c, so free energies, rate functions and the
    limit objects of a non-polynomial g are exact sums over [0, c]^k;
    those need c declared.
    """

    k: int
    evaluator: Callable[..., np.ndarray]
    saturation: int | None = None
    monomials: Mapping[tuple[int, ...], float] | None = None
    name: str = "local"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("dependence-set size k must be >= 1")
        c = self.saturation
        if c is not None and (isinstance(c, bool) or not isinstance(c, int) or c < 0):
            raise ValueError(f"saturation must be an integer >= 0, got {c!r}")
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
        # each window is cast to float once and each (site, exponent) power
        # is taken once; the products and the sum then run in place in the
        # order coef * eta_1^e_1 * ... * eta_k^e_k, monomials summed in order
        window = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in window))
        powers: dict[tuple[int, int], np.ndarray] = {}
        acc = None
        for exps, coef in monos.items():
            term = None
            for j, e in enumerate(exps):
                if not e:
                    continue
                if (j, e) not in powers:
                    powers[j, e] = window[j] if e == 1 else window[j] ** e
                if term is None:
                    term = powers[j, e] * coef
                else:
                    term *= powers[j, e]
            if term is None:
                term = np.full(window[0].shape, coef)
            if acc is None:
                acc = term
            else:
                acc += term
        if acc is None:
            acc = np.zeros(window[0].shape)
        return acc

    return LocalFunction(k=k, evaluator=evaluator, monomials=monos, name=name)


def density_function() -> LocalFunction:
    """g(eta) = eta_1, the local particle number."""
    return polynomial_function(1, {(1,): 1.0}, name="density")


def pair_product_function() -> LocalFunction:
    """g(eta) = eta_1 * eta_2, the nearest-neighbour product."""
    return polynomial_function(2, {(1, 1): 1.0}, name="pair-product")


def indicator_vacuum_function() -> LocalFunction:
    """g(eta) = 1 if the first window site is empty, else 0; saturates at c = 1."""

    def evaluator(n1):
        return (np.asarray(n1) == 0).astype(float)

    return LocalFunction(k=1, evaluator=evaluator, saturation=1, name="indicator-vacuum")


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
    return sorted_profile(rng.random((size, n_sites)), bounds)


def sorted_profile(u: np.ndarray, bounds: BoundaryParams) -> np.ndarray:
    """Parameter profiles from rows of standard uniforms: each row is
    sorted and mapped affinely onto the reservoir interval, in place on
    ``u``, which is returned."""
    u.sort(axis=1)
    u *= bounds.width
    u += bounds.theta_left
    return u


def _geometric_counts(thetas: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Geometric occupation numbers as exact float counts, from one standard
    uniform per site: eta = ceil(log(1-u)/log(theta/(1+theta))) - 1, clipped
    at zero.  At theta = 0 the log is -inf, so the quotient is 0 and eta is
    the point mass at zero.  The steps run in place on ``u``, which is
    returned."""
    with np.errstate(divide="ignore"):
        log_p = np.log(thetas)
    log_p -= np.log1p(thetas)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    u /= log_p
    np.ceil(u, out=u)
    u -= 1.0
    np.maximum(u, 0.0, out=u)
    return u


def configuration_batch(thetas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Geometric occupation numbers (int64), one per entry of ``thetas``,
    by the inverse-CDF transform of one ``rng.random`` draw per site.  The
    field runs apply the same transform to their own reused buffer and
    keep the counts as float64; both hold the same integers."""
    thetas = np.asarray(thetas, dtype=float)
    return _geometric_counts(thetas, rng.random(thetas.shape)).astype(np.int64)


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
