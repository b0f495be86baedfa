"""Probabilistic building blocks: reservoir bounds, seeded streams, local
functions, and the two batch samplers of the mixture.

A steady-state sample is produced in two layers.  First the local
parameters (Theta_1, ..., Theta_N) are drawn as the order statistics of N
independent uniforms on [theta_left, theta_right] (:func:`profile_batch`).
Second, conditionally on that profile, site i receives an independent
geometric number of particles with mean Theta_i
(:func:`configuration_batch`).  Both take a batch of replicas, one per
row.  Every stream is keyed by what it draws and where, so that results
are bit-reproducible for a given seed, replica by replica, regardless of
how work is scheduled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "NumericError",
    "BoundaryParams",
    "Purpose",
    "RandomSeed",
    "LocalFunction",
    "density_function",
    "pair_product_function",
    "indicator_vacuum_function",
    "polynomial_function",
    "profile_batch",
    "sorted_profile",
    "configuration_batch",
]


class NumericError(RuntimeError):
    """A numeric method of the package failed: an iteration did not
    converge, or a value left the floating-point range.  The CLI exits 3
    on this class and its subclasses."""


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


class Purpose(enum.IntEnum):
    """What a stream draws: the second entry of a generator key."""

    PROFILES = 0  # uniform rows, or the Gamma spacings of the bridge
    CONFIGURATIONS = 1  # one uniform per site, turned into geometric counts
    SPACINGS = 2  # Gamma spacings of the concentration screen's ranks
    FILLS = 3  # concentration points inside the screen's segments


@dataclass(frozen=True)
class RandomSeed:
    """A (master, stream) pair, both in [0, 2**64), at the root of a tree of
    PCG64 streams: :meth:`generator` keys each by ``(stream, purpose,
    ladder index, chunk)`` under the master entropy through ``SeedSequence``
    spawn keys, so distinct keys give independent streams and identical
    keys identical streams."""

    master: int
    stream: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.master < 2**64 and 0 <= self.stream < 2**64):
            raise ValueError(f"seeds must lie in [0, 2**64), got {self.master}, {self.stream}")

    def generator(
        self, purpose: Purpose = Purpose.PROFILES, ladder: int = 0, chunk: int = 0
    ) -> np.random.Generator:
        """The stream of ``purpose`` for chunk ``chunk`` at the ladder's
        ``ladder``-th N (0 for a run at one N)."""
        ss = np.random.SeedSequence(self.master, spawn_key=(self.stream, purpose, ladder, chunk))
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True, eq=False)
class LocalFunction:
    """A function of ``k`` consecutive site occupations.

    ``evaluator`` receives the k window coordinates as separate arguments
    and must be numpy-vectorized (each argument may be a scalar or an
    array of window values).  Occupations arrive as exact integer counts:
    float64 arrays in the field runs, int64 arrays from
    :func:`configuration_batch`, so an evaluator must accept both.  It may
    take a keyword-only ``out``, a float64 array of the windows' shape that
    the field runs pass for g's value.  They weight the returned array in
    place when it is ``out`` or owns its data, so an evaluator returns
    ``out`` or a fresh array, never one it keeps.  ``monomials``
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

    def __call__(self, *window, out=None):
        if out is not None and "out" in (getattr(self.evaluator, "__kwdefaults__", None) or {}):
            return self.evaluator(*window, out=out)
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
    """Local function sum_m c_m * prod_j eta_j^{m_j} from its monomials.

    The evaluator takes Horner's rule one site at a time: g is a
    polynomial in its first site that occurs, whose coefficients are
    polynomials in the later sites, each taken the same way.  The value is
    the one array it allocates, or ``out`` when given: the leading
    coefficient is written into it and every other coefficient is added
    to it, a constant or a bare site in place, and a nested polynomial by
    pieces of ``_PIECE`` values, so that its scratch is a piece, not the
    whole window.  No window is written.

    For integer coefficients and integer counts every step is exact while
    the partial values stay below 2^53 in magnitude, so the value is the
    exact integer whatever the order; otherwise the result is rounded in
    this order.
    """
    monos = {tuple(int(e) for e in exps): float(c) for exps, c in terms.items()}
    for exps in monos:
        if len(exps) != k or any(e < 0 for e in exps):
            raise ValueError(f"invalid exponent tuple {exps} for k={k}")
    form = _horner_form({e: c for e, c in monos.items() if c != 0.0}, 0)

    def evaluator(*window, out=None):
        window = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in window))
        out = np.empty(window[0].shape) if out is None else out
        if isinstance(form, float):
            out.fill(form)
        else:
            _horner(form, window, out)
        return out

    return LocalFunction(k=k, evaluator=evaluator, monomials=monos, name=name)


_PIECE = 2**12  # values per piece of a nested Horner coefficient's scratch


def _horner_form(terms: Mapping[tuple[int, ...], float], site: int) -> float | tuple:
    """The Horner form of the monomials ``terms``, whose exponents agree
    below ``site``: a float when no site from ``site`` on occurs, else the
    first site j that occurs and its (degree, coefficient) pairs, degrees
    descending, each coefficient the Horner form of the later sites."""
    k = len(next(iter(terms), ()))
    occurring = [j for j in range(site, k) if any(e[j] for e in terms)]
    if not occurring:  # at most one monomial is left
        return next(iter(terms.values()), 0.0)
    j = occurring[0]
    by_degree: dict[int, dict] = {}
    for exps, coef in terms.items():
        by_degree.setdefault(exps[j], {})[exps] = coef
    return j, tuple((d, _horner_form(by_degree[d], j + 1)) for d in sorted(by_degree, reverse=True))


def _bare(coef: float | tuple) -> int | None:
    """The site j when ``coef`` is eta_j itself, else None."""
    if isinstance(coef, tuple) and coef[1] == ((1, 1.0),):
        return coef[0]
    return None


def _horner(form: tuple, window: list[np.ndarray], out: np.ndarray) -> None:
    """Write the polynomial ``form`` at ``window`` into ``out``."""
    j, coefs = form
    x = window[j]
    top, lead = coefs[0]
    site = _bare(lead)
    if isinstance(lead, float):
        np.multiply(x, lead, out=out)
    elif site is not None:
        np.multiply(window[site], x, out=out)
    else:
        _horner(lead, window, out)
        out *= x
    rest = dict(coefs[1:])
    for d in range(top - 1, -1, -1):
        if d in rest:
            _add(rest[d], window, out)
        if d:
            out *= x


def _add(coef: float | tuple, window: list[np.ndarray], out: np.ndarray) -> None:
    """Add the coefficient ``coef`` at ``window`` to ``out`` in place."""
    site = _bare(coef)
    if isinstance(coef, float):
        out += coef
    elif site is not None:
        out += window[site]
    else:
        ops = [["readonly"]] * len(window) + [["readwrite"]]
        flags = ["external_loop", "buffered", "zerosize_ok"]
        with np.nditer([*window, out], flags, ops, buffersize=_PIECE) as pieces:
            for *piece, acc in pieces:
                scratch = np.empty_like(acc)
                _horner(coef, piece, scratch)
                acc += scratch


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


_MAX_SITES = 2**25  # the largest N a sampling run takes: a worker holds two
# buffers of one row at most, 256 MiB each at this N


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


def _geometric_counts(
    thetas: np.ndarray, u: np.ndarray, work: np.ndarray | None = None
) -> np.ndarray:
    """Geometric occupation numbers as exact float counts, from one standard
    uniform per site: eta = ceil(log(1-u)/log p) - 1, p = theta/(1+theta),
    clipped at zero, taken as -1 - floor(log(1-u)/L) with L = -log p =
    log1p(1/theta): one log per site, exact to rounding at large theta, where
    log(theta) - log1p(theta) cancels.  At theta = 0, L = +inf gives the
    point mass at zero.  L goes into ``work`` (thetas' shape, ``thetas``
    itself allowed, fresh when None); the rest runs in place on ``u``, which
    is returned."""
    with np.errstate(divide="ignore"):
        neg_log_p = np.divide(1.0, thetas, out=work)
    np.log1p(neg_log_p, out=neg_log_p)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    u /= neg_log_p
    np.floor(u, out=u)
    np.subtract(-1.0, u, out=u)
    np.maximum(u, 0.0, out=u)
    return u


def configuration_batch(thetas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Geometric occupation numbers (int64), one per entry of ``thetas``,
    by the inverse-CDF transform of one ``rng.random`` draw per site.  The
    field runs apply the same transform to their own reused buffer and
    keep the counts as float64; both hold the same integers."""
    thetas = np.asarray(thetas, dtype=float)
    return _geometric_counts(thetas, rng.random(thetas.shape)).astype(np.int64)
