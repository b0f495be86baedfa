"""Monte Carlo experiment runner and statistical verdicts.

Experiments draw steady-state replicas with per-chunk substreams of a
master seed, so re-runs are bit-identical for any worker count, and
report effect sizes with standard errors rather than bare pass/fails.
Central-limit runs are centered at the exact mixture mean assembled from
closed-form moments (empirical centering would inflate the distributional
distance at practical replica counts).

A chunk of replicas is the stream unit: its size is fixed, and chunk c
always draws from substream c.  Inside a chunk, rows are drawn and
reduced in row blocks of about ``_BLOCK_BUDGET`` doubles, in order and on
the chunk's generator, so the blocks' draws are the chunk's draws.  The
row block is the cache and memory unit: its size is free to change and
never moves an output byte.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from geomix.asymptotics import (
    CltVariances,
    bridge_covariance,
    clt_variances,
    lln_limit,
)
from geomix.core import (
    BoundaryParams,
    LocalFunction,
    RandomSeed,
    configuration_batch,
    profile_batch,
)
from geomix.duality import le_deviation
from geomix.fields import TestFunction, field_values_batch, phi_one
from geomix.moments import (
    geometric_raw_moment_coefficients,
    theta_marginals,
    theta_window_moments,
)

__all__ = [
    "ExperimentConfig",
    "SlopeFit",
    "LlnResult",
    "CltResult",
    "BridgeResult",
    "LeScalingResult",
    "ConcentrationResult",
    "MarginalCheckResult",
    "run_lln",
    "run_clt",
    "run_bridge",
    "run_le_scaling",
    "run_concentration",
    "check_profile_marginals",
    "exact_field_mean",
    "ks_statistic",
    "ks_critical_value",
    "fit_log_slope",
    "normal_cdf",
    "annealed_mc_estimate",
]

_CHUNK_BUDGET = 2**22  # doubles per sampling chunk, the stream unit; fixed so
# chunking is independent of worker count and results stay replica-reproducible
_BLOCK_BUDGET = 2**17  # doubles per row block inside a chunk, the cache and
# memory unit (1 MiB); any value gives the same output bytes
_MAX_POLY_DEGREE = 6


def _ladder(n_ladder: Sequence[int]) -> tuple[int, ...]:
    ladder = tuple(int(n) for n in n_ladder)
    if not ladder or ladder[0] < 1 or any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("n_ladder must be a non-empty increasing sequence of N >= 1")
    return ladder


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared experiment settings; ``n_ladder`` must be increasing from
    N >= 1, and ``replicas`` at least 2 for the sample standard errors."""

    n_ladder: tuple[int, ...]
    replicas: int
    bounds: BoundaryParams
    g: LocalFunction
    phi: TestFunction
    seed: RandomSeed
    workers: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_ladder", _ladder(self.n_ladder))
        if self.replicas < 2:
            raise ValueError("replicas must be >= 2")
        if self.workers < 1:
            raise ValueError("workers must be positive")


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float

    def __post_init__(self) -> None:
        if not -1e-12 <= self.r_squared <= 1.0 + 1e-12:
            raise ValueError("r_squared must lie in [0, 1]")


def _chunk_size(n_sites: int) -> int:
    return max(1, _CHUNK_BUDGET // max(n_sites, 1))


def _row_blocks(count: int, n_sites: int):
    """(start, stop) row ranges of one chunk, in order, each of about
    ``_BLOCK_BUDGET`` doubles (at least one row)."""
    rows = max(1, _BLOCK_BUDGET // max(n_sites, 1))
    for start in range(0, count, rows):
        yield start, min(start + rows, count)


def _map_chunks(
    fn: Callable[[np.random.Generator, int], np.ndarray],
    replicas: int,
    n_sites: int,
    seed: RandomSeed,
    workers: int,
):
    """Evaluate ``fn(rng, count)`` over fixed-size replica chunks.

    Chunk c uses substream c of ``seed``; results are assembled in chunk
    order, so the output is identical for any worker count.
    """
    chunk = _chunk_size(n_sites)
    tasks = [(c, min(chunk, replicas - c * chunk)) for c in range((replicas + chunk - 1) // chunk)]

    def run(task):
        c, count = task
        return fn(seed.substream(c).generator(), count)

    # each thread holds a chunk, so threads beyond the chunks or the
    # usable CPUs only add memory
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    max_workers = min(workers, len(tasks), cpus)
    if max_workers <= 1:
        return [run(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(run, tasks))


def _field_chunk(
    rng: np.random.Generator,
    count: int,
    n_sites: int,
    bounds: BoundaryParams,
    g: LocalFunction,
    phi: TestFunction,
) -> np.ndarray:
    """Field values of ``count`` steady-state replicas.  The whole profile
    is drawn first, since the configuration uniforms follow all of it in
    the stream; configurations and fields then run one row block at a
    time."""
    thetas = profile_batch(n_sites, bounds, rng, count)
    values = np.empty(count)
    for lo, hi in _row_blocks(count, n_sites):
        occ = configuration_batch(thetas[lo:hi], rng)
        values[lo:hi] = field_values_batch(g, phi, occ)
    return values


def ks_statistic(samples: Sequence[float], cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sup-norm distance between the empirical CDF of ``samples`` and ``cdf``.

    Both one-sided gaps are taken at the sorted sample points.  The
    target CDF is treated as continuous; for the degenerate case of a
    single repeated value against its own point-mass CDF the statistic
    evaluates to the full left gap, i.e. 1.0.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size < 1:
        raise ValueError("ks_statistic needs at least one sample")
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def ks_critical_value(n_samples: int, level: float = 0.01) -> float:
    """Asymptotic Kolmogorov critical value c(level)/sqrt(n)."""
    # c solves 2 * sum_k (-1)^{k-1} exp(-2 k^2 c^2) = level
    c_table = {0.10: 1.2238, 0.05: 1.3581, 0.01: 1.6276}
    if level not in c_table:
        raise ValueError(f"unsupported level {level}; use one of {sorted(c_table)}")
    return c_table[level] / math.sqrt(n_samples)


def normal_cdf(mean: float, variance: float) -> Callable[[np.ndarray], np.ndarray]:
    """CDF of the normal law with the given mean and variance."""
    if variance <= 0:
        raise ValueError("variance must be positive")
    scale = math.sqrt(2.0 * variance)
    erf = np.vectorize(math.erf, otypes=[float])

    def cdf(x):
        return 0.5 * (1.0 + erf((np.asarray(x, dtype=float) - mean) / scale))

    return cdf


def fit_log_slope(points: Sequence[tuple[float, float]]) -> SlopeFit:
    """Ordinary least squares of log(value) on log(N)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 3:
        raise ValueError("need at least 3 (N, value) points")
    if np.any(pts <= 0):
        raise ValueError("log-log fits need positive N and values")
    x = np.log(pts[:, 0])
    y = np.log(pts[:, 1])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return SlopeFit(slope=float(slope), intercept=float(intercept), r_squared=max(min(r2, 1.0), 0.0))


def _theta_polynomial(g: LocalFunction) -> list[tuple[float, tuple[int, ...]]]:
    """The window mean of g as a polynomial in the window's parameters:
    each monomial with E[eta^p | theta] expanded over its raw-moment
    coefficients, as (coefficient, Theta exponent vector) pairs."""
    if g.monomials is None:
        raise ValueError("exact mixture means require a polynomial local function")
    if (g.degree or 0) > _MAX_POLY_DEGREE:
        raise ValueError(f"exact mixture means support degree <= {_MAX_POLY_DEGREE}")
    poly = []
    for exps, coef in g.monomials.items():
        per_site = [geometric_raw_moment_coefficients(e) for e in exps]
        for qs in itertools.product(*(range(c.size) for c in per_site)):
            weight = coef * math.prod(c[q] for c, q in zip(per_site, qs))
            if weight != 0.0:
                poly.append((weight, qs))
    return poly


def exact_field_mean(
    g: LocalFunction, phi: TestFunction, n_sites: int, bounds: BoundaryParams
) -> float:
    """Exact mean of the field of g: (1/N) sum_i E[g(window i)] phi(i/(N+1)),
    all window means at once from order-statistic product moments."""
    starts = np.arange(1, n_sites - g.k + 2)
    weights = phi((starts - 1) / (n_sites + 1))
    means = theta_window_moments(starts, _theta_polynomial(g), n_sites, bounds)
    return float(weights @ means / n_sites)


@dataclass(frozen=True)
class LlnResult:
    rows: tuple[tuple[int, float, float], ...]  # (N, mean |X - limit|, se)
    limit: float
    sigma_total: float

    def final_threshold(self, n_se: float = 5.0) -> float:
        n = self.rows[-1][0]
        return n_se * math.sqrt(self.sigma_total / n)

    @property
    def decreasing(self) -> bool:
        devs = [r[1] for r in self.rows]
        return all(b < a for a, b in zip(devs, devs[1:]))


def run_lln(cfg: ExperimentConfig) -> LlnResult:
    """Mean absolute deviation of the field from its limit, per ladder N."""
    if cfg.g.monomials is not None and (cfg.g.degree or 0) > _MAX_POLY_DEGREE:
        raise ValueError("polynomial degree cap exceeded for the moment hypotheses")
    limit = lln_limit(cfg.g, cfg.phi, cfg.bounds)
    sigma = clt_variances(cfg.g, cfg.phi, cfg.bounds).total
    rows = []
    for n in cfg.n_ladder:

        def fn(rng, count, n=n):
            return np.abs(_field_chunk(rng, count, n, cfg.bounds, cfg.g, cfg.phi) - limit)

        devs = np.concatenate(_map_chunks(fn, cfg.replicas, n, cfg.seed, cfg.workers))
        rows.append(
            (n, float(devs.mean()), float(devs.std(ddof=1) / math.sqrt(devs.size)))
        )
    return LlnResult(rows=tuple(rows), limit=limit, sigma_total=sigma)


@dataclass(frozen=True, eq=False)
class CltResult:
    n_sites: int
    samples: np.ndarray
    ks_distance: float
    ks_threshold: float
    exact_mean: float
    sample_variance: float
    variance_se: float
    target: CltVariances

    @property
    def ks_pass(self) -> bool:
        return self.ks_distance < self.ks_threshold

    @property
    def variance_pass(self) -> bool:
        return abs(self.sample_variance - self.target.total) <= 5.0 * self.variance_se


def run_clt(cfg: ExperimentConfig) -> CltResult:
    """Distribution of the rescaled fluctuation field at the largest N.

    Samples sqrt(N) * (X_N - exact mean) and compares them against the
    centered normal law with the analytic limit variance: KS distance
    (threshold 1.4x the asymptotic 1% critical value, the slack covering
    the finite-N distance of the law itself) plus a variance check within
    five standard errors of the variance estimator.
    """
    if cfg.replicas < 2000:
        raise ValueError("distributional tests need at least 2000 replicas")
    n = cfg.n_ladder[-1]
    target = clt_variances(cfg.g, cfg.phi, cfg.bounds)
    mean = exact_field_mean(cfg.g, cfg.phi, n, cfg.bounds)

    def fn(rng, count):
        return math.sqrt(n) * (_field_chunk(rng, count, n, cfg.bounds, cfg.g, cfg.phi) - mean)

    samples = np.concatenate(_map_chunks(fn, cfg.replicas, n, cfg.seed, cfg.workers))
    ks = ks_statistic(samples, normal_cdf(0.0, target.total))
    centered_sq = samples**2
    var = float(np.mean(centered_sq))  # exact centering: no mean subtraction
    var_se = float(np.std(centered_sq, ddof=1) / math.sqrt(samples.size))
    return CltResult(
        n_sites=n,
        samples=samples,
        ks_distance=ks,
        ks_threshold=1.4 * ks_critical_value(samples.size, 0.01),
        exact_mean=mean,
        sample_variance=var,
        variance_se=var_se,
        target=target,
    )


@dataclass(frozen=True, eq=False)
class BridgeResult:
    n_sites: int
    grid: tuple[float, ...]
    empirical: np.ndarray
    analytic: np.ndarray
    standard_errors: np.ndarray

    def max_deviation_in_se(self) -> float:
        return float(np.max(np.abs(self.empirical - self.analytic) / self.standard_errors))


def run_bridge(
    cfg: ExperimentConfig, grid: Sequence[float] | None = None
) -> BridgeResult:
    """Empirical covariance of the rescaled parameter fluctuations.

    For grid points s, t the covariance of sqrt(N)(Theta_{floor(sN)} - mean)
    is compared against the kernel width^2 * (min(s,t) - s*t).  Centering
    uses the exact order-statistic means; standard errors come from the
    empirical fourth moments.
    """
    if cfg.replicas < 2000:
        raise ValueError("covariance estimation needs at least 2000 replicas")
    grid = tuple(float(s) for s in (grid if grid is not None else (0.25, 0.5, 0.75)))
    if not grid:
        raise ValueError("the bridge grid must be non-empty")
    points = np.array(grid)
    analytic = bridge_covariance(points[:, None], points[None, :], cfg.bounds)
    n = cfg.n_ladder[-1]
    idx = np.array([int(math.floor(s * n)) for s in grid])
    if np.any(idx < 1):
        raise ValueError("grid points map outside the chain")
    exact_means = theta_marginals(n, cfg.bounds)[0][idx - 1]

    def fn(rng, count):
        # F-order, the layout of thetas[:, idx - 1]: the pairwise sums in
        # _bridge_moments follow the memory layout
        cols = np.empty((idx.size, count)).T
        for lo, hi in _row_blocks(count, n):
            cols[lo:hi] = profile_batch(n, cfg.bounds, rng, hi - lo)[:, idx - 1]
        return _bridge_moments(math.sqrt(n) * (cols - exact_means))

    parts = _map_chunks(fn, cfg.replicas, n, cfg.seed, cfg.workers)
    s1 = sum(p[0] for p in parts)
    s2 = sum(p[1] for p in parts)
    s4 = sum(p[2] for p in parts)
    r = cfg.replicas
    mean_v = s1 / r
    cov = s2 / r - np.outer(mean_v, mean_v)
    cov *= r / (r - 1)
    var_of_cov = s4 / r - (s2 / r) ** 2
    se = np.sqrt(np.maximum(var_of_cov, 0.0) / r)
    return BridgeResult(
        n_sites=n,
        grid=grid,
        empirical=cov,
        analytic=analytic,
        standard_errors=se,
    )


def _bridge_moments(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    prods = v[:, :, None] * v[:, None, :]
    return v.sum(axis=0), prods.sum(axis=0), (prods**2).sum(axis=0)


@dataclass(frozen=True)
class LeScalingResult:
    rows: tuple[tuple[int, float], ...]  # (N, deviation)
    fit: SlopeFit | None

    @property
    def degenerate(self) -> bool:
        return self.fit is None


def run_le_scaling(
    x: float, powers: Sequence[int], n_ladder: Sequence[int], bounds: BoundaryParams
) -> LeScalingResult:
    """Log-log slope of the exact local-equilibrium deviation along a
    ladder of system sizes.  Deterministic: no Monte Carlo is involved.
    An all-zero deviation ladder (equilibrium) yields a degenerate report
    with fit = None."""
    rows = tuple((int(n), le_deviation(x, powers, int(n), bounds)) for n in n_ladder)
    if any(dev == 0.0 for _, dev in rows):
        return LeScalingResult(rows=rows, fit=None)
    fit = fit_log_slope([(n, abs(dev)) for n, dev in rows])
    return LeScalingResult(rows=rows, fit=fit)


@dataclass(frozen=True)
class ConcentrationResult:
    rows: tuple[tuple[int, float, float, float, float], ...]
    # (N, eps, empirical tail, se, union bound)

    @property
    def tail_nonincreasing(self) -> bool:
        tails = [r[2] for r in self.rows]
        return all(b <= a for a, b in zip(tails, tails[1:]))


def run_concentration(
    n_ladder: Sequence[int],
    bounds: BoundaryParams,
    replicas: int,
    seed: RandomSeed,
    eps_schedule: Sequence[float] | None = None,
    workers: int = 1,
) -> ConcentrationResult:
    """Empirical tail of the maximal parameter deviation, per ladder N.

    Reports P(max_i |Theta_i - E Theta_i| >= eps(N)) next to the
    Chebyshev union bound computed from the verified order-statistic
    variance i(N+1-i) width^2 / ((N+1)^2 (N+2)), along a ladder increasing
    from N >= 1, with one eps per N in ``eps_schedule``.  With the default
    eps(N) = N^(-1/4) the empirical tail vanishes along the ladder even
    though that union bound does not (it is O(1) and clipped at 1), so the
    bound column is diagnostic only.
    """
    if replicas < 10**4:
        raise ValueError("tail estimation needs at least 10^4 replicas")
    ladder = _ladder(n_ladder)
    if eps_schedule is None:
        eps_list = [n ** (-0.25) for n in ladder]
    else:
        eps_list = [float(e) for e in eps_schedule]
        if len(eps_list) != len(ladder):
            raise ValueError("eps schedule length must match the ladder")
    rows = []
    for n, eps in zip(ladder, eps_list):
        exact_mean, variances = theta_marginals(n, bounds)
        union = min(1.0, float(variances.sum()) / eps**2) if eps > 0 else 1.0

        def fn(rng, count, n=n, eps=eps, exact_mean=exact_mean):
            sup_dev = np.empty(count)
            for lo, hi in _row_blocks(count, n):
                thetas = profile_batch(n, bounds, rng, hi - lo)
                thetas -= exact_mean
                np.abs(thetas, out=thetas)
                thetas.max(axis=1, out=sup_dev[lo:hi])
            return (sup_dev >= eps).astype(float)

        hits = np.concatenate(_map_chunks(fn, replicas, n, seed.substream(n), workers))
        p = float(hits.mean())
        se = math.sqrt(max(p * (1.0 - p), 0.0) / replicas)
        rows.append((n, eps, p, se, union))
    return ConcentrationResult(rows=tuple(rows))


@dataclass(frozen=True, eq=False)
class MarginalCheckResult:
    n_sites: int
    site_index: np.ndarray
    empirical_mean: np.ndarray
    mean_se: np.ndarray
    exact_mean: np.ndarray
    empirical_var: np.ndarray
    var_se: np.ndarray
    exact_var: np.ndarray
    competing_var: np.ndarray

    def mean_deviations_in_se(self) -> np.ndarray:
        return np.abs(self.empirical_mean - self.exact_mean) / self.mean_se

    def var_deviations_in_se(self) -> np.ndarray:
        return np.abs(self.empirical_var - self.exact_var) / self.var_se

    def competing_var_deviations_in_se(self) -> np.ndarray:
        return np.abs(self.empirical_var - self.competing_var) / self.var_se


def check_profile_marginals(
    n_sites: int,
    bounds: BoundaryParams,
    replicas: int,
    seed: RandomSeed,
    workers: int = 1,
) -> MarginalCheckResult:
    """Empirical mean and variance of each ordered parameter vs the
    rescaled Beta(i, N+1-i) formulas.

    ``competing_var`` is the variant formula with an extra factor N+2 in
    the denominator; the check quantifies how decisively the data rule it
    out (its deviation should be far outside the error band whenever the
    two formulas differ measurably).
    """

    def fn(rng, count):
        thetas = profile_batch(n_sites, bounds, rng, count)
        return np.stack(
            [
                thetas.sum(axis=0),
                (thetas**2).sum(axis=0),
                (thetas**3).sum(axis=0),
                (thetas**4).sum(axis=0),
            ]
        )

    parts = _map_chunks(fn, replicas, n_sites, seed, workers)
    sums = sum(parts)
    r = replicas
    m1 = sums[0] / r
    m2 = sums[1] / r
    m3 = sums[2] / r
    m4 = sums[3] / r
    var = (m2 - m1**2) * r / (r - 1)
    mean_se = np.sqrt(np.maximum(var, 0.0) / r)
    # se of the variance estimator from central fourth moments
    mu4 = m4 - 4 * m3 * m1 + 6 * m2 * m1**2 - 3 * m1**4
    var_se = np.sqrt(np.maximum(mu4 - var**2, 0.0) / r)
    exact_mean, exact_var = theta_marginals(n_sites, bounds)
    return MarginalCheckResult(
        n_sites=n_sites,
        site_index=np.arange(1, n_sites + 1),
        empirical_mean=m1,
        mean_se=mean_se,
        exact_mean=exact_mean,
        empirical_var=var,
        var_se=var_se,
        exact_var=exact_var,
        competing_var=exact_var / (n_sites + 2),
    )


def annealed_mc_estimate(
    g: LocalFunction,
    lam: float,
    n_sites: int,
    bounds: BoundaryParams,
    replicas: int,
    seed: RandomSeed,
    workers: int = 1,
) -> tuple[float, float]:
    """(1/N) log E[exp(lam * N * field with phi = 1)] over steady-state
    replicas, with a delta-method standard error for the (1/N) log.

    Equal reservoirs, BoundaryParams(theta, theta), give the homogeneous
    geometric product at theta."""

    def fn(rng, count):
        return lam * n_sites * _field_chunk(rng, count, n_sites, bounds, g, phi_one())

    exponents = np.concatenate(_map_chunks(fn, replicas, n_sites, seed, workers))
    shift = float(exponents.max())
    scaled = np.exp(exponents - shift)
    mean = float(scaled.mean())
    se_log = float(scaled.std(ddof=1) / (mean * math.sqrt(scaled.size)))
    return (shift + math.log(mean)) / n_sites, se_log / n_sites
