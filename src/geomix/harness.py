"""Monte Carlo experiment runner and statistical verdicts.

Experiments draw steady-state replicas from keyed streams of a master
seed, so re-runs are bit-identical for any worker count, and report
effect sizes with standard errors rather than bare pass/fails.
Central-limit runs are centered at the exact mixture mean (empirical
centering would inflate the distributional distance at practical replica
counts).  For a polynomial g and phi that mean is a rational number:
with E[g | Theta] from ``moments._conditional_mean``, each window moment
is N!/(N+L)! times an integer polynomial in the window's start, so the
sum over windows is one of integer power sums, evaluated exactly and
rounded once, at a cost that does not grow with N.

A chunk of replicas is the stream unit: its size is fixed, and chunk c
at the i-th N of a run's ladder (i = 0 at one N) draws each purpose from
the stream keyed (stream, purpose, i, c) (:meth:`RandomSeed.generator`).
Inside a chunk, rows are drawn and reduced in row blocks of about
``_BLOCK_BUDGET`` doubles, in order, so the blocks' draws are the chunk's
draws.  The row block is the cache and memory unit: its size is free to
change and never moves an output byte.

Each reduction draws only what it reads.  The field runs draw each
block's profile rows and configuration from the chunk's profile and
configuration streams, so no chunk-wide profile is held.  Each block's
configuration stays in its reused buffer as exact float64 counts (the
transform of ``configuration_batch`` without its int64 cast) for g to
read, and g's value goes into the profile rows' buffer: two blocks.
``check_profile_marginals`` adds the powers of each block's profile rows
to running sums, in the order of one sum over the chunk.  ``run_bridge``
draws the order statistics at its grid ranks alone, from |grid| + 1
Gamma spacings per replica.  ``run_concentration`` draws each replica's
order statistics at B - 1 fixed ranks the same way, in row blocks, screens
them, and draws and sorts whole rows from a second stream only where they
leave the row undecided.  The calling thread and its helper threads share
a run's (ladder index, chunk) tasks (:func:`_map_chunks`).

The five sampled runs take plain arguments and share one input gate in
:func:`_map_chunks` (replicas, workers, row width); each keeps only its
own checks (replica floors, degree cap, bridge grid, eps schedule).
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from threading import Lock, Thread
from typing import Callable, Sequence

import numpy as np

from geomix.asymptotics import (
    CltVariances,
    bridge_covariance,
    clt_variances,
    lln_limit,
)
from geomix.core import (
    _MAX_SITES,
    BoundaryParams,
    LocalFunction,
    Purpose,
    RandomSeed,
    _geometric_counts,
    sorted_profile,
)
from geomix.duality import le_deviation
from geomix.fields import TestFunction, _field_weights, field_values_batch
from geomix.moments import (
    _conditional_mean,
    _dyadic,
    _window_polynomial,
    theta_marginals,
)

__all__ = [
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
]

_CHUNK_BUDGET = 2**22  # doubles per sampling chunk, the stream unit; fixed so
# chunking is independent of worker count and results stay replica-reproducible
_BLOCK_BUDGET = 2**16  # doubles per row block inside a chunk, the cache and
# memory unit (512 KiB, so that a field run worker's two blocks fit in a
# 2 MiB L2); any value gives the same output bytes
_MAX_POLY_DEGREE = 6
# the screen's rounding margin, relative to theta_right: the sort path's
# deviation, the screen's bound and a filled point lie within 6, 5 and 3
# units of 2^-53 * theta_right of their exact values, and 2^-48 is 32 units
_SCREEN_MARGIN = 2.0**-48
_SEGMENT_SITES = 16  # sites per screen segment at least: a Gamma spacing costs
# four row points' draw and sort (40 and 9 ns on a 2-core Xeon VM, numpy 2.4)


def _ladder(n_ladder: Sequence[int]) -> tuple[int, ...]:
    ladder = tuple(int(n) for n in n_ladder)
    if not ladder or ladder[0] < 1 or any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("n_ladder must be a non-empty increasing sequence of N >= 1")
    return ladder


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float

    def __post_init__(self) -> None:
        if not -1e-12 <= self.r_squared <= 1.0 + 1e-12:
            raise ValueError("r_squared must lie in [0, 1]")


def _check_sites(n_sites: int) -> None:
    """Refuse a row wider than ``_MAX_SITES`` before it is allocated."""
    if n_sites > _MAX_SITES:
        raise ValueError(f"sampling runs take N <= {_MAX_SITES}, got {n_sites}")


def _chunk_size(n_sites: int) -> int:
    return max(1, _CHUNK_BUDGET // max(n_sites, 1))


def _block_rows(n_sites: int) -> int:
    return max(1, _BLOCK_BUDGET // max(n_sites, 1))


def _row_blocks(count: int, n_sites: int):
    """(start, stop) row ranges of one chunk, in order, each of about
    ``_BLOCK_BUDGET`` doubles (at least one row)."""
    rows = _block_rows(n_sites)
    for start in range(0, count, rows):
        yield start, min(start + rows, count)


def _map_chunks(
    jobs: Sequence[tuple[Callable, int]], replicas: int, seed: RandomSeed, workers: int
) -> list[list]:
    """Evaluate each job's ``fn(streams, count)`` over fixed-size replica
    chunks; ``jobs`` holds one ``(fn, n_sites)`` per ladder N, in order.

    ``streams(purpose)`` builds chunk c's stream of that purpose at the
    job's ladder index.  The caller and up to ``workers - 1`` helper
    threads take the (ladder index, chunk) tasks from one shared iterator,
    the largest first so that the small ones even out the threads' ends,
    and store each result at its job and chunk, so the output is the same
    for any worker count and order of execution.  Once a task fails no
    thread takes another; all join, and the earliest failed task's
    exception, in task order, is raised.  Before any task is planned it
    refuses, for every sampled run, replicas below 2 (no standard error),
    workers below 1 and a job row wider than ``_MAX_SITES``.
    """
    if replicas < 2:
        raise ValueError(f"replicas must be >= 2, got {replicas}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    for _, n_sites in jobs:
        _check_sites(n_sites)
    chunks = [_chunk_size(n_sites) for _, n_sites in jobs]
    out: list[list] = [[None] * -(-replicas // chunk) for chunk in chunks]
    tasks = sorted(
        ((i, c, min(chunk, replicas - c * chunk)) for i, chunk in enumerate(chunks)
         for c in range(len(out[i]))),
        key=lambda t: -t[2] * jobs[t[0]][1],
    )
    errors: dict[int, BaseException] = {}
    lock = Lock()

    def work(order):
        while True:
            with lock:
                k, task = (None, None) if errors else next(order, (None, None))
            if task is None:
                return
            i, c, count = task
            try:
                out[i][c] = jobs[i][0](functools.partial(seed.generator, ladder=i, chunk=c), count)
            except BaseException as exc:
                errors[k] = exc

    # each thread holds a chunk, so threads beyond the tasks or the usable
    # CPUs only add memory
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    threads = min(workers, len(tasks), cpus)
    order = iter(enumerate(tasks))
    helpers = [Thread(target=work, args=(order,)) for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    work(order)
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[min(errors)]
    return out


def _order_statistics(rng: np.random.Generator, gaps: np.ndarray, count: int) -> np.ndarray:
    """``count`` rows of the order statistics of N uniforms at the ranks
    1 <= r_1 < ... < r_m <= N alone, from the gaps r_1, r_2 - r_1, ...,
    N + 1 - r_m: with S the partial sums of Gamma spacings of these shapes,
    (U_(r_1), ..., U_(r_m)) has the law of (S_1, ..., S_m) / S_{m+1}
    (Devroye 1986, ch. V).  Rows drawn in blocks are the rows drawn at once.
    The sums and ratios are taken in place: the rows are a view of the draws."""
    sums = rng.standard_gamma(gaps, size=(count, gaps.size))
    np.cumsum(sums, axis=1, out=sums)
    sums[:, :-1] /= sums[:, -1:]
    return sums[:, :-1]


def _field_chunk(
    streams: Callable[[Purpose], np.random.Generator],
    count: int,
    n_sites: int,
    bounds: BoundaryParams,
    g: LocalFunction,
    phi: TestFunction,
) -> np.ndarray:
    """Field values of ``count`` steady-state replicas, one row block at a
    time, from the chunk's profile and configuration streams."""
    rng, occ_rng = streams(Purpose.PROFILES), streams(Purpose.CONFIGURATIONS)
    values = np.empty(count)
    rows = min(count, _block_rows(n_sites))
    # a block's live set is two buffers of one block, reused per chunk: the
    # profile rows, which become -log p and then g's value, and the uniforms
    # that become the counts.  glibc serves an array from the heap only below
    # its mmap threshold, which it raises to the size of each mmap-ed array
    # freed (to 32 MiB at most), and trims the heap once its free top exceeds
    # twice that threshold.  Freeing one untouched array of the live set's
    # size, which holds no resident page, lifts the threshold above a block
    # and the trim bar to four blocks, above the two a chunk frees at its
    # end, so both buffers stay on the heap and the next chunk reuses their
    # pages instead of faulting fresh ones in.
    np.empty(min(2 * rows * n_sites, 2**21))
    theta_buf = np.empty((rows, n_sites))
    occ_buf = np.empty_like(theta_buf)
    weights = _field_weights(phi, n_sites, g.k)
    windows = max(n_sites - g.k + 1, 0)
    for lo, hi in _row_blocks(count, n_sites):
        thetas = sorted_profile(rng.random(out=theta_buf[: hi - lo]), bounds)
        # -log p, then g's value, overwrite the profile rows
        occ = _geometric_counts(thetas, occ_rng.random(out=occ_buf[: hi - lo]), thetas)
        out = theta_buf.reshape(-1)[: (hi - lo) * windows].reshape(hi - lo, windows)
        values[lo:hi] = field_values_batch(g, phi, occ, weights, out)
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


def ks_critical_value(n_samples: int) -> float:
    """Asymptotic Kolmogorov critical value c/sqrt(n) at level 0.01."""
    # c solves 2 * sum_k (-1)^{k-1} exp(-2 k^2 c^2) = 0.01
    return 1.6276 / math.sqrt(n_samples)


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


def _power_sums(m: int, p: int) -> list[int]:
    """sum_{s=1}^{m} s^j for j = 0..p, exactly, by Pascal's recursion
    (m+1)^(j+1) - 1 = sum_{i<=j} C(j+1, i) * S_i."""
    sums: list[int] = []
    for j in range(p + 1):
        rest = sum(math.comb(j + 1, i) * sums[i] for i in range(j))
        sums.append(((m + 1) ** (j + 1) - 1 - rest) // (j + 1))
    return sums


def exact_field_mean(
    g: LocalFunction, phi: TestFunction, n_sites: int, bounds: BoundaryParams
) -> float:
    """Exact mean of the field of g: (1/N) sum_s E[g(window s)] phi((s-1)/(N+1))
    over the starts s = 1..N-k+1, as a rational rounded once.

    Each window mean is a sum over Theta exponent vectors
    (:func:`moments._conditional_mean`), each Theta = theta_left + width * U is
    expanded binomially, with the bounds as the exact rationals of their
    doubles, and each uniform exponent vector e of total L has the moment
    N!/(N+L)! * Q_e(s), an integer polynomial in s
    (:func:`moments._window_polynomial`).  With phi a polynomial, the sum
    over s is then one of integer power sums of s, so the cost does not
    depend on N.  Every term is an integer over one common denominator, and
    the mean is their quotient, which Python's integer division rounds
    correctly.  phi must carry its coefficients.
    """
    if phi.coefficients is None:
        raise ValueError("exact mixture means require a polynomial test function")
    if n_sites < 1:
        raise ValueError(f"n_sites must be >= 1, got {n_sites}")
    if g.monomials is None:
        raise ValueError("exact mixture means require a polynomial local function")
    if (g.degree or 0) > _MAX_POLY_DEGREE:
        raise ValueError(f"exact mixture means support degree <= {_MAX_POLY_DEGREE}")
    n = n_sites
    coefs, g_den = _dyadic(g.monomials.values())
    poly = _conditional_mean(zip(coefs, g.monomials))
    (lo, right), b_den = _dyadic([bounds.theta_left, bounds.theta_right])
    width = right - lo
    degree = max((sum(exps) for _, exps in poly), default=0)
    # sum_e c_e N!/(N+L_e)! Q_e(s) over the uniform exponent vectors e, by
    # powers of s, times g_den * b_den^degree * (N+1)...(N+degree)
    moment = [0] * (degree + 1)
    for weight, exps in poly:
        for ls in itertools.product(*(range(p + 1) for p in exps)):
            total = sum(ls)
            coef = weight * lo ** (sum(exps) - total) * width**total
            if not coef:
                continue
            coef *= math.prod(math.comb(p, l) for p, l in zip(exps, ls))
            coef *= b_den ** (degree - sum(exps)) * math.prod(range(n + total + 1, n + degree + 1))
            for j, c in enumerate(_window_polynomial(ls)):
                moment[j] += coef * c
    # phi((s-1)/(N+1)) by powers of s, times f_den * (N+1)^deg(phi)
    coefs, f_den = _dyadic(phi.coefficients)
    weights = [0] * len(coefs)
    for d, c in enumerate(coefs):
        c *= (n + 1) ** (len(coefs) - 1 - d)
        for j in range(d + 1):
            weights[j] += c * math.comb(d, j) * (-1) ** (d - j)
    sums = _power_sums(max(n - g.k + 1, 0), len(moment) + len(weights) - 2)
    mean = sum(a * b * sums[i + j] for i, a in enumerate(moment) for j, b in enumerate(weights))
    den = g_den * b_den**degree * math.prod(range(n + 1, n + degree + 1))
    return mean / (den * f_den * (n + 1) ** (len(coefs) - 1) * n)


@dataclass(frozen=True)
class LlnResult:
    rows: tuple[tuple[int, float, float], ...]  # (N, mean |X - limit|, se)
    limit: float
    sigma_total: float

    @property
    def final_threshold(self) -> float:
        """The CLT band at the last N: 5 sqrt(sigma_total / N)."""
        return 5.0 * math.sqrt(self.sigma_total / self.rows[-1][0])

    @property
    def decreasing(self) -> bool:
        devs = [r[1] for r in self.rows]
        return all(b < a for a, b in zip(devs, devs[1:]))


def run_lln(
    n_ladder: Sequence[int], bounds: BoundaryParams, g: LocalFunction, phi: TestFunction,
    replicas: int, seed: RandomSeed, workers: int = 1,
) -> LlnResult:
    """Mean absolute deviation of the field from its limit, per N of a
    ladder increasing from N >= 1."""
    ladder = _ladder(n_ladder)
    if g.monomials is not None and (g.degree or 0) > _MAX_POLY_DEGREE:
        raise ValueError("polynomial degree cap exceeded for the moment hypotheses")
    limit = lln_limit(g, phi, bounds)
    sigma = clt_variances(g, phi, bounds).total
    field = functools.partial(_field_chunk, bounds=bounds, g=g, phi=phi)
    jobs = [(functools.partial(field, n_sites=n), n) for n in ladder]
    rows = []
    for n, parts in zip(ladder, _map_chunks(jobs, replicas, seed, workers)):
        devs = np.abs(np.concatenate(parts) - limit)
        rows.append((n, float(devs.mean()), float(devs.std(ddof=1) / math.sqrt(devs.size))))
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


def run_clt(
    n_sites: int, bounds: BoundaryParams, g: LocalFunction, phi: TestFunction,
    replicas: int, seed: RandomSeed, workers: int = 1,
) -> CltResult:
    """Distribution of the rescaled fluctuation field at N = ``n_sites``.

    Samples sqrt(N) * (X_N - exact mean) and compares them against the
    centered normal law with the analytic limit variance: KS distance
    (threshold 1.4x the asymptotic 1% critical value, the slack covering
    the finite-N distance of the law itself) plus a variance check within
    five standard errors of the variance estimator.
    """
    if replicas < 2000:
        raise ValueError("distributional tests need at least 2000 replicas")
    n = int(n_sites)
    # first the exact mean, which refuses a g of degree above its cap before
    # the variances expand moments of twice that degree
    mean = exact_field_mean(g, phi, n, bounds)
    target = clt_variances(g, phi, bounds)
    field = functools.partial(_field_chunk, n_sites=n, bounds=bounds, g=g, phi=phi)
    (parts,) = _map_chunks([(field, n)], replicas, seed, workers)
    samples = math.sqrt(n) * (np.concatenate(parts) - mean)
    ks = ks_statistic(samples, normal_cdf(0.0, target.total))
    centered_sq = samples**2
    var = float(np.mean(centered_sq))  # exact centering: no mean subtraction
    var_se = float(np.std(centered_sq, ddof=1) / math.sqrt(samples.size))
    return CltResult(
        n_sites=n, samples=samples, ks_distance=ks,
        ks_threshold=1.4 * ks_critical_value(samples.size), exact_mean=mean,
        sample_variance=var, variance_se=var_se, target=target,
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
    n_sites: int,
    bounds: BoundaryParams,
    replicas: int,
    seed: RandomSeed,
    grid: Sequence[float] | None = None,
    workers: int = 1,
) -> BridgeResult:
    """Empirical covariance of the rescaled parameter fluctuations.

    For grid points s in [1/N, 1), the covariance of
    sqrt(N)(Theta_{floor(sN)} - mean) is compared against the kernel
    width^2 * (min(s,t) - s*t).  Centering uses the exact order-statistic
    means; standard errors come from the empirical fourth moments.  At
    s = 1 the maximum's scaled variance is O(1/N) against a kernel of 0,
    so that point is refused.

    Only the order statistics at the grid ranks are drawn
    (:func:`_order_statistics`).  A replica costs |grid| + 1 Gamma draws
    and |grid|^2 moment products, whatever N, and the chunks are sized by
    that width, so neither cost nor memory grows with N.  That width is
    capped like a row of sites, so a grid of 5793 points or more is refused.
    """
    if replicas < 2000:
        raise ValueError("covariance estimation needs at least 2000 replicas")
    grid = tuple(float(s) for s in (grid if grid is not None else (0.25, 0.5, 0.75)))
    if not grid:
        raise ValueError("the bridge grid must be non-empty")
    n = int(n_sites)
    idx = np.array([int(math.floor(s * n)) for s in grid])
    if np.any(idx < 1) or np.any(idx >= n):
        raise ValueError(f"bridge grid points must lie in [1/N, 1) for N = {n}")
    ranks, columns = np.unique(idx, return_inverse=True)
    gaps = np.diff(ranks, prepend=0, append=n + 1).astype(float)
    # the arithmetic of theta_marginals, at the grid ranks only
    exact_means = bounds.theta_left + bounds.width * idx / (n + 1)

    def fn(streams, count):
        thetas = _order_statistics(streams(Purpose.PROFILES), gaps, count)[:, columns]
        thetas *= bounds.width
        thetas += bounds.theta_left
        thetas -= exact_means
        thetas *= math.sqrt(n)
        return _bridge_moments(thetas)

    # a replica holds its spacings and its |grid|^2 products, not N sites
    (parts,) = _map_chunks([(fn, gaps.size + idx.size**2)], replicas, seed, workers)
    s1, s2, s4 = (sum(p[k] for p in parts) for k in range(3))
    points = np.array(grid)  # past the gate: the kernel holds |grid|^2 values
    analytic = bridge_covariance(points[:, None], points[None, :], bounds)
    r = replicas
    mean_v = s1 / r
    cov = s2 / r - np.outer(mean_v, mean_v)
    cov *= r / (r - 1)
    var_of_cov = s4 / r - (s2 / r) ** 2
    se = np.sqrt(np.maximum(var_of_cov, 0.0) / r)
    return BridgeResult(n_sites=n, grid=grid, empirical=cov, analytic=analytic, standard_errors=se)


def _bridge_moments(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    prods = v[:, :, None] * v[:, None, :]
    second = prods.sum(axis=0)
    return v.sum(axis=0), second, np.multiply(prods, prods, out=prods).sum(axis=0)


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
    with fit = None.  The ladder must increase from N >= 1."""
    rows = tuple((n, le_deviation(x, powers, n, bounds)) for n in _ladder(n_ladder))
    if any(dev == 0.0 for _, dev in rows):
        return LeScalingResult(rows=rows, fit=None)
    fit = fit_log_slope([(n, abs(dev)) for n, dev in rows])
    return LeScalingResult(rows=rows, fit=fit)


def _screen_segments(n: int, eps: float, width: float) -> int:
    """Segments B of the concentration screen at N sites: the least power
    of two up to N / ``_SEGMENT_SITES`` whose typical bound
    width * (1/B + 1/sqrt(N)) is within eps, else 1.  One segment draws no
    rank, and decides a row only where eps exceeds every deviation."""
    b = 1
    while _SEGMENT_SITES * b <= n:
        if width * (1.0 / b + 1.0 / math.sqrt(n)) <= eps:
            return b
        b *= 2
    return 1


def _below_eps(v: np.ndarray, ranks: np.ndarray, n: int, eps, bounds: BoundaryParams) -> np.ndarray:
    """Rows whose sup deviation is surely below eps, from U at their ranks.

    ``ranks`` is r_0 = 0 < r_1 < ... < r_B = N + 1, and ``v`` holds each
    row's V_i = U_(r_i), i = 1..B-1 (V_0 = 0, V_B = 1).  The ranks r_i + 1
    .. r_{i+1} - 1 lie in segment i, [V_i, V_{i+1}], so every deviation
    width * |U_(j) - j/(N+1)|, the V_i's too, is at most width times the
    largest V_{i+1} - (r_i + 1)/(N+1) or (r_{i+1} - 1)/(N+1) - V_i.  A
    False row may still fall below eps; only its sorted points decide it.
    """
    gap = v - (ranks[:-2] + 1) / (n + 1)  # one scratch for both sides' gaps
    above = gap.max(axis=1, initial=(n - ranks[-2]) / (n + 1))
    np.subtract((ranks[2:] - 1) / (n + 1), v, out=gap)
    below = gap.max(axis=1, initial=(ranks[1] - 1) / (n + 1))
    bound = bounds.width * np.maximum(above, below)
    return bound + _SCREEN_MARGIN * bounds.theta_right < eps


def _concentration_chunk(streams, count: int, n: int, eps: float, b: int, bounds) -> np.ndarray:
    """Each of ``count`` replicas' hit, max_j |Theta_(j) - E Theta_(j)| >= eps,
    screened at the ranks of B = ``b`` segments in row blocks and sorted
    where left undecided.  The B + 1 <= N / 16 + 1 ranks are built here,
    past the row gate: r_0 = 0 < r_1 < ... < r_B = N + 1."""
    ranks = np.arange(b + 1) * (n + 1) // b
    hits = np.zeros(count)
    spacings = streams(Purpose.SPACINGS) if ranks.size > 2 else None
    gaps = np.diff(ranks)
    fill = None
    for lo, hi in _row_blocks(count, gaps.size):
        if spacings is None:  # one segment: no rank to draw
            v = np.empty((hi - lo, 0))
        else:
            v = _order_statistics(spacings, gaps, hi - lo)
        undecided = np.flatnonzero(~_below_eps(v, ranks, n, eps, bounds))
        if undecided.size and fill is None:  # the only arrays N sites long
            fill = streams(Purpose.FILLS)
            # the arithmetic of theta_marginals, for the means alone
            exact_mean = bounds.theta_left + bounds.width * np.arange(1, n + 1) / (n + 1)
            segment = np.repeat(np.arange(gaps.size), gaps)[1:]
            # one buffer per chunk: fresh blocks would fault their pages in anew
            u_buf = np.empty((min(count, _block_rows(n)), n))
        for a, b in _row_blocks(undecided.size, n):
            rows = undecided[a:b]
            u = fill.random(out=u_buf[: b - a])
            if spacings is not None:
                # ranks r_i .. r_{i+1} - 1 at V_i + (V_{i+1} - V_i) U, U = 0 at r_i
                edges = np.pad(v[rows], ((0, 0), (1, 1)), constant_values=(0.0, 1.0))
                u[:, ranks[1:-1] - 1] = 0.0
                u *= np.diff(edges)[:, segment]
                u += edges[:, segment]
            thetas = sorted_profile(u, bounds)
            thetas -= exact_mean
            np.abs(thetas, out=thetas)
            hits[lo + rows] = thetas.max(axis=1) >= eps
    return hits


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

    N uniforms are, in law, their order statistics V_i at the fixed ranks
    r_i = floor(i (N+1) / B), i = 1..B-1, and independent uniform points
    inside each segment [V_i, V_{i+1}] (V_0 = 0, V_B = 1; Devroye 1986,
    ch. V).  Each chunk draws every row's V_i from B Gamma spacings,
    B = ``_screen_segments``, from its spacing stream in row blocks; they
    bound the row's sup deviation, and a row whose bound stays below eps
    by a rounding margin is no hit.  Only the undecided rows draw their
    points from the chunk's fill stream (built only when such a row exists)
    and are sorted, so the hits are those of sorting every row; at B = 1,
    the uniforms of the unscreened sort path.
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
        if any(eps < 0 for eps in eps_list):
            raise ValueError(f"eps must be >= 0, got {eps_list}")
    jobs = []
    for n, eps in zip(ladder, eps_list):
        b = _screen_segments(n, eps, bounds.width)
        chunk = functools.partial(_concentration_chunk, n=n, eps=eps, b=b, bounds=bounds)
        jobs.append((chunk, n))
    rows = []
    for n, eps, parts in zip(ladder, eps_list, _map_chunks(jobs, replicas, seed, workers)):
        # sum_i Var[Theta_i] = width^2 N / (6 (N+1)), in closed form
        union = min(1.0, bounds.width**2 * n / (6 * (n + 1)) / eps**2) if eps > 0 else 1.0
        p = float(np.concatenate(parts).mean())
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

    def fn(streams, count):
        rng = streams(Purpose.PROFILES)
        # power sums over the chunk's rows, one row block at a time.  numpy
        # sums axis 0 one row after another, so folding the running sums
        # into a block's first row continues the whole chunk's sums exactly
        sums = np.zeros((4, n_sites))
        u_buf = np.empty((min(count, _block_rows(n_sites)), n_sites))
        for lo, hi in _row_blocks(count, n_sites):
            thetas = sorted_profile(rng.random(out=u_buf[: hi - lo]), bounds)
            for p in (4, 3, 2, 1):  # the first power last: it is thetas itself
                power = thetas**p if p > 1 else thetas
                power[0] += sums[p - 1]
                power.sum(axis=0, out=sums[p - 1])
                del power  # one power at a time
        return sums

    sums = sum(_map_chunks([(fn, n_sites)], replicas, seed, workers)[0])
    r = replicas
    m1, m2, m3, m4 = sums / r
    var = (m2 - m1**2) * r / (r - 1)
    mean_se = np.sqrt(np.maximum(var, 0.0) / r)
    # se of the variance estimator from central fourth moments
    mu4 = m4 - 4 * m3 * m1 + 6 * m2 * m1**2 - 3 * m1**4
    var_se = np.sqrt(np.maximum(mu4 - var**2, 0.0) / r)
    exact_mean, exact_var = theta_marginals(n_sites, bounds)
    return MarginalCheckResult(
        n_sites=n_sites, site_index=np.arange(1, n_sites + 1), empirical_mean=m1,
        mean_se=mean_se, exact_mean=exact_mean, empirical_var=var, var_se=var_se,
        exact_var=exact_var, competing_var=exact_var / (n_sites + 2),
    )
