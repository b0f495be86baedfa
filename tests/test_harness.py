import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import timeit
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest, kstwo, norm

from conftest import assert_within_se
from geomix import harness
from geomix.asymptotics import bridge_covariance
from geomix.core import (
    BoundaryParams,
    Purpose,
    RandomSeed,
    configuration_batch,
    density_function,
    pair_product_function,
    polynomial_function,
    profile_batch,
    sorted_profile,
)
from geomix.fields import TestFunction, field_values_batch, phi_identity, phi_one, phi_polynomial
from geomix.harness import (
    SlopeFit,
    check_profile_marginals,
    exact_field_mean,
    fit_log_slope,
    ks_critical_value,
    ks_statistic,
    normal_cdf,
    run_bridge,
    run_clt,
    run_concentration,
    run_le_scaling,
    run_lln,
)
from geomix.moments import _conditional_mean, _dyadic, theta_marginals, theta_product_moment
from oracles import annealed_mc_estimate, field_mean_exact

ROOT = Path(__file__).resolve().parents[1]


def exact_window_mean(g, start, n_sites, bounds):
    """The exact mean of g on one window: its Theta polynomial with each
    monomial's product moment."""
    weights, den = _dyadic(g.monomials.values())
    return sum(
        weight / den * theta_product_moment(start, exps, n_sites, bounds)
        for weight, exps in _conditional_mean(zip(weights, g.monomials))
    )


def test_ks_calibration_at_the_one_percent_level():
    # the asymptotic 1% critical value holds at n = 2000: the exact
    # Kolmogorov law of the statistic puts at least 99% of its mass below it
    assert kstwo.cdf(ks_critical_value(2000), 2000) >= 0.99
    # and ks_statistic is the KS statistic, sample by sample
    rng = RandomSeed(303, 0).generator()
    cdf = normal_cdf(0.0, 1.0)
    for _ in range(400):
        x = rng.normal(size=2000)
        assert ks_statistic(x, cdf) == pytest.approx(kstest(x, norm.cdf).statistic, rel=0, abs=1e-12)


def test_ks_degenerate_single_value():
    # repeated value against its own point mass: the estimator treats the
    # target CDF as continuous, so the full left gap of 1.0 is reported
    cdf = lambda x: (np.asarray(x) >= 2.0).astype(float)
    assert ks_statistic([2.0, 2.0, 2.0], cdf) == 1.0


def test_ks_shifted_gaussian_matches_max_gap():
    rng = RandomSeed(9, 9).generator()
    samples = rng.normal(loc=0.4, size=4000)
    d = ks_statistic(samples, normal_cdf(0.0, 1.0))
    analytic_gap = norm.cdf(0.2) - norm.cdf(-0.2)
    assert abs(d - analytic_gap) < 3 * 1.36 / math.sqrt(4000)


def test_ks_empty_input_rejected():
    with pytest.raises(ValueError):
        ks_statistic([], normal_cdf(0.0, 1.0))


def test_fit_log_slope_power_law():
    pts = [(n, 3.0 * n**-1.5) for n in (10, 100, 1000, 10000)]
    fit = fit_log_slope(pts)
    assert fit.slope == pytest.approx(-1.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_log_slope_constant_values():
    fit = fit_log_slope([(10, 2.0), (100, 2.0), (1000, 2.0)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0


def test_fit_log_slope_rejects_nonpositive():
    with pytest.raises(ValueError):
        fit_log_slope([(10, 1.0), (100, 0.0), (1000, 2.0)])
    with pytest.raises(ValueError):
        fit_log_slope([(10, 1.0), (100, 2.0)])


def test_slope_fit_r_squared_range():
    with pytest.raises(ValueError):
        SlopeFit(slope=1.0, intercept=0.0, r_squared=1.5)


def test_exact_window_mean_pair_and_square(bounds):
    assert exact_window_mean(pair_product_function(), 3, 10, bounds) == pytest.approx(
        theta_product_moment(3, [1, 1], 10, bounds), rel=1e-12
    )
    # E[eta^2 | theta] = theta + 2 theta^2, taken through the mixture
    g_sq = polynomial_function(1, {(2,): 1.0})
    expected = theta_product_moment(4, [1], 10, bounds) + 2 * theta_product_moment(4, [2], 10, bounds)
    assert exact_window_mean(g_sq, 4, 10, bounds) == pytest.approx(expected, rel=1e-12)


def test_run_lln_equilibrium_control(seed):
    # equal reservoirs: no bridge term, deviations still decay like 1/sqrt(N)
    eq = BoundaryParams(1.0, 1.0)
    res = run_lln((500, 5000), eq, density_function(), phi_one(), 80, seed)
    assert res.sigma_total == pytest.approx(2.0, rel=1e-6)
    assert res.rows[1][1] < res.rows[0][1]


def test_exact_window_mean_small_case(bounds):
    # N=2 density field: E[field] = (E[Theta_1] phi(0) + E[Theta_2] phi(1/3)) / 2
    g = density_function()
    assert exact_window_mean(g, 1, 2, bounds) == pytest.approx(
        theta_product_moment(1, [1], 2, bounds), rel=1e-12
    )
    mean = exact_field_mean(g, phi_identity(), 2, bounds)
    expected = (theta_product_moment(1, [1], 2, bounds) * 0.0 + theta_product_moment(2, [1], 2, bounds) * (1 / 3)) / 2
    assert mean == pytest.approx(expected, rel=1e-12)


def test_exact_field_mean_flat_weight_is_half_sum(bounds):
    # with phi = 1 the exact mean telescopes to the midpoint of the bounds
    n = 31
    mean = exact_field_mean(density_function(), phi_one(), n, bounds)
    assert mean == pytest.approx((bounds.theta_left + bounds.theta_right) / 2, rel=1e-12)


def test_exact_field_mean_requires_polynomial(bounds):
    from geomix.core import indicator_vacuum_function

    with pytest.raises(ValueError):
        exact_field_mean(indicator_vacuum_function(), phi_one(), 10, bounds)


def test_exact_field_mean_degree_cap(bounds):
    g = polynomial_function(1, {(7,): 1.0})
    with pytest.raises(ValueError):
        exact_field_mean(g, phi_one(), 10, bounds)


def _summed_power_sums(m, p):
    """sum_{s=1}^{m} s^j for j = 0..p, one start at a time."""
    return [sum(s**j for s in range(1, m + 1)) for j in range(p + 1)]


def _wide_pair(k):
    """eta_1 eta_k, a polynomial whose windows span k sites."""
    return polynomial_function(k, {(1,) + (0,) * (k - 2) + (1,): 1.0})


@pytest.mark.parametrize(
    "g", [polynomial_function(2, {(1, 1): 1.0, (2, 1): 1.0}), _wide_pair(800)], ids=["k2", "k800"]
)
def test_power_sums_match_the_sum_over_starts(monkeypatch, bounds, g):
    # the closed-form power sums of the rational mean against the sum of
    # the same integer polynomials over every start, at N = 2 * 10^4
    phi = phi_polynomial([0.3, -1.0, 2.0])
    closed = exact_field_mean(g, phi, 20000, bounds)
    monkeypatch.setattr(harness, "_power_sums", _summed_power_sums)
    assert exact_field_mean(g, phi, 20000, bounds) == closed


def test_window_moment_memory_does_not_grow_with_k(bounds):
    # the rational mean holds a few integer polynomials whatever N and k:
    # about 0.2 MiB for k = 800 at N = 10^9 (the float path it replaced
    # held per-start arrays, 235 MiB for one starts x k table at N = 2 * 10^4)
    g = _wide_pair(800)
    assert _peak_mib(lambda: exact_field_mean(g, phi_one(), 10**9, bounds)) <= 1


_MEAN_CASES = {
    "density": polynomial_function(1, {(1,): 1.0}),
    "exact-clt": polynomial_function(2, {(1, 1): 1.0, (2, 1): 1.0}),
    # zero exponents inside the window and a constant term
    "gap": polynomial_function(3, {(1, 0, 2): 0.6, (0, 0, 0): -2.0, (2, 0, 1): 1.0 / 3.0}),
}


@pytest.mark.parametrize("n", [3, 10, 64])
@pytest.mark.parametrize("g", list(_MEAN_CASES.values()), ids=list(_MEAN_CASES))
@pytest.mark.parametrize(
    "phi", [phi_one(), phi_identity(), phi_polynomial([0.3, -1.0, 2.0])], ids=["one", "x", "poly"]
)
@pytest.mark.parametrize("lo, hi", [(0.0, 2.0), (0.5, 3.0)])
def test_exact_field_mean_is_the_rounded_rational(n, g, phi, lo, hi):
    # bit for bit the double nearest to the exact rational, summed window
    # by window from full-vector product moments
    bounds = BoundaryParams(lo, hi)
    expected = float(field_mean_exact(g, phi.coefficients, n, bounds))
    assert exact_field_mean(g, phi, n, bounds) == expected


def test_exact_field_mean_requires_polynomial_phi(bounds):
    # an evaluator alone declares no polynomial, so no exact mean exists
    phi = TestFunction(lambda x: np.exp(x), name="exp")
    with pytest.raises(ValueError, match="polynomial test function"):
        exact_field_mean(density_function(), phi, 10, bounds)


@st.composite
def small_polynomials(draw):
    k = draw(st.integers(1, 4))
    exps = st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(lambda e: sum(e) <= 4)
    terms = draw(st.dictionaries(exps.map(tuple), st.integers(-5, 5), min_size=1, max_size=3))
    return polynomial_function(k, terms)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    g=small_polynomials(),
    lo=st.floats(0.0, 3.0),
    width=st.floats(0.0, 3.0),
    n=st.integers(3, 40),
    phi=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
)
def test_field_means_match_exact_rationals(g, lo, width, n, phi):
    # the rational mean against exact rationals over every start, for
    # random bounds, polynomials and weights: the same double, whatever
    # cancels between the terms
    bounds = BoundaryParams(lo, lo + width)
    expected = float(field_mean_exact(g, phi, n, bounds))
    assert exact_field_mean(g, phi_polynomial(phi), n, bounds) == expected


def test_exact_field_mean_ignores_the_blas_thread_count():
    # the float path it replaced ended in a BLAS dot, whose grouping at
    # N = 2 * 10^5 followed OPENBLAS_NUM_THREADS (6.666593333815669 at 1,
    # 6.66659333381567 at 2)
    code = (
        "from geomix.core import BoundaryParams, polynomial_function\n"
        "from geomix.fields import phi_one\n"
        "from geomix.harness import exact_field_mean\n"
        "g = polynomial_function(2, {(1, 1): 1.0, (2, 1): 1.0})\n"
        "print(repr(exact_field_mean(g, phi_one(), 200000, BoundaryParams(0.0, 2.0))))\n"
    )
    src = str(Path(harness.__file__).resolve().parents[1])
    reprs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        reprs.append(out.stdout.strip())
    assert reprs[0] == reprs[1]


def test_exact_clt_mean_is_fast_and_matches_the_benchmark_reference(bounds):
    # the benchmark's exact-clt input: g = eta_1 eta_2 + eta_1^2 eta_2,
    # phi = 1 on [0, 2] at N = 2 * 10^4, against its recorded mean (whose
    # gate is 1e-10 relative); at N = 10^9 one mean takes well under 5 ms
    g = polynomial_function(2, {(1, 1): 1.0, (2, 1): 1.0})
    refs = json.loads((ROOT / "perfbench" / "references.json").read_text(encoding="utf-8"))
    mean = exact_field_mean(g, phi_one(), 20000, BoundaryParams(0.0, 2.0))
    assert mean == pytest.approx(refs["clt"]["exact_mean"], rel=1e-10, abs=0.0)
    best = min(
        timeit.repeat(lambda: exact_field_mean(g, phi_one(), 10**9, bounds), number=1, repeat=5)
    )
    assert best <= 5e-3


def test_clt_centering_cross_check(bounds, seed):
    # the exact centering agrees with the empirical mean within 5 se
    res = run_clt(800, bounds, density_function(), phi_identity(), 2000, seed, workers=1)
    shifted = res.samples / math.sqrt(res.n_sites)  # X_N - exact mean
    se = shifted.std(ddof=1) / math.sqrt(shifted.size)
    assert abs(shifted.mean()) < 5 * se


def test_run_lln_smoke(bounds, seed):
    res = run_lln((200, 2000), bounds, density_function(), phi_one(), 80, seed)
    assert res.limit == pytest.approx(1.0, rel=1e-9)
    assert len(res.rows) == 2
    assert res.rows[1][1] < res.rows[0][1]


def test_run_clt_replica_floor(bounds, seed):
    with pytest.raises(ValueError):
        run_clt(100, bounds, density_function(), phi_one(), 10, seed)


def test_run_lln_refuses_a_repeated_n(bounds, seed):
    with pytest.raises(ValueError, match="increasing"):
        run_lln((100, 100), bounds, density_function(), phi_one(), 10, seed)


def test_reproducible_across_worker_counts(bounds):
    args = ((300, 1500), bounds, pair_product_function(), phi_identity(), 64, RandomSeed(77, 2))
    runs = [run_lln(*args, workers=w) for w in (1, 4, 8)]
    assert runs[0].rows == runs[1].rows == runs[2].rows
    clt_args = (400, bounds, density_function(), phi_one(), 2000, RandomSeed(78, 2))
    samples = [run_clt(*clt_args, workers=w).samples for w in (1, 4, 8)]
    assert np.array_equal(samples[0], samples[1])
    assert np.array_equal(samples[0], samples[2])


def _whole_chunk_profile(streams, count, n_sites, bounds, g, phi):
    """The field chunk drawn whole: the chunk's whole profile from its
    profile stream, then its whole configuration from its configuration
    stream."""
    thetas = profile_batch(n_sites, bounds, streams(Purpose.PROFILES), count)
    return field_values_batch(g, phi, configuration_batch(thetas, streams(Purpose.CONFIGURATIONS)))


# blocks of 3 rows leave last blocks of 2 and 1 rows
@pytest.mark.parametrize("count, n_sites", [(8, 100), (5, 101), (10, 101), (7, 101)])
def test_field_chunk_draws_the_stream_of_the_whole_chunk_profile(
    monkeypatch, bounds, seed, count, n_sites
):
    monkeypatch.setattr(harness, "_BLOCK_BUDGET", 3 * n_sites)
    g = polynomial_function(2, {(1, 1): 0.3, (0, 1): 0.7}, name="mixed")
    streams = functools.partial(seed.generator, ladder=2, chunk=5)
    got = harness._field_chunk(streams, count, n_sites, bounds, g, phi_identity())
    want = _whole_chunk_profile(streams, count, n_sites, bounds, g, phi_identity())
    assert np.array_equal(got, want)


@pytest.mark.parametrize("workers", [1, 2])
def test_field_runs_match_the_whole_chunk_profile(monkeypatch, bounds, seed, workers):
    # several chunks per run, and uneven blocks
    monkeypatch.setattr(harness, "_CHUNK_BUDGET", 2**14)
    monkeypatch.setattr(harness, "_BLOCK_BUDGET", 1000)
    g = polynomial_function(2, {(1, 1): 0.3, (0, 1): 0.7}, name="mixed")

    def outputs():
        lln = run_lln((51, 411), bounds, g, phi_identity(), 101, seed, workers)
        clt = run_clt(411, bounds, g, phi_identity(), 2000, seed, workers)
        annealed = annealed_mc_estimate(g, 0.5, 51, bounds, 2000, seed, workers=workers)
        return lln.rows, clt.samples, annealed

    got = outputs()
    monkeypatch.setattr(harness, "_field_chunk", _whole_chunk_profile)
    want = outputs()
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]


def _sampled_outputs(bounds, seed, workers, ladder=(50, 400)):
    """The outputs of every runner that draws in row blocks, at the two
    sizes of ``ladder``.  Non-integer g and phi make the reductions'
    summation order visible."""
    small, large = ladder
    g = polynomial_function(2, {(1, 1): 0.3, (0, 1): 0.7}, name="mixed")
    lln = run_lln(ladder, bounds, g, phi_identity(), 100, seed, workers)
    clt = run_clt(large, bounds, g, phi_identity(), 2000, seed, workers)
    bridge = run_bridge(large, bounds, 2000, seed, workers=workers)
    conc = run_concentration([10, large], bounds, 10**4, seed, workers=workers)
    annealed = annealed_mc_estimate(g, 0.5, small, bounds, 2000, seed, workers=workers)
    return lln.rows, clt.samples, bridge.empirical, bridge.standard_errors, conc.rows, annealed


def _assert_same_outputs(got, want):
    for a, b in zip(got, want, strict=True):
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b)
        else:
            assert a == b


@pytest.mark.parametrize("workers", [1, 2])
def test_row_block_size_does_not_change_results(monkeypatch, bounds, seed, workers):
    # a small chunk budget spreads each run over several chunks (streams);
    # the block budget then ranges from one row per block (n_sites above
    # the budget) over uneven blocks to one block per chunk
    monkeypatch.setattr(harness, "_CHUNK_BUDGET", 2**14)
    runs = []
    for budget in (1, 1000, 2**40):
        monkeypatch.setattr(harness, "_BLOCK_BUDGET", budget)
        runs.append(_sampled_outputs(bounds, seed, workers))
    for run in runs[1:]:
        _assert_same_outputs(run, runs[0])


@settings(derandomize=True, database=None, max_examples=6, deadline=None)
@given(
    workers=st.sampled_from([1, 2]),
    block_budget=st.integers(1, 4000),
    chunk_budget=st.integers(2**12, 2**15),
    small=st.integers(2, 80),
    large=st.integers(81, 500),
)
# 40 rows per chunk at N = 400, in blocks of 3 rows, and 327 at N = 50, in 26
@example(workers=2, block_budget=1300, chunk_budget=2**14, small=50, large=400)
def test_outputs_do_not_depend_on_workers_or_block_budget(
    workers, block_budget, chunk_budget, small, large
):
    # a chunk holds chunk_budget // N rows (at least one), the stream unit,
    # so the chunk budget moves the bytes; within one chunk budget, blocks
    # of block_budget // N rows on any worker count give the bytes of one
    # worker and one block per chunk.  Most budgets leave an uneven last
    # block in every chunk and an uneven last chunk.
    args = (BoundaryParams(0.0, 2.0), RandomSeed(20240801, 0))
    with mock.patch.object(harness, "_CHUNK_BUDGET", chunk_budget):
        want = _sampled_outputs(*args, 1, (small, large))
        with mock.patch.object(harness, "_BLOCK_BUDGET", block_budget):
            got = _sampled_outputs(*args, workers, (small, large))
    _assert_same_outputs(got, want)


class RecordingThread:
    """Stands in for a helper thread of ``_map_chunks``: started, it takes
    every task left in the shared iterator and runs them on the calling
    thread, last first when ``reverse``, so the caller finds none left;
    starts no thread.  ``taken`` holds each helper's tasks, in the order
    they were handed out."""

    taken: list[list] = []
    reverse = False

    def __init__(self, target, args):
        self.target, (self.order,) = target, args

    def start(self):
        tasks = list(self.order)
        self.taken.append([task for _, task in tasks])
        self.target(iter(tasks[::-1] if self.reverse else tasks))

    def join(self):
        pass


@pytest.fixture
def recording_threads(monkeypatch):
    monkeypatch.setattr(RecordingThread, "taken", [])
    monkeypatch.setattr(harness, "Thread", RecordingThread)
    return RecordingThread


def test_pool_threads_capped_by_chunks_and_cpus(monkeypatch, bounds, seed, recording_threads):
    # N = 100 and 1000 at 10^4 replicas make one chunk and three: a ladder
    # run's four tasks go to the caller and at most three helpers, the
    # largest first, and the first helper started takes them all here
    serial = run_concentration([100, 1000], bounds, 10**4, seed, workers=1)
    assert recording_threads.taken == []
    tasks = [(1, 0, 4194), (1, 1, 4194), (1, 2, 1612), (0, 0, 10**4)]
    for cpus, helpers in ((64, 3), (2, 1), (1, 0)):
        affinity = lambda pid, c=cpus: set(range(c))
        monkeypatch.setattr(harness.os, "sched_getaffinity", affinity, raising=False)
        recording_threads.taken.clear()
        assert run_concentration([100, 1000], bounds, 10**4, seed, workers=10**6) == serial
        assert recording_threads.taken == [tasks, [], []][:helpers]


def test_ladder_runs_do_not_depend_on_the_task_order(monkeypatch, bounds, seed, recording_threads):
    # every (ladder index, chunk) task of a run from one shared iterator:
    # run last first, the tasks give the rows of one thread in order, byte
    # for byte
    monkeypatch.setattr(harness, "_CHUNK_BUDGET", 2**14)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    g = polynomial_function(2, {(1, 1): 0.3, (0, 1): 0.7}, name="mixed")

    def rows(workers):
        return (
            run_lln((50, 400), bounds, g, phi_identity(), 100, seed, workers).rows,
            run_concentration(
                [10, 100, 1000], bounds, 10**4, seed, [0.5, 0.25, 0.13], workers=workers
            ).rows,
        )

    def draws(streams, count):
        return streams(Purpose.PROFILES).random(count)

    def chunks(workers):
        """Each chunk's draws at two ladder N: a permutation of the rows
        between chunks, which a mean cannot see, shows here."""
        return harness._map_chunks([(draws, 1000), (draws, 4000)], 100, seed, workers)

    want, want_chunks = rows(1), chunks(1)
    monkeypatch.setattr(recording_threads, "reverse", True)
    assert rows(2) == want
    got_chunks = chunks(2)
    assert [len(parts) for parts in got_chunks] == [7, 25]
    for got, expected in zip(sum(got_chunks, []), sum(want_chunks, []), strict=True):
        assert np.array_equal(got, expected)
    # one helper per run at two workers, which took every task: chunks of
    # 2^14 // N rows, 1 + 3 for the lln, 7 + 62 + 625 for the concentration
    # run, handed out largest first
    lln_tasks, conc_tasks, _ = recording_threads.taken
    assert len(lln_tasks) == 4 and len(conc_tasks) == 694
    for tasks, ladder in ((lln_tasks, (50, 400)), (conc_tasks, (10, 100, 1000))):
        sizes = [count * ladder[i] for i, _, count in tasks]
        assert sizes == sorted(sizes, reverse=True)


@pytest.mark.parametrize("in_caller", [False, True], ids=["helper", "caller"])
def test_a_failed_task_raises_its_exception_from_the_run(monkeypatch, seed, in_caller):
    # two chunks on two threads, which meet at a barrier so that each runs
    # one; the task on the chosen thread raises, and the run re-raises that
    # exception once both have joined
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    barrier, error = threading.Barrier(2, timeout=60), ValueError("a failed chunk")
    ran = []

    def fn(streams, count):
        barrier.wait()
        ran.append(threading.current_thread() is threading.main_thread())
        if ran[-1] == in_caller:
            raise error
        return count

    with pytest.raises(ValueError) as info:
        harness._map_chunks([(fn, harness._CHUNK_BUDGET // 2)], 4, seed, workers=2)
    assert info.value is error
    assert sorted(ran) == [False, True]
    # once a task has failed no thread takes a new one: on one thread the
    # first of the two tasks raises and the second never runs
    calls = []

    def failing(streams, count):
        calls.append(count)
        raise error

    with pytest.raises(ValueError) as info:
        harness._map_chunks([(failing, harness._CHUNK_BUDGET // 2)], 4, seed, workers=1)
    assert info.value is error and calls == [2]


def test_every_task_runs_once_on_more_threads_than_cores(monkeypatch, seed):
    # eight threads, many one- and two-replica tasks and a short switch
    # interval: each task is taken by exactly one thread, and its result
    # lands at its own job and chunk
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    ran = []

    def fn(streams, count):
        ran.append((streams.keywords["ladder"], streams.keywords["chunk"]))
        return streams.keywords["chunk"], count

    jobs = [(fn, harness._CHUNK_BUDGET), (fn, harness._CHUNK_BUDGET // 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = harness._map_chunks(jobs, 500, seed, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == [(0, c) for c in range(500)] + [(1, c) for c in range(250)]
    assert out == [[(c, 1) for c in range(500)], [(c, 2) for c in range(250)]]


def _peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_sampling_memory_is_one_chunk_profile_plus_one_block(bounds, seed):
    # with full-chunk temporaries the runs peak at 97, 64, 191 and (at the
    # bridge's N) 64 MiB.  The concentration runs hold one block of
    # spacings and, where a row is undecided, one fill block and its two
    # gathered segment tables: 0.91 and 0.92 MiB measured, bounded with
    # 1 MiB of margin.  A bridge chunk of 16000 replicas holds its moment
    # products once, squared in place: 1.47 MiB measured (2.94 with a
    # second array of products), bounded with 0.5 MiB of margin
    assert _peak_mib(lambda: run_concentration([10000], bounds, 10**4, seed)) <= 2
    assert _peak_mib(lambda: run_concentration([10], bounds, 2 * 10**4, seed)) <= 2
    assert _peak_mib(lambda: run_bridge(5000, bounds, 16000, seed)) <= 2
    # the field runs hold one row block at a time, not the chunk's 32 MiB
    # profile (37 and 34 MiB peaks when they did).  A clt worker holds two
    # blocks of three rows, 0.92 MiB, g's value written over the profile
    # rows: 0.97 and 1.91 MiB measured at 1 and 2 workers, bounded with
    # about 0.3 MiB of margin per worker.  A third block for g's value
    # peaked at 1.44 and 2.83 MiB, and four blocks of six rows with the
    # per-monomial evaluator's temporaries at 5.3 and 9.2 MiB.  The lln
    # run at N = 10^5 holds two blocks of one row each: 1.54 MiB measured
    # (2.30 with three blocks)
    g = polynomial_function(2, {(1, 1): 1.0, (2, 1): 1.0})
    assert _peak_mib(lambda: run_clt(20000, bounds, g, phi_one(), 2000, seed)) <= 1.25
    assert _peak_mib(lambda: run_clt(20000, bounds, g, phi_one(), 2000, seed, 2)) <= 2.5
    lln = functools.partial(run_lln, (10**5,), bounds, density_function(), phi_one(), 100, seed)
    assert _peak_mib(lln) <= 2


def test_sampling_runs_refuse_rows_above_the_limit(bounds, seed):
    # a row of 10^12 sites would take 8 TB: the runs that hold rows refuse
    # N above 2^25 before they allocate one, and accept the limit itself
    g, phi = density_function(), phi_one()
    big = 10**12
    runs = (
        lambda: run_clt(big, bounds, g, phi, 2000, seed),
        lambda: run_lln((10, big), bounds, g, phi, 100, seed),
        lambda: run_concentration([10, big], bounds, 10**4, seed),
        lambda: check_profile_marginals(big, bounds, 100, seed),
    )
    for run in runs:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"N <= {2**25}, got {big}"):
                run()
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()
    assert harness._MAX_SITES == 2**25
    harness._check_sites(2**25)
    with pytest.raises(ValueError):
        harness._check_sites(2**25 + 1)


def _sampled_run(name, bounds, seed, replicas=None, workers=1, wide=False):
    """One sampled run on small valid inputs, at its own replica floor
    unless ``replicas`` is given; ``wide`` gives a replica a row of more
    than 2^25 doubles."""
    g, phi = density_function(), phi_one()
    n = 10**12 if wide else 20
    if name == "lln":
        return run_lln((10, n), bounds, g, phi, replicas or 100, seed, workers)
    if name == "clt":
        return run_clt(n, bounds, g, phi, replicas or 2000, seed, workers)
    if name == "bridge":
        # a bridge replica holds |grid| + 1 spacings and |grid|^2 products,
        # over 2^25 from 5793 grid points on, at any N
        grid = np.arange(1, 5794) / 5794 if wide else None
        return run_bridge(10**5, bounds, replicas or 2000, seed, grid, workers)
    if name == "concentration":
        return run_concentration([10, n], bounds, replicas or 10**4, seed, workers=workers)
    return check_profile_marginals(n, bounds, replicas or 100, seed, workers)


@pytest.mark.parametrize(
    "bad",
    [{"replicas": 1}, {"workers": 0}, {"wide": True}],
    ids=["one-replica", "no-worker", "wide-row"],
)
@pytest.mark.parametrize("name", ["lln", "clt", "bridge", "concentration", "marginals"])
def test_sampled_runs_refuse_bad_inputs_before_drawing(bounds, seed, name, bad):
    # one replica has no sample standard error, no worker runs nothing, and
    # a row over 2^25 doubles would take 256 MiB or more: every sampled run
    # refuses each before it draws a row
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            _sampled_run(name, bounds, seed, **bad)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


def test_bridge_memory_and_cost_do_not_grow_with_n(monkeypatch, bounds, seed):
    # a row of 10^9 profile draws would take 8 GB; the Gamma spacings draw
    # |grid| + 1 variates per replica (about 2 MiB here)
    assert _peak_mib(lambda: run_bridge(10**9, bounds, 2000, seed)) <= 8
    # the chunks, and so the draws per chunk, are the same at every N
    chunks = {}
    moments = harness._bridge_moments
    for n in (100, 10**9):
        chunks[n] = []
        monkeypatch.setattr(
            harness, "_bridge_moments", lambda v, n=n: chunks[n].append(v.shape) or moments(v)
        )
        run_bridge(n, bounds, 2000, seed)
    assert chunks[100] == chunks[10**9] == [(2000, 3)]


def test_bridge_memory_is_bounded_by_the_chunk_budget(monkeypatch, bounds, seed):
    # a 64-point grid makes 4096 moment products per replica: 2000 replicas
    # in one piece would hold two 62.5 MiB tables, and chunks sized by the
    # products hold two of at most 2 MiB
    monkeypatch.setattr(harness, "_CHUNK_BUDGET", 2**18)
    grid = [(j + 1) / 65 for j in range(64)]
    assert _peak_mib(lambda: run_bridge(1000, bounds, 2000, seed, grid)) <= 8


def test_gamma_bridge_matches_the_order_statistics(monkeypatch, bounds, seed):
    # N = 7 and an unsorted grid with a duplicate: ranks 5, 1, 1
    columns = []
    moments = harness._bridge_moments
    monkeypatch.setattr(harness, "_bridge_moments", lambda v: columns.append(v) or moments(v))
    n, grid, replicas = 7, (0.75, 0.25, 0.25), 20000
    res = run_bridge(n, bounds, replicas, seed, grid)
    idx = np.array([5, 1, 1]) - 1
    mean, var = theta_marginals(n, bounds)
    thetas = np.concatenate(columns) / math.sqrt(n) + mean[idx]
    assert thetas.shape == (replicas, 3)
    assert np.array_equal(thetas[:, 1], thetas[:, 2])
    emp_mean = thetas.mean(axis=0)
    emp_var = thetas.var(axis=0, ddof=1)
    mu4 = ((thetas - emp_mean) ** 4).mean(axis=0)
    assert_within_se(emp_mean, mean[idx], np.sqrt(emp_var / replicas), 5, "means")
    assert_within_se(emp_var, var[idx], np.sqrt((mu4 - emp_var**2) / replicas), 5, "variances")
    # the joint law: N Cov(Theta_i, Theta_j) = N i (N+1-j) width^2 / ((N+1)^2 (N+2)), i <= j
    i, j = np.minimum.outer(idx + 1, idx + 1), np.maximum.outer(idx + 1, idx + 1)
    exact_cov = n * i * (n + 1 - j) * bounds.width**2 / ((n + 1) ** 2 * (n + 2))
    assert_within_se(res.empirical, exact_cov, res.standard_errors, 5, "covariances")
    points = np.array(grid)
    assert np.array_equal(res.analytic, bridge_covariance(points[:, None], points[None, :], bounds))


def _sort_path_sups(n, bounds, replicas, seed):
    """Each replica's sup deviation as the sort path computes it, on the
    chunk plan and streams of run_concentration."""
    mean = theta_marginals(n, bounds)[0]

    def fn(streams, count):
        return np.abs(profile_batch(n, bounds, streams(Purpose.FILLS), count) - mean).max(axis=1)

    return np.concatenate(harness._map_chunks([(fn, n)], replicas, seed, 1)[0])


def _spy_concentration(monkeypatch):
    """Records each screen block's order statistics V, ranks and verdicts,
    and each filled block's points before and after sorting, in draw order."""
    seen = {"v": [], "below": [], "points": [], "sorted": []}
    ranks = []
    below_eps = harness._below_eps

    def screen(v, block_ranks, *args):
        below = below_eps(v, block_ranks, *args)
        ranks.append(block_ranks)
        seen["v"].append(v.copy())
        seen["below"].append(below)
        return below

    def sort(u, bounds):
        seen["points"].append(u.copy())
        thetas = sorted_profile(u, bounds)
        seen["sorted"].append(thetas.copy())
        return thetas

    monkeypatch.setattr(harness, "_below_eps", screen)
    monkeypatch.setattr(harness, "sorted_profile", sort)
    spy = {key: lambda key=key: np.concatenate(seen[key]) for key in seen}
    spy["ranks"] = lambda: ranks[0]
    return spy


def _segment_fill(v, ranks, n, offsets):
    """Rows of N points in rank order: V_i at rank r_i and the other ranks
    of segment i, r_i < j < r_{i+1}, at V_i + (V_{i+1} - V_i) * offset."""
    rows = v.shape[0]
    edges = np.hstack([np.zeros((rows, 1)), v, np.ones((rows, 1))])
    segment = np.searchsorted(ranks, np.arange(1, n + 1), side="right") - 1
    u = offsets((rows, n))
    u[:, ranks[1:-1] - 1] = 0.0
    return edges[:, segment] + (edges[:, segment + 1] - edges[:, segment]) * u


def test_concentration_screen_is_sound_on_the_run_ranks(monkeypatch, bounds, seed):
    # every row, the decided ones too, is filled from the test's own
    # generator: no decided row reaches eps, and at eps equal to its own
    # sup no row is decided, so the fill's >= counts that tie as a hit
    below_eps = harness._below_eps
    spy = _spy_concentration(monkeypatch)
    n, replicas = 1000, 10**4
    eps = n**-0.25
    segments = harness._screen_segments(n, eps, bounds.width)
    run_concentration([n], bounds, replicas, seed)
    v, below, ranks = spy["v"](), spy["below"](), spy["ranks"]()
    assert segments == 32 and v.shape == (replicas, segments - 1)
    assert np.array_equal(ranks, [i * (n + 1) // segments for i in range(segments + 1)])
    assert np.all(np.diff(v, axis=1) > 0) and 0 < v.min() and v.max() < 1
    assert below.sum() > 0.99 * replicas
    mean = theta_marginals(n, bounds)[0]

    def fill_sups(offsets):
        """Each row's sup with the points of segment i at V_i + (V_{i+1} - V_i) offsets(shape)."""
        sups = np.empty(replicas)
        for lo in range(0, replicas, 500):
            u = _segment_fill(v[lo : lo + 500], ranks, n, offsets)
            sups[lo : lo + 500] = np.abs(sorted_profile(u, bounds) - mean).max(axis=1)
        return sups

    random = fill_sups(np.random.default_rng(5).random)
    assert random[below].max() < eps
    # a row's bound is the sup of the fill with every point on its
    # segment's lower edge, or of the fill with every point on its upper edge
    for sups in (random, fill_sups(np.zeros), fill_sups(np.ones)):
        assert not below_eps(v, ranks, n, sups, bounds).any()


@pytest.mark.parametrize("segments", [64, 512])
def test_concentration_screen_counts_ties_as_hits(monkeypatch, bounds, seed, segments):
    # at eps = 0 every row is filled; the screen decides no row at eps equal
    # to its own sup, so at eps = the least sup every row is filled with the
    # same points again and every row is a hit.  512 is the most segments a
    # power of two gives N = 1000 with distinct ranks (B <= N + 1)
    monkeypatch.setattr(harness, "_CHUNK_BUDGET", 2**18)  # small chunks
    monkeypatch.setattr(harness, "_screen_segments", lambda *args: segments)
    below_eps = harness._below_eps
    n, replicas = 1000, 10**4
    mean = theta_marginals(n, bounds)[0]

    def run(eps):
        """Each screen block's order statistics, as a digest, and each row's
        sup; every row is filled and a hit, and none is decided at eps
        equal to its sup."""
        blocks, sups, sorted_sups = [], [], []

        def screen(v, ranks, *args):
            assert np.all(np.diff(ranks) >= 1) and ranks[-2] <= n
            blocks.append((v, ranks))
            return below_eps(v, ranks, *args)

        def sort(u, b):
            thetas = sorted_profile(u, b)
            sorted_sups.append(np.abs(thetas - mean).max(axis=1))
            v, ranks = blocks[-1]
            if sum(map(len, sorted_sups)) == len(v):  # the screen block's last rows
                sups.append(np.concatenate(sorted_sups))
                sorted_sups.clear()
                assert not below_eps(v, ranks, n, sups[-1], bounds).any()
                # one block of order statistics is held at a time
                blocks[-1] = (v.shape, hashlib.sha256(np.ascontiguousarray(v)).hexdigest())
            return thetas

        monkeypatch.setattr(harness, "_below_eps", screen)
        monkeypatch.setattr(harness, "sorted_profile", sort)
        assert run_concentration([n], bounds, replicas, seed, eps_schedule=[eps]).rows[0][2] == 1.0
        return blocks, np.concatenate(sups)

    blocks, sups = run(0.0)
    assert sum(shape[0] for shape, _ in blocks) == replicas
    assert {shape[1] for shape, _ in blocks} == {segments - 1}
    assert np.unique(sups).size == replicas
    blocks_again, sups_again = run(sups.min())
    assert blocks_again == blocks and np.array_equal(sups_again, sups)


def test_concentration_with_one_bin_is_the_sort_path(monkeypatch, bounds, seed):
    # at eps = 2/sqrt(N) the rule picks one segment, so every row draws and
    # sorts the uniforms of the unscreened sort path, bit for bit
    monkeypatch.setattr(harness, "_CHUNK_BUDGET", 2**18)  # four chunks
    n, replicas = 100, 10**4
    eps = 2 / math.sqrt(n)
    assert harness._screen_segments(n, eps, bounds.width) == 1
    sups = _sort_path_sups(n, bounds, replicas, seed)
    spy = _spy_concentration(monkeypatch)
    tail = run_concentration([n], bounds, replicas, seed, eps_schedule=[eps]).rows[0][2]
    filled = np.abs(spy["sorted"]() - theta_marginals(n, bounds)[0]).max(axis=1)
    assert np.array_equal(filled, sups)
    assert tail == np.mean(sups >= eps)
    # ties are hits: every row's sup is >= the least sup, and exactly one
    # row reaches the largest
    monkeypatch.setattr(harness, "_screen_segments", lambda *args: 1)
    assert np.unique(sups).size == replicas
    for eps, tail in ((sups.min(), 1.0), (sups.max(), 1 / replicas)):
        assert run_concentration([n], bounds, replicas, seed, eps_schedule=[eps]).rows[0][2] == tail


def test_concentration_fill_keeps_each_segment(monkeypatch, bounds, seed):
    # only the undecided rows are filled: V_i at rank r_i, and every other
    # point inside the closed segment its rank gives it
    spy = _spy_concentration(monkeypatch)
    n, eps = 1000, 0.13
    segments = harness._screen_segments(n, eps, bounds.width)
    run_concentration([n], bounds, 10**4, seed, eps_schedule=[eps])
    v, below, points, ranks = spy["v"](), spy["below"](), spy["points"](), spy["ranks"]()
    assert segments == 32 and 0 < below.sum() < below.size
    assert points.shape == ((~below).sum(), n)
    lower = _segment_fill(v[~below], ranks, n, np.zeros)
    upper = _segment_fill(v[~below], ranks, n, np.ones)
    assert np.all(lower <= points) and np.all(points <= upper)
    assert np.array_equal(points[:, ranks[1:-1] - 1], v[~below])


def test_concentration_screen_blocks_move_no_byte(monkeypatch, bounds, seed):
    # a chunk's hits at a screened N with undecided rows are the same for
    # screen and fill blocks of one row, uneven blocks, and one block
    n, eps = 1000, 0.1
    streams = functools.partial(seed.generator, ladder=0, chunk=0)
    hits = []
    for budget in (1, 1000, 2**40):
        monkeypatch.setattr(harness, "_BLOCK_BUDGET", budget)
        hits.append(harness._concentration_chunk(streams, 3000, n, eps, 32, bounds))
    assert 0 < hits[0].sum() and all(np.array_equal(h, hits[0]) for h in hits[1:])


def test_concentration_tail_law_does_not_depend_on_the_bins(monkeypatch, bounds, seed):
    # the segments decide some rows and fill the rest; one segment sorts
    # them all.  At N = 1000 the 32 segments are those of the default rule
    for n, eps, segments, replicas in ((100, 0.25, 8, 10**6), (1000, 0.13, 32, 2 * 10**5)):
        results = []
        for b in (segments, 1):
            monkeypatch.setattr(harness, "_screen_segments", lambda *args, b=b: b)
            run = run_concentration([n], bounds, replicas, seed, eps_schedule=[eps])
            results.append(run.rows[0])
        (_, _, screened, se_screened, _), (_, _, sorted_tail, se_sorted, _) = results
        assert screened > 0 and sorted_tail > 0
        assert_within_se(screened, sorted_tail, math.hypot(se_screened, se_sorted), 5, "tails")


def test_concentration_ranks_alone_decide_a_large_n(monkeypatch, bounds, seed):
    # at N = 10^7 a row of points would take 80 MB; the order statistics at
    # 127 ranks decide every row, so nothing N sites long is drawn or built
    filled, purposes = [], set()
    monkeypatch.setattr(
        harness, "sorted_profile", lambda u, b: filled.append(u.shape) or sorted_profile(u, b)
    )
    generator = RandomSeed.generator

    def recording(seed, purpose, *args, **kwargs):
        purposes.add(purpose)
        return generator(seed, purpose, *args, **kwargs)

    monkeypatch.setattr(RandomSeed, "generator", recording)
    assert _peak_mib(lambda: run_concentration([10**7], bounds, 10**4, seed)) <= 8
    assert filled == [] and purposes == {Purpose.SPACINGS}


def test_concentration_bins_and_union_bound(bounds, seed):
    # B is the least power of two up to N/16 whose typical bound
    # width * (1/B + 1/sqrt(N)) is within eps, else 1
    def rule(n, eps):
        return harness._screen_segments(n, eps, bounds.width)

    assert [rule(n, n**-0.25) for n in (10, 100, 1000, 10**4, 10**7)] == [1, 1, 32, 32, 128]
    # at N = 1000 and eps = 0.12 only 64 > N/16 segments would do
    assert [rule(1000, 2 / math.sqrt(1000)), rule(1000, 0.12), rule(10**4, 0.12)] == [1, 1, 32]
    # the closed-form union bound is the sum of the order-statistic variances
    res = run_concentration([10, 100], bounds, 10**4, seed, eps_schedule=[1.0, 1.5])
    for n, eps, _, _, union in res.rows:
        assert union == pytest.approx(theta_marginals(n, bounds)[1].sum() / eps**2, rel=1e-12)


def test_run_le_scaling_degenerate_report():
    res = run_le_scaling(0.5, [1], [128, 256, 512], BoundaryParams(1.0, 1.0))
    assert res.degenerate
    assert res.fit is None
    assert all(dev == 0.0 for _, dev in res.rows)


def test_run_concentration_eps_beyond_range(bounds, seed):
    # eps larger than the reservoir gap can never be exceeded
    res = run_concentration([50], bounds, 10**4, seed, eps_schedule=[bounds.width + 0.5])
    assert res.rows[0][2] == 0.0


def test_run_concentration_replica_floor(bounds, seed):
    with pytest.raises(ValueError):
        run_concentration([50], bounds, 10, seed)


def test_run_concentration_refuses_a_negative_eps(bounds, seed):
    # every deviation is >= 0 > eps: the tail would be 1 by construction
    with pytest.raises(ValueError, match="eps must be >= 0"):
        run_concentration([10, 100], bounds, 10**4, seed, eps_schedule=[0.5, -0.1])


def test_run_bridge_small(bounds, seed):
    res = run_bridge(1000, bounds, 2000, seed, grid=(0.25, 0.5, 0.75))
    assert res.empirical.shape == (3, 3)
    assert res.max_deviation_in_se() <= 4.0
    assert np.allclose(res.analytic, res.analytic.T)


def _whole_chunk_marginal_sums(n_sites, bounds, replicas, seed):
    """The marginal check's power sums with each chunk's profile drawn
    whole and summed over axis 0 at once, chunk by chunk."""
    chunk = harness._chunk_size(n_sites)
    parts = []
    for c, lo in enumerate(range(0, replicas, chunk)):
        rng = seed.generator(Purpose.PROFILES, chunk=c)
        thetas = profile_batch(n_sites, bounds, rng, min(chunk, replicas - lo))
        parts.append(np.stack([(thetas**p).sum(axis=0) for p in (1, 2, 3, 4)]))
    return parts


@pytest.mark.parametrize("chunk_budget, block_budget", [(None, None), (2**14, 1000)])
def test_marginal_sums_in_row_blocks_match_the_whole_chunk(
    monkeypatch, bounds, chunk_budget, block_budget
):
    # the default budgets at the verify input (one chunk of 10^5 rows, in
    # blocks of 13107), then several chunks of 1638 rows in uneven blocks
    if chunk_budget is not None:
        monkeypatch.setattr(harness, "_CHUNK_BUDGET", chunk_budget)
        monkeypatch.setattr(harness, "_BLOCK_BUDGET", block_budget)
    seed = RandomSeed(11, 0)
    real = harness._map_chunks
    parts = []

    def recording(*args):
        (run_parts,) = real(*args)
        parts.extend(run_parts)
        return [parts]

    monkeypatch.setattr(harness, "_map_chunks", recording)
    check_profile_marginals(10, bounds, 10**5, seed)
    want = _whole_chunk_marginal_sums(10, bounds, 10**5, seed)
    assert len(parts) == len(want)
    for got_part, want_part in zip(parts, want):
        assert np.array_equal(got_part, want_part)


def test_marginal_check_memory_is_one_block(bounds):
    # the whole-chunk profile and its powers peaked at 16 MiB
    peak = _peak_mib(lambda: check_profile_marginals(10, bounds, 10**5, RandomSeed(11, 0)))
    assert peak <= 4


@pytest.mark.parametrize("g", [density_function(), pair_product_function()], ids=["density", "pair"])
def test_field_runs_at_zero_reservoirs_raise_no_warning(g, seed):
    # theta = 0 everywhere: 1/0 = +inf and log1p(+inf) = +inf in the count
    # transform, then a finite log over +inf; every count and deviation is
    # exactly zero
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = run_lln((10, 1000), BoundaryParams(0.0, 0.0), g, phi_identity(), 50, seed, 2)
        value, _ = annealed_mc_estimate(g, 0.5, 100, BoundaryParams(0.0, 0.0), 50, seed)
    assert res.rows == ((10, 0.0, 0.0), (1000, 0.0, 0.0))
    assert value == 0.0


def test_marginal_check_rules_out_competing_variance(bounds, seed):
    res = check_profile_marginals(10, bounds, 10**5, seed)
    assert float(np.max(res.mean_deviations_in_se())) < 4
    assert float(np.max(res.var_deviations_in_se())) < 4
    assert float(np.min(res.competing_var_deviations_in_se())) > 20
