"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; every
tolerance is pinned here, in standard-error bands for Monte Carlo
quantities and absolute bands for deterministic ones.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from conftest import orderstat_product_moment
from geomix.cli import main as cli_main
from geomix.core import (
    BoundaryParams,
    RandomSeed,
    density_function,
    indicator_vacuum_function,
    pair_product_function,
)
from geomix.fields import TestFunction, phi_identity, phi_one, phi_polynomial
from geomix.harness import (
    check_profile_marginals,
    run_bridge,
    run_clt,
    run_le_scaling,
    run_lln,
)
from geomix.ldp import (
    MonotoneProfile,
    SolverConfig,
    annealed_free_energy,
    free_energy,
    path_rate,
    rate_function,
)
from geomix.moments import theta_product_moment
from oracles import (
    annealed_mc_estimate,
    free_energy_transfer,
    uniform_orderstat_product_moment_exact,
)

BOUNDS = BoundaryParams(0.0, 2.0)
UNIT = BoundaryParams(0.0, 1.0)


def _report(number: int, name: str, passed: bool, detail: str, started: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {status} {name}: {detail} ({time.time() - started:.1f}s)")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_1_exact_moment_oracle():
    started = time.time()
    rng = np.random.default_rng(12345)
    cases = []
    for _ in range(50):
        n = int(rng.integers(1, 11))
        support = rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)), replace=False)
        exps = np.zeros(n, dtype=np.int64)
        exps[support] = rng.integers(1, 4, size=support.size)
        cases.append((n, exps))

    sample_rng = RandomSeed(1001, 0).generator()
    worst = 0.0
    by_n: dict[int, np.ndarray] = {}
    for n in sorted({n for n, _ in cases}):
        u = sample_rng.random((10**6, n))
        u.sort(axis=1)
        by_n[n] = u
    for n, exps in cases:
        u = by_n[n]
        support = np.nonzero(exps)[0]
        prods = np.prod(u[:, support] ** exps[support][None, :], axis=1)
        se = prods.std(ddof=1) / math.sqrt(prods.size)
        dev = abs(prods.mean() - orderstat_product_moment(exps)) / se
        worst = max(worst, dev)
    mc_ok = worst < 4.0

    exact_ok = True
    for n in range(1, 21):
        for r in range(1, n + 1):
            for k in range(1, 6):
                exps = [0] * n
                exps[r - 1] = k
                target = Fraction(1)
                for j in range(k):
                    target *= Fraction(r + j, n + 1 + j)
                if uniform_orderstat_product_moment_exact(n, exps) != target:
                    exact_ok = False
                rel = abs(theta_product_moment(r, [k], n, UNIT) - float(target)) / float(target)
                if rel > 1e-12:
                    exact_ok = False
    _report(
        1,
        "exact-moment oracle agreement",
        mc_ok and exact_ok,
        f"50 Monte Carlo cases worst deviation {worst:.2f} se (<4); "
        f"single-index reduction exact for N<=20, k<=5: {exact_ok}",
        started,
    )


def test_criterion_2_orderstat_marginals():
    started = time.time()
    res = check_profile_marginals(10, BOUNDS, 10**6, RandomSeed(7, 0))
    mean_dev = float(np.max(res.mean_deviations_in_se()))
    var_dev = float(np.max(res.var_deviations_in_se()))
    competing_dev = float(np.min(res.competing_var_deviations_in_se()))
    passed = mean_dev < 4.0 and var_dev < 4.0 and competing_dev > 50.0
    _report(
        2,
        "order-statistic marginals",
        passed,
        f"mean dev {mean_dev:.2f} se, variance dev {var_dev:.2f} se (both <4); "
        f"variance denominator (N+1)^2(N+2) confirmed, the competing extra-"
        f"(N+2) denominator sits {competing_dev:.0f} se away",
        started,
    )


def test_criterion_3_lln_ladder():
    started = time.time()
    ladder = (10**3, 10**4, 10**5)
    details = []
    passed = True
    for gi, g in enumerate((density_function(), pair_product_function())):
        for pi, phi in enumerate((phi_one(), phi_identity())):
            seed = RandomSeed(3000 + 10 * gi + pi, 0)
            res = run_lln(ladder, BOUNDS, g, phi, 100, seed, workers=4)
            threshold = res.final_threshold
            ok = res.decreasing and res.rows[-1][1] < threshold
            passed = passed and ok
            details.append(
                f"{g.name}/{phi.name}: final {res.rows[-1][1]:.2e} < {threshold:.2e}, "
                f"decreasing {res.decreasing}"
            )
    _report(3, "law-of-large-numbers ladder", passed, "; ".join(details), started)


def test_criterion_4_clt():
    started = time.time()
    res = run_clt(5000, BOUNDS, density_function(), phi_one(), 2000, RandomSeed(17, 0), workers=4)
    width_sq = BOUNDS.width**2
    analytic = width_sq / 12 + 7.0 / 3.0  # bridge part + integral of rho(1+rho)
    target_ok = abs(res.target.total - analytic) < 1e-6
    ks_ok = res.ks_distance < 0.05
    var_ok = abs(res.sample_variance - res.target.total) <= 5 * res.variance_se

    eq = run_clt(
        5000, BoundaryParams(1.0, 1.0), density_function(), phi_one(), 2000, RandomSeed(18, 0),
        workers=4,
    )
    eq_ok = (
        eq.target.bridge_variance == 0.0
        and eq.ks_distance < 0.05
        and abs(eq.sample_variance - eq.target.total) <= 5 * eq.variance_se
    )
    _report(
        4,
        "central limit theorem",
        ks_ok and var_ok and target_ok and eq_ok,
        f"KS {res.ks_distance:.4f} (<0.05), variance {res.sample_variance:.3f} vs "
        f"{res.target.total:.3f} within 5 se; equilibrium control KS "
        f"{eq.ks_distance:.4f} with zero bridge variance",
        started,
    )


def test_criterion_5_bridge_covariance():
    started = time.time()
    res = run_bridge(5000, BOUNDS, 2000, RandomSeed(19, 0), grid=(0.25, 0.5, 0.75), workers=4)
    max_dev = res.max_deviation_in_se()
    _report(
        5,
        "bridge covariance",
        max_dev <= 3.0,
        f"max entrywise deviation {max_dev:.2f} se (<=3) on the 3x3 grid",
        started,
    )


def test_criterion_6_local_equilibrium_scaling():
    started = time.time()
    ladder = [2**j for j in range(7, 15)]
    details = []
    passed = True
    for x, powers in ((0.5, (1,)), (1 / 3, (2, 1)), (0.5, (1, 1, 1))):
        res = run_le_scaling(x, powers, ladder, BOUNDS)
        fit = res.fit
        ok = fit is not None and -1.15 <= fit.slope <= -0.85 and fit.r_squared > 0.99
        passed = passed and ok
        details.append(f"x={x:.3g} p={powers}: slope {fit.slope:.3f}, r2 {fit.r_squared:.4f}")
    _report(6, "quantitative local equilibrium", passed, "; ".join(details), started)


def test_criterion_7_ldp_consistency():
    started = time.time()
    g = indicator_vacuum_function()
    checks = {}

    checks["zero-tilt free energy"] = all(
        abs(free_energy(theta, 0.0, g)[0][0]) < 1e-8 for theta in (0.0, 0.5, 1.0, 2.0)
    )

    lams = np.linspace(-2.5, 2.5, 41)
    convex_ok = True
    for theta in (0.3, 1.0, 2.0):
        vals = free_energy(theta, lams, g)[0]
        if (vals[2:] - 2 * vals[1:-1] + vals[:-2]).min() < -1e-9:
            convex_ok = False
    checks["lambda convexity"] = convex_ok

    checks["rate vanishes at the mean"] = all(
        abs(rate_function(theta, 1 / (1 + theta), g)) < 1e-8 for theta in (0.5, 1.0, 2.0)
    )

    checks["transfer reduction"] = all(
        abs(free_energy_transfer(theta, lam, g) - free_energy(theta, lam, g)[0][0]) < 1e-8
        for theta, lam in ((0.7, 0.5), (1.0, -0.8), (1.9, 1.2))
    )

    checks["linear path rate exactly zero"] = (
        path_rate(MonotoneProfile.linear(BOUNDS, 256)) == 0.0
    )

    m = 10**4
    t = np.arange(m + 1) / m
    quad_prof = MonotoneProfile(values=BOUNDS.width * t**2, bounds=BOUNDS)
    checks["quadratic path rate"] = abs(path_rate(quad_prof) - (1 - math.log(2))) < 1e-3

    zero_res = annealed_free_energy(
        TestFunction(lambda x: np.zeros_like(x), name="zero"),
        g,
        BOUNDS,
        SolverConfig(multistart=2, seed=3, grid_size=256, max_iterations=400),
    )
    checks["annealed at zero weight"] = abs(zero_res.value) < 1e-10 and np.allclose(
        zero_res.profile.values, MonotoneProfile.linear(BOUNDS, 256).values, atol=1e-7
    )

    lam = 0.2
    # the Gibbs value at a constant strength: log of the mean of
    # exp F = 1 + (e^lam - 1)/(1 + theta) over [0, 2]
    closed = math.log((BOUNDS.width + (math.exp(lam) - 1) * math.log(3.0)) / BOUNDS.width)
    closed_res = annealed_free_energy(phi_polynomial([lam]), g, BOUNDS, SolverConfig())
    checks["annealed closed form"] = abs(closed_res.value - closed) <= 1e-12 * closed

    res = annealed_free_energy(
        TestFunction(lambda x: np.full_like(x, lam), name="const"),
        g,
        BOUNDS,
        SolverConfig(multistart=3, seed=9, max_iterations=3000),
    )
    est, se = annealed_mc_estimate(g, lam, 200, BOUNDS, 10**5, RandomSeed(21, 0), workers=4)
    checks["annealed vs simulation"] = abs(res.value - est) <= 5 * se

    passed = all(checks.values())
    detail = "; ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in checks.items())
    detail += f"; annealed gap {abs(res.value - est) / se:.2f} se"
    _report(7, "large-deviation consistency", passed, detail, started)


def test_criterion_8_reproducibility(tmp_path):
    started = time.time()
    cfg = {
        "bounds": {"theta_left": 0.0, "theta_right": 2.0},
        "seed": {"master": 88, "stream": 1},
        "g": {"name": "pair-product"},
        "phi": {"name": "x"},
        "lln": {"n_ladder": [500, 2000], "replicas": 64},
        "clt": {"n_sites": 600, "replicas": 2000},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    passed = True
    for kind, table in (("lln", "lln_table.csv"), ("clt", "clt_table.csv")):
        blobs = []
        for workers in (1, 4, 8):
            out = tmp_path / f"{kind}_w{workers}"
            code = cli_main(
                [
                    "verify",
                    kind,
                    "--config",
                    str(path),
                    "--out-dir",
                    str(out),
                    "--workers",
                    str(workers),
                ]
            )
            assert code in (0, 1)
            name = kind.replace("-", "_")
            blobs.append(
                (out / table).read_bytes()
                + (out / f"{name}_summary.json").read_bytes()
            )
        passed = passed and blobs[0] == blobs[1] == blobs[2]
    _report(
        8,
        "byte-identical reproducibility",
        passed,
        "lln and clt tables plus summaries identical for worker counts 1, 4, 8",
        started,
    )
