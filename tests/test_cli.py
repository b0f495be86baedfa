import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from geomix import asymptotics, cli, harness
from geomix.core import (
    BoundaryParams,
    NumericError,
    Purpose,
    RandomSeed,
    configuration_batch,
    pair_product_function,
    profile_batch,
)
from geomix.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_PASS,
    EXIT_VERDICT,
    canonical_config,
    config_digest,
    main,
)
from geomix.ldp import OptimizationError
import oracles
from make_demo_digests import DIGESTS, demo_commands, demo_digests, versions


ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def write_config(tmp_path: Path, cfg: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def base_config(**overrides):
    cfg = {
        "bounds": {"theta_left": 0.0, "theta_right": 2.0},
        "seed": {"master": 11, "stream": 0},
        "g": {"name": "density"},
        "phi": {"name": "one"},
    }
    cfg.update(overrides)
    return cfg


def test_config_round_trip_is_idempotent():
    cfg = base_config(sample={"n_sites": 5})
    once = canonical_config(cfg)
    again = canonical_config(json.loads(once))
    assert once == again
    assert config_digest(cfg) == config_digest(json.loads(once))


def test_sample_outputs_and_determinism(tmp_path):
    cfg = base_config(sample={"n_sites": 10})
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sample", "--config", path, "--out-dir", str(out1)]) == EXIT_PASS
    assert main(["sample", "--config", path, "--out-dir", str(out2)]) == EXIT_PASS
    table1 = (out1 / "sample_table.csv").read_text()
    table2 = (out2 / "sample_table.csv").read_text()
    assert table1 == table2
    lines = table1.strip().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert lines[1] == "site,theta,eta"
    thetas = [float(line.split(",")[1]) for line in lines[2:]]
    assert len(thetas) == 10
    assert thetas == sorted(thetas)


def test_sample_equilibrium_theta_column_constant(tmp_path):
    cfg = base_config(
        bounds={"theta_left": 1.0, "theta_right": 1.0}, sample={"n_sites": 6}
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "eq"
    assert main(["sample", "--config", path, "--out-dir", str(out)]) == EXIT_PASS
    lines = (out / "sample_table.csv").read_text().strip().splitlines()[2:]
    assert all(float(line.split(",")[1]) == 1.0 for line in lines)


def test_sample_draws_from_fixed_substreams(tmp_path, capsys):
    # the profile comes from the seed's profile stream and its configuration
    # from its configuration stream (ladder index and chunk 0), each drawn
    # by the batch sampler as one replica
    path = write_config(tmp_path, base_config(sample={"n_sites": 50}))
    out = tmp_path / "s"
    assert main(["sample", "--config", path, "--out-dir", str(out)]) == EXIT_PASS
    rows = [line.split(",") for line in (out / "sample_table.csv").read_text().splitlines()[2:]]
    seed = RandomSeed(11, 0)
    thetas = profile_batch(50, BoundaryParams(0.0, 2.0), seed.generator(Purpose.PROFILES), 1)[0]
    etas = configuration_batch(thetas, seed.generator(Purpose.CONFIGURATIONS))
    assert [row[1] for row in rows] == [repr(float(t)) for t in thetas]
    assert [row[2] for row in rows] == [repr(int(e)) for e in etas]
    for n_sites in (0, -3):
        path = write_config(tmp_path, base_config(sample={"n_sites": n_sites}))
        empty = tmp_path / f"empty{n_sites}"
        assert main(["sample", "--config", path, "--out-dir", str(empty)]) == EXIT_CONFIG
        assert "sample.n_sites" in capsys.readouterr().err
        assert not empty.exists()


def test_verify_le_scaling_passes(tmp_path):
    cfg = base_config(
        le_scaling={"x": 0.5, "p_vec": [1], "n_ladder": [2**j for j in range(7, 15)]}
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "le"
    assert main(["verify", "le-scaling", "--config", path, "--out-dir", str(out)]) == EXIT_PASS
    summary = json.loads((out / "le_scaling_summary.json").read_text())
    assert -1.15 <= summary["fit"]["slope"] <= -0.85
    assert summary["fit"]["r_squared"] > 0.99
    assert summary["config_digest"] == config_digest(cfg)


def test_verify_clt_replica_floor_is_config_error(tmp_path):
    cfg = base_config(clt={"n_sites": 500, "replicas": 10})
    path = write_config(tmp_path, cfg)
    code = main(["verify", "clt", "--config", path, "--out-dir", str(tmp_path / "clt")])
    assert code == EXIT_CONFIG


def test_verify_bridge_writes_analytic_column(tmp_path):
    cfg = base_config(bridge={"n_sites": 500, "replicas": 2000})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "bridge"
    code = main(["verify", "bridge", "--config", path, "--out-dir", str(out)])
    assert code in (EXIT_PASS, EXIT_VERDICT)
    lines = (out / "bridge_table.csv").read_text().strip().splitlines()
    assert lines[1] == "s,t,empirical_covariance,analytic_covariance,standard_error"
    row = lines[2].split(",")
    s, t = float(row[0]), float(row[1])
    width_sq = 4.0
    assert float(row[3]) == pytest.approx(width_sq * (min(s, t) - s * t))


def test_verify_concentration_small(tmp_path):
    cfg = base_config(
        concentration={"n_ladder": [10, 100, 1000], "replicas": 10000}
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "conc"
    code = main(["verify", "concentration", "--config", path, "--out-dir", str(out)])
    summary = json.loads((out / "concentration_summary.json").read_text())
    assert summary["verdicts"]["tail_nonincreasing"] is True
    assert code in (EXIT_PASS, EXIT_VERDICT)
    assert summary["marginal_check"]["min_competing_var_dev_in_se"] > 20


def test_ldp_path_rate_linear_is_zero(tmp_path):
    cfg = base_config(
        g={"name": "indicator-vacuum"},
        ldp={"profile": {"kind": "linear", "grid_size": 256}},
    )
    del cfg["phi"]
    path = write_config(tmp_path, cfg)
    out = tmp_path / "pr"
    assert main(["ldp", "path-rate", "--config", path, "--out-dir", str(out)]) == EXIT_PASS
    summary = json.loads((out / "path_rate_summary.json").read_text())
    assert summary["path_rate"] == 0.0


def test_ldp_free_energy_grid_is_convex(tmp_path):
    lam_grid = [round(-1.0 + 0.1 * j, 10) for j in range(21)]
    cfg = base_config(
        g={"name": "indicator-vacuum"},
        ldp={"theta": 1.0, "lambda_grid": lam_grid},
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "fe"
    assert main(["ldp", "free-energy", "--config", path, "--out-dir", str(out)]) == EXIT_PASS
    lines = (out / "free_energy_table.csv").read_text().strip().splitlines()[2:]
    vals = np.array([float(line.split(",")[1]) for line in lines])
    second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    assert second.min() >= -1e-9


def test_ldp_annealed_zero_weight(tmp_path):
    cfg = base_config(
        g={"name": "indicator-vacuum"},
        phi={"name": "const", "value": 0.0},
        ldp={"solver": {"multistart": 2, "grid_size": 128, "max_iterations": 300}},
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "ann"
    assert main(["ldp", "annealed", "--config", path, "--out-dir", str(out)]) == EXIT_PASS
    summary = json.loads((out / "annealed_summary.json").read_text())
    assert abs(summary["value"]) < 1e-10
    lines = (out / "annealed_table.csv").read_text().strip().splitlines()[2:]
    thetas = np.array([float(line.split(",")[1]) for line in lines])
    assert np.allclose(thetas, np.linspace(0.0, 2.0, 129), atol=1e-7)


def test_ldp_annealed_const_phi_is_the_closed_form(tmp_path):
    # const phi is a degree-0 polynomial: the Gibbs value, and a profile of
    # grid_size + 1 points whatever the other solver values say
    cfg = base_config(
        g={"name": "indicator-vacuum"},
        phi={"name": "const", "value": 0.2},
        ldp={"solver": {"multistart": 1, "grid_size": 100, "max_iterations": 1}},
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "ann"
    assert main(["ldp", "annealed", "--config", path, "--out-dir", str(out)]) == EXIT_PASS
    summary = json.loads((out / "annealed_summary.json").read_text())
    closed = math.log((2.0 + (math.exp(0.2) - 1) * math.log(3.0)) / 2.0)
    assert summary["value"] == pytest.approx(closed, rel=1e-12)
    assert len(summary["start_values"]) == 1 and summary["start_values"][0] < summary["value"]
    assert len((out / "annealed_table.csv").read_text().strip().splitlines()[2:]) == 101


def test_ldp_rate_task_vanishes_at_mean(tmp_path):
    cfg = base_config(
        g={"name": "indicator-vacuum"},
        ldp={"theta": 1.0, "x_grid": [0.25, 0.5, 0.75]},
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "rate"
    assert main(["ldp", "rate", "--config", path, "--out-dir", str(out)]) == EXIT_PASS
    lines = (out / "rate_table.csv").read_text().strip().splitlines()[2:]
    table = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines}
    # the mean of the indicator at theta=1 is 1/2, so the rate vanishes there
    assert table[0.5] == pytest.approx(0.0, abs=1e-8)
    assert table[0.25] > 0 and table[0.75] > 0


def test_ldp_profile_rate_task(tmp_path):
    cfg = base_config(
        g={"name": "indicator-vacuum"},
        ldp={
            "mu": {"name": "lln", "offset": 0.0},
            "solver": {"multistart": 1, "grid_size": 80, "max_iterations": 150},
        },
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "prof"
    assert main(["ldp", "profile-rate", "--config", path, "--out-dir", str(out)]) == EXIT_PASS
    summary = json.loads((out / "profile_rate_summary.json").read_text())
    assert 0.0 <= summary["value"] <= 1e-4


def test_ldp_requires_bounded_g(tmp_path):
    cfg = base_config(ldp={"theta": 1.0, "lambda_grid": [0.0, 0.1]})
    path = write_config(tmp_path, cfg)
    assert main(["ldp", "free-energy", "--config", path, "--out-dir", str(tmp_path / "x")]) == EXIT_CONFIG


def read_table(path: Path) -> list[list[float]]:
    """The rows of a CSV table below its manifest comment and header."""
    lines = path.read_text().splitlines()[2:]
    return [[float(v) for v in line.split(",")] for line in lines]


def test_numeric_error_exit_code(tmp_path, capsys):
    # a target profile of 1.5 lies outside the range [0, 1] of
    # indicator-vacuum, so every solver start meets an infinite rate
    cfg = base_config(
        g={"name": "indicator-vacuum"},
        ldp={
            "mu": {"name": "const", "value": 1.5},
            "solver": {"multistart": 1, "grid_size": 20, "max_iterations": 50},
        },
    )
    path = write_config(tmp_path, cfg)
    assert main(["ldp", "profile-rate", "--config", path, "--out-dir", str(tmp_path / "y")]) == EXIT_NUMERIC
    err = "numeric error: every solver start hit an infeasible profile"
    assert capsys.readouterr().err.startswith(err)
    assert not (tmp_path / "y").exists()


@pytest.mark.parametrize(
    "command, cfg, patch, message",
    [
        (["verify", "lln"], base_config(lln={"n_ladder": [10, 20], "replicas": 10}),
         True, "lln_limit: panel doubling did not converge"),
        (["ldp", "annealed"], base_config(g={"name": "indicator-vacuum"}),
         True, "annealed free energy: panel doubling did not converge"),
        (["ldp", "free-energy"],
         base_config(g={"name": "indicator-vacuum"}, ldp={"theta": 1.0, "lambda_grid": [800.0]}),
         False, "floating-point range"),
    ],
    ids=["quadrature-verify", "quadrature-ldp", "numeric"],
)
def test_each_numeric_error_exits_3(tmp_path, capsys, monkeypatch, command, cfg, patch, message):
    # QuadratureError from the limit integrals of verify and ldp, and ldp's
    # NumericError (OptimizationError: test_numeric_error_exit_code) exit 3
    # with the library's message
    if patch:  # the first rule already exceeds the panel cap
        monkeypatch.setattr(asymptotics, "_MAX_PANELS", 8)
    out = tmp_path / "out"
    argv = [*command, "--config", write_config(tmp_path, cfg), "--out-dir", str(out)]
    assert main(argv) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "error", [NumericError, OptimizationError], ids=["numeric", "optimization"]
)
def test_numeric_errors_met_by_verify_exit_3(tmp_path, capsys, monkeypatch, error):
    # main maps every NumericError to exit 3, whichever command meets it:
    # here a verify runner meets the two that only ldp raises
    def fail(*args):
        raise error("no convergence")

    monkeypatch.setattr(harness, "run_lln", fail)
    cfg = base_config(lln={"n_ladder": [10, 20], "replicas": 10})
    out = tmp_path / "out"
    argv = ["verify", "lln", "--config", write_config(tmp_path, cfg), "--out-dir", str(out)]
    assert main(argv) == EXIT_NUMERIC
    assert capsys.readouterr().err == "numeric error: no convergence\n"
    assert not out.exists()


@pytest.mark.parametrize("out_dir", ["file", "file/sub"], ids=["a-file", "under-a-file"])
def test_unusable_out_dir_exits_2_before_the_run(tmp_path, capsys, monkeypatch, out_dir):
    # an --out-dir that is, or lies under, a regular file is refused with
    # exit 2 before the command computes anything
    (tmp_path / "file").write_text("kept")
    monkeypatch.setattr(harness, "run_lln", lambda *args: pytest.fail("the run started"))
    cfg = base_config(lln={"n_ladder": [10, 20], "replicas": 10})
    argv = ["verify", "lln", "--config", write_config(tmp_path, cfg), "--out-dir",
            str(tmp_path / out_dir)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: --out-dir {tmp_path / out_dir}: ")
    assert "Traceback" not in err
    assert (tmp_path / "file").read_text() == "kept"


def test_failed_run_removes_the_directories_it_made(tmp_path, monkeypatch):
    # the output directory is made before the run; a run that fails removes
    # every level of it that it made, and leaves an existing one in place
    def fail(*args):
        raise NumericError("no convergence")

    monkeypatch.setattr(harness, "run_lln", fail)
    path = write_config(tmp_path, base_config(lln={"n_ladder": [10, 20], "replicas": 10}))
    for out in (tmp_path / "a" / "b", tmp_path):
        assert main(["verify", "lln", "--config", path, "--out-dir", str(out)]) == EXIT_NUMERIC
    assert not (tmp_path / "a").exists() and tmp_path.is_dir()


_SUMMARY_HEAD = ("command", "config", "config_digest", "seed", "verdicts")


@pytest.mark.parametrize("verbose", [False, True], ids=["quiet", "verbose"])
def test_every_command_prints_one_verdict_line(tmp_path, capsys, verbose):
    # one "<command> <kind>: PASS|FAIL" line; -v first prints each verdict
    # and payload entry as "<command> <kind>: <name> = <value>"
    cfg = base_config(
        g={"name": "indicator-vacuum"},
        sample={"n_sites": 5},
        le_scaling={"x": 0.5, "p_vec": [1], "n_ladder": [128, 256, 512]},
        ldp={"theta": 1.0, "lambda_grid": [0.0, 1.0]},
    )
    path = write_config(tmp_path, cfg)
    for words in (["sample"], ["verify", "le-scaling"], ["ldp", "free-energy"]):
        out = tmp_path / words[-1]
        argv = [*words, "--config", path, "--out-dir", str(out)]
        assert main(argv + ["-v"] * verbose) == EXIT_PASS
        lines = capsys.readouterr().out.splitlines()
        summary = json.loads((out / f"{words[-1].replace('-', '_')}_summary.json").read_text())
        assert summary["command"] == "-".join(words)
        label = " ".join(words)
        assert lines[-1] == f"{label}: PASS"
        names = [*summary["verdicts"], *(k for k in summary if k not in _SUMMARY_HEAD)]
        want = sorted(f"{label}: {name}" for name in names) if verbose else []
        assert sorted(line.partition(" = ")[0] for line in lines[:-1]) == want


# Run a command in a fresh interpreter; print its exit code and the modules
# it loaded.
_MODULES_SCRIPT = """
import contextlib, io, json, sys
import geomix.cli
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = geomix.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def _loaded_modules(argv: list[str]) -> tuple[int | None, set[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _MODULES_SCRIPT, *argv],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    code, modules = json.loads(done.stdout.splitlines()[-1])
    return code, set(modules)


_VERIFY_ONLY = ("geomix.harness", "geomix.duality")


@pytest.mark.parametrize(
    "command, absent",
    [
        (["ldp", "rate"], _VERIFY_ONLY),
        (["ldp", "annealed"], _VERIFY_ONLY),
        (["ldp", "profile-rate"], _VERIFY_ONLY),
        (["verify", "clt"], ("geomix.ldp",)),
        (["verify", "le-scaling"], ("geomix.ldp",)),
        ([], ("geomix.harness", "geomix.ldp")),
    ],
    ids=["rate", "annealed", "profile-rate", "clt", "le-scaling", "import"],
)
def test_each_command_imports_only_what_it_runs(tmp_path, command, absent):
    # every command loads numpy and geomix.core; the ldp tasks run no
    # sampling code, verify runs no ldp code, and the import alone runs
    # neither.  No command loads concurrent.futures, which brings logging
    # and queue: the sampling runs start plain helper threads
    cfg = base_config(
        g={"name": "indicator-vacuum"} if command[:1] == ["ldp"] else {"name": "density"},
        phi={"name": "const", "value": 0.2},
        clt={"n_sites": 100, "replicas": 2000},
        le_scaling={"x": 0.5, "p_vec": [1], "n_ladder": [128, 256, 512]},
        ldp={"theta": 1.0, "x_grid": [0.3, 0.5],
             "solver": {"multistart": 2, "grid_size": 20, "max_iterations": 200}},
    )
    args = ["--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path / "out")]
    code, loaded = _loaded_modules([*command, *args] if command else [])
    assert code == (EXIT_PASS if command else None)
    assert {"numpy", "geomix.core"} <= loaded
    assert not loaded & {*absent, "concurrent.futures"}


def test_sample_memory_is_a_few_arrays(tmp_path):
    # the table is formatted and written in row chunks: no Python object
    # per site outlives its chunk, so the peak is the N-long arrays
    n_sites = 2 * 10**5
    path = write_config(tmp_path, base_config(sample={"n_sites": n_sites}))
    tracemalloc.start()
    try:
        assert main(["sample", "--config", path, "--out-dir", str(tmp_path / "s")]) == EXIT_PASS
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * n_sites
    assert len((tmp_path / "s" / "sample_table.csv").read_text().splitlines()) == n_sites + 2


def test_free_energy_far_in_the_tilt(tmp_path):
    # F = log((e^lam + theta)/(1 + theta)) holds far in the tilt too
    cfg = base_config(
        bounds={"theta_left": 0.0, "theta_right": 5.0},
        g={"name": "indicator-vacuum"},
        ldp={"theta": 5.0, "lambda_grid": [6.0]},
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "f"
    assert main(["ldp", "free-energy", "--config", path, "--out-dir", str(out)]) == EXIT_PASS
    [[lam, value]] = read_table(out / "free_energy_table.csv")
    assert value == pytest.approx(math.log((math.exp(6.0) + 5.0) / 6.0), abs=1e-12)


def test_ldp_tasks_at_large_theta(tmp_path):
    # at theta = 50 the states n >= 1 hold mass 50/51; they form one tail
    # state, so F and the rate are exact there as at small theta
    cfg = base_config(
        bounds={"theta_left": 0.0, "theta_right": 50.0},
        g={"name": "indicator-vacuum"},
        ldp={"theta": 50.0, "lambda_grid": [-1.0, 0.0, 1.0], "x_grid": [1 / 51, 0.5]},
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "t"
    assert main(["ldp", "free-energy", "--config", path, "--out-dir", str(out)]) == EXIT_PASS
    for lam, value in read_table(out / "free_energy_table.csv"):
        assert value == pytest.approx(math.log((math.exp(lam) + 50.0) / 51.0), abs=1e-12)
    assert main(["ldp", "rate", "--config", path, "--out-dir", str(out)]) == EXIT_PASS
    (_, at_mean), (_, half) = read_table(out / "rate_table.csv")
    assert at_mean == pytest.approx(0.0, abs=1e-12)
    # the Bernoulli(1/51) relative entropy of 1/2
    assert half == pytest.approx(0.5 * math.log(25.5) + 0.5 * math.log(25.5 / 50.0), abs=1e-12)


def test_indicator_limit_layer_at_large_theta(tmp_path, capsys):
    # h(rho) = 1/(1+rho) is an exact two-state sum up to rho = 1e6.  The
    # left reservoir sits at 1e3: from theta_left = 0 the integrand
    # 1/(1 + 1e6 x) is too steep at x = 0 for the uniform panels
    cfg = base_config(
        bounds={"theta_left": 1e3, "theta_right": 1e6},
        g={"name": "indicator-vacuum"},
        lln={"n_ladder": [1000, 10000], "replicas": 100},
        clt={"n_sites": 1000, "replicas": 2000},
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "l"
    code = main(["verify", "lln", "--config", path, "--out-dir", str(out)])
    assert code in (EXIT_PASS, EXIT_VERDICT)
    summary = json.loads((out / "lln_summary.json").read_text())
    assert summary["limit"] == pytest.approx(math.log((1 + 1e6) / (1 + 1e3)) / (1e6 - 1e3), abs=1e-9)
    # the exact mixture mean that centres the CLT field is refused, as for
    # any non-polynomial g
    assert main(["verify", "clt", "--config", path, "--out-dir", str(out)]) == EXIT_CONFIG
    assert "exact mixture means require a polynomial" in capsys.readouterr().err


def test_quartic_polynomial_lln_is_exact(tmp_path):
    # eta1*eta2*eta3*eta4 needs no state grid: h(rho) = rho^4 exactly, so
    # the limit is the integral of (2x)^4 over [0, 1]; the exact mixture
    # mean behind the CLT centering has no window cap either
    quartic = base_config(
        g={"name": "custom-polynomial", "k": 4, "terms": [{"exps": [1, 1, 1, 1], "coef": 1.0}]},
        lln={"n_ladder": [100], "replicas": 10},
        clt={"n_sites": 100, "replicas": 2000},
    )
    path = write_config(tmp_path, quartic, "quartic.json")
    code = main(["verify", "lln", "--config", path, "--out-dir", str(tmp_path / "q")])
    assert code in (EXIT_PASS, EXIT_VERDICT)
    summary = json.loads((tmp_path / "q" / "lln_summary.json").read_text())
    assert summary["limit"] == pytest.approx(16 / 5, rel=1e-9, abs=1e-9)
    code = main(["verify", "clt", "--config", path, "--out-dir", str(tmp_path / "q")])
    assert code in (EXIT_PASS, EXIT_VERDICT)


def test_state_tables_over_budget_are_config_errors(tmp_path, capsys):
    # the LDP state truncation is fixed: a config cannot ask for 10^8 states
    wide = base_config(
        g={"name": "indicator-vacuum"},
        ldp={"theta": 1.0, "lambda_grid": [0.5], "m_state": 10**8},
    )
    path = write_config(tmp_path, wide, "wide.json")
    out = tmp_path / "w"
    assert main(["ldp", "free-energy", "--config", path, "--out-dir", str(out)]) == EXIT_CONFIG
    assert "unknown key(s) ['m_state']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, overrides",
    [
        # non-finite reservoirs are refused before any kernel is built
        (["verify", "clt"], {"bounds": {"theta_left": 0.0, "theta_right": math.inf},
                             "clt": {"n_sites": 5000, "replicas": 2000}}),
        (["sample"], {"bounds": {"theta_left": 0.0, "theta_right": math.nan},
                      "sample": {"n_sites": 10}}),
        (["verify", "concentration"], {"concentration": {"n_ladder": [0, 10], "replicas": 10000}}),
        (["verify", "concentration"], {"concentration": {"n_ladder": [-5, 10], "replicas": 10000}}),
        # the tail verdict reads the ladder in order
        (["verify", "concentration"], {"concentration": {"n_ladder": [1000, 10], "replicas": 10000}}),
        (["verify", "bridge"], {"bridge": {"n_sites": 500, "replicas": 2000, "grid": []}}),
        (["verify", "bridge"], {"bridge": {"n_sites": 1000, "replicas": 2000, "grid": [1.0005]}}),
        # s = 1 picks the maximum, whose scaled variance is O(1/N) against a kernel of 0
        (["verify", "bridge"], {"bridge": {"n_sites": 1000, "replicas": 2000, "grid": [0.5, 1.0]}}),
        # 5793 points give a replica |grid| + 1 + |grid|^2 > 2^25 doubles
        (["verify", "bridge"], {"bridge": {"n_sites": 10**5, "replicas": 2000,
                                           "grid": [i / 5794 for i in range(1, 5794)]}}),
        (["sample"], {"seed": [1], "sample": {"n_sites": 10}}),
        (["verify", "lln"], {"lln": {"n_ladder": [100], "replicas": 1}}),
        (["verify", "clt"], {"clt": {"n_sites": 0, "replicas": 2000}}),
        (["ldp", "annealed"], {"g": {"name": "indicator-vacuum"},
                               "ldp": {"solver": {"multistart": 0}}}),
        # non-finite LDP inputs are refused, not written out as nan or inf
        (["ldp", "free-energy"], {"g": {"name": "indicator-vacuum"},
                                  "ldp": {"theta": math.nan, "lambda_grid": [0.5]}}),
        (["ldp", "free-energy"], {"g": {"name": "indicator-vacuum"},
                                  "ldp": {"theta": math.inf, "lambda_grid": [0.5]}}),
        (["ldp", "rate"], {"g": {"name": "indicator-vacuum"},
                           "ldp": {"theta": math.nan, "x_grid": [0.5]}}),
        (["ldp", "rate"], {"g": {"name": "indicator-vacuum"},
                           "ldp": {"theta": math.inf, "x_grid": [0.5]}}),
        (["ldp", "free-energy"], {"g": {"name": "indicator-vacuum"},
                                  "ldp": {"theta": 1.0, "lambda_grid": [0.5, math.nan]}}),
        (["ldp", "rate"], {"g": {"name": "indicator-vacuum"},
                           "ldp": {"theta": 1.0, "x_grid": [0.5, math.nan]}}),
        (["ldp", "path-rate"], {"g": {"name": "indicator-vacuum"},
                                "ldp": {"profile": {"values": [0.0, math.nan, 2.0]}}}),
        # a dual window without particles has E[D] = 1 = rho^0 at every N
        (["verify", "le-scaling"], {"le_scaling": {"x": 0.5, "p_vec": [], "n_ladder": [128, 256, 512]}}),
        (["verify", "le-scaling"], {"le_scaling": {"x": 0.5, "p_vec": [0], "n_ladder": [128, 256, 512]}}),
        # a repeated N gives the slope fit a constant log N; the ladder increases
        (["verify", "le-scaling"], {"le_scaling": {"x": 0.5, "p_vec": [1], "n_ladder": [128, 128, 128]}}),
        (["verify", "le-scaling"], {"le_scaling": {"x": 0.5, "p_vec": [1], "n_ladder": [512, 256, 128]}}),
        # json reads NaN and Infinity: every number key refuses them
        (["verify", "concentration"],
         {"concentration": {"n_ladder": [10, 100], "replicas": 10000, "eps": [math.nan, 0.5]}}),
        (["verify", "lln"], {"phi": {"name": "const", "value": math.nan},
                             "lln": {"n_ladder": [100, 1000], "replicas": 10}}),
        (["verify", "lln"], {"phi": {"name": "poly", "coefficients": [1.0, math.inf]},
                             "lln": {"n_ladder": [100, 1000], "replicas": 10}}),
        (["verify", "lln"], {"g": {"name": "custom-polynomial", "k": 1,
                                   "terms": [{"exps": [1], "coef": math.nan}]},
                             "lln": {"n_ladder": [100, 1000], "replicas": 10}}),
        # a polynomial needs at least one coefficient
        (["verify", "lln"], {"phi": {"name": "poly", "coefficients": []},
                             "lln": {"n_ladder": [100, 1000], "replicas": 10}}),
        # refused at once: V of eta^(10^5) would expand a raw moment of order 2 * 10^5
        (["verify", "clt"], {"g": {"name": "custom-polynomial", "k": 1,
                                   "terms": [{"exps": [10**5], "coef": 1.0}]},
                             "clt": {"n_sites": 100, "replicas": 2000}}),
    ],
    ids=["inf-bounds", "nan-bounds", "ladder-zero", "ladder-negative", "ladder-decreasing",
         "empty-grid", "grid-above-one", "grid-at-one", "grid-too-wide", "seed-list", "one-replica",
         "zero-sites", "no-starts",
         "nan-theta-free-energy", "inf-theta-free-energy", "nan-theta-rate", "inf-theta-rate",
         "nan-lambda", "nan-x", "nan-profile", "no-dual-particles", "zero-dual-particles",
         "le-ladder-repeated", "le-ladder-decreasing",
         "nan-eps", "nan-phi-value", "inf-phi-coefficient", "nan-term-coef", "no-phi-coefficients",
         "clt-degree-above-cap"],
)
def test_invalid_configs_are_config_errors(tmp_path, capsys, command, overrides):
    path = write_config(tmp_path, base_config(**overrides))
    out = tmp_path / "out"
    assert main([*command, "--config", path, "--out-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("steps", [0, -1])
def test_solver_steps_below_one_are_config_errors(tmp_path, capsys, steps):
    # with no step the solver would report its linear start as the optimum
    cfg = base_config(g={"name": "indicator-vacuum"}, ldp={"solver": {"max_iterations": steps}})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["ldp", "profile-rate", "--config", path, "--out-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and "max_iterations" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, overrides, key",
    [
        # numpy's reshape of an empty batch named no key
        (["ldp", "free-energy"], {"g": {"name": "indicator-vacuum"},
                                  "ldp": {"theta": 1.0, "lambda_grid": []}}, "ldp.lambda_grid"),
        (["ldp", "rate"], {"g": {"name": "indicator-vacuum"},
                           "ldp": {"theta": 1.0, "x_grid": []}}, "ldp.x_grid"),
        # a negative eps ran, and every row counted as a hit
        (["verify", "concentration"],
         {"concentration": {"n_ladder": [10, 100], "replicas": 10000, "eps": [0.5, -0.1]}},
         "concentration.eps"),
    ],
    ids=["empty-lambda-grid", "empty-x-grid", "negative-eps"],
)
def test_empty_grids_and_negative_eps_name_the_key(tmp_path, capsys, command, overrides, key):
    path = write_config(tmp_path, base_config(**overrides))
    out = tmp_path / "out"
    assert main([*command, "--config", path, "--out-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "ldp, key",
    [
        ({"theta": 1.0, "lambda_grid": [0.5], "quadrature": {"panels": 10**9}}, "quadrature"),
        ({"theta": 1.0, "lambda_grid": [0.5], "eigen_tol": 1e-6}, "eigen_tol"),
        ({"theta": 1.0, "lambda_grid": [0.5], "solver": {"multistarts": 1}}, "multistarts"),
        ({"theta": 1.0, "lambda_grid": [0.5], "solver": {"step_size": 0.1}}, "step_size"),
        ({"theta": 1.0, "lambda_grid": [0.5], "solver": {"shrink_factor": 0.9}}, "shrink_factor"),
        ({"theta": 1.0, "lambda_grid": [0.5], "solver": {"tolerance": 1e-3}}, "tolerance"),
    ],
    ids=["quadrature", "eigen_tol", "multistarts", "step_size", "shrink_factor", "tolerance"],
)
def test_unread_ldp_keys_are_config_errors(tmp_path, capsys, ldp, key):
    # a key no ldp task reads would otherwise be ignored without a word
    path = write_config(tmp_path, base_config(g={"name": "indicator-vacuum"}, ldp=ldp))
    code = main(["ldp", "free-energy", "--config", path, "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err


@pytest.mark.parametrize(
    "command, overrides, key",
    [
        (["sample"], {"seed": {"mastr": 5}, "sample": {"n_sites": 10}}, "mastr"),
        (["ldp", "path-rate"], {"g": {"name": "indicator-vacuum"},
                                "ldp": {"profile": {"kind": "power", "exponnent": 3.0}}},
         "exponnent"),
        (["ldp", "profile-rate"], {"g": {"name": "indicator-vacuum"},
                                   "ldp": {"mu": {"name": "lln", "ofset": -0.05}}}, "ofset"),
        (["sample"], {"sed": {"master": 5}, "sample": {"n_sites": 10}}, "sed"),
        (["verify", "concentration"],
         {"concentration": {"n_ladder": [10, 100], "replicas": 10000, "epz": [0.5, 0.5]}}, "epz"),
        (["verify", "bridge"], {"bridge": {"n_sites": 500, "replicas": 2000, "gird": [0.5]}},
         "gird"),
        (["sample"], {"bounds": {"theta_left": 0.0, "theta_right": 1.0, "theta_rigth": 2.0},
                      "sample": {"n_sites": 10}}, "theta_rigth"),
        (["verify", "lln"], {"g": {"name": "density", "k": 2},
                             "lln": {"n_ladder": [100], "replicas": 10}}, "k"),
        (["sample"], {"sample": {"n_sites": 10, "n_sits": 20}}, "n_sits"),
    ],
    ids=["seed", "ldp.profile", "ldp.mu", "sed", "epz", "gird", "theta_rigth", "g.k", "n_sits"],
)
def test_misspelt_table_keys_are_config_errors(tmp_path, capsys, command, overrides, key):
    # each would otherwise run without the key: at master 0, exponent 2,
    # offset 0, the default eps and grid, theta_right 1, 10 sites
    path = write_config(tmp_path, base_config(**overrides))
    out = tmp_path / "out"
    assert main([*command, "--config", path, "--out-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"unknown key(s) ['{key}']" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, overrides, key",
    [
        (["sample"], {"sample": {"n_sites": None}}, "sample.n_sites"),
        (["verify", "lln"], {"lln": {"n_ladder": 100, "replicas": 10}}, "lln.n_ladder"),
        (["verify", "concentration"],
         {"concentration": {"n_ladder": [10, 100], "replicas": 10000, "eps": 0.5}},
         "concentration.eps"),
        (["verify", "clt"], {"clt": {"n_sites": 100, "replicas": True}}, "clt.replicas"),
        (["verify", "lln"], {"lln": {"n_ladder": [100, "1000"], "replicas": 10}}, "lln.n_ladder"),
        (["verify", "concentration"],
         {"concentration": {"n_ladder": [10, 100], "replicas": 10000, "eps": [0.5, -math.inf]}},
         "concentration.eps"),
        (["sample"], {"bounds": {"theta_left": 0.0, "theta_right": 10**400},
                      "sample": {"n_sites": 10}}, "bounds.theta_right"),
    ],
    ids=["null-for-int", "int-for-list", "float-for-list", "bool-for-int", "string-in-list",
         "infinity-in-list", "integer-beyond-double"],
)
def test_wrong_value_types_are_config_errors(tmp_path, capsys, command, overrides, key):
    path = write_config(tmp_path, base_config(**overrides))
    out = tmp_path / "out"
    assert main([*command, "--config", path, "--out-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: '{key}' must be") and "Traceback" not in err
    assert not out.exists()


def test_concentration_and_marginal_check_draw_distinct_streams(tmp_path, monkeypatch):
    # the concentration run draws spacing and fill streams, the marginal
    # check profile streams, so no key is built twice
    keys = []
    generator = RandomSeed.generator

    def recording(seed, *args, **kwargs):
        rng = generator(seed, *args, **kwargs)
        keys.append(rng.bit_generator.seed_seq.spawn_key)
        return rng

    monkeypatch.setattr(RandomSeed, "generator", recording)
    cfg = base_config(concentration={"n_ladder": [10, 1000], "replicas": 10**4})
    path = write_config(tmp_path, cfg)
    code = main(["verify", "concentration", "--config", path, "--out-dir", str(tmp_path / "out")])
    assert code in (EXIT_PASS, EXIT_VERDICT)
    # N = 10 has one segment: no spacings, and every row of its one chunk
    # is filled.  N = 1000 has 32 segments: spacings in each of its three
    # chunks, and fills only where a chunk holds an undecided row.  One
    # chunk for the marginal check
    spacings = [k for k in keys if k[1] == Purpose.SPACINGS]
    assert sorted(spacings) == [(0, Purpose.SPACINGS, 1, c) for c in range(3)]
    assert (0, Purpose.FILLS, 0, 0) in keys
    assert [k for k in keys if k[1] == Purpose.PROFILES] == [(0, Purpose.PROFILES, 0, 0)]
    assert len(set(keys)) == len(keys)


def test_every_sampling_run_builds_each_key_once(tmp_path, monkeypatch):
    # several chunks at every N; each run's keys are unique, and the lln
    # ladder keys each N by its index, so no N reuses another's streams
    monkeypatch.setattr(harness, "_CHUNK_BUDGET", 2**14)
    keys = []
    generator = RandomSeed.generator

    def recording(seed, *args, **kwargs):
        rng = generator(seed, *args, **kwargs)
        assert rng.bit_generator.seed_seq.entropy == 11
        keys.append(rng.bit_generator.seed_seq.spawn_key)
        return rng

    monkeypatch.setattr(RandomSeed, "generator", recording)
    ladder = [50, 400, 1000]
    cfg = base_config(
        g={"name": "pair-product"},
        sample={"n_sites": 10},
        lln={"n_ladder": ladder, "replicas": 100},
        clt={"n_sites": 400, "replicas": 2000},
        bridge={"n_sites": 400, "replicas": 2000},
        concentration={"n_ladder": [10, 400, 1000], "replicas": 10**4},
    )
    path = write_config(tmp_path, cfg)
    runs = {}
    kinds = ("lln", "clt", "bridge", "concentration")
    for command in (["sample"], *(["verify", kind] for kind in kinds)):
        keys.clear()
        code = main([*command, "--config", path, "--out-dir", str(tmp_path / command[-1])])
        assert code in (EXIT_PASS, EXIT_VERDICT)
        runs[command[-1]] = list(keys)
    keys.clear()
    oracles.annealed_mc_estimate(
        pair_product_function(), 0.5, 50, BoundaryParams(0.0, 2.0), 2000, RandomSeed(11, 0)
    )
    runs["annealed"] = list(keys)
    for name, run_keys in runs.items():
        assert run_keys and len(set(run_keys)) == len(run_keys), name
    field = (Purpose.PROFILES, Purpose.CONFIGURATIONS)
    assert runs["sample"] == [(0, p, 0, 0) for p in field]
    chunks = [-(-100 // (2**14 // n)) for n in ladder]  # 1, 3 and 7
    assert sorted(runs["lln"]) == sorted(
        (0, p, i, c) for i, count in enumerate(chunks) for c in range(count) for p in field
    )
    # N = 10 and 400 have one segment and fill every row; N = 1000 draws
    # spacings in each of its 625 chunks of 16 rows
    conc = runs["concentration"]
    assert sorted(k for k in conc if k[1] == Purpose.SPACINGS) == [
        (0, Purpose.SPACINGS, 2, c) for c in range(625)
    ]
    for i, n in enumerate((10, 400)):
        fills = sorted(k for k in conc if k[1] == Purpose.FILLS and k[2] == i)
        assert fills == [(0, Purpose.FILLS, i, c) for c in range(-(-10**4 // (2**14 // n)))]


@pytest.mark.parametrize(
    "command, seed, flag, name",
    [
        (["sample"], {"master": -1, "stream": 0}, [], "seed.master"),
        (["sample"], {"master": 2**64, "stream": 0}, [], "seed.master"),
        (["verify", "lln"], {"master": 0, "stream": -1}, [], "seed.stream"),
        (["verify", "lln"], {"master": 0, "stream": 2**64}, [], "seed.stream"),
        (["sample"], {"master": 0, "stream": 0}, ["--seed", "-1"], "--seed"),
        (["verify", "lln"], {"master": 0, "stream": 0}, ["--seed", str(2**64)], "--seed"),
    ],
    ids=["master-negative", "master-2^64", "stream-negative", "stream-2^64", "flag-negative",
         "flag-2^64"],
)
def test_seeds_outside_64_bits_are_config_errors(
    tmp_path, capsys, monkeypatch, command, seed, flag, name
):
    # masked into 64 bits, -1 would draw the streams of 2**64 - 1
    drawn = []
    monkeypatch.setattr(RandomSeed, "generator", lambda *args, **kwargs: drawn.append(args))
    cfg = base_config(seed=seed, sample={"n_sites": 10}, lln={"n_ladder": [10, 20], "replicas": 10})
    out = tmp_path / "out"
    path = write_config(tmp_path, cfg)
    assert main([*command, "--config", path, "--out-dir", str(out), *flag]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: '{name}' must lie in [0, 2**64)")
    assert "Traceback" not in err
    assert not out.exists() and not drawn


def test_largest_seeds_are_accepted(tmp_path):
    cfg = base_config(seed={"master": 2**64 - 1, "stream": 2**64 - 1}, sample={"n_sites": 5})
    out = tmp_path / "out"
    path = write_config(tmp_path, cfg)
    assert main(["sample", "--config", path, "--out-dir", str(out)]) == EXIT_PASS
    summary = json.loads((out / "sample_summary.json").read_text())
    assert summary["seed"] == {"master": 2**64 - 1, "stream": 2**64 - 1}


@pytest.mark.parametrize("name", ["demo.json", "demo_ldp.json"])
def test_committed_configs_read_as_written(name):
    # every table of the shipped configs holds only declared keys
    cli._read(json.loads((CONFIGS / name).read_text()), cli._CONFIG, "")


def test_benchmark_configs_read_as_written(monkeypatch):
    # the configs the benchmark writes at its default seed, with its
    # workload module loaded from source without writing bytecode
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    for name, build in workloads.WORKLOADS.items():
        for cfg in build(workloads.DEFAULT_SEED, 2).configs.values():
            cli._read(cfg, cli._CONFIG, name)


def test_missing_and_malformed_config(tmp_path):
    assert main(["sample", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sample", "--config", str(bad)]) == EXIT_CONFIG
    missing_section = write_config(tmp_path, {"bounds": {"theta_left": 0.0}}, "m.json")
    assert main(["sample", "--config", missing_section]) == EXIT_CONFIG


def test_worker_count_does_not_change_bytes(tmp_path):
    cfg = base_config(
        lln={"n_ladder": [300, 1200], "replicas": 48},
        g={"name": "pair-product"},
        phi={"name": "x"},
    )
    path = write_config(tmp_path, cfg)
    tables, summaries = [], []
    for w in (1, 4, 8):
        out = tmp_path / f"w{w}"
        code = main([
            "verify", "lln", "--config", path, "--out-dir", str(out), "--workers", str(w)
        ])
        assert code in (EXIT_PASS, EXIT_VERDICT)
        tables.append((out / "lln_table.csv").read_bytes())
        summaries.append((out / "lln_summary.json").read_bytes())
    assert tables[0] == tables[1] == tables[2]
    assert summaries[0] == summaries[1] == summaries[2]


@pytest.mark.parametrize(
    "kind, section",
    [
        # N = 1000 and N = 5000 give three chunks each, so two workers share them
        ("concentration", {"n_ladder": [10, 1000], "replicas": 10**4}),
        ("bridge", {"n_sites": 5000, "replicas": 2000}),
    ],
)
def test_worker_count_does_not_change_profile_run_bytes(tmp_path, kind, section):
    path = write_config(tmp_path, base_config(**{kind: section}))
    blobs = []
    for w in (1, 2):
        out = tmp_path / f"w{w}"
        code = main(["verify", kind, "--config", path, "--out-dir", str(out), "--workers", str(w)])
        assert code in (EXIT_PASS, EXIT_VERDICT)
        blobs.append(
            (out / f"{kind}_table.csv").read_bytes() + (out / f"{kind}_summary.json").read_bytes()
        )
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize(
    "command, key, section",
    [
        (["sample"], "sample.n_sites", {"n_sites": 10**12}),
        (["verify", "lln"], "lln.n_ladder", {"n_ladder": [10**13], "replicas": 100}),
        (["verify", "clt"], "clt.n_sites", {"n_sites": 10**12, "replicas": 2000}),
        (
            ["verify", "concentration"],
            "concentration.n_ladder",
            {"n_ladder": [10, 10**12], "replicas": 10**4},
        ),
    ],
)
def test_sampled_sites_above_the_row_limit_exit_2(tmp_path, capsys, command, key, section):
    # a row of 10^12 sites would take 8 TB: the commands that hold rows
    # refuse N above 2^25 by its key before anything N long exists
    table = key.split(".")[0]
    path = write_config(tmp_path, base_config(**{table: section}))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main([*command, "--config", path, "--out-dir", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_CONFIG
    assert f"'{key}' must not exceed {2**25} sites" in capsys.readouterr().err
    assert peak < 2**20
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_config_error(tmp_path, workers):
    path = write_config(tmp_path, base_config(sample={"n_sites": 8}))
    out = tmp_path / "out"
    code = main(["sample", "--config", path, "--out-dir", str(out), "--workers", workers])
    assert code == EXIT_CONFIG
    assert not out.exists()


def test_seed_override_changes_output(tmp_path):
    cfg = base_config(sample={"n_sites": 8})
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    main(["sample", "--config", path, "--out-dir", str(out1), "--seed", "123"])
    main(["sample", "--config", path, "--out-dir", str(out2), "--seed", "124"])
    t1 = (out1 / "sample_table.csv").read_text().splitlines()[2:]
    t2 = (out2 / "sample_table.csv").read_text().splitlines()[2:]
    assert t1 != t2


def test_demo_outputs_match_recorded_digests(tmp_path):
    # tests/make_demo_digests.py rewrites the record when a change moves bytes
    recorded = json.loads(DIGESTS.read_text())
    # every command of the CLI's table, at 1 and 2 workers, table and summary
    assert set(recorded["files"]) == {
        f"w{workers}/{name}/{words[-1].replace('-', '_')}_{part}"
        for name, words, _ in demo_commands()
        for workers in (1, 2)
        for part in ("table.csv", "summary.json")
    }
    files = demo_digests(tmp_path)
    moved = sorted(k for k in recorded["files"].keys() | files.keys()
                   if recorded["files"].get(k) != files.get(k))
    assert not moved, (
        f"{len(moved)} of {len(recorded['files'])} demo outputs differ from the record "
        f"made with numpy {recorded['numpy']}, Python {recorded['python']} "
        f"(this run: numpy {versions()['numpy']}, Python {versions()['python']}): {moved}"
    )
