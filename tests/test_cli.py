import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from geomix import cli
from geomix.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_PASS,
    EXIT_VERDICT,
    canonical_config,
    config_digest,
    main,
)


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


def test_numeric_error_exit_code(tmp_path):
    # the 128-state truncation cannot certify its tail at theta = 5,
    # lambda = 6: e^6 * (5/6)^129 = 2.5e-8 is above the 1e-9 limit
    cfg = base_config(
        bounds={"theta_left": 0.0, "theta_right": 5.0},
        g={"name": "indicator-vacuum"},
        ldp={"theta": 5.0, "lambda_grid": [6.0]},
    )
    path = write_config(tmp_path, cfg)
    assert main(["ldp", "free-energy", "--config", path, "--out-dir", str(tmp_path / "y")]) == EXIT_NUMERIC
    assert not (tmp_path / "y").exists()


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
    ],
    ids=["inf-bounds", "nan-bounds", "ladder-zero", "ladder-negative", "ladder-decreasing",
         "empty-grid", "grid-above-one", "seed-list", "one-replica", "zero-sites", "no-starts",
         "nan-theta-free-energy", "inf-theta-free-energy", "nan-theta-rate", "inf-theta-rate",
         "nan-lambda", "nan-x", "nan-profile", "no-dual-particles", "zero-dual-particles"],
)
def test_invalid_configs_are_config_errors(tmp_path, capsys, command, overrides):
    path = write_config(tmp_path, base_config(**overrides))
    out = tmp_path / "out"
    assert main([*command, "--config", path, "--out-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err
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
