"""Batch front end: config parsing, experiment dispatch, file outputs.

A run reads one JSON config file (key-value with nested tables), executes
one experiment, and writes three files into the output directory: a CSV
table (one row per ladder point or grid pair), a JSON summary with the
config echo and verdicts, and a JSON manifest with timestamps.  The CSV
and summary are byte-deterministic for a given config and seed, for any
worker count; every output embeds a digest of the canonicalized config.

Exit codes: 0 all verdicts pass, 1 verdict failure, 2 config error,
3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from geomix.asymptotics import QuadratureError, homogeneous_mean_batch
from geomix.core import (
    BoundaryParams,
    LocalFunction,
    RandomSeed,
    density_function,
    indicator_vacuum_function,
    pair_product_function,
    polynomial_function,
    sample_ness,
)
from geomix.fields import TestFunction, phi_identity, phi_one, phi_polynomial
from geomix.harness import (
    ExperimentConfig,
    check_profile_marginals,
    run_bridge,
    run_clt,
    run_concentration,
    run_le_scaling,
    run_lln,
)
from geomix.ldp import (
    MonotoneProfile,
    NumericError,
    OptimizationError,
    SolverConfig,
    annealed_free_energy,
    free_energy,
    inhom_free_energy,
    path_rate,
    profile_rate,
    rate_function,
)

__all__ = ["main", "ConfigError", "load_config", "config_digest"]

VERIFY_KINDS = ("lln", "clt", "bridge", "le-scaling", "concentration")
LDP_TASKS = ("free-energy", "rate", "path-rate", "annealed", "profile-rate")

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(Exception):
    """Invalid or incomplete configuration."""


def load_config(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def canonical_config(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def config_digest(cfg: dict) -> str:
    return hashlib.sha256(canonical_config(cfg).encode("ascii")).hexdigest()


def _section(cfg: dict, key: str) -> dict:
    sec = cfg.get(key)
    if not isinstance(sec, dict):
        raise ConfigError(f"config section '{key}' is missing or not a table")
    return sec


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing '{key}' in config section '{where}'")
    return section[key]


def _known_table(table, keys: tuple[str, ...], where: str) -> dict:
    """A config table that holds only keys the CLI reads."""
    if not isinstance(table, dict):
        raise ConfigError(f"config section '{where}' must be a table")
    unknown = sorted(set(table) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in config section '{where}'")
    return table


def build_bounds(cfg: dict) -> BoundaryParams:
    sec = _section(cfg, "bounds")
    try:
        return BoundaryParams(
            float(_require(sec, "theta_left", "bounds")),
            float(_require(sec, "theta_right", "bounds")),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid bounds: {exc}") from exc


_SEED_KEYS = ("master", "stream")


def build_seed(cfg: dict, override_master: int | None) -> RandomSeed:
    sec = _known_table(cfg.get("seed", {}), _SEED_KEYS, "seed")
    master = int(sec.get("master", 0)) if override_master is None else int(override_master)
    return RandomSeed(master=master, stream=int(sec.get("stream", 0)))


def build_g(cfg: dict):
    sec = _section(cfg, "g")
    name = _require(sec, "name", "g")
    if name == "density":
        return density_function()
    if name == "pair-product":
        return pair_product_function()
    if name == "indicator-vacuum":
        return indicator_vacuum_function()
    if name == "custom-polynomial":
        k = int(_require(sec, "k", "g"))
        terms = _require(sec, "terms", "g")
        try:
            monos = {tuple(int(e) for e in t["exps"]): float(t["coef"]) for t in terms}
        except (KeyError, TypeError) as exc:
            raise ConfigError(
                "custom-polynomial terms must be objects with 'exps' and 'coef'"
            ) from exc
        try:
            return polynomial_function(k, monos, name="custom-polynomial")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(
        f"unknown local function '{name}'; choose density, pair-product, "
        "indicator-vacuum or custom-polynomial"
    )


# the keys each test function reads
_PHI_KEYS = {
    "one": ("name",),
    "x": ("name",),
    "const": ("name", "value"),
    "poly": ("name", "coefficients"),
}


def build_phi(cfg: dict, key: str = "phi") -> TestFunction:
    sec = _section(cfg, key)
    name = _require(sec, "name", key)
    if name == "one":
        return phi_one()
    if name == "x":
        return phi_identity()
    if name == "const":
        value = float(_require(sec, "value", key))
        return TestFunction(lambda x, v=value: np.full_like(x, v), name="const")
    if name == "poly":
        return phi_polynomial(_require(sec, "coefficients", key))
    raise ConfigError(f"unknown test function '{name}'; choose one, x, const or poly")


def _format(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path: Path, digest: str, header: list[str], rows) -> None:
    lines = [f"# manifest: {digest}", ",".join(header)]
    lines.extend(",".join(_format(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _jsonable(obj):
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if math.isfinite(value) else repr(value)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def write_json(path: Path, obj: dict) -> None:
    path.write_text(
        json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


class _Run:
    """Collects outputs and writes the manifest at the end."""

    def __init__(self, command: str, cfg: dict, seed: RandomSeed, out_dir: Path):
        self.command = command
        self.cfg = cfg
        self.seed = seed
        self.out_dir = out_dir
        self.digest = config_digest(cfg)
        self.outputs: list[str] = []
        self.started = datetime.datetime.now(datetime.timezone.utc).isoformat()
        out_dir.mkdir(parents=True, exist_ok=True)

    def csv(self, name: str, header: list[str], rows) -> None:
        path = self.out_dir / name
        write_csv(path, self.digest, header, rows)
        self.outputs.append(name)

    def summary(self, name: str, verdicts: dict, payload: dict) -> None:
        path = self.out_dir / name
        write_json(
            path,
            {
                "command": self.command,
                "config": self.cfg,
                "config_digest": self.digest,
                "seed": {"master": self.seed.master, "stream": self.seed.stream},
                "verdicts": verdicts,
                **payload,
            },
        )
        self.outputs.append(name)

    def manifest(self, name: str) -> None:
        path = self.out_dir / name
        write_json(
            path,
            {
                "command": self.command,
                "config_digest": self.digest,
                "seed": {"master": self.seed.master, "stream": self.seed.stream},
                "started_at": self.started,
                "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                "outputs": sorted(self.outputs),
            },
        )


def cmd_sample(cfg: dict, out_dir: Path, seed: RandomSeed, verbose: bool) -> int:
    bounds = build_bounds(cfg)
    sec = _section(cfg, "sample")
    n_sites = int(_require(sec, "n_sites", "sample"))
    if n_sites < 1:
        raise ConfigError("sample.n_sites must be >= 1")
    run = _Run("sample", cfg, seed, out_dir)
    profile, configuration = sample_ness(n_sites, bounds, seed)
    rows = [
        (i + 1, profile.values[i], int(configuration.occupations[i]))
        for i in range(n_sites)
    ]
    run.csv("sample_table.csv", ["site", "theta", "eta"], rows)
    run.summary(
        "sample_summary.json",
        verdicts={"sorted": bool(np.all(np.diff(profile.values) >= 0))},
        payload={"n_sites": n_sites},
    )
    run.manifest("sample_manifest.json")
    if verbose:
        print(f"wrote {n_sites} sites to {out_dir / 'sample_table.csv'}")
    return EXIT_PASS


def _verify_lln(cfg, run, seed, workers):
    sec = _section(cfg, "lln")
    exp = ExperimentConfig(
        n_ladder=tuple(int(n) for n in _require(sec, "n_ladder", "lln")),
        replicas=int(_require(sec, "replicas", "lln")),
        bounds=build_bounds(cfg),
        g=build_g(cfg),
        phi=build_phi(cfg),
        seed=seed,
        workers=workers,
    )
    result = run_lln(exp)
    threshold = result.final_threshold()
    passed = result.decreasing and result.rows[-1][1] < threshold
    run.csv(
        "lln_table.csv",
        ["n_sites", "mean_abs_deviation", "standard_error"],
        result.rows,
    )
    verdicts = {
        "deviation_decreasing": result.decreasing,
        "final_below_clt_band": bool(result.rows[-1][1] < threshold),
    }
    payload = {
        "limit": result.limit,
        "sigma_total": result.sigma_total,
        "final_threshold": threshold,
    }
    return passed, verdicts, payload


def _verify_clt(cfg, run, seed, workers):
    sec = _section(cfg, "clt")
    replicas = int(_require(sec, "replicas", "clt"))
    if replicas < 2000:
        raise ConfigError("clt.replicas must be >= 2000 for the distributional test")
    exp = ExperimentConfig(
        n_ladder=(int(_require(sec, "n_sites", "clt")),),
        replicas=replicas,
        bounds=build_bounds(cfg),
        g=build_g(cfg),
        phi=build_phi(cfg),
        seed=seed,
        workers=workers,
    )
    result = run_clt(exp)
    passed = result.ks_pass and result.variance_pass
    run.csv(
        "clt_table.csv",
        ["sample_index", "rescaled_fluctuation"],
        list(enumerate(result.samples)),
    )
    verdicts = {"ks_pass": result.ks_pass, "variance_pass": result.variance_pass}
    payload = {
        "n_sites": result.n_sites,
        "ks_distance": result.ks_distance,
        "ks_threshold": result.ks_threshold,
        "exact_mean": result.exact_mean,
        "sample_variance": result.sample_variance,
        "variance_se": result.variance_se,
        "bridge_variance": result.target.bridge_variance,
        "white_noise_variance": result.target.white_noise_variance,
        "target_variance": result.target.total,
    }
    return passed, verdicts, payload


def _verify_bridge(cfg, run, seed, workers):
    sec = _section(cfg, "bridge")
    exp = ExperimentConfig(
        n_ladder=(int(_require(sec, "n_sites", "bridge")),),
        replicas=int(_require(sec, "replicas", "bridge")),
        bounds=build_bounds(cfg),
        g=density_function(),
        phi=phi_one(),
        seed=seed,
        workers=workers,
    )
    grid = sec.get("grid", [0.25, 0.5, 0.75])
    result = run_bridge(exp, grid)
    rows = []
    for a, s in enumerate(result.grid):
        for b_idx, t in enumerate(result.grid):
            rows.append(
                (
                    s,
                    t,
                    result.empirical[a, b_idx],
                    result.analytic[a, b_idx],
                    result.standard_errors[a, b_idx],
                )
            )
    max_dev = result.max_deviation_in_se()
    passed = max_dev <= 3.0
    run.csv(
        "bridge_table.csv",
        ["s", "t", "empirical_covariance", "analytic_covariance", "standard_error"],
        rows,
    )
    return passed, {"within_three_se": passed}, {"max_deviation_in_se": max_dev}


def _verify_le_scaling(cfg, run, seed, workers):
    sec = _section(cfg, "le_scaling")
    result = run_le_scaling(
        float(_require(sec, "x", "le_scaling")),
        [int(p) for p in _require(sec, "p_vec", "le_scaling")],
        [int(n) for n in _require(sec, "n_ladder", "le_scaling")],
        build_bounds(cfg),
    )
    run.csv("le_scaling_table.csv", ["n_sites", "deviation"], result.rows)
    if result.degenerate:
        return True, {"degenerate_equilibrium": True}, {"fit": None}
    fit = result.fit
    slope_ok = -1.15 <= fit.slope <= -0.85
    r2_ok = fit.r_squared > 0.99
    payload = {
        "fit": {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "r_squared": fit.r_squared,
        }
    }
    return slope_ok and r2_ok, {"slope_in_band": slope_ok, "r_squared_ok": r2_ok}, payload


def _verify_concentration(cfg, run, seed, workers):
    sec = _section(cfg, "concentration")
    bounds = build_bounds(cfg)
    ladder = [int(n) for n in _require(sec, "n_ladder", "concentration")]
    replicas = int(_require(sec, "replicas", "concentration"))
    if replicas < 10**4:
        raise ConfigError("concentration.replicas must be >= 10000")
    result = run_concentration(
        ladder, bounds, replicas, seed, eps_schedule=sec.get("eps"), workers=workers
    )
    run.csv(
        "concentration_table.csv",
        ["n_sites", "eps", "empirical_tail", "standard_error", "union_bound"],
        result.rows,
    )
    final_tail = result.rows[-1][2]
    passed = result.tail_nonincreasing and final_tail <= 1e-2
    marginals = check_profile_marginals(
        min(10, ladder[0]), bounds, min(replicas, 10**5), seed.substream(777), workers
    )
    payload = {
        "final_tail": final_tail,
        "marginal_check": {
            "n_sites": marginals.n_sites,
            "max_mean_dev_in_se": float(np.max(marginals.mean_deviations_in_se())),
            "max_var_dev_in_se": float(np.max(marginals.var_deviations_in_se())),
            "min_competing_var_dev_in_se": float(
                np.min(marginals.competing_var_deviations_in_se())
            ),
            "note": (
                "variance matches i(N+1-i)w^2/((N+1)^2(N+2)); the competing "
                "denominator with an extra (N+2) factor is ruled out"
            ),
        },
    }
    return (
        passed,
        {"tail_nonincreasing": result.tail_nonincreasing, "final_tail_small": final_tail <= 1e-2},
        payload,
    )


_VERIFY_DISPATCH = {
    "lln": _verify_lln,
    "clt": _verify_clt,
    "bridge": _verify_bridge,
    "le-scaling": _verify_le_scaling,
    "concentration": _verify_concentration,
}


def cmd_verify(
    kind: str, cfg: dict, out_dir: Path, seed: RandomSeed, workers: int, verbose: bool
) -> int:
    if kind not in _VERIFY_DISPATCH:
        raise ConfigError(f"unknown verify kind '{kind}'; choose from {VERIFY_KINDS}")
    run = _Run(f"verify-{kind}", cfg, seed, out_dir)
    passed, verdicts, payload = _VERIFY_DISPATCH[kind](cfg, run, seed, workers)
    name = kind.replace("-", "_")
    run.summary(f"{name}_summary.json", verdicts=verdicts, payload=payload)
    run.manifest(f"{name}_manifest.json")
    if verbose:
        for key, value in verdicts.items():
            print(f"{kind}: {key} = {value}")
    print(f"verify {kind}: {'PASS' if passed else 'FAIL'}")
    return EXIT_PASS if passed else EXIT_VERDICT


_LDP_KEYS = ("theta", "lambda_grid", "x_grid", "profile", "mu", "solver")
_SOLVER_KEYS = tuple(f.name for f in dataclasses.fields(SolverConfig))
# the keys each kind of profile reads; a profile given by its values reads only those
_PROFILE_KEYS = {
    "linear": ("kind", "grid_size"),
    "power": ("kind", "grid_size", "exponent"),
    "values": ("values",),
}
# the keys each target density reads: the lln profile and an offset, or a test function
_MU_KEYS = {"lln": ("name", "offset"), **_PHI_KEYS}


def _profile_kind(table: dict) -> str:
    return "values" if "values" in table else table.get("kind", "linear")


def _mu_kind(table: dict) -> str:
    return table.get("name")


def _kind_table(table, kind_of, keys: dict, where: str) -> tuple[str, dict]:
    """A config table's kind, and the table, which holds only the keys that kind reads."""
    kind = kind_of(_known_table(table, tuple(set().union(*keys.values())), where))
    if kind not in keys:
        raise ConfigError(
            f"unknown kind {kind!r} in config section '{where}'; choose from {sorted(keys)}"
        )
    return kind, _known_table(table, keys[kind], where)


def _ldp_g(cfg: dict) -> LocalFunction:
    g = build_g(cfg)
    if not g.bounded:
        raise ConfigError("ldp tasks require a bounded local function g")
    return g


def _ldp_solver(sec: dict) -> SolverConfig:
    return SolverConfig(**{k: int(v) for k, v in sec.get("solver", {}).items()})


def _ldp_profile(kind: str, sec: dict, bounds: BoundaryParams) -> MonotoneProfile:
    if kind == "values":
        return MonotoneProfile(values=np.asarray(sec["values"], dtype=float), bounds=bounds)
    m = int(sec.get("grid_size", 256))
    if kind == "linear":
        return MonotoneProfile.linear(bounds, m)
    t = np.arange(m + 1) / m
    exponent = float(sec.get("exponent", 2.0))
    return MonotoneProfile(values=bounds.theta_left + bounds.width * t**exponent, bounds=bounds)


def cmd_ldp(
    task: str, cfg: dict, out_dir: Path, seed: RandomSeed, workers: int, verbose: bool
) -> int:
    if task not in LDP_TASKS:
        raise ConfigError(f"unknown ldp task '{task}'; choose from {LDP_TASKS}")
    bounds = build_bounds(cfg)
    if bounds.width <= 0:
        raise ConfigError("ldp tasks require theta_left < theta_right")
    sec = _known_table(cfg.get("ldp", {}), _LDP_KEYS, "ldp")
    _known_table(sec.get("solver", {}), _SOLVER_KEYS, "ldp.solver")
    profile_kind, profile_sec = _kind_table(
        sec.get("profile", {}), _profile_kind, _PROFILE_KEYS, "ldp.profile"
    )
    mu_kind, mu_sec = _kind_table(sec.get("mu", {"name": "lln"}), _mu_kind, _MU_KEYS, "ldp.mu")
    g = _ldp_g(cfg)
    run = _Run(f"ldp-{task}", cfg, seed, out_dir)
    name = task.replace("-", "_")
    verdicts: dict = {}
    payload: dict = {}

    if task == "free-energy":
        theta = float(_require(sec, "theta", "ldp"))
        lam_grid = [float(v) for v in _require(sec, "lambda_grid", "ldp")]
        values, _, _ = free_energy(theta, lam_grid, g)
        run.csv(f"{name}_table.csv", ["lambda", "free_energy"], zip(lam_grid, values))
        payload = {"theta": theta}
    elif task == "rate":
        theta = float(_require(sec, "theta", "ldp"))
        x_grid = [float(v) for v in _require(sec, "x_grid", "ldp")]
        values = [rate_function(theta, x, g) for x in x_grid]
        run.csv(f"{name}_table.csv", ["x", "rate"], zip(x_grid, values))
        payload = {"theta": theta}
    elif task == "path-rate":
        profile = _ldp_profile(profile_kind, profile_sec, bounds)
        value = path_rate(profile)
        run.csv(
            f"{name}_table.csv",
            ["grid_x", "theta"],
            zip(profile.abscissae, profile.values),
        )
        payload = {"path_rate": value}
        phi_sec = cfg.get("phi")
        if phi_sec is not None:
            payload["inhom_free_energy"] = inhom_free_energy(profile, build_phi(cfg), g)
    elif task == "annealed":
        result = annealed_free_energy(build_phi(cfg), g, bounds, _ldp_solver(sec))
        payload = {"value": result.value, "start_values": list(result.start_values)}
        verdicts = {
            "at_least_linear_benchmark": bool(
                result.value >= min(result.start_values) - 1e-12
            )
        }
    else:  # profile-rate
        if mu_kind == "lln":
            offset = float(mu_sec.get("offset", 0.0))

            def mu_eval(x, g=g, bounds=bounds, offset=offset):
                return homogeneous_mean_batch(g, bounds.density(x)) + offset

            mu = TestFunction(mu_eval, name="lln-profile")
        else:
            mu = build_phi({"mu": mu_sec}, key="mu")
        result = profile_rate(mu, g, bounds, _ldp_solver(sec))
        payload = {"value": result.value, "start_values": list(result.start_values)}
        verdicts = {"non_negative": bool(result.value >= -1e-9)}
    if task in ("annealed", "profile-rate"):
        run.csv(
            f"{name}_table.csv",
            ["grid_x", "theta"],
            zip(result.profile.abscissae, result.profile.values),
        )

    run.summary(f"{name}_summary.json", verdicts=verdicts, payload=payload)
    run.manifest(f"{name}_manifest.json")
    if verbose:
        print(f"ldp {task}: {payload}")
    failed = any(v is False for v in verdicts.values())
    return EXIT_VERDICT if failed else EXIT_PASS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomix",
        description="Steady-state sampling and limit-theorem verification "
        "for mixtures of geometric product measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, extra in (
        ("sample", None),
        ("verify", ("kind", VERIFY_KINDS)),
        ("ldp", ("task", LDP_TASKS)),
    ):
        p = sub.add_parser(name)
        if extra is not None:
            p.add_argument(extra[0], choices=extra[1])
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--workers", type=int, default=1, help="worker threads")
        p.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        workers = args.workers
        if workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {workers}")
        cfg = load_config(args.config)
        seed = build_seed(cfg, args.seed)
        out_dir = Path(args.out_dir)
        if args.command == "sample":
            return cmd_sample(cfg, out_dir, seed, args.verbose)
        if args.command == "verify":
            return cmd_verify(args.kind, cfg, out_dir, seed, workers, args.verbose)
        return cmd_ldp(args.task, cfg, out_dir, seed, workers, args.verbose)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, NumericError, OptimizationError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
