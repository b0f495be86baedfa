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
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

# each command imports the library modules it runs, when it runs
from geomix.core import (
    _MAX_SITES,
    BoundaryParams,
    LocalFunction,
    Purpose,
    RandomSeed,
    configuration_batch,
    density_function,
    indicator_vacuum_function,
    pair_product_function,
    polynomial_function,
    profile_batch,
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


class _NumericFailure(Exception):
    """A numeric error of the library, raised again by the command that met it."""


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


_REQUIRED = object()  # a key with no default: reading it when absent is a ConfigError


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> bool:
    # a finite double: json reads NaN and Infinity, and an integer can lie
    # beyond the double range
    return (_integer(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


# the JSON type of each leaf key, by the words that name it in an error
_INT, _NUM, _STR = "an integer", "a finite number", "a string"
_INTS, _NUMS = "a list of integers", "a list of finite numbers"
_IS_TYPE = {
    _INT: _integer,
    _NUM: _number,
    _STR: lambda value: isinstance(value, str),
    _INTS: lambda value: isinstance(value, list) and all(map(_integer, value)),
    _NUMS: lambda value: isinstance(value, list) and all(map(_number, value)),
}


@dataclasses.dataclass(frozen=True)
class _Spec:
    """The declaration of one config table.

    ``kinds`` maps each kind of the table (None for a plain table) to its
    keys, and each key to its JSON type, to a (type, default) pair or to
    the ``_Spec`` of a nested table; a key without a default is required,
    and a default of None leaves the value to the library.  A kinded
    table's kind is its value at ``kind_key``, else the kind named by one
    of its keys (a profile given by its values), else ``default_kind``.
    ``absent`` is read when the config leaves the table out; ``each``
    declares a list of such tables.
    """

    kinds: dict
    kind_key: str | None = None
    default_kind: object = _REQUIRED
    absent: object = _REQUIRED
    each: bool = False


def _table(absent=_REQUIRED, each: bool = False, **keys) -> _Spec:
    return _Spec({None: keys}, absent=absent, each=each)


_NAMED_G = {
    "density": density_function,
    "pair-product": pair_product_function,
    "indicator-vacuum": indicator_vacuum_function,
}
_PHI_KINDS = {
    "one": {"name": _STR},
    "x": {"name": _STR},
    "const": {"name": _STR, "value": _NUM},
    "poly": {"name": _STR, "coefficients": _NUMS},
}
_G_KINDS = {
    **{name: {"name": _STR} for name in _NAMED_G},
    "custom-polynomial": {
        "name": _STR,
        "k": _INT,
        "terms": _table(exps=_INTS, coef=_NUM, each=True),
    },
}
_PROFILE_KINDS = {
    "linear": {"kind": (_STR, "linear"), "grid_size": (_INT, 256)},
    "power": {"kind": _STR, "grid_size": (_INT, 256), "exponent": (_NUM, 2.0)},
    "values": {"values": _NUMS},
}
# every table the CLI reads, and each key once
_CONFIG = _table(
    bounds=_table(theta_left=_NUM, theta_right=_NUM),
    seed=_table(master=(_INT, 0), stream=(_INT, 0), absent={}),
    g=_Spec(_G_KINDS, "name"),
    phi=_Spec(_PHI_KINDS, "name"),
    sample=_table(n_sites=_INT),
    lln=_table(n_ladder=_INTS, replicas=_INT),
    clt=_table(n_sites=_INT, replicas=_INT),
    bridge=_table(n_sites=_INT, replicas=_INT, grid=(_NUMS, None)),
    le_scaling=_table(x=_NUM, p_vec=_INTS, n_ladder=_INTS),
    concentration=_table(n_ladder=_INTS, replicas=_INT, eps=(_NUMS, None)),
    ldp=_table(
        theta=_NUM,
        lambda_grid=_NUMS,
        x_grid=_NUMS,
        profile=_Spec(_PROFILE_KINDS, "kind", default_kind="linear", absent={}),
        # the lln profile and an offset, or a test function
        mu=_Spec(
            {"lln": {"name": _STR, "offset": (_NUM, 0.0)}, **_PHI_KINDS},
            "name",
            absent={"name": "lln"},
        ),
        # a solver value left out is ldp.SolverConfig's default
        solver=_table(
            absent={}, max_iterations=(_INT, None), multistart=(_INT, None),
            seed=(_INT, None), grid_size=(_INT, None),
        ),
        absent={},
    ),
)


def _name(where: str) -> str:
    return f"config section '{where}'" if where else "the config"


class _Table(dict):
    """A config table as read: its declared keys, defaults filled in, and
    its kind.  Reading a required key the config leaves out is a ConfigError."""

    def __init__(self, where: str, kind):
        super().__init__()
        self.where = where
        self.kind = kind

    def __missing__(self, key):
        raise ConfigError(f"missing '{key}' in {_name(self.where)}")


def _read(raw, spec: _Spec, where: str):
    """Read a config table, and the tables nested in it, against its
    declaration: refuse every key its kind does not declare and fill in
    the defaults.  One call on the root reads the whole config."""
    if spec.each:
        if not isinstance(raw, list):
            raise ConfigError(f"{_name(where)} must be a list of tables")
        return [_read(item, dataclasses.replace(spec, each=False), where) for item in raw]
    if not isinstance(raw, dict):
        raise ConfigError(f"{_name(where)} must be a table")
    kind = None
    if spec.kind_key is not None:
        named = next((k for k in spec.kinds if k in raw), spec.default_kind)
        kind = raw.get(spec.kind_key, named)
        if kind is _REQUIRED:
            raise ConfigError(f"missing '{spec.kind_key}' in {_name(where)}")
        if not isinstance(kind, str) or kind not in spec.kinds:
            raise ConfigError(
                f"unknown {spec.kind_key} {kind!r} in {_name(where)}; "
                f"choose from {sorted(spec.kinds)}"
            )
    keys = spec.kinds[kind]
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {_name(where)}")
    table = _Table(where, kind)
    for key, decl in keys.items():
        path = f"{where}.{key}" if where else key
        nested = isinstance(decl, _Spec)
        json_type, default = decl if isinstance(decl, tuple) else (decl, _REQUIRED)
        value = raw.get(key, decl.absent if nested else default)
        if value is _REQUIRED:
            continue
        if nested:
            value = _read(value, decl, path)
        elif not (value is None and default is None or _IS_TYPE[json_type](value)):
            raise ConfigError(f"'{path}' must be {json_type}, got {json.dumps(value)}")
        table[key] = value
    return table


def build_bounds(bounds: _Table) -> BoundaryParams:
    return BoundaryParams(float(bounds["theta_left"]), float(bounds["theta_right"]))


def build_seed(seed: _Table, override_master: int | None) -> RandomSeed:
    given = override_master is not None
    master = ("--seed", override_master) if given else ("seed.master", seed["master"])
    for name, value in (master, ("seed.stream", seed["stream"])):
        if not 0 <= value < 2**64:
            raise ConfigError(f"'{name}' must lie in [0, 2**64), got {value}")
    return RandomSeed(master=master[1], stream=seed["stream"])


def build_g(g: _Table) -> LocalFunction:
    if g.kind in _NAMED_G:
        return _NAMED_G[g.kind]()
    monos = {tuple(t["exps"]): t["coef"] for t in g["terms"]}
    return polynomial_function(g["k"], monos, name="custom-polynomial")


def build_phi(phi: _Table):
    from geomix.fields import phi_identity, phi_one, phi_polynomial
    if phi.kind == "one":
        return phi_one()
    if phi.kind == "x":
        return phi_identity()
    if phi.kind == "const":
        return phi_polynomial([phi["value"]])
    return phi_polynomial(phi["coefficients"])


def _format(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


_CSV_CHUNK = 4096  # rows formatted and written at a time


def write_csv(path: Path, digest: str, header: list[str], rows) -> None:
    rows = iter(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# manifest: {digest}\n{','.join(header)}\n")
        while chunk := list(itertools.islice(rows, _CSV_CHUNK)):
            fh.write("\n".join([",".join(map(_format, row)) for row in chunk]) + "\n")


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
    """Collects outputs and writes the manifest at the end.  The output
    directory is made at the first write, so a run that fails before it
    leaves nothing behind."""

    def __init__(self, command: str, cfg: dict, seed: RandomSeed, out_dir: Path):
        self.command = command
        self.cfg = cfg
        self.seed = seed
        self.out_dir = out_dir
        self.digest = config_digest(cfg)
        self.outputs: list[str] = []
        self.started = datetime.datetime.now(datetime.timezone.utc).isoformat()

    def _path(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / name

    def csv(self, name: str, header: list[str], rows) -> None:
        write_csv(self._path(name), self.digest, header, rows)
        self.outputs.append(name)

    def summary(self, name: str, verdicts: dict, payload: dict) -> None:
        write_json(
            self._path(name),
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
        write_json(
            self._path(name),
            {
                "command": self.command,
                "config_digest": self.digest,
                "seed": {"master": self.seed.master, "stream": self.seed.stream},
                "started_at": self.started,
                "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                "outputs": sorted(self.outputs),
            },
        )


def _check_sites(key: str, sites) -> None:
    """Refuse a sampled N above the row limit, naming its key, before any
    row of N sites is allocated."""
    if max(sites, default=0) > _MAX_SITES:
        raise ConfigError(f"'{key}' must not exceed {_MAX_SITES} sites, got {max(sites)}")


def cmd_sample(cfg: _Table, run: _Run, verbose: bool) -> int:
    n_sites = int(cfg["sample"]["n_sites"])
    if n_sites < 1:
        raise ConfigError(f"sample.n_sites must be >= 1, got {n_sites}")
    _check_sites("sample.n_sites", [n_sites])
    bounds = build_bounds(cfg["bounds"])
    thetas = profile_batch(n_sites, bounds, run.seed.generator(Purpose.PROFILES), 1)[0]
    etas = configuration_batch(thetas, run.seed.generator(Purpose.CONFIGURATIONS))
    run.csv("sample_table.csv", ["site", "theta", "eta"], zip(range(1, n_sites + 1), thetas, etas))
    run.summary(
        "sample_summary.json",
        verdicts={"sorted": bool(np.all(np.diff(thetas) >= 0))},
        payload={"n_sites": n_sites},
    )
    run.manifest("sample_manifest.json")
    if verbose:
        print(f"wrote {n_sites} sites to {run.out_dir / 'sample_table.csv'}")
    return EXIT_PASS


def _experiment(cfg, run, workers, n_ladder, replicas, g=None, phi=None):
    """A Monte Carlo run's settings; g and phi are the config's unless given."""
    from geomix.harness import ExperimentConfig
    return ExperimentConfig(
        n_ladder=n_ladder,
        replicas=int(replicas),
        bounds=build_bounds(cfg["bounds"]),
        g=build_g(cfg["g"]) if g is None else g,
        phi=build_phi(cfg["phi"]) if phi is None else phi,
        seed=run.seed,
        workers=workers,
    )


def _verify_lln(cfg, run, workers):
    from geomix.harness import run_lln
    lln = cfg["lln"]
    _check_sites("lln.n_ladder", lln["n_ladder"])
    result = run_lln(_experiment(cfg, run, workers, lln["n_ladder"], lln["replicas"]))
    threshold = result.final_threshold()
    passed = result.decreasing and result.rows[-1][1] < threshold
    run.csv("lln_table.csv", ["n_sites", "mean_abs_deviation", "standard_error"], result.rows)
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


def _verify_clt(cfg, run, workers):
    from geomix.harness import run_clt
    clt = cfg["clt"]
    _check_sites("clt.n_sites", [clt["n_sites"]])
    result = run_clt(_experiment(cfg, run, workers, (clt["n_sites"],), clt["replicas"]))
    passed = result.ks_pass and result.variance_pass
    run.csv("clt_table.csv", ["sample_index", "rescaled_fluctuation"], enumerate(result.samples))
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


def _verify_bridge(cfg, run, workers):
    from geomix.fields import phi_one
    from geomix.harness import run_bridge
    bridge = cfg["bridge"]
    exp = _experiment(
        cfg, run, workers, (bridge["n_sites"],), bridge["replicas"], density_function(), phi_one()
    )
    result = run_bridge(exp, bridge["grid"])
    rows = [
        (s, t, result.empirical[a, b], result.analytic[a, b], result.standard_errors[a, b])
        for a, s in enumerate(result.grid)
        for b, t in enumerate(result.grid)
    ]
    max_dev = result.max_deviation_in_se()
    passed = max_dev <= 3.0
    run.csv(
        "bridge_table.csv",
        ["s", "t", "empirical_covariance", "analytic_covariance", "standard_error"],
        rows,
    )
    return passed, {"within_three_se": passed}, {"max_deviation_in_se": max_dev}


def _verify_le_scaling(cfg, run, workers):
    from geomix.harness import run_le_scaling
    le = cfg["le_scaling"]
    result = run_le_scaling(
        float(le["x"]), le["p_vec"], le["n_ladder"], build_bounds(cfg["bounds"])
    )
    run.csv("le_scaling_table.csv", ["n_sites", "deviation"], result.rows)
    if result.degenerate:
        return True, {"degenerate_equilibrium": True}, {"fit": None}
    fit = result.fit
    slope_ok = -1.15 <= fit.slope <= -0.85
    r2_ok = fit.r_squared > 0.99
    payload = {"fit": {"slope": fit.slope, "intercept": fit.intercept, "r_squared": fit.r_squared}}
    return slope_ok and r2_ok, {"slope_in_band": slope_ok, "r_squared_ok": r2_ok}, payload


def _verify_concentration(cfg, run, workers):
    from geomix.harness import check_profile_marginals, run_concentration
    conc = cfg["concentration"]
    _check_sites("concentration.n_ladder", conc["n_ladder"])
    if conc["eps"] is not None and any(e < 0 for e in conc["eps"]):
        raise ConfigError(f"concentration.eps must be >= 0, got {conc['eps']}")
    bounds = build_bounds(cfg["bounds"])
    replicas = int(conc["replicas"])
    result = run_concentration(
        conc["n_ladder"], bounds, replicas, run.seed, eps_schedule=conc["eps"], workers=workers
    )
    run.csv(
        "concentration_table.csv",
        ["n_sites", "eps", "empirical_tail", "standard_error", "union_bound"],
        result.rows,
    )
    final_tail = result.rows[-1][2]
    passed = result.tail_nonincreasing and final_tail <= 1e-2
    # profile streams: run_concentration draws only count and fill streams
    marginals = check_profile_marginals(
        min(10, result.rows[0][0]), bounds, min(replicas, 10**5), run.seed, workers
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


def cmd_verify(kind: str, cfg: _Table, run: _Run, workers: int, verbose: bool) -> int:
    from geomix.asymptotics import QuadratureError
    try:
        passed, verdicts, payload = _VERIFY_DISPATCH[kind](cfg, run, workers)
    except QuadratureError as exc:
        raise _NumericFailure(exc) from exc
    name = kind.replace("-", "_")
    run.summary(f"{name}_summary.json", verdicts=verdicts, payload=payload)
    run.manifest(f"{name}_manifest.json")
    if verbose:
        for key, value in verdicts.items():
            print(f"{kind}: {key} = {value}")
    print(f"verify {kind}: {'PASS' if passed else 'FAIL'}")
    return EXIT_PASS if passed else EXIT_VERDICT


def _ldp_profile(profile: _Table, bounds: BoundaryParams):
    from geomix.ldp import MonotoneProfile
    if profile.kind == "values":
        return MonotoneProfile(values=np.asarray(profile["values"], dtype=float), bounds=bounds)
    m = int(profile["grid_size"])
    if profile.kind == "linear":
        return MonotoneProfile.linear(bounds, m)
    t = np.arange(m + 1) / m
    exponent = float(profile["exponent"])
    return MonotoneProfile(values=bounds.theta_left + bounds.width * t**exponent, bounds=bounds)


def _ldp_task(task: str, cfg: _Table, run: _Run) -> tuple[dict, dict]:
    """Run one ldp task and write its table; returns (verdicts, payload)."""
    from geomix.asymptotics import homogeneous_mean_batch
    from geomix.fields import TestFunction
    from geomix.ldp import (
        SolverConfig,
        annealed_free_energy,
        free_energy,
        inhom_free_energy,
        path_rate,
        profile_rate,
        rate_function_batch,
    )
    bounds = build_bounds(cfg["bounds"])
    if bounds.width <= 0:
        raise ConfigError("ldp tasks require theta_left < theta_right")
    ldp = cfg["ldp"]
    solver = SolverConfig(**{k: int(v) for k, v in ldp["solver"].items() if v is not None})
    g = build_g(cfg["g"])
    if g.saturation is None:
        raise ConfigError("ldp tasks require a saturating local function g")
    name = task.replace("-", "_")
    verdicts: dict = {}
    payload: dict = {}

    if task == "free-energy":
        theta = float(ldp["theta"])
        lam_grid = [float(v) for v in ldp["lambda_grid"]]
        if not lam_grid:
            raise ConfigError("ldp.lambda_grid must not be empty")
        values, _, _ = free_energy(theta, lam_grid, g)
        run.csv(f"{name}_table.csv", ["lambda", "free_energy"], zip(lam_grid, values))
        payload = {"theta": theta}
    elif task == "rate":
        theta = float(ldp["theta"])
        x_grid = [float(v) for v in ldp["x_grid"]]
        if not x_grid:
            raise ConfigError("ldp.x_grid must not be empty")
        values = rate_function_batch(theta, x_grid, g)
        run.csv(f"{name}_table.csv", ["x", "rate"], zip(x_grid, values))
        payload = {"theta": theta}
    elif task == "path-rate":
        profile = _ldp_profile(ldp["profile"], bounds)
        value = path_rate(profile)
        run.csv(f"{name}_table.csv", ["grid_x", "theta"], zip(profile.abscissae, profile.values))
        payload = {"path_rate": value}
        if "phi" in cfg:
            payload["inhom_free_energy"] = inhom_free_energy(profile, build_phi(cfg["phi"]), g)
    elif task == "annealed":
        result = annealed_free_energy(build_phi(cfg["phi"]), g, bounds, solver)
        payload = {"value": result.value, "start_values": list(result.start_values)}
        linear = min(result.start_values)
        verdicts = {"at_least_linear_benchmark": bool(result.value >= linear - 1e-12)}
    else:  # profile-rate
        mu_table = ldp["mu"]
        if mu_table.kind == "lln":
            offset = float(mu_table["offset"])

            def mu_eval(x, g=g, bounds=bounds, offset=offset):
                return homogeneous_mean_batch(g, bounds.density(x)) + offset

            mu = TestFunction(mu_eval, name="lln-profile")
        else:
            mu = build_phi(mu_table)
        result = profile_rate(mu, g, bounds, solver)
        payload = {"value": result.value, "start_values": list(result.start_values)}
        verdicts = {"non_negative": bool(result.value >= -1e-9)}
    if task in ("annealed", "profile-rate"):
        profile = result.profile
        run.csv(f"{name}_table.csv", ["grid_x", "theta"], zip(profile.abscissae, profile.values))
    return verdicts, payload


def cmd_ldp(task: str, cfg: _Table, run: _Run, workers: int, verbose: bool) -> int:
    from geomix.asymptotics import QuadratureError
    from geomix.ldp import NumericError, OptimizationError
    try:
        verdicts, payload = _ldp_task(task, cfg, run)
    except (QuadratureError, NumericError, OptimizationError) as exc:
        raise _NumericFailure(exc) from exc
    name = task.replace("-", "_")
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
        raw = load_config(args.config)
        cfg = _read(raw, _CONFIG, "")
        seed = build_seed(cfg["seed"], args.seed)
        out_dir = Path(args.out_dir)
        if args.command == "sample":
            return cmd_sample(cfg, _Run("sample", raw, seed, out_dir), args.verbose)
        if args.command == "verify":
            run = _Run(f"verify-{args.kind}", raw, seed, out_dir)
            return cmd_verify(args.kind, cfg, run, workers, args.verbose)
        run = _Run(f"ldp-{args.task}", raw, seed, out_dir)
        return cmd_ldp(args.task, cfg, run, workers, args.verbose)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NumericFailure as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
