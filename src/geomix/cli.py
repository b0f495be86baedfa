"""Batch front end: config parsing, experiment dispatch, file outputs.

A run reads one JSON config file (key-value with nested tables), executes
one experiment, and writes three files into the output directory: a CSV
table (one row per ladder point or grid pair), a JSON summary with the
config echo and verdicts, and a JSON manifest with timestamps.  The CSV
and summary are byte-deterministic for a given config and seed, for any
worker count; every output embeds a digest of the canonicalized config.

Exit codes, all decided in :func:`main`: 0 every verdict holds, 1 some
verdict is False, 2 a config error, 3 a ``geomix.core.NumericError``.
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
    NumericError,
    Purpose,
    RandomSeed,
    configuration_batch,
    density_function,
    indicator_vacuum_function,
    pair_product_function,
    polynomial_function,
    profile_batch,
)

__all__ = ["main", "COMMANDS", "ConfigError", "load_config", "config_digest"]

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
    """One command's outputs, all named from its stem: the table a runner
    writes, then the summary and the manifest that :func:`main` writes.
    Entered, it makes the output directory before the command runs, so an
    unusable ``--out-dir`` is refused before any work; left by an error, it
    removes the directories it made, with what the run wrote there."""

    def __init__(self, key: tuple, cfg: dict, seed: RandomSeed, out_dir: Path):
        self.command = "-".join(filter(None, key))
        self.stem = (key[1] or key[0]).replace("-", "_")
        self.cfg = cfg
        self.seed = seed
        self.out_dir = out_dir
        self.digest = config_digest(cfg)
        self.outputs: list[str] = []
        self.started = datetime.datetime.now(datetime.timezone.utc).isoformat()

    def __enter__(self) -> _Run:
        self.made = [p for p in (self.out_dir, *self.out_dir.parents) if not p.exists()]
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out-dir {self.out_dir}: {exc.strerror or exc}") from None
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None and self.made:
            import shutil  # only a failed run needs it
            shutil.rmtree(self.made[-1])

    def _path(self, part: str) -> Path:
        self.outputs.append(f"{self.stem}_{part}")
        return self.out_dir / self.outputs[-1]

    def table(self, header: list[str], rows) -> None:
        write_csv(self._path("table.csv"), self.digest, header, rows)

    def close(self, verdicts: dict, payload: dict) -> None:
        """Write the summary, then the manifest that lists every output."""
        head = {
            "command": self.command,
            "config_digest": self.digest,
            "seed": {"master": self.seed.master, "stream": self.seed.stream},
        }
        write_json(
            self._path("summary.json"),
            {**head, "config": self.cfg, "verdicts": verdicts, **payload},
        )
        manifest = {
            **head,
            "started_at": self.started,
            "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "outputs": sorted(self.outputs),
        }
        write_json(self._path("manifest.json"), manifest)


def _check_sites(key: str, sites) -> None:
    """Refuse a sampled N above the row limit, naming its key, before any
    row of N sites is allocated."""
    if max(sites, default=0) > _MAX_SITES:
        raise ConfigError(f"'{key}' must not exceed {_MAX_SITES} sites, got {max(sites)}")


# Each runner below writes its command's table and returns (verdicts,
# payload); COMMANDS at the end keys them by (command, kind).


def _sample(cfg: _Table, run: _Run, workers: int):
    n_sites = int(cfg["sample"]["n_sites"])
    if n_sites < 1:
        raise ConfigError(f"sample.n_sites must be >= 1, got {n_sites}")
    _check_sites("sample.n_sites", [n_sites])
    bounds = build_bounds(cfg["bounds"])
    thetas = profile_batch(n_sites, bounds, run.seed.generator(Purpose.PROFILES), 1)[0]
    etas = configuration_batch(thetas, run.seed.generator(Purpose.CONFIGURATIONS))
    run.table(["site", "theta", "eta"], zip(range(1, n_sites + 1), thetas, etas))
    return {"sorted": bool(np.all(np.diff(thetas) >= 0))}, {"n_sites": n_sites}


def _experiment(cfg, run, workers, n_ladder, replicas):
    """A Monte Carlo run's settings, with the config's g and phi."""
    from geomix.harness import ExperimentConfig
    return ExperimentConfig(
        n_ladder=n_ladder, replicas=int(replicas), bounds=build_bounds(cfg["bounds"]),
        g=build_g(cfg["g"]), phi=build_phi(cfg["phi"]), seed=run.seed, workers=workers,
    )


def _verify_lln(cfg, run, workers):
    from geomix.harness import run_lln
    lln = cfg["lln"]
    _check_sites("lln.n_ladder", lln["n_ladder"])
    result = run_lln(_experiment(cfg, run, workers, lln["n_ladder"], lln["replicas"]))
    threshold = result.final_threshold()
    run.table(["n_sites", "mean_abs_deviation", "standard_error"], result.rows)
    verdicts = {
        "deviation_decreasing": result.decreasing,
        "final_below_clt_band": bool(result.rows[-1][1] < threshold),
    }
    payload = {
        "limit": result.limit,
        "sigma_total": result.sigma_total,
        "final_threshold": threshold,
    }
    return verdicts, payload


def _verify_clt(cfg, run, workers):
    from geomix.harness import run_clt
    clt = cfg["clt"]
    _check_sites("clt.n_sites", [clt["n_sites"]])
    result = run_clt(_experiment(cfg, run, workers, (clt["n_sites"],), clt["replicas"]))
    run.table(["sample_index", "rescaled_fluctuation"], enumerate(result.samples))
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
    return verdicts, payload


def _verify_bridge(cfg, run, workers):
    from geomix.harness import run_bridge
    bridge = cfg["bridge"]
    result = run_bridge(
        bridge["n_sites"], build_bounds(cfg["bounds"]), bridge["replicas"], run.seed,
        bridge["grid"], workers,
    )
    rows = [
        (s, t, result.empirical[a, b], result.analytic[a, b], result.standard_errors[a, b])
        for a, s in enumerate(result.grid)
        for b, t in enumerate(result.grid)
    ]
    max_dev = result.max_deviation_in_se()
    run.table(["s", "t", "empirical_covariance", "analytic_covariance", "standard_error"], rows)
    return {"within_three_se": max_dev <= 3.0}, {"max_deviation_in_se": max_dev}


def _verify_le_scaling(cfg, run, workers):
    from geomix.harness import run_le_scaling
    le = cfg["le_scaling"]
    result = run_le_scaling(
        float(le["x"]), le["p_vec"], le["n_ladder"], build_bounds(cfg["bounds"])
    )
    run.table(["n_sites", "deviation"], result.rows)
    if result.degenerate:
        return {"degenerate_equilibrium": True}, {"fit": None}
    fit = result.fit
    verdicts = {"slope_in_band": -1.15 <= fit.slope <= -0.85, "r_squared_ok": fit.r_squared > 0.99}
    payload = {"fit": {"slope": fit.slope, "intercept": fit.intercept, "r_squared": fit.r_squared}}
    return verdicts, payload


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
    run.table(
        ["n_sites", "eps", "empirical_tail", "standard_error", "union_bound"], result.rows
    )
    final_tail = result.rows[-1][2]
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
    verdicts = {
        "tail_nonincreasing": result.tail_nonincreasing,
        "final_tail_small": final_tail <= 1e-2,
    }
    return verdicts, payload


def _ldp_inputs(cfg: _Table):
    """The bounds, ldp table, solver settings and g of every ldp task,
    checked in that order."""
    from geomix.ldp import SolverConfig
    bounds = build_bounds(cfg["bounds"])
    if bounds.width <= 0:
        raise ConfigError("ldp tasks require theta_left < theta_right")
    ldp = cfg["ldp"]
    solver = SolverConfig(**{k: int(v) for k, v in ldp["solver"].items() if v is not None})
    g = build_g(cfg["g"])
    if g.saturation is None:
        raise ConfigError("ldp tasks require a saturating local function g")
    return bounds, ldp, solver, g


def _profile_table(run: _Run, profile) -> None:
    run.table(["grid_x", "theta"], zip(profile.abscissae, profile.values))


def _ldp_free_energy(cfg, run, workers):
    from geomix.ldp import free_energy
    _, ldp, _, g = _ldp_inputs(cfg)
    theta = float(ldp["theta"])
    lam_grid = [float(v) for v in ldp["lambda_grid"]]
    if not lam_grid:
        raise ConfigError("ldp.lambda_grid must not be empty")
    values, _, _ = free_energy(theta, lam_grid, g)
    run.table(["lambda", "free_energy"], zip(lam_grid, values))
    return {}, {"theta": theta}


def _ldp_rate(cfg, run, workers):
    from geomix.ldp import rate_function_batch
    _, ldp, _, g = _ldp_inputs(cfg)
    theta = float(ldp["theta"])
    x_grid = [float(v) for v in ldp["x_grid"]]
    if not x_grid:
        raise ConfigError("ldp.x_grid must not be empty")
    run.table(["x", "rate"], zip(x_grid, rate_function_batch(theta, x_grid, g)))
    return {}, {"theta": theta}


def _ldp_path_rate(cfg, run, workers):
    from geomix.ldp import MonotoneProfile, inhom_free_energy, path_rate
    bounds, ldp, _, g = _ldp_inputs(cfg)
    table = ldp["profile"]
    if table.kind == "values":
        profile = MonotoneProfile(values=np.asarray(table["values"], dtype=float), bounds=bounds)
    elif table.kind == "linear":
        profile = MonotoneProfile.linear(bounds, int(table["grid_size"]))
    else:  # power
        t = np.arange(table["grid_size"] + 1) / table["grid_size"]
        values = bounds.theta_left + bounds.width * t ** float(table["exponent"])
        profile = MonotoneProfile(values=values, bounds=bounds)
    payload = {"path_rate": path_rate(profile)}
    _profile_table(run, profile)
    if "phi" in cfg:
        payload["inhom_free_energy"] = inhom_free_energy(profile, build_phi(cfg["phi"]), g)
    return {}, payload


def _ldp_annealed(cfg, run, workers):
    from geomix.ldp import annealed_free_energy
    bounds, _, solver, g = _ldp_inputs(cfg)
    result = annealed_free_energy(build_phi(cfg["phi"]), g, bounds, solver)
    _profile_table(run, result.profile)
    verdicts = {"at_least_linear_benchmark": bool(result.value >= min(result.start_values) - 1e-12)}
    return verdicts, {"value": result.value, "start_values": list(result.start_values)}


def _ldp_profile_rate(cfg, run, workers):
    from geomix.asymptotics import homogeneous_mean_batch
    from geomix.fields import TestFunction
    from geomix.ldp import profile_rate
    bounds, ldp, solver, g = _ldp_inputs(cfg)
    mu_table = ldp["mu"]
    if mu_table.kind == "lln":
        offset = float(mu_table["offset"])

        def mu_eval(x, g=g, bounds=bounds, offset=offset):
            return homogeneous_mean_batch(g, bounds.density(x)) + offset

        mu = TestFunction(mu_eval, name="lln-profile")
    else:
        mu = build_phi(mu_table)
    result = profile_rate(mu, g, bounds, solver)
    _profile_table(run, result.profile)
    verdicts = {"non_negative": bool(result.value >= -1e-9)}
    return verdicts, {"value": result.value, "start_values": list(result.start_values)}


# every command line, (command, kind), and its runner; the parser offers
# exactly these
COMMANDS = {
    ("sample", None): _sample,
    ("verify", "lln"): _verify_lln,
    ("verify", "clt"): _verify_clt,
    ("verify", "bridge"): _verify_bridge,
    ("verify", "le-scaling"): _verify_le_scaling,
    ("verify", "concentration"): _verify_concentration,
    ("ldp", "free-energy"): _ldp_free_energy,
    ("ldp", "rate"): _ldp_rate,
    ("ldp", "path-rate"): _ldp_path_rate,
    ("ldp", "annealed"): _ldp_annealed,
    ("ldp", "profile-rate"): _ldp_profile_rate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomix",
        description="Steady-state sampling and limit-theorem verification "
        "for mixtures of geometric product measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in dict.fromkeys(command for command, _ in COMMANDS):
        p = sub.add_parser(command)
        kinds = [kind for c, kind in COMMANDS if c == command and kind is not None]
        if kinds:
            p.add_argument("kind", choices=kinds)
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--workers", type=int, default=1, help="worker threads")
        p.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command: its runner writes the table, then the summary and
    the manifest are written and one ``<command> <kind>: PASS|FAIL`` line
    printed.  Exit 1 exactly when some verdict is False; every config
    error exits 2, and every ``NumericError`` of the library 3."""
    args = _build_parser().parse_args(argv)
    key = (args.command, getattr(args, "kind", None))
    label = " ".join(filter(None, key))
    try:
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        raw = load_config(args.config)
        cfg = _read(raw, _CONFIG, "")
        with _Run(key, raw, build_seed(cfg["seed"], args.seed), Path(args.out_dir)) as run:
            verdicts, payload = COMMANDS[key](cfg, run, args.workers)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    run.close(verdicts, payload)
    if args.verbose:
        for name, value in {**verdicts, **payload}.items():
            print(f"{label}: {name} = {value}")
    passed = all(verdicts.values())
    print(f"{label}: {'PASS' if passed else 'FAIL'}")
    return EXIT_PASS if passed else EXIT_VERDICT


if __name__ == "__main__":
    sys.exit(main())
