"""The benchmark's workloads: generated configs, the CLI ops run on them,
and the deterministic quantities each op is checked against.

Every config is written from the workload seed alone; the program sees
only those files.  The seed becomes the config's master seed, which
drives every Monte Carlo stream.  The LDP ops draw nothing from it: their
solver seed stays 0, because the random multistart profiles change the
solver's iteration count, and so the wall time, by a factor of up to 1.6
from one solver seed to the next, which would hide any real change.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

DEFAULT_SEED = 11  # the master seed of configs/demo.json


@dataclass(frozen=True)
class Op:
    """One ``geomix`` CLI invocation, run in its own child process."""

    name: str
    argv: tuple[str, ...]
    config: str
    workers: int = 1

    @property
    def stem(self) -> str:
        """Output stem: ``<stem>_table.csv`` and ``<stem>_summary.json``."""
        return self.argv[1].replace("-", "_")

    def cli_args(self, config_path: str, out_dir: str) -> list[str]:
        return [*self.argv, "--config", config_path, "--out-dir", out_dir, "--workers", str(self.workers)]


@dataclass(frozen=True)
class Workload:
    configs: dict[str, dict]
    ops: tuple[Op, ...]


def _base(seed: int, g: dict, phi: dict | None = None) -> dict:
    cfg = {
        "bounds": {"theta_left": 0.0, "theta_right": 2.0},
        "seed": {"master": seed, "stream": 0},
        "g": g,
    }
    if phi is not None:
        cfg["phi"] = phi
    return cfg


def mc_sampling(seed: int, workers: int) -> Workload:
    cfg = _base(seed, {"name": "density"}, {"name": "one"})
    cfg["concentration"] = {"n_ladder": [10, 100, 1000, 10000], "replicas": 20000}
    cfg["bridge"] = {"n_sites": 5000, "replicas": 16000, "grid": [0.25, 0.5, 0.75]}
    cfg["lln"] = {"n_ladder": [1000, 10000, 100000], "replicas": 100}
    ops = tuple(
        Op(f"{kind}-w{w}", ("verify", kind), "mc.json", w)
        for kind in ("concentration", "bridge", "lln")
        for w in sorted({1, workers})
    )
    return Workload({"mc.json": cfg}, ops)


def exact_clt(seed: int, workers: int) -> Workload:
    # eta_1 eta_2 + eta_1^2 eta_2: a k=2 polynomial whose exact mean takes
    # one product-moment expansion per window
    g = {
        "name": "custom-polynomial",
        "k": 2,
        "terms": [{"exps": [1, 1], "coef": 1.0}, {"exps": [2, 1], "coef": 1.0}],
    }
    cfg = _base(seed, g, {"name": "one"})
    cfg["clt"] = {"n_sites": 20000, "replicas": 2000}
    cfg["le_scaling"] = {
        "x": 0.5,
        "p_vec": [1],
        "n_ladder": [128, 256, 512, 1024, 2048, 4096, 8192, 16384],
    }
    ops = (
        Op(f"clt-w{workers}", ("verify", "clt"), "clt.json", workers),
        Op("le-scaling", ("verify", "le-scaling"), "clt.json"),
    )
    return Workload({"clt.json": cfg}, ops)


def ldp_solve(seed: int, workers: int) -> Workload:
    g = {"name": "indicator-vacuum"}
    inverse = _base(seed, g)
    inverse["ldp"] = {
        "theta": 1.0,
        "x_grid": [round(0.025 * i, 3) for i in range(1, 40)],
        # offset 0 is degenerate: the linear start is already optimal
        "mu": {"name": "lln", "offset": -0.05},
        "solver": {"multistart": 2, "grid_size": 50, "max_iterations": 3000, "seed": 0},
    }
    forward = _base(seed, g, {"name": "const", "value": 0.2})
    forward["ldp"] = {
        "solver": {"multistart": 4, "grid_size": 1000, "max_iterations": 3000, "seed": 0}
    }
    ops = (
        Op("profile-rate", ("ldp", "profile-rate"), "inverse.json"),
        Op("annealed", ("ldp", "annealed"), "forward.json"),
        Op("rate", ("ldp", "rate"), "inverse.json"),
    )
    return Workload({"inverse.json": inverse, "forward.json": forward}, ops)


WORKLOADS = {"mc-sampling": mc_sampling, "exact-clt": exact_clt, "ldp-solve": ldp_solve}


# Tolerances (relative, absolute) against the values recorded on the
# commit that defined the benchmark.  Closed forms are held to rounding,
# quadrature-based limit objects to their refinement tolerance, rates to
# the 1e-9 that a new Legendre solve may move them, and optimizer values
# to 1e-7: converged starts agree to 1e-13, a different optimum differs by
# far more.
_CLOSED = (1e-10, 1e-14)
_QUADRATURE = (1e-8, 1e-12)
_LEGENDRE = (0.0, 1e-9)
_FIT = (1e-7, 1e-10)
_OPTIMUM = (1e-7, 1e-10)


def _rows(csv_text: str) -> list[list[float]]:
    lines = [ln for ln in csv_text.splitlines() if not ln.startswith("#")]
    return [[float(v) for v in row] for row in list(csv.reader(io.StringIO("\n".join(lines))))[1:]]


def deterministic_quantities(stem: str, summary: dict, csv_text: str) -> dict | None:
    """The seed-independent results of one op, or None for pure Monte Carlo."""
    if stem == "lln":
        return {"limit": summary["limit"], "sigma_total": summary["sigma_total"]}
    if stem == "clt":
        return {"exact_mean": summary["exact_mean"], "target_variance": summary["target_variance"]}
    if stem == "le_scaling":
        return {"rows": _rows(csv_text), "fit": summary["fit"]}
    if stem == "rate":
        return {"rows": _rows(csv_text)}
    if stem in ("annealed", "profile_rate"):
        return {"value": summary["value"]}
    return None


_TOLERANCES = {
    "lln": {"limit": _QUADRATURE, "sigma_total": _QUADRATURE},
    "clt": {"exact_mean": _CLOSED, "target_variance": _QUADRATURE},
    "le_scaling": {"rows": _CLOSED, "fit": _FIT},
    "rate": {"rows": _LEGENDRE},
    "annealed": {"value": _OPTIMUM},
    "profile_rate": {"value": _OPTIMUM},
}


def _compare(got, want, tol, where: str) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got} != {sorted(want)}"]
        return [e for k in want for e in _compare(got[k], want[k], tol, f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs from the reference"]
        return [e for i, (g, w) in enumerate(zip(got, want)) for e in _compare(g, w, tol, f"{where}[{i}]")]
    rtol, atol = tol
    if not isinstance(got, (int, float)) or not math.isfinite(got):
        return [f"{where}: {got!r} is not a finite number"]
    if abs(got - want) > atol + rtol * abs(want):
        return [f"{where}: {got!r} differs from reference {want!r}"]
    return []


def check_reference(stem: str, got: dict, references: dict) -> list[str]:
    """Mismatches of ``got`` against the recorded reference for ``stem``."""
    if stem not in references:
        return [f"{stem}: no recorded reference"]
    want = references[stem]
    tols = _TOLERANCES[stem]
    if set(got) != set(want):
        return [f"{stem}: quantities {sorted(got)} != {sorted(want)}"]
    return [e for key in want for e in _compare(got[key], want[key], tols[key], f"{stem}.{key}")]
