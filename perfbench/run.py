"""geomix benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload mc-sampling --seed 11 --seconds 40 --trace 0

Run from the repository root.  Each op is one ``python -m geomix.cli``
invocation in its own child process, with ``src`` on ``PYTHONPATH``;
children run one at a time.  A pass runs every op of the workload once,
and passes repeat until ``--seconds`` have gone by.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (the sum over
ops of each op's median wall, from spawn to exit), ``peak_rss_mb`` (the
largest child ``ru_maxrss`` of any untraced op), ``setup_s``
(median wall of a child that only imports ``geomix.cli`` and loads the
configs) and ``ok_share`` (ops that did not fail / ops attempted).  The set-up children run
between the ops of every untraced pass, so a slow period of the machine
reaches them as it reaches the ops.

``--trace 1`` alternates untraced passes with passes whose ops run under
``perfbench/tracing.py`` and reports the per-layer metrics.

Every op's outputs are checked: deterministic quantities against
``perfbench/references.json``, and CSV and summary bytes against every
other run of the same op in this invocation (both worker counts, every
pass, traced or not).  The last line of stdout is one JSON object; the
full result, with machine facts and output hashes, is written to
``.perfbench_runs/<workload>-s<seed>-t<trace>/result.json``.  The exit
code is 1 when a check fails and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Op, check_reference, deterministic_quantities  # noqa: E402

REFERENCES = HERE / "references.json"
SETUP_PER_PASS = 6  # set-up children per untraced pass, spread over its ops
RUN_BUDGET_S = 160.0  # every run must end within 180 s
EXIT_CHECK_FAILED = 1
EXIT_CANNOT_RUN = 2

# What a user of the CLI sees: one child per op; the child's import of
# numpy and geomix is part of every op.
SETUP_SNIPPET = "import sys, geomix.cli as c\nfor p in sys.argv[1:]: c.load_config(p)"

FACTS_SNIPPET = r"""
import ctypes, glob, json, os, platform, sys
import numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*.so*")):
    handle = ctypes.CDLL(lib)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(handle, sym):
            threads = int(getattr(handle, sym)())
            break
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
             "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}},
}))
"""


class CannotRun(Exception):
    """The checkout cannot run the benchmark (no source tree, broken import)."""


@dataclass
class OpRun:
    op: Op
    traced: bool
    returncode: int
    wall_s: float
    rss_mb: float
    hashes: dict = field(default_factory=dict)
    verdict_failed: bool = False
    problems: list = field(default_factory=list)
    trace: dict | None = None  # tracing.summarize() of a traced run


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def _spawn(argv: list[str], env: dict, cwd: Path, stdout, stderr, timeout: float):
    """Run a child to completion; returns (returncode, wall seconds, rusage)."""
    start = time.perf_counter()
    child = subprocess.Popen(argv, env=env, cwd=cwd, stdout=stdout, stderr=stderr)
    killer = threading.Timer(max(timeout, 1.0), child.kill)
    killer.start()
    try:
        # wait4 rather than Popen.wait: it also returns the child's rusage
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        killer.join()
        if child.returncode is None:
            child.kill()
            child.wait()
    return child.returncode, time.perf_counter() - start, usage


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    """One invocation: the generated configs, the child runs and their checks."""

    def __init__(self, root: Path, workload: str, seed: int, trace: bool):
        self.root = root
        self.name = workload
        self.seed = seed
        self.trace = trace
        self.workers = min(2, len(os.sched_getaffinity(0)))
        self.spec = WORKLOADS[workload](seed, self.workers)
        self.dir = root / ".perfbench_runs" / f"{workload}-s{seed}-t{int(trace)}"
        self.env = _env(root)
        self.t0 = time.perf_counter()
        self.references = json.loads(REFERENCES.read_text())
        self.setup_walls: list[float] = []

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.t0)

    def prepare(self) -> None:
        if not (self.root / "src" / "geomix" / "cli.py").is_file():
            raise CannotRun(f"no geomix source tree under {self.root / 'src'}")
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "configs").mkdir(parents=True)
        for name, cfg in self.spec.configs.items():
            (self.dir / "configs" / name).write_text(json.dumps(cfg, indent=2) + "\n")

    def _python(self, args: list[str], log: str, timeout: float = 60.0):
        with open(self.dir / f"{log}.out", "wb") as out, open(self.dir / f"{log}.err", "wb") as err:
            return _spawn([sys.executable, *args], self.env, self.root, out, err, timeout)

    def machine_facts(self) -> dict:
        # also the untimed warm-up: the first import compiles bytecode
        rc, _, _ = self._python(["-c", FACTS_SNIPPET + "\nimport geomix.cli"], "facts")
        if rc != 0:
            raise CannotRun(f"python cannot import numpy and geomix.cli; see {self.dir / 'facts.err'}")
        facts = json.loads((self.dir / "facts.out").read_text())
        facts.update(
            nproc=len(os.sched_getaffinity(0)),
            cpu_model=_cpu_model(),
            caches=_caches(),
            git_commit=_git_commit(self.root),
            src_sha256=_tree_digest(self.root / "src"),
            workload=self.name,
            seed=self.seed,
            workers=self.workers,
        )
        return facts

    def time_setup(self, repeats: int) -> None:
        configs = sorted(str(p) for p in (self.dir / "configs").iterdir())
        for _ in range(repeats):
            rc, wall, _ = self._python(["-c", SETUP_SNIPPET, *configs], "setup")
            if rc != 0:
                raise CannotRun(f"setup child failed; see {self.dir / 'setup.err'}")
            self.setup_walls.append(wall)

    def run_op(self, op: Op, traced: bool) -> OpRun:
        out_dir = self.dir / "out" / op.name
        shutil.rmtree(out_dir, ignore_errors=True)
        cli_args = op.cli_args(str(self.dir / "configs" / op.config), str(out_dir))
        spans_path = self.dir / f"spans-{op.name}.json"
        spans_path.unlink(missing_ok=True)
        if traced:
            argv = [str(HERE / "tracing.py"), str(spans_path), *cli_args]
        else:
            argv = ["-m", "geomix.cli", *cli_args]
        log = f"op-{op.name}{'-traced' if traced else ''}"
        rc, wall, usage = self._python(argv, log, timeout=self.remaining())
        run = OpRun(op, traced, rc, wall, usage.ru_maxrss / 1024.0)
        self._check(run, out_dir, (self.dir / f"{log}.err").read_text(errors="replace"))
        if traced and spans_path.exists():
            spans = json.loads(spans_path.read_text())["spans"]
            run.trace = tracing.summarize(spans, op.workers)
        return run

    def _check(self, run: OpRun, out_dir: Path, stderr: str) -> None:
        stem = run.op.stem
        csv_path, summary_path = out_dir / f"{stem}_table.csv", out_dir / f"{stem}_summary.json"
        # an uncaught exception also exits 1, like a failed verdict
        crashed = "Traceback (most recent call last)" in stderr
        if crashed or run.returncode not in (0, 1):
            run.problems.append(f"exit {run.returncode}: {stderr.strip().splitlines()[-1:]}")
            return
        if not (csv_path.is_file() and summary_path.is_file()):
            run.problems.append("missing CSV or summary output")
            return
        run.hashes = {"csv": _sha256(csv_path), "summary": _sha256(summary_path)}
        if run.returncode == 1:
            run.verdict_failed = True
            if self.seed == DEFAULT_SEED:
                # every verdict passes on the demo seed; elsewhere a failed
                # verdict is a statistical outcome, not a failed op
                run.problems.append("verdict failed on the default seed")
        got = deterministic_quantities(stem, json.loads(summary_path.read_text()), csv_path.read_text())
        if got is not None:
            run.problems.extend(check_reference(stem, got, self.references))

    def run_pass(self, traced: bool) -> list[OpRun]:
        """Run every op once; an untraced pass also times SETUP_PER_PASS
        set-up children, as evenly as it can before each op."""
        runs = []
        ops = self.spec.ops
        for i, op in enumerate(ops):
            if not traced:
                self.time_setup(SETUP_PER_PASS * (i + 1) // len(ops) - SETUP_PER_PASS * i // len(ops))
            runs.append(self.run_op(op, traced))
        return runs


def check_identity(runs: list[OpRun]) -> None:
    """Runs of one op kind must produce identical CSV and summary bytes."""
    first: dict[str, dict] = {}
    for run in runs:
        if not run.hashes:
            continue
        want = first.setdefault(run.op.stem, run.hashes)
        if run.hashes != want:
            run.problems.append(f"output bytes differ from the first {run.op.stem} run")


def pass_wall(runs: list[OpRun]) -> float:
    return sum(r.wall_s for r in runs)


def per_op_median_wall(passes: list[list[OpRun]]) -> list[float]:
    """Median wall over passes, for each op of the workload."""
    return [statistics.median(p[i].wall_s for p in passes) for i in range(len(passes[0]))]


def speedup_2w(runs: list[OpRun]) -> float:
    """Summed 1-worker wall over summed 2-worker wall, over the ops run at
    both worker counts; 0 when the workload has no such pair."""
    one = [r for r in runs if r.op.workers == 1]
    two = [r for r in runs if r.op.workers > 1]
    paired = {r.op.stem for r in one} & {r.op.stem for r in two}
    if not paired:
        return 0.0
    return sum(r.wall_s for r in one if r.op.stem in paired) / sum(
        r.wall_s for r in two if r.op.stem in paired
    )


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _caches() -> dict:
    """Cache sizes per instance, as CPU 0 sees them."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}" + ("d" if kind == "Data" else "")] = size
    return out


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _tree_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(bench: Bench, seconds: int):
    """Run passes for ``seconds``: at least one, and no further pass once
    the longest pass so far would end after the deadline.  Returns
    (untraced, traced) passes; traced mode alternates the two kinds."""
    untraced: list[list[OpRun]] = []
    traced: list[list[OpRun]] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t = time.perf_counter()
        untraced.append(bench.run_pass(False))
        if bench.trace:
            traced.append(bench.run_pass(True))
        longest = max(longest, time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if elapsed + longest > seconds or bench.remaining() < 1.5 * longest:
            return untraced, traced


LAYER_UNITS = {
    "calls": "count", "draws": "count", "windows": "count", "nodes": "count",
    "bytes": "bytes", "mdraws_per_s": "Mdraws/s", "computed_mb": "MB-computed",
    "pool_busy_share": "fraction", "speedup_2w": "ratio", "spans": "count",
}


def _layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    bench = Bench(HERE.parent, args.workload, args.seed, bool(args.trace))
    try:
        bench.prepare()
        facts = bench.machine_facts()
        untraced, traced = measure(bench, args.seconds)
    except CannotRun as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return EXIT_CANNOT_RUN
    setup_s = statistics.median(bench.setup_walls)
    all_runs = [r for p in untraced + traced for r in p]
    check_identity(all_runs)
    failed = [r for r in all_runs if r.problems]
    attempted = len(all_runs)

    print(f"# {args.workload} seed={args.seed} workers<= {bench.workers} passes={len(untraced)} "
          f"python={facts['python']} numpy={facts['numpy']} blas={facts['blas']['name']} "
          f"{facts['blas']['version']} threads={facts['blas']['threads']} nproc={facts['nproc']} "
          f"cpu={facts['cpu_model']!r} caches={facts['caches']} commit={facts['git_commit']}")
    for r in all_runs:
        state = "FAILED " + "; ".join(r.problems) if r.problems else ("verdict-fail" if r.verdict_failed else "ok")
        print(f"  {r.op.name:<18}{' traced' if r.traced else '':<8} exit={r.returncode} "
              f"wall={r.wall_s:.3f} s rss={r.rss_mb:.1f} MB csv={r.hashes.get('csv', '-')} "
              f"summary={r.hashes.get('summary', '-')} {state}")

    metrics: dict[str, dict] = {}
    if not bench.trace:
        metrics["wall_s"] = _metric(sum(per_op_median_wall(untraced)), "s")
        metrics["peak_rss_mb"] = _metric(max(r.rss_mb for p in untraced for r in p), "MB")
        metrics["setup_s"] = _metric(setup_s, "s")
        metrics["ok_share"] = _metric((attempted - len(failed)) / attempted, "fraction")
        print(f"  error_rate = {len(failed) / attempted} fraction ({len(failed)} of {attempted} ops failed)")
    else:
        per_pass = []
        for u, t in zip(untraced, traced):
            layer = tracing.layer_metrics([r.trace for r in t if r.trace])
            layer["harness.speedup_2w"] = speedup_2w(u)
            layer["trace.overhead_s"] = pass_wall(t) - pass_wall(u)
            per_pass.append(layer)
        for name in per_pass[0]:
            value = statistics.median(layer[name] for layer in per_pass)
            metrics[name] = _metric(value, _layer_unit(name))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")

    correct = not failed
    result = {"correct": correct, "attempted": attempted, "failed": len(failed), "metrics": metrics}
    (bench.dir / "result.json").write_text(json.dumps({
        **result,
        "facts": facts,
        "setup_walls_s": bench.setup_walls,
        "passes": [[{"op": r.op.name, "traced": r.traced, "exit": r.returncode, "wall_s": r.wall_s,
                     "rss_mb": r.rss_mb, "hashes": r.hashes, "problems": r.problems}
                    for r in p] for p in untraced + traced],
    }, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
