"""Span tracing of one geomix CLI run, installed from outside the package.

Run as a script, this file stands in for ``python -m geomix.cli``:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json verify clt --config c.json

Before the CLI starts, every public function of every geomix module is
wrapped, and the wrapper is bound at each module attribute that holds the
original, which is the name a caller looks up: ``geomix.harness`` calls
``geomix.harness.profile_batch``, so that binding is wrapped, not only
``geomix.core.profile_batch``.  Underscore names are never wrapped, so
private helpers can be merged or renamed without breaking the trace.

Spans stay in memory and are written as JSON when the CLI returns.  A span
opened in a thread-pool worker takes the innermost open ``harness`` span
of the main thread as its parent.

The benchmark (``perfbench/run.py``) reduces each span file with
:func:`summarize` and turns a pass's summaries into per-layer metrics with
:func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from pathlib import Path

LAYERS = ("core", "moments", "fields", "asymptotics", "duality", "ldp", "harness", "cli")

# One row per span: [name, start, end, parent index or -1, opened in the
# main thread, work count or 0].
NAME, START, END, PARENT, MAIN, WORK = range(6)


def _count(x) -> int:
    size = getattr(x, "size", None)
    if size is not None:
        return int(size)
    try:
        return len(x)
    except TypeError:
        return 1


def _draws_profile(a) -> int:
    return int(a["n_sites"]) * int(a["size"])


def _draws_configuration(a) -> int:
    return _count(a["thetas"])


def _windows_field(a) -> int:
    shape = getattr(a["occupations"], "shape", ())
    if not shape:
        return 0
    rows = shape[0] if len(shape) == 2 else 1
    return rows * max(int(shape[-1]) - a["g"].k + 1, 0)


def _windows_exact(a) -> int:
    return max(int(a["n_sites"]) - a["g"].k + 1, 0)


def _nodes(a) -> int:
    return _count(a["rhos"])


def _bytes_written(a) -> int:
    return Path(a["path"]).stat().st_size


# Work counted at the call boundary, from the call's own arguments (the
# written file for the writers).
WORK_COUNTERS = {
    "core.profile_batch": _draws_profile,
    "core.configuration_batch": _draws_configuration,
    "fields.field_values_batch": _windows_field,
    "harness.exact_field_mean": _windows_exact,
    "asymptotics.homogeneous_mean_batch": _nodes,
    "asymptotics.local_variance_batch": _nodes,
    "cli.write_csv": _bytes_written,
    "cli.write_json": _bytes_written,
}


class Tracer:
    """Collects spans in memory; safe to call from pool threads.

    While running, a span's parent slot holds the parent span itself;
    :meth:`rows` turns it into an index.  ``list.append`` is atomic, so
    recording needs no lock.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[list] = []

    def _pool_parent(self):
        # the main thread is blocked in the pool while workers run, so its
        # stack is stable here
        for span in reversed(self._main_stack):
            if span[NAME].startswith("harness."):
                return span
        return self._main_stack[-1] if self._main_stack else None

    def _thread_stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counter = WORK_COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        record, main_stack, main_ident = self.spans.append, self._main_stack, self._main_ident
        clock, get_ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            is_main = get_ident() == main_ident
            stack = main_stack if is_main else self._thread_stack()
            parent = stack[-1] if stack else (None if is_main else self._pool_parent())
            span = [name, 0.0, 0.0, parent, is_main, 0]
            record(span)
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[WORK] = counter(bound.arguments)
            return result

        return traced

    def rows(self) -> list[list]:
        """Spans with the parent replaced by its index (-1 for a root)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            [n, t0, t1, -1 if parent is None else index[id(parent)], main, work]
            for n, t0, t1, parent, main, work in self.spans
        ]


def install(tracer: Tracer) -> None:
    """Wrap every public geomix function at every module attribute bound
    to it, under the name ``layer.function``."""
    modules = {layer: importlib.import_module(f"geomix.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    for module in [importlib.import_module("geomix"), *modules.values()]:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _fn_metrics(acc: dict, fn: str, metrics: dict, work_key: str | None = None) -> None:
    calls, busy, work = acc.get(fn, (0, 0.0, 0))
    metrics[f"{fn}.calls"] = calls
    metrics[f"{fn}.busy_s"] = busy
    if work_key:
        metrics[f"{fn}.{work_key}"] = work


def summarize(spans: list[list], workers: int) -> dict:
    """Totals of one traced op, small enough to keep after the spans are
    dropped: per function ``[calls, busy_s, work]``, per layer self time,
    and the pool's busy time and capacity (workers x wall of the outermost
    harness spans) when the op ran with more than one worker."""
    functions: dict[str, list] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    pool_busy = pool_capacity = 0.0
    children: dict[int, list[int]] = {}
    for idx, span in enumerate(spans):
        children.setdefault(span[PARENT], []).append(idx)
    for idx, span in enumerate(spans):
        name, dur = span[NAME], span[END] - span[START]
        totals = functions.setdefault(name, [0, 0.0, 0])
        totals[0] += 1
        totals[1] += dur
        totals[2] += span[WORK]
        kids = [(spans[c][START], spans[c][END]) for c in children.get(idx, ())]
        self_s[name.split(".")[0]] += dur - _union_length(kids, span[START], span[END])
        parent = spans[span[PARENT]] if span[PARENT] >= 0 else None
        if workers < 2:
            continue
        if not span[MAIN]:
            if parent is None or parent[MAIN]:
                pool_busy += dur
        elif name.startswith("harness.") and (
            parent is None or not parent[NAME].startswith("harness.")
        ):
            pool_capacity += workers * dur
    return {
        "functions": functions,
        "self_s": self_s,
        "pool_busy": pool_busy,
        "pool_capacity": pool_capacity,
        "spans": len(spans),
    }


def layer_metrics(summaries: list[dict]) -> dict:
    """Per-layer metrics over the :func:`summarize` totals of one pass.

    ``harness.speedup_2w`` and ``trace.overhead_s`` are added by the
    caller, which owns the untraced walls.
    """
    acc: dict[str, tuple[int, float, int]] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    for summary in summaries:
        for name, (calls, busy, work) in summary["functions"].items():
            c, b, w = acc.get(name, (0, 0, 0))
            acc[name] = (c + calls, b + busy, w + work)
        for layer, value in summary["self_s"].items():
            self_s[layer] += value
    pool_busy = sum(s["pool_busy"] for s in summaries)
    pool_capacity = sum(s["pool_capacity"] for s in summaries)

    m: dict[str, float] = {}
    for fn in ("core.profile_batch", "core.configuration_batch"):
        _fn_metrics(acc, fn, m, "draws")
        busy, draws = m[f"{fn}.busy_s"], m[f"{fn}.draws"]
        m[f"{fn}.mdraws_per_s"] = draws / busy / 1e6 if busy > 0 else 0.0
    # profile_batch allocates one float64 per draw; configuration_batch a
    # float64 uniform and an int64 count per draw
    m["core.computed_mb"] = (
        8 * m["core.profile_batch.draws"] + 16 * m["core.configuration_batch.draws"]
    ) / 1e6
    _fn_metrics(acc, "fields.field_values_batch", m, "windows")
    _fn_metrics(acc, "moments.theta_product_moment", m)
    _fn_metrics(acc, "harness.exact_field_mean", m, "windows")
    for fn in ("asymptotics.lln_limit", "asymptotics.clt_variances"):
        m[f"{fn}.busy_s"] = acc.get(fn, (0, 0.0, 0))[1]
    for fn in ("asymptotics.homogeneous_mean_batch", "asymptotics.local_variance_batch"):
        _fn_metrics(acc, fn, m, "nodes")
    _fn_metrics(acc, "duality.le_deviation", m)
    for fn in ("ldp.profile_rate", "ldp.annealed_free_energy"):
        m[f"{fn}.busy_s"] = acc.get(fn, (0, 0.0, 0))[1]
    _fn_metrics(acc, "ldp.rate_function", m)
    m["harness.run.busy_s"] = sum((v[1] for k, v in acc.items() if k.startswith("harness.run_")), 0.0)
    m["harness.pool_busy_share"] = pool_busy / pool_capacity if pool_capacity > 0 else 0.0
    writes = [acc.get(fn, (0, 0.0, 0)) for fn in ("cli.write_csv", "cli.write_json")]
    m["cli.write.calls"] = sum(w[0] for w in writes)
    m["cli.write.busy_s"] = sum(w[1] for w in writes)
    m["cli.write.bytes"] = sum(w[2] for w in writes)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    m["trace.spans"] = sum(s["spans"] for s in summaries)
    return m


def main(argv: list[str]) -> int:
    out_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("geomix.cli")
    try:
        return cli.main(cli_args)
    finally:
        out_path.write_text(json.dumps({"spans": tracer.rows()}), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
