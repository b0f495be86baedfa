import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _defined(module, is_kind) -> set[str]:
    """The public names of ``module`` bound to objects of a kind that it defines."""
    return {
        attr
        for attr, obj in vars(module).items()
        if not attr.startswith("_") and is_kind(obj) and obj.__module__ == module.__name__
    }


@pytest.mark.parametrize(
    "name", ["core", "moments", "fields", "asymptotics", "duality", "ldp", "harness"]
)
def test_module_exports_match_definitions(name):
    # every public function or class a library module defines is exported,
    # and nothing else is
    module = importlib.import_module(f"geomix.{name}")
    defined = _defined(module, lambda obj: inspect.isfunction(obj) or inspect.isclass(obj))
    assert sorted(module.__all__) == sorted(defined)


def test_benchmark_metric_names_reach_public_functions():
    # each three-part per-layer metric layer.function.stat reads the spans
    # of a public function; one that names a deleted function would read a
    # constant 0.  harness.run and cli.write sum the run_* and write_*
    # functions of their layer.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    triples = [parts for m in spec["per_layer"] if len(parts := m["name"].split(".")) == 3]
    assert triples
    for layer, function, _ in triples:
        # the functions a span trace wraps
        public = _defined(importlib.import_module(f"geomix.{layer}"), inspect.isfunction)
        if (layer, function) in (("harness", "run"), ("cli", "write")):
            assert any(f.startswith(f"{function}_") for f in public), f"{layer}.{function}_*"
        else:
            assert function in public, f"{layer}.{function}"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_config_block_runs(tmp_path):
    # the README's config is accepted as written: verify reads its own
    # section, and an ldp task (on the bounded g the ldp tasks require)
    # accepts every key of its ldp table
    from geomix.cli import EXIT_PASS, main

    block = re.search(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    cfg = json.loads(block.group(1))
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "out")
    assert main(["verify", "le-scaling", "--config", str(path), "--out-dir", out]) == EXIT_PASS
    cfg["g"] = {"name": "indicator-vacuum"}
    path.write_text(json.dumps(cfg))
    assert main(["ldp", "free-energy", "--config", str(path), "--out-dir", out]) == EXIT_PASS


def test_readme_config_keys_match_the_cli():
    # every table of the README config shows exactly the keys the CLI
    # declares for it (for its kind, in a kinded table)
    from geomix import cli

    def check(raw, spec, where):
        table = cli._read(raw, spec, where)
        keys = spec.kinds[table.kind]
        assert sorted(raw) == sorted(keys), where or "root"
        for key, decl in keys.items():
            if isinstance(decl, cli._Spec):
                check(raw[key], decl, f"{where}.{key}" if where else key)

    block = re.search(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    check(json.loads(block.group(1)), cli._CONFIG, "")
