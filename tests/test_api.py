import importlib
import inspect
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize(
    "name", ["core", "moments", "fields", "asymptotics", "duality", "ldp", "harness"]
)
def test_module_exports_match_definitions(name):
    # every public function or class a library module defines is exported,
    # and nothing else is
    module = importlib.import_module(f"geomix.{name}")
    defined = {
        attr
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(module.__all__) == sorted(defined)


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
