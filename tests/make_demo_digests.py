"""sha256 digests of the demo outputs: the CSV tables and summaries that the
11 CLI commands write from ``configs/demo.json`` (``sample`` and every
``verify`` kind) and ``configs/demo_ldp.json`` (every ``ldp`` task), at
``--workers`` 1 and 2.  Manifests are left out: they carry timestamps.

    PYTHONPATH=src python tests/make_demo_digests.py

rewrites ``tests/demo_digests.json``, which ``test_demo_digests`` checks a
fresh run against.  A change that moves demo bytes reruns this script, so
the diff of that file lists exactly the moved outputs.  The digests depend
on numpy's float kernels, so the file records the numpy and Python versions
they were made with.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from geomix.cli import COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "demo_digests.json"
WORKERS = (1, 2)


def demo_commands() -> list[tuple[str, list[str], Path]]:
    """(name, command words, config) of each command of ``geomix.cli.COMMANDS``."""
    demo, demo_ldp = ROOT / "configs" / "demo.json", ROOT / "configs" / "demo_ldp.json"
    return [
        ("-".join(words), words, demo_ldp if words[0] == "ldp" else demo)
        for words in ([word for word in key if word] for key in COMMANDS)
    ]


def demo_digests(out_root: Path) -> dict[str, str]:
    """Run every demo command at each worker count below ``out_root`` and
    return the digest of each CSV and summary, keyed
    ``w<workers>/<command>/<file>``."""
    digests = {}
    for workers in WORKERS:
        for name, words, config in demo_commands():
            out = out_root / f"w{workers}" / name
            argv = [*words, "--config", str(config), "--out-dir", str(out), "--workers", str(workers)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            if code not in (0, 1):
                raise RuntimeError(f"{' '.join(argv)} exited {code}")
            for path in sorted(out.iterdir()):
                if path.suffix == ".csv" or path.name.endswith("_summary.json"):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    digests[f"w{workers}/{name}/{path.name}"] = digest
    return digests


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "python": platform.python_version()}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files = demo_digests(Path(tmp))
    DIGESTS.write_text(json.dumps({**versions(), "files": files}, indent=2) + "\n")
    print(f"wrote {len(files)} digests to {DIGESTS}", file=sys.stderr)
