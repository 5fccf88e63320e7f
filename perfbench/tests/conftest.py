"""Self-tests of the benchmark harness (not part of the repo's tier-1 suite).

Run from the repo root: ``python3 -m pytest perfbench/tests -q``.  Everything
runs at ``--smoke`` scale (vgg_tiny@16, 1 s windows).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

WORKLOADS = (
    "engine_dense", "engine_specialized", "serve_poisson", "serve_manytask",
    "serve_process_swap",
)


class Runs:
    """``perfbench run --smoke`` results, one fresh interpreter each, cached."""

    def __init__(self, scratch: Path) -> None:
        self._scratch = scratch
        self._cache = {}

    def get(self, workload: str, traced: bool, attempt: int = 0) -> dict:
        key = (workload, traced, attempt)
        if key not in self._cache:
            context = self._scratch / f"{workload}_{int(traced)}_{attempt}.json"
            done = subprocess.run(
                [sys.executable, "-m", "perfbench", "run", "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(int(traced)), "--smoke",
                 "--context", str(context)],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
            run = json.loads(context.read_text())
            run["last_line"] = json.loads(done.stdout.strip().splitlines()[-1])
            run["stderr"] = done.stderr
            self._cache[key] = run
        return self._cache[key]


@pytest.fixture(scope="session")
def runs(tmp_path_factory) -> Runs:
    return Runs(tmp_path_factory.mktemp("perfbench"))
