"""Host fingerprint and memory high-water marks."""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import subprocess
from pathlib import Path
from typing import Dict

#: The BLAS/OpenMP pools are pinned to one thread before NumPy loads (see
#: ``__main__``): unpinned, two shard workers on two cores oversubscribe and
#: throughput collapses by 20-60x, run to run — scheduler thrash, not program
#: behaviour.  The pin is part of the fingerprint.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Fingerprint fields two results must share before their numbers compare.
COMPARABLE = ("cpu_model", "nproc", "python", "numpy", "blas", "threads")


def pin_threads() -> None:
    for name in THREAD_ENV:
        os.environ[name] = "1"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha(root: Path) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint(root: Path, seed: int) -> Dict[str, object]:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
        "git_sha": _git_sha(root),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """High-water resident memory of this process plus its live children, in MB.

    Children are the serving workers ``multiprocessing`` started; their marks
    are read from ``/proc`` while they are still alive, so call this before
    the runtime stops.
    """
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0
