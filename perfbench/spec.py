"""The benchmark's declaration, read from ``BENCHMARK.json`` at the repo root.

``BENCHMARK.json`` is the single place that names the workloads, the
end-to-end metrics with their regression bounds, and the per-layer metrics;
this module loads it and adds what its fixed schema has no room for: which
per-layer counts must repeat exactly for a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Per-layer counts that are a function of (seed, commit) alone — not of
#: timing, window length or chooser picks — and must repeat exactly.
EXACT_ALWAYS = frozenset({
    "engine.stats.dense_macs_per_image",
    "engine.specialize.mac_reduction",
    "serving.base.planset_shared_bytes",
    "serving.base.per_task_bytes",
    "serving.metrics.report_mismatch",
    "perfbench.replay_mismatch",
    "perfbench.batch_recovery_gap",
})
#: Exact on the engine workloads only: there the schedule is the harness's
#: own, while a serving runtime forms batches by timing.
EXACT_ENGINE = frozenset({
    "engine.kernels.calls_per_image",
    "engine.engine.micro_batches_per_job",
    "engine.engine.task_switches_per_job",
    "engine.stats.effective_macs_per_image",
})


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: Optional[float] = None  # end-to-end metrics only


@dataclass(frozen=True)
class Declaration:
    run_seconds: int
    workloads: Dict[str, str]  # name -> why
    end_to_end: List[Metric]
    per_layer: List[Metric]

    def metrics(self, traced: bool) -> List[Metric]:
        return self.per_layer if traced else self.end_to_end


def load() -> Declaration:
    raw = json.loads((ROOT / "BENCHMARK.json").read_text())
    return Declaration(
        run_seconds=raw["run_seconds"],
        workloads={entry["name"]: entry["why"] for entry in raw["workloads"]},
        end_to_end=[Metric(**entry) for entry in raw["end_to_end"]],
        per_layer=[Metric(**entry) for entry in raw["per_layer"]],
    )
