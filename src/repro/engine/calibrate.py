"""Per-task calibration of a compiled plan's channel survival statistics.

The paper's thesis is that per-task threshold masks prune *structurally*:
whole output channels of a layer die for one child task while staying alive
for another.  :func:`calibrate_plan` measures exactly that — it runs a seeded
batch per task through an existing :class:`~repro.engine.plan.EnginePlan` and
records, for every masked layer, the fraction of (image, position) slots in
which each output channel survived its threshold.  The resulting
:class:`CalibrationProfile` is the input to
:func:`repro.engine.specialize.specialize_plan`, which drops the channels the
profile proves dead.

Two producers exist for the same profile format:

* :func:`calibrate_plan` — measured on the compiled inference plan itself
  (the authoritative source: it sees exactly the kernels that will serve);
* :func:`profile_from_network` — exported from the *training* network's
  threshold masks via :func:`repro.mime.sparsity.measure_channel_survival`,
  for deployments that calibrate before compiling.

Profiles serialise to JSON (:meth:`CalibrationProfile.save` /
:meth:`CalibrationProfile.load`) so a calibration run can ship alongside the
trained parameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.engine.kernels import WorkspacePool


class ChannelSurvivalRecorder:
    """Recorder that captures per-channel survival counts from masked kernels.

    Quacks like a :class:`~repro.engine.stats.SparsityRecorder` for the
    ``record`` call every masked kernel makes, and additionally exposes
    ``record_channels`` — the hook the kernels feed with per-channel live-slot
    counts.  Calibration is a single-threaded offline pass, so no locking.
    """

    def __init__(self) -> None:
        self._counts: Dict[str, Dict[str, np.ndarray]] = {}
        self._slots: Dict[str, Dict[str, int]] = {}
        self._images: Dict[str, int] = {}
        self._first_layer: Dict[str, str] = {}
        self._ranges: Dict[str, Dict[str, float]] = {}

    # -- kernel-facing hooks -------------------------------------------------
    def record(self, task: str, layer_name: str, sparsity: float, num_images: int) -> None:
        # Every masked layer reports once per batch; count the batch's images
        # only when the first masked layer of the pass reports them.
        first = self._first_layer.setdefault(task, layer_name)
        if layer_name == first:
            self._images[task] = self._images.get(task, 0) + num_images

    def record_channels(
        self, task: str, layer_name: str, live_counts: np.ndarray, num_slots: int
    ) -> None:
        """Add one micro-batch's per-channel live-slot counts for ``layer_name``."""
        counts = self._counts.setdefault(task, {})
        slots = self._slots.setdefault(task, {})
        if layer_name in counts:
            counts[layer_name] = counts[layer_name] + np.asarray(live_counts, dtype=np.int64)
            slots[layer_name] += int(num_slots)
        else:
            counts[layer_name] = np.asarray(live_counts, dtype=np.int64).copy()
            slots[layer_name] = int(num_slots)

    def record_range(self, task: str, kernel_name: str, absmax: float) -> None:
        """Track the peak input activation magnitude seen by a GEMM kernel.

        The GEMM kernels feed this hook (discovered with ``getattr``, so
        serving recorders that do not expose it pay nothing) with
        ``abs(x).max()`` of every batch they run; the accumulated per-task
        maxima become :attr:`CalibrationProfile.ranges` — the activation
        scales of the int8 variant (:func:`repro.engine.kernels.
        quantize_gemm`).
        """
        ranges = self._ranges.setdefault(task, {})
        ranges[kernel_name] = max(ranges.get(kernel_name, 0.0), float(absmax))

    # -- export --------------------------------------------------------------
    def to_profile(self) -> "CalibrationProfile":
        survival = {
            task: {
                layer: self._counts[task][layer] / max(1, self._slots[task][layer])
                for layer in self._counts[task]
            }
            for task in self._counts
        }
        return CalibrationProfile(
            survival=survival,
            num_images=dict(self._images),
            ranges={task: dict(ranges) for task, ranges in self._ranges.items()},
        )


@dataclass
class CalibrationProfile:
    """Per-task, per-layer channel survival rates measured by calibration.

    ``survival[task][layer]`` is a float array with one entry per output
    channel (convolution) or feature (fully-connected), each the fraction of
    calibration slots in which that channel survived the task's threshold.
    0.0 means the channel never fired for this task — a *dead channel* the
    specializer may remove.
    """

    survival: Dict[str, Dict[str, np.ndarray]] = field(default_factory=dict)
    num_images: Dict[str, int] = field(default_factory=dict)
    #: ``ranges[task][kernel_name]`` — peak |activation| entering each GEMM
    #: kernel during calibration; the input scales of the engine's int8
    #: variant.  Empty for profiles produced before range recording existed
    #: (and for :func:`profile_from_network`, which never runs the kernels).
    ranges: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def tasks(self) -> List[str]:
        return list(self.survival)

    def layers(self, task: str) -> List[str]:
        return list(self._task(task))

    def rates(self, task: str, layer: str) -> np.ndarray:
        layers = self._task(task)
        if layer not in layers:
            raise KeyError(f"no calibration for layer '{layer}' of task '{task}'")
        return layers[layer]

    def live_mask(self, task: str, layer: str, dead_threshold: float = 0.0) -> np.ndarray:
        """Boolean per-channel mask: True where survival exceeds the threshold."""
        if not 0.0 <= dead_threshold < 1.0:
            raise ValueError("dead_threshold must lie in [0, 1)")
        return self.rates(task, layer) > dead_threshold

    def dead_channels(self, task: str, layer: str, dead_threshold: float = 0.0) -> int:
        return int(np.count_nonzero(~self.live_mask(task, layer, dead_threshold)))

    def _task(self, task: str) -> Dict[str, np.ndarray]:
        if task not in self.survival:
            raise KeyError(
                f"no calibration recorded for task '{task}'; calibrated: {self.tasks()}"
            )
        return self.survival[task]

    # -- serialisation -------------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "survival": {
                task: {layer: np.asarray(rates, dtype=float).tolist() for layer, rates in layers.items()}
                for task, layers in self.survival.items()
            },
            "num_images": self.num_images,
        }
        if self.ranges:
            payload["ranges"] = {
                task: {name: float(value) for name, value in ranges.items()}
                for task, ranges in self.ranges.items()
            }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CalibrationProfile":
        payload = json.loads(text)
        return cls(
            survival={
                task: {layer: np.asarray(rates, dtype=float) for layer, rates in layers.items()}
                for task, layers in payload["survival"].items()
            },
            num_images={task: int(n) for task, n in payload.get("num_images", {}).items()},
            ranges={
                task: {name: float(value) for name, value in ranges.items()}
                for task, ranges in payload.get("ranges", {}).items()
            },
        )

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "CalibrationProfile":
        return cls.from_json(Path(path).read_text())


def calibrate_plan(
    plan,
    tasks: Optional[Sequence[str]] = None,
    batch_size: int = 32,
    seed: int = 0,
    images: Optional[Dict[str, np.ndarray]] = None,
) -> CalibrationProfile:
    """Run one calibration batch per task through ``plan``; measure survival.

    ``images`` maps task name to an NCHW batch; tasks without an entry (or
    all tasks when omitted) get a seeded standard-normal batch of
    ``batch_size`` images, so calibration is reproducible by construction.
    The pass runs on a private workspace pool dropped on return, so the
    calibration batch's scratch never stays resident in the calling thread's
    pool, and it records nothing into serving statistics.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    names = list(tasks) if tasks is not None else plan.task_names()
    if not names:
        raise ValueError("the plan has no tasks to calibrate")
    recorder = ChannelSurvivalRecorder()
    rng = np.random.default_rng(seed)
    pool = WorkspacePool()
    for name in names:
        if images is not None and name in images:
            batch = np.asarray(images[name])
        else:
            batch = rng.normal(size=(batch_size,) + tuple(plan.input_shape))
        plan.run(batch, name, recorder=recorder, workspaces=pool)
    return recorder.to_profile()


def profile_from_network(
    network,
    images: Dict[str, np.ndarray] | np.ndarray,
    tasks: Optional[Sequence[str]] = None,
) -> CalibrationProfile:
    """Build a :class:`CalibrationProfile` from the *training* network's masks.

    The mime-side export path: runs ``network.forward`` per task and reads
    per-channel survival off the threshold masks
    (:func:`repro.mime.sparsity.measure_channel_survival`).  ``images`` is
    either one batch shared by every task or a per-task mapping.
    """
    from repro.mime.sparsity import measure_channel_survival

    names = list(tasks) if tasks is not None else network.task_names()
    if not names:
        raise ValueError("the network has no registered tasks")
    survival: Dict[str, Dict[str, np.ndarray]] = {}
    num_images: Dict[str, int] = {}
    for name in names:
        batch = images[name] if isinstance(images, dict) else images
        batch = np.asarray(batch)
        survival[name] = measure_channel_survival(network, batch, task=name)
        num_images[name] = int(batch.shape[0])
    return CalibrationProfile(survival=survival, num_images=num_images)
