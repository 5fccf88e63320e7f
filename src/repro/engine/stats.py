"""Measured-sparsity bookkeeping for the inference engine.

Every masked kernel reports the zero fraction it actually produced for each
micro-batch.  The recorder aggregates those measurements per (task, layer) and
exports them in the two forms the hardware model consumes:

* a :class:`~repro.hardware.scenario.LayerSparsityProfile` built from the
  *measured* zero fractions (instead of the paper's static Table II), and
* the processed request order as a list of
  :class:`~repro.hardware.scenario.InferencePass` entries, which is exactly
  the schedule the systolic-array simulator charges parameter reloads against.

This is the bridge that lets energy/throughput estimates be driven by real
engine runs: ``simulator.run(shapes, recorder.schedule(), recorder.to_profile(),
mime_config())``.
"""

from __future__ import annotations

import threading
from typing import Dict, List

import numpy as np

from repro.hardware.scenario import InferencePass, LayerSparsityProfile
from repro.utils.ratios import fraction_saved


class SparsityRecorder:
    """Accumulates per-(task, layer) achieved sparsity, weighted by images.

    Recording is guarded by a lock so the serving runtime's worker threads
    can share one recorder: read-modify-write accumulation would otherwise
    race between concurrent micro-batches.

    ``channel_tracking=True`` additionally accumulates **per-channel** live
    counts from every masked kernel (the hook the kernels feed is only
    exposed when tracking is on, so the per-channel reduction costs nothing
    otherwise).  The accumulated counts export as a live
    :class:`~repro.engine.calibrate.CalibrationProfile` via
    :meth:`survival_profile` — the signal the online recalibration loop
    watches for drift against the profile a model was specialized from.
    """

    def __init__(self, channel_tracking: bool = False) -> None:
        self._totals: Dict[str, Dict[str, float]] = {}
        self._counts: Dict[str, Dict[str, int]] = {}
        self._passes: List[InferencePass] = []
        self._dense_macs = 0
        self._effective_macs = 0
        self._channel_counts: Dict[str, Dict[str, object]] = {}
        self._channel_slots: Dict[str, Dict[str, int]] = {}
        self._variants: Dict[str, Dict[str, int]] = {}
        self._lock = threading.Lock()
        self.channel_tracking = channel_tracking
        if channel_tracking:
            # The masked kernels look this attribute up with getattr, so the
            # per-channel accumulation only happens when it is exposed.
            self.record_channels = self._record_channels

    # ------------------------------------------------------------- recording --
    def record(self, task: str, layer_name: str, sparsity: float, num_images: int) -> None:
        """Add one micro-batch's measured sparsity for ``layer_name``."""
        if not 0.0 <= sparsity <= 1.0:
            raise ValueError(f"sparsity {sparsity} outside [0, 1]")
        if num_images <= 0:
            raise ValueError("num_images must be positive")
        with self._lock:
            totals = self._totals.setdefault(task, {})
            counts = self._counts.setdefault(task, {})
            totals[layer_name] = totals.get(layer_name, 0.0) + sparsity * num_images
            counts[layer_name] = counts.get(layer_name, 0) + num_images

    def record_pass(self, task: str, num_images: int) -> None:
        """Append ``num_images`` schedule slots for ``task`` in processed order."""
        with self._lock:
            self._passes.extend(InferencePass(task) for _ in range(num_images))

    def record_macs(self, dense_macs: int, effective_macs: int) -> None:
        """Add one run's dense-baseline and actually-executed MAC counts.

        ``dense_macs`` is what an unspecialized dense plan would have executed
        for the same images; ``effective_macs`` is what the (possibly
        specialized, possibly dynamically compacted) plan really did.
        """
        if dense_macs < 0 or effective_macs < 0:
            raise ValueError("MAC counts must be non-negative")
        with self._lock:
            self._dense_macs += int(dense_macs)
            self._effective_macs += int(effective_macs)

    def record_variant(self, variant: str, macs: int, nbytes: int) -> None:
        """Add one kernel call's *physical* work under its executed variant.

        The kernels feed this hook (discovered with ``getattr``, so recorder
        ducks without it pay nothing) once per call with the MACs the
        variant physically executed and a modelled bytes-touched figure — see
        :func:`repro.engine.kernels.record_variant_traffic` for why these
        differ from the semantic :meth:`record_macs` totals.
        """
        if macs < 0 or nbytes < 0:
            raise ValueError("variant totals must be non-negative")
        with self._lock:
            entry = self._variants.setdefault(variant, {"calls": 0, "macs": 0, "bytes": 0})
            entry["calls"] += 1
            entry["macs"] += int(macs)
            entry["bytes"] += int(nbytes)

    def _record_channels(
        self, task: str, layer_name: str, live_counts, num_slots: int
    ) -> None:
        """Add one micro-batch's per-channel live-slot counts (tracking on).

        A hot-swap can change a layer's compacted channel width mid-window
        (re-specialization keeps a different live set); counts measured on
        the old geometry are meaningless against the new one, so a width
        change restarts that layer's accumulation instead of summing
        incompatible axes.
        """
        with self._lock:
            counts = self._channel_counts.setdefault(task, {})
            slots = self._channel_slots.setdefault(task, {})
            live = np.asarray(live_counts, dtype=np.int64)
            if layer_name in counts and counts[layer_name].shape == live.shape:
                counts[layer_name] = counts[layer_name] + live
                slots[layer_name] += int(num_slots)
            else:
                counts[layer_name] = live.copy()
                slots[layer_name] = int(num_slots)

    def reset(self) -> None:
        with self._lock:
            self._totals.clear()
            self._counts.clear()
            self._passes.clear()
            self._dense_macs = 0
            self._effective_macs = 0
            self._channel_counts.clear()
            self._channel_slots.clear()
            self._variants.clear()

    # ----------------------------------------------------- cross-process merge --
    def snapshot(self) -> Dict[str, object]:
        """Plain-data copy of every accumulator, safe to pickle across processes.

        The sharded serving runtime's worker processes each keep a private
        recorder and ship its snapshot back at shutdown; the parent folds them
        into one recorder with :meth:`merge_snapshot`, so
        ``hardware_report``/``mac_totals`` cover the whole process fleet.
        """
        with self._lock:
            return {
                "totals": {task: dict(layers) for task, layers in self._totals.items()},
                "counts": {task: dict(layers) for task, layers in self._counts.items()},
                "passes": [entry.task for entry in self._passes],
                "dense_macs": self._dense_macs,
                "effective_macs": self._effective_macs,
                "channel_counts": {
                    task: {name: np.array(counts) for name, counts in layers.items()}
                    for task, layers in self._channel_counts.items()
                },
                "channel_slots": {
                    task: dict(layers) for task, layers in self._channel_slots.items()
                },
                "variants": {name: dict(entry) for name, entry in self._variants.items()},
            }

    def merge_snapshot(self, snapshot: Dict[str, object]) -> None:
        """Fold another recorder's :meth:`snapshot` into this one.

        Sparsity totals and MAC counts add exactly; the schedule is
        concatenated, which preserves per-worker processing order (each worker
        is one accelerator pipeline — the same convention the thread runtime's
        per-worker task-switch accounting uses).
        """
        with self._lock:
            for task, layers in snapshot["totals"].items():
                totals = self._totals.setdefault(task, {})
                for name, value in layers.items():
                    totals[name] = totals.get(name, 0.0) + value
            for task, layers in snapshot["counts"].items():
                counts = self._counts.setdefault(task, {})
                for name, value in layers.items():
                    counts[name] = counts.get(name, 0) + value
            self._passes.extend(InferencePass(task) for task in snapshot["passes"])
            self._dense_macs += int(snapshot["dense_macs"])
            self._effective_macs += int(snapshot["effective_macs"])
            replaced = set()
            for task, layers in snapshot.get("channel_counts", {}).items():
                counts = self._channel_counts.setdefault(task, {})
                for name, value in layers.items():
                    value = np.asarray(value, dtype=np.int64)
                    if name in counts and counts[name].shape == value.shape:
                        counts[name] = counts[name] + value
                    else:
                        # Width changed across a swap: keep the newer geometry
                        # (the matching slot total is replaced below, too).
                        counts[name] = value.copy()
                        replaced.add((task, name))
            for task, layers in snapshot.get("channel_slots", {}).items():
                slots = self._channel_slots.setdefault(task, {})
                for name, value in layers.items():
                    if (task, name) in replaced:
                        slots[name] = int(value)
                    else:
                        slots[name] = slots.get(name, 0) + int(value)
            for name, entry in snapshot.get("variants", {}).items():
                totals = self._variants.setdefault(name, {"calls": 0, "macs": 0, "bytes": 0})
                for key in ("calls", "macs", "bytes"):
                    totals[key] += int(entry.get(key, 0))

    # --------------------------------------------------------------- queries --
    def tasks(self) -> List[str]:
        with self._lock:
            return list(self._totals)

    def num_images(self) -> int:
        with self._lock:
            return len(self._passes)

    def per_layer(self, task: str) -> Dict[str, float]:
        """Mean measured sparsity per layer for ``task``."""
        with self._lock:
            if task not in self._totals:
                raise KeyError(f"no measurements recorded for task '{task}'")
            totals, counts = self._totals[task], self._counts[task]
            return {name: totals[name] / counts[name] for name in totals}

    def mac_totals(self) -> tuple[int, int]:
        """``(dense, effective)`` MAC totals recorded so far."""
        with self._lock:
            return self._dense_macs, self._effective_macs

    def mac_reduction(self) -> float:
        """Fraction of dense MACs avoided across all recorded runs."""
        dense, effective = self.mac_totals()
        return fraction_saved(dense, effective)

    def variant_totals(self) -> Dict[str, Dict[str, int]]:
        """Physical work per executed kernel variant: calls, MACs, bytes.

        Keys are variant names (``blocked``, ``direct``, ``int8``,
        ``dense``, ``dynamic`` for the row-gather fast path, and ``pool``);
        values carry what each variant actually executed — the
        observability face of the per-layer kernel chooser.  ``direct``
        reports its per-tap full-plane GEMMs, more MACs than the blocked
        lowering of the same layer.
        """
        with self._lock:
            return {name: dict(entry) for name, entry in self._variants.items()}

    def mean_sparsity(self, task: str) -> float:
        per_layer = self.per_layer(task)
        if not per_layer:
            return 0.0
        return sum(per_layer.values()) / len(per_layer)

    def survival_profile(self):
        """Per-channel survival measured on live traffic, as a calibration profile.

        Requires ``channel_tracking=True`` at construction (otherwise the
        kernels never fed the per-channel accumulators).  The returned
        :class:`~repro.engine.calibrate.CalibrationProfile` is directly
        comparable to — and substitutable for — an offline
        :func:`~repro.engine.calibrate.calibrate_plan` profile, which is how
        the online recalibration loop re-specializes from what traffic
        actually looks like.
        """
        from repro.engine.calibrate import CalibrationProfile

        if not self.channel_tracking:
            raise RuntimeError(
                "survival_profile() needs a recorder built with channel_tracking=True"
            )
        with self._lock:
            survival = {
                task: {
                    name: np.asarray(counts, dtype=float)
                    / max(1, self._channel_slots[task][name])
                    for name, counts in layers.items()
                }
                for task, layers in self._channel_counts.items()
            }
            num_images = {}
            for entry in self._passes:
                num_images[entry.task] = num_images.get(entry.task, 0) + 1
        return CalibrationProfile(survival=survival, num_images=num_images)

    # --------------------------------------------------------- hardware glue --
    def to_profile(self, default_sparsity: float = 0.0) -> LayerSparsityProfile:
        """Export the measurements as a simulator-ready sparsity profile.

        Layers the engine never masked (e.g. the task head) fall back to
        ``default_sparsity``, matching :class:`LayerSparsityProfile` semantics.
        """
        return LayerSparsityProfile(
            per_task={task: self.per_layer(task) for task in self.tasks()},
            default_sparsity=default_sparsity,
        )

    def schedule(self) -> List[InferencePass]:
        """The processed image order, one :class:`InferencePass` per image."""
        with self._lock:
            return list(self._passes)
