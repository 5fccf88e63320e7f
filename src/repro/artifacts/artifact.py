"""The on-disk model bundle: one directory, one servable model version.

Layout of a saved artifact (all paths relative to the artifact directory)::

    manifest.json           schema version, model metadata, content hashes
    plan.pkl                dense PlanSpec (pickle — carries float tensors)
    specialized/<task>.pkl  per-task specialized PlanSpecs (optional)
    calibration.json        CalibrationProfile the specializations came from
    weights.npz             flat training-side state (backbone + per-task
                            thresholds/heads), for retraining/recalibration

The manifest is written last, so a directory with a readable, hash-consistent
manifest is a complete artifact by construction; :meth:`ModelArtifact.verify`
re-hashes every payload file against the manifest and refuses artifacts whose
bytes drifted.  Plans travel as :class:`~repro.engine.PlanSpec` (the same
picklable transport the process-sharded serving backend ships to its
workers), so ``load`` + :meth:`ModelArtifact.build_plans` reconstructs plans
that produce **bit-identical** logits to the ones that were saved — in this
process or in a freshly spawned one.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.engine.calibrate import CalibrationProfile
from repro.engine.plan import EnginePlan
from repro.engine.planspec import PlanSpec
from repro.utils.serialization import load_state_dict, save_state_dict

__all__ = [
    "ArtifactError",
    "ArtifactIntegrityError",
    "MANIFEST_NAME",
    "SCHEMA_VERSION",
    "ModelArtifact",
]

#: Manifest schema version this module writes and the newest it can read.
SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"
_PLAN_FILE = "plan.pkl"
_CALIBRATION_FILE = "calibration.json"
_WEIGHTS_FILE = "weights.npz"
_SPECIALIZED_DIR = "specialized"


class ArtifactError(RuntimeError):
    """A model artifact could not be saved, loaded or understood."""


class ArtifactIntegrityError(ArtifactError):
    """An artifact's bytes do not match its manifest hashes."""


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _network_state(network) -> Dict[str, np.ndarray]:
    """Flatten a MimeNetwork's deployable state into one ``{name: array}`` map.

    Keys mirror the paper's artefact set: ``backbone.<param>`` for
    ``W_parent`` and ``task.<name>.<param>`` for each child's thresholds and
    head, so the pieces can be restored independently with the existing
    ``state_dict``/``load_state_dict`` machinery.
    """
    state: Dict[str, np.ndarray] = {}
    for key, value in network.backbone.state_dict().items():
        state[f"backbone.{key}"] = value
    for name in network.task_names():
        for key, value in network.registry.get(name).state_dict().items():
            state[f"task.{name}.{key}"] = value
    return state


@dataclass
class ModelArtifact:
    """One servable model version: plans, calibration, weights, manifest.

    ``plan_spec``/``specialized_specs`` are the executable payload —
    :meth:`build_plans` turns them into a dense :class:`EnginePlan` plus the
    per-task specialized dict every serving backend accepts.  ``calibration``
    is the survival profile the specializations were derived from (the
    recalibration loop's drift baseline), and ``weights`` the training-side
    state for offline retraining.  ``metadata`` is free-form provenance
    (model family, source traffic, creation time) surfaced in the manifest.
    """

    name: str
    plan_spec: PlanSpec
    specialized_specs: Dict[str, PlanSpec] = field(default_factory=dict)
    calibration: Optional[CalibrationProfile] = None
    weights: Dict[str, np.ndarray] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    # ------------------------------------------------------------- capture --
    @classmethod
    def from_plans(
        cls,
        name: str,
        plan: EnginePlan,
        specialized: Optional[Dict[str, EnginePlan]] = None,
        calibration: Optional[CalibrationProfile] = None,
        network=None,
        metadata: Optional[Dict[str, object]] = None,
    ) -> "ModelArtifact":
        """Snapshot live plans (and optionally the training network) to a bundle."""
        specs = {
            task: PlanSpec.from_plan(spec) for task, spec in (specialized or {}).items()
        }
        for task in specs:
            if task not in plan.tasks:
                raise ArtifactError(f"specialized plan for unknown task '{task}'")
        return cls(
            name=name,
            plan_spec=PlanSpec.from_plan(plan),
            specialized_specs=specs,
            calibration=calibration,
            weights=_network_state(network) if network is not None else {},
            metadata=dict(metadata) if metadata else {},
        )

    # --------------------------------------------------------------- build --
    def build_plans(self) -> Tuple[EnginePlan, Dict[str, EnginePlan]]:
        """Reconstruct the executable ``(dense plan, specialized dict)`` pair.

        Rebuilt plans have fresh kernels sharing no arrays with the source
        (the :class:`~repro.engine.PlanSpec` contract), and produce
        bit-identical logits to the plans that were captured.
        """
        plan = self.plan_spec.build()
        specialized = {task: spec.build() for task, spec in self.specialized_specs.items()}
        return plan, specialized

    def task_names(self) -> list:
        return list(self.plan_spec.tasks)

    @property
    def input_shape(self) -> Tuple[int, int, int]:
        return tuple(self.plan_spec.input_shape)

    @property
    def dtype(self) -> str:
        return self.plan_spec.dtype

    # ---------------------------------------------------------------- save --
    def save(self, directory: str | Path) -> Path:
        """Write the bundle under ``directory`` (created if missing).

        Payload files land first, the manifest (with their hashes) last —
        a crash mid-save leaves a directory without a consistent manifest,
        which ``load``/``verify`` reject, never a silently-wrong artifact.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        files: Dict[str, Dict[str, object]] = {}

        def _register(relative: str) -> None:
            path = directory / relative
            files[relative] = {"sha256": _sha256(path), "bytes": path.stat().st_size}

        with (directory / _PLAN_FILE).open("wb") as stream:
            pickle.dump(self.plan_spec, stream)
        _register(_PLAN_FILE)
        if self.specialized_specs:
            (directory / _SPECIALIZED_DIR).mkdir(exist_ok=True)
            for task, spec in self.specialized_specs.items():
                relative = f"{_SPECIALIZED_DIR}/{task}.pkl"
                with (directory / relative).open("wb") as stream:
                    pickle.dump(spec, stream)
                _register(relative)
        if self.calibration is not None:
            (directory / _CALIBRATION_FILE).write_text(self.calibration.to_json())
            _register(_CALIBRATION_FILE)
        if self.weights:
            save_state_dict(self.weights, directory / _WEIGHTS_FILE)
            _register(_WEIGHTS_FILE)

        manifest = {
            "schema_version": self.schema_version,
            "name": self.name,
            "tasks": self.task_names(),
            "specialized_tasks": sorted(self.specialized_specs),
            "input_shape": list(self.input_shape),
            "dtype": self.dtype,
            "metadata": self.metadata,
            "files": files,
        }
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True))
        return directory

    # ---------------------------------------------------------------- load --
    @staticmethod
    def read_manifest(directory: str | Path) -> Dict[str, object]:
        """Parse and schema-check the manifest without loading payloads."""
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.is_file():
            raise ArtifactError(f"no {MANIFEST_NAME} under {directory} — not an artifact")
        try:
            manifest = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as error:
            raise ArtifactError(f"unreadable manifest in {directory}: {error}") from error
        version = manifest.get("schema_version")
        if not isinstance(version, int) or version < 1 or version > SCHEMA_VERSION:
            raise ArtifactError(
                f"artifact schema version {version!r} unsupported "
                f"(this build reads 1..{SCHEMA_VERSION})"
            )
        return manifest

    @classmethod
    def verify(cls, directory: str | Path) -> Dict[str, object]:
        """Re-hash every payload file against the manifest; return the manifest.

        Raises :class:`ArtifactIntegrityError` on any missing or altered file,
        so a truncated copy or a bit-flipped tensor can never be served.
        """
        directory = Path(directory)
        manifest = cls.read_manifest(directory)
        for relative, entry in manifest.get("files", {}).items():
            path = directory / relative
            if not path.is_file():
                raise ArtifactIntegrityError(f"artifact file missing: {relative}")
            if path.stat().st_size != entry["bytes"] or _sha256(path) != entry["sha256"]:
                raise ArtifactIntegrityError(
                    f"artifact file corrupted (hash mismatch): {relative}"
                )
        return manifest

    @classmethod
    def load(cls, directory: str | Path, verify: bool = True) -> "ModelArtifact":
        """Read a bundle back; ``verify=True`` (default) checks content hashes."""
        directory = Path(directory)
        manifest = cls.verify(directory) if verify else cls.read_manifest(directory)
        with (directory / _PLAN_FILE).open("rb") as stream:
            plan_spec = pickle.load(stream)
        specialized: Dict[str, PlanSpec] = {}
        for task in manifest.get("specialized_tasks", []):
            with (directory / _SPECIALIZED_DIR / f"{task}.pkl").open("rb") as stream:
                specialized[task] = pickle.load(stream)
        calibration = None
        calibration_path = directory / _CALIBRATION_FILE
        if calibration_path.is_file():
            calibration = CalibrationProfile.from_json(calibration_path.read_text())
        weights: Dict[str, np.ndarray] = {}
        weights_path = directory / _WEIGHTS_FILE
        if weights_path.is_file():
            weights = load_state_dict(weights_path)
        return cls(
            name=str(manifest.get("name", directory.name)),
            plan_spec=plan_spec,
            specialized_specs=specialized,
            calibration=calibration,
            weights=weights,
            metadata=dict(manifest.get("metadata", {})),
            schema_version=int(manifest["schema_version"]),
        )
