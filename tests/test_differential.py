"""Differential property harness: every execution path must tell one story.

The repo now carries five semantically-equivalent ways to run the same
network — the float training path (``MimeNetwork.forward``), the compiled
dense plan (``EnginePlan.run``), compact and bit-exact specialized plans,
the dynamic sparse row-gather fast path, and process-sharded serving — and
hand-written tests alone cannot keep them honest as each evolves.  This
harness generates ≥50 seeded random cases (architecture × task × batch
shape × inputs) and asserts the whole equivalence lattice on every one:

* dense plan ≈ training forward (both float64; different kernel
  implementations, so allclose at tight tolerance);
* bit-exact specialization == dense plan, **bit for bit**;
* dynamic sparse (forced on for every GEMM) == dense plan, **bit for bit**;
* compact specialization ≈ dense plan (ULP-level: reduction regrouping);
* process-sharded serving == dense plan, **bit for bit**, across the spawn
  + PlanSpec + shared-memory-ring boundary;
* blocked convs (cache-blocked, against L2-resident weight panels, the
  default lowering) == one monolithic im2col GEMM per conv, **bit for bit**
  (the packer proves every multi-panel split exact on the host BLAS at build
  time and collapses the split otherwise, so the contract is unconditional);
* direct (im2col-free) conv ≈ dense plan (ULP-level: per-tap regrouping);
* int8 inference within its *declared* accuracy contract (decision fidelity,
  not value equivalence — the one deliberately-lossy path);
* a kernel-choice map survives PlanSpec + process spawn and serves the dense
  plan's bits from inside a worker;
* a chooser-tuned compact specialization round-trips through PlanSpec into a
  spawned worker and serves the same bits as the local specialized plan.

Specialization uses a *structural* survival profile derived from the task
thresholds themselves (a channel is dead iff its threshold is unreachable),
so the dead set is exact by construction and the bit-exact guarantees hold
on any input — no calibration-sampling flake.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.engine import (
    CalibrationProfile,
    DynamicSparseConfig,
    PlanSpec,
    RunContext,
    calibrate_plan,
    compile_network,
)
from repro.engine import kernels as K
from repro.engine.kernels import (
    apply_kernel_choices,
    force_kernel_variant,
    quantize_plan_kernels,
)
from repro.engine.specialize import specialize_plan
from repro.mime import MimeNetwork, add_structured_sparsity_task
from repro.models.vgg import VGG
from repro.serving import ShardedRuntime
from tests.conftest import reference_conv

#: Seeds of the randomized architectures; together with CASES_PER_ARCH they
#: give the suite ≥50 cases, each exercising all five execution paths.
ARCH_SEEDS = (101, 202, 303, 404, 505)
CASES_PER_ARCH = 11
MICRO_BATCH = 4
#: Thresholds at or above this are structurally unreachable (see
#: ``add_structured_sparsity_task``'s ``dead_threshold=1e9`` default).
STRUCTURAL_DEAD = 1e8


@dataclass
class Case:
    """One differential case: a task, a batch shape, and seeded inputs."""

    task: str
    images: np.ndarray


class Arch:
    """A seeded random architecture with tasks, plans, and its case list."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.seed = seed
        input_size = int(rng.choice([8, 12, 16]))
        in_channels = int(rng.choice([1, 3]))
        num_convs = int(rng.integers(1, 4))
        config: List[object] = []
        pools = 0
        for _ in range(num_convs):
            config.append(int(rng.integers(3, 9)))
            if pools < 2 and rng.random() < 0.5:
                config.append("M")
                pools += 1
        classifier_hidden: Tuple[int, ...] = ()
        if rng.random() < 0.6:
            classifier_hidden = (int(rng.integers(8, 25)),)
        backbone = VGG(
            config,
            num_classes=int(rng.integers(3, 7)),
            in_channels=in_channels,
            input_size=input_size,
            batch_norm=bool(rng.random() < 0.7),
            classifier_hidden=classifier_hidden,
            dropout=0.0,
            rng=rng,
        )
        if backbone.batch_norm:
            # Non-trivial running statistics so BatchNorm folding is exercised
            # with something other than the (0, 1) initialisation.
            for layer in backbone.features:
                if hasattr(layer, "_buffers") and "running_mean" in getattr(layer, "_buffers", {}):
                    layer._buffers["running_mean"] += rng.normal(
                        0.0, 0.1, size=layer._buffers["running_mean"].shape
                    )
                    layer._buffers["running_var"] *= rng.uniform(
                        0.5, 1.5, size=layer._buffers["running_var"].shape
                    )
        self.network = MimeNetwork(backbone)
        self.network.eval()
        self.tasks = [f"task{i}" for i in range(int(rng.integers(2, 4)))]
        for name in self.tasks:
            add_structured_sparsity_task(
                self.network,
                name,
                num_classes=int(rng.integers(3, 7)),
                rng=rng,
                dead_fraction=float(rng.uniform(0.1, 0.5)),
                threshold_jitter=float(rng.uniform(0.05, 0.3)),
            )
        # float64 everywhere: the training path is float64, so the dense-plan
        # comparison is tight, and the bit-exact paths stay bit-exact.
        self.plan = compile_network(self.network, dtype=np.float64)
        self.profile = structural_profile(self.plan, self.network)
        self.cases = self._make_cases(rng)

    def _make_cases(self, rng: np.random.Generator) -> List[Case]:
        cases = []
        for _ in range(CASES_PER_ARCH):
            task = self.tasks[int(rng.integers(0, len(self.tasks)))]
            n = int(rng.integers(1, 7))
            cases.append(Case(task, rng.normal(size=(n,) + self.plan.input_shape)))
        return cases


class ReferenceConv:
    """Stands in for a conv kernel and runs :func:`reference_conv` instead."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel

    def run(self, x, task, ws, recorder, ctx=None):
        return reference_conv(self.kernel, x, task)


def reference_plan(plan):
    """``plan`` with every conv lowered as one monolithic im2col GEMM."""
    kernels = [ReferenceConv(k) if k.kind == "conv" else k for k in plan.kernels]
    return dataclasses.replace(plan, kernels=kernels)


def structural_profile(plan, network: MimeNetwork) -> CalibrationProfile:
    """Survival rates derived from the thresholds, not from sampling.

    A channel is dead iff *every* threshold it owns is structurally
    unreachable — exactly the channels ``add_structured_sparsity_task``
    killed — so specialization removes precisely the channels that are zero
    on **all** inputs and the bit-exact contract cannot be broken by an
    unlucky calibration batch.
    """
    survival: Dict[str, Dict[str, np.ndarray]] = {}
    for task in network.registry:
        per_layer: Dict[str, np.ndarray] = {}
        for spec, param in zip(plan.mask_specs, task.thresholds):
            data = param.data
            if data.ndim == 3:
                dead = (data >= STRUCTURAL_DEAD).all(axis=(1, 2))
            else:
                dead = data >= STRUCTURAL_DEAD
            per_layer[spec.layer_name] = (~dead).astype(float)
        survival[task.name] = per_layer
    return CalibrationProfile(
        survival=survival, num_images={task.name: 1 for task in network.registry}
    )


@pytest.fixture(scope="module", params=ARCH_SEEDS)
def arch(request) -> Arch:
    return Arch(request.param)


def test_suite_covers_at_least_fifty_cases():
    assert len(ARCH_SEEDS) * CASES_PER_ARCH >= 50


# ------------------------------------------------------- in-process paths ----
def test_dense_plan_matches_training_forward(arch):
    for case in arch.cases:
        reference = arch.network.forward(case.images, task=case.task)
        compiled = arch.plan.run(case.images, case.task)
        np.testing.assert_allclose(
            compiled,
            reference,
            rtol=1e-9,
            atol=1e-9,
            err_msg=f"arch seed {arch.seed}, task {case.task}, batch {len(case.images)}",
        )


def test_exact_specialization_is_bit_identical(arch):
    plans = {
        task: specialize_plan(arch.plan, task, arch.profile, compact_reduction=False)
        for task in arch.tasks
    }
    for case in arch.cases:
        dense = arch.plan.run(case.images, case.task)
        exact = plans[case.task].run(case.images, case.task)
        np.testing.assert_array_equal(
            exact, dense, err_msg=f"arch seed {arch.seed}, task {case.task}"
        )


def test_compact_specialization_matches_to_ulp(arch):
    plans = {
        task: specialize_plan(arch.plan, task, arch.profile, compact_reduction=True)
        for task in arch.tasks
    }
    for case in arch.cases:
        dense = arch.plan.run(case.images, case.task)
        compact = plans[case.task].run(case.images, case.task)
        np.testing.assert_allclose(
            compact,
            dense,
            rtol=1e-9,
            atol=1e-12,
            err_msg=f"arch seed {arch.seed}, task {case.task}",
        )


def test_dynamic_sparse_fast_path_is_bit_identical(arch):
    # gate=0 + crossover=1 forces the row-gather path onto *every* GEMM, the
    # strongest version of its bit-exactness claim.
    for case in arch.cases:
        dense = arch.plan.run(case.images, case.task)
        ctx = RunContext(DynamicSparseConfig(gate=0.0, default_crossover=1.0))
        dynamic = arch.plan.run(case.images, case.task, ctx=ctx)
        assert ctx.dynamic_gemms > 0, "the forced fast path never engaged"
        np.testing.assert_array_equal(
            dynamic, dense, err_msg=f"arch seed {arch.seed}, task {case.task}"
        )


# --------------------------------------------------------- kernel variants ----
def test_blocked_kernel_variants_are_bit_identical(arch):
    """``blocked`` convs reproduce one monolithic im2col GEMM bit for bit.

    The blocked conv's strip-copied panel equals the monolithic im2col
    matrix and image-blocking never splits a GEMM row, so the reduction
    order is unchanged.  The claim is exact, so the comparison is
    ``array_equal``, not ``allclose``.
    """
    tuned = PlanSpec.from_plan(arch.plan).build()
    forced = force_kernel_variant(tuned, "blocked")
    assert forced, "no conv layer was eligible for the blocked variant"
    reference = reference_plan(arch.plan)
    for case in arch.cases:
        monolithic = reference.run(case.images, case.task)
        blocked = tuned.run(case.images, case.task)
        np.testing.assert_array_equal(
            blocked, monolithic, err_msg=f"arch seed {arch.seed}, task {case.task}"
        )


def test_packed_kernel_variants_are_bit_identical(arch, monkeypatch):
    """Packed weight panels inside ``blocked`` convs keep the monolithic GEMM's bits.

    The packer keeps a multi-panel weight split only after proving it
    bit-exact on this host's BLAS (``_packed_split_exact``) and collapses to
    one contiguous panel otherwise, so equality is unconditional — hence
    ``array_equal``.  The panel budget is shrunk so candidate splits are
    actually generated and the proof-or-collapse machinery is exercised,
    not just the trivial single-panel case.
    """
    monkeypatch.setattr(K, "_PACKED_PANEL_BYTES", 1 << 10)
    tuned = PlanSpec.from_plan(arch.plan).build()
    forced = force_kernel_variant(tuned, "blocked")
    assert forced, "no conv layer was eligible for the blocked variant"
    reference = reference_plan(arch.plan)
    for case in arch.cases:
        monolithic = reference.run(case.images, case.task)
        packed = tuned.run(case.images, case.task)
        np.testing.assert_array_equal(
            packed, monolithic, err_msg=f"arch seed {arch.seed}, task {case.task}"
        )
    # Forcing the conv default also resets FC kernels to ``dense``, which
    # packs nothing: only the convs must have packed their weight panels.
    assert all(
        kernel.packed for kernel in tuned.kernels if kernel.kind == "conv"
    ), "a blocked conv ran without packing its weight panels"


def test_direct_conv_matches_to_ulp(arch):
    """The im2col-free direct conv agrees at ULP level (per-tap regrouping).

    3x3 layers accumulate one partial sum per filter tap, which regroups the
    per-pixel reduction — ULP-level, same tolerance as compact
    specialization.  (1x1 layers degenerate to the identical single GEMM and
    are covered bitwise in ``tests/test_kernels.py``.)
    """
    tuned = PlanSpec.from_plan(arch.plan).build()
    forced = force_kernel_variant(tuned, "direct")
    assert forced, "no conv layer was eligible for the direct variant"
    for case in arch.cases:
        dense = arch.plan.run(case.images, case.task)
        direct = tuned.run(case.images, case.task)
        np.testing.assert_allclose(
            direct,
            dense,
            rtol=1e-9,
            atol=1e-12,
            err_msg=f"arch seed {arch.seed}, task {case.task}",
        )


def test_int8_variant_within_declared_tolerance(arch):
    """The int8 path stays inside its declared accuracy contract.

    Int8 is the one variant that is *not* value-equivalent; its contract
    (README, "Int8 accuracy contract") is decision fidelity, not bitwise
    logits.  Measured headroom on these architectures: relative logit error
    <= 0.06 and argmax agreement >= 0.97, so the declared bounds below have
    >= 2.5x slack while still catching any real quantization regression.
    """
    profile = calibrate_plan(arch.plan, batch_size=MICRO_BATCH, seed=arch.seed)
    assert profile.ranges, "calibration must record activation ranges for int8"
    quantized = PlanSpec.from_plan(arch.plan).build()
    names = quantize_plan_kernels(quantized, profile, set_variant=True)
    assert names, "no kernel accepted int8 quantization"
    agree = total = 0
    for case in arch.cases:
        dense = arch.plan.run(case.images, case.task)
        int8 = quantized.run(case.images, case.task)
        assert np.isfinite(int8).all()
        scale = np.abs(dense).max() or 1.0
        assert np.abs(int8 - dense).max() / scale <= 0.15, (
            f"arch seed {arch.seed}, task {case.task}: int8 logit error "
            f"{np.abs(int8 - dense).max() / scale:.4f} above declared 0.15"
        )
        agree += int((dense.argmax(axis=1) == int8.argmax(axis=1)).sum())
        total += len(dense)
    assert agree / total >= 0.9, (
        f"arch seed {arch.seed}: argmax agreement {agree}/{total} below declared 0.9"
    )


def test_chooser_tuned_specialization_round_trips_through_sharded_worker(arch):
    """Chooser-aware specialization survives PlanSpec + spawn bit for bit.

    ``specialize_plan(..., choose_kernels=True)`` autotunes the *compacted*
    geometry and leaves the choice map on the spec; a spawned worker rebuilds
    the plan from its PlanSpec and must serve exactly the bits the local
    specialized plan produces — whatever variants the chooser picked on this
    host (including declared-tolerance ones: both sides run the same
    lowering, so the comparison stays bitwise).
    """
    task = arch.tasks[0]
    spec = specialize_plan(
        arch.plan, task, arch.profile, compact_reduction=True,
        choose_kernels=True, choose_batch=MICRO_BATCH,
    )
    assert spec.kernel_choices, "the chooser must leave choices on the spec"
    rebuilt = PlanSpec.from_plan(spec).build()
    assert rebuilt.kernel_choices == spec.kernel_choices
    rebuilt_variants = {
        k.name: k.variant
        for k in rebuilt.kernels
        if getattr(k, "name", None) in spec.kernel_choices
    }
    assert rebuilt_variants == spec.kernel_choices

    stream_rng = np.random.default_rng(arch.seed + 3)
    images = stream_rng.normal(size=(2 * MICRO_BATCH,) + arch.plan.input_shape)
    runtime = ShardedRuntime(
        arch.plan, policy="fifo-deadline", micro_batch=MICRO_BATCH, max_wait=5.0,
        workers=1, specialized={task: spec},
    )
    futures = [runtime.submit(task, image) for image in images]
    runtime.start()
    report = runtime.stop(drain=True)
    assert report.completed == len(images)
    for start in range(0, len(images), MICRO_BATCH):
        batch = images[start : start + MICRO_BATCH]
        reference = spec.run(batch, task)
        served = np.stack(
            [f.result(timeout=0) for f in futures[start : start + MICRO_BATCH]]
        )
        np.testing.assert_array_equal(
            served, reference, err_msg=f"arch seed {arch.seed}, task {task}"
        )


def test_kernel_choices_round_trip_through_sharded_worker(arch):
    """A chooser map survives PlanSpec + spawn and still serves bit-exactly.

    Builds a deterministic choice map (``blocked`` on every conv —
    machine-independent, unlike a live autotune), applies it, and serves one
    padded stream through a spawned worker: the worker must rebuild the plan
    with the same choices and produce the dense plan's bits.
    """
    tuned = PlanSpec.from_plan(arch.plan).build()
    choices = {kernel.name: "blocked" for kernel in tuned.kernels if kernel.kind == "conv"}
    applied = apply_kernel_choices(tuned, choices)
    assert applied == choices
    rebuilt = PlanSpec.from_plan(tuned).build()
    assert rebuilt.kernel_choices == choices
    rebuilt_variants = {
        k.name: k.variant for k in rebuilt.kernels if getattr(k, "name", None) in choices
    }
    assert rebuilt_variants == choices

    task = arch.tasks[0]
    stream_rng = np.random.default_rng(arch.seed + 2)
    images = stream_rng.normal(size=(2 * MICRO_BATCH,) + arch.plan.input_shape)
    runtime = ShardedRuntime(
        tuned, policy="fifo-deadline", micro_batch=MICRO_BATCH, max_wait=5.0, workers=1
    )
    futures = [runtime.submit(task, image) for image in images]
    runtime.start()
    report = runtime.stop(drain=True)
    assert report.completed == len(images)
    for start in range(0, len(images), MICRO_BATCH):
        batch = images[start : start + MICRO_BATCH]
        reference = arch.plan.run(batch, task)
        served = np.stack([f.result(timeout=0) for f in futures[start : start + MICRO_BATCH]])
        np.testing.assert_array_equal(
            served, reference, err_msg=f"arch seed {arch.seed}, task {task}"
        )


# ----------------------------------------------------- process-sharded path ----
def test_sharded_serving_is_bit_identical(arch):
    """Every case's images also round-trip through a spawned worker fleet.

    Per-task streams are padded to micro-batch multiples so each batch closes
    on its size trigger with a deterministic composition; the reference is
    ``plan.run`` on exactly those compositions, compared bit for bit.
    """
    per_task: Dict[str, List[np.ndarray]] = {task: [] for task in arch.tasks}
    for case in arch.cases:
        per_task[case.task].extend(case.images)
    pad_rng = np.random.default_rng(arch.seed + 1)
    for task, images in per_task.items():
        shortfall = (-len(images)) % MICRO_BATCH
        images.extend(pad_rng.normal(size=(shortfall,) + arch.plan.input_shape))

    runtime = ShardedRuntime(
        arch.plan, policy="fifo-deadline", micro_batch=MICRO_BATCH, max_wait=5.0, workers=1
    )
    futures: Dict[str, List] = {task: [] for task in arch.tasks}
    for task, images in per_task.items():
        for image in images:
            futures[task].append(runtime.submit(task, image))
    runtime.start()
    report = runtime.stop(drain=True)
    assert report.completed == sum(len(images) for images in per_task.values())

    for task, images in per_task.items():
        for start in range(0, len(images), MICRO_BATCH):
            batch = np.stack(images[start : start + MICRO_BATCH])
            reference = arch.plan.run(batch, task)
            served = np.stack(
                [f.result(timeout=0) for f in futures[task][start : start + MICRO_BATCH]]
            )
            np.testing.assert_array_equal(
                served, reference, err_msg=f"arch seed {arch.seed}, task {task}"
            )
