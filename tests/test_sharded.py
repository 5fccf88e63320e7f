"""Process-sharded serving: PlanSpec transport, shm rings, merged accounting.

Process tests keep the fleet small (spawn pays an interpreter + NumPy import
per worker), but every guarantee is exercised for real: bit-identical logits
across the process boundary, per-task specialized plans rebuilt in the
children, merged recorder/metrics, cancellation, and the WorkspacePool
process-locality regression the shared-memory rings rely on.
"""

from __future__ import annotations

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.engine import (
    PlanSpec,
    SpecializedEnginePlan,
    WorkspacePool,
    calibrate_plan,
    compile_network,
    enable_dynamic_sparse,
    specialize_tasks,
)
from repro.mime import MimeNetwork, add_structured_sparsity_task
from repro.models import extract_layer_shapes, vgg_tiny
from repro.serving import (
    BACKENDS,
    RequestCancelledError,
    ServingRuntime,
    ShardedRuntime,
)

TASKS = ("alpha", "beta", "gamma")


@pytest.fixture(scope="module")
def served():
    rng = np.random.default_rng(42)
    backbone = vgg_tiny(num_classes=6, input_size=16, in_channels=3, rng=rng)
    network = MimeNetwork(backbone)
    network.eval()
    for name in TASKS:
        add_structured_sparsity_task(
            network, name, num_classes=5, rng=rng, dead_fraction=0.3, threshold_jitter=0.2
        )
    plan = compile_network(network, dtype=np.float32)
    return backbone, plan


def deterministic_stream(plan, per_task: int, seed: int):
    """(task, image) pairs whose batcher grouping is fully deterministic.

    Per-task counts are exact multiples of the micro-batch used below, so
    every batch closes on its size trigger with a composition that depends
    only on submission order — the precondition for bit-identical
    comparisons against explicit ``plan.run`` groups.
    """
    rng = np.random.default_rng(seed)
    stream = []
    for index in range(per_task):
        for task in TASKS:
            stream.append((task, rng.normal(size=plan.input_shape)))
    return stream


def reference_groups(plan, stream, micro_batch):
    """The exact micro-batch compositions the FIFO size-trigger produces."""
    per_task = {}
    for task, image in stream:
        per_task.setdefault(task, []).append(image)
    groups = []
    for task, images in per_task.items():
        for start in range(0, len(images), micro_batch):
            groups.append((task, np.stack(images[start : start + micro_batch])))
    return groups


# --------------------------------------------------------------- PlanSpec ----
class TestPlanSpec:
    def test_dense_round_trip_is_bit_identical(self, served):
        _, plan = served
        spec = pickle.loads(pickle.dumps(PlanSpec.from_plan(plan)))
        rebuilt = spec.build()
        assert rebuilt.task_names() == plan.task_names()
        assert rebuilt.dtype == plan.dtype
        batch = np.random.default_rng(7).normal(size=(6,) + plan.input_shape)
        for task in TASKS:
            np.testing.assert_array_equal(plan.run(batch, task), rebuilt.run(batch, task))

    def test_rebuilt_plan_shares_no_arrays_with_source(self, served):
        _, plan = served
        rebuilt = PlanSpec.from_plan(plan).build()
        source = plan.kernels[0].weight_t
        clone = rebuilt.kernels[0].weight_t
        assert not np.shares_memory(source, clone)

    @pytest.mark.parametrize("compact", [True, False])
    def test_specialized_round_trip_preserves_provenance(self, served, compact):
        _, plan = served
        profile = calibrate_plan(plan, batch_size=16, seed=3)
        specialized = specialize_tasks(plan, profile=profile, compact_reduction=compact)
        for name, spec_plan in specialized.items():
            rebuilt = pickle.loads(pickle.dumps(PlanSpec.from_plan(spec_plan))).build()
            assert isinstance(rebuilt, SpecializedEnginePlan)
            assert rebuilt.source_task == name
            assert rebuilt.compact_reduction == compact
            assert rebuilt.mac_reduction() == spec_plan.mac_reduction()
            assert rebuilt.dead_channel_counts() == spec_plan.dead_channel_counts()
            batch = np.random.default_rng(11).normal(size=(4,) + plan.input_shape)
            np.testing.assert_array_equal(
                spec_plan.run(batch, name), rebuilt.run(batch, name)
            )

    def test_dynamic_config_survives_the_round_trip(self, served):
        _, plan = served
        try:
            enable_dynamic_sparse(plan, gate=0.25, crossover=0.75)
            rebuilt = PlanSpec.from_plan(plan).build()
        finally:
            plan.dynamic = None
        assert rebuilt.dynamic is not None
        assert rebuilt.dynamic.gate == 0.25
        assert rebuilt.dynamic.default_crossover == 0.75


# ------------------------------------------------------------ ShardedRuntime --
class TestShardedRuntime:
    def test_matches_plan_run_bit_for_bit_and_merges_stats(self, served):
        backbone, plan = served
        micro_batch = 4
        stream = deterministic_stream(plan, per_task=8, seed=5)
        runtime = ShardedRuntime(
            plan, policy="fifo-deadline", micro_batch=micro_batch, max_wait=5.0, workers=2
        )
        futures = [runtime.submit(task, image) for task, image in stream]
        runtime.start()
        report = runtime.stop(drain=True)

        assert report.completed == len(stream)
        assert report.backend == "process"
        assert report.workers == 2
        # Bit-identical to the in-process plan on the same deterministic
        # batch compositions: the child rebuilt the plan from a PlanSpec.
        outputs = {}
        for future, (task, _) in zip(futures, stream):
            outputs.setdefault(task, []).append(future.result(timeout=0))
        for task, batch in reference_groups(plan, stream, micro_batch):
            reference = plan.run(batch, task)
            rows = outputs[task][: len(batch)]
            del outputs[task][: len(batch)]
            np.testing.assert_array_equal(np.stack(rows), reference)

        # Worker recorders were merged into the parent at stop().
        assert runtime.recorder.num_images() == len(stream)
        assert sorted(runtime.sparsity_profile().tasks()) == sorted(TASKS)
        assert report.dense_macs > 0
        assert report.effective_macs == report.dense_macs  # dense plan, no fast path
        hw = runtime.hardware_report(extract_layer_shapes(backbone), conv_only=True)
        assert hw.total_energy().total > 0
        assert hw.measured_dense_macs == report.dense_macs

    def test_specialized_plans_rebuild_in_workers(self, served):
        _, plan = served
        profile = calibrate_plan(plan, batch_size=16, seed=9)
        specialized = specialize_tasks(plan, profile=profile, compact_reduction=False)
        micro_batch = 4
        stream = deterministic_stream(plan, per_task=4, seed=13)
        runtime = ShardedRuntime(
            plan,
            micro_batch=micro_batch,
            max_wait=5.0,
            workers=1,
            specialized=specialized,
        )
        futures = [runtime.submit(task, image) for task, image in stream]
        runtime.start()
        report = runtime.stop(drain=True)
        assert report.completed == len(stream)
        # Exact (scatter-mode) specialization serves bit-identical logits.
        outputs = {}
        for future, (task, _) in zip(futures, stream):
            outputs.setdefault(task, []).append(future.result(timeout=0))
        for task, batch in reference_groups(plan, stream, micro_batch):
            reference = plan.run(batch, task)
            rows = outputs[task][: len(batch)]
            del outputs[task][: len(batch)]
            np.testing.assert_array_equal(np.stack(rows), reference)
        # The specialized plans really ran: fewer effective than dense MACs
        # would require compact mode, but exact mode pads lanes — MAC totals
        # still recorded and merged.
        assert report.dense_macs > 0

    def test_reset_stats_resets_worker_recorders_too(self, served):
        _, plan = served
        runtime = ShardedRuntime(plan, micro_batch=4, max_wait=0.005, workers=1)
        runtime.start()
        first = [runtime.submit("alpha", np.zeros(plan.input_shape)) for _ in range(8)]
        for future in first:
            future.result(timeout=60.0)
        runtime.reset_stats()
        second = [runtime.submit("beta", np.zeros(plan.input_shape)) for _ in range(4)]
        for future in second:
            future.result(timeout=60.0)
        report = runtime.stop(drain=True)
        # The worker's recorder dropped the pre-reset window before its
        # snapshot merged: metrics and MAC/sparsity totals agree on 4 images.
        assert report.completed == 4
        assert report.per_task == {"beta": 4}
        assert runtime.recorder.num_images() == 4
        assert runtime.sparsity_profile().tasks() == ["beta"]

    def test_stop_without_drain_cancels_pending(self, served):
        _, plan = served
        runtime = ShardedRuntime(plan, micro_batch=64, max_wait=60.0, workers=1)
        futures = [runtime.submit("alpha", np.zeros(plan.input_shape)) for _ in range(3)]
        report = runtime.stop(drain=False)  # never started: everything cancels
        assert report.cancelled == 3
        for future in futures:
            with pytest.raises(RequestCancelledError):
                future.result(timeout=1.0)

    def test_backend_registry_exposes_both_runtimes(self):
        assert BACKENDS["thread"] is ServingRuntime
        assert BACKENDS["process"] is ShardedRuntime

    def test_constructor_validation(self, served):
        _, plan = served
        with pytest.raises(ValueError):
            ShardedRuntime(plan, workers=0)
        with pytest.raises(ValueError):
            ShardedRuntime(plan, ring_slots=0)


# ---------------------------------------------------------- WorkspacePool -----
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable on this platform",
)
def test_workspace_pool_buffers_are_process_local_after_fork():
    """A forked child must never reuse the parent's cached workspace slabs.

    The child must never write memory its parent may still be reading, so
    the pool drops every inherited slab on first use in a new process.
    """
    ctx = multiprocessing.get_context("fork")
    pool = WorkspacePool()
    parent_buffer = pool.get("scratch", (4, 4), np.float64)
    parent_buffer[:] = 7.0
    results = ctx.Queue()

    def child() -> None:
        inherited = pool.get("scratch", (4, 4), np.float64)
        # A fresh slab, not the parent's filled one.
        results.put(bool(np.shares_memory(inherited, parent_buffer)))
        results.put(len(pool))

    process = ctx.Process(target=child)
    process.start()
    process.join(30.0)
    assert process.exitcode == 0
    assert results.get(timeout=5.0) is False
    assert results.get(timeout=5.0) == 1  # the child rebuilt exactly one slab
    # The parent's cache is untouched by the child's reset.
    assert pool.get("scratch", (4, 4), np.float64) is parent_buffer
    np.testing.assert_array_equal(parent_buffer, np.full((4, 4), 7.0))
