"""Model lifecycle: hot-swap control plane + online recalibration loop.

Covers the zero-downtime deployment contract end to end: a thread runtime
atomically swapping plan sets between micro-batches; a live **process-sharded
fleet** swapping to a re-specialized artifact under load with zero failed
requests and post-swap logits bit-identical to a cold start from the same
artifact (the acceptance scenario); add/remove-task riding the same path; and
the recalibration loop detecting survival drift on live traffic,
re-specializing, hot-swapping, and publishing to a model store.
"""

from __future__ import annotations

from typing import Dict

import numpy as np
import pytest

from repro.artifacts import ModelArtifact, ModelStore
from repro.engine import (
    CalibrationProfile,
    SparsityRecorder,
    compile_network,
    specialize_tasks,
)
from repro.mime import MimeNetwork, add_structured_sparsity_task
from repro.models import vgg_tiny
from repro.serving import (
    RecalibrationLoop,
    RuntimeClosedError,
    ServingRuntime,
    ShardedRuntime,
)

TASKS = ("alpha", "beta", "gamma")
STRUCTURAL_DEAD = 1e8
MICRO_BATCH = 4


def build_network(seed: int, jitter: float = 0.2, tasks=TASKS):
    rng = np.random.default_rng(seed)
    backbone = vgg_tiny(num_classes=6, input_size=16, in_channels=3, rng=rng)
    network = MimeNetwork(backbone)
    network.eval()
    for name in tasks:
        add_structured_sparsity_task(
            network, name, num_classes=5, rng=rng, dead_fraction=0.3,
            threshold_jitter=jitter,
        )
    return network


def structural_profile(plan, network: MimeNetwork) -> CalibrationProfile:
    """Threshold-derived survival: the dead set is exact, never sampled."""
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


@pytest.fixture(scope="module")
def deployment(tmp_path_factory):
    """A live dense plan plus a store-published re-specialized artifact."""
    network = build_network(seed=42)
    plan = compile_network(network, dtype=np.float32)
    profile = structural_profile(plan, network)
    specialized = specialize_tasks(plan, profile=profile, compact_reduction=True)
    artifact = ModelArtifact.from_plans(
        "respecialized", plan, specialized, calibration=profile
    )
    store = ModelStore(tmp_path_factory.mktemp("store"))
    version = store.publish(artifact)
    return network, plan, store, version


def deterministic_stream(plan, per_task: int, seed: int, tasks=TASKS):
    """(task, image) pairs whose batcher grouping is fully deterministic.

    Per-task counts are exact multiples of MICRO_BATCH, so every batch closes
    on its size trigger with a composition that depends only on submission
    order — the precondition for bit-identical comparisons against explicit
    ``plan.run`` groups.
    """
    rng = np.random.default_rng(seed)
    stream = []
    for _ in range(per_task):
        for task in tasks:
            stream.append((task, rng.normal(size=plan.input_shape)))
    return stream


def reference_groups(stream, micro_batch=MICRO_BATCH):
    """The exact micro-batch compositions the FIFO size-trigger produces."""
    per_task: Dict[str, list] = {}
    for task, image in stream:
        per_task.setdefault(task, []).append(image)
    groups = []
    for task, images in per_task.items():
        for start in range(0, len(images), micro_batch):
            groups.append((task, np.stack(images[start : start + micro_batch])))
    return groups


def assert_futures_match(futures, stream, expected_plan_for):
    """Every future resolved without error and bit-matches its plan's output."""
    outputs: Dict[str, list] = {}
    for future, (task, _) in zip(futures, stream):
        outputs.setdefault(task, []).append(future.result(timeout=60.0))
    for task, batch in reference_groups(stream):
        reference = expected_plan_for(task).run(batch, task)
        rows = outputs[task][: len(batch)]
        del outputs[task][: len(batch)]
        np.testing.assert_array_equal(np.stack(rows), reference)


# -------------------------------------------------------- thread hot-swap ----
class TestThreadHotSwap:
    def test_swap_under_load_routes_every_request_to_the_right_plans(self, deployment):
        network, plan, store, _ = deployment
        # A different model with the same geometry and task names: the swap
        # visibly changes the logits, so routing mistakes cannot hide.
        other = build_network(seed=1234, jitter=0.35)
        other_plan = compile_network(other, dtype=np.float32)
        runtime = ServingRuntime(plan, micro_batch=MICRO_BATCH, max_wait=5.0, workers=2)
        before = deterministic_stream(plan, per_task=8, seed=3)
        after = deterministic_stream(plan, per_task=8, seed=4)
        futures_before = [runtime.submit(task, image) for task, image in before]
        runtime.start()
        runtime.swap(other_plan, timeout=60.0)
        futures_after = [runtime.submit(task, image) for task, image in after]
        report = runtime.stop(drain=True)
        assert report.errors == 0 and report.completed == len(before) + len(after)
        assert_futures_match(futures_before, before, lambda task: plan)
        assert_futures_match(futures_after, after, lambda task: other_plan)

    def test_swap_to_artifact_installs_specialized_plans(self, deployment):
        network, plan, store, _ = deployment
        runtime = ServingRuntime(plan, micro_batch=MICRO_BATCH, max_wait=0.002, workers=2)
        with runtime:
            assert runtime.specialized == {}
            artifact = store.load()
            runtime.swap(artifact, timeout=60.0)
            assert sorted(runtime.specialized) == sorted(TASKS)
            stream = deterministic_stream(plan, per_task=4, seed=5)
            futures = [runtime.submit(task, image) for task, image in stream]
            for future in futures:
                future.result(timeout=60.0)

    def test_swap_keeps_worker_pool_bytes_flat(self, deployment):
        """Swapped-out plans leave nothing behind in the worker's pool.

        Slabs are keyed by lifetime, not by kernel, so a recompiled plan of
        the same geometry reuses exactly the memory the old plan used.
        """
        network, plan, _, _ = deployment
        runtime = ServingRuntime(plan, micro_batch=MICRO_BATCH, max_wait=5.0, workers=1)

        def serve_full_batches() -> None:
            # MICRO_BATCH requests per task: every batch closes full.
            stream = deterministic_stream(plan, per_task=MICRO_BATCH, seed=9)
            for future in [runtime.submit(task, image) for task, image in stream]:
                future.result(timeout=60.0)

        with runtime:
            serve_full_batches()
            (pool,) = runtime._pools
            footprint = pool.nbytes
            assert footprint > 0
            for _ in range(3):
                runtime.swap(compile_network(network, dtype=np.float32), timeout=60.0)
                serve_full_batches()
                assert pool.nbytes == footprint

    def test_swap_validation_and_closed_runtime(self, deployment):
        _, plan, _, _ = deployment
        small = build_network(seed=7)
        wrong_dtype = compile_network(small, dtype=np.float64)
        runtime = ServingRuntime(plan, micro_batch=MICRO_BATCH, workers=1)
        with pytest.raises(ValueError, match="dtype"):
            runtime.swap(wrong_dtype)
        with pytest.raises(TypeError, match="cannot swap"):
            runtime.swap("not a plan")
        runtime.stop()
        with pytest.raises(RuntimeClosedError):
            runtime.swap(plan)

    def test_swap_before_start_takes_effect_at_launch(self, deployment):
        _, plan, store, _ = deployment
        runtime = ServingRuntime(plan, micro_batch=MICRO_BATCH, max_wait=0.002, workers=1)
        runtime.swap(store.load())
        assert sorted(runtime.specialized) == sorted(TASKS)
        with runtime:
            future = runtime.submit(TASKS[0], np.zeros(plan.input_shape))
            future.result(timeout=60.0)

    def test_add_and_remove_task_ride_the_swap_path(self, deployment):
        network, plan, _, _ = deployment
        extra = build_network(seed=99, tasks=("delta",))
        runtime = ServingRuntime(plan, micro_batch=MICRO_BATCH, max_wait=0.002, workers=2)
        with runtime:
            with pytest.raises(KeyError):
                runtime.submit("delta", np.zeros(plan.input_shape))
            runtime.add_task(extra.registry.get("delta"), timeout=60.0)
            served = [runtime.submit("delta", np.zeros(plan.input_shape)) for _ in range(4)]
            # In-flight requests for a removed task drain before the cutover.
            pending = [runtime.submit("alpha", np.zeros(plan.input_shape)) for _ in range(4)]
            runtime.remove_task("alpha", timeout=60.0)
            for future in served + pending:
                future.result(timeout=60.0)
            with pytest.raises(KeyError):
                runtime.submit("alpha", np.zeros(plan.input_shape))
            with pytest.raises(KeyError, match="already registered"):
                runtime.add_task(extra.registry.get("delta"))
        # The new task really executes its own head: compare against a plan
        # extended the same way.
        reference = compile_network(network, dtype=np.float32)
        reference.add_task(extra.registry.get("delta"))
        np.testing.assert_array_equal(
            np.stack([future.result(timeout=0) for future in served]),
            reference.run(np.zeros((4,) + tuple(plan.input_shape)), "delta"),
        )

    def test_nonblocking_submit_fails_fast_while_intake_is_paused(self, deployment):
        from repro.serving import QueueFullError

        _, plan, _, _ = deployment
        runtime = ServingRuntime(plan, micro_batch=MICRO_BATCH, workers=1)
        runtime._pause_intake()
        try:
            with pytest.raises(QueueFullError, match="paused for a plan swap"):
                runtime.submit("alpha", np.zeros(plan.input_shape), block=False)
            with pytest.raises(QueueFullError, match="after waiting"):
                runtime.submit("alpha", np.zeros(plan.input_shape), timeout=0.01)
        finally:
            runtime._resume_intake()
        with runtime:
            runtime.submit("alpha", np.zeros(plan.input_shape)).result(timeout=60.0)

    def test_remove_last_task_rejected(self, deployment):
        _, plan, _, _ = deployment
        runtime = ServingRuntime(plan, workers=1)
        runtime.remove_task("alpha")
        runtime.remove_task("beta")
        with pytest.raises(ValueError, match="only task"):
            runtime.remove_task("gamma")


# ------------------------------------------------------- sharded hot-swap ----
class TestShardedHotSwap:
    def test_live_fleet_swaps_to_respecialized_artifact_under_load(self, deployment):
        """The acceptance scenario: a running ShardedRuntime hot-swaps to a
        re-specialized artifact while requests are in flight; zero requests
        fail, pre-swap traffic matches the dense plan bit for bit, post-swap
        traffic matches a cold start from the same artifact bit for bit."""
        network, plan, store, version = deployment
        artifact = store.load(version)
        cold_plan, cold_specialized = artifact.build_plans()  # the cold-start reference

        runtime = ShardedRuntime(
            plan, policy="fifo-deadline", micro_batch=MICRO_BATCH, max_wait=5.0, workers=2
        )
        before = deterministic_stream(plan, per_task=8, seed=31)
        after = deterministic_stream(plan, per_task=8, seed=32)
        futures_before = [runtime.submit(task, image) for task, image in before]
        runtime.start()
        # Swap while the fleet is mid-drain: intake pauses, every admitted
        # batch completes on the old dense plans, workers rebuild + ack.
        runtime.swap(artifact, timeout=120.0)
        assert sorted(runtime.specialized) == sorted(TASKS)
        futures_after = [runtime.submit(task, image) for task, image in after]
        report = runtime.stop(drain=True)

        assert report.errors == 0 and report.cancelled == 0
        assert report.completed == len(before) + len(after)
        assert_futures_match(futures_before, before, lambda task: plan)
        assert_futures_match(futures_after, after, lambda task: cold_specialized[task])
        # Sanity: the compacted plans really are a different computation than
        # the dense plan (ULP-level differences), so the bit-equality above
        # proves the swap actually cut over.
        probe_task, probe_batch = reference_groups(after)[0]
        assert not np.array_equal(
            plan.run(probe_batch, probe_task),
            cold_specialized[probe_task].run(probe_batch, probe_task),
        )

    def test_sharded_add_and_remove_task(self, deployment):
        _, plan, _, _ = deployment
        extra = build_network(seed=100, tasks=("delta",))
        runtime = ShardedRuntime(plan, micro_batch=MICRO_BATCH, max_wait=0.002, workers=1)
        with runtime:
            runtime.add_task(extra.registry.get("delta"), timeout=120.0)
            futures = [runtime.submit("delta", np.zeros(plan.input_shape)) for _ in range(4)]
            runtime.remove_task("beta", timeout=120.0)
            with pytest.raises(KeyError):
                runtime.submit("beta", np.zeros(plan.input_shape))
            for future in futures:
                future.result(timeout=60.0)

    def test_swap_rejects_heads_wider_than_the_output_ring(self, deployment):
        _, plan, _, _ = deployment
        rng = np.random.default_rng(17)
        backbone = vgg_tiny(num_classes=6, input_size=16, in_channels=3, rng=rng)
        wide = MimeNetwork(backbone)
        wide.eval()
        for name in TASKS:
            # 64 classes > the 5-class geometry the rings were sized for.
            add_structured_sparsity_task(wide, name, num_classes=64, rng=rng)
        wide_plan = compile_network(wide, dtype=np.float32)
        runtime = ShardedRuntime(plan, micro_batch=MICRO_BATCH, max_wait=0.002, workers=1)
        with runtime:
            with pytest.raises(ValueError, match="output-ring"):
                runtime.swap(wide_plan, timeout=120.0)
            # Old plans still serve after the rejected swap.
            future = runtime.submit(TASKS[0], np.zeros(plan.input_shape))
            future.result(timeout=60.0)


# -------------------------------------------------------- recalibration ------
def serve_batch(runtime, tasks, images):
    futures = [runtime.submit(task, image) for task in tasks for image in images]
    for future in futures:
        future.result(timeout=60.0)


class TestRecalibrationLoop:
    def make_runtime(self, plan, specialized=None, workers=2):
        return ServingRuntime(
            plan,
            micro_batch=8,
            max_wait=0.002,
            workers=workers,
            recorder=SparsityRecorder(channel_tracking=True),
            specialized=specialized,
        )

    def test_requires_channel_tracking(self, deployment):
        _, plan, _, _ = deployment
        runtime = ServingRuntime(plan, workers=1)
        with pytest.raises(ValueError, match="channel_tracking"):
            RecalibrationLoop(runtime, CalibrationProfile())

    def test_no_drift_on_the_calibration_distribution(self, deployment):
        from repro.engine import calibrate_plan

        _, plan, _, _ = deployment
        images = {
            task: np.random.default_rng(50 + i).normal(size=(16,) + tuple(plan.input_shape))
            for i, task in enumerate(TASKS)
        }
        baseline = calibrate_plan(plan, images=images)
        runtime = self.make_runtime(plan)
        with runtime:
            # Serve exactly the calibration images: per-channel survival is a
            # sum of per-image counts, so the live rates match the baseline
            # exactly regardless of batch composition.
            for task in TASKS:
                serve_batch(runtime, [task], list(images[task]))
            loop = RecalibrationLoop(
                runtime, baseline, drift_threshold=0.01, min_images=16
            )
            event = loop.check_once()
        assert not event.triggered and not event.swapped
        assert event.drift is not None
        assert event.drift.max_rate_delta == 0.0
        assert event.drift.flipped_channels == 0

    def test_insufficient_traffic_never_triggers(self, deployment):
        _, plan, _, _ = deployment
        runtime = self.make_runtime(plan)
        with runtime:
            loop = RecalibrationLoop(runtime, CalibrationProfile(), min_images=64)
            event = loop.check_once()
        assert not event.triggered and event.drift is None
        assert "insufficient traffic" in event.reason

    def test_drift_respecializes_swaps_and_publishes(self, deployment, tmp_path):
        from repro.engine import calibrate_plan

        _, plan, _, _ = deployment
        baseline = calibrate_plan(plan, batch_size=32, seed=60)
        store = ModelStore(tmp_path / "store")
        runtime = self.make_runtime(plan)
        rng = np.random.default_rng(61)
        with runtime:
            loop = RecalibrationLoop(
                runtime,
                baseline,
                drift_threshold=0.2,
                min_images=32,
                store=store,
                artifact_name="online",
            )
            # Drifted traffic: near-zero inputs silence most channels.
            quiet = [0.01 * rng.normal(size=plan.input_shape) for _ in range(32)]
            for task in TASKS:
                serve_batch(runtime, [task], quiet)
            event = loop.check_once()
            assert event.triggered and event.swapped
            assert event.drift.max_rate_delta >= 0.2
            assert event.published_version == "v001"
            # The loop rolled its baseline and installed live-profile plans.
            assert loop.baseline is not baseline
            assert sorted(runtime.specialized) == sorted(TASKS)
            assert loop.swaps() == 1
            # The swapped-in plans keep serving, including on the drifted mix.
            serve_batch(runtime, list(TASKS), quiet[:8])
        published = store.load("v001")
        assert published.metadata["source"] == "online-recalibration"
        assert sorted(published.specialized_specs) == sorted(TASKS)

    def test_live_profile_is_reported_in_dense_coordinates(self, deployment):
        """Survival measured on compacted plans maps back onto dense channels,
        so profiles stay comparable across swaps."""
        network, plan, _, _ = deployment
        profile = structural_profile(plan, network)
        specialized = specialize_tasks(plan, profile=profile, compact_reduction=True)
        runtime = self.make_runtime(plan, specialized=specialized)
        rng = np.random.default_rng(70)
        with runtime:
            serve_batch(
                runtime, list(TASKS), [rng.normal(size=plan.input_shape) for _ in range(8)]
            )
            loop = RecalibrationLoop(runtime, profile, min_images=1)
            live = loop.live_profile()
        for task in TASKS:
            for layer in profile.layers(task):
                assert live.rates(task, layer).shape == profile.rates(task, layer).shape
                # Channels the specialization eliminated read as 0.0 survival.
                eliminated = ~specialized[task].live_channels.get(
                    layer, np.ones(profile.rates(task, layer).shape[0], dtype=bool)
                )
                assert np.all(live.rates(task, layer)[eliminated] == 0.0)

    def test_drift_ignores_tasks_below_the_min_images_gate(self, deployment):
        """A barely-served task's noisy survival must not trigger a swap."""
        from repro.engine import calibrate_plan

        _, plan, _, _ = deployment
        images = {
            task: np.random.default_rng(90 + i).normal(size=(16,) + tuple(plan.input_shape))
            for i, task in enumerate(TASKS)
        }
        baseline = calibrate_plan(plan, images=images)
        runtime = self.make_runtime(plan)
        with runtime:
            # alpha serves its full calibration batch (zero drift, ready);
            # beta serves a handful of wildly drifted images (not ready).
            serve_batch(runtime, ["alpha"], list(images["alpha"]))
            serve_batch(runtime, ["beta"], [np.zeros(plan.input_shape)] * 4)
            loop = RecalibrationLoop(runtime, baseline, drift_threshold=0.01, min_images=16)
            event = loop.check_once()
        assert not event.triggered and not event.swapped
        assert list(event.drift.per_task) == ["alpha"]  # beta never compared
        assert event.drift.max_rate_delta == 0.0

    def test_baseline_rolls_only_for_respecialized_tasks(self, deployment):
        """A task that kept its old specialization keeps its old baseline —
        its drift must still be judged against the profile its plans came
        from, not against whatever the window happened to measure."""
        from repro.engine import calibrate_plan

        _, plan, _, _ = deployment
        baseline = calibrate_plan(plan, batch_size=32, seed=97)
        original_beta = {
            layer: np.array(baseline.rates("beta", layer))
            for layer in baseline.layers("beta")
        }
        runtime = self.make_runtime(plan)
        rng = np.random.default_rng(98)
        with runtime:
            loop = RecalibrationLoop(runtime, baseline, drift_threshold=0.2, min_images=16)
            # Only alpha clears the gate with drifted traffic; beta serves a
            # trickle, gamma nothing.
            serve_batch(runtime, ["alpha"], [0.01 * rng.normal(size=plan.input_shape)
                                             for _ in range(16)])
            serve_batch(runtime, ["beta"], [np.zeros(plan.input_shape)] * 4)
            event = loop.check_once()
        assert event.swapped
        assert sorted(runtime.specialized) == ["alpha"]  # only alpha re-specialized
        for layer, rates in original_beta.items():
            np.testing.assert_array_equal(loop.baseline.rates("beta", layer), rates)
        assert sorted(loop.baseline.tasks()) == sorted(TASKS)

    def test_swap_event_recorded_even_when_store_publish_fails(self, deployment, tmp_path):
        from repro.engine import calibrate_plan

        _, plan, _, _ = deployment

        class ExplodingStore:
            def publish(self, artifact, version=None, set_latest=True):
                raise OSError("disk full")

        baseline = calibrate_plan(plan, batch_size=32, seed=95)
        runtime = self.make_runtime(plan)
        with runtime:
            loop = RecalibrationLoop(
                runtime, baseline, drift_threshold=0.2, min_images=16,
                store=ExplodingStore(),
            )
            drifted = [0.01 * np.random.default_rng(96).normal(size=plan.input_shape)
                       for _ in range(16)]
            for task in TASKS:
                serve_batch(runtime, [task], drifted)
            event = loop.check_once()
        # The swap happened and the record says so; the publish failure is
        # surfaced on the event instead of erasing it.
        assert event.triggered and event.swapped
        assert event.published_version is None
        assert "publish failed" in event.reason
        assert loop.swaps() == 1
        assert sorted(runtime.specialized) == sorted(TASKS)

    def test_channel_tracking_survives_width_changes_across_swaps(self, deployment):
        """A swap can change a layer's compacted width mid-window; accumulation
        restarts for that layer instead of raising a broadcast error."""
        recorder = SparsityRecorder(channel_tracking=True)
        recorder.record_channels("alpha", "conv1", np.array([1, 2, 3]), 4)
        recorder.record_channels("alpha", "conv1", np.array([5, 5]), 10)  # new geometry
        rates = recorder.survival_profile().rates("alpha", "conv1")
        np.testing.assert_allclose(rates, [0.5, 0.5])
        # Same rule when merging worker snapshots taken across a swap.
        other = SparsityRecorder(channel_tracking=True)
        other.record_channels("alpha", "conv1", np.array([1, 1, 1]), 2)
        recorder.merge_snapshot(other.snapshot())
        np.testing.assert_allclose(
            recorder.survival_profile().rates("alpha", "conv1"), [0.5, 0.5, 0.5]
        )

    def test_serving_survives_a_respecialization_that_changes_widths(self, deployment):
        """End to end: swap between specializations with different live sets
        while channel tracking is on — no failed requests, fresh window."""
        network, plan, _, _ = deployment
        profile = structural_profile(plan, network)
        narrow = dict(profile.survival)
        # Kill two extra (structurally live) channels of the first masked
        # layer for every task: a different compacted width after the swap.
        first_layer = plan.masked_layer_names()[0]
        for task in TASKS:
            rates = np.array(profile.survival[task][first_layer])
            rates[np.flatnonzero(rates > 0)[:2]] = 0.0
            narrow[task] = dict(narrow[task])
            narrow[task][first_layer] = rates
        narrow_profile = CalibrationProfile(
            survival=narrow, num_images=dict(profile.num_images)
        )
        wide = specialize_tasks(plan, profile=profile, compact_reduction=True)
        narrow_specialized = specialize_tasks(
            plan, profile=narrow_profile, compact_reduction=True
        )
        runtime = self.make_runtime(plan, specialized=wide)
        rng = np.random.default_rng(81)
        with runtime:
            serve_batch(
                runtime, list(TASKS), [rng.normal(size=plan.input_shape) for _ in range(8)]
            )
            runtime.swap(plan, specialized=narrow_specialized, timeout=60.0)
            serve_batch(
                runtime, list(TASKS), [rng.normal(size=plan.input_shape) for _ in range(8)]
            )
            report = runtime.report()
        assert report.errors == 0
        assert report.completed == 48

    def test_recalibration_reuses_cached_timings_for_unchanged_geometry(self):
        """Re-deploying a chooser-tuned model must not pay for re-timing.

        The deployment specializes with ``choose_kernels=True``, warming the
        process timing cache; a recalibration swap from the *same* structural
        profile re-compacts to identical layer geometries, so the swap-time
        chooser re-run must resolve every variant from cached measurements —
        zero new timings — and land on the same choices.
        """
        from repro.engine.kernels import TIMING_CACHE

        network = build_network(seed=46)
        plan = compile_network(network, dtype=np.float32)
        profile = structural_profile(plan, network)
        specialized = specialize_tasks(
            plan, profile=profile, compact_reduction=True, choose_kernels=True,
        )
        for spec in specialized.values():
            assert spec.kernel_choices, "deployment must be chooser-tuned"
        runtime = self.make_runtime(plan, specialized=specialized, workers=1)
        with runtime:
            loop = RecalibrationLoop(runtime, profile, min_images=1)
            misses_before = TIMING_CACHE.misses
            hits_before = TIMING_CACHE.hits
            # Drive the re-specialize+swap path directly with the deployment's
            # own profile: geometry is unchanged by construction, which is
            # exactly the common re-deploy case the cache exists for.
            loop._respecialize_and_swap(profile, list(TASKS))
            assert TIMING_CACHE.misses == misses_before, (
                "unchanged geometries must re-use cached timings, not re-time"
            )
            assert TIMING_CACHE.hits > hits_before
            for task in TASKS:
                swapped = runtime.specialized[task]
                assert swapped is not specialized[task], "swap must install fresh plans"
                assert swapped.kernel_choices == specialized[task].kernel_choices

    def test_background_loop_runs_and_stops(self, deployment):
        import time

        _, plan, _, _ = deployment
        runtime = self.make_runtime(plan, workers=1)
        with runtime:
            loop = RecalibrationLoop(runtime, CalibrationProfile(), interval=0.05)
            with loop:
                deadline = time.monotonic() + 5.0
                while not loop.events and time.monotonic() < deadline:
                    time.sleep(0.01)
            assert loop.events  # at least one check ran on the daemon thread
            assert loop._thread is None
        assert "insufficient traffic" in loop.events[0].reason
