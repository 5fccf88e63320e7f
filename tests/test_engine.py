"""The compiled multi-task inference engine.

Covers the PR's acceptance properties: engine/model output equivalence for
every registered task in both scheduling modes, compile() not perturbing the
training network, O(1) task plans, workspace reuse, request ordering, and the
measured-sparsity round-trip into the hardware simulator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    CONV_VARIANTS,
    LINEAR_VARIANTS,
    MultiTaskEngine,
    SparsityRecorder,
    compile_network,
)
from repro.hardware import LayerSparsityProfile, SystolicArraySimulator, mime_config
from repro.mime import MimeNetwork
from repro.models import extract_layer_shapes, vgg_tiny

TASKS = (("alpha", 4), ("beta", 7), ("gamma", 3))


@pytest.fixture()
def network(rng):
    backbone = vgg_tiny(num_classes=6, input_size=16, in_channels=3, rng=np.random.default_rng(0))
    net = MimeNetwork(backbone)
    net.eval()
    jitter = np.random.default_rng(99)
    for name, num_classes in TASKS:
        task = net.add_task(name, num_classes, rng=jitter)
        for param in task.thresholds:
            param.data += jitter.uniform(0.0, 0.15, size=param.data.shape)
    return net


@pytest.fixture()
def batch(rng):
    return rng.normal(size=(9, 3, 16, 16))


# ---------------------------------------------------------------- equivalence --
@pytest.mark.parametrize("mode", ["singular", "pipelined"])
def test_engine_matches_training_forward_for_every_task(network, batch, mode):
    plan = compile_network(network, dtype=np.float64)
    engine = MultiTaskEngine(plan, micro_batch=4)
    references = {}
    for name, _ in TASKS:
        references[name] = network.forward(batch, task=name)
        engine.submit(name, batch)
    outputs, stats = engine.run_pending(mode=mode)
    assert stats.num_images == len(TASKS) * batch.shape[0]
    cursor = 0
    for name, num_classes in TASKS:
        for row in range(batch.shape[0]):
            np.testing.assert_allclose(
                outputs[cursor], references[name][row], atol=1e-5,
                err_msg=f"task {name} image {row} diverges in {mode} mode",
            )
            assert outputs[cursor].shape == (num_classes,)
            cursor += 1


def test_float32_engine_is_close_and_agrees_on_predictions(network, batch):
    plan = compile_network(network)  # default dtype: float32
    assert plan.dtype == np.float32
    for name, _ in TASKS:
        reference = network.forward(batch, task=name)
        out = plan.run(batch, name)
        assert out.dtype == np.float32
        # Mask bits may flip for pre-activations within float32 epsilon of a
        # threshold, so compare loosely plus on argmax agreement.
        assert np.abs(out - reference).mean() < 1e-3
        assert (np.argmax(out, axis=1) == np.argmax(reference, axis=1)).mean() >= 0.8


def test_engine_matches_with_unmasked_classifier_hidden(rng, batch):
    backbone = vgg_tiny(num_classes=6, input_size=16, in_channels=3, rng=np.random.default_rng(1))
    net = MimeNetwork(backbone, mask_classifier_hidden=False)
    net.eval()
    net.add_task("solo", 5, rng=np.random.default_rng(2))
    plan = compile_network(net, dtype=np.float64)
    np.testing.assert_allclose(plan.run(batch, "solo"), net.forward(batch, task="solo"), atol=1e-5)


def test_engine_matches_with_headless_classifier(rng, batch):
    # No hidden FC trunk: the NHWC permutation must fold into the task heads.
    backbone = vgg_tiny(
        num_classes=6, input_size=16, in_channels=3, classifier_hidden=(),
        rng=np.random.default_rng(3),
    )
    net = MimeNetwork(backbone)
    net.eval()
    net.add_task("solo", 5, rng=np.random.default_rng(4))
    plan = compile_network(net, dtype=np.float64)
    assert plan.head_permutation is not None
    np.testing.assert_allclose(plan.run(batch, "solo"), net.forward(batch, task="solo"), atol=1e-5)


# ------------------------------------------------------------ compile hygiene --
def test_compile_leaves_training_network_untouched(network, batch):
    network.set_active_task("beta")
    before_state = network.state_dict()
    before_reference = network.forward(batch)
    before_sparsity = network.sparsity_by_layer()

    plan = compile_network(network, dtype=np.float32)
    engine = MultiTaskEngine(plan, micro_batch=4)
    for name, _ in TASKS:
        engine.submit(name, batch)
    engine.run_pending(mode="pipelined")

    assert network.active_task == "beta"
    after_state = network.state_dict()
    assert before_state.keys() == after_state.keys()
    for key, value in before_state.items():
        np.testing.assert_array_equal(value, after_state[key], err_msg=f"{key} changed")
    # Layer caches (and hence measured sparsity) still reflect the pre-compile pass.
    assert network.sparsity_by_layer() == before_sparsity
    np.testing.assert_array_equal(network.forward(batch), before_reference)


def test_mutating_the_training_network_does_not_leak_into_the_plan(network, batch):
    plan = compile_network(network, dtype=np.float64)
    expected = plan.run(batch, "alpha").copy()
    for task in network.registry:
        for param in task.thresholds:
            param.data += 10.0  # would prune everything if the plan aliased it
    np.testing.assert_array_equal(plan.run(batch, "alpha"), expected)


def test_add_task_after_compile(network, batch):
    plan = compile_network(network, dtype=np.float64)
    late = network.add_task("delta", 6, rng=np.random.default_rng(5))
    plan.add_task(late)
    np.testing.assert_allclose(plan.run(batch, "delta"), network.forward(batch, task="delta"), atol=1e-5)


def test_compile_rejects_non_mime_models():
    with pytest.raises(TypeError):
        compile_network(vgg_tiny(num_classes=4, input_size=16))


def test_plan_rejects_unknown_task_and_bad_shapes(network, batch):
    plan = compile_network(network)
    with pytest.raises(KeyError):
        plan.run(batch, "nope")
    with pytest.raises(ValueError):
        plan.run(np.zeros((2, 3, 8, 8)), "alpha")


def test_masked_layer_names_match_network(network):
    plan = compile_network(network)
    assert plan.masked_layer_names() == network.masked_layer_names()


# ---------------------------------------------------------------- scheduling --
def test_pipelined_mode_interleaves_and_singular_groups(network, batch):
    plan = compile_network(network)
    for mode, expected_switches in (("singular", 2), ("pipelined", 5)):
        engine = MultiTaskEngine(plan, micro_batch=5)
        for name, _ in TASKS:
            engine.submit(name, batch)  # 9 images -> 2 micro-batches per task
        _, stats = engine.run_pending(mode=mode)
        assert stats.num_batches == 6
        assert stats.task_switches == expected_switches
    with pytest.raises(ValueError):
        MultiTaskEngine(plan).process([], mode="bogus")


def test_outputs_come_back_in_submission_order(network, rng):
    plan = compile_network(network, dtype=np.float64)
    engine = MultiTaskEngine(plan, micro_batch=3)
    submissions = []
    order = np.random.default_rng(6)
    for _ in range(20):
        name, _ = TASKS[int(order.integers(0, len(TASKS)))]
        image = rng.normal(size=(3, 16, 16))
        engine.submit(name, image)
        submissions.append((name, image))
    outputs, _ = engine.run_pending(mode="pipelined")
    assert len(outputs) == len(submissions)
    for output, (name, image) in zip(outputs, submissions):
        np.testing.assert_allclose(output, plan.run(image[None], name)[0], atol=1e-12)


def test_workspace_buffers_are_reused_across_calls(network, batch):
    from repro.engine.plan import thread_workspaces

    plan = compile_network(network)
    plan.run(batch, "alpha")
    pool = thread_workspaces()  # the default pool of this thread
    footprint = (len(pool), pool.nbytes)
    assert footprint[1] > 0
    slabs = dict(pool._slabs)
    for _ in range(3):
        plan.run(batch, "beta")
    # Another plan of the same geometry shares the thread's pool.
    compile_network(network).run(batch, "gamma")
    # A smaller batch runs on views of the same slabs: nothing new.
    plan.run(batch[:2], "alpha")
    assert (len(pool), pool.nbytes) == footprint
    assert all(pool._slabs[label] is slab for label, slab in slabs.items())


@pytest.mark.parametrize("variant", ["blocked"])
def test_every_batch_size_costs_what_the_largest_costs(network, variant):
    """One pool that ran batches 1..16 holds exactly a batch-16 pool's slabs,
    plus the fixed 8-row padding that only batches under 8 rows need."""
    from repro.engine import WorkspacePool, force_kernel_variant

    plan = compile_network(network)
    force_kernel_variant(plan, variant)
    images = np.random.default_rng(3).normal(size=(16, 3, 16, 16))
    swept, largest, smallest = WorkspacePool(), WorkspacePool(), WorkspacePool()
    for n in range(1, 17):
        plan.run(images[:n], "alpha", workspaces=swept)
    plan.run(images, "alpha", workspaces=largest)
    plan.run(images[:1], "alpha", workspaces=smallest)

    def sizes(pool):
        return {label: slab.nbytes for label, slab in pool._slabs.items()}

    # ``matmul_rowsafe`` pads GEMMs under 8 rows to 8 (``rowpad``/``rowprod``):
    # those slabs do not grow with the batch, so batch 1 sizes them.
    padding = {label: sizes(smallest)[label] for label in ("rowpad", "rowprod")}
    assert "rowpad" not in sizes(largest)
    assert sizes(swept) == {**sizes(largest), **padding}


# ------------------------------------------------------------- hardware glue --
def test_measured_sparsity_round_trips_into_the_simulator(network, batch):
    plan = compile_network(network)
    engine = MultiTaskEngine(plan, micro_batch=4)
    for name, _ in TASKS:
        engine.submit(name, batch)
    engine.run_pending(mode="pipelined")

    profile = engine.sparsity_profile()
    assert isinstance(profile, LayerSparsityProfile)
    assert sorted(profile.tasks()) == sorted(name for name, _ in TASKS)
    for name, _ in TASKS:
        layers = profile.per_task[name]
        assert set(layers) == set(plan.masked_layer_names())
        assert all(0.0 <= value <= 1.0 for value in layers.values())

    schedule = engine.recorder.schedule()
    assert len(schedule) == len(TASKS) * batch.shape[0]
    shapes = extract_layer_shapes(network.backbone)
    result = SystolicArraySimulator().run(shapes, schedule, profile, mime_config())
    assert result.total_energy().total > 0
    report = engine.hardware_report(shapes, conv_only=True)
    assert set(report.layer_names()) == {s.name for s in shapes if s.kind == "conv"}


def test_recorder_accumulates_across_runs_unless_fresh(network, batch):
    plan = compile_network(network)
    engine = MultiTaskEngine(plan, micro_batch=4)
    engine.submit("alpha", batch)
    engine.run_pending()
    assert engine.recorder.num_images() == batch.shape[0]

    # By default the recorder covers the engine's whole lifetime...
    engine.submit("beta", batch)
    engine.run_pending()
    assert engine.recorder.num_images() == 2 * batch.shape[0]

    # ...and fresh_stats starts a new measurement window.
    engine.submit("gamma", batch)
    engine.run_pending(fresh_stats=True)
    assert engine.recorder.num_images() == batch.shape[0]
    assert engine.recorder.tasks() == ["gamma"]

    engine.reset_stats()
    assert engine.recorder.num_images() == 0
    assert engine.last_task is None


def test_task_switches_span_process_calls(network, batch):
    plan = compile_network(network)
    engine = MultiTaskEngine(plan, micro_batch=16)
    engine.submit("alpha", batch)
    _, first = engine.run_pending(mode="singular")
    assert first.task_switches == 0
    assert engine.last_task == "alpha"

    # The first batch of the next drain belongs to a different task: that is
    # a real switch the hardware would pay for, and the stats now count it.
    engine.submit("beta", batch)
    _, second = engine.run_pending(mode="singular")
    assert second.task_switches == 1

    # Same task again: no switch.
    engine.submit("beta", batch)
    _, third = engine.run_pending(mode="singular")
    assert third.task_switches == 0

    # A fresh window forgets the previous task.
    engine.submit("alpha", batch)
    _, fourth = engine.run_pending(mode="singular", fresh_stats=True)
    assert fourth.task_switches == 0


def test_run_stats_summary(network, batch):
    plan = compile_network(network)
    engine = MultiTaskEngine(plan, micro_batch=4)
    for name, _ in TASKS:
        engine.submit(name, batch)
    _, stats = engine.run_pending(mode="pipelined")
    summary = stats.summary()
    assert "pipelined" in summary
    assert str(stats.num_images) in summary
    assert str(stats.num_batches) in summary
    assert "task switches" in summary


def test_recorder_validation_and_reset():
    recorder = SparsityRecorder()
    with pytest.raises(ValueError):
        recorder.record("t", "conv1", 1.5, 1)
    with pytest.raises(ValueError):
        recorder.record("t", "conv1", 0.5, 0)
    with pytest.raises(KeyError):
        recorder.per_layer("missing")
    recorder.record("t", "conv1", 0.25, 4)
    recorder.record("t", "conv1", 0.75, 4)
    recorder.record_pass("t", 8)
    assert recorder.per_layer("t") == {"conv1": 0.5}
    assert recorder.mean_sparsity("t") == 0.5
    assert recorder.num_images() == 8
    recorder.reset()
    assert recorder.num_images() == 0 and recorder.tasks() == []


# ----------------------------------------------------- workspace pool hygiene --
def test_workspace_pool_reallocates_on_shape_or_dtype_change():
    from repro.engine import WorkspacePool

    pool = WorkspacePool()
    first = pool.get("buf", (4, 8), np.float32)
    assert pool.get("buf", (4, 8), np.float32) is first  # steady state: one lookup
    # Every request for one label is a view of its one slab, whatever the
    # shape or dtype: a smaller batch, another kernel's geometry, int masks.
    for shape, dtype in (((2, 8), np.float32), ((4, 4), np.float64), ((3, 5), np.bool_)):
        view = pool.get("buf", shape, dtype)
        assert view.shape == shape and view.dtype == dtype
        assert np.shares_memory(view, first)
    assert (len(pool), pool.nbytes) == (1, first.nbytes)
    # A larger request grows the slab, and no view of the old slab survives.
    grown = pool.get("buf", (6, 8), np.float32)
    assert not np.shares_memory(grown, first)
    again = pool.get("buf", (4, 8), np.float32)
    assert again is not first and np.shares_memory(again, grown)
    assert (len(pool), pool.nbytes) == (1, grown.nbytes)
    # Labels never alias one another.
    assert not np.shares_memory(pool.get("other", (6, 8), np.float32), grown)
    # Outputs alternate between two slabs: never the one holding the input.
    a = pool.output(np.zeros(1), (4, 8), np.float32)
    b = pool.output(a, (4, 8), np.float32)
    c = pool.output(b.reshape(-1), (32,), np.float32)
    assert not np.shares_memory(a, b) and not np.shares_memory(b, c)
    assert np.shares_memory(a, c)


def _scatter_plan(plan, task, offset=0):
    """Exact-mode specialization of ``task`` with every masked conv compacted.

    A third of each layer's channels are declared dead (which third depends
    on ``offset``) and lanes pad to 2, so every masked conv ends in a
    compacted GEMM with a pad lane, re-densified by a ChannelScatterKernel
    (exact mode never compacts FC layers).
    """
    from repro.engine import CalibrationProfile, ChannelScatterKernel, specialize_plan

    survival = {
        kernel.mask.layer_name: (np.arange(kernel.weight_t.shape[1]) % 3 != offset).astype(float)
        for kernel in plan.kernels
        if getattr(kernel, "mask", None) is not None
    }
    profile = CalibrationProfile(survival={task: survival}, num_images={task: 1})
    spec = specialize_plan(
        plan, task, profile, compact_reduction=False, granularity=2, exact_min_rows=1
    )
    convs = sum(mask.kind == "conv" for mask in plan.mask_specs)
    assert sum(isinstance(k, ChannelScatterKernel) for k in spec.kernels) == convs
    return spec


def _pool_reuse_case(network, case):
    """(run(images, pool) -> logits) for one lowering or execution path."""
    from repro.engine import calibrate_plan, force_kernel_variant, quantize_plan_kernels

    if case == "mixed":
        network.add_task("delta", 4, rng=np.random.default_rng(5))  # alpha's head width
    plan = compile_network(network, dtype=np.float64)
    if case == "mixed":
        return lambda x, pool: plan.run_mixed(
            x, [("alpha", "delta")[i % 2] for i in range(len(x))], workspaces=pool
        )
    if case == "exact-specialized":
        spec = _scatter_plan(plan, "alpha")
        return lambda x, pool: spec.run(x, "alpha", workspaces=pool)
    profile = calibrate_plan(plan, batch_size=8, seed=4)
    if case == "int8":
        quantize_plan_kernels(plan, profile, set_variant=False)
    assert force_kernel_variant(plan, case), f"no kernel accepts '{case}'"
    return lambda x, pool: plan.run(x, "alpha", workspaces=pool)


@pytest.mark.parametrize(
    "case",
    [*dict.fromkeys(CONV_VARIANTS + LINEAR_VARIANTS), "exact-specialized", "mixed"],
)
def test_padded_workspace_large_then_small_batch_cannot_leak(network, case):
    """A big-batch run must not contaminate a later small-batch run.

    Every slab is shared by every kernel of every plan and starts
    uninitialised, so pad borders and scattered dead channels must be
    restored on every call: running a large batch
    with extreme values and then a smaller batch through the same pool (and
    the reverse) must give exactly the same logits as a fresh pool, on every
    lowering, on an exact-mode specialized plan and on a coalesced batch —
    also when a different plan (another task's exact-mode specialization,
    with its own scatter) runs through the pool in between.
    """
    from repro.engine import WorkspacePool

    run = _pool_reuse_case(network, case)
    other = _scatter_plan(compile_network(network, dtype=np.float64), "beta", offset=1)
    rng = np.random.default_rng(77)
    big = 1e6 * rng.normal(size=(16, 3, 16, 16))  # extreme values to make leaks loud
    small = rng.normal(size=(3, 3, 16, 16))

    # Both orders: big warms the pool and small reuses it, then the reverse.
    for first, second in ((big, small), (small, big)):
        for between in (False, True):
            shared = WorkspacePool()
            run(first, shared)
            if between:
                other.run(big, "beta", workspaces=shared)
            np.testing.assert_array_equal(run(second, shared), run(second, WorkspacePool()))


def test_one_pool_safely_serves_dense_and_specialized_plans(network, batch):
    """Serving workers hold one pool while switching between per-task plans.

    Slabs are keyed by buffer lifetime, not by kernel, so a dense plan and a
    compacted specialized plan (different shapes under every label) take
    turns in the same memory and must never see each other's leftovers.
    """
    from repro.engine import WorkspacePool, calibrate_plan, specialize_tasks

    plan = compile_network(network, dtype=np.float64)
    profile = calibrate_plan(plan, images={name: batch for name, _ in TASKS})
    specialized = specialize_tasks(plan, profile=profile)
    pool = WorkspacePool()
    for _ in range(2):  # interleave: dense, specialized, dense, specialized
        dense_out = plan.run(batch, "alpha", workspaces=pool)
        spec_out = specialized["alpha"].run(batch, "alpha", workspaces=pool)
    np.testing.assert_array_equal(dense_out, plan.run(batch, "alpha"))
    np.testing.assert_array_equal(spec_out, specialized["alpha"].run(batch, "alpha"))


def test_threads_running_plans_concurrently_use_their_own_pools(network, batch):
    """Each thread's default pool is its own, so concurrent runs never clash.

    Four threads (more than the cores this runs on) interleave dense and
    specialized plans over the same immutable plan objects with the
    interpreter switching threads as often as it can; every output must
    equal the one a private pool produces.
    """
    import sys
    import threading

    from repro.engine import WorkspacePool, calibrate_plan, specialize_tasks

    plan = compile_network(network, dtype=np.float64)
    profile = calibrate_plan(plan, images={name: batch for name, _ in TASKS})
    specialized = specialize_tasks(plan, profile=profile)
    runs = [(p, name) for name, _ in TASKS for p in (plan, specialized[name])]
    expected = [p.run(batch, name, workspaces=WorkspacePool()) for p, name in runs]
    mismatches = []

    def worker(offset: int) -> None:
        for step in range(24):
            index = (offset + step) % len(runs)
            p, name = runs[index]
            if not np.array_equal(p.run(batch, name), expected[index]):
                mismatches.append((offset, step))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_mask_buffers_are_pooled_and_reused(network, batch):
    from repro.engine import WorkspacePool

    plan = compile_network(network)
    pool = WorkspacePool()
    plan.run(batch, "alpha", workspaces=pool)
    mask = pool._slabs.get("mask")
    assert mask is not None, "threshold masks should live in a pooled slab"
    footprint = (len(pool), pool.nbytes)
    for _ in range(3):
        plan.run(batch, "beta", workspaces=pool)
    assert (len(pool), pool.nbytes) == footprint  # steady state: no new buffers
    assert pool._slabs["mask"] is mask


def test_warm_runs_allocate_no_workspace_memory(network):
    """A warm ``run`` and ``run_mixed`` allocate nothing workspace-sized.

    What remains is the logits (the channels-last input copy lives in the
    pool too); any kernel buffer taken outside the pool would at least
    double the traced peak.
    """
    import tracemalloc

    network.add_task("delta", 4, rng=np.random.default_rng(5))  # alpha's head width
    plan = compile_network(network)
    images = np.random.default_rng(8).normal(size=(16, 3, 16, 16)).astype(np.float32)
    row_tasks = [("alpha", "delta")[i % 2] for i in range(len(images))]
    calls = {
        "run": lambda: plan.run(images, "alpha"),
        "run_mixed": lambda: plan.run_mixed(images, row_tasks),
    }
    for call in calls.values():
        call()  # warm the thread's default pool
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * images.nbytes, f"{name} peaked at {peak} bytes"


@pytest.mark.parametrize("rows", [1, 3])
def test_warm_small_batches_allocate_only_their_logits(rows):
    """Small warm batches take every batch-sized temporary from the pool.

    A warm ``run`` and ``run_mixed`` of 1 or 3 rows, and one warm serving
    batch (which also stacks the request images), must peak under the bytes
    of the images themselves: a fresh stack, channels-last copy or 8-row
    GEMM pad would each add about that much.  The images are 64x64 so that
    one of them outweighs what any small call allocates regardless of the
    batch, chiefly NumPy's ufunc iterator buffer (up to 8192 elements, about
    33 KB) on broadcasting ops such as the bias add.
    """
    import tracemalloc

    from repro.engine import WorkspacePool
    from repro.serving import ServingRuntime

    backbone = vgg_tiny(num_classes=6, input_size=64, in_channels=3,
                        rng=np.random.default_rng(0))
    network = MimeNetwork(backbone)
    network.eval()
    for name in ("alpha", "delta"):
        network.add_task(name, 4, rng=np.random.default_rng(5))
    plan = compile_network(network)
    images = np.random.default_rng(8).normal(size=(rows, 3, 64, 64)).astype(np.float32)
    row_tasks = [("alpha", "delta")[i % 2] for i in range(rows)]
    runtime = ServingRuntime(plan, micro_batch=rows, max_wait=10.0, workers=1)
    pool = WorkspacePool()

    def serve_one_batch():
        for image in images:
            runtime.submit("alpha", image)
        batch = runtime._batcher.next_batch()
        tracemalloc.start()
        try:
            runtime._execute(batch, (0, pool), None)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            runtime._batcher.task_done()

    calls = {
        "run": lambda: plan.run(images, "alpha"),
        "run_mixed": lambda: plan.run_mixed(images, row_tasks),
    }
    for call in calls.values():
        call()  # warm the thread's default pool
    serve_one_batch()  # warm the worker's pool
    peaks = {"serving batch": serve_one_batch()}
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    runtime.stop(drain=False)
    over = {name: peak for name, peak in peaks.items() if peak >= images.nbytes}
    assert not over, f"{rows}-row warm calls peaked at {over} bytes (images: {images.nbytes})"


def test_calibrate_plan_leaves_no_scratch_behind(network, monkeypatch):
    """Calibration runs on a private pool: its batch-32 scratch is freed.

    Pool slabs are memory mappings, which tracemalloc does not see, so the
    pools calibration creates are tracked directly; tracemalloc covers
    everything else it allocates.
    """
    import gc
    import importlib
    import tracemalloc
    import weakref

    from repro.engine import calibrate_plan

    calibration = importlib.import_module("repro.engine.calibrate")
    pools, largest = [], [0]

    class TrackedPool(calibration.WorkspacePool):
        def __init__(self) -> None:
            super().__init__()
            pools.append(weakref.ref(self))

        def get(self, label, shape, dtype):
            view = super().get(label, shape, dtype)
            largest[0] = max(largest[0], self.nbytes)
            return view

    monkeypatch.setattr(calibration, "WorkspacePool", TrackedPool)
    plan = compile_network(network, dtype=np.float64)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        profile = calibrate_plan(plan, batch_size=32, seed=0)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert profile.tasks() == plan.task_names()
    assert pools and largest[0] > 1 << 20  # the scratch really was that large...
    assert all(pool() is None for pool in pools)  # ...its pool did not outlive the call
    assert after - before < 1 << 20  # ...and neither did anything else
