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
    POOL_VARIANTS,
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
    plan = compile_network(network)
    plan.run(batch, "alpha")
    allocated = plan.num_workspace_buffers()
    assert allocated > 0
    buffers = dict(plan._workspaces._buffers)
    for _ in range(3):
        plan.run(batch, "beta")
    assert plan.num_workspace_buffers() == allocated  # same shapes, same buffers
    plan.run(batch[:2], "alpha")
    # A smaller batch runs on prefix views of the same buffers: nothing new.
    assert plan.num_workspace_buffers() == allocated
    assert all(plan._workspaces._buffers[key] is buf for key, buf in buffers.items())


@pytest.mark.parametrize("variant", ["im2col", "blocked"])
def test_every_batch_size_costs_what_the_largest_costs(network, variant):
    """One pool that ran batches 1..16 holds exactly a batch-16 pool's bytes."""
    from repro.engine import WorkspacePool, force_kernel_variant

    plan = compile_network(network)
    force_kernel_variant(plan, variant)
    images = np.random.default_rng(3).normal(size=(16, 3, 16, 16))
    swept, largest = WorkspacePool(), WorkspacePool()
    for n in range(1, 17):
        plan.run(images[:n], "alpha", workspaces=swept)
    plan.run(images, "alpha", workspaces=largest)

    def footprint(pool):
        return len(pool), sum(buf.nbytes for buf in pool._buffers.values())

    assert footprint(swept) == footprint(largest)


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
    first = pool.get(1, "buf", (4, 8), np.float32)
    first[:] = 7.0
    assert pool.get(1, "buf", (4, 8), np.float32) is first  # steady state: reused
    # A smaller leading extent is a prefix view of the same buffer.
    prefix = pool.get(1, "buf", (2, 8), np.float32)
    assert prefix.shape == (2, 8) and prefix.base is first
    # A larger one replaces it with a fresh zeroed buffer; still one entry.
    grown = pool.get(1, "buf", (6, 8), np.float32)
    assert grown.shape == (6, 8) and (grown == 0.0).all()
    assert not np.shares_memory(grown, first) and len(pool) == 1
    assert pool.get(1, "buf", (4, 8), np.float32).base is grown
    # Different trailing geometry or dtype: a separate zeroed entry, never a
    # stale view — the zero-from-allocation-time invariant depends on it.
    resized = pool.get(1, "buf", (4, 16), np.float32)
    assert resized.shape == (4, 16) and (resized == 0.0).all()
    retyped = pool.get(1, "buf", (4, 16), np.float64)
    assert retyped.dtype == np.float64 and (retyped == 0.0).all()
    assert len(pool) == 3


def _pool_reuse_case(network, case, monkeypatch):
    """(run(images, pool) -> logits) for one lowering or execution path."""
    from repro.engine import (
        calibrate_plan, force_kernel_variant, quantize_plan_kernels, specialize_tasks,
    )
    from repro.engine import kernels as K

    if case == "mixed":
        network.add_task("delta", 4, rng=np.random.default_rng(5))  # alpha's head width
    plan = compile_network(network, dtype=np.float64)
    if case == "mixed":
        return lambda x, pool: plan.run_mixed(
            x, [("alpha", "delta")[i % 2] for i in range(len(x))], workspaces=pool
        )
    profile = calibrate_plan(plan, batch_size=8, seed=4)
    if case == "exact-specialized":
        spec = specialize_tasks(plan, profile=profile, compact_reduction=False)["alpha"]
        return lambda x, pool: spec.run(x, "alpha", workspaces=pool)
    if case in ("int8", "int8spd"):
        monkeypatch.setattr(K, "_INT8SPD_WINS", True)
        quantize_plan_kernels(plan, profile, set_variant=False)
    assert force_kernel_variant(plan, case), f"no kernel accepts '{case}'"
    return lambda x, pool: plan.run(x, "alpha", workspaces=pool)


@pytest.mark.parametrize(
    "case",
    [*dict.fromkeys(CONV_VARIANTS + LINEAR_VARIANTS + POOL_VARIANTS), "exact-specialized", "mixed"],
)
def test_padded_workspace_large_then_small_batch_cannot_leak(network, case, monkeypatch):
    """A big-batch run must not contaminate a later small-batch run.

    Smaller batches run on prefix views of the big batch's buffers, so pad
    borders, dead im2col columns, scattered dead channels and the Winograd
    tile-plane tail must stay zero in every slab: running a large batch with
    extreme values and then a smaller batch through the same pool (and the
    reverse) must give exactly the same logits as a fresh pool, on every
    lowering, on an exact-mode specialized plan and on a coalesced batch.
    """
    from repro.engine import WorkspacePool

    run = _pool_reuse_case(network, case, monkeypatch)
    rng = np.random.default_rng(77)
    big = 1e6 * rng.normal(size=(16, 3, 16, 16))  # extreme values to make leaks loud
    small = rng.normal(size=(3, 3, 16, 16))

    shared = WorkspacePool()
    run(big, shared)
    np.testing.assert_array_equal(run(small, shared), run(small, WorkspacePool()))
    # And the reverse order (small warms the pool, big reuses it).
    shared2 = WorkspacePool()
    run(small, shared2)
    np.testing.assert_array_equal(run(big, shared2), run(big, WorkspacePool()))


def test_one_pool_safely_serves_dense_and_specialized_plans(network, batch):
    """Serving workers hold one pool while switching between per-task plans.

    Buffers are keyed by kernel identity, so a dense plan and a compacted
    specialized plan (same kernel indices, different shapes) must coexist in
    one pool without clobbering each other.
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


def test_mask_buffers_are_pooled_and_reused(network, batch):
    plan = compile_network(network)
    plan.run(batch, "alpha")
    allocated = plan.num_workspace_buffers()
    buffers = plan._workspaces._buffers
    mask_buffers = [buf for buf in buffers.values() if buf.dtype == np.bool_]
    assert mask_buffers, "threshold masks should live in pooled bool buffers"
    for _ in range(3):
        plan.run(batch, "beta")
    assert plan.num_workspace_buffers() == allocated  # steady state: no new buffers
