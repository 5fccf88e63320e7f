"""Sparsity-exploiting plan specialization and the dynamic sparse fast path.

Covers the PR's acceptance properties: calibration measuring per-channel
survival (engine- and mime-side, JSON round-trip), dead-channel elimination
producing bit-identical live-channel logits in the exact mode (every
registered architecture, every scheduling policy, 4-worker serving runtime),
ULP-level equivalence of the default throughput mode, the bit-exact dynamic
row-gather fast path with its autotuner, and effective-MAC accounting from
``EngineRunStats`` through the recorder into the hardware scenario report.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    CalibrationProfile,
    CompileError,
    MultiTaskEngine,
    RunContext,
    SCHEDULING_MODES,
    SparsityRecorder,
    SpecializedEnginePlan,
    autotune_dynamic_crossover,
    calibrate_plan,
    compile_network,
    enable_dynamic_sparse,
    profile_from_network,
    specialize_plan,
    specialize_tasks,
)
from repro.mime import MimeNetwork, add_structured_sparsity_task
from repro.models import available_models, build_model, extract_layer_shapes, vgg_tiny
from repro.models.vgg import VGG
from repro.serving import ServingRuntime

TASKS = ("alpha", "beta", "gamma")
#: Thresholds this high exceed any attainable pre-activation: the channel is
#: structurally dead for the task — it never fires on *any* input.
DEAD = 1e9


def _add_structured_tasks(network: MimeNetwork, rng: np.random.Generator, dead_fraction=0.5):
    for offset, name in enumerate(TASKS):
        add_structured_sparsity_task(
            network, name, 4 + offset, rng=rng,
            dead_fraction=dead_fraction, dead_threshold=DEAD,
        )
    return network


@pytest.fixture()
def network():
    rng = np.random.default_rng(7)
    backbone = vgg_tiny(num_classes=6, input_size=16, in_channels=3, rng=rng)
    net = MimeNetwork(backbone)
    net.eval()
    return _add_structured_tasks(net, rng)


@pytest.fixture()
def plan(network):
    return compile_network(network, dtype=np.float64)


@pytest.fixture()
def batch():
    return np.random.default_rng(21).normal(size=(9, 3, 16, 16))


def _profile_on(plan, batch):
    """Calibrate on the evaluation batch itself.

    The exactness contract is 'bit-identical for inputs whose dead channels
    match the profile'; calibrating on the evaluation inputs makes that hold
    by construction, on top of the structurally dead channels which can never
    fire anywhere.
    """
    return calibrate_plan(plan, images={name: batch for name in plan.task_names()})


# ------------------------------------------------------------------ calibration --
def test_calibration_detects_structurally_dead_channels(network, plan):
    profile = calibrate_plan(plan, batch_size=16, seed=3)
    assert sorted(profile.tasks()) == sorted(TASKS)
    for name in TASKS:
        task = network.registry.get(name)
        for mask_layer, param in zip(network.masks(), task.thresholds):
            rates = profile.rates(name, mask_layer.layer_name)
            structurally_dead = (param.data == DEAD).all(axis=tuple(range(1, param.data.ndim)))
            assert rates.shape[0] == param.data.shape[0]
            assert (rates[structurally_dead] == 0.0).all()
            assert (0.0 <= rates).all() and (rates <= 1.0).all()
        assert profile.num_images[name] == 16


def test_calibration_profile_json_roundtrip(plan, tmp_path):
    profile = calibrate_plan(plan, batch_size=8, seed=5)
    path = profile.save(tmp_path / "profile.json")
    loaded = CalibrationProfile.load(path)
    assert sorted(loaded.tasks()) == sorted(profile.tasks())
    for name in profile.tasks():
        for layer in profile.layers(name):
            np.testing.assert_allclose(loaded.rates(name, layer), profile.rates(name, layer))
    assert loaded.num_images == profile.num_images


def test_profile_from_network_matches_engine_calibration(network, plan, batch):
    images = {name: batch for name in TASKS}
    from_plan = calibrate_plan(plan, images=images)
    from_net = profile_from_network(network, images)
    for name in TASKS:
        for layer in from_plan.layers(name):
            np.testing.assert_allclose(
                from_net.rates(name, layer), from_plan.rates(name, layer), atol=1e-12,
                err_msg=f"mime-side and engine-side survival disagree for {name}/{layer}",
            )


def test_calibration_validation(plan):
    with pytest.raises(ValueError):
        calibrate_plan(plan, batch_size=0)
    profile = calibrate_plan(plan, batch_size=4, seed=0)
    with pytest.raises(KeyError):
        profile.rates("nope", "conv1")
    with pytest.raises(KeyError):
        profile.rates("alpha", "conv99")
    with pytest.raises(ValueError):
        profile.live_mask("alpha", "conv1", dead_threshold=1.0)


# -------------------------------------------------------------- specialization --
def test_exact_mode_is_bit_identical(plan, batch):
    profile = _profile_on(plan, batch)
    for name in TASKS:
        spec = specialize_plan(plan, name, profile, compact_reduction=False)
        dense = plan.run(batch, name)
        np.testing.assert_array_equal(
            dense, spec.run(batch, name),
            err_msg=f"exact-mode specialized logits diverge for task {name}",
        )
        assert not spec.compact_reduction


def test_default_mode_is_ulp_equivalent_and_saves_more(plan, batch):
    profile = _profile_on(plan, batch)
    for name in TASKS:
        exact = specialize_plan(plan, name, profile, compact_reduction=False)
        fast = specialize_plan(plan, name, profile)
        dense = plan.run(batch, name)
        out = fast.run(batch, name)
        np.testing.assert_allclose(out, dense, rtol=1e-12, atol=1e-12)
        assert (np.argmax(out, axis=1) == np.argmax(dense, axis=1)).all()
        assert fast.compact_reduction
        assert fast.specialized_macs_per_image <= exact.specialized_macs_per_image
        assert fast.mac_reduction() > 0.3  # ~50% dead channels compound across layers


def test_specialized_plan_shrinks_and_reports(plan, batch):
    profile = _profile_on(plan, batch)
    spec = specialize_plan(plan, "alpha", profile)
    assert isinstance(spec, SpecializedEnginePlan)
    assert spec.source_task == "alpha"
    assert spec.task_names() == ["alpha"]
    counts = spec.dead_channel_counts()
    assert set(counts) == set(plan.masked_layer_names())
    assert sum(counts.values()) > 0
    assert 0 < spec.specialized_macs_per_image < spec.dense_macs_per_image
    assert 0.0 < spec.mac_reduction() < 1.0
    # Masked GEMMs actually shrank to the live channel counts.
    for kernel, original in zip(
        [k for k in spec.kernels if hasattr(k, "weight_t")],
        [k for k in plan.kernels if hasattr(k, "weight_t")],
    ):
        assert kernel.weight_t.shape[1] <= original.weight_t.shape[1]


def test_specialization_errors(plan, batch):
    profile = _profile_on(plan, batch)
    with pytest.raises(KeyError):
        specialize_plan(plan, "nope", profile)
    spec = specialize_plan(plan, "alpha", profile)
    with pytest.raises(CompileError):
        specialize_plan(spec, "alpha", profile)
    with pytest.raises(CompileError):
        spec.add_task(object())
    with pytest.raises(ValueError):
        specialize_plan(plan, "alpha", profile, min_live=0)
    with pytest.raises(ValueError):
        specialize_plan(plan, "alpha", profile, dead_threshold=1.0)
    with pytest.raises(ValueError):
        specialize_plan(plan, "alpha", profile, compact_reduction=True, granularity=16)


def test_min_live_keeps_an_all_dead_layer_alive(network, batch):
    # Kill *every* channel of every masked layer for one task: min_live must
    # retain one channel per layer and the result must still match the dense
    # plan exactly (every masked activation is zero in both plans, so even
    # the reduction-compacted mode degenerates to bit equality: the logits
    # are exactly the head bias).
    rng = np.random.default_rng(3)
    task = network.add_task("void", 5, rng=rng)
    for param in task.thresholds:
        param.data[:] = DEAD
    plan = compile_network(network, dtype=np.float64)
    profile = _profile_on(plan, batch)
    spec = specialize_plan(plan, "void", profile)
    for live in spec.live_channels.values():
        assert live.sum() == 1
    np.testing.assert_array_equal(plan.run(batch, "void"), spec.run(batch, "void"))


def test_declined_compaction_reports_zero_eliminated_channels(plan, batch):
    # Exact mode on vgg_tiny: the narrow (8/16-wide) layers decline
    # compaction because 16-lane padding swallows the saving, and the FC
    # trunk always stays dense — dead_channel_counts must not claim their
    # dead channels were eliminated.
    profile = _profile_on(plan, batch)
    spec = specialize_plan(plan, "alpha", profile, compact_reduction=False)
    for layer, count in spec.dead_channel_counts().items():
        original = next(k for k in plan.kernels if getattr(k, "mask", None) and k.mask.layer_name == layer)
        compacted = next(k for k in spec.kernels if getattr(k, "mask", None) and k.mask.layer_name == layer)
        if compacted.weight_t.shape[1] == original.weight_t.shape[1]:
            assert count == 0, f"{layer} reports {count} eliminated channels but was not compacted"


def test_exact_mode_actually_compacts_wide_conv_layers():
    # vgg_small @ 32 has 32/64-wide convolutions with >=256 GEMM rows: exact
    # mode must genuinely shrink those while staying bit-identical.
    rng = np.random.default_rng(23)
    backbone = build_model("vgg_small", num_classes=6, input_size=32, in_channels=3, rng=rng)
    net = MimeNetwork(backbone)
    net.eval()
    _add_structured_tasks(net, rng, dead_fraction=0.6)
    plan = compile_network(net, dtype=np.float32)
    batch = rng.normal(size=(6, 3, 32, 32))
    profile = _profile_on(plan, batch)
    for name in TASKS:
        spec = specialize_plan(plan, name, profile, compact_reduction=False)
        shrunk = [
            (kernel.name, kernel.weight_t.shape[1], original.weight_t.shape[1])
            for kernel, original in zip(
                [k for k in spec.kernels if hasattr(k, "weight_t")],
                [k for k in plan.kernels if hasattr(k, "weight_t")],
            )
            if kernel.weight_t.shape[1] < original.weight_t.shape[1]
        ]
        assert shrunk, f"exact mode compacted nothing for task {name}"
        assert spec.specialized_macs_per_image < spec.dense_macs_per_image
        np.testing.assert_array_equal(
            plan.run(batch, name), spec.run(batch, name),
            err_msg=f"exact-mode vgg_small logits diverge for task {name}",
        )


# --------------------------------------------- engine / serving / policy sweep --
def test_engine_with_specialized_plans_matches_dense_under_every_policy(plan, batch):
    profile = _profile_on(plan, batch)
    specialized = specialize_tasks(plan, profile=profile, compact_reduction=False)
    for mode in SCHEDULING_MODES:
        dense_engine = MultiTaskEngine(plan, micro_batch=4)
        spec_engine = MultiTaskEngine(plan, micro_batch=4, specialized=specialized)
        for name in TASKS:
            dense_engine.submit(name, batch)
            spec_engine.submit(name, batch)
        dense_out, _ = dense_engine.run_pending(mode=mode)
        spec_out, stats = spec_engine.run_pending(mode=mode)
        assert stats.specialized_batches == stats.num_batches
        for index, (lhs, rhs) in enumerate(zip(dense_out, spec_out)):
            np.testing.assert_array_equal(
                lhs, rhs, err_msg=f"request {index} diverges under policy '{mode}'"
            )


@pytest.mark.parametrize("model_name", available_models())
def test_every_registry_model_specializes_bit_identically(model_name):
    """Satellite: specialization correctness for every registered architecture.

    VGG-family backbones must produce bit-identical live-channel logits after
    exact-mode specialization; non-VGG architectures are rejected by
    MimeNetwork up front (documented behaviour), which this sweep pins down.
    """
    rng = np.random.default_rng(17)
    kwargs = {"num_classes": 6, "in_channels": 3, "rng": rng}
    if model_name in ("vgg11", "vgg13", "vgg16", "vgg19"):
        kwargs.update(input_size=32, width_multiplier=0.25)  # full depth, CPU-scale width
    elif model_name.startswith("vgg"):
        kwargs.update(input_size=16)
    else:
        with pytest.raises(TypeError):
            MimeNetwork(build_model(model_name))
        return
    backbone = build_model(model_name, **kwargs)
    assert isinstance(backbone, VGG)
    net = MimeNetwork(backbone)
    net.eval()
    _add_structured_tasks(net, rng)
    plan = compile_network(net, dtype=np.float32)
    size = backbone.input_size
    batch = rng.normal(size=(3, 3, size, size))
    profile = _profile_on(plan, batch)
    specialized = specialize_tasks(plan, profile=profile, compact_reduction=False)
    for name in TASKS:
        np.testing.assert_array_equal(
            plan.run(batch, name),
            specialized[name].run(batch, name),
            err_msg=f"{model_name}: specialized logits diverge for task {name}",
        )


def test_serving_runtime_4_workers_specialized_matches_dense(plan, batch):
    profile = _profile_on(plan, batch)
    # Per-task counts are exact multiples of micro_batch and max_wait is far
    # above the drain time, so every batch closes on its *size* trigger with
    # a composition fixed by submission order.  That makes the dense and
    # specialized runs group identically — a bit-exact comparison is only
    # meaningful for identical GEMM row counts (BLAS may reassociate a row's
    # reduction differently for different batch heights).
    items = [(TASKS[i % len(TASKS)], batch[i % batch.shape[0]]) for i in range(36)]
    with ServingRuntime(plan, workers=4, micro_batch=4, max_wait=30.0) as dense_runtime:
        dense_results = [f.result(timeout=30.0) for f in dense_runtime.submit_many(items)]

    # Bit-exact specialization: logits must match the dense plan bit for bit.
    exact = specialize_tasks(plan, profile=profile, compact_reduction=False)
    runtime = ServingRuntime(plan, workers=4, micro_batch=4, max_wait=30.0, specialized=exact)
    with runtime:
        exact_results = [f.result(timeout=30.0) for f in runtime.submit_many(items)]
    for index, (lhs, rhs) in enumerate(zip(dense_results, exact_results)):
        np.testing.assert_array_equal(lhs, rhs, err_msg=f"request {index} diverges")

    # Default (throughput) specialization: ULP-equivalent, and the recorder
    # must see the executed MACs drop below the dense baseline.
    fast = specialize_tasks(plan, profile=profile)
    runtime = ServingRuntime(plan, workers=4, micro_batch=4, max_wait=30.0, specialized=fast)
    with runtime:
        fast_results = [f.result(timeout=30.0) for f in runtime.submit_many(items)]
    for lhs, rhs in zip(dense_results, fast_results):
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
    dense_macs, effective = runtime.recorder.mac_totals()
    assert dense_macs > 0 and 0 < effective < dense_macs


def test_serving_runtime_rejects_specialized_plan_for_unknown_task(plan, batch):
    profile = _profile_on(plan, batch)
    spec = specialize_plan(plan, "alpha", profile)
    with pytest.raises(KeyError):
        ServingRuntime(plan, specialized={"stranger": spec})


# ------------------------------------------------------------ dynamic fast path --
def _high_sparsity_network():
    """A task whose thresholds kill almost everything: many GEMM rows die."""
    rng = np.random.default_rng(5)
    backbone = vgg_tiny(num_classes=6, input_size=16, in_channels=3, rng=rng)
    net = MimeNetwork(backbone)
    net.eval()
    task = net.add_task("sparse", 4, rng=rng)
    for param in task.thresholds:
        param.data[:] = 3.0  # survives only on extreme activations
    return net


def test_dynamic_row_gather_is_bit_identical_and_saves_macs(batch):
    net = _high_sparsity_network()
    reference = compile_network(net, dtype=np.float64).run(batch, "sparse")
    plan = compile_network(net, dtype=np.float64)
    enable_dynamic_sparse(plan, gate=0.2, crossover=1.0)
    ctx = RunContext(plan.dynamic)
    out = plan.run(batch, "sparse", ctx=ctx)
    np.testing.assert_array_equal(reference, out)
    assert ctx.dynamic_gemms > 0
    assert ctx.effective_macs < ctx.dense_macs
    assert 0.0 < ctx.mac_reduction() < 1.0


def test_dynamic_row_gather_inside_image_blocks_is_bit_identical(monkeypatch):
    """The blocked conv gathers rows per image block, partial last block too.

    The block budget is shrunk so a 16-image batch splits into 3+3+3+3+3+1
    images on the 8x8 conv (and 6+6+4 on the 4x4 one); a coalesced batch
    additionally slices per-row thresholds alongside each block.
    """
    from repro.engine import kernels as K

    net = _high_sparsity_network()
    second = net.add_task("sparse2", 4, rng=np.random.default_rng(6))
    for param in second.thresholds:
        param.data[:] = 2.5
    plan = compile_network(net, dtype=np.float64)
    conv = plan.kernels[2]  # 8x8 outputs over a 72-wide reduction
    panel_bytes = conv.out_shape[1] * conv.out_shape[2] * conv.weight_t.shape[0] * 8
    monkeypatch.setattr(K, "_COLS_BLOCK_BYTES", 3 * panel_bytes)
    images = np.random.default_rng(9).normal(size=(16, 3, 16, 16))
    rows = ["sparse", "sparse2"] * 8
    runs = {
        "run": lambda ctx=None: plan.run(images, "sparse", ctx=ctx),
        "run_mixed": lambda ctx=None: plan.run_mixed(images, rows, ctx=ctx),
    }
    dense = {name: run() for name, run in runs.items()}  # plan.dynamic is None
    enable_dynamic_sparse(plan, gate=0.2, crossover=1.0)
    for name, run in runs.items():
        ctx = RunContext(plan.dynamic)
        np.testing.assert_array_equal(run(ctx), dense[name], err_msg=name)
        # More gathers than GEMM kernels: the convs gather once per block.
        assert ctx.dynamic_gemms > 3, name
        assert ctx.effective_macs < ctx.dense_macs, name


def test_dynamic_gate_keeps_dense_traffic_dense(plan, batch):
    # Thresholds of the fixture's *live* channels are small, but the first
    # conv sees a dense image: prev_sparsity starts at 0, so with a high gate
    # nothing triggers and the run is the plain dense execution.
    enable_dynamic_sparse(plan, gate=1.0, crossover=1.0)
    ctx = RunContext(plan.dynamic)
    out = plan.run(batch, "alpha", ctx=ctx)
    assert ctx.dynamic_gemms == 0
    assert ctx.effective_macs == ctx.dense_macs
    fresh = compile_network_like(plan, batch)
    np.testing.assert_array_equal(out, fresh)


def compile_network_like(plan, batch):
    """Dense reference run through the same plan without dynamic config."""
    saved, plan.dynamic = plan.dynamic, None
    try:
        return plan.run(batch, "alpha")
    finally:
        plan.dynamic = saved


def test_enable_dynamic_sparse_validation(plan):
    with pytest.raises(ValueError):
        enable_dynamic_sparse(plan, gate=1.5)
    with pytest.raises(ValueError):
        enable_dynamic_sparse(plan, crossover=-0.1)


def test_autotune_caches_per_layer_crossovers(plan):
    config = autotune_dynamic_crossover(plan, batch=2, fractions=(0.25, 0.5), repeats=1)
    assert plan.dynamic is config
    gemm_names = [k.name for k in plan.kernels if hasattr(k, "weight_t")]
    assert sorted(config.crossover) == sorted(gemm_names)
    for value in config.crossover.values():
        assert 0.0 <= value <= 1.0
    # Unknown layers fall back to the default crossover.
    assert config.crossover_for("unknown") == config.default_crossover


# ------------------------------------------------------------- MAC accounting --
def test_run_stats_report_effective_macs(plan, batch):
    profile = _profile_on(plan, batch)
    engine = MultiTaskEngine(plan, micro_batch=4)
    for name in TASKS:
        engine.submit(name, batch)
    _, dense_stats = engine.run_pending()
    assert dense_stats.dense_macs > 0
    assert dense_stats.effective_macs == dense_stats.dense_macs
    assert dense_stats.mac_reduction() == 0.0
    assert dense_stats.specialized_batches == 0

    engine.specialize(profile=profile)
    for name in TASKS:
        engine.submit(name, batch)
    _, stats = engine.run_pending()
    assert stats.specialized_batches == stats.num_batches
    assert 0 < stats.effective_macs < stats.dense_macs
    assert stats.mac_reduction() > 0.3
    summary = stats.summary()
    assert "effective MACs" in summary and "% saved" in summary


def test_recorder_mac_totals_flow_into_hardware_report(network, plan, batch):
    profile = _profile_on(plan, batch)
    engine = MultiTaskEngine(plan, micro_batch=4, specialized=specialize_tasks(plan, profile=profile))
    for name in TASKS:
        engine.submit(name, batch)
    engine.run_pending()
    dense, effective = engine.recorder.mac_totals()
    assert 0 < effective < dense
    assert engine.recorder.mac_reduction() == pytest.approx(1.0 - effective / dense)

    report = engine.hardware_report(extract_layer_shapes(network.backbone), conv_only=True)
    assert report.measured_dense_macs == dense
    assert report.measured_effective_macs == effective
    assert report.measured_mac_reduction() == pytest.approx(engine.recorder.mac_reduction())


def test_recorder_mac_validation_and_reset():
    recorder = SparsityRecorder()
    with pytest.raises(ValueError):
        recorder.record_macs(-1, 0)
    recorder.record_macs(100, 60)
    recorder.record_macs(100, 40)
    assert recorder.mac_totals() == (200, 100)
    assert recorder.mac_reduction() == pytest.approx(0.5)
    recorder.reset()
    assert recorder.mac_totals() == (0, 0)
    assert recorder.mac_reduction() == 0.0


def test_specialized_runs_record_dense_comparable_sparsity(plan, batch):
    """The sparsity profile driving the hardware simulator must not change
    when the same traffic is served by specialized plans: eliminated channels
    are exactly the channels the dense plan measured as masked, so they count
    as dead in the specialized measurement too (dense-channel normalisation).
    """
    profile = _profile_on(plan, batch)
    recorded = {}
    for label, specs in (
        ("dense", {}),
        ("exact", specialize_tasks(plan, profile=profile, compact_reduction=False)),
        ("default", specialize_tasks(plan, profile=profile)),
    ):
        engine = MultiTaskEngine(plan, micro_batch=4, specialized=specs)
        for name in TASKS:
            engine.submit(name, batch)
        engine.run_pending()
        recorded[label] = {name: engine.recorder.per_layer(name) for name in TASKS}
    for label in ("exact", "default"):
        for name in TASKS:
            for layer, dense_value in recorded["dense"][name].items():
                assert recorded[label][name][layer] == pytest.approx(dense_value, abs=1e-6), (
                    f"{label} run of {name}/{layer} records sparsity "
                    f"{recorded[label][name][layer]:.4f} vs dense {dense_value:.4f}"
                )
