"""Unit tests for the kernel-variant subsystem (``repro.engine.kernels``).

The differential harness (``tests/test_differential.py``) proves whole-plan
equivalence of every variant; this file pins down the component-level
contracts — panel construction, block partitioning, the blocked variant's
packed-panel lane alignment and split proof, quantization round-trip, the
chooser's candidate set, timing-cache dedupe, choice-map replay, variant
traffic accounting, and max pooling against a reference reduction on
aligned, unaligned (the ``out_shape`` geometry fix) and overlapping windows.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine import SparsityRecorder, calibrate_plan, compile_network
from repro.engine import kernels as K
from repro.engine.kernels import (
    KernelTimingCache,
    apply_kernel_choices,
    autotune_kernel_variants,
    copy_window_strips,
    kernel_timing_key,
    packed_weight_panels,
    quantize_gemm,
    quantize_plan_kernels,
    variant_candidates,
)
from repro.engine.plan import (
    ConvGemmMaskKernel,
    LinearMaskKernel,
    MaxPoolKernel,
    WorkspacePool,
)
from repro.mime import MimeNetwork, add_structured_sparsity_task
from repro.models import vgg_tiny
from tests.conftest import reference_conv


def make_linear_kernel(rng, d_in, d_out, mask=False, dtype=np.float32):
    """A standalone FC kernel plus a duck-typed task for direct ``run`` calls."""
    weight_t = rng.normal(size=(d_in, d_out)).astype(dtype)
    bias = rng.normal(size=d_out).astype(dtype)
    spec = SimpleNamespace(slot=0, layer_name="fc") if mask else None
    kernel = LinearMaskKernel(
        index=0, name="gemm0", weight_t=weight_t, bias=bias, mask=spec,
    )
    thresholds = [np.abs(rng.normal(size=d_out)).astype(dtype) * 0.1]
    task = SimpleNamespace(name="t", thresholds=thresholds)
    return kernel, task


def make_conv_kernel(rng, c_in, c_out, hw, k=3, s=1, p=1, mask=False, dtype=np.float32):
    """A standalone conv kernel plus a duck-typed task for direct ``run`` calls."""
    h_out = (hw + 2 * p - k) // s + 1
    weight_t = rng.normal(size=(k * k * c_in, c_out)).astype(dtype)
    bias = rng.normal(size=c_out).astype(dtype)
    spec = SimpleNamespace(slot=0, layer_name="conv") if mask else None
    kernel = ConvGemmMaskKernel(
        index=0, name="gemm0", weight_t=weight_t, bias=bias,
        kernel_size=k, stride=s, padding=p,
        in_shape=(c_in, hw, hw), out_shape=(c_out, h_out, h_out), mask=spec,
    )
    thresholds = [np.abs(rng.normal(size=(h_out * h_out, c_out))).astype(dtype) * 0.1]
    task = SimpleNamespace(name="t", thresholds=thresholds)
    return kernel, task


def naive_im2col(src, n, h_out, w_out, k, s, c_in):
    cols = np.empty((n * h_out * w_out, k * k * c_in), src.dtype)
    view = cols.reshape(n, h_out, w_out, k, k, c_in)
    for ky in range(k):
        for kx in range(k):
            view[:, :, :, ky, kx, :] = src[:, ky : ky + s * h_out : s, kx : kx + s * w_out : s, :]
    return cols


# ------------------------------------------------------------ panel builder ----
@pytest.mark.parametrize("k,s,hw,c_in", [(3, 1, 8, 4), (3, 2, 9, 3), (2, 2, 8, 5), (5, 1, 11, 2)])
def test_copy_window_strips_equals_naive_im2col(k, s, hw, c_in):
    rng = np.random.default_rng(7)
    n = 3
    h_out = (hw - k) // s + 1
    src = np.ascontiguousarray(rng.normal(size=(n, hw, hw, c_in)).astype(np.float32))
    cols = np.empty((n * h_out * h_out, k * k * c_in), np.float32)
    copy_window_strips(cols, src, n, h_out, h_out, k, s, c_in)
    np.testing.assert_array_equal(cols, naive_im2col(src, n, h_out, h_out, k, s, c_in))


# ------------------------------------------------------------ conv variants ----
def test_direct_1x1_conv_is_bit_identical_to_im2col():
    """1x1/stride-1 direct conv degenerates to the monolithic im2col GEMM."""
    rng = np.random.default_rng(11)
    kernel, task = make_conv_kernel(rng, c_in=6, c_out=5, hw=7, k=1, s=1, p=0, mask=True)
    x = rng.normal(size=(4, 7, 7, 6)).astype(np.float32)
    ref = reference_conv(kernel, x, task)
    kernel.variant = "direct"
    out = kernel.run(x.copy(), task, WorkspacePool(), None)
    np.testing.assert_array_equal(out, ref)


def test_blocked_conv_bit_identical_across_partial_blocks(monkeypatch):
    """Odd batch sizes leave a partial final image block; bits must not move."""
    rng = np.random.default_rng(13)
    kernel, task = make_conv_kernel(rng, c_in=4, c_out=6, hw=10, mask=True)
    # Shrink the panel budget so a 5-image batch splits into 2+2+1 blocks.
    panel_bytes = 100 * kernel.weight_t.shape[0] * 4
    monkeypatch.setattr(K, "_COLS_BLOCK_BYTES", 2 * panel_bytes)
    for n in (1, 2, 5):
        x = rng.normal(size=(n, 10, 10, 4)).astype(np.float32)
        out = kernel.run(x.copy(), task, WorkspacePool(), None)
        np.testing.assert_array_equal(out, reference_conv(kernel, x, task), err_msg=f"batch {n}")


# ------------------------------------------------------------- packed panels ----
def test_packed_panels_cover_lanes_and_stay_contiguous(monkeypatch):
    rng = np.random.default_rng(73)
    kernel, _ = make_conv_kernel(rng, c_in=4, c_out=50, hw=8)
    # Shrink the budget so 50 output columns split into several panels, and
    # pin the host proof to "exact" so the geometry contract is tested
    # deterministically on any BLAS.
    monkeypatch.setattr(K, "_PACKED_PANEL_BYTES", kernel.weight_t.shape[0] * 4 * 20)
    monkeypatch.setattr(K, "_packed_split_exact", lambda weight_t, panels: True)
    panels = packed_weight_panels(kernel)
    assert len(panels) > 1
    cursor = 0
    for j0, j1, panel in panels:
        assert j0 == cursor and j1 > j0
        assert j0 % K._PACKED_PANEL_LANES == 0, "cuts must fall on lane multiples"
        assert panel.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(panel, kernel.weight_t[:, j0:j1])
        cursor = j1
    assert cursor == kernel.weight_t.shape[1], "panels must tile every column"
    assert packed_weight_panels(kernel) is panels, "second call must reuse the cache"


def test_packed_single_panel_reuses_weight_memory():
    rng = np.random.default_rng(79)
    kernel, _ = make_conv_kernel(rng, c_in=2, c_out=8, hw=8)
    panels = packed_weight_panels(kernel)
    assert len(panels) == 1
    assert np.shares_memory(panels[0][2], kernel.weight_t)


def test_blocked_conv_bit_identical_across_panel_splits(monkeypatch):
    """Bit-identity is unconditional: whether the host proof kept the split
    or collapsed it, ``blocked`` must reproduce the monolithic GEMM exactly."""
    rng = np.random.default_rng(83)
    kernel, task = make_conv_kernel(rng, c_in=4, c_out=40, hw=8, mask=True)
    monkeypatch.setattr(K, "_PACKED_PANEL_BYTES", 36 * 4 * 18)
    x = rng.normal(size=(3, 8, 8, 4)).astype(np.float32)
    ref = reference_conv(kernel, x, task)
    out = kernel.run(x.copy(), task, WorkspacePool(), None)
    assert kernel.packed is packed_weight_panels(kernel), "blocked must run on the panels"
    np.testing.assert_array_equal(out, ref)


def test_packed_split_collapses_when_host_proof_fails(monkeypatch):
    rng = np.random.default_rng(87)
    kernel, _ = make_conv_kernel(rng, c_in=4, c_out=50, hw=8)
    monkeypatch.setattr(K, "_PACKED_PANEL_BYTES", kernel.weight_t.shape[0] * 4 * 20)
    monkeypatch.setattr(K, "_packed_split_exact", lambda weight_t, panels: False)
    panels = packed_weight_panels(kernel)
    assert len(panels) == 1
    assert panels[0][:2] == (0, 50)
    assert panels[0][2].flags["C_CONTIGUOUS"]


# ------------------------------------------------------------------ pooling ----
def reference_pool(x, k, s, h_out, w_out):
    """Max pooling as one reduction over a 6-D view of the input.

    Windows that tile the input (stride == kernel) are a plain reshape of its
    leading ``k*h_out x k*w_out`` corner; overlapping windows are the strided
    sliding-window view.  Either way the maximum is taken in one ``np.max``.
    """
    n, _, _, c = x.shape
    if s == k:
        corner = x[:, : k * h_out, : k * w_out]
        return corner.reshape(n, h_out, k, w_out, k, c).max(axis=(2, 4))
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))
    return windows[:, ::s, ::s][:, :h_out, :w_out].max(axis=(4, 5))


def run_pool(k, s, h, h_out, c, seed):
    rng = np.random.default_rng(seed)
    pool = MaxPoolKernel(index=0, kernel_size=k, stride=s, out_shape=(c, h_out, h_out))
    x = rng.normal(size=(3, h, h, c)).astype(np.float32)
    out = pool.run(x, SimpleNamespace(name="t", thresholds=[]), WorkspacePool(), None)
    assert out.shape == (3, h_out, h_out, c)
    np.testing.assert_array_equal(out, reference_pool(x, k, s, h_out, h_out))


def test_overlapping_pool_matches_naive_reference():
    """stride < kernel: windows share elements."""
    run_pool(k=3, s=2, h=9, h_out=4, c=4, seed=17)


def test_pool_out_shape_governs_unaligned_input():
    """Regression: geometry comes from ``out_shape``, not from reshape math.

    A 5-wide input with k=s=2 floors to 2 output positions and leaves a
    dangling row/column, which the cascade must ignore.
    """
    run_pool(k=2, s=2, h=5, h_out=2, c=3, seed=19)


def test_aligned_pool_views_match_reshape_bitwise():
    run_pool(k=2, s=2, h=8, h_out=4, c=6, seed=23)


# ------------------------------------------------------------- quantization ----
def test_quantize_gemm_round_trip_properties():
    rng = np.random.default_rng(29)
    weight_t = rng.normal(size=(36, 9)).astype(np.float32)
    q = quantize_gemm(weight_t, in_absmax=3.0)
    assert np.array_equal(q.weight_q, np.rint(q.weight_q)), "weights must be integer-valued"
    assert np.abs(q.weight_q).max() <= 127.0
    # Per-output-channel scales: dequantized weights land within half a step.
    dequant = q.weight_q * q.w_scale
    assert np.all(np.abs(dequant - weight_t) <= q.w_scale / 2 + 1e-7)
    np.testing.assert_allclose(q.scale, q.w_scale * q.in_scale, rtol=1e-6)
    assert q.in_scale == pytest.approx(3.0 * 1.05 / 127.0)


def small_plan(seed=31, tasks=2, dtype=np.float32):
    rng = np.random.default_rng(seed)
    backbone = vgg_tiny(num_classes=6, input_size=16, in_channels=3, rng=rng)
    network = MimeNetwork(backbone)
    network.eval()
    for i in range(tasks):
        add_structured_sparsity_task(
            network, f"task{i}", num_classes=6, rng=rng,
            dead_fraction=0.25, threshold_jitter=0.2,
        )
    return compile_network(network, dtype=dtype)


def test_quantize_plan_requires_calibrated_ranges():
    plan = small_plan()
    with pytest.raises(KeyError, match="activation range"):
        quantize_plan_kernels(plan, SimpleNamespace(ranges={}))


def test_int8_guard_band_keeps_first_layer_decisions_exact():
    """Near-threshold slots are recomputed in float: the first masked layer's
    survive/kill pattern must equal the float32 kernel's exactly."""
    plan = small_plan(seed=37)
    profile = calibrate_plan(plan, batch_size=8, seed=37)
    quantized = small_plan(seed=37)
    quantize_plan_kernels(quantized, profile, set_variant=True)
    rng = np.random.default_rng(41)
    x = np.abs(rng.normal(size=(8, 16, 16, 3))).astype(np.float32)
    f_kernel = next(k for k in plan.kernels if getattr(k, "kind", None) == "conv")
    q_kernel = next(k for k in quantized.kernels if getattr(k, "kind", None) == "conv")
    task_f = plan.tasks[plan.task_names()[0]]
    task_q = quantized.tasks[quantized.task_names()[0]]
    ref = f_kernel.run(x.copy(), task_f, WorkspacePool(), None)
    out = q_kernel.run(x.copy(), task_q, WorkspacePool(), None)
    assert q_kernel.variant == "int8"
    np.testing.assert_array_equal(out == 0.0, ref == 0.0)


def test_calibrate_plan_records_activation_ranges():
    plan = small_plan(seed=43)
    profile = calibrate_plan(plan, batch_size=4, seed=43)
    gemm_names = {k.name for k in plan.kernels if getattr(k, "kind", None) in ("conv", "linear")}
    for task, ranges in profile.ranges.items():
        assert gemm_names <= set(ranges), f"task {task} missing ranges"
        assert all(value > 0.0 for value in ranges.values())


# ------------------------------------------------------------------ chooser ----
def test_variant_candidates_are_the_lowerings_that_win():
    """The chooser offers exactly the kept lowerings, default first."""
    rng = np.random.default_rng(131)
    conv, _ = make_conv_kernel(rng, c_in=4, c_out=6, hw=8)
    strided, _ = make_conv_kernel(rng, c_in=4, c_out=6, hw=9, s=2)
    quantized_conv, _ = make_conv_kernel(rng, c_in=4, c_out=6, hw=8)
    quantized_conv.quant = quantize_gemm(quantized_conv.weight_t, in_absmax=4.0)
    fc, _ = make_linear_kernel(rng, d_in=12, d_out=5)
    quantized_fc, _ = make_linear_kernel(rng, d_in=12, d_out=5)
    quantized_fc.quant = quantize_gemm(quantized_fc.weight_t, in_absmax=4.0)
    pool = MaxPoolKernel(index=0, kernel_size=2, stride=2, out_shape=(6, 4, 4))
    assert list(variant_candidates(conv)) == ["blocked", "direct"]
    assert list(variant_candidates(strided)) == ["blocked"]
    assert list(variant_candidates(quantized_conv)) == ["blocked", "direct", "int8"]
    assert list(variant_candidates(fc)) == ["dense"]
    assert list(variant_candidates(quantized_fc)) == ["dense", "int8"]
    assert list(variant_candidates(pool)) == []
    assert K.CONV_VARIANTS == ("blocked", "direct", "int8")
    assert K.LINEAR_VARIANTS == ("dense", "int8")


def test_autotuner_caches_choices_and_sets_variants():
    plan = small_plan(seed=47)
    choices = autotune_kernel_variants(plan, batch=2, repeats=1, seed=0)
    eligible = {k.name for k in plan.kernels if variant_candidates(k)}
    assert set(choices) == eligible
    assert plan.kernel_choices == choices
    for kernel in plan.kernels:
        if getattr(kernel, "name", None) in choices:
            assert kernel.variant == choices[kernel.name]
            assert choices[kernel.name] in variant_candidates(kernel)


def test_apply_kernel_choices_strict_and_lenient():
    plan = small_plan(seed=53)
    conv = next(k.name for k in plan.kernels if getattr(k, "kind", None) == "conv")
    applied = apply_kernel_choices(plan, {conv: "blocked"})
    assert applied == {conv: "blocked"}
    assert plan.kernel_choices == {conv: "blocked"}
    # Unknown kernel name: strict raises, lenient skips.
    with pytest.raises(KeyError, match="does not have"):
        apply_kernel_choices(plan, {"nope": "blocked"})
    assert apply_kernel_choices(plan, {"nope": "blocked"}, strict=False) == {}
    # Ineligible variant (int8 without quantization): strict raises, lenient skips.
    with pytest.raises(ValueError, match="not eligible"):
        apply_kernel_choices(plan, {conv: "int8"})
    assert apply_kernel_choices(plan, {conv: "int8"}, strict=False) == {}


# ------------------------------------------------------------- timing cache ----
def test_timing_cache_dedupes_identical_geometry_across_plans():
    cache = KernelTimingCache()
    first = small_plan(seed=107)
    choices_first = autotune_kernel_variants(first, batch=2, repeats=1, seed=0, cache=cache)
    assert cache.misses == len(cache) > 0
    assert cache.hits == 0
    misses_before = cache.misses
    second = small_plan(seed=107)  # identical layer shapes, fresh kernel objects
    choices_second = autotune_kernel_variants(second, batch=2, repeats=1, seed=0, cache=cache)
    assert cache.misses == misses_before, "identical geometry must never re-time"
    assert cache.hits == misses_before, "every lookup must replay a cached timing"
    assert choices_second == choices_first


def test_kernel_timing_key_tracks_geometry_not_identity():
    rng = np.random.default_rng(109)
    a, _ = make_conv_kernel(rng, c_in=4, c_out=6, hw=8)
    twin, _ = make_conv_kernel(rng, c_in=4, c_out=6, hw=8)
    compacted, _ = make_conv_kernel(rng, c_in=4, c_out=5, hw=8)
    key = kernel_timing_key(a, "blocked", 8, np.float32)
    assert kernel_timing_key(twin, "blocked", 8, np.float32) == key
    assert kernel_timing_key(compacted, "blocked", 8, np.float32) != key
    assert kernel_timing_key(a, "direct", 8, np.float32) != key
    assert kernel_timing_key(a, "blocked", 4, np.float32) != key
    assert kernel_timing_key(a, "blocked", 8, np.float64) != key


def test_specialize_with_choose_kernels_reuses_timings_on_redeploy():
    from repro.engine import specialize_tasks

    plan = small_plan(seed=113)
    profile = calibrate_plan(plan, batch_size=4, seed=113)
    cache = KernelTimingCache()
    kwargs = dict(profile=profile, compact_reduction=True,
                  choose_kernels=True, choose_batch=2, timing_cache=cache)
    specialized = specialize_tasks(plan, **kwargs)
    assert set(specialized) == set(plan.task_names())
    for name, spec in specialized.items():
        assert spec.kernel_choices, f"{name}: chooser must leave choices on the spec"
        for kernel in spec.kernels:
            if getattr(kernel, "name", None) in spec.kernel_choices:
                assert kernel.variant == spec.kernel_choices[kernel.name]
    # A re-deploy from the same profile compacts to the same geometries: the
    # second pass must resolve every chooser purely from cached timings.
    misses_before = cache.misses
    redeployed = specialize_tasks(plan, **kwargs)
    assert cache.misses == misses_before, "unchanged geometry must never re-time"
    assert cache.hits >= misses_before
    for name, spec in redeployed.items():
        assert spec.kernel_choices == specialized[name].kernel_choices


# ---------------------------------------------------------- workspace pooling ----
def test_padded_input_pools_scratch_for_noncontiguous_input():
    rng = np.random.default_rng(127)
    kernel, _ = make_conv_kernel(rng, c_in=3, c_out=4, hw=6, p=0)
    ws = WorkspacePool()
    nchw = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
    x = nchw.transpose(0, 2, 3, 1)  # NHWC view, not C-contiguous
    assert not x.flags["C_CONTIGUOUS"]
    first = K._padded_input(kernel, x, ws)
    assert first.flags["C_CONTIGUOUS"]
    np.testing.assert_array_equal(first, x)
    second = K._padded_input(kernel, x, ws)
    assert second is first, "steady state must reuse the pooled buffer"
    contig = np.ascontiguousarray(x)
    assert K._padded_input(kernel, contig, ws) is contig, "contiguous input passes through"


# ------------------------------------------------------- traffic accounting ----
def test_variant_traffic_accounting():
    rng = np.random.default_rng(59)
    recorder = SparsityRecorder()
    kernel, task = make_conv_kernel(rng, c_in=4, c_out=6, hw=8, mask=True)
    pool = MaxPoolKernel(index=1, kernel_size=2, stride=2, out_shape=(6, 4, 4))
    x = rng.normal(size=(2, 8, 8, 4)).astype(np.float32)
    ws = WorkspacePool()
    for variant in ("blocked", "direct"):
        kernel.variant = variant
        y = kernel.run(x, task, ws, recorder)
    pool.run(y, task, ws, recorder)
    totals = recorder.variant_totals()
    assert set(totals) == {"blocked", "direct", "pool"}
    for name, entry in totals.items():
        assert entry["calls"] == 1
        assert entry["bytes"] > 0
        assert (entry["macs"] > 0) == (name != "pool"), name
    # blocked executes exactly the layer's semantic MACs (rows x reduction x
    # width); the direct path's per-tap GEMMs run over the whole padded plane,
    # so the physical MAC ledger must show more work than that.
    assert totals["blocked"]["macs"] == 2 * 8 * 8 * kernel.weight_t.size
    assert totals["direct"]["macs"] > totals["blocked"]["macs"]
