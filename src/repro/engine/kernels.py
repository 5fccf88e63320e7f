"""Kernel variants for the fused GEMM engine, plus the per-layer chooser.

The compiled plan's default execution path (``ConvGemmMaskKernel.run``'s
im2col → one monolithic GEMM → ``apply_threshold_mask``) is simple and
bit-stable, but it is not always the fastest way to run a layer on a given
machine.  This module adds alternative lowerings of the *same* layer
semantics, selectable per kernel instance via its ``variant`` attribute:

Convolutions (``ConvGemmMaskKernel``)
  * ``"im2col"`` (default) — the original path, untouched, so existing plans
    behave exactly as before and the dynamic row-gather fast path keeps its
    bit-exactness story.
  * ``"blocked"`` — cache-blocked fused GEMM: images are processed in blocks
    whose im2col panel fits in cache (:data:`_COLS_BLOCK_BYTES`), the panel
    is built with one long-run strided copy per kernel row
    (:func:`copy_window_strips` — ``k`` copies of ``k*C_in``-wide runs
    instead of ``k*k`` copies of ``C_in``-wide runs), and the bias +
    threshold-mask epilogue is applied to each output tile while it is still
    cache-hot.  The panel is **bit-identical** to the monolithic im2col
    matrix and each block's GEMM sees the same per-row reduction order, so
    this variant reproduces the default path bit for bit.
  * ``"packed"`` — the blocked GEMM with panel-resident weights: the weight
    matrix's columns are repacked once at plan build into L2-sized
    contiguous panels (:func:`packed_weight_panels`), so the B-matrix stays
    cache-resident across image blocks instead of being re-streamed from
    DRAM per block.  Panel boundaries fall on BLAS micro-kernel lane
    multiples, and a candidate multi-panel split is kept only after a
    build-time proof that it reproduces the full-width GEMM's bits on this
    host (:func:`_packed_split_exact`; otherwise the packing collapses to
    one contiguous panel), so ``packed`` is unconditionally
    **bit-identical** to ``blocked`` (and therefore to ``im2col``).
    Composes with dead-channel compaction — panels are packed from the
    kernel's current (possibly compacted) weights.
  * ``"direct"`` — im2col-free shift-and-add convolution: one full-plane
    GEMM per filter tap, accumulated into the output through shifted
    ``as_strided``-style window views.  No ``cols`` workspace exists at all.
    1x1/stride-1 layers degenerate to a single GEMM over the input itself
    (bit-identical to im2col, whose column matrix *is* the input); for k>1
    the per-pixel reduction is regrouped from ``(ky, kx, c)`` order into
    per-tap partial sums, so the contract is ULP-level (``allclose``), not
    bitwise.  Eligible for stride-1 layers (the dominant VGG shapes).
  * ``"winograd"`` — F(2x2, 3x3) Winograd transform for stride-1 3x3 convs:
    weights are pre-transformed once at plan build (:func:`winograd_weights`,
    cached on the kernel), the input transform is tiled per cache block with
    pure add/subtract combinations (``B``'s entries are 0/±1 — the only
    multiplies are the 16 per-face tile GEMMs), and the inverse transform is
    fused with the bias+threshold-mask epilogue per block.  Executes
    ``16/36`` of the direct multiply count per output tile (2.25x fewer
    MACs, reported as such by the traffic hook).  The transforms regroup
    reductions beyond per-tap splitting, so the contract is a **declared
    tolerance** (:func:`winograd_tolerance`) rather than ULP.  Falls back to
    the other variants for stride>1 / non-3x3 shapes (not eligible).
  * ``"int8"`` — opt-in symmetric-quantized inference (see
    :class:`QuantizedGemm`): activations are quantized on the fly with a
    per-kernel scale calibrated from :class:`~repro.engine.calibrate.
    CalibrationProfile` activation ranges, weights carry per-output-channel
    scales, the integer GEMM accumulates exactly (values are stored in a
    float container wide enough that every int32-range accumulation is
    representable — the float unit *is* the exact integer datapath), and
    the epilogue dequantizes, adds the float bias and applies the threshold
    mask.  Accuracy contract: declared tolerance measured by the
    differential suite, not bit-exactness.
  * ``"int8spd"`` — the genuine int8 *speed* datapath: the quantized weights
    are additionally packed as contiguous ``int16`` rows
    (``QuantizedGemm.weight_qi``), activations quantize into an ``int16``
    panel, and the inner product runs as a wide-integer ``np.einsum`` into
    an ``int32`` accumulator with panel-bounded reduction depth
    (:func:`_int8_accumulate`).  The integer accumulation is exact, the
    dequant/guard-band-refinement/mask epilogue is shared with ``int8``, so
    ``int8spd`` output is **bit-identical to ``int8``** — same declared
    accuracy contract, different execution engine.  The chooser only offers
    it when the host's integer matmul actually beats float32 BLAS
    (:func:`int8_datapath_beats_float`, measured once per process).

Fully-connected layers (``LinearMaskKernel``)
  ``"dense"`` (default, original path), ``"blocked"`` (row-blocked GEMM with
  the bias+mask epilogue fused per block — bit-identical), ``"packed"``
  (blocked + panel-resident weights — bit-identical), ``"int8"``,
  ``"int8spd"``.

Max pooling (``MaxPoolKernel``)
  ``"reshape"`` (default, original path: reshape-reduce for aligned
  non-overlapping windows) and ``"views"`` (strided-window ``np.maximum``
  cascade — bit-identical, and measurably faster on this machine's
  single-core OpenBLAS build because it avoids the 6-D reduction).

:func:`autotune_kernel_variants` times every eligible variant of every
kernel on synthetic inputs of the kernel's true geometry (through the real
``kernel.run`` entry point, epilogue included) and caches the winning
choices on ``plan.kernel_choices``; :func:`apply_kernel_choices` replays a
cached choice map onto any plan whose kernels share names — which is how
choices survive :class:`~repro.engine.planspec.PlanSpec` round-trips into
spawned workers.  Measurements themselves are deduplicated through a
process-level :class:`KernelTimingCache` keyed by (layer geometry, variant):
N per-task specialized plans with identical shapes time each candidate once,
and chooser-aware re-specialization (``specialize_plan(choose_kernels=True)``,
the online :class:`~repro.serving.recalibrate.RecalibrationLoop`) re-runs the
chooser on the freshly compacted geometry as pure cache replay when the
shapes did not change — zero re-timing per deploy.

This module deliberately imports nothing from :mod:`repro.engine.plan`
(``plan.py`` imports *us*); every entry point takes the kernel object and
duck-types against the attributes all plan kernels carry (``uid``, ``kind``,
``variant``, geometry, ``mask``, ``dense_macs_per_image``...).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "CONV_VARIANTS",
    "LINEAR_VARIANTS",
    "POOL_VARIANTS",
    "QuantizedGemm",
    "quantize_gemm",
    "quantize_plan_kernels",
    "variant_candidates",
    "set_kernel_variant",
    "force_kernel_variant",
    "apply_kernel_choices",
    "autotune_kernel_variants",
    "apply_threshold_mask",
    "report_mask_stats",
    "record_variant_traffic",
    "winograd_tolerance",
    "winograd_weights",
    "packed_weight_panels",
    "int8_datapath_beats_float",
    "KernelTimingCache",
    "TIMING_CACHE",
    "kernel_timing_key",
]

#: Target byte size of one cache-blocked im2col panel.  512 KB keeps the
#: panel + the weight panel + the output tile inside a typical shared L2/L3
#: slice while staying large enough that BLAS still runs full-width panels.
_COLS_BLOCK_BYTES = 1 << 19

#: Byte budget of one packed weight panel (columns of ``weight_t``).  256 KB
#: leaves room in L2 for the im2col block panel streaming past it.
_PACKED_PANEL_BYTES = 1 << 18

#: Per-block scratch budget of the Winograd path (4 MB, L3-resident).  The
#: face GEMMs touch one face at a time so they never need the whole block in
#: L2, while the add/subtract transform passes are dispatch-bound: measured
#: across the vgg_small conv shapes, blocks sized to this budget run the
#: whole pipeline 1.4-2x faster than L2-sized blocks.
_WINO_BLOCK_BYTES = 1 << 22

#: Packed panel boundaries fall on multiples of this many columns.  BLAS
#: micro-kernels partition the output into fixed-width column micro-tiles and
#: reduce each column independently of its neighbours, so micro-tile-aligned
#: cuts are the *candidate* boundaries at which a panel GEMM can reproduce
#: the full-width GEMM's per-column reduction order.  16 covers the NR
#: widths of OpenBLAS/BLIS/MKL x86 double/single micro-kernels (4/8/16); the
#: same granularity dead-channel compaction pads to, for the same reason.
#: Alignment alone is necessary but not sufficient — some BLAS builds switch
#: whole code paths (small-matrix kernels, threading splits) on the call
#: geometry — so :func:`packed_weight_panels` additionally *proves* each
#: split bit-exact on this host at build time and collapses to the single
#: contiguous panel when the proof fails.  The bit-exactness contract is
#: therefore unconditional; the multi-panel win is opportunistic.
_PACKED_PANEL_LANES = 16

#: GEMM row counts the packed-split proof probes (see
#: :func:`_packed_split_exact`): a geometric spread over the row regimes the
#: blocked runners produce, from a single-image remainder block to a full
#: cache block.
_PACKED_PROBE_ROWS = (1, 8, 64, 256)

CONV_VARIANTS = ("im2col", "blocked", "packed", "direct", "winograd", "int8", "int8spd")
LINEAR_VARIANTS = ("dense", "blocked", "packed", "int8", "int8spd")
POOL_VARIANTS = ("reshape", "views")

#: int8 symmetric quantization range (zero-point-free).
_QMAX = 127.0

#: Guard band of the int8 decision-refinement epilogue, in standard
#: deviations of the per-slot quantization noise.  Output slots whose
#: dequantized value lands within ``guard * sigma`` of the task threshold
#: are recomputed from the retained float weights, so near-threshold mask
#: decisions are exact and quantization error cannot compound through the
#: layer stack (see ``_refine_conv_int8``).
_INT8_GUARD = 8.0

#: Reduction-panel depth of the int8 speed path's integer accumulation.
#: Each panel's int32 partial sums are bounded by ``4096 * 127**2 ~= 2**26``,
#: far inside int32 range; deeper reductions accumulate panel by panel, so
#: the wide-integer einsum is exact at any depth.
_INT8SPD_PANEL_ROWS = 4096

#: Cached verdict of the once-per-process int8 datapath probe
#: (:func:`int8_datapath_beats_float`); ``None`` = not measured yet.  Tests
#: monkeypatch this to force chooser eligibility deterministically.
_INT8SPD_WINS: Optional[bool] = None


# ---------------------------------------------------------------------------
# Row-stable GEMM: one reduction order for every batch size.
# ---------------------------------------------------------------------------
#: Minimum row count at which BLAS runs its standard sgemm path.  Below this,
#: implementations switch to gemv (M=1) or skinny-M kernels (observed up to
#: M=7 for large-K FC shapes on OpenBLAS) whose reduction order differs from
#: the full kernel's, so the same row reduces to ULP-different values in a
#: small batch than in a large one.  8 is the widest switch point observed
#: (it matches the row micro-tile height of x86 single/double kernels); conv
#: GEMMs never dip under it because their M is ``n * spatial``.
_SGEMM_MIN_ROWS = 8


def matmul_rowsafe(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``a @ b`` whose per-row results match the same rows in any batch size.

    BLAS dispatches small-M products (a single request's FC layer, a task
    owning one row of a mixed micro-batch) to gemv/skinny kernels that
    reduce in a different order than the standard sgemm path, producing
    ULP-different outputs for the identical row depending on how many other
    rows share the call.  That would break the serving contract that a
    coalesced mixed-task batch is bit-identical to per-task execution of the
    same rows.  Padding small batches to :data:`_SGEMM_MIN_ROWS` (the extra
    rows are zeros and discarded) keeps every call on the one sgemm path,
    whose per-row reductions are independent of M.  Integer (int8) GEMMs
    accumulate exactly at any M and never need this detour.
    """
    m = a.shape[0]
    if m >= _SGEMM_MIN_ROWS:
        return np.matmul(a, b, out=out)
    padded = np.zeros((_SGEMM_MIN_ROWS,) + a.shape[1:], dtype=a.dtype)
    padded[:m] = a
    result = np.matmul(padded, b)
    if out is None:
        return result[:m]
    out[:] = result[:m]
    return out


# ---------------------------------------------------------------------------
# Shared epilogue: threshold mask + sparsity reporting.
# ---------------------------------------------------------------------------
def report_mask_stats(
    kernel, task, recorder, ctx, images: int, slots_per_image: int,
    channel_live: Optional[np.ndarray], live: float, mask_size: int,
) -> None:
    """Sparsity-reporting tail shared by every masked-GEMM variant.

    ``live`` is the total number of surviving (image, position, channel)
    slots; ``channel_live`` the per-channel breakdown when the caller
    computed one (required whenever the recorder exposes the
    ``record_channels`` calibration hook).  The recorded sparsity is
    normalised by the layer's **dense** channel count (``kernel.
    dense_channels``) so dense and specialized runs of the same traffic stay
    comparable, while the ``ctx`` gate signal uses the stream's own
    geometry (``mask_size``) — it describes the data the next kernel sees.
    """
    record_channels = getattr(recorder, "record_channels", None) if recorder is not None else None
    if record_channels is not None and channel_live is not None:
        record_channels(task.name, kernel.mask.layer_name, channel_live, images * slots_per_image)
    if recorder is not None:
        dense_slots = images * slots_per_image * kernel.dense_channels
        recorder.record(task.name, kernel.mask.layer_name, 1.0 - live / dense_slots, images)
    if ctx is not None:
        ctx.prev_sparsity = 1.0 - live / mask_size


def apply_threshold_mask(
    kernel, gemm: np.ndarray, task, ws, recorder, ctx, slots_per_image: int
) -> None:
    """Monolithic threshold-mask step of the fused GEMM kernels.

    ``gemm`` is the (batch, ..., channels) pre-activation view; the mask
    buffer comes from the workspace pool and is rewritten in place with
    ``np.greater_equal(..., out=...)``, so steady-state serving allocates
    nothing here.  Survival statistics flow through
    :func:`report_mask_stats`; the blocked variants skip this function and
    mask per cache-hot tile instead, feeding the same reporting tail with
    their accumulated counts.
    """
    n = gemm.shape[0]
    mask = ws.get(kernel.uid, "mask", gemm.shape, np.bool_)
    np.greater_equal(gemm, task.thresholds[kernel.mask.slot], out=mask)
    gemm *= mask
    survival_needed = recorder is not None or (ctx is not None and ctx.dynamic is not None)
    if survival_needed:
        if recorder is not None and getattr(recorder, "record_channels", None) is not None:
            # Per-channel live-slot counts (channels are the last axis); the
            # scalar total falls out of them for free.
            channel_live = mask.sum(axis=tuple(range(mask.ndim - 1)), dtype=np.int64)
            live = float(channel_live.sum())
        else:
            channel_live = None
            live = float(np.count_nonzero(mask))
        report_mask_stats(
            kernel, task, recorder, ctx, n, slots_per_image, channel_live, live, mask.size
        )
    elif ctx is not None:
        ctx.prev_sparsity = 0.0


# ---------------------------------------------------------------------------
# Per-variant MAC/byte accounting (physical traffic, not semantic MACs).
# ---------------------------------------------------------------------------
def record_variant_traffic(recorder, variant: str, macs: int, nbytes: int) -> None:
    """Feed a recorder's optional ``record_variant`` hook (physical totals).

    The :class:`~repro.engine.plan.RunContext` MAC counters stay *semantic*
    (rows x reduction x width of the layer's math) so MAC-reduction ratios
    remain comparable across variants; this hook carries what the variant
    physically executed — e.g. the direct path's per-tap full-plane GEMMs
    run ~``(H+2p)(W+2p)/(HW)`` more MACs than the im2col lowering of the
    same layer — plus a simple bytes-touched model of its memory traffic.
    """
    if recorder is None:
        return
    hook = getattr(recorder, "record_variant", None)
    if hook is not None:
        hook(variant, int(macs), int(nbytes))


def conv_variant_traffic(kernel, n: int, variant: str) -> tuple:
    """(physical MACs, modelled bytes touched) of one conv batch."""
    item = kernel.weight_t.dtype.itemsize
    c_in, h, w = kernel.in_shape
    c_out, h_out, w_out = kernel.out_shape
    k, s, p = kernel.kernel_size, kernel.stride, kernel.padding
    rows = n * h_out * w_out
    reduction = kernel.weight_t.shape[0]
    plane = n * (h + 2 * p) * (w + 2 * p)
    input_bytes = item * n * h * w * c_in + (item * plane * c_in if p > 0 else 0)
    weight_bytes = item * reduction * c_out
    out_bytes = item * rows * c_out
    mask_bytes = (2 * rows * c_out + item * rows * c_out) if kernel.mask is not None else 0
    if variant == "direct":
        if k == 1 and p == 0 and s == 1:
            macs = rows * reduction * c_out
            nbytes = input_bytes + weight_bytes + out_bytes + mask_bytes
        else:
            taps = k * k
            macs = taps * plane * c_in * c_out
            # per tap: read the plane, write the tap output, accumulate out
            nbytes = input_bytes + weight_bytes + mask_bytes + taps * item * (
                plane * c_in + plane * c_out + 2 * rows * c_out
            )
        return macs, nbytes
    if variant == "winograd":
        th, tw = (h_out + 1) // 2, (w_out + 1) // 2
        tiles = n * th * tw
        # 16 tile GEMMs over (tiles, c_in) x (c_in, c_out): 16 multiplies
        # per 2x2 output tile where direct convolution spends 36 — the
        # genuinely reduced multiply count is the whole point.
        macs = 16 * tiles * c_in * c_out
        hp, wp = 2 * th + 2, 2 * tw + 2
        nbytes = (
            input_bytes
            + item * n * hp * wp * c_in  # zero-bordered tile plane
            + 2 * item * 16 * tiles * (c_in + c_out)  # V and M faces, written + read
            + item * 16 * c_in * c_out  # pre-transformed weights
            + out_bytes
            + mask_bytes
        )
        return macs, nbytes
    macs = rows * reduction * c_out
    # im2col/blocked/packed/int8: cols written once and re-read by the GEMM.
    cols_bytes = 2 * item * rows * reduction
    nbytes = input_bytes + cols_bytes + weight_bytes + out_bytes + mask_bytes
    if variant in ("int8", "int8spd"):
        nbytes += item * plane * c_in  # the extra quantize pass
    if variant == "int8spd":
        # int16 column panel + int32 accumulator replace the float cols/acc.
        nbytes += (2 - item) * 2 * rows * reduction + (4 - item) * rows * c_out
    return macs, nbytes


def linear_variant_traffic(kernel, n: int, variant: str) -> tuple:
    """(physical MACs, modelled bytes touched) of one FC batch."""
    item = kernel.weight_t.dtype.itemsize
    reduction, width = kernel.weight_t.shape
    macs = n * reduction * width
    nbytes = item * (n * reduction + reduction * width + n * width)
    if kernel.mask is not None:
        nbytes += 2 * n * width + item * n * width
    if variant in ("int8", "int8spd"):
        nbytes += item * n * reduction
    if variant == "int8spd":
        nbytes += (2 - item) * n * reduction + (4 - item) * n * width
    return macs, nbytes


def pool_variant_traffic(kernel, x: np.ndarray, out: np.ndarray) -> tuple:
    return 0, x.nbytes + out.nbytes


# ---------------------------------------------------------------------------
# im2col panel construction via overlapping window strips.
# ---------------------------------------------------------------------------
def copy_window_strips(
    cols: np.ndarray, src: np.ndarray, n: int,
    h_out: int, w_out: int, k: int, s: int, c_in: int,
) -> None:
    """Fill an im2col panel with ``k`` long-run strided copies.

    Adjacent output positions' windows overlap in memory: for a fixed kernel
    row ``ky``, the ``(kx, c)`` face of the window at output column ``j`` is
    the *contiguous* run of ``k*c_in`` values starting at input pixel
    ``(ky + i*s, j*s)``.  One ``as_strided`` view per ``ky`` therefore
    exposes all of that row's window faces at once, and copying it lands
    ``k*c_in``-wide runs instead of the naive double loop's ``c_in``-wide
    runs — same panel, bit for bit, at a fraction of the copy overhead.

    ``src`` must be C-contiguous NHWC (the padded workspace buffer always
    is); the last window's run ends at input column ``(w_out-1)*s + k <= W``
    by conv geometry, so the view never reads out of bounds.
    """
    sn, sh, sw, sc = src.strides
    shape = (n, h_out, w_out, k * c_in)
    panel = cols.reshape(n, h_out, w_out, k, k * c_in)
    for ky in range(k):
        strip = as_strided(src[:, ky:], shape=shape, strides=(sn, s * sh, s * sw, sc))
        panel[:, :, :, ky, :] = strip


def _padded_input(kernel, x: np.ndarray, ws) -> np.ndarray:
    """The conv source plane: the zero-bordered pad buffer, or ``x`` itself.

    Both the p>0 pad plane and the p==0 contiguity fallback live in the
    :class:`~repro.engine.plan.WorkspacePool` — steady-state serving
    allocates nothing here, whatever layout the upstream kernel produced.
    """
    p = kernel.padding
    n = x.shape[0]
    c_in, h, w = kernel.in_shape
    if p == 0:
        if x.flags["C_CONTIGUOUS"]:
            return x
        contig = ws.get(kernel.uid, "pad", (n, h, w, c_in), kernel.weight_t.dtype)
        np.copyto(contig, x)
        return contig
    padded = ws.get(kernel.uid, "pad", (n, h + 2 * p, w + 2 * p, c_in), kernel.weight_t.dtype)
    # The border stays zero from allocation time; only the interior is
    # rewritten (same invariant as the default im2col path).
    padded[:, p : p + h, p : p + w, :] = x
    return padded


# ---------------------------------------------------------------------------
# Convolution variants.
# ---------------------------------------------------------------------------
def run_conv_blocked(kernel, x, task, ws, recorder, ctx, panels=None, variant="blocked"):
    """Cache-blocked im2col GEMM with the bias+mask epilogue fused per block.

    Bit-identical to the default path: the strip-copied panel equals the
    monolithic im2col matrix and blocking over *images* never splits a GEMM
    row, so every output element sees the same reduction order.

    With ``panels`` (the ``"packed"`` variant), each block's GEMM runs
    against the L2-resident weight panels from :func:`packed_weight_panels`
    instead of streaming the full-width weight matrix — still bit-identical,
    because the packer only keeps splits proven exact on this host.
    """
    n = x.shape[0]
    c_in, _, _ = kernel.in_shape
    c_out, h_out, w_out = kernel.out_shape
    k, s = kernel.kernel_size, kernel.stride
    dtype = kernel.weight_t.dtype
    src = _padded_input(kernel, x, ws)
    spi = h_out * w_out
    reduction = kernel.weight_t.shape[0]
    # Round (not floor) to the nearest image count whose panel hits the byte
    # target: a 1.1-panel-sized budget should still pair images up — the
    # measured sweet spot sits at the target, not strictly under it.
    panel_bytes = max(1, spi * reduction * dtype.itemsize)
    block = max(1, min(n, (_COLS_BLOCK_BYTES + panel_bytes // 2) // panel_bytes))

    out = ws.get(kernel.uid, "out", (n * spi, c_out), dtype)
    cols = ws.get(kernel.uid, "bcols", (block * spi, reduction), dtype)
    survival_needed = recorder is not None or (ctx is not None and ctx.dynamic is not None)
    need_channels = (
        recorder is not None and getattr(recorder, "record_channels", None) is not None
    )
    thresholds = mask = channel_live = None
    live_total = 0
    if kernel.mask is not None:
        thresholds = task.thresholds[kernel.mask.slot]
        mask = ws.get(kernel.uid, "mask", (n, spi, c_out), np.bool_)
        if need_channels:
            channel_live = np.zeros(c_out, dtype=np.int64)

    for b0 in range(0, n, block):
        nb = min(n, b0 + block) - b0
        panel = cols[: nb * spi]
        copy_window_strips(panel, src[b0 : b0 + nb], nb, h_out, w_out, k, s, c_in)
        tile = out[b0 * spi : (b0 + nb) * spi]
        if panels is None:
            np.matmul(panel, kernel.weight_t, out=tile)
        else:
            for j0, j1, wpanel in panels:
                np.matmul(panel, wpanel, out=tile[:, j0:j1])
        np.add(tile, kernel.bias, out=tile)
        if kernel.mask is not None:
            gemm = tile.reshape(nb, spi, c_out)
            tile_mask = mask[b0 : b0 + nb]
            # Per-row thresholds (mixed-task batches) carry a leading batch
            # axis and must be sliced alongside the image block; the
            # single-task layouts ((1, spi, c), or broadcastable (spi, c))
            # broadcast over every block unsliced.
            per_row = thresholds.ndim == 3 and thresholds.shape[0] != 1
            tile_thr = thresholds[b0 : b0 + nb] if per_row else thresholds
            np.greater_equal(gemm, tile_thr, out=tile_mask)
            gemm *= tile_mask
            if channel_live is not None:
                channel_live += tile_mask.sum(axis=(0, 1), dtype=np.int64)
            elif survival_needed:
                live_total += np.count_nonzero(tile_mask)

    if ctx is not None:
        ctx.effective_macs += n * spi * reduction * c_out
        ctx.dense_macs += n * kernel.dense_macs_per_image
    record_variant_traffic(recorder, variant, *conv_variant_traffic(kernel, n, variant))
    if kernel.mask is not None:
        if survival_needed:
            live = float(channel_live.sum()) if channel_live is not None else float(live_total)
            report_mask_stats(
                kernel, task, recorder, ctx, n, spi,
                channel_live, live, n * spi * c_out,
            )
        elif ctx is not None:
            ctx.prev_sparsity = 0.0
    elif ctx is not None:
        ctx.prev_sparsity = 0.0
    return out.reshape(n, h_out, w_out, c_out)


# ---------------------------------------------------------------------------
# Packed weight panels (the "packed" variant's plan-build-time state).
# ---------------------------------------------------------------------------
def _packed_split_exact(weight_t: np.ndarray, panels: list) -> bool:
    """Build-time proof that a panel split preserves this BLAS's exact bits.

    Reduction order per output element is an implementation detail of the
    host BLAS and can change with the *call geometry* (small-matrix kernels,
    threading splits), so lane-aligned cuts alone do not guarantee that a
    panel GEMM reproduces the full-width GEMM bit for bit.  This probe runs
    both lowerings on seeded inputs across the row regimes the blocked
    runners produce (:data:`_PACKED_PROBE_ROWS`) and demands bitwise
    equality: order differences between two float reductions of random data
    surface as bit differences essentially immediately.
    """
    rng = np.random.default_rng(0x5EED)
    reduction, width = weight_t.shape
    for rows in _PACKED_PROBE_ROWS:
        probe = rng.normal(size=(rows, reduction)).astype(weight_t.dtype, copy=False)
        full = probe @ weight_t
        split = np.empty_like(full)
        for j0, j1, panel in panels:
            np.matmul(probe, panel, out=split[:, j0:j1])
        if not np.array_equal(split, full):
            return False
    return True


def packed_weight_panels(kernel) -> list:
    """L2-sized contiguous column panels of ``kernel.weight_t``, cached.

    Returns ``[(j0, j1, panel), ...]`` where ``panel`` is the C-contiguous
    copy of ``weight_t[:, j0:j1]``.  Panels are cut at
    :data:`_PACKED_PANEL_LANES` column multiples and sized to
    :data:`_PACKED_PANEL_BYTES` so a panel stays L2-resident while every
    image block's im2col panel streams past it; a candidate multi-panel
    split is kept only after :func:`_packed_split_exact` proves it
    bit-identical to the full-width GEMM on this host, otherwise the packing
    collapses to one contiguous full-width panel (still a win when
    compaction left ``weight_t`` strided, and trivially exact).  Built once
    per kernel from the *current* (possibly dead-channel-compacted) weights
    and cached on the kernel object; derived state, so PlanSpec round-trips
    simply rebuild it lazily on first run.  A single-panel kernel reuses
    ``weight_t`` itself when already contiguous.
    """
    cached = getattr(kernel, "packed", None)
    if cached is not None:
        return cached
    weight_t = kernel.weight_t
    reduction, width = weight_t.shape
    col_bytes = max(1, reduction * weight_t.dtype.itemsize)
    lanes = max(
        _PACKED_PANEL_LANES,
        (_PACKED_PANEL_BYTES // col_bytes) // _PACKED_PANEL_LANES * _PACKED_PANEL_LANES,
    )
    panels = [
        (j0, min(width, j0 + lanes), np.ascontiguousarray(weight_t[:, j0 : j0 + lanes]))
        for j0 in range(0, width, lanes)
    ]
    if len(panels) > 1 and not _packed_split_exact(weight_t, panels):
        panels = [(0, width, np.ascontiguousarray(weight_t))]
    kernel.packed = panels
    return panels


# ---------------------------------------------------------------------------
# Winograd F(2x2, 3x3).
# ---------------------------------------------------------------------------
#: Weight-side Winograd transform ``G`` for F(2x2, 3x3) (``U = G g G^T``).
#: Its entries are exact dyadic rationals, and the matching input/inverse
#: transforms ``B^T``/``A^T`` contain only 0/±1 — applied below as explicit
#: add/subtract combinations, so the only multiplies in the whole variant
#: are the 16 per-face tile GEMMs.
_WINO_G = np.array(
    [[1.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.5, -0.5, 0.5], [0.0, 0.0, 1.0]]
)


def winograd_tolerance(dtype) -> Dict[str, float]:
    """Declared numeric tolerance of the ``winograd`` variant, per dtype.

    The Winograd transforms regroup each output's 9-tap reduction into
    transformed-domain combinations, so outputs differ from the im2col
    reduction by accumulated rounding — a few ULP of the arithmetic dtype
    in practice.  These bounds are the *contract* the differential suite
    enforces (``np.allclose(..., **winograd_tolerance(dtype))``), declared
    with safety margin above the observed error rather than at it.
    """
    if np.dtype(dtype) == np.float64:
        return {"rtol": 1e-8, "atol": 1e-10}
    return {"rtol": 1e-3, "atol": 1e-5}


def winograd_eligible(kernel) -> bool:
    """F(2x2, 3x3) covers exactly the stride-1 3x3 conv shapes."""
    return (
        getattr(kernel, "kind", None) == "conv"
        and kernel.kernel_size == 3
        and kernel.stride == 1
    )


def winograd_weights(kernel) -> np.ndarray:
    """The kernel's pre-transformed ``(16, C_in, C_out)`` Winograd weights.

    ``U = G g G^T`` per (input, output) channel pair, computed once in
    float64 then cast to the plan dtype and cached on the kernel — plan-
    build-time state like the int8 payload, but derived: PlanSpec round-trips
    rebuild it lazily on first run instead of serializing it.
    """
    cached = getattr(kernel, "wino", None)
    if cached is not None:
        return cached
    reduction, c_out = kernel.weight_t.shape
    c_in = reduction // 9
    g = kernel.weight_t.reshape(3, 3, c_in, c_out).astype(np.float64)
    u = np.einsum("ij,jkcf,lk->ilcf", _WINO_G, g, _WINO_G)
    kernel.wino = np.ascontiguousarray(
        u.reshape(16, c_in, c_out).astype(kernel.weight_t.dtype)
    )
    return kernel.wino


def run_conv_winograd(kernel, x, task, ws, recorder, ctx):
    """F(2x2, 3x3) Winograd conv with the fused bias+mask epilogue per block.

    Pipeline per cache block of images: input-transform (``V = B^T d B``) as
    four whole-plane row passes followed by four strided column passes per
    row plane — overlapping 4x4 tiles are never gathered, every pass keeps a
    long contiguous inner axis — run the 16 tile GEMMs as one batched matmul
    against the cached pre-transformed weights (:func:`winograd_weights`),
    inverse-transform (``Y = A^T M A``, adds again), scatter the 2x2 output
    tiles, then apply the same bias + threshold-mask + survival-count
    epilogue as the blocked path while the block is cache-hot.

    The zero border of the tile plane serves double duty: conv padding and
    the remainder column/row of odd output dims (partial tiles compute into
    the border and are cropped at scatter time).  Numeric contract:
    :func:`winograd_tolerance`.
    """
    n = x.shape[0]
    c_in, h, w = kernel.in_shape
    c_out, h_out, w_out = kernel.out_shape
    p = kernel.padding
    dtype = kernel.weight_t.dtype
    u = winograd_weights(kernel)
    th, tw = (h_out + 1) // 2, (w_out + 1) // 2
    hp, wp = 2 * th + 2, 2 * tw + 2
    spi = h_out * w_out
    tiles = th * tw

    if p == 0 and hp == h and wp == w and x.flags["C_CONTIGUOUS"]:
        src = x
    else:
        src = ws.get(kernel.uid, "wpad", (n, hp, wp, c_in), dtype)
        src[:, p : p + h, p : p + w, :] = x

    # Block sizing: unlike the column-panel GEMMs, the 16 face GEMMs stream
    # one (pb, c_in) face at a time, so only a face pair needs to be
    # cache-resident — the full V/M/inverse scratch can spill to L3.  Small
    # blocks are actively harmful here (each transform pass is a cheap
    # elementwise op whose fixed dispatch cost dominates on short rows), so
    # the budget is a multiple of the GEMM panel budget.
    per_image = tiles * (20 * c_in + 25 * c_out) * dtype.itemsize
    budget = _WINO_BLOCK_BYTES
    block = max(1, min(n, (budget + per_image // 2) // max(1, per_image)))

    out = ws.get(kernel.uid, "out", (n * spi, c_out), dtype)
    out4 = out.reshape(n, h_out, w_out, c_out)
    # Column-parity split of the padded plane: padded column 2k + p lives at
    # ``spl[:, :, p, k]``, so a tile-column tap ``c`` (plane column 2*tx + c)
    # is the contiguous run ``spl[:, :, c & 1, (c >> 1) + tx]`` — both
    # transform directions then read multi-KB contiguous chunks instead of
    # stride-2 element pairs.
    wt2 = tw + 1
    spl = ws.get(kernel.uid, "wspl", (block, hp, 2, wt2, c_in), dtype)
    rbuf = ws.get(kernel.uid, "wrow", (block, th, 2, wt2, c_in), dtype)
    vbuf = ws.get(kernel.uid, "wv", (16, block * tiles, c_in), dtype)
    mbuf = ws.get(kernel.uid, "wm", (16, block * tiles, c_out), dtype)
    sbuf = ws.get(kernel.uid, "wsum", (2, 4, block * tiles, c_out), dtype)
    ybuf = ws.get(kernel.uid, "wy", (block * tiles, c_out), dtype)

    survival_needed = recorder is not None or (ctx is not None and ctx.dynamic is not None)
    need_channels = (
        recorder is not None and getattr(recorder, "record_channels", None) is not None
    )
    thresholds = mask = channel_live = None
    live_total = 0
    if kernel.mask is not None:
        thresholds = task.thresholds[kernel.mask.slot]
        mask = ws.get(kernel.uid, "mask", (n, spi, c_out), np.bool_)
        if need_channels:
            channel_live = np.zeros(c_out, dtype=np.int64)

    # B^T's rows as (op, minuend tap, subtrahend tap): the four combinations
    # below applied along tile rows, then identically along tile columns.
    combos = (
        (np.subtract, 0, 2),
        (np.add, 1, 2),
        (np.subtract, 2, 1),
        (np.subtract, 1, 3),
    )
    for b0 in range(0, n, block):
        nb = min(n, b0 + block) - b0
        pb = nb * tiles
        s = src[b0 : b0 + nb]
        sp = spl[:nb]
        sp[:, :, 0] = s[:, :, 0::2]
        sp[:, :, 1] = s[:, :, 1::2]
        # Forward transform + face GEMMs, one B^T row plane at a time so
        # each plane is consumed while still cache-hot.  Row pass: tile
        # (ty, tx) reads plane rows 2*ty + {0..3}, so each B^T row is one
        # strided whole-plane pass whose inner axis (a full plane row)
        # stays contiguous — no per-tile 4x4 gather is ever materialised.
        # Column pass: the same four combinations along the width; tap
        # ``c`` addresses parity plane ``c & 1`` at offset ``c >> 1``.
        # The plane's four face GEMMs then run as one batched matmul
        # (numerically identical to separate GEMMs, faces are independent).
        for i, (op, a, b) in enumerate(combos):
            ri = rbuf[:nb]
            op(sp[:, a : a + 2 * th : 2], sp[:, b : b + 2 * th : 2], out=ri)
            for j, (cop, ca, cb) in enumerate(combos):
                face = vbuf[4 * i + j, :pb].reshape(nb, th, tw, c_in)
                cop(
                    ri[:, :, ca & 1, (ca >> 1) : (ca >> 1) + tw],
                    ri[:, :, cb & 1, (cb >> 1) : (cb >> 1) + tw],
                    out=face,
                )
            np.matmul(
                vbuf[4 * i : 4 * i + 4, :pb],
                u[4 * i : 4 * i + 4],
                out=mbuf[4 * i : 4 * i + 4, :pb],
            )
        # Inverse row transform A^T: s0 = M0 + M1 + M2, s1 = M1 - M2 - M3
        # (face index t = 4*i + j; i is the tile row).
        for j in range(4):
            s0, s1 = sbuf[0, j, :pb], sbuf[1, j, :pb]
            np.add(mbuf[j, :pb], mbuf[4 + j, :pb], out=s0)
            s0 += mbuf[8 + j, :pb]
            np.subtract(mbuf[4 + j, :pb], mbuf[8 + j, :pb], out=s1)
            s1 -= mbuf[12 + j, :pb]
        # Inverse column transform + scatter; partial edge tiles are cropped.
        yflat = ybuf[:pb]
        y = yflat.reshape(nb, th, tw, c_out)
        for a in range(2):
            rows_a = (h_out - a + 1) // 2
            sa = sbuf[a]
            for b in range(2):
                cols_b = (w_out - b + 1) // 2
                if b == 0:
                    np.add(sa[0, :pb], sa[1, :pb], out=yflat)
                    yflat += sa[2, :pb]
                else:
                    np.subtract(sa[1, :pb], sa[2, :pb], out=yflat)
                    yflat -= sa[3, :pb]
                out4[b0 : b0 + nb, a::2, b::2, :] = y[:, :rows_a, :cols_b]
        tile = out[b0 * spi : (b0 + nb) * spi]
        np.add(tile, kernel.bias, out=tile)
        if kernel.mask is not None:
            gemm = tile.reshape(nb, spi, c_out)
            tile_mask = mask[b0 : b0 + nb]
            # Same per-row threshold slicing as the blocked path (mixed-task
            # batches ship an (n, spi, c) threshold gather).
            per_row = thresholds.ndim == 3 and thresholds.shape[0] != 1
            tile_thr = thresholds[b0 : b0 + nb] if per_row else thresholds
            np.greater_equal(gemm, tile_thr, out=tile_mask)
            gemm *= tile_mask
            if channel_live is not None:
                channel_live += tile_mask.sum(axis=(0, 1), dtype=np.int64)
            elif survival_needed:
                live_total += np.count_nonzero(tile_mask)

    if ctx is not None:
        ctx.effective_macs += n * spi * kernel.weight_t.shape[0] * c_out
        ctx.dense_macs += n * kernel.dense_macs_per_image
    record_variant_traffic(
        recorder, "winograd", *conv_variant_traffic(kernel, n, "winograd")
    )
    if kernel.mask is not None:
        if survival_needed:
            live = float(channel_live.sum()) if channel_live is not None else float(live_total)
            report_mask_stats(
                kernel, task, recorder, ctx, n, spi,
                channel_live, live, n * spi * c_out,
            )
        elif ctx is not None:
            ctx.prev_sparsity = 0.0
    elif ctx is not None:
        ctx.prev_sparsity = 0.0
    return out.reshape(n, h_out, w_out, c_out)


def run_conv_direct(kernel, x, task, ws, recorder, ctx):
    """im2col-free shift-and-add convolution (one GEMM per filter tap).

    Each tap's weights form a contiguous ``(C_in, C_out)`` row slice of
    ``weight_t`` (rows are in ``(ky, kx, c)`` order), so the tap GEMM runs
    over the raw padded plane and its output is accumulated into the result
    through a shifted window view — no column matrix is ever materialised.
    1x1/stride-1 collapses to a single GEMM over the input itself and is
    bit-identical to im2col; k>1 regroups the reduction per tap (ULP-level).
    """
    n = x.shape[0]
    c_in, h, w = kernel.in_shape
    c_out, h_out, w_out = kernel.out_shape
    k, s, p = kernel.kernel_size, kernel.stride, kernel.padding
    dtype = kernel.weight_t.dtype
    spi = h_out * w_out
    reduction = kernel.weight_t.shape[0]
    out = ws.get(kernel.uid, "out", (n * spi, c_out), dtype)
    src = _padded_input(kernel, x, ws)
    if k == 1 and p == 0 and s == 1:
        np.matmul(src.reshape(n * h * w, c_in), kernel.weight_t, out=out)
    else:
        h2, w2 = h + 2 * p, w + 2 * p
        plane = n * h2 * w2
        tap_out = ws.get(kernel.uid, "tap", (plane, c_out), dtype)
        src2d = src.reshape(plane, c_in)
        out4 = out.reshape(n, h_out, w_out, c_out)
        tap4 = tap_out.reshape(n, h2, w2, c_out)
        for tap in range(k * k):
            ky, kx = divmod(tap, k)
            np.matmul(src2d, kernel.weight_t[tap * c_in : (tap + 1) * c_in], out=tap_out)
            shifted = tap4[:, ky : ky + s * h_out : s, kx : kx + s * w_out : s, :]
            if tap == 0:
                np.copyto(out4, shifted)
            else:
                np.add(out4, shifted, out=out4)
    np.add(out, kernel.bias, out=out)

    if ctx is not None:
        ctx.effective_macs += n * spi * reduction * c_out
        ctx.dense_macs += n * kernel.dense_macs_per_image
    record_variant_traffic(recorder, "direct", *conv_variant_traffic(kernel, n, "direct"))
    if kernel.mask is not None:
        apply_threshold_mask(kernel, out.reshape(n, spi, c_out), task, ws, recorder, ctx, spi)
    elif ctx is not None:
        ctx.prev_sparsity = 0.0
    return out.reshape(n, h_out, w_out, c_out)


def _refine_conv_int8(kernel, q, x, cols, out, task, ws, n):
    """Recompute near-threshold int8 conv outputs from the float weights.

    The threshold mask is a hard decision, so a per-slot error of one
    quantization step can flip a channel dead/live and the flip *compounds*
    through every later masked layer — this, not the value noise itself, is
    what dominates int8 accuracy loss on threshold-masked networks.  The
    fix: estimate the per-slot noise sigma from the quantization model
    (input rounding ~ U(-in_scale/2, in_scale/2) against the weight column,
    weight rounding ~ U(-w_scale/2, w_scale/2) against the quantized input
    row), flag slots within ``_INT8_GUARD`` sigmas of the threshold, and
    recompute exactly those slots with the kernel's retained float weights
    via strided window gathers of the float input.  Flagged slots get exact
    values *and* exact decisions; unflagged slots are provably far enough
    from the threshold that their decision is already correct.  Typical
    flagged fraction is a few percent, so the extra float MACs are noise
    next to the layer GEMM.
    """
    c_in, h, w = kernel.in_shape
    c_out, h_out, w_out = kernel.out_shape
    k, s, p = kernel.kernel_size, kernel.stride, kernel.padding
    spi = h_out * w_out
    weight_t = kernel.weight_t
    thresholds = task.thresholds[kernel.mask.slot]
    # float64 accumulation: exact for the int-valued cols of both the float-
    # container ("int8") and int16 ("int8spd") datapaths — same flagged set.
    row_sumsq = np.einsum("ij,ij->i", cols, cols, dtype=np.float64)
    w_sumsq = np.einsum("ij,ij->j", weight_t, weight_t)
    variance = (q.in_scale ** 2 / 12.0) * (
        (q.w_scale.astype(np.float64) ** 2) * row_sumsq.reshape(n, spi, 1) + w_sumsq
    )
    out3 = out.reshape(n, spi, c_out)
    flagged = (out3 - thresholds) ** 2 <= (_INT8_GUARD ** 2) * variance
    img, pos, chan = np.nonzero(flagged)
    if img.size == 0:
        return
    if p:
        fplane = ws.get(kernel.uid, "fpad", (n, h + 2 * p, w + 2 * p, c_in), x.dtype)
        fplane[:, p : p + h, p : p + w, :] = x
    elif x.flags["C_CONTIGUOUS"]:
        fplane = x
    else:
        fplane = ws.get(kernel.uid, "fpad", (n, h, w, c_in), x.dtype)
        np.copyto(fplane, x)
    sn, sh, sw, sc = fplane.strides
    windows = as_strided(
        fplane,
        shape=(n, h_out, w_out, k, k, c_in),
        strides=(sn, s * sh, s * sw, sh, sw, sc),
    )
    # Window layout (ky, kx, c) matches weight_t's row order exactly.
    patches = windows[img, pos // w_out, pos % w_out].reshape(-1, k * k * c_in)
    # One per-element dot per flagged slot: einsum reduces each row in a
    # fixed order regardless of how many slots are flagged, so the refined
    # value is invariant to batch composition.  A per-column gathered gemv
    # would reduce in an m-dependent order, and a coalesced mixed-task batch
    # flags a different row set than the same rows run per task.
    out3[img, pos, chan] = (
        np.einsum("ij,ij->i", patches, weight_t.T[chan]) + kernel.bias[chan]
    )


def run_conv_int8(kernel, x, task, ws, recorder, ctx):
    """Symmetric int8 convolution: quantize → exact integer GEMM → dequantize.

    The padded plane is quantized in place (zero borders map to exactly 0,
    so the zero-from-allocation invariant survives quantization), the panel
    is strip-copied like the blocked path, and the epilogue dequantizes with
    the fused ``in_scale * w_scale[c]`` factors, adds the float bias,
    refines near-threshold slots (:func:`_refine_conv_int8`) and masks.
    Accumulation exactness: see :func:`quantize_gemm`.
    """
    q = kernel.quant
    if q is None:
        raise RuntimeError(
            f"kernel '{kernel.name}' has variant 'int8' but carries no quantized "
            "weights; run quantize_plan_kernels first"
        )
    n = x.shape[0]
    c_in, h, w = kernel.in_shape
    c_out, h_out, w_out = kernel.out_shape
    k, s, p = kernel.kernel_size, kernel.stride, kernel.padding
    dtype = kernel.weight_t.dtype
    acc_dtype = q.weight_q.dtype
    h2, w2 = h + 2 * p, w + 2 * p
    qplane = ws.get(kernel.uid, "qpad", (n, h2, w2, c_in), acc_dtype)
    interior = qplane[:, p : p + h, p : p + w, :]
    np.divide(x, q.in_scale, out=interior)
    np.rint(interior, out=interior)
    np.clip(interior, -_QMAX, _QMAX, out=interior)

    spi = h_out * w_out
    rows = n * spi
    reduction = q.weight_q.shape[0]
    cols = ws.get(kernel.uid, "qcols", (rows, reduction), acc_dtype)
    copy_window_strips(cols, qplane, n, h_out, w_out, k, s, c_in)
    out = ws.get(kernel.uid, "out", (rows, c_out), dtype)
    if acc_dtype == dtype:
        np.matmul(cols, q.weight_q, out=out)
        np.multiply(out, q.scale, out=out)
    else:
        wide = ws.get(kernel.uid, "qacc", (rows, c_out), acc_dtype)
        np.matmul(cols, q.weight_q, out=wide)
        np.multiply(wide, q.scale, out=wide)
        out[:] = wide
    np.add(out, kernel.bias, out=out)

    if ctx is not None:
        ctx.effective_macs += rows * reduction * c_out
        ctx.dense_macs += n * kernel.dense_macs_per_image
    record_variant_traffic(recorder, "int8", *conv_variant_traffic(kernel, n, "int8"))
    if kernel.mask is not None:
        _refine_conv_int8(kernel, q, x, cols, out, task, ws, n)
        apply_threshold_mask(kernel, out.reshape(n, spi, c_out), task, ws, recorder, ctx, spi)
    elif ctx is not None:
        ctx.prev_sparsity = 0.0
    return out.reshape(n, h_out, w_out, c_out)


# ---------------------------------------------------------------------------
# The genuine int8 speed datapath ("int8spd").
# ---------------------------------------------------------------------------
def int8_datapath_beats_float(
    rows: int = 256, depth: int = 576, width: int = 64, repeats: int = 3
) -> bool:
    """Does this host's wide-integer matmul beat float32 BLAS?  Probed once.

    ``int8spd`` only pays off where the integer einsum outruns the float
    GEMM it replaces (it is a wash or worse on hosts whose BLAS saturates
    memory bandwidth with float32 already).  The chooser consults this probe
    — one representative GEMM shape, best-of-``repeats``, cached in
    :data:`_INT8SPD_WINS` for the life of the process — so ineligible hosts
    never even time the variant.  Plans *shipped* with ``int8spd`` choices
    (via PlanSpec) still run it: eligibility gates choosing, not executing.
    """
    global _INT8SPD_WINS
    if _INT8SPD_WINS is not None:
        return _INT8SPD_WINS
    rng = np.random.default_rng(0)
    qa = rng.integers(-127, 128, size=(rows, depth), dtype=np.int16)
    qb = rng.integers(-127, 128, size=(depth, width), dtype=np.int16)
    acc = np.empty((rows, width), np.int32)
    fa, fb = qa.astype(np.float32), qb.astype(np.float32)
    fc = np.empty((rows, width), np.float32)
    int_best = float_best = float("inf")
    for _ in range(repeats + 1):  # round 0 doubles as warm-up
        start = time.perf_counter()
        np.einsum("ij,jk->ik", qa, qb, out=acc, dtype=np.int32, casting="unsafe")
        int_best = min(int_best, time.perf_counter() - start)
        start = time.perf_counter()
        np.matmul(fa, fb, out=fc)
        float_best = min(float_best, time.perf_counter() - start)
    _INT8SPD_WINS = bool(int_best < float_best)
    return _INT8SPD_WINS


def _int8_weight_qi(q) -> np.ndarray:
    """The quant payload's contiguous int16 weight rows, derived if absent."""
    wqi = getattr(q, "weight_qi", None)
    if wqi is None:
        # Plan rebuilt from a pre-v3 PlanSpec payload: derive the packed
        # integer rows once from the float container (values are ±127 ints).
        wqi = np.ascontiguousarray(q.weight_q.astype(np.int16))
        q.weight_qi = wqi
    return wqi


def _int8_accumulate(qx: np.ndarray, wqi: np.ndarray, acc: np.ndarray) -> None:
    """``acc[int32] = qx[int16] @ wqi[int16]`` — exact, panel-bounded depth."""
    reduction = wqi.shape[0]
    if reduction <= _INT8SPD_PANEL_ROWS:
        np.einsum("ij,jk->ik", qx, wqi, out=acc, dtype=np.int32, casting="unsafe")
        return
    partial = np.empty_like(acc)
    for k0 in range(0, reduction, _INT8SPD_PANEL_ROWS):
        k1 = min(reduction, k0 + _INT8SPD_PANEL_ROWS)
        target = acc if k0 == 0 else partial
        np.einsum(
            "ij,jk->ik", qx[:, k0:k1], wqi[k0:k1], out=target,
            dtype=np.int32, casting="unsafe",
        )
        if k0:
            acc += partial


def _int8_dequantize(kernel, q, acc, out, ws):
    """Shared dequant epilogue: int32 accumulator → scaled float + bias.

    Mirrors the float-container path's operation sequence exactly (same
    wide-dtype staging, same multiply/cast order), which is what makes
    ``int8spd`` bit-identical to ``int8``: both start from the same exact
    integer accumulation and run the same float ops from there.
    """
    dtype = kernel.weight_t.dtype
    acc_dtype = q.weight_q.dtype
    if acc_dtype == dtype:
        out[:] = acc
        np.multiply(out, q.scale, out=out)
    else:
        wide = ws.get(kernel.uid, "qacc", out.shape, acc_dtype)
        wide[:] = acc
        np.multiply(wide, q.scale, out=wide)
        out[:] = wide
    np.add(out, kernel.bias, out=out)


def run_conv_int8spd(kernel, x, task, ws, recorder, ctx):
    """int8 conv on the integer datapath (bit-identical to ``"int8"``).

    Same quantize → exact accumulation → dequantize → refine → mask pipeline
    as :func:`run_conv_int8`, but the column panel is narrowed to contiguous
    ``int16`` rows and the inner product runs as a wide-integer einsum into
    an ``int32`` accumulator (:func:`_int8_accumulate`) instead of a float-
    container GEMM.  Both accumulations are exact over the same integers and
    the dequant/refine epilogue is shared, so outputs match bit for bit —
    the variants differ only in which execution units do the work.
    """
    q = kernel.quant
    if q is None:
        raise RuntimeError(
            f"kernel '{kernel.name}' has variant 'int8spd' but carries no quantized "
            "weights; run quantize_plan_kernels first"
        )
    wqi = _int8_weight_qi(q)
    n = x.shape[0]
    c_in, h, w = kernel.in_shape
    c_out, h_out, w_out = kernel.out_shape
    k, s, p = kernel.kernel_size, kernel.stride, kernel.padding
    dtype = kernel.weight_t.dtype
    acc_dtype = q.weight_q.dtype
    h2, w2 = h + 2 * p, w + 2 * p
    # Quantize in a float plane (rint needs a float out), then narrow the
    # whole plane to int16 — the layout the integer inner product streams.
    qplane = ws.get(kernel.uid, "qpad", (n, h2, w2, c_in), acc_dtype)
    interior = qplane[:, p : p + h, p : p + w, :]
    np.divide(x, q.in_scale, out=interior)
    np.rint(interior, out=interior)
    np.clip(interior, -_QMAX, _QMAX, out=interior)
    qiplane = ws.get(kernel.uid, "qipad", (n, h2, w2, c_in), np.int16)
    np.copyto(qiplane, qplane, casting="unsafe")

    spi = h_out * w_out
    rows = n * spi
    cols = ws.get(kernel.uid, "qicols", (rows, wqi.shape[0]), np.int16)
    copy_window_strips(cols, qiplane, n, h_out, w_out, k, s, c_in)
    acc = ws.get(kernel.uid, "qiacc", (rows, c_out), np.int32)
    _int8_accumulate(cols, wqi, acc)
    out = ws.get(kernel.uid, "out", (rows, c_out), dtype)
    _int8_dequantize(kernel, q, acc, out, ws)

    if ctx is not None:
        ctx.effective_macs += rows * wqi.shape[0] * c_out
        ctx.dense_macs += n * kernel.dense_macs_per_image
    record_variant_traffic(
        recorder, "int8spd", *conv_variant_traffic(kernel, n, "int8spd")
    )
    if kernel.mask is not None:
        _refine_conv_int8(kernel, q, x, cols, out, task, ws, n)
        apply_threshold_mask(kernel, out.reshape(n, spi, c_out), task, ws, recorder, ctx, spi)
    elif ctx is not None:
        ctx.prev_sparsity = 0.0
    return out.reshape(n, h_out, w_out, c_out)


def run_conv_variant(kernel, x, task, ws, recorder, ctx):
    variant = kernel.variant
    if variant == "blocked":
        return run_conv_blocked(kernel, x, task, ws, recorder, ctx)
    if variant == "packed":
        return run_conv_blocked(
            kernel, x, task, ws, recorder, ctx,
            panels=packed_weight_panels(kernel), variant="packed",
        )
    if variant == "direct":
        return run_conv_direct(kernel, x, task, ws, recorder, ctx)
    if variant == "winograd":
        return run_conv_winograd(kernel, x, task, ws, recorder, ctx)
    if variant == "int8":
        return run_conv_int8(kernel, x, task, ws, recorder, ctx)
    if variant == "int8spd":
        return run_conv_int8spd(kernel, x, task, ws, recorder, ctx)
    raise ValueError(f"unknown conv variant '{variant}' on kernel '{kernel.name}'")


# ---------------------------------------------------------------------------
# Fully-connected variants.
# ---------------------------------------------------------------------------
def _linear_epilogue(kernel, out, task, ws, recorder, ctx, n):
    if kernel.mask is not None:
        apply_threshold_mask(kernel, out, task, ws, recorder, ctx, 1)
    else:
        if kernel.relu:
            np.maximum(out, 0.0, out=out)
        if ctx is not None:
            ctx.prev_sparsity = 0.0


def run_linear_blocked(kernel, x, task, ws, recorder, ctx, panels=None, variant="blocked"):
    """Row-blocked FC GEMM with the bias+mask epilogue fused per block.

    Sample rows are independent, so blocking them never regroups a
    reduction: bit-identical to the dense path.  With ``panels`` (the
    ``"packed"`` variant) each block multiplies against the L2-resident
    weight panels — see :func:`packed_weight_panels`, still bit-identical
    (the packer only keeps splits proven exact on this host).
    """
    n = x.shape[0]
    reduction, width = kernel.weight_t.shape
    dtype = kernel.weight_t.dtype
    out = ws.get(kernel.uid, "fc", (n, width), dtype)
    block = max(1, _COLS_BLOCK_BYTES // max(1, reduction * dtype.itemsize))
    thresholds = task.thresholds[kernel.mask.slot] if kernel.mask is not None else None
    survival_needed = recorder is not None or (ctx is not None and ctx.dynamic is not None)
    mask = channel_live = None
    if kernel.mask is not None:
        mask = ws.get(kernel.uid, "mask", (n, width), np.bool_)
        if survival_needed:
            channel_live = np.zeros(width, dtype=np.int64)
    for b0 in range(0, n, block):
        b1 = min(n, b0 + block)
        tile = out[b0:b1]
        if panels is None:
            matmul_rowsafe(x[b0:b1], kernel.weight_t, out=tile)
        else:
            for j0, j1, wpanel in panels:
                matmul_rowsafe(x[b0:b1], wpanel, out=tile[:, j0:j1])
        np.add(tile, kernel.bias, out=tile)
        if kernel.mask is not None:
            tile_mask = mask[b0:b1]
            # Per-row thresholds (mixed-task batches) are (n, width); the
            # single-task layouts ((1, width), or broadcastable (width,))
            # broadcast over every row block unsliced.
            per_row = thresholds.ndim == 2 and thresholds.shape[0] != 1
            tile_thr = thresholds[b0:b1] if per_row else thresholds
            np.greater_equal(tile, tile_thr, out=tile_mask)
            tile *= tile_mask
            if channel_live is not None:
                channel_live += tile_mask.sum(axis=0, dtype=np.int64)
        elif kernel.relu:
            np.maximum(tile, 0.0, out=tile)
    if ctx is not None:
        ctx.effective_macs += n * reduction * width
        ctx.dense_macs += n * kernel.dense_macs_per_image
    record_variant_traffic(recorder, variant, *linear_variant_traffic(kernel, n, variant))
    if kernel.mask is not None:
        if survival_needed:
            report_mask_stats(
                kernel, task, recorder, ctx, n, 1,
                channel_live, float(channel_live.sum()), n * width,
            )
        elif ctx is not None:
            ctx.prev_sparsity = 0.0
    elif ctx is not None:
        ctx.prev_sparsity = 0.0
    return out


def _refine_linear_int8(kernel, q, x, qx, out, task, n):
    """FC counterpart of :func:`_refine_conv_int8` (float input is at hand)."""
    weight_t = kernel.weight_t
    thresholds = task.thresholds[kernel.mask.slot]
    row_sumsq = np.einsum("ij,ij->i", qx, qx, dtype=np.float64)
    w_sumsq = np.einsum("ij,ij->j", weight_t, weight_t)
    variance = (q.in_scale ** 2 / 12.0) * (
        (q.w_scale.astype(np.float64) ** 2) * row_sumsq[:, None] + w_sumsq
    )
    flagged = (out - thresholds) ** 2 <= (_INT8_GUARD ** 2) * variance
    rows, chan = np.nonzero(flagged)
    if rows.size == 0:
        return
    # Per-element dots (see _refine_conv_int8): batch-composition-invariant,
    # unlike a per-column gathered gemv.
    out[rows, chan] = np.einsum("ij,ij->i", x[rows], weight_t.T[chan]) + kernel.bias[chan]


def run_linear_int8(kernel, x, task, ws, recorder, ctx):
    """Symmetric int8 FC layer (same contract as :func:`run_conv_int8`)."""
    q = kernel.quant
    if q is None:
        raise RuntimeError(
            f"kernel '{kernel.name}' has variant 'int8' but carries no quantized "
            "weights; run quantize_plan_kernels first"
        )
    n = x.shape[0]
    reduction, width = q.weight_q.shape
    dtype = kernel.weight_t.dtype
    acc_dtype = q.weight_q.dtype
    qx = ws.get(kernel.uid, "qin", (n, reduction), acc_dtype)
    np.divide(x, q.in_scale, out=qx)
    np.rint(qx, out=qx)
    np.clip(qx, -_QMAX, _QMAX, out=qx)
    out = ws.get(kernel.uid, "fc", (n, width), dtype)
    if acc_dtype == dtype:
        np.matmul(qx, q.weight_q, out=out)
        np.multiply(out, q.scale, out=out)
    else:
        wide = ws.get(kernel.uid, "qacc", (n, width), acc_dtype)
        np.matmul(qx, q.weight_q, out=wide)
        np.multiply(wide, q.scale, out=wide)
        out[:] = wide
    np.add(out, kernel.bias, out=out)
    if ctx is not None:
        ctx.effective_macs += n * reduction * width
        ctx.dense_macs += n * kernel.dense_macs_per_image
    record_variant_traffic(recorder, "int8", *linear_variant_traffic(kernel, n, "int8"))
    if kernel.mask is not None:
        _refine_linear_int8(kernel, q, x, qx, out, task, n)
    _linear_epilogue(kernel, out, task, ws, recorder, ctx, n)
    return out


def run_linear_int8spd(kernel, x, task, ws, recorder, ctx):
    """int8 FC on the integer datapath (bit-identical to ``"int8"``).

    FC counterpart of :func:`run_conv_int8spd`: int16 activation rows, wide-
    integer accumulation, shared dequant/refine epilogue.
    """
    q = kernel.quant
    if q is None:
        raise RuntimeError(
            f"kernel '{kernel.name}' has variant 'int8spd' but carries no quantized "
            "weights; run quantize_plan_kernels first"
        )
    wqi = _int8_weight_qi(q)
    n = x.shape[0]
    reduction, width = wqi.shape
    dtype = kernel.weight_t.dtype
    acc_dtype = q.weight_q.dtype
    qf = ws.get(kernel.uid, "qin", (n, reduction), acc_dtype)
    np.divide(x, q.in_scale, out=qf)
    np.rint(qf, out=qf)
    np.clip(qf, -_QMAX, _QMAX, out=qf)
    qx = ws.get(kernel.uid, "qiin", (n, reduction), np.int16)
    np.copyto(qx, qf, casting="unsafe")
    acc = ws.get(kernel.uid, "qiacc", (n, width), np.int32)
    _int8_accumulate(qx, wqi, acc)
    out = ws.get(kernel.uid, "fc", (n, width), dtype)
    _int8_dequantize(kernel, q, acc, out, ws)
    if ctx is not None:
        ctx.effective_macs += n * reduction * width
        ctx.dense_macs += n * kernel.dense_macs_per_image
    record_variant_traffic(
        recorder, "int8spd", *linear_variant_traffic(kernel, n, "int8spd")
    )
    if kernel.mask is not None:
        _refine_linear_int8(kernel, q, x, qx, out, task, n)
    _linear_epilogue(kernel, out, task, ws, recorder, ctx, n)
    return out


def run_linear_variant(kernel, x, task, ws, recorder, ctx):
    variant = kernel.variant
    if variant == "blocked":
        return run_linear_blocked(kernel, x, task, ws, recorder, ctx)
    if variant == "packed":
        return run_linear_blocked(
            kernel, x, task, ws, recorder, ctx,
            panels=packed_weight_panels(kernel), variant="packed",
        )
    if variant == "int8":
        return run_linear_int8(kernel, x, task, ws, recorder, ctx)
    if variant == "int8spd":
        return run_linear_int8spd(kernel, x, task, ws, recorder, ctx)
    raise ValueError(f"unknown linear variant '{variant}' on kernel '{kernel.name}'")


# ---------------------------------------------------------------------------
# int8 quantization.
# ---------------------------------------------------------------------------
@dataclass
class QuantizedGemm:
    """Symmetric per-output-channel quantization of one GEMM's weights.

    ``weight_q`` holds the integer weight values ``round(w / w_scale[c])``
    clipped to ±127, stored in a float container (``float32`` plans whose
    reduction satisfies ``K * 127 * 127 < 2**24`` — every float32 partial
    sum of int8 products is then exactly representable; wider reductions
    are stored/accumulated in ``float64``, exact to ``2**53``).  The host
    BLAS therefore computes the *exact* int32 accumulation an integer
    datapath would, which is what makes the declared accuracy contract a
    function of quantization alone, not of the GEMM.

    ``in_scale`` is the per-kernel activation scale calibrated from
    :class:`~repro.engine.calibrate.CalibrationProfile` ranges;
    ``scale = in_scale * w_scale`` is the fused dequantization factor the
    epilogue multiplies by before adding the float bias.
    """

    weight_q: np.ndarray  # (K, C_out), integer-valued
    w_scale: np.ndarray  # (C_out,)
    in_scale: float
    scale: np.ndarray  # (C_out,) = in_scale * w_scale
    #: The same integer weights packed as contiguous int16 rows — the layout
    #: the ``int8spd`` datapath streams.  Optional for backward compatibility
    #: with pre-v3 PlanSpec payloads; derived lazily when absent.
    weight_qi: Optional[np.ndarray] = None


def quantize_gemm(weight_t: np.ndarray, in_absmax: float, margin: float = 1.05) -> QuantizedGemm:
    """Quantize one ``(K, C_out)`` weight matrix for a calibrated input range.

    ``margin`` widens the calibrated activation range slightly so serving
    traffic marginally hotter than the calibration batch still lands inside
    the clip range instead of saturating.
    """
    dtype = weight_t.dtype
    in_scale = max(float(in_absmax) * margin, 1e-12) / _QMAX
    w_absmax = np.abs(weight_t).max(axis=0)
    w_scale = np.maximum(w_absmax, 1e-12) / _QMAX
    reduction = weight_t.shape[0]
    exact_f32 = reduction * _QMAX * _QMAX < 2.0**24
    acc_dtype = dtype if (dtype == np.float64 or exact_f32) else np.dtype(np.float64)
    weight_q = np.rint(weight_t / w_scale)
    np.clip(weight_q, -_QMAX, _QMAX, out=weight_q)
    weight_q = np.ascontiguousarray(weight_q, dtype=acc_dtype)
    return QuantizedGemm(
        weight_q=weight_q,
        w_scale=w_scale.astype(dtype),
        in_scale=in_scale,
        scale=(w_scale * in_scale).astype(dtype),
        weight_qi=np.ascontiguousarray(weight_q.astype(np.int16)),
    )


def quantize_plan_kernels(
    plan, profile, margin: float = 1.05, set_variant: bool = True
) -> List[str]:
    """Attach int8 weights to every GEMM kernel of ``plan``; return their names.

    ``profile`` must carry activation ranges for this plan's geometry —
    produced by :func:`~repro.engine.calibrate.calibrate_plan` run on *this*
    plan (a specialized plan's compacted streams see different activations
    than the dense plan, so calibrate the plan you quantize).  The range
    used per kernel is the maximum over the profile's tasks, so one
    quantized plan serves every task.  ``set_variant=False`` attaches the
    weights without switching the kernels over — the chooser can then let
    int8 compete instead of forcing it.

    Composes with dead-channel compaction: specialization preserves kernel
    names and this function reads each kernel's *current* (possibly
    compacted) ``weight_t``, so quantizing a specialized plan quantizes
    exactly the live columns.
    """
    ranges = getattr(profile, "ranges", None) or {}
    quantized: List[str] = []
    for kernel in plan.kernels:
        if getattr(kernel, "kind", None) not in ("conv", "linear"):
            continue
        per_task = [
            task_ranges[kernel.name]
            for task_ranges in ranges.values()
            if kernel.name in task_ranges
        ]
        if not per_task:
            raise KeyError(
                f"profile has no activation range for kernel '{kernel.name}'; "
                "re-run calibrate_plan on this plan (range recording is automatic)"
            )
        kernel.quant = quantize_gemm(kernel.weight_t, max(per_task), margin=margin)
        if set_variant:
            kernel.variant = "int8"
        quantized.append(kernel.name)
    if set_variant and quantized:
        choices = dict(getattr(plan, "kernel_choices", None) or {})
        choices.update({name: "int8" for name in quantized})
        plan.kernel_choices = choices
    return quantized


# ---------------------------------------------------------------------------
# The per-layer kernel chooser.
# ---------------------------------------------------------------------------
def variant_candidates(kernel) -> Sequence[str]:
    """Every variant ``kernel`` is eligible to run, default first.

    Shape gates: ``direct`` needs stride 1, ``winograd`` needs a stride-1
    3x3 (:func:`winograd_eligible`), the int8 variants need an attached
    quant payload, and ``int8spd`` additionally requires the host's integer
    datapath to beat float32 (:func:`int8_datapath_beats_float`) — there is
    no point letting the chooser time a variant that cannot win here.
    """
    kind = getattr(kernel, "kind", None)
    if kind == "conv":
        candidates = ["im2col", "blocked", "packed"]
        if kernel.stride == 1:
            candidates.append("direct")
        if winograd_eligible(kernel):
            candidates.append("winograd")
        if getattr(kernel, "quant", None) is not None:
            candidates.append("int8")
            if int8_datapath_beats_float():
                candidates.append("int8spd")
        return candidates
    if kind == "linear":
        candidates = ["dense", "blocked", "packed"]
        if getattr(kernel, "quant", None) is not None:
            candidates.append("int8")
            if int8_datapath_beats_float():
                candidates.append("int8spd")
        return candidates
    if kind == "pool":
        return list(POOL_VARIANTS)
    return ()


def set_kernel_variant(kernel, variant: str) -> None:
    """Set ``kernel.variant`` after validating eligibility."""
    candidates = variant_candidates(kernel)
    if variant not in candidates:
        name = getattr(kernel, "name", f"#{kernel.index}")
        raise ValueError(
            f"variant '{variant}' is not eligible for kernel '{name}' "
            f"(candidates: {list(candidates)})"
        )
    kernel.variant = variant


def force_kernel_variant(plan, variant: str) -> Dict[str, str]:
    """Set ``variant`` on every kernel eligible for it; return what was set.

    Ineligible kernels keep their current variant (e.g. forcing ``direct``
    leaves strided convs and FC layers alone), so a forced plan is always
    runnable.  Conv/linear naming is unified: forcing ``"im2col"`` resets
    FC kernels to their ``"dense"`` default and vice versa.
    """
    aliases = {"im2col": {"linear": "dense"}, "dense": {"conv": "im2col"}}
    chosen: Dict[str, str] = {}
    for kernel in plan.kernels:
        kind = getattr(kernel, "kind", None)
        wanted = aliases.get(variant, {}).get(kind, variant)
        if wanted in variant_candidates(kernel):
            kernel.variant = wanted
            chosen[kernel.name] = wanted
    plan.kernel_choices = dict(chosen)
    return chosen


def apply_kernel_choices(plan, choices: Dict[str, str], strict: bool = True) -> Dict[str, str]:
    """Replay a chooser's per-kernel choice map onto ``plan`` by kernel name.

    Specialization and :class:`~repro.engine.planspec.PlanSpec` rebuilds
    both preserve kernel names, so a choice map measured on one incarnation
    of a network transfers to the next.  With ``strict=False`` choices a
    kernel is not eligible for (e.g. ``int8`` on a freshly re-specialized
    plan that has not been re-quantized) are skipped instead of raising —
    the mode the online recalibration loop uses.
    """
    applied: Dict[str, str] = {}
    matched = set()
    for kernel in plan.kernels:
        name = getattr(kernel, "name", None)
        if name is None or name not in choices:
            continue
        matched.add(name)
        variant = choices[name]
        if variant not in variant_candidates(kernel):
            if strict:
                set_kernel_variant(kernel, variant)  # raises with the full message
            continue
        kernel.variant = variant
        applied[name] = variant
    unmatched = set(choices) - matched
    if unmatched and strict:
        raise KeyError(
            f"choices name kernels the plan does not have: {sorted(unmatched)}"
        )
    plan.kernel_choices = dict(applied)
    return applied


class KernelTimingCache:
    """Process-level memo of chooser measurements, keyed by geometry+variant.

    Two kernels with the same :func:`kernel_timing_key` — same kind, same
    (possibly compacted) weight shape, same conv geometry, same dtype and
    quantization signature, timed at the same batch — run the same machine
    code on the same data volumes, so one measurement serves both.  That is
    exactly the situation N per-task specialized plans, PlanSpec rebuilds
    and recalibration re-deploys create: the first chooser pass pays for the
    timings, every later pass with unchanged geometry is pure replay.
    ``hits``/``misses`` make the reuse observable (builders log it; the
    lifecycle tests assert zero re-timing across a re-deploy).
    """

    def __init__(self) -> None:
        self._times: Dict[tuple, float] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, key: tuple) -> Optional[float]:
        seconds = self._times.get(key)
        if seconds is None:
            self.misses += 1
        else:
            self.hits += 1
        return seconds

    def store(self, key: tuple, seconds: float) -> None:
        self._times[key] = float(seconds)

    def clear(self) -> None:
        self._times.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._times)


#: The process-wide default cache :func:`autotune_kernel_variants` consults.
TIMING_CACHE = KernelTimingCache()


def kernel_timing_key(kernel, variant: str, batch: int, dtype) -> tuple:
    """Hashable timing identity of (layer geometry, variant) at ``batch``.

    Covers everything that changes what the timed code path executes: kind,
    conv geometry, the *current* weight shape (so dead-channel compaction
    yields a different key than the dense layer), mask presence (the fused
    epilogue is part of the measurement), arithmetic dtype, and the quant
    container dtype for int8 variants.  Deliberately excludes weight values
    and kernel names: timings are value-independent, which is what lets one
    measurement serve every task's plan with the same shapes.
    """
    kind = getattr(kernel, "kind", None)
    if kind == "conv":
        geom: tuple = (
            "conv", kernel.in_shape, kernel.out_shape, kernel.weight_t.shape,
            kernel.kernel_size, kernel.stride, kernel.padding,
        )
    elif kind == "linear":
        geom = ("linear", kernel.weight_t.shape)
    else:
        geom = (kind, kernel.out_shape, kernel.kernel_size, kernel.stride)
    quant = getattr(kernel, "quant", None)
    quant_sig = str(quant.weight_q.dtype) if quant is not None else None
    return (
        geom,
        getattr(kernel, "mask", None) is not None,
        str(np.dtype(dtype)),
        int(batch),
        quant_sig,
        variant,
    )


def autotune_kernel_variants(
    plan,
    batch: int = 8,
    repeats: int = 3,
    seed: int = 0,
    task: Optional[str] = None,
    cache: Optional[KernelTimingCache] = None,
) -> Dict[str, str]:
    """Benchmark every eligible variant per kernel; cache winners on the plan.

    Times the real ``kernel.run`` entry point (epilogue included) on seeded
    synthetic inputs of each kernel's true serving geometry, against a real
    task plan, so the measured ordering is the ordering serving will see.
    Each kernel's variants share one scratch pool that is dropped before the
    next kernel is timed, so tuning peaks at one kernel's buffers.  The
    winning variant is left set on each kernel and the full choice map is
    stored on ``plan.kernel_choices`` — from where
    :class:`~repro.engine.planspec.PlanSpec` carries it to spawned workers
    and :func:`apply_kernel_choices` replays it after re-specialization.

    Choices are geometry-specific: autotune the plan you intend to serve
    (dense and per-task specialized plans each get their own pass), at the
    micro-batch size serving uses.  Measurements are memoised in ``cache``
    (default: the process-wide :data:`TIMING_CACHE`) under
    :func:`kernel_timing_key`, so a second plan with the same layer shapes —
    another task's specialization, a recalibration re-deploy — resolves its
    chooser without re-timing anything; pass a fresh
    :class:`KernelTimingCache` to force cold measurements.
    """
    if batch <= 0:
        raise ValueError("batch must be positive")
    if cache is None:
        cache = TIMING_CACHE
    task_name = task if task is not None else plan.task_names()[0]
    task_plan = plan.tasks[task_name]
    choices: Dict[str, str] = {}
    for kernel in plan.kernels:
        candidates = variant_candidates(kernel)
        if not candidates:
            continue
        times: Dict[str, float] = {}
        to_time: List[tuple] = []
        for variant in candidates:
            key = kernel_timing_key(kernel, variant, batch, plan.dtype)
            cached = cache.lookup(key)
            if cached is not None:
                times[variant] = cached
            else:
                to_time.append((variant, key))
        if to_time:
            kind = kernel.kind
            if kind == "conv":
                c_in, h, w = kernel.in_shape
                shape = (batch, h, w, c_in)
            elif kind == "linear":
                shape = (batch, kernel.weight_t.shape[0])
            else:  # pool: reconstruct the input geometry from the output shape
                c, h_out, w_out = kernel.out_shape
                k, s = kernel.kernel_size, kernel.stride
                shape = (batch, (h_out - 1) * s + k, (w_out - 1) * s + k, c)
            # Per-kernel seeding keeps the synthetic input deterministic no
            # matter which other kernels resolved from the cache.
            rng = np.random.default_rng((seed, kernel.index))
            x = np.abs(rng.normal(size=shape)).astype(plan.dtype)
            pool = plan._workspaces.__class__()
            # Interleave the timing rounds across variants (A B C, A B C,
            # ...) instead of exhausting each variant's repeats back to
            # back: CPU frequency drift then biases every candidate equally,
            # so near-ties between variants resolve by actual speed rather
            # than by which one happened to run during the faster clock
            # window.
            for variant, _ in to_time:
                kernel.variant = variant
                kernel.run(x, task_plan, pool, None, None)  # warm-up: allocate buffers
                times[variant] = float("inf")
            for _ in range(repeats):
                for variant, _ in to_time:
                    kernel.variant = variant
                    start = time.perf_counter()
                    kernel.run(x, task_plan, pool, None, None)
                    times[variant] = min(times[variant], time.perf_counter() - start)
            for variant, key in to_time:
                cache.store(key, times[variant])
        best_variant = min(times, key=times.get)
        kernel.variant = best_variant
        choices[kernel.name] = best_variant
    plan.kernel_choices = dict(choices)
    return choices
