"""Kernel lowerings for the fused GEMM engine, plus the per-layer chooser.

Every GEMM kernel of a compiled plan runs one of several lowerings of the
*same* layer semantics, selected per kernel instance by its ``variant``
attribute.  Each kind has one ``{name: runner}`` table; :data:`CONV_VARIANTS`
and :data:`LINEAR_VARIANTS` are its keys, default first.

Convolutions (``ConvGemmMaskKernel``)
  * ``"blocked"`` (default) — cache-blocked fused GEMM: per block of images,
    an im2col panel built by long-run strided copies
    (:func:`copy_window_strips`), GEMMs against L2-resident weight column
    panels packed once at plan build (:func:`packed_weight_panels`), and the
    bias + threshold-mask epilogue while the tile is cache-hot.
    **Bit-identical** to one monolithic im2col GEMM: the panel equals the
    im2col matrix, blocking never splits a GEMM row, and a weight split is
    kept only after a build-time proof that it reproduces the full-width
    GEMM's bits on this host.  The home of the dynamic row-gather fast path.
  * ``"direct"`` — im2col-free shift-and-add convolution: one full-plane
    GEMM per filter tap, accumulated through shifted window views, with no
    panel workspace at all.  1x1/stride-1 layers degenerate to the
    identical single GEMM (bit-exact); for k>1 the per-pixel reduction is
    regrouped into per-tap partial sums, so the contract is ULP-level
    (:func:`winograd_tolerance`), not bitwise.  Stride-1 layers only.
  * ``"int8"`` — opt-in symmetric-quantized inference (see
    :class:`QuantizedGemm`): activations quantized on the fly with a
    calibrated per-kernel scale, per-output-channel weight scales, an exact
    integer GEMM in a float container, then dequantize + float bias +
    near-threshold refinement + mask.  Accuracy contract: declared tolerance
    measured by the differential suite, not bit-exactness.

Fully-connected layers (``LinearMaskKernel``)
  ``"dense"`` (default: one GEMM with the dynamic row-gather fast path) and
  ``"int8"``.

Max pooling (``MaxPoolKernel``) has one path — the strided-window
``np.maximum`` cascade — and is not a chooser candidate.

:func:`autotune_kernel_variants` times every eligible variant of every
kernel through the real ``kernel.run`` entry point and caches the winners on
``plan.kernel_choices``, memoised per (layer geometry, variant) in a
process-level :class:`KernelTimingCache`; :func:`apply_kernel_choices`
replays a choice map onto any plan whose kernels share names, which is how
choices survive :class:`~repro.engine.planspec.PlanSpec` round-trips.

This module deliberately imports nothing from :mod:`repro.engine.plan`
(``plan.py`` imports *us*); every entry point takes the kernel object and
duck-types against the attributes all plan kernels carry (``kind``,
``variant``, geometry, ``mask``, ``dense_macs_per_image``...).  The
:class:`WorkspacePool` every kernel draws its buffers from lives here for
the same reason.
"""

from __future__ import annotations

import math
import mmap
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "WorkspacePool",
    "CONV_VARIANTS",
    "LINEAR_VARIANTS",
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
    "packed_weight_panels",
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
#: blocked runner produces, from a single-image remainder block to a full
#: cache block.
_PACKED_PROBE_ROWS = (1, 8, 64, 256)

#: int8 symmetric quantization range (zero-point-free).
_QMAX = 127.0

#: Guard band of the int8 decision-refinement epilogue, in standard
#: deviations of the per-slot quantization noise.  Output slots whose
#: dequantized value lands within ``guard * sigma`` of the task threshold
#: are recomputed from the retained float weights, so near-threshold mask
#: decisions are exact and quantization error cannot compound through the
#: layer stack (see ``_refine_conv_int8``).
_INT8_GUARD = 8.0


# ---------------------------------------------------------------------------
# Workspace memory, keyed by lifetime.
# ---------------------------------------------------------------------------
class WorkspacePool:
    """Scratch memory of one executing thread, keyed by lifetime, not by kernel.

    A plan is a chain of kernels, so every buffer has one of two lifetimes.
    **Scratch** — pad planes, the blocked conv's image-block ``panel``,
    masks, the ``tap`` and int8 ``q*`` temporaries, the ``rowpad``/``rowprod``
    padding of GEMMs under 8 rows, and the channels-last ``input`` copy and a
    mixed batch's per-row ``mixthr<slot>`` thresholds (which live for the
    whole run) — gets one growable slab per label, shared by every kernel of
    every plan: two buffers live in one kernel call always carry different
    labels, so they never alias.  A kernel **output** dies when the next kernel returns, so
    outputs alternate between two slabs and :meth:`output` hands each kernel
    the one that does not hold its input.  The pool therefore holds what one
    kernel call keeps live, at the largest batch seen, however many kernels,
    plans or tasks run through it.

    Each slab is sized by the largest request for its label; a request is a
    view of the slab's leading bytes, cached per (label, shape, dtype) and
    rebuilt only when the slab grows, so a steady-state :meth:`get` is one
    dict lookup.  Slabs are shared and start uninitialised, so no kernel may
    rely on zeros from allocation: pad planes re-zero their border
    (:func:`zero_border`) and the channel scatter zeroes its dead channels
    on every call.

    Each slab is a private anonymous memory mapping of its own, not a
    ``malloc`` block (so ``tracemalloc`` does not see slabs).  A serving
    worker's pool regrows a slab each time a batch is the largest yet, up to
    ``micro_batch`` times per label, and once set-up's large frees have
    raised glibc's mmap threshold above slab sizes, each replaced ``malloc``
    block would stay behind as a hole in the worker's arena that the next,
    larger slab cannot reuse.  A mapping goes back to the system as soon as
    its slab is replaced or its pool is dropped.

    A pool serves one thread at a time; :meth:`EnginePlan.run
    <repro.engine.plan.EnginePlan.run>` uses a per-thread default pool unless
    given one.  Pools are **process-local**: slabs cached before a ``fork``
    are dropped on first use in the child, which must never write memory its
    parent may still be reading.
    """

    def __init__(self) -> None:
        self._slabs: Dict[str, np.ndarray] = {}
        self._views: Dict[tuple, np.ndarray] = {}
        self._pid = os.getpid()

    def get(self, label: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        if self._pid != os.getpid():
            self._slabs, self._views, self._pid = {}, {}, os.getpid()
        view = self._views.get((label, shape, dtype))
        if view is None:
            nbytes = math.prod(shape) * np.dtype(dtype).itemsize
            slab = self._slabs.get(label)
            if slab is None or slab.nbytes < nbytes:
                slab = self._slabs[label] = _mapped_slab(nbytes)
                # Cached views of the old slab would keep it alive.
                self._views = {key: v for key, v in self._views.items() if key[0] != label}
            view = slab[:nbytes].view(dtype).reshape(shape)
            self._views[(label, shape, dtype)] = view
        return view

    def output(self, x: np.ndarray, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """The output buffer of a kernel whose input is ``x``: never aliases it."""
        out = self.get("out", shape, dtype)
        return self.get("out2", shape, dtype) if np.may_share_memory(out, x) else out

    @property
    def nbytes(self) -> int:
        """Bytes held, summed over every slab."""
        return sum(slab.nbytes for slab in self._slabs.values())

    def __len__(self) -> int:
        return len(self._slabs)


def _mapped_slab(nbytes: int) -> np.ndarray:
    """``nbytes`` uninitialised bytes in a private anonymous mapping."""
    region = mmap.mmap(-1, max(nbytes, 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(region, dtype=np.uint8)


def zero_border(plane: np.ndarray, p: int, h: int, w: int) -> None:
    """Zero every pixel of an NHWC ``plane`` outside ``[p:p+h, p:p+w]``."""
    plane[:, :p] = 0
    plane[:, p + h :] = 0
    plane[:, p : p + h, :p] = 0
    plane[:, p : p + h, p + w :] = 0


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


def matmul_rowsafe(
    a: np.ndarray, b: np.ndarray, ws: WorkspacePool, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``a @ b`` whose per-row results match the same rows in any batch size.

    BLAS dispatches small-M products (a single request's FC layer, a task
    owning one row of a mixed micro-batch) to gemv/skinny kernels that
    reduce in a different order than the standard sgemm path, producing
    ULP-different outputs for the identical row depending on how many other
    rows share the call.  That would break the serving contract that a
    coalesced mixed-task batch is bit-identical to per-task execution of the
    same rows.  Padding small batches to :data:`_SGEMM_MIN_ROWS` (the extra
    rows are zeros and discarded) keeps every call on the one sgemm path,
    whose per-row reductions are independent of M.  The padded operand and
    its product live in ``ws`` (labels ``rowpad``/``rowprod``, which no
    kernel shares), so a small batch allocates only its result, and only
    when ``out`` is not given.  Integer (int8) GEMMs accumulate exactly at
    any M and never need this detour.
    """
    m = a.shape[0]
    if m >= _SGEMM_MIN_ROWS:
        return np.matmul(a, b, out=out)
    dtype = np.result_type(a.dtype, b.dtype)
    padded = ws.get("rowpad", (_SGEMM_MIN_ROWS,) + a.shape[1:], a.dtype)
    padded[:m] = a
    padded[m:] = 0
    product = ws.get("rowprod", (_SGEMM_MIN_ROWS, b.shape[1]), dtype)
    np.matmul(padded, b, out=product)
    if out is None:
        return product[:m].copy()
    out[:] = product[:m]
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
    :func:`report_mask_stats`; the blocked variant skips this function and
    masks per cache-hot tile instead, feeding the same reporting tail with
    its accumulated counts.
    """
    n = gemm.shape[0]
    mask = ws.get("mask", gemm.shape, np.bool_)
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
    run ~``(H+2p)(W+2p)/(HW)`` more MACs than the blocked lowering of the
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
    macs = rows * reduction * c_out
    # blocked/int8: the im2col panel is written once and re-read by the GEMM.
    cols_bytes = 2 * item * rows * reduction
    nbytes = input_bytes + cols_bytes + weight_bytes + out_bytes + mask_bytes
    if variant == "int8":
        nbytes += item * plane * c_in  # the extra quantize pass
    return macs, nbytes


def linear_variant_traffic(kernel, n: int, variant: str) -> tuple:
    """(physical MACs, modelled bytes touched) of one FC batch."""
    item = kernel.weight_t.dtype.itemsize
    reduction, width = kernel.weight_t.shape
    macs = n * reduction * width
    nbytes = item * (n * reduction + reduction * width + n * width)
    if kernel.mask is not None:
        nbytes += 2 * n * width + item * n * width
    if variant == "int8":
        nbytes += item * n * reduction
    return macs, nbytes


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
    :class:`WorkspacePool` — steady-state serving allocates nothing here,
    whatever layout the upstream kernel produced.
    """
    p = kernel.padding
    n = x.shape[0]
    c_in, h, w = kernel.in_shape
    if p == 0:
        if x.flags["C_CONTIGUOUS"]:
            return x
        contig = ws.get("pad", (n, h, w, c_in), kernel.weight_t.dtype)
        np.copyto(contig, x)
        return contig
    padded = ws.get("pad", (n, h + 2 * p, w + 2 * p, c_in), kernel.weight_t.dtype)
    # The slab is shared, so the border is re-zeroed (four thin slices)
    # before the interior is copied in; no full memset.
    zero_border(padded, p, h, w)
    padded[:, p : p + h, p : p + w, :] = x
    return padded


# ---------------------------------------------------------------------------
# The default lowerings and their dynamic sparse fast path.
# ---------------------------------------------------------------------------
def _gemm_with_dynamic_row_gather(kernel, a: np.ndarray, out: np.ndarray, ws, ctx) -> bool:
    """``out = a @ kernel.weight_t + kernel.bias``, row-gathered when it pays.

    When the run context's gate says the previous masked layer was sparse
    enough, rows of ``a`` that are entirely zero (a receptive field the
    previous mask killed completely, or a fully-masked sample) are skipped:
    the output is prefilled with the bias — a zero row GEMMs to exactly the
    bias — and only the surviving rows are multiplied.  Gathering preserves
    each surviving row's reduction order, so both paths are bit-identical to
    the dense matmul (both routed through :func:`matmul_rowsafe` so a single
    surviving row still reduces in sgemm order).  Effective-MAC accounting
    lands in ``ctx``; returns whether the row-gather path ran.
    """
    rows = a.shape[0]
    reduction, width = kernel.weight_t.shape
    if ctx is not None and ctx.dynamic is not None and ctx.prev_sparsity >= ctx.dynamic.gate:
        live = a.any(axis=1)
        live_rows = int(np.count_nonzero(live))
        if live_rows / rows <= ctx.dynamic.crossover_for(kernel.name):
            out[:] = kernel.bias
            if live_rows:
                out[live] = matmul_rowsafe(a[live], kernel.weight_t, ws) + kernel.bias
            ctx.dynamic_gemms += 1
            ctx.effective_macs += live_rows * reduction * width
            return True
    matmul_rowsafe(a, kernel.weight_t, ws, out=out)
    out += kernel.bias
    if ctx is not None:
        ctx.effective_macs += rows * reduction * width
    return False


def _linear_epilogue(kernel, out, task, ws, recorder, ctx):
    if kernel.mask is not None:
        apply_threshold_mask(kernel, out, task, ws, recorder, ctx, 1)
    else:
        if kernel.relu:
            np.maximum(out, 0.0, out=out)
        if ctx is not None:
            ctx.prev_sparsity = 0.0


def run_linear_dense(kernel, x, task, ws, recorder, ctx):
    """The default FC lowering: one GEMM → threshold mask / ReLU.

    Rows are samples here: the dynamic fast path skips samples whose whole
    feature vector was masked away.
    """
    n = x.shape[0]
    out = ws.output(x, (n, kernel.weight_t.shape[1]), x.dtype)
    used = "dynamic" if _gemm_with_dynamic_row_gather(kernel, x, out, ws, ctx) else "dense"
    if ctx is not None:
        ctx.dense_macs += n * kernel.dense_macs_per_image
    record_variant_traffic(recorder, used, *linear_variant_traffic(kernel, n, "dense"))
    _linear_epilogue(kernel, out, task, ws, recorder, ctx)
    return out


def run_conv_blocked(kernel, x, task, ws, recorder, ctx):
    """The default conv lowering: cache-blocked im2col GEMM, bias+mask fused per block.

    Bit-identical to one monolithic im2col GEMM: the strip-copied panel
    equals the im2col matrix and blocking over *images* never splits a GEMM
    row, so every output element sees the same reduction order.  Each
    block's GEMM runs against the L2-resident weight panels from
    :func:`packed_weight_panels` instead of streaming the full-width weight
    matrix — still bit-identical, because the packer only keeps splits
    proven exact on this host.  While the run context's dynamic gate is
    open, each block's GEMM takes the row-gather fast path instead
    (:func:`_gemm_with_dynamic_row_gather`): panel rows are spatial output
    positions, and one whose receptive field is entirely zero is skipped.
    """
    n = x.shape[0]
    c_in, _, _ = kernel.in_shape
    c_out, h_out, w_out = kernel.out_shape
    k, s = kernel.kernel_size, kernel.stride
    dtype = kernel.weight_t.dtype
    src = _padded_input(kernel, x, ws)
    panels = packed_weight_panels(kernel)
    spi = h_out * w_out
    reduction = kernel.weight_t.shape[0]
    # Round (not floor) to the nearest image count whose panel hits the byte
    # target: a 1.1-panel-sized budget should still pair images up — the
    # measured sweet spot sits at the target, not strictly under it.
    panel_bytes = max(1, spi * reduction * dtype.itemsize)
    block = max(1, min(n, (_COLS_BLOCK_BYTES + panel_bytes // 2) // panel_bytes))

    out = ws.output(x, (n * spi, c_out), dtype)
    cols = ws.get("panel", (block * spi, reduction), dtype)
    dynamic = ctx.dynamic if ctx is not None else None
    gate_open = dynamic is not None and ctx.prev_sparsity >= dynamic.gate
    gathered = False
    survival_needed = recorder is not None or dynamic is not None
    need_channels = (
        recorder is not None and getattr(recorder, "record_channels", None) is not None
    )
    thresholds = mask = channel_live = None
    live_total = 0
    if kernel.mask is not None:
        thresholds = task.thresholds[kernel.mask.slot]
        mask = ws.get("mask", (n, spi, c_out), np.bool_)
        if need_channels:
            channel_live = np.zeros(c_out, dtype=np.int64)

    for b0 in range(0, n, block):
        nb = min(n, b0 + block) - b0
        panel = cols[: nb * spi]
        copy_window_strips(panel, src[b0 : b0 + nb], nb, h_out, w_out, k, s, c_in)
        tile = out[b0 * spi : (b0 + nb) * spi]
        if gate_open:
            gathered |= _gemm_with_dynamic_row_gather(kernel, panel, tile, ws, ctx)
        else:
            # Row-stable like the gather path's GEMMs, so a tiny block (fewer
            # than 8 rows) reduces identically whichever way the gate falls.
            for j0, j1, wpanel in panels:
                matmul_rowsafe(panel, wpanel, ws, out=tile[:, j0:j1])
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
        if not gate_open:  # the row-gather helper counts its own MACs per block
            ctx.effective_macs += n * spi * reduction * c_out
        ctx.dense_macs += n * kernel.dense_macs_per_image
    used = "dynamic" if gathered else "blocked"
    record_variant_traffic(recorder, used, *conv_variant_traffic(kernel, n, "blocked"))
    if kernel.mask is not None and survival_needed:
        live = float(channel_live.sum()) if channel_live is not None else float(live_total)
        report_mask_stats(
            kernel, task, recorder, ctx, n, spi, channel_live, live, n * spi * c_out
        )
    elif ctx is not None:
        ctx.prev_sparsity = 0.0
    return out.reshape(n, h_out, w_out, c_out)


# ---------------------------------------------------------------------------
# Packed weight panels (the "blocked" variant's plan-build-time state).
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
# The other convolution variants.
# ---------------------------------------------------------------------------
def winograd_tolerance(dtype) -> Dict[str, float]:
    """Declared tolerance of lowerings that reorder float reductions, per dtype.

    ``direct`` regroups each output's reduction into per-tap partial sums and
    compacted specialization drops dead terms from it, so their outputs
    differ from the single-GEMM reduction by accumulated rounding — a few ULP of
    the arithmetic dtype in practice.  These bounds are the *contract*
    (``np.allclose(..., **winograd_tolerance(dtype))``), declared with
    safety margin above the observed error.  The name is historical.
    """
    if np.dtype(dtype) == np.float64:
        return {"rtol": 1e-8, "atol": 1e-10}
    return {"rtol": 1e-3, "atol": 1e-5}


def run_conv_direct(kernel, x, task, ws, recorder, ctx):
    """im2col-free shift-and-add convolution (one GEMM per filter tap).

    Each tap's weights form a contiguous ``(C_in, C_out)`` row slice of
    ``weight_t`` (rows are in ``(ky, kx, c)`` order), so the tap GEMM runs
    over the raw padded plane and its output is accumulated into the result
    through a shifted window view — no column matrix is ever materialised.
    1x1/stride-1 collapses to a single GEMM over the input itself and is
    bit-identical to ``blocked``; k>1 regroups the reduction per tap (ULP-level).
    """
    n = x.shape[0]
    c_in, h, w = kernel.in_shape
    c_out, h_out, w_out = kernel.out_shape
    k, s, p = kernel.kernel_size, kernel.stride, kernel.padding
    dtype = kernel.weight_t.dtype
    spi = h_out * w_out
    reduction = kernel.weight_t.shape[0]
    out = ws.output(x, (n * spi, c_out), dtype)
    src = _padded_input(kernel, x, ws)
    if k == 1 and p == 0 and s == 1:
        matmul_rowsafe(src.reshape(n * h * w, c_in), kernel.weight_t, ws, out=out)
    else:
        h2, w2 = h + 2 * p, w + 2 * p
        plane = n * h2 * w2
        tap_out = ws.get("tap", (plane, c_out), dtype)
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
    # float64 accumulation: exact for the int-valued cols whatever their
    # float container, so the flagged set never depends on it.
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
        fplane = ws.get("fpad", (n, h + 2 * p, w + 2 * p, c_in), x.dtype)
        zero_border(fplane, p, h, w)
        fplane[:, p : p + h, p : p + w, :] = x
    elif x.flags["C_CONTIGUOUS"]:
        fplane = x
    else:
        fplane = ws.get("fpad", (n, h, w, c_in), x.dtype)
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


def _int8_payload(kernel):
    if kernel.quant is None:
        raise RuntimeError(
            f"kernel '{kernel.name}' has variant 'int8' but carries no quantized "
            "weights; run quantize_plan_kernels first"
        )
    return kernel.quant


def _quantize_into(x: np.ndarray, q, out: np.ndarray) -> None:
    np.divide(x, q.in_scale, out=out)
    np.rint(out, out=out)
    np.clip(out, -_QMAX, _QMAX, out=out)


def _int8_gemm(kernel, q, qx: np.ndarray, out: np.ndarray, ws) -> None:
    """``out = (qx @ weight_q) * scale + bias``: exact accumulation, then dequant."""
    if q.weight_q.dtype == out.dtype:
        np.matmul(qx, q.weight_q, out=out)
        np.multiply(out, q.scale, out=out)
    else:
        wide = ws.get("qacc", out.shape, q.weight_q.dtype)
        np.matmul(qx, q.weight_q, out=wide)
        np.multiply(wide, q.scale, out=wide)
        out[:] = wide
    np.add(out, kernel.bias, out=out)


def run_conv_int8(kernel, x, task, ws, recorder, ctx):
    """Symmetric int8 convolution: quantize → exact integer GEMM → dequantize.

    The padded plane's interior is quantized in place around a re-zeroed
    border (0 quantizes to exactly 0), the panel is strip-copied like the
    blocked path, and the epilogue dequantizes with
    the fused ``in_scale * w_scale[c]`` factors, adds the float bias,
    refines near-threshold slots (:func:`_refine_conv_int8`) and masks.
    Accumulation exactness: see :func:`quantize_gemm`.
    """
    q = _int8_payload(kernel)
    n = x.shape[0]
    c_in, h, w = kernel.in_shape
    c_out, h_out, w_out = kernel.out_shape
    k, s, p = kernel.kernel_size, kernel.stride, kernel.padding
    acc_dtype = q.weight_q.dtype
    qplane = ws.get("qpad", (n, h + 2 * p, w + 2 * p, c_in), acc_dtype)
    zero_border(qplane, p, h, w)
    _quantize_into(x, q, qplane[:, p : p + h, p : p + w, :])

    spi = h_out * w_out
    rows = n * spi
    reduction = q.weight_q.shape[0]
    cols = ws.get("qcols", (rows, reduction), acc_dtype)
    copy_window_strips(cols, qplane, n, h_out, w_out, k, s, c_in)
    out = ws.output(x, (rows, c_out), kernel.weight_t.dtype)
    _int8_gemm(kernel, q, cols, out, ws)

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
# Fully-connected variants.
# ---------------------------------------------------------------------------
def _refine_linear_int8(kernel, q, x, qx, out, task):
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
    q = _int8_payload(kernel)
    n = x.shape[0]
    reduction, width = q.weight_q.shape
    qx = ws.get("qin", (n, reduction), q.weight_q.dtype)
    _quantize_into(x, q, qx)
    out = ws.output(x, (n, width), kernel.weight_t.dtype)
    _int8_gemm(kernel, q, qx, out, ws)
    if ctx is not None:
        ctx.effective_macs += n * reduction * width
        ctx.dense_macs += n * kernel.dense_macs_per_image
    record_variant_traffic(recorder, "int8", *linear_variant_traffic(kernel, n, "int8"))
    if kernel.mask is not None:
        _refine_linear_int8(kernel, q, x, qx, out, task)
    _linear_epilogue(kernel, out, task, ws, recorder, ctx)
    return out


# ---------------------------------------------------------------------------
# One {name: runner} table per kernel kind, default first.
# ---------------------------------------------------------------------------
_CONV_RUNNERS = {
    "blocked": run_conv_blocked,
    "direct": run_conv_direct,
    "int8": run_conv_int8,
}
_LINEAR_RUNNERS = {
    "dense": run_linear_dense,
    "int8": run_linear_int8,
}
_RUNNERS = {"conv": _CONV_RUNNERS, "linear": _LINEAR_RUNNERS}
CONV_VARIANTS = tuple(_CONV_RUNNERS)
LINEAR_VARIANTS = tuple(_LINEAR_RUNNERS)


def run_variant(kernel, x, task, ws, recorder, ctx):
    """Run a conv/FC kernel through its variant's runner.

    Float variants defer to the default lowering whenever the dynamic gate is
    armed and the previous layer's sparsity cleared it, so the row-gather
    fast path (and its bit-exactness) holds whichever variant the chooser
    picked.
    """
    if recorder is not None:
        record_range = getattr(recorder, "record_range", None)
        if record_range is not None:
            record_range(task.name, kernel.name, float(np.abs(x).max()))
    runners = _RUNNERS[kernel.kind]
    variant = kernel.variant
    dynamic = ctx.dynamic if ctx is not None else None
    if variant != "int8" and dynamic is not None and ctx.prev_sparsity >= dynamic.gate:
        variant = next(iter(runners))  # the default lowering
    runner = runners.get(variant)
    if runner is None:
        raise ValueError(f"unknown {kernel.kind} variant '{variant}' on kernel '{kernel.name}'")
    return runner(kernel, x, task, ws, recorder, ctx)


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

    Reads the kind's runner table; shape gates: ``direct`` needs stride 1,
    ``int8`` needs an attached quant payload.  Kernels without a table
    (pooling, flatten, scatter) have no candidates.
    """
    runners = _RUNNERS.get(getattr(kernel, "kind", None), {})
    quantized = getattr(kernel, "quant", None) is not None
    return [
        name
        for name in runners
        if (name != "direct" or kernel.stride == 1) and (name != "int8" or quantized)
    ]


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
    runnable.  Forcing a default forces every default: ``"blocked"`` also
    resets FC kernels to ``"dense"``, and ``"dense"`` resets convs to
    ``"blocked"``.
    """
    defaults = (CONV_VARIANTS[0], LINEAR_VARIANTS[0])
    chosen: Dict[str, str] = {}
    for kernel in plan.kernels:
        candidates = variant_candidates(kernel)
        wanted = candidates[0] if variant in defaults and candidates else variant
        if wanted in candidates:
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
    container dtype for the int8 variant.  Deliberately excludes weight values
    and kernel names: timings are value-independent, which is what lets one
    measurement serve every task's plan with the same shapes.
    """
    kind = getattr(kernel, "kind", None)
    if kind == "conv":
        geom: tuple = (
            "conv", kernel.in_shape, kernel.out_shape, kernel.weight_t.shape,
            kernel.kernel_size, kernel.stride, kernel.padding,
        )
    else:
        geom = (kind, kernel.weight_t.shape)
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
    Each kernel's variants share one private scratch pool that is dropped
    before the next kernel is timed, so tuning peaks at one kernel's buffers
    and leaves the serving thread's pool untouched.  The
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
            if kernel.kind == "conv":
                c_in, h, w = kernel.in_shape
                shape = (batch, h, w, c_in)
            else:
                shape = (batch, kernel.weight_t.shape[0])
            # Per-kernel seeding keeps the synthetic input deterministic no
            # matter which other kernels resolved from the cache.
            rng = np.random.default_rng((seed, kernel.index))
            x = np.abs(rng.normal(size=shape)).astype(plan.dtype)
            pool = WorkspacePool()
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
