"""Ahead-of-time compilation of a :class:`~repro.mime.masked_model.MimeNetwork`.

``compile_network`` walks the training network once and materialises an
:class:`EnginePlan`: a flat list of fused inference kernels over a *snapshot*
of the frozen backbone, plus one pre-bound :class:`TaskPlan` per registered
child task.  The training network is never touched again — compilation copies
every tensor it needs, so serving traffic cannot perturb training state and
vice versa.

The fusions mirror what a deployment compiler would do for this topology:

* **BatchNorm folding** — the backbone is frozen and its normalisation layers
  permanently run on running statistics, so every Conv→BatchNorm (and
  Linear→BatchNorm) pair collapses exactly into a rescaled weight and bias.
* **conv → im2col-GEMM → threshold-mask fusion** — a convolution lowers to one
  GEMM whose output stays in ``(N·H·W, C)`` layout; the task's thresholds are
  pre-transposed into that same layout at task-plan build time, so masking is
  a single broadcast compare directly on the GEMM output.
* **NHWC activation layout** — the GEMM naturally produces channels-last
  activations, so the whole compiled feature stack keeps them that way:
  convolution weights are pre-reordered to ``(K·K·C_in, C_out)`` and the first
  classifier Linear's columns are permuted at compile time to consume NHWC
  features.  Only the entry batch is transposed at run time; no intermediate
  layout round-trips remain.
* **workspace reuse** — the im2col column matrix, the padded-input buffer and
  the GEMM output are allocated once per kernel at the largest batch seen and
  reused (as prefix views for smaller batches) across calls, so steady-state
  serving does no large allocations.

Task switching is O(1): a :class:`TaskPlan` is a dictionary entry holding the
pre-cast thresholds and head, and selecting it binds nothing into the shared
kernels.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import BatchNorm1d, BatchNorm2d, Conv2d, Dropout, Flatten, Linear, MaxPool2d, ReLU
from repro.engine import kernels as _kernels
from repro.mime.masked_model import MimeNetwork
from repro.mime.task_manager import TaskParameters
from repro.mime.threshold_layer import ThresholdMask
from repro.utils.ratios import fraction_saved


class CompileError(RuntimeError):
    """Raised when a network contains a layer the engine cannot compile."""


# ---------------------------------------------------------------------------
# Mask geometry: how a task's threshold tensor maps onto a kernel's output.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MaskSpec:
    """Layout of one threshold mask inside the compiled plan.

    ``slot`` indexes into ``TaskParameters.thresholds`` (network order);
    ``gemm_shape`` is the broadcastable shape of the thresholds against the
    owning kernel's GEMM-layout output.
    """

    slot: int
    layer_name: str
    kind: str  # "conv" (thresholds (C, H, W) -> (1, H*W, C)) or "linear" ((F,) -> (1, F))
    gemm_shape: Tuple[int, ...]


class WorkspacePool:
    """Reusable scratch buffers, one per (kernel uid, label, trailing shape, dtype).

    A pool belongs to exactly one executing thread at a time: the plan's
    kernels write their im2col columns, padded inputs and GEMM outputs into
    it.  The plan owns one default pool for single-threaded callers; each
    serving worker holds its own and passes it to :meth:`EnginePlan.run`,
    which is what makes one immutable plan safe to run from N threads.
    Process-unique kernel uids let one pool serve several plans (a dense plan
    and per-task specialized plans) without same-index kernels colliding.

    The leading extent of a request (the batch, or a multiple of it such as
    im2col rows) is not part of the key: a buffer is allocated zeroed at the
    largest leading extent requested so far, and a smaller request gets the
    prefix view ``buf[:n]``.  A worker that has run every batch size up to 16
    holds one batch-16 set, not sixteen.  Buffers whose leading axis is not
    the batch (the Winograd face stacks) carry it in their trailing shape and
    keep one entry per geometry.  The zero-from-allocation invariants (conv
    pad borders, exact-mode dead im2col columns, scattered dead channels, the
    Winograd tile-plane tail) still hold: every leading-axis slab keeps its
    layout at any request size, positions no request writes stay zero in
    every slab, and growing a buffer allocates fresh zeros.

    Pools are **process-local**: buffers cached before a ``fork`` are dropped
    on first use in the child.  A parent's buffer may be a view over shared
    memory (the sharded runtime's rings) that the child must never write, and
    the child's kernels draw uids from a counter that diverged at the fork.
    """

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[int, str, Tuple[int, ...], np.dtype], np.ndarray] = {}
        self._pid = os.getpid()

    def get(self, owner: int, label: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        if self._pid != os.getpid():
            # Inherited across fork/spawn: every cached buffer belongs to the
            # parent process and must never be written from this one.
            self._buffers.clear()
            self._pid = os.getpid()
        key = (owner, label, tuple(shape[1:]), np.dtype(dtype))
        buf = self._buffers.get(key)
        if buf is None or len(buf) < shape[0]:
            buf = self._buffers[key] = np.zeros(shape, dtype=dtype)
        return buf if len(buf) == shape[0] else buf[: shape[0]]

    def retain(self, owners) -> None:
        """Drop every buffer whose owning kernel uid is not in ``owners``.

        The hot-swap control plane calls this after replacing a runtime's
        plans: the old plans' kernels (and their uids) are gone, so their
        buffers would otherwise accumulate forever across swaps.  Safe to
        call while another thread executes over this pool — the dict is
        rebuilt and swapped in one assignment, and a concurrently-running
        kernel that loses a buffer mid-batch simply gets a fresh zeroed one
        on its next ``get`` (fresh zeroed buffers are always valid: the
        pad-border and scatter kernels rely only on zero-from-allocation).
        """
        owners = set(owners)
        # Iterate a snapshot: a concurrent get() may insert mid-rebuild, and
        # iterating the live dict would raise.  An insert that races the
        # reassignment is simply recreated on the owner's next get().
        self._buffers = {
            key: buf for key, buf in list(self._buffers.items()) if key[0] in owners
        }

    def __len__(self) -> int:
        return len(self._buffers)


#: Process-wide kernel identities for WorkspacePool keys.  ``id(kernel)``
#: would be recycled by the allocator after a plan is garbage collected, and
#: a recycled key with matching geometry would hand a *stale* buffer to a new
#: kernel — breaking the zero-from-allocation-time invariant the pad borders
#: and scatter kernels rely on.  A monotonic counter can never collide.
_KERNEL_UIDS = itertools.count()


# ---------------------------------------------------------------------------
# Per-run execution context: dynamic-sparsity state and effective-MAC counts.
# ---------------------------------------------------------------------------
@dataclass
class DynamicSparseConfig:
    """Tuning of the dynamic sparse fast path (see :class:`ConvGemmMaskKernel`).

    ``gate`` is the minimum *measured* element sparsity of the previous masked
    layer before a kernel even computes row liveness (the check itself costs a
    pass over the im2col matrix, so it is skipped on dense traffic — which is
    what keeps the fast path free at zero sparsity).  ``crossover`` maps a
    kernel name to the maximum live-row fraction at which the
    gather→GEMM→scatter path still beats the dense GEMM; kernels missing from
    the map use ``default_crossover``.  Build the map by measurement with
    :func:`repro.engine.specialize.autotune_dynamic_crossover`.
    """

    gate: float = 0.5
    default_crossover: float = 0.5
    crossover: Dict[str, float] = field(default_factory=dict)

    def crossover_for(self, kernel_name: str) -> float:
        return self.crossover.get(kernel_name, self.default_crossover)


class RunContext:
    """Mutable state threaded through one :meth:`EnginePlan.run` call.

    Carries the previous masked layer's measured batch sparsity (the dynamic
    fast path's gate signal) and accumulates the multiply-accumulate counts
    actually executed (``effective_macs``) next to what a fully dense,
    unspecialized plan would have executed (``dense_macs``).  Callers that
    want the counts pass a context in and read it back after ``run``;
    contexts may be reused across micro-batches to accumulate totals.
    """

    __slots__ = ("dynamic", "prev_sparsity", "dense_macs", "effective_macs", "dynamic_gemms")

    def __init__(self, dynamic: Optional[DynamicSparseConfig] = None) -> None:
        self.dynamic = dynamic
        self.prev_sparsity = 0.0
        self.dense_macs = 0
        self.effective_macs = 0
        #: GEMMs that took the row-gather fast path.
        self.dynamic_gemms = 0

    def mac_reduction(self) -> float:
        """Fraction of dense MACs avoided (0.0 when nothing was saved)."""
        return fraction_saved(self.dense_macs, self.effective_macs)


# ---------------------------------------------------------------------------
# Fused kernels.
# ---------------------------------------------------------------------------
#: Shared mask step of the fused GEMM kernels — the implementation (and the
#: per-block fused form the cache-blocked variants use) lives in
#: :mod:`repro.engine.kernels` so every variant feeds the same sparsity
#: reporting tail.  Re-exported under the historical name.
_apply_threshold_mask = _kernels.apply_threshold_mask


def _gemm_with_dynamic_row_gather(kernel, a: np.ndarray, out: np.ndarray, ctx) -> None:
    """``out = a @ kernel.weight_t + kernel.bias``, row-gathered when it pays.

    When the run context's gate says the previous masked layer was sparse
    enough, rows of ``a`` that are entirely zero (a receptive field the
    previous mask killed completely, or a fully-masked sample) are skipped:
    the output is prefilled with the bias — a zero row GEMMs to exactly the
    bias — and only the surviving rows are multiplied.  Gathering preserves
    each surviving row's reduction order, so both paths are bit-identical to
    the dense matmul (both routed through
    :func:`~repro.engine.kernels.matmul_rowsafe` so a single surviving row
    still reduces in sgemm order).  Effective-MAC accounting lands in
    ``ctx``.
    """
    rows = a.shape[0]
    reduction, width = kernel.weight_t.shape
    if ctx is not None and ctx.dynamic is not None and ctx.prev_sparsity >= ctx.dynamic.gate:
        live = a.any(axis=1)
        live_rows = int(np.count_nonzero(live))
        if live_rows / rows <= ctx.dynamic.crossover_for(kernel.name):
            out[:] = kernel.bias
            if live_rows:
                out[live] = _kernels.matmul_rowsafe(a[live], kernel.weight_t) + kernel.bias
            ctx.dynamic_gemms += 1
            ctx.effective_macs += live_rows * reduction * width
            return
    _kernels.matmul_rowsafe(a, kernel.weight_t, out=out)
    out += kernel.bias
    if ctx is not None:
        ctx.effective_macs += rows * reduction * width


class ConvGemmMaskKernel:
    """Fused convolution: im2col → GEMM → (optional) threshold mask.

    Activations flow through in contiguous channels-last NHWC layout: the
    weight matrix is pre-reordered to ``(K·K·C_in, C_out)`` so the GEMM output
    ``(N·H_out·W_out, C_out)`` *is* the NHWC feature map, and the per-task
    thresholds are pre-transposed into the same layout.  BatchNorm, when
    present in the source network, is already folded into
    ``weight_t``/``bias``; im2col gathers rows as runs of ``C_in`` contiguous
    values, so no strided element-wise copies remain.

    **Dynamic sparse fast path** — when the run context says the previous
    masked layer's measured batch sparsity cleared the configured gate, the
    kernel checks which im2col rows (spatial output positions) have an
    entirely-zero receptive field.  If the live fraction is below the
    per-layer crossover it gathers the surviving rows, GEMMs the compacted
    matrix, and scatters the results back over a bias-filled output (a zero
    row's GEMM output is exactly the bias).  Row gathering leaves each
    surviving row's reduction untouched, so the fast path is bit-identical to
    the dense GEMM.

    **Variants** — ``self.variant`` selects among the lowerings in
    :mod:`repro.engine.kernels` (``"im2col"`` default, ``"blocked"``,
    ``"packed"``, ``"direct"``, ``"winograd"``, ``"int8"``, ``"int8spd"``);
    see that module for the exactness contract of each.  The
    float-arithmetic variants defer to this path whenever the
    dynamic gate is armed and the previous layer's sparsity cleared it, so
    the row-gather fast path (and its bit-exactness) is preserved no matter
    which variant the chooser picked.
    """

    kind = "conv"

    def __init__(
        self,
        index: int,
        name: str,
        weight_t: np.ndarray,  # (K*K*C_in, C_out), BN-folded, (ky, kx, c) row order
        bias: np.ndarray,  # (C_out,)
        kernel_size: int,
        stride: int,
        padding: int,
        in_shape: Tuple[int, int, int],
        out_shape: Tuple[int, int, int],
        mask: Optional[MaskSpec],
        dense_macs: Optional[int] = None,
        dense_channels: Optional[int] = None,
    ) -> None:
        self.index = index
        self.uid = next(_KERNEL_UIDS)
        self.name = name
        self.weight_t = weight_t
        self.bias = bias
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.in_shape = in_shape  # (C_in, H, W) — per-sample, paper convention
        self.out_shape = out_shape  # (C_out, H_out, W_out)
        self.mask = mask
        #: MACs/image and output width of the *unspecialized* dense layer;
        #: specialization passes the source kernel's values through so the
        #: effective-MAC accounting and the recorded sparsity always compare
        #: against the true dense baseline.
        self.dense_macs_per_image = (
            dense_macs
            if dense_macs is not None
            else out_shape[1] * out_shape[2] * weight_t.shape[0] * weight_t.shape[1]
        )
        self.dense_channels = dense_channels if dense_channels is not None else weight_t.shape[1]
        #: Execution variant (see repro.engine.kernels) and optional int8
        #: quantization payload; both are plan-construction-time state, set
        #: by the chooser/quantizer before serving starts.  ``wino`` and
        #: ``packed`` cache derived per-variant weight layouts (Winograd
        #: transform / L2 column panels), built lazily on first use.
        self.variant = "im2col"
        self.quant = None
        self.wino = None
        self.packed = None

    def run(self, x: np.ndarray, task: "TaskPlan", ws: WorkspacePool, recorder, ctx=None) -> np.ndarray:
        if recorder is not None:
            record_range = getattr(recorder, "record_range", None)
            if record_range is not None:
                record_range(task.name, self.name, float(np.abs(x).max()))
        variant = self.variant
        if variant != "im2col" and (
            variant in ("int8", "int8spd")
            or ctx is None
            or ctx.dynamic is None
            or ctx.prev_sparsity < ctx.dynamic.gate
        ):
            return _kernels.run_conv_variant(self, x, task, ws, recorder, ctx)
        n = x.shape[0]
        c_in, h, w = self.in_shape
        c_out, h_out, w_out = self.out_shape
        k, s, p = self.kernel_size, self.stride, self.padding
        dtype = self.weight_t.dtype

        if p > 0:
            # The border stays zero from allocation time; only the interior is
            # rewritten, so padding costs one dense copy and no memset.
            padded = ws.get(self.uid, "pad", (n, h + 2 * p, w + 2 * p, c_in), dtype)
            padded[:, p : p + h, p : p + w, :] = x
            src = padded
        else:
            src = x

        rows = n * h_out * w_out
        reduction = self.weight_t.shape[0]
        cols = ws.get(self.uid, "cols", (rows, reduction), dtype)
        cols_view = cols.reshape(n, h_out, w_out, k, k, c_in)
        for ky in range(k):
            for kx in range(k):
                cols_view[:, :, :, ky, kx, :] = src[
                    :, ky : ky + s * h_out : s, kx : kx + s * w_out : s, :
                ]

        out = ws.get(self.uid, "out", (rows, c_out), dtype)
        dynamic_before = ctx.dynamic_gemms if ctx is not None else 0
        _gemm_with_dynamic_row_gather(self, cols, out, ctx)
        if ctx is not None:
            ctx.dense_macs += n * self.dense_macs_per_image
        used = "dynamic" if ctx is not None and ctx.dynamic_gemms > dynamic_before else "im2col"
        _kernels.record_variant_traffic(
            recorder, used, *_kernels.conv_variant_traffic(self, n, "im2col")
        )

        if self.mask is not None:
            gemm = out.reshape(n, h_out * w_out, c_out)
            _apply_threshold_mask(self, gemm, task, ws, recorder, ctx, h_out * w_out)
        elif ctx is not None:
            ctx.prev_sparsity = 0.0
        return out.reshape(n, h_out, w_out, c_out)


class MaxPoolKernel:
    """Stateless max pooling over contiguous NHWC inputs.

    Two bit-identical variants: ``"reshape"`` (default — reshape-reduce when
    windows are aligned and non-overlapping, strided-view maximum cascade
    otherwise) and ``"views"`` (always the cascade, which reads each input
    element once through ``k*k`` contiguous views and is the faster of the
    two on this machine — the chooser picks per layer).  Overlapping pools
    (stride < kernel) always take the cascade, whose shifted views revisit
    shared elements per tap.
    """

    kind = "pool"

    def __init__(
        self,
        index: int,
        kernel_size: int,
        stride: int,
        out_shape: Tuple[int, int, int],
        name: Optional[str] = None,
    ) -> None:
        self.index = index
        self.uid = next(_KERNEL_UIDS)
        self.name = name if name is not None else f"pool{index}"
        self.kernel_size = kernel_size
        self.stride = stride
        self.out_shape = out_shape  # (C, H_out, W_out) — per-sample, paper convention
        self.variant = "reshape"

    def run(self, x: np.ndarray, task: "TaskPlan", ws: WorkspacePool, recorder, ctx=None) -> np.ndarray:
        n, c = x.shape[0], x.shape[3]
        k, s = self.kernel_size, self.stride
        # Spatial geometry was fixed at compile time; channels follow the
        # stream (a specialized plan's compacted width arrives via x).
        h_out, w_out = self.out_shape[1], self.out_shape[2]
        out = ws.get(self.uid, "pool", (n, h_out, w_out, c), x.dtype)
        if (
            self.variant == "reshape"
            and s == k
            and x.shape[1] == k * h_out
            and x.shape[2] == k * w_out
        ):
            # Non-overlapping aligned pooling (the VGG case): a reshape view
            # keeps the reduction reading contiguous channel runs.
            np.max(x.reshape(n, h_out, k, w_out, k, c), axis=(2, 4), out=out)
        else:
            first = True
            for ky in range(k):
                for kx in range(k):
                    window = x[:, ky : ky + s * h_out : s, kx : kx + s * w_out : s, :]
                    if first:
                        np.copyto(out, window)
                        first = False
                    else:
                        np.maximum(out, window, out=out)
        _kernels.record_variant_traffic(
            recorder, f"pool-{self.variant}", *_kernels.pool_variant_traffic(self, x, out)
        )
        return out


class FlattenKernel:
    """Feature/classifier boundary: collapse per-sample dims to one axis.

    The incoming NHWC feature map is contiguous (conv/pool workspaces), so
    this is a zero-copy reshape; the following Linear's columns were permuted
    at compile time to consume NHWC ordering.
    """

    kind = "flatten"

    def __init__(self, index: int) -> None:
        self.index = index
        self.uid = next(_KERNEL_UIDS)

    def run(self, x: np.ndarray, task: "TaskPlan", ws: WorkspacePool, recorder, ctx=None) -> np.ndarray:
        return np.ascontiguousarray(x).reshape(x.shape[0], -1)


class ChannelScatterKernel:
    """Scatter compacted live channels back onto a dense zero background.

    A specialized plan's masked GEMMs emit only the task's live channels.
    Before a consumer whose weights are laid out for the dense channel order
    (the next convolution's im2col, the flatten boundary, the FC head), this
    kernel writes the live channels into their original positions of a dense
    workspace buffer.  Dead positions are **never written**: they stay zero
    from allocation time (the same invariant as the conv pad border), and
    since the dense plan's dead channels are exactly zero after masking, the
    consumer sees bit-identical inputs while the producer GEMM did only the
    live columns' work.

    Works on any channels-last layout — NHWC feature maps and flat ``(N, F)``
    feature vectors alike; only the trailing axis is scattered.
    """

    kind = "scatter"

    def __init__(self, index: int, live_index: np.ndarray, dense_channels: int) -> None:
        self.index = index
        self.uid = next(_KERNEL_UIDS)
        self.live_index = np.ascontiguousarray(live_index, dtype=np.intp)
        self.dense_channels = int(dense_channels)

    def run(self, x: np.ndarray, task: "TaskPlan", ws: WorkspacePool, recorder, ctx=None) -> np.ndarray:
        n = x.shape[0]
        shape = x.shape[:-1] + (self.dense_channels,)
        out = ws.get(self.uid, "scatter", shape, x.dtype)
        # The incoming stream carries the live channels first; anything after
        # them is zero padding lanes that must not land in a dense position.
        out[..., self.live_index] = x[..., : self.live_index.shape[0]]
        return out


class LinearMaskKernel:
    """Fused fully-connected layer: GEMM → (optional) threshold mask / ReLU.

    ``activation`` distinguishes masked layers (thresholds come from the task
    plan) from plain ReLU trunks (``mask_classifier_hidden=False``).

    **Variants** — ``"dense"`` (default), ``"blocked"``, ``"packed"``,
    ``"int8"``, ``"int8spd"``; same dispatch and dynamic-gate fallback
    rules as :class:`ConvGemmMaskKernel`.
    """

    kind = "linear"

    def __init__(
        self,
        index: int,
        name: str,
        weight_t: np.ndarray,  # (in, out), BN-folded
        bias: np.ndarray,
        mask: Optional[MaskSpec],
        relu: bool = False,
        dense_macs: Optional[int] = None,
        dense_channels: Optional[int] = None,
    ) -> None:
        self.index = index
        self.uid = next(_KERNEL_UIDS)
        self.name = name
        self.weight_t = weight_t
        self.bias = bias
        self.mask = mask
        self.relu = relu
        self.dense_macs_per_image = (
            dense_macs if dense_macs is not None else weight_t.shape[0] * weight_t.shape[1]
        )
        self.dense_channels = dense_channels if dense_channels is not None else weight_t.shape[1]
        self.variant = "dense"
        self.quant = None
        self.packed = None

    def run(self, x: np.ndarray, task: "TaskPlan", ws: WorkspacePool, recorder, ctx=None) -> np.ndarray:
        if recorder is not None:
            record_range = getattr(recorder, "record_range", None)
            if record_range is not None:
                record_range(task.name, self.name, float(np.abs(x).max()))
        variant = self.variant
        if variant != "dense" and (
            variant in ("int8", "int8spd")
            or ctx is None
            or ctx.dynamic is None
            or ctx.prev_sparsity < ctx.dynamic.gate
        ):
            return _kernels.run_linear_variant(self, x, task, ws, recorder, ctx)
        n = x.shape[0]
        out = ws.get(self.uid, "fc", (n, self.weight_t.shape[1]), x.dtype)
        # Rows are samples here: the fast path skips samples whose whole
        # feature vector was masked away.
        dynamic_before = ctx.dynamic_gemms if ctx is not None else 0
        _gemm_with_dynamic_row_gather(self, x, out, ctx)
        if ctx is not None:
            ctx.dense_macs += n * self.dense_macs_per_image
        used = "dynamic" if ctx is not None and ctx.dynamic_gemms > dynamic_before else "dense"
        _kernels.record_variant_traffic(
            recorder, used, *_kernels.linear_variant_traffic(self, n, "dense")
        )
        if self.mask is not None:
            _apply_threshold_mask(self, out, task, ws, recorder, ctx, 1)
        else:
            if self.relu:
                np.maximum(out, 0.0, out=out)
            if ctx is not None:
                ctx.prev_sparsity = 0.0
        return out


# ---------------------------------------------------------------------------
# Per-task execution state.
# ---------------------------------------------------------------------------
@dataclass
class TaskPlan:
    """Pre-bound per-task tensors: thresholds in kernel layout plus the head.

    Everything is cast to the plan dtype and laid out for direct broadcasting
    against the fused kernels' GEMM outputs, so using a task at request time
    is a dictionary lookup — no transposes, casts or rebinds.
    """

    name: str
    num_classes: int
    thresholds: List[np.ndarray]  # indexed by MaskSpec.slot
    head_weight_t: np.ndarray  # (in_features, num_classes)
    head_bias: np.ndarray  # (num_classes,)
    #: MACs the unspecialized dense head executes per image (kept through
    #: specialization so effective-MAC accounting compares against the
    #: original geometry).  0 means "derive from head_weight_t".
    head_dense_macs: int = 0


#: Pseudo-task name carried by :class:`MixedTaskView`: layer statistics a
#: recorder collects while running a genuinely mixed batch are attributed to
#: this aggregate bucket (per-task sparsity cannot be untangled per tile
#: without giving up the fused epilogue).  Request/pass accounting stays
#: per-task — see :func:`repro.serving.base.run_plan_batch`.
MIXED_TASK_NAME = "__mixed__"


class MixedTaskView:
    """Per-row threshold view standing in for :class:`TaskPlan` in mixed batches.

    ``thresholds[slot]`` carries a leading batch axis — ``(n, spi, c)`` for
    conv masks, ``(n, width)`` for linear masks — where row ``i`` holds the
    threshold row of the task that owns input row ``i``.  The fused kernels
    broadcast it exactly like the single-task ``(1, ...)`` layout; the tiled
    lowerings slice it per image/row block.  Ducks the :class:`TaskPlan`
    attributes the kernels touch (``name`` and ``thresholds``), nothing more:
    the classification head is applied per task *outside* the kernel loop.
    """

    __slots__ = ("name", "num_classes", "thresholds")

    def __init__(self, num_classes: int, thresholds: List[np.ndarray]) -> None:
        self.name = MIXED_TASK_NAME
        self.num_classes = num_classes
        self.thresholds = thresholds


def _build_task_plan(
    task: TaskParameters,
    specs: List[MaskSpec],
    dtype,
    head_permutation: Optional[np.ndarray] = None,
) -> TaskPlan:
    if task.head_weight is None or task.head_bias is None:
        raise CompileError(f"task '{task.name}' has no classification head")
    thresholds: List[np.ndarray] = []
    for spec, param in zip(specs, task.thresholds):
        data = param.data
        if spec.kind == "conv":
            laid_out = data.transpose(1, 2, 0).reshape(spec.gemm_shape)
        else:
            laid_out = data.reshape(spec.gemm_shape)
        # np.array (not ascontiguousarray) so the plan never aliases training
        # parameters, even when the layout transform degenerates to a view.
        thresholds.append(np.array(laid_out, dtype=dtype, order="C"))
    head_weight = task.head_weight.data
    if head_permutation is not None:
        # The head consumes NHWC features directly (no classifier trunk).
        head_weight = head_weight[:, head_permutation]
    head_weight_t = np.array(head_weight.T, dtype=dtype, order="C")
    return TaskPlan(
        name=task.name,
        num_classes=task.num_classes,
        thresholds=thresholds,
        head_weight_t=head_weight_t,
        head_bias=np.array(task.head_bias.data, dtype=dtype),
        head_dense_macs=head_weight_t.shape[0] * head_weight_t.shape[1],
    )


# ---------------------------------------------------------------------------
# The compiled plan.
# ---------------------------------------------------------------------------
@dataclass
class EnginePlan:
    """A compiled, immutable snapshot of a MimeNetwork ready for serving."""

    dtype: np.dtype
    input_shape: Tuple[int, int, int]
    kernels: List[object]
    mask_specs: List[MaskSpec]
    tasks: Dict[str, TaskPlan] = field(default_factory=dict)
    head_permutation: Optional[np.ndarray] = None
    #: None disables the dynamic sparse fast path; set via
    #: :func:`repro.engine.specialize.enable_dynamic_sparse` or the autotuner
    #: before serving starts (the plan is treated as immutable afterwards).
    dynamic: Optional[DynamicSparseConfig] = None
    #: Per-kernel variant choices (kernel name -> variant), cached by
    #: :func:`repro.engine.kernels.autotune_kernel_variants` and carried
    #: through :class:`~repro.engine.planspec.PlanSpec` so spawned workers
    #: rebuild identical choices.  None = every kernel on its default.
    kernel_choices: Optional[Dict[str, str]] = None
    _workspaces: WorkspacePool = field(default_factory=WorkspacePool, repr=False)
    #: Workspace-owner uid for the per-row threshold buffers of mixed-task
    #: batches (:meth:`run_mixed`).  Allocated eagerly like kernel uids so
    #: concurrent workers never race a lazy assignment; ``dataclasses.replace``
    #: keeps it, which is correct — the kernels (and so the pools) are shared
    #: between the replaced snapshots too.
    _mixed_uid: int = field(default_factory=lambda: next(_KERNEL_UIDS), repr=False)

    def task_names(self) -> List[str]:
        return list(self.tasks)

    def masked_layer_names(self) -> List[str]:
        return [spec.layer_name for spec in self.mask_specs]

    def add_task(self, task: TaskParameters) -> TaskPlan:
        """Snapshot a task registered after compilation (e.g. newly trained)."""
        plan = _build_task_plan(task, self.mask_specs, self.dtype, self.head_permutation)
        self.tasks[task.name] = plan
        return plan

    def run(
        self,
        x: np.ndarray,
        task: str,
        recorder=None,
        workspaces: Optional[WorkspacePool] = None,
        ctx: Optional[RunContext] = None,
    ) -> np.ndarray:
        """Execute the compiled network for one micro-batch of ``task`` inputs.

        Accepts NCHW input (the training model's convention); internally the
        plan runs channels-last.  Returns freshly-allocated logits of shape
        ``(N, num_classes)``; all intermediate buffers live in ``workspaces``
        (the plan's own default pool when omitted) and are reused across
        calls.

        ``ctx`` carries the dynamic-sparse configuration and accumulates the
        dense/effective MAC counts of this call; omit it and the plan builds a
        throwaway context from its own :attr:`dynamic` config.

        The plan itself is immutable after compilation, so concurrent threads
        may run different micro-batches over the same plan as long as each
        passes its **own** :class:`WorkspacePool` — the GEMMs release the GIL,
        which is what the serving runtime's thread-parallel workers exploit.
        """
        if task not in self.tasks:
            raise KeyError(f"task '{task}' was not compiled; known: {self.task_names()}")
        return self._run_task_plan(x, self.tasks[task], recorder, workspaces, ctx)

    def _run_task_plan(
        self,
        x: np.ndarray,
        task_plan: TaskPlan,
        recorder=None,
        workspaces: Optional[WorkspacePool] = None,
        ctx: Optional[RunContext] = None,
    ) -> np.ndarray:
        """:meth:`run` body against an explicit :class:`TaskPlan` object.

        The task plan may belong to a *different* plan of the same coalescing
        group (identical kernel geometry), which is how group-leader execution
        serves a member task's rows on the leader's kernels.
        """
        if x.ndim == 3:
            x = x[None, ...]
        if x.shape[1:] != self.input_shape:
            raise ValueError(
                f"expected input of per-sample shape {self.input_shape}, got {x.shape[1:]}"
            )
        pool = workspaces if workspaces is not None else self._workspaces
        if ctx is None:
            ctx = RunContext(self.dynamic)
        ctx.prev_sparsity = 0.0  # the raw image batch is dense
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1), dtype=self.dtype)
        for kernel in self.kernels:
            x = kernel.run(x, task_plan, pool, recorder, ctx)
        logits = _kernels.matmul_rowsafe(x, task_plan.head_weight_t) + task_plan.head_bias
        head_macs = task_plan.head_weight_t.shape[0] * task_plan.head_weight_t.shape[1]
        ctx.effective_macs += x.shape[0] * head_macs
        ctx.dense_macs += x.shape[0] * (task_plan.head_dense_macs or head_macs)
        return logits

    def run_mixed(
        self,
        x: np.ndarray,
        row_tasks: Sequence[str],
        task_plans: Optional[Dict[str, TaskPlan]] = None,
        recorder=None,
        workspaces: Optional[WorkspacePool] = None,
        ctx: Optional[RunContext] = None,
    ) -> np.ndarray:
        """Execute one micro-batch whose rows may belong to *different* tasks.

        ``row_tasks[i]`` names the task that owns input row ``i``.  The whole
        batch runs the shared backbone as **one** pass: per-row thresholds are
        gathered into pooled ``(n, ...)`` buffers (one copy of each member
        task's threshold row per batch — never a resident per-task stack), the
        fused kernels mask against them, and the per-task FC heads are applied
        to each task's row group at the end.

        Exactness contract: bit-identical to running the same rows as
        per-task singular batches.  Every plan op is row-independent and the
        repo's GEMM paths preserve per-row reduction order under batch
        regrouping (the same property the dynamic row-gather fast path is
        built on), so neither the shared backbone pass nor the row-sliced
        head GEMMs can change a single bit.

        ``task_plans`` overrides the threshold/head lookup (defaults to
        ``self.tasks``): a coalescing group of *specialized* plans executes on
        the group leader's kernels while each member contributes its own
        compacted :class:`TaskPlan`.  All members must share the leader's
        mask geometry and head width — violations raise :class:`CompileError`.

        Layer statistics are recorded under :data:`MIXED_TASK_NAME`; per-task
        request accounting is the caller's job (see ``run_plan_batch``).
        """
        names = list(row_tasks)
        if x.ndim == 3:
            x = x[None, ...]
        if len(names) != x.shape[0]:
            raise ValueError(
                f"row_tasks has {len(names)} entries for a batch of {x.shape[0]} rows"
            )
        lookup = task_plans if task_plans is not None else self.tasks
        unique = list(dict.fromkeys(names))
        missing = [name for name in unique if name not in lookup]
        if missing:
            raise KeyError(f"mixed batch references unknown task(s) {missing}")
        if len(unique) == 1:
            # Homogeneous batch: identical to the singular path by definition.
            return self._run_task_plan(x, lookup[unique[0]], recorder, workspaces, ctx)
        if x.shape[1:] != self.input_shape:
            raise ValueError(
                f"expected input of per-sample shape {self.input_shape}, got {x.shape[1:]}"
            )
        members = {name: lookup[name] for name in unique}
        widths = {tp.num_classes for tp in members.values()}
        if len(widths) != 1:
            raise CompileError(
                f"mixed-task batch requires equal head widths, got {sorted(widths)}"
            )
        pool = workspaces if workspaces is not None else self._workspaces
        if ctx is None:
            ctx = RunContext(self.dynamic)
        ctx.prev_sparsity = 0.0
        n = x.shape[0]
        rows_of: Dict[str, List[int]] = {name: [] for name in unique}
        for row, name in enumerate(names):
            rows_of[name].append(row)

        # Per-row threshold gather, one pooled buffer per mask slot.
        num_slots = max((spec.slot for spec in self.mask_specs), default=-1) + 1
        mixed_thresholds: List[Optional[np.ndarray]] = [None] * num_slots
        for spec in self.mask_specs:
            ref = members[unique[0]].thresholds[spec.slot]
            buf = pool.get(self._mixed_uid, f"mixthr{spec.slot}", (n,) + ref.shape[1:], ref.dtype)
            for name, rows in rows_of.items():
                src = members[name].thresholds[spec.slot]
                if src.shape != ref.shape:
                    raise CompileError(
                        f"task '{name}' mask slot {spec.slot} has shape {src.shape}, "
                        f"incompatible with this plan's {ref.shape} — not in this "
                        "coalescing group"
                    )
                buf[rows] = src[0]
            mixed_thresholds[spec.slot] = buf
        view = MixedTaskView(next(iter(widths)), mixed_thresholds)

        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1), dtype=self.dtype)
        for kernel in self.kernels:
            x = kernel.run(x, view, pool, recorder, ctx)

        logits = np.empty((n, view.num_classes), dtype=x.dtype)
        for name, rows in rows_of.items():
            tp = members[name]
            logits[rows] = _kernels.matmul_rowsafe(x[rows], tp.head_weight_t) + tp.head_bias
            head_macs = tp.head_weight_t.shape[0] * tp.head_weight_t.shape[1]
            ctx.effective_macs += len(rows) * head_macs
            ctx.dense_macs += len(rows) * (tp.head_dense_macs or head_macs)
        return logits

    def num_workspace_buffers(self) -> int:
        """How many buffers the plan's default pool holds (shared by all batch sizes)."""
        return len(self._workspaces)


# ---------------------------------------------------------------------------
# Compilation.
# ---------------------------------------------------------------------------
def _fold_batchnorm(
    weight: np.ndarray, bias: np.ndarray, bn: BatchNorm1d | BatchNorm2d
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold an eval-mode BatchNorm into the preceding layer's weight/bias.

    ``weight`` is (C_out, fan_in); the BN scale multiplies per output channel.
    Exact because the backbone's running statistics are frozen.
    """
    inv_std = 1.0 / np.sqrt(bn._buffers["running_var"] + bn.eps)
    scale = bn.gamma.data * inv_std
    folded_weight = weight * scale[:, None]
    folded_bias = (bias - bn._buffers["running_mean"]) * scale + bn.beta.data
    return folded_weight, folded_bias


class _PendingGemm:
    """A Conv2d/Linear waiting to absorb a following BatchNorm and mask."""

    def __init__(self, layer, in_shape: Tuple[int, ...]) -> None:
        self.layer = layer
        self.in_shape = in_shape
        if isinstance(layer, Conv2d):
            self.weight = layer.weight.data.reshape(layer.out_channels, -1).copy()
            self.bias = (
                layer.bias.data.copy()
                if layer.bias is not None
                else np.zeros(layer.out_channels)
            )
        else:
            self.weight = layer.weight.data.copy()
            self.bias = (
                layer.bias.data.copy()
                if layer.bias is not None
                else np.zeros(layer.out_features)
            )
        self.mask_layer: Optional[ThresholdMask] = None
        self.relu = False


def compile_network(network: MimeNetwork, dtype=np.float32) -> EnginePlan:
    """Compile ``network`` into an :class:`EnginePlan` (default float32).

    Read-only with respect to the training network: the active task, every
    parameter tensor and every layer cache are left exactly as found.
    """
    if not isinstance(network, MimeNetwork):
        raise TypeError("compile_network expects a repro.mime.MimeNetwork")
    dtype = np.dtype(dtype)
    input_shape = (
        network.backbone.in_channels,
        network.backbone.input_size,
        network.backbone.input_size,
    )

    kernels: List[object] = []
    mask_specs: List[MaskSpec] = []
    shape: Tuple[int, ...] = input_shape
    pending: Optional[_PendingGemm] = None
    nhwc_permutation: Optional[np.ndarray] = None  # set at the flatten boundary

    def flush() -> None:
        nonlocal pending, nhwc_permutation
        if pending is None:
            return
        index = len(kernels)
        spec: Optional[MaskSpec] = None
        if pending.mask_layer is not None:
            slot = len(mask_specs)
            mask = pending.mask_layer
            if len(mask.neuron_shape) == 3:
                c, h, w = mask.neuron_shape
                spec = MaskSpec(slot, mask.layer_name, "conv", (1, h * w, c))
            else:
                spec = MaskSpec(slot, mask.layer_name, "linear", (1, mask.neuron_shape[0]))
            mask_specs.append(spec)
        bias = pending.bias.astype(dtype)
        if isinstance(pending.layer, Conv2d):
            layer = pending.layer
            k = layer.kernel_size
            # (C_out, C_in*K*K) -> (K*K*C_in, C_out) so the GEMM emits NHWC.
            weight_t = np.ascontiguousarray(
                pending.weight.reshape(layer.out_channels, layer.in_channels, k, k)
                .transpose(2, 3, 1, 0)
                .reshape(k * k * layer.in_channels, layer.out_channels),
                dtype=dtype,
            )
            out_shape = tuple(layer.output_shape(pending.in_shape))
            kernels.append(
                ConvGemmMaskKernel(
                    index,
                    name=f"gemm{index}",
                    weight_t=weight_t,
                    bias=bias,
                    kernel_size=k,
                    stride=layer.stride,
                    padding=layer.padding,
                    in_shape=pending.in_shape,
                    out_shape=out_shape,
                    mask=spec,
                )
            )
        else:
            weight = pending.weight
            if nhwc_permutation is not None:
                # First Linear after the features: consume NHWC-ordered columns.
                weight = weight[:, nhwc_permutation]
                nhwc_permutation = None
            weight_t = np.ascontiguousarray(weight.T, dtype=dtype)
            kernels.append(
                LinearMaskKernel(
                    index,
                    name=f"gemm{index}",
                    weight_t=weight_t,
                    bias=bias,
                    mask=spec,
                    relu=pending.relu,
                )
            )
        pending = None

    def walk(layer) -> None:
        nonlocal pending, shape
        if isinstance(layer, (Conv2d, Linear)):
            flush()
            pending = _PendingGemm(layer, shape)
            shape = tuple(layer.output_shape(shape))
        elif isinstance(layer, (BatchNorm2d, BatchNorm1d)):
            if pending is None:
                raise CompileError("BatchNorm without a preceding Conv2d/Linear")
            pending.weight, pending.bias = _fold_batchnorm(pending.weight, pending.bias, layer)
        elif isinstance(layer, ThresholdMask):
            if pending is None:
                raise CompileError("ThresholdMask without a preceding Conv2d/Linear")
            pending.mask_layer = layer
            flush()
        elif isinstance(layer, ReLU):
            if pending is not None:
                pending.relu = True
                flush()
            else:
                raise CompileError("ReLU without a preceding Conv2d/Linear")
        elif isinstance(layer, MaxPool2d):
            flush()
            out_shape = tuple(layer.output_shape(shape))
            kernels.append(
                MaxPoolKernel(
                    len(kernels),
                    layer.kernel_size,
                    layer.stride,
                    out_shape,
                    name=f"pool{len(kernels)}",
                )
            )
            shape = out_shape
        elif isinstance(layer, (Dropout, Flatten)):
            flush()  # Dropout never fires at inference; Flatten is inserted explicitly.
        else:
            raise CompileError(f"cannot compile layer type {type(layer).__name__}")

    for layer in network._feature_layers:
        walk(layer)
    flush()
    kernels.append(FlattenKernel(len(kernels)))
    boundary_c, boundary_h, boundary_w = shape
    # Maps NHWC-flattened feature index j to the training model's (C, H, W)
    # flat index, so exactly one downstream weight matrix absorbs the layout
    # change at compile time.
    nhwc_permutation = (
        np.arange(boundary_c * boundary_h * boundary_w)
        .reshape(boundary_c, boundary_h, boundary_w)
        .transpose(1, 2, 0)
        .ravel()
    )
    shape = (int(np.prod(shape)),)
    for layer in network._classifier_layers:
        walk(layer)
    flush()

    if len(mask_specs) != len(network.masks()):
        raise CompileError(
            f"compiled {len(mask_specs)} masks but the network has {len(network.masks())}"
        )

    plan = EnginePlan(
        dtype=dtype,
        input_shape=input_shape,
        kernels=kernels,
        mask_specs=mask_specs,
        head_permutation=nhwc_permutation,  # still pending if no trunk Linear consumed it
    )
    for task in network.registry:
        plan.add_task(task)
    return plan
