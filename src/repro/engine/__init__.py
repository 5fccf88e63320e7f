"""Compiled multi-task inference engine (the serving-side counterpart of
:mod:`repro.mime`).

Training code (``MimeNetwork.forward``) keeps per-layer activation caches for
backpropagation, runs in float64 and rebinds task parameters in place.  This
package provides the dedicated inference path:

* :func:`compile_network` snapshots a trained :class:`~repro.mime.MimeNetwork`
  into an immutable :class:`EnginePlan` — BatchNorm folded into the GEMMs,
  conv → im2col-GEMM → threshold-mask fused into single kernels, per-task
  thresholds/heads pre-cast and pre-transposed so task switching is an O(1)
  dictionary lookup.  All mutable execution state lives in a
  :class:`WorkspacePool` keyed by buffer lifetime, not by kernel: one pool
  per thread (the default of :meth:`EnginePlan.run`) serves every plan that
  thread runs, so one plan can serve N threads at once.
* :mod:`repro.engine.scheduling` defines the pluggable
  :class:`SchedulingPolicy` hierarchy — ``singular`` and ``pipelined`` (the
  paper's two hardware scenarios) plus the online-oriented ``fifo-deadline``
  and ``weighted-fair`` policies shared with :mod:`repro.serving`.
* :class:`MultiTaskEngine` accepts ``(task, image)`` requests, micro-batches
  them per task, and drains them offline under any scheduling policy.
* :class:`SparsityRecorder` captures achieved per-layer sparsity from real
  runs and exports a :class:`~repro.hardware.LayerSparsityProfile` plus the
  processed schedule, so the systolic-array simulator can estimate energy and
  throughput from measured traffic (see :func:`recorder_hardware_report`),
  alongside dense-vs-effective MAC totals.
* :mod:`repro.engine.calibrate` measures per-task, per-channel survival rates
  (:class:`CalibrationProfile`, JSON-serialisable) and
  :mod:`repro.engine.specialize` turns them into compacted per-task plans —
  dead-channel elimination with the shrinkage propagated through im2col rows
  and the FC head (:func:`specialize_tasks`), plus the dynamic sparse
  row-gather fast path and its autotuner
  (:func:`autotune_dynamic_crossover`).
* :mod:`repro.engine.kernels` holds the kernel lowerings, one
  ``{name: runner}`` table per kind — conv: the cache-blocked
  fused-epilogue ``blocked`` GEMM (default), the im2col-free ``direct``
  conv and the opt-in ``int8`` path (:func:`quantize_plan_kernels`); FC
  ``dense`` and ``int8`` — and the per-layer kernel chooser
  (:func:`autotune_kernel_variants` / :func:`apply_kernel_choices`) whose
  choices ride on the plan and through :class:`PlanSpec` into spawned
  serving workers.
"""

from repro.engine.plan import (
    ChannelScatterKernel,
    CompileError,
    ConvGemmMaskKernel,
    DynamicSparseConfig,
    EnginePlan,
    LinearMaskKernel,
    MaskSpec,
    RunContext,
    TaskPlan,
    WorkspacePool,
    compile_network,
)
from repro.engine.calibrate import (
    CalibrationProfile,
    ChannelSurvivalRecorder,
    calibrate_plan,
    profile_from_network,
)
from repro.engine.kernels import (
    CONV_VARIANTS,
    LINEAR_VARIANTS,
    TIMING_CACHE,
    KernelTimingCache,
    QuantizedGemm,
    apply_kernel_choices,
    autotune_kernel_variants,
    force_kernel_variant,
    kernel_timing_key,
    packed_weight_panels,
    quantize_gemm,
    quantize_plan_kernels,
    set_kernel_variant,
    variant_candidates,
    winograd_tolerance,
)
from repro.engine.planspec import PlanSetSpec, PlanSpec, TaskSpec
from repro.engine.specialize import (
    SpecializedEnginePlan,
    autotune_dynamic_crossover,
    enable_dynamic_sparse,
    specialize_plan,
    specialize_tasks,
)
from repro.engine.scheduling import (
    POLICIES,
    SCHEDULING_MODES,
    FifoDeadlinePolicy,
    InferenceRequest,
    MicroBatch,
    PipelinedPolicy,
    SchedulingPolicy,
    SingularPolicy,
    WeightedFairPolicy,
    chunk_requests,
    get_policy,
)
from repro.engine.engine import (
    EngineRunStats,
    MultiTaskEngine,
    recorder_hardware_report,
)
from repro.engine.stats import SparsityRecorder

__all__ = [
    "CalibrationProfile",
    "ChannelScatterKernel",
    "ChannelSurvivalRecorder",
    "CompileError",
    "ConvGemmMaskKernel",
    "DynamicSparseConfig",
    "EnginePlan",
    "LinearMaskKernel",
    "MaskSpec",
    "PlanSetSpec",
    "PlanSpec",
    "RunContext",
    "SpecializedEnginePlan",
    "TaskPlan",
    "TaskSpec",
    "WorkspacePool",
    "autotune_dynamic_crossover",
    "calibrate_plan",
    "compile_network",
    "enable_dynamic_sparse",
    "profile_from_network",
    "specialize_plan",
    "specialize_tasks",
    "CONV_VARIANTS",
    "LINEAR_VARIANTS",
    "TIMING_CACHE",
    "KernelTimingCache",
    "QuantizedGemm",
    "apply_kernel_choices",
    "autotune_kernel_variants",
    "force_kernel_variant",
    "kernel_timing_key",
    "packed_weight_panels",
    "quantize_gemm",
    "quantize_plan_kernels",
    "set_kernel_variant",
    "variant_candidates",
    "winograd_tolerance",
    "POLICIES",
    "SCHEDULING_MODES",
    "FifoDeadlinePolicy",
    "InferenceRequest",
    "MicroBatch",
    "PipelinedPolicy",
    "SchedulingPolicy",
    "SingularPolicy",
    "WeightedFairPolicy",
    "chunk_requests",
    "get_policy",
    "EngineRunStats",
    "MultiTaskEngine",
    "recorder_hardware_report",
    "SparsityRecorder",
]
