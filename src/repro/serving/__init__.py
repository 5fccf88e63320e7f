"""Online multi-task serving runtime over the compiled engine.

Where :class:`~repro.engine.MultiTaskEngine` drains a known request set
offline, this package serves *live* traffic: concurrent clients submit single
images and get futures back, a deadline-aware dynamic batcher forms per-task
micro-batches (closed on size, on an idle thread worker, or on max-wait), a
pluggable
:class:`~repro.engine.scheduling.SchedulingPolicy` orders them, and a pool of
worker threads executes them in parallel over one immutable
:class:`~repro.engine.EnginePlan` — each worker with its own
:class:`~repro.engine.WorkspacePool`, so mixed-task traffic exercises exactly
the pipelined task switching the paper optimises.  Measured schedules and
sparsity flow into the systolic-array simulator unchanged.

Quick start::

    runtime = ServingRuntime(plan, policy="fifo-deadline", workers=4,
                             micro_batch=8, max_wait=0.005, max_pending=256)
    with runtime:
        futures = [runtime.submit(task, image) for task, image in traffic]
        logits = [future.result() for future in futures]
    print(runtime.report().summary())
"""

from repro.serving.base import BaseRuntime, PlanSet, run_plan_batch
from repro.serving.batcher import DynamicBatcher
from repro.serving.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    parse_chaos_spec,
)
from repro.serving.loadgen import Arrival, LoadGenerator, ManualClock
from repro.serving.metrics import (
    LatencyDigest,
    ServingMetrics,
    ServingReport,
    WindowSnapshot,
    percentile,
)
from repro.serving.recalibrate import DriftReport, RecalibrationEvent, RecalibrationLoop
from repro.serving.stream import MetricsEvent, MetricsServer, MetricsStream
from repro.serving.request import (
    AdmissionError,
    DeadlineExpiredError,
    NoLiveShardsError,
    QueueFullError,
    RedispatchError,
    RequestCancelledError,
    RetryBudgetExceededError,
    RuntimeClosedError,
    ServingRequest,
    ServingResult,
)
from repro.serving.runtime import ServingRuntime
from repro.serving.sharded import ShardedRuntime

#: Serving backend registry shared by the CLI and the benchmarks: the thread
#: backend parallelises inside this process, the process backend shards the
#: plan across spawned workers (see :mod:`repro.serving.sharded`).
BACKENDS = {
    ServingRuntime.backend: ServingRuntime,
    ShardedRuntime.backend: ShardedRuntime,
}

__all__ = [
    "BACKENDS",
    "BaseRuntime",
    "PlanSet",
    "run_plan_batch",
    "DynamicBatcher",
    "Arrival",
    "LoadGenerator",
    "ManualClock",
    "LatencyDigest",
    "ServingMetrics",
    "ServingReport",
    "WindowSnapshot",
    "MetricsEvent",
    "MetricsServer",
    "MetricsStream",
    "percentile",
    "DriftReport",
    "RecalibrationEvent",
    "RecalibrationLoop",
    "AdmissionError",
    "DeadlineExpiredError",
    "NoLiveShardsError",
    "QueueFullError",
    "RedispatchError",
    "RequestCancelledError",
    "RetryBudgetExceededError",
    "RuntimeClosedError",
    "ServingRequest",
    "ServingResult",
    "ServingRuntime",
    "ShardedRuntime",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "parse_chaos_spec",
]
