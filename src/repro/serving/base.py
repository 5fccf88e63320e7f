"""The backend-agnostic core of the online serving runtimes.

Two serving backends share everything except how a micro-batch reaches a
worker: the thread backend (:class:`~repro.serving.runtime.ServingRuntime`)
executes batches on worker threads inside this process, the process backend
(:class:`~repro.serving.sharded.ShardedRuntime`) ships them to a fleet of
spawned worker processes over shared-memory rings.  :class:`BaseRuntime`
holds the common machinery — request admission and validation, the
:class:`~repro.serving.batcher.DynamicBatcher` and its pluggable scheduling
policy, the worker pull loop, metrics/recorder plumbing and the
report/hardware-report surface — while the backends implement exactly three
hooks:

* :meth:`BaseRuntime._launch_workers` — bring the worker pool up;
* :meth:`BaseRuntime._execute` — run (or route) one closed micro-batch;
* :meth:`BaseRuntime._join_workers` — wind the pool down at ``stop()``.

:func:`run_plan_batch` is the other shared core: the plan-execution step a
worker performs for one micro-batch, identical whether that worker is a
thread in this process or a loop in a spawned child.

**Control plane.**  A runtime's model is no longer fixed at construction:
the executable plans live in one immutable :class:`PlanSet` snapshot, and
:meth:`BaseRuntime.swap` replaces that snapshot while traffic flows — intake
pauses briefly, every admitted micro-batch drains against the old plans,
the backend cuts over (atomic assignment for threads, a rebuild control
message plus readiness acks for the process fleet), and intake resumes
against the new plans.  No request is ever dropped or executed against a
plan that does not know its task.  :meth:`BaseRuntime.add_task` and
:meth:`BaseRuntime.remove_task` ride the same path, and ``swap`` accepts a
:class:`~repro.artifacts.ModelArtifact` directly, which is what makes a
store-published artifact a zero-downtime deployment unit.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.engine import recorder_hardware_report
from repro.engine.plan import (
    DynamicSparseConfig,
    EnginePlan,
    RunContext,
    TaskPlan,
    WorkspacePool,
)
from repro.engine.scheduling import MicroBatch, SchedulingPolicy, get_policy
from repro.engine.specialize import coalescing_signature
from repro.engine.stats import SparsityRecorder
from repro.hardware.scenario import ExecutionConfig
from repro.hardware.simulator import BatchResult, SystolicArraySimulator
from repro.models.shapes import LayerShape
from repro.serving.batcher import DynamicBatcher
from repro.serving.metrics import ServingMetrics, ServingReport
from repro.serving.request import (
    QueueFullError,
    RequestCancelledError,
    RuntimeClosedError,
    ServingRequest,
    ServingResult,
)
from repro.serving.stream import MetricsStream


def run_plan_batch(
    plan: EnginePlan,
    fallback_dynamic: Optional[DynamicSparseConfig],
    images: np.ndarray,
    task: str,
    recorder: SparsityRecorder,
    pool: WorkspacePool,
    row_tasks: Optional[Sequence[str]] = None,
    task_plans: Optional[Dict[str, TaskPlan]] = None,
) -> np.ndarray:
    """Execute one micro-batch over ``plan`` with full stats accounting.

    The single worker-side step shared by every backend: builds the run
    context (falling back to the shared dense plan's dynamic config so
    enabling the fast path after specialization still applies to specialized
    batches), runs the plan, and records the pass and its MAC counts into
    ``recorder``.

    ``row_tasks`` (set for coalesced batches) names each row's owning task
    and routes execution through :meth:`EnginePlan.run_mixed`; passes are
    then recorded per member task with its own row count, so request
    accounting stays exact even though layer statistics aggregate under the
    mixed pseudo-task.  ``task_plans`` optionally overrides the per-task
    threshold/head lookup (group-leader execution of specialized plans).
    """
    ctx = RunContext(plan.dynamic if plan.dynamic is not None else fallback_dynamic)
    if row_tasks is not None:
        logits = plan.run_mixed(
            images, row_tasks, task_plans=task_plans,
            recorder=recorder, workspaces=pool, ctx=ctx,
        )
        counts: Dict[str, int] = {}
        for name in row_tasks:
            counts[name] = counts.get(name, 0) + 1
        for name, count in counts.items():
            recorder.record_pass(name, count)
    else:
        logits = plan.run(images, task, recorder=recorder, workspaces=pool, ctx=ctx)
        recorder.record_pass(task, images.shape[0])
    recorder.record_macs(ctx.dense_macs, ctx.effective_macs)
    return logits


class PlanSet:
    """One immutable (dense plan, per-task specialized plans) snapshot.

    The runtime holds exactly one ``PlanSet`` at a time and workers read it
    once per micro-batch, so replacing the whole set is a single reference
    assignment — the atomic unit of the hot-swap control plane.  The plans
    inside are immutable by the engine's contract; building a new set never
    mutates a live one.
    """

    __slots__ = ("plan", "specialized", "_groups", "_leaders")

    def __init__(
        self, plan: EnginePlan, specialized: Optional[Dict[str, EnginePlan]] = None
    ) -> None:
        self.plan = plan
        self.specialized: Dict[str, EnginePlan] = dict(specialized) if specialized else {}
        for name in self.specialized:
            if name not in plan.tasks:
                raise KeyError(f"specialized plan for unknown task '{name}'")
        # Coalescing groups: tasks in the same group may share one mixed
        # micro-batch.  Dense tasks coalesce freely (same backbone, same head
        # width); specialized plans coalesce only when their compacted
        # geometry digest matches (see ``coalescing_signature``), and plans of
        # unknown provenance never coalesce.  The *leader* (first-registered
        # member) names the one plan object every batch of the group executes.
        self._groups: Dict[str, str] = {}
        self._leaders: Dict[str, str] = {}
        for name, task_plan in self.plan.tasks.items():
            spec = self.specialized.get(name)
            if spec is None:
                key = f"dense/c{task_plan.num_classes}"
            else:
                signature = coalescing_signature(spec)
                if signature is None:
                    key = f"solo/{name}"
                else:
                    key = f"spec/{signature}/c{spec.tasks[name].num_classes}"
            self._groups[name] = key
            self._leaders.setdefault(key, name)

    def plan_for(self, task: str) -> EnginePlan:
        """The plan a batch of ``task`` executes (specialized when available)."""
        return self.specialized.get(task, self.plan)

    def task_names(self) -> List[str]:
        return self.plan.task_names()

    def __contains__(self, task: str) -> bool:
        return task in self.plan.tasks

    def coalescing_group(self, task: str) -> str:
        """The coalescing-group key of ``task`` (the batcher's bucket key)."""
        return self._groups[task]

    def group_leader(self, group: str) -> str:
        """The member task whose plan object executes this group's batches."""
        return self._leaders[group]

    def execution_for(self, batch: MicroBatch) -> Tuple[
        EnginePlan, Optional[Dict[str, TaskPlan]], Optional[Tuple[str, ...]]
    ]:
        """Resolve one micro-batch to ``(exec_plan, task_plans, row_tasks)``.

        Non-coalesced batches keep today's path exactly (``(plan_for(task),
        None, None)``).  Coalesced batches execute on the group **leader's**
        plan: for the dense group the member tasks all live in the dense
        plan's own task table; for a specialized group each member contributes
        its own compacted :class:`TaskPlan`, gathered here from the member
        plans so the leader's kernels mask with the right thresholds.
        """
        if batch.group is None:
            return self.plan_for(batch.task), None, None
        if not batch.mixed:
            # A coalesced batch that happens to hold one task's rows needs no
            # per-row threshold gather: its own plan executes it exactly as a
            # per-task singular batch would (which is the exactness
            # reference), with broadcast thresholds.
            return self.plan_for(batch.task), None, None
        leader = self._leaders.get(batch.group, batch.task)
        exec_plan = self.plan_for(leader)
        if exec_plan is self.plan:
            return exec_plan, None, batch.tasks
        task_plans = {
            name: self.plan_for(name).tasks[name] for name in set(batch.tasks)
        }
        return exec_plan, task_plans, batch.tasks

    def plan_bytes(self, shared_only: bool = False) -> int:
        """Resident bytes of the set's tensors, counting shared memory once.

        Arrays that alias a common base (backbone weights shared across task
        plans, pass-through tensors a specialized plan kept from its dense
        source) are counted a single time — the resident-set semantics the
        many-task memory budget is stated in.

        ``shared_only`` restricts the count to the *plan* tensors (kernel
        weights/biases/quant payloads — the backbone every task shares).
        That is the portion deduplication keeps O(1) in the task count; the
        remainder is the paper's irreducible per-task payload (per-neuron
        thresholds + FC head), which necessarily scales with N.
        """
        seen: set = set()
        total = 0

        def visit(array) -> None:
            nonlocal total
            if not isinstance(array, np.ndarray):
                return
            base = array
            while isinstance(base.base, np.ndarray):
                base = base.base
            if id(base) not in seen:
                seen.add(id(base))
                total += base.nbytes

        by_id = {id(p): p for p in [self.plan, *self.specialized.values()]}
        for plan in by_id.values():
            for kernel in plan.kernels:
                visit(getattr(kernel, "weight_t", None))
                visit(getattr(kernel, "bias", None))
                visit(getattr(kernel, "live_index", None))
                quant = getattr(kernel, "quant", None)
                if quant is not None:
                    visit(quant.weight_q)
                    visit(quant.w_scale)
                    visit(quant.scale)
            if shared_only:
                continue
            for task_plan in plan.tasks.values():
                for thresholds in task_plan.thresholds:
                    visit(thresholds)
                visit(task_plan.head_weight_t)
                visit(task_plan.head_bias)
        return total


def _call_if_alive(ref: "weakref.ref[BaseRuntime]", method: str, default):
    """``ref().method()``, or ``default`` once the runtime is gone."""
    runtime = ref()
    return default if runtime is None else getattr(runtime, method)()


class BaseRuntime:
    """Common intake/batching/metrics core of the serving backends."""

    #: Reported in :class:`~repro.serving.metrics.ServingReport` and used by
    #: the CLI's ``--backend`` flag.
    backend: str = "abstract"

    def __init__(
        self,
        plan: EnginePlan,
        policy: str | SchedulingPolicy = "fifo-deadline",
        micro_batch: int = 8,
        max_wait: float = 0.01,
        workers: int = 2,
        max_pending: int = 0,
        recorder: Optional[SparsityRecorder] = None,
        specialized: Optional[Dict[str, EnginePlan]] = None,
        clock: Callable[[], float] = time.monotonic,
        max_retries: int = 2,
        window_interval: float = 1.0,
        coalesce: bool = False,
    ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        #: Cross-task batch coalescing (off by default): when enabled the
        #: batcher buckets requests by coalescing group instead of task, so
        #: one micro-batch may carry rows of several tasks over the shared
        #: backbone.  Default-off preserves per-task batching semantics for
        #: existing policies (weighted-fair's per-task virtual clocks, queue
        #: depth accounting in tests).
        self.coalesce = bool(coalesce)
        #: Per-task specialized plans (:func:`repro.engine.specialize.
        #: specialize_tasks`) ride next to the dense plan in one PlanSet.
        #: All plans are immutable, and every worker's private WorkspacePool
        #: keys buffers by lifetime, not by kernel, so the same pool serves
        #: whichever plan a batch's task selects without growing per plan.
        self._plans = PlanSet(plan, specialized)
        self.policy = get_policy(policy)
        self.micro_batch = micro_batch
        self.workers = workers
        self.recorder = recorder if recorder is not None else SparsityRecorder()
        #: Retry budget stamped on every admitted request: how many times a
        #: request may be re-dispatched after a worker death before its future
        #: fails permanently.  Only the process backend's supervisor consumes
        #: it; the thread backend shares a fate with its workers.
        self.max_retries = max_retries
        # The metrics accumulator shares the runtime's clock so mid-run
        # reports and window boundaries live in one clock domain.
        self.metrics = ServingMetrics(clock=clock)
        self._clock = clock
        # Nothing the runtime owns may hold it strongly: with no cycle, a
        # stopped runtime and its PlanSet are freed by refcount the moment
        # the last outside reference goes, not at the next full GC.
        runtime = weakref.ref(self)
        self._batcher = DynamicBatcher(
            micro_batch=micro_batch,
            max_wait=max_wait,
            policy=self.policy,
            max_pending=max_pending,
            clock=clock,
            # Late-bound through self._plans so hot-swaps retarget the
            # group map without touching the batcher.
            coalesce=(lambda task: runtime()._plans.coalescing_group(task))
            if self.coalesce
            else None,
        )
        #: Windowed snapshots + control-plane event log + Prometheus text.
        #: Windows close on the runtime clock every ``window_interval``
        #: seconds when :meth:`MetricsStream.poll` is called (the CLI runs
        #: the stream's background poller; tests drive poll() manually).
        self.stream = MetricsStream(
            self.metrics,
            clock,
            interval=window_interval,
            queue_depths=self._batcher.depth_by_task,
            shard_depths=lambda: _call_if_alive(runtime, "shard_depths", {}),
            report=lambda: _call_if_alive(runtime, "report", None),
        )
        self._submit_lock = threading.Lock()
        self._submitted = 0
        self._started = False
        self._stopped = False
        # Control plane: one swap/add/remove at a time, plus an intake gate
        # that briefly pauses submit() while a swap drains the old plans.
        # Reentrant so swap_with() can derive a new set from the current one
        # and install it without another control operation interleaving.
        self._control_lock = threading.RLock()
        self._intake_gate = threading.Condition()
        self._intake_paused = False
        self._intake_active = 0

    # ------------------------------------------------------------------ plans --
    @property
    def plans(self) -> PlanSet:
        """The current plan snapshot (replaced wholesale by :meth:`swap`)."""
        return self._plans

    @property
    def plan(self) -> EnginePlan:
        """The current dense plan."""
        return self._plans.plan

    @property
    def specialized(self) -> Dict[str, EnginePlan]:
        """The current per-task specialized plans."""
        return self._plans.specialized

    def plan_for(self, task: str) -> EnginePlan:
        """The plan a batch of ``task`` executes (specialized when available)."""
        return self._plans.plan_for(task)

    # ------------------------------------------------------------------- clock --
    @property
    def clock(self) -> Callable[[], float]:
        """The injectable clock every timestamp in this runtime is taken on."""
        return self._clock

    # -------------------------------------------------------------- lifecycle --
    def start(self) -> "BaseRuntime":
        """Bring the worker pool up.  Requests may be submitted before or after."""
        if self._stopped:
            raise RuntimeClosedError(f"a {type(self).__name__} cannot be restarted")
        if self._started:
            return self
        self._started = True
        # Workers first, then the measurement window: process backends block
        # in _launch_workers until every child built its plan, so reported
        # throughput covers serving, not interpreter spawn time.
        self._launch_workers()
        self.metrics.mark_start(self._clock())
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> ServingReport:
        """Shut down and return the final :class:`ServingReport`.

        ``drain=True`` (default) stops intake, flushes partial batches and
        waits for every admitted request to finish; ``drain=False`` cancels
        everything not yet executing — cancelled futures raise
        :class:`RequestCancelledError`.  On a runtime that was never
        started, admitted requests are always cancelled (no worker exists to
        drain them).  ``timeout`` bounds the *total* wait for the worker
        pool; if it elapses with workers still running, the returned report
        is a snapshot, not final (see the backend's notes on stragglers).
        """
        if not self._stopped:
            self._stopped = True
            self._batcher.close()
            if not drain or not self._started:
                cancelled = self._batcher.drain_cancelled()
                for request in cancelled:
                    request.result.set_error(
                        RequestCancelledError(
                            f"request {request.index} cancelled by stop(drain=False)"
                        )
                    )
                self.metrics.observe_cancelled(len(cancelled))
            if self._started:
                self._join_workers(drain=drain, timeout=timeout)
            self.stream.stop()  # no-op unless the background poller ran
            self.metrics.mark_stop(self._clock())
        return self.report()

    def __enter__(self) -> "BaseRuntime":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # --------------------------------------------------------- backend hooks --
    def _launch_workers(self) -> None:
        raise NotImplementedError

    def _execute(self, batch: MicroBatch, state, last_task: Optional[str]) -> None:
        """Run (thread backend) or route (process backend) one closed batch."""
        raise NotImplementedError

    def _join_workers(self, drain: bool, timeout: Optional[float]) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------ control plane --
    def _coerce_plans(
        self, target, specialized: Optional[Dict[str, EnginePlan]]
    ) -> PlanSet:
        """Normalise a swap target to a :class:`PlanSet`.

        Accepts a ``PlanSet``, a dense :class:`EnginePlan` (optionally with a
        ``specialized`` dict), or anything exposing ``build_plans()`` — i.e. a
        :class:`~repro.artifacts.ModelArtifact` (duck-typed to keep this
        module free of an artifacts dependency).
        """
        if isinstance(target, PlanSet):
            if specialized is not None:
                raise ValueError("pass specialized plans inside the PlanSet")
            return target
        if isinstance(target, EnginePlan):
            return PlanSet(target, specialized)
        build_plans = getattr(target, "build_plans", None)
        if callable(build_plans):
            plan, artifact_specialized = build_plans()
            return PlanSet(
                plan, specialized if specialized is not None else artifact_specialized
            )
        raise TypeError(
            f"cannot swap to {type(target).__name__}: expected an EnginePlan, "
            "a PlanSet, or a ModelArtifact"
        )

    def _validate_swap(self, plans: PlanSet) -> None:
        """Reject plan sets the live runtime cannot serve in place."""
        current = self._plans.plan
        if tuple(plans.plan.input_shape) != tuple(current.input_shape):
            raise ValueError(
                f"cannot swap: input shape {tuple(plans.plan.input_shape)} != "
                f"{tuple(current.input_shape)} the runtime was built for"
            )
        if np.dtype(plans.plan.dtype) != np.dtype(current.dtype):
            raise ValueError(
                f"cannot swap: dtype {np.dtype(plans.plan.dtype)} != "
                f"{np.dtype(current.dtype)} the runtime was built for"
            )

    def swap(
        self,
        target,
        specialized: Optional[Dict[str, EnginePlan]] = None,
        timeout: Optional[float] = None,
    ) -> PlanSet:
        """Hot-swap the runtime's plans with zero dropped or misrouted requests.

        ``target`` is an :class:`~repro.engine.EnginePlan` (with an optional
        ``specialized`` dict), a prebuilt :class:`PlanSet`, or a
        :class:`~repro.artifacts.ModelArtifact`.  The new plans must share the
        current input shape and dtype (process backends additionally bound
        the head width by their output-ring geometry).

        On a live runtime the sequence is: pause intake (submitters block for
        the duration, nothing is rejected) → flush and drain every admitted
        micro-batch against the **old** plans → backend cutover
        (:meth:`_apply_swap`: atomic snapshot replacement for threads; a
        rebuild control message + readiness ack per shard for processes) →
        resume intake against the **new** plans.  Requests admitted after the
        swap returns are guaranteed to execute on the new plans; requests
        admitted before are guaranteed to have executed on the old ones.

        ``timeout`` bounds the drain + cutover; on expiry a
        :class:`TimeoutError` is raised and the old plans keep serving.
        """
        plans = self._coerce_plans(target, specialized)
        self._validate_swap(plans)
        # One deadline covers every phase (batcher drain, in-flight drain,
        # backend cutover), so `timeout` bounds the whole call, not each step.
        # Budgets run on the runtime's injectable clock — mixing in raw
        # time.monotonic() here would put the swap deadline in a different
        # clock domain than the drains it bounds.
        give_up = None if timeout is None else self._clock() + timeout

        def remaining() -> Optional[float]:
            return None if give_up is None else max(0.0, give_up - self._clock())

        with self._control_lock:
            if self._stopped:
                raise RuntimeClosedError("cannot swap plans on a stopped runtime")
            if not self._started:
                self._plans = plans
                self.stream.record_event(
                    "swap", detail=f"pre-start install: tasks={plans.task_names()}"
                )
                return plans
            self._pause_intake()
            try:
                self._batcher.flush()
                if not self._batcher.quiescent(remaining()):
                    raise TimeoutError(
                        f"swap drain did not quiesce within {timeout}s; "
                        "the old plans are still serving"
                    )
                self._drain_in_flight(remaining())
                self._apply_swap(plans, remaining())
            finally:
                self._resume_intake()
        self.stream.record_event("swap", detail=f"tasks={plans.task_names()}")
        return plans

    def swap_with(self, build, timeout: Optional[float] = None) -> PlanSet:
        """Atomically derive a new plan set from the current one and swap to it.

        ``build(current: PlanSet)`` returns the swap target (anything
        :meth:`swap` accepts).  The control lock is held across the read and
        the swap, so two concurrent control operations (say, an operator's
        :meth:`add_task` and the recalibration loop's re-specialization)
        cannot both derive from the same snapshot and silently revert each
        other — the classic lost update.  A plain :meth:`swap` with a
        pre-built target does not need this; use ``swap_with`` whenever the
        new set is a function of the current one.
        """
        with self._control_lock:
            return self.swap(build(self._plans), timeout=timeout)

    def add_task(
        self,
        task,
        specialized_plan: Optional[EnginePlan] = None,
        timeout: Optional[float] = None,
    ) -> PlanSet:
        """Register a new task on the live runtime (a swap under the hood).

        ``task`` is either a training-side
        :class:`~repro.mime.task_manager.TaskParameters` (snapshotted exactly
        like :func:`~repro.engine.compile_network` does) or a prebuilt
        :class:`~repro.engine.TaskPlan`.  The dense plan's kernels are shared
        with the new snapshot — only the task dictionary grows.
        """
        name = task.name

        def build(current: PlanSet) -> PlanSet:
            if name in current.plan.tasks:
                raise KeyError(f"task '{name}' is already registered")
            new_plan = replace(current.plan, tasks=dict(current.plan.tasks))
            if isinstance(task, TaskPlan):
                new_plan.tasks[name] = task
            else:
                # Snapshots the TaskParameters exactly like compile_network;
                # only the new plan's (fresh) tasks dict grows — the live one
                # is shared with executing workers and never mutated.
                new_plan.add_task(task)
            new_specialized = dict(current.specialized)
            if specialized_plan is not None:
                new_specialized[name] = specialized_plan
            return PlanSet(new_plan, new_specialized)

        return self.swap_with(build, timeout=timeout)

    def remove_task(self, name: str, timeout: Optional[float] = None) -> PlanSet:
        """Unregister ``name`` from the live runtime (a swap under the hood).

        Requests for the task admitted before this call complete normally —
        the swap drains them against the old plans; requests submitted after
        it returns are rejected at admission with :class:`KeyError`.
        """

        def build(current: PlanSet) -> PlanSet:
            if name not in current.plan.tasks:
                raise KeyError(
                    f"unknown task '{name}'; compiled: {current.task_names()}"
                )
            if len(current.plan.tasks) == 1:
                raise ValueError("cannot remove the only task of a serving runtime")
            tasks = {
                key: value for key, value in current.plan.tasks.items() if key != name
            }
            specialized = {
                key: value for key, value in current.specialized.items() if key != name
            }
            return PlanSet(replace(current.plan, tasks=tasks), specialized)

        return self.swap_with(build, timeout=timeout)

    def _apply_swap(self, plans: PlanSet, timeout: Optional[float]) -> None:
        """Backend cutover, called with intake paused and the batcher drained."""
        self._plans = plans

    def _drain_in_flight(self, timeout: Optional[float]) -> None:
        """Extra backend drain beyond the batcher (process backends override)."""

    def current_recorder(self) -> SparsityRecorder:
        """A recorder view covering everything measured so far, fleet-wide.

        The thread backend's workers share :attr:`recorder`, so this is that
        object; the process backend overrides it to merge live worker
        snapshots fetched over the command channel.  The online recalibration
        loop reads survival statistics through this method so it works
        unchanged on either backend.
        """
        return self.recorder

    def _pause_intake(self) -> None:
        """Block new :meth:`submit` calls and wait out the ones in progress."""
        with self._intake_gate:
            self._intake_paused = True
            while self._intake_active:
                self._intake_gate.wait()

    def _resume_intake(self) -> None:
        with self._intake_gate:
            self._intake_paused = False
            self._intake_gate.notify_all()

    # ----------------------------------------------------------------- intake --
    def submit(
        self,
        task: str,
        image: np.ndarray,
        deadline: Optional[float] = None,
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> ServingResult:
        """Admit one ``(C, H, W)`` image for ``task``; returns a future.

        ``deadline`` is an absolute timestamp on the runtime's clock
        (``time.monotonic()`` by default), consulted by deadline-aware
        policies and scored in the metrics.  On a full bounded queue,
        ``block=False`` raises :class:`QueueFullError` immediately, otherwise
        the call waits (up to ``timeout`` seconds).  During a plan hot-swap
        the call blocks briefly while the old plans drain, then validates
        against the new plans — the same ``block``/``timeout`` semantics
        apply at the swap gate, so a non-blocking submit fails fast instead
        of stalling for the drain.
        """
        # The wait budget runs on the runtime's clock: deadlines, batch
        # timestamps and this timeout must share one clock domain (and a
        # ManualClock test must be able to expire the wait).
        give_up = None if timeout is None else self._clock() + timeout
        with self._intake_gate:
            while self._intake_paused:
                if not block:
                    self.metrics.observe_rejection()
                    raise QueueFullError(
                        "intake is paused for a plan swap; retry after the cutover"
                    )
                remaining = None if give_up is None else give_up - self._clock()
                if remaining is not None and remaining <= 0:
                    self.metrics.observe_rejection()
                    raise QueueFullError(
                        f"intake still paused for a plan swap after waiting {timeout}s"
                    )
                self._intake_gate.wait(remaining)
            self._intake_active += 1
        try:
            plans = self._plans
            if not isinstance(task, str):
                raise TypeError(
                    "submit expects (task, image): task must be a task name (str), "
                    f"got {type(task).__name__}; were the arguments swapped?"
                )
            if task not in plans.plan.tasks:
                raise KeyError(
                    f"unknown task '{task}'; compiled: {plans.task_names()}"
                )
            image = np.asarray(image)
            if image.shape != plans.plan.input_shape:
                raise ValueError(
                    f"expected one image of shape {plans.plan.input_shape}, "
                    f"got {image.shape}"
                )
            # Backend veto point: the process backend's supervisor rejects or
            # sheds here when the fleet is dead or degraded, *before* the
            # request is charged against the batcher's admission bound.
            self._admission_gate(block)
            now = self._clock()
            with self._submit_lock:
                index = self._submitted
                self._submitted += 1
            result = ServingResult(index, task, now, deadline)
            # Copy so callers may reuse their staging buffer after submit().
            request = ServingRequest(
                index,
                task,
                image.copy(),
                now,
                deadline,
                result,
                max_retries=self.max_retries,
            )
            # Whatever the swap gate consumed comes out of the same budget, so
            # the total wait stays bounded by the caller's timeout.
            remaining = (
                None if give_up is None else max(0.0, give_up - self._clock())
            )
            try:
                self._batcher.submit(request, block=block, timeout=remaining)
            except QueueFullError:
                # Only genuine overload counts as a rejection in the report;
                # RuntimeClosedError during shutdown is not a capacity signal.
                self.metrics.observe_rejection()
                raise
            return result
        finally:
            with self._intake_gate:
                self._intake_active -= 1
                if not self._intake_active:
                    self._intake_gate.notify_all()

    def _admission_gate(self, block: bool) -> None:
        """Backend hook run before a validated request reaches the batcher.

        The default accepts everything.  :class:`~repro.serving.sharded.
        ShardedRuntime` overrides it to fail fast when no shard is live
        (:class:`~repro.serving.request.NoLiveShardsError`) and to tighten
        the admission bound while the fleet is degraded, shedding load
        instead of letting submitters hang behind capacity that no longer
        exists.
        """

    def submit_many(
        self, items: Sequence[Tuple[str, np.ndarray]], **kwargs
    ) -> List[ServingResult]:
        """Convenience loop over :meth:`submit` for ``(task, image)`` pairs."""
        return [self.submit(task, image, **kwargs) for task, image in items]

    def pending(self) -> int:
        return self._batcher.pending()

    # ----------------------------------------------------------------- gauges --
    def shard_depths(self) -> Dict[int, int]:
        """Instantaneous in-flight depth per shard.

        The base/thread runtime has no per-shard queues — workers pull from
        the one shared batcher — so this is empty; the process backend
        overrides it with per-shard in-flight batch counts.
        """
        return {}

    # ---------------------------------------------------------------- workers --
    def _worker_loop(self, state) -> None:
        """The shared pull loop: batches flow from the batcher to _execute.

        ``state`` is whatever per-worker context the backend passed when it
        launched the loop (a :class:`~repro.engine.WorkspacePool` for thread
        workers).  ``task_done`` runs under a ``finally`` so a batch that
        fails still releases the swap drain barrier.

        Only thread workers run this loop, and each executes the batch it
        takes, so it asks as an idle consumer: an open batch closes the
        moment a worker is free instead of when ``max_wait`` expires.
        """
        last_task: Optional[str] = None
        while True:
            batch = self._batcher.next_batch(last_task, idle=True)
            if batch is None:
                return
            try:
                self._execute(batch, state, last_task)
            finally:
                self._batcher.task_done()
            # Track the routing key, not the raw task: consecutive coalesced
            # batches of one group share all plan state, so they are not a
            # task switch.  For non-coalesced batches the key IS the task.
            last_task = batch.routing_key

    def _complete_batch(
        self,
        requests: Sequence[ServingRequest],
        logits: np.ndarray,
        task: str,
        start: float,
        finish: float,
        switched: bool,
        shard: Optional[int] = None,
        per_task: Optional[Dict[str, int]] = None,
    ) -> None:
        """Resolve one executed batch's futures and record its metrics.

        ``shard`` is the worker index that executed the batch (thread index
        or process shard id); both backends thread it through so per-shard
        completion counters work on either.  ``per_task`` attributes a mixed
        batch's images to each member task instead of charging them all to
        ``task``.
        """
        latencies, queue_waits, deadline_results = [], [], []
        for request, row in zip(requests, logits):
            request.result.set_result(row, start, finish)
            latencies.append(finish - request.arrival_time)
            queue_waits.append(start - request.arrival_time)
            deadline_results.append(request.result.deadline_met)
        self.metrics.observe_batch(
            task,
            latencies,
            queue_waits,
            switched=switched,
            deadline_results=deadline_results,
            shard=shard,
            per_task=per_task,
        )

    def _fail_batch(self, requests: Sequence[ServingRequest], error: BaseException) -> None:
        """Surface an execution error on every future of a failed batch."""
        for request in requests:
            request.result.set_error(error)
        self.metrics.observe_error(len(requests))

    # ---------------------------------------------------------------- reports --
    def report(self) -> ServingReport:
        """Current metrics snapshot (final once :meth:`stop` returned).

        ``task_switches`` counts **per-worker** switches (each worker models
        one accelerator pipeline); :meth:`hardware_report` instead charges
        reloads on the single global interleaved schedule, which alternates
        more under multi-worker load — the two numbers answer different
        questions and are not expected to match.
        """
        dense, effective = self.recorder.mac_totals()
        return self.metrics.report(
            self.policy.name,
            self.workers,
            now=self._clock(),
            backend=self.backend,
            dense_macs=dense,
            effective_macs=effective,
        )

    def reset_stats(self) -> None:
        """Start a fresh measurement window (mirrors the offline engine).

        Clears the metrics *and* the sparsity recorder.  Long-lived runtimes
        should call this periodically: both grow with every served image
        (per-request latency samples, one schedule slot per image) and are
        never trimmed otherwise.
        """
        self.metrics.reset(self._clock() if self._started else None)
        self.recorder.reset()

    def sparsity_profile(self, default_sparsity: float = 0.0):
        """Measured per-task, per-layer sparsity as a simulator-ready profile."""
        return self.recorder.to_profile(default_sparsity=default_sparsity)

    def hardware_report(
        self,
        shapes: Sequence[LayerShape],
        config: ExecutionConfig | None = None,
        simulator: SystolicArraySimulator | None = None,
        conv_only: bool = False,
    ) -> BatchResult:
        """Simulate the *online* schedule this runtime actually executed.

        The recorder covers the runtime's whole lifetime: the interleaved
        order the worker pool produced under load is exactly the schedule the
        systolic-array simulator charges parameter reloads against.
        """
        return recorder_hardware_report(
            self.recorder, shapes, config=config, simulator=simulator, conv_only=conv_only
        )
