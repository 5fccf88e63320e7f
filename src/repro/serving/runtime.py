"""The thread-backed online serving runtime.

:class:`ServingRuntime` turns a compiled :class:`~repro.engine.EnginePlan`
into a concurrent service: clients ``submit()`` single images from any thread
and receive a :class:`~repro.serving.request.ServingResult` future; a
:class:`~repro.serving.batcher.DynamicBatcher` groups arrivals into per-task
micro-batches; and a pool of worker threads executes batches over the
**shared, immutable** plan.  Batching is work-conserving: a worker that asks
for work while a batch is open takes it at once, so a batch closes on size,
on a free worker, or — only while every worker is busy — on ``max_wait``.
Each worker owns a private :class:`~repro.engine.WorkspacePool`, shared by
every plan it runs and sized by one kernel call's live buffers (so hot-swaps
and task counts never grow it); the stacked request batch lives there too,
so a warm batch allocates only its logits.  The NumPy GEMMs (which release
the GIL) run genuinely in parallel across workers serving *different*
tasks.  That is the software analogue of the paper's pipelined hardware
scenario, and the measured schedule/sparsity feed the same systolic-array
simulator via :meth:`ServingRuntime.hardware_report`.

Everything except the worker threads themselves lives in
:class:`~repro.serving.base.BaseRuntime`, which this class shares with the
process-backed :class:`~repro.serving.sharded.ShardedRuntime` — same
batcher, same scheduling policies, same metrics and reports, different
parallelism substrate.  Threads scale until the GIL-bound stages (im2col,
masking, batch assembly) saturate one core; past that point, switch to the
sharded backend.

Scheduling is pluggable (:mod:`repro.engine.scheduling`): ``fifo-deadline``
by default, with ``singular``/``pipelined``/``weighted-fair`` available.
Backpressure comes from the batcher's bounded queue (``max_pending``), with
per-submit choice of blocking or immediate rejection.
"""

from __future__ import annotations

import threading
from typing import List, Optional

import numpy as np

from repro.engine.plan import WorkspacePool
from repro.engine.scheduling import MicroBatch
from repro.serving.base import BaseRuntime, run_plan_batch
from repro.serving.request import ServingRequest


class ServingRuntime(BaseRuntime):
    """Thread-parallel, dynamically-batched serving over one compiled plan."""

    backend = "thread"

    # --------------------------------------------------------- backend hooks --
    def _launch_workers(self) -> None:
        self._threads: List[threading.Thread] = []
        self._pools: List[WorkspacePool] = []
        for index in range(self.workers):
            pool = WorkspacePool()
            # Worker state carries the index so completed batches report
            # which worker ran them (the thread analogue of a shard id).
            thread = threading.Thread(
                target=self._worker_loop,
                args=((index, pool),),
                name=f"serving-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
            self._pools.append(pool)

    def _join_workers(self, drain: bool, timeout: Optional[float]) -> None:
        # ``timeout`` bounds the *total* wait; if it elapses with workers
        # still running, stragglers keep completing futures in the background.
        give_up = None if timeout is None else self._clock() + timeout
        for thread in self._threads:
            remaining = None if give_up is None else max(0.0, give_up - self._clock())
            thread.join(remaining)

    def _execute(
        self, batch: MicroBatch, state, last_task: Optional[str]
    ) -> None:
        index, pool = state
        requests: List[ServingRequest] = batch.requests  # type: ignore[assignment]
        # Stacked in the worker's pool: a fresh array per batch would grow
        # this thread's malloc arena when batches hold one or two rows.
        first = requests[0].image
        dtype = np.result_type(*(request.image.dtype for request in requests))
        images = pool.get("requests", (len(requests),) + first.shape, dtype)
        for row, request in zip(images, requests):
            row[...] = request.image
        start = self._clock()
        # One snapshot read per batch: the whole batch executes against a
        # single consistent plan set even if a swap lands mid-flight.
        plans = self.plans
        plan, task_plans, row_tasks = plans.execution_for(batch)
        try:
            logits = run_plan_batch(
                plan, plans.plan.dynamic, images, batch.task, self.recorder, pool,
                row_tasks=row_tasks, task_plans=task_plans,
            )
        except Exception as error:  # pragma: no cover - defensive: surface, don't die
            self._fail_batch(requests, error)
            return
        finish = self._clock()
        per_task: Optional[dict] = None
        if batch.mixed:
            per_task = {}
            for name in batch.tasks:
                per_task[name] = per_task.get(name, 0) + 1
        self._complete_batch(
            requests,
            logits,
            batch.task,
            start,
            finish,
            # ``last_task`` carries the previous batch's routing key (see
            # BaseRuntime._worker_loop): back-to-back batches of one
            # coalescing group are not a switch.
            switched=last_task is not None and last_task != batch.routing_key,
            shard=index,
            per_task=per_task,
        )
