"""Deadline-aware dynamic batching with bounded admission.

The :class:`DynamicBatcher` is the synchronisation heart of the serving
runtime.  Producers (client threads) push :class:`ServingRequest` objects in;
consumer workers pull closed :class:`~repro.engine.scheduling.MicroBatch`
units out.  A per-task *open* batch accumulates until either

* it reaches ``micro_batch`` requests (closed immediately — size trigger),
* ``max_wait`` seconds elapse since its first request (closed by whichever
  worker wakes first — deadline trigger), or
* a consumer that can execute a batch *now* asks for work while nothing is
  ready (``next_batch(idle=True)`` — work-conserving trigger): the open batch
  with the earliest deadline closes at once, whatever its size.

The thread backend's workers always ask as idle consumers, so there
``max_wait`` never delays a request while a worker sits idle; it only bounds
how long a request waits for co-batching while every worker is busy.  The
process backend's dispatcher cannot tell whether a shard is free and keeps
the timer, so a lone request there waits up to ``max_wait`` for company.

Admission control: with ``max_pending > 0`` at most that many requests may be
waiting (open + ready).  Producers choose per call whether to **block** until
space frees (optionally bounded by a timeout) or be **rejected** immediately
with :class:`QueueFullError` — the classic overload policies.

All methods are thread-safe; one lock guards the whole structure with two
condition queues (``_can_submit`` for producers, ``_work`` for consumers).
"""

from __future__ import annotations

import time
from threading import Condition, Lock
from typing import Callable, Dict, List, Optional

from repro.engine.scheduling import MicroBatch, SchedulingPolicy
from repro.serving.request import QueueFullError, RuntimeClosedError, ServingRequest


class DynamicBatcher:
    """Thread-safe size-or-timeout micro-batcher with a bounded queue."""

    def __init__(
        self,
        micro_batch: int,
        max_wait: float,
        policy: SchedulingPolicy,
        max_pending: int = 0,
        clock: Callable[[], float] = time.monotonic,
        coalesce: Optional[Callable[[str], str]] = None,
    ) -> None:
        if micro_batch <= 0:
            raise ValueError("micro_batch must be positive")
        if max_wait < 0:
            raise ValueError("max_wait must be non-negative")
        if max_pending < 0:
            raise ValueError("max_pending must be non-negative (0 = unbounded)")
        self.micro_batch = micro_batch
        self.max_wait = max_wait
        self.policy = policy
        self.max_pending = max_pending
        #: Optional ``task -> coalescing group`` map.  When set, open batches
        #: bucket by group instead of task, so one micro-batch may carry
        #: requests of several tasks sharing a backbone (cross-task
        #: coalescing); the resulting :class:`MicroBatch` records the group
        #: and per-row tasks.  ``None`` preserves classic per-task batching.
        self.coalesce = coalesce
        self._clock = clock
        self._lock = Lock()
        self._can_submit = Condition(self._lock)
        self._work = Condition(self._lock)
        self._quiet = Condition(self._lock)
        self._open: Dict[str, List[ServingRequest]] = {}
        self._close_at: Dict[str, float] = {}
        self._ready: List[MicroBatch] = []
        self._seq: Dict[str, int] = {}
        self._pending = 0
        self._in_flight = 0
        self._closed = False

    # ---------------------------------------------------------------- intake --
    def submit(
        self, request: ServingRequest, block: bool = True, timeout: Optional[float] = None
    ) -> None:
        """Admit one request, or raise an :class:`AdmissionError`.

        ``block=False`` turns a full queue into an immediate
        :class:`QueueFullError`; ``block=True`` waits for space, up to
        ``timeout`` seconds when given.
        """
        with self._lock:
            if self._closed:
                raise RuntimeClosedError("the batcher no longer accepts requests")
            if self.max_pending:
                give_up = None if timeout is None else self._clock() + timeout
                while self._pending >= self.max_pending and not self._closed:
                    if not block:
                        raise QueueFullError(
                            f"queue at capacity ({self.max_pending} pending requests)"
                        )
                    remaining = None if give_up is None else give_up - self._clock()
                    if remaining is not None and remaining <= 0:
                        raise QueueFullError(
                            f"queue still full after waiting {timeout}s"
                        )
                    self._can_submit.wait(remaining)
                if self._closed:
                    raise RuntimeClosedError("the batcher closed while waiting for space")
            key = self.coalesce(request.task) if self.coalesce is not None else request.task
            bucket = self._open.setdefault(key, [])
            if not bucket:
                self._close_at[key] = self._clock() + self.max_wait
            bucket.append(request)
            self._pending += 1
            if len(bucket) >= self.micro_batch:
                self._close_open(key)
            # Wake workers either way: a new ready batch, or a new open
            # batch an idle worker takes now (or whose timer it must watch).
            self._work.notify_all()

    def requeue_batch(self, batch: MicroBatch) -> None:
        """Re-admit a previously dispatched batch after its worker died.

        The fault-tolerant re-dispatch path: every member request was already
        accepted (and charged against admission control) on its first pass, so
        this bypasses both the capacity bound and the ``closed`` gate — an
        accepted request must stay executable even while ``stop(drain=True)``
        is draining.  The batch keeps its original composition, which is what
        makes re-execution bit-identical to the first attempt on an immutable
        plan.
        """
        with self._lock:
            self._ready.append(batch)
            self._pending += len(batch)
            self._work.notify_all()

    def pending(self) -> int:
        """Requests admitted but not yet handed to a worker."""
        with self._lock:
            return self._pending

    def depth_by_task(self) -> Dict[str, int]:
        """Instantaneous queued requests per task (open + ready batches).

        A gauge for the observability stream: unlike :meth:`pending` it says
        *where* the backlog sits, which is what per-task queue-depth
        monitoring needs.
        """
        with self._lock:
            # Buckets may be keyed by coalescing group, so walk the member
            # requests — per-task depth must stay exact either way.
            depths: Dict[str, int] = {}
            for bucket in self._open.values():
                for request in bucket:
                    depths[request.task] = depths.get(request.task, 0) + 1
            for batch in self._ready:
                for name in batch.tasks:
                    depths[name] = depths.get(name, 0) + 1
            return depths

    # ---------------------------------------------------------- lock helpers --
    def _close_open(self, key: str) -> None:
        """Move bucket ``key``'s open batch to the ready list.  Lock held.

        ``key`` is the task name under classic batching, or the coalescing
        group when :attr:`coalesce` is set — then the batch's ``task`` field
        holds the first member's task (a representative) and ``group`` the
        bucket key, so downstream consumers can tell the two apart.
        """
        bucket = self._open.pop(key)
        self._close_at.pop(key, None)
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        group = key if self.coalesce is not None else None
        self._ready.append(MicroBatch(bucket[0].task, bucket, seq, group=group))

    def _close_expired(self, now: float) -> None:
        """Close every open batch whose max-wait deadline passed.  Lock held."""
        for task in [t for t, at in self._close_at.items() if at <= now]:
            self._close_open(task)

    # --------------------------------------------------------------- workers --
    def next_batch(
        self, last_task: Optional[str] = None, idle: bool = False
    ) -> Optional[MicroBatch]:
        """Block until a batch is ready and return it; ``None`` on shutdown.

        The scheduling policy chooses among the ready batches;
        ``last_task`` is the calling worker's previous task so policies can
        minimise (singular) or maximise (pipelined) task alternation per
        worker.  Returns ``None`` only once the batcher is closed *and*
        drained.

        ``idle=True`` says the caller executes the batch itself, now: when
        nothing is ready, the open batch with the earliest ``max_wait``
        deadline closes early and is returned instead of the caller
        sleeping on its timer.  Only that one batch closes (other buckets
        keep filling), and ready batches — full ones included — still go
        through the policy first.
        """
        with self._lock:
            while True:
                now = self._clock()
                self._close_expired(now)
                if idle and not self._ready and self._close_at:
                    self._close_open(min(self._close_at, key=self._close_at.__getitem__))
                if self._ready:
                    batch = self.policy.pick(self._ready, last_task)
                    self._ready.remove(batch)
                    self._pending -= len(batch)
                    self._in_flight += 1
                    self._can_submit.notify_all()
                    return batch
                if self._closed and not self._open:
                    return None
                wait = None
                if self._close_at:
                    wait = max(0.0, min(self._close_at.values()) - now)
                self._work.wait(wait)

    def task_done(self) -> None:
        """Mark one batch returned by :meth:`next_batch` as fully handled.

        Consumers call this after executing (or routing) the batch; it is
        what lets :meth:`quiescent` distinguish "queue empty" from "queue
        empty *and* nothing in a worker's hands" — the barrier the hot-swap
        control plane drains on.
        """
        with self._lock:
            self._in_flight -= 1
            self._quiet.notify_all()

    def quiescent(self, timeout: Optional[float] = None) -> bool:
        """Wait until nothing is pending and no handed-out batch is unfinished.

        Only meaningful while intake is externally paused (new submissions
        would re-arm the condition).  Returns ``False`` on timeout.  The
        *give-up deadline* runs on the injectable clock (so a swap timeout
        shares the runtime's clock domain and ManualClock tests can expire
        it), while the individual waits stay wall-clock chunked: the loop is
        woken by :meth:`task_done`/:meth:`next_batch` notifications, not by
        time passing, and re-checks the deadline at least every 0.25 s.
        """
        give_up = None if timeout is None else self._clock() + timeout
        with self._lock:
            while self._pending or self._in_flight:
                remaining = None if give_up is None else give_up - self._clock()
                if remaining is not None and remaining <= 0:
                    return False
                self._quiet.wait(0.25 if remaining is None else min(0.25, remaining))
            return True

    # -------------------------------------------------------------- shutdown --
    def flush(self) -> None:
        """Close every open batch now, regardless of size."""
        with self._lock:
            for task in list(self._open):
                self._close_open(task)
            self._work.notify_all()

    def close(self) -> None:
        """Stop admitting; already-admitted requests stay executable."""
        with self._lock:
            self._closed = True
            for task in list(self._open):
                self._close_open(task)
            self._work.notify_all()
            self._can_submit.notify_all()

    def drain_cancelled(self) -> List[ServingRequest]:
        """Remove and return every pending request (for ``stop(drain=False)``)."""
        with self._lock:
            for task in list(self._open):
                self._close_open(task)
            cancelled = [request for batch in self._ready for request in batch.requests]
            self._ready.clear()
            self._pending = 0
            self._work.notify_all()
            self._can_submit.notify_all()
            self._quiet.notify_all()
            return cancelled
