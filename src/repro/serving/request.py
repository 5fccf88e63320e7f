"""Request/response types and admission-control errors for online serving.

A client ``submit()`` returns a :class:`ServingResult` — a small future that a
worker thread later completes with the logits and execution timestamps.  The
request travelling through the batcher is a :class:`ServingRequest`, which is
structurally compatible with :class:`~repro.engine.scheduling.InferenceRequest`
(``index``/``task``/``image``/``arrival_time``/``deadline``) so the shared
scheduling policies can rank serving micro-batches directly.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np


#: Serialises completion so the first set_result/set_error wins.  One lock for
#: every future: completing is a few attribute writes, and a per-future guard
#: would cost more memory than the contention it saves.
_COMPLETION_LOCK = threading.Lock()


class AdmissionError(RuntimeError):
    """Base class for requests refused at the door."""


class QueueFullError(AdmissionError):
    """The bounded request queue is at capacity and the caller chose not to wait."""


class RuntimeClosedError(AdmissionError):
    """The runtime no longer accepts requests (stopped or stopping)."""


class RequestCancelledError(RuntimeError):
    """The request was dropped before execution (``stop(drain=False)``)."""


class NoLiveShardsError(RuntimeError):
    """Every worker of the fleet is dead and no restart is possible.

    Raised immediately at :meth:`~repro.serving.base.BaseRuntime.submit`
    (instead of silently enqueueing into a queue nobody drains) and as the
    permanent failure of re-dispatched requests that ran out of targets.
    """


class RedispatchError(RuntimeError):
    """Base class for the permanent failures of the fault-tolerant re-dispatch
    path: the request was *accepted* and re-queued after a shard death, but
    could not be completed within its retry budget or deadline."""


class RetryBudgetExceededError(RedispatchError):
    """The request failed on ``max_retries + 1`` distinct dispatch attempts."""


class DeadlineExpiredError(RedispatchError):
    """The request's deadline passed (or cannot be met even by the earliest
    possible retry) while it was waiting for re-dispatch."""


class ServingResult:
    """Future for one submitted image.

    Timestamps are on the runtime's clock (``time.monotonic()`` by default):
    ``arrival_time`` at admission, ``start_time`` when the executing worker
    launched the micro-batch, ``finish_time`` when the logits were ready.

    The future completes once: the first :meth:`set_result` or
    :meth:`set_error` wins and any later call is a silent no-op.  Waiting
    rides on one bare lock held from construction until completion, so a
    retained future costs a lock instead of an ``Event`` (a condition, a
    lock, a dict and a deque).
    """

    __slots__ = (
        "index",
        "task",
        "arrival_time",
        "deadline",
        "start_time",
        "finish_time",
        "_pending",
        "_done",
        "_logits",
        "_error",
    )

    def __init__(
        self, index: int, task: str, arrival_time: float, deadline: Optional[float] = None
    ) -> None:
        self.index = index
        self.task = task
        self.arrival_time = arrival_time
        self.deadline = deadline
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self._pending = threading.Lock()
        self._pending.acquire()
        self._done = False
        self._logits: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None

    # ------------------------------------------------------------- producer --
    def set_result(self, logits: np.ndarray, start_time: float, finish_time: float) -> None:
        with _COMPLETION_LOCK:
            if self._done:
                return
            self._logits = logits
            self.start_time = start_time
            self.finish_time = finish_time
            self._complete()

    def set_error(self, error: BaseException) -> None:
        with _COMPLETION_LOCK:
            if self._done:
                return
            self._error = error
            self._complete()

    def _complete(self) -> None:
        # Release before publishing ``_done`` so a caller that saw done()
        # never finds the lock still held.
        self._pending.release()
        self._done = True

    # ------------------------------------------------------------- consumer --
    def done(self) -> bool:
        return self._done

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until the logits are ready (or raise the execution error).

        ``timeout=None`` waits forever; ``timeout <= 0`` only polls.
        """
        if not self._done:
            # Lock.acquire waits forever on -1 and rejects other negatives.
            acquired = self._pending.acquire(
                timeout=-1 if timeout is None else max(timeout, 0.0)
            )
            if acquired:
                # Pass the lock straight on: every waiter and later call gets through.
                self._pending.release()
            elif not self._done:
                raise TimeoutError(
                    f"request {self.index} ({self.task}) not completed within {timeout}s"
                )
        if self._error is not None:
            raise self._error
        assert self._logits is not None
        return self._logits

    @property
    def latency(self) -> Optional[float]:
        """End-to-end seconds from admission to logits, once done."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    @property
    def queue_wait(self) -> Optional[float]:
        """Seconds spent batching/queueing before execution started."""
        if self.start_time is None:
            return None
        return self.start_time - self.arrival_time

    @property
    def deadline_met(self) -> Optional[bool]:
        """Whether the logits were ready by the deadline (None if no deadline)."""
        if self.deadline is None or self.finish_time is None:
            return None
        return self.finish_time <= self.deadline


class ServingRequest:
    """One admitted image on its way through the batcher.

    Duck-typed against :class:`~repro.engine.scheduling.InferenceRequest` so
    :class:`~repro.engine.scheduling.MicroBatch` and the policies accept it.

    ``attempts``/``max_retries`` are the fault-tolerance budget: ``attempts``
    counts dispatches that ended in a shard death (0 while nothing has
    failed), and a request is permanently failed with
    :class:`RetryBudgetExceededError` once ``attempts`` would exceed
    ``max_retries``.  The thread backend never retries, so both stay at their
    defaults there.
    """

    __slots__ = (
        "index",
        "task",
        "image",
        "arrival_time",
        "deadline",
        "result",
        "attempts",
        "max_retries",
    )

    def __init__(
        self,
        index: int,
        task: str,
        image: np.ndarray,
        arrival_time: float,
        deadline: Optional[float],
        result: ServingResult,
        max_retries: int = 0,
    ) -> None:
        self.index = index
        self.task = task
        self.image = image
        self.arrival_time = arrival_time
        self.deadline = deadline
        self.result = result
        self.attempts = 0
        self.max_retries = max_retries
