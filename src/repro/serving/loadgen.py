"""Synthetic online traffic: Poisson arrivals over a configurable task mix.

A :class:`LoadGenerator` produces a deterministic (seeded) arrival trace —
inter-arrival gaps drawn from an exponential distribution, task picked from a
weighted mix — and can *replay* it against a live
:class:`~repro.serving.ServingRuntime`, sleeping until each arrival's
timestamp before submitting.  Four canonical scenarios cover the evaluation:

* **uniform** — every task equally likely at a constant rate;
* **skewed** — one hot task takes ``hot_fraction`` of the traffic (the
  realistic "one dominant tenant" case for weighted-fair scheduling);
* **zipf** — task popularity follows a power law (``1/rank^alpha``), the
  long-tail many-task mix the cross-task coalescing path is built for;
* **bursty** — each ``burst_period`` splits into a high phase at
  ``burst_factor``× the nominal rate followed by a low phase at
  1/``burst_factor``× (each lasting ``burst_period/2`` seconds), which
  stresses the dynamic batcher's size-vs-max-wait trade-off.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.serving.base import BaseRuntime
from repro.serving.request import AdmissionError, ServingResult

ImageSource = Union[Dict[str, np.ndarray], Callable[[str, int], np.ndarray]]


class ManualClock:
    """A settable, thread-safe clock for deterministic timing tests.

    Drop-in for ``time.monotonic`` wherever a clock is injectable (the
    batcher, the runtimes, :meth:`LoadGenerator.replay`): reading it returns
    the last value set, so latency/queue-wait/deadline arithmetic becomes
    exact instead of wall-clock-dependent.  An idle thread worker takes an
    open batch at once, so a lone request on the thread backend never waits
    on the clock.  The max-wait timer only matters while every worker is busy
    and on the process backend's dispatcher, which still sleep real seconds
    between re-checks of it — advancing the clock changes what those
    re-checks observe, not how long they sleep.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._lock = threading.Lock()
        self._now = float(start)

    def __call__(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new reading."""
        if seconds < 0:
            raise ValueError("time only moves forward")
        with self._lock:
            self._now += seconds
            return self._now


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: when it arrives and which task it belongs to."""

    time: float
    task: str


class LoadGenerator:
    """Seeded Poisson arrival process over a weighted task mix."""

    def __init__(
        self,
        tasks: Sequence[str],
        rate: float,
        mix: Optional[Sequence[float]] = None,
        seed: int = 0,
        burst_factor: float = 1.0,
        burst_period: float = 0.0,
    ) -> None:
        if not tasks:
            raise ValueError("at least one task is required")
        if rate <= 0:
            raise ValueError("rate must be positive (requests/second)")
        if burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1 (1 = no bursts)")
        if burst_factor > 1.0 and burst_period <= 0:
            raise ValueError("bursty traffic needs a positive burst_period")
        self.tasks = list(tasks)
        self.rate = rate
        if mix is None:
            self.mix = [1.0 / len(self.tasks)] * len(self.tasks)
        else:
            if len(mix) != len(self.tasks) or any(m < 0 for m in mix) or sum(mix) <= 0:
                raise ValueError("mix must be non-negative weights, one per task")
            total = float(sum(mix))
            self.mix = [m / total for m in mix]
        self.seed = seed
        self.burst_factor = burst_factor
        self.burst_period = burst_period

    # ------------------------------------------------------------- scenarios --
    @classmethod
    def uniform(cls, tasks: Sequence[str], rate: float, seed: int = 0) -> "LoadGenerator":
        """Constant-rate Poisson traffic, all tasks equally likely."""
        return cls(tasks, rate, seed=seed)

    @classmethod
    def skewed(
        cls, tasks: Sequence[str], rate: float, hot_fraction: float = 0.8, seed: int = 0
    ) -> "LoadGenerator":
        """One hot task receives ``hot_fraction`` of the traffic."""
        if not 0.0 < hot_fraction < 1.0:
            raise ValueError("hot_fraction must lie strictly between 0 and 1")
        if len(tasks) == 1:
            return cls(tasks, rate, seed=seed)
        cold = (1.0 - hot_fraction) / (len(tasks) - 1)
        return cls(tasks, rate, mix=[hot_fraction] + [cold] * (len(tasks) - 1), seed=seed)

    @classmethod
    def zipf(
        cls, tasks: Sequence[str], rate: float, alpha: float = 1.1, seed: int = 0
    ) -> "LoadGenerator":
        """Long-tail many-task traffic: task *k* (by list position) weighted
        ``1/(k+1)**alpha``.

        The canonical mix for the 50–200-task coalescing regime: a few tasks
        dominate, but the tail is wide enough that per-task batches of the
        cold tasks close with one or two rows (on a free worker, or on
        ``max_wait`` while all are busy) — exactly the fragmentation
        cross-task coalescing repairs.  Deterministic under a
        fixed ``seed`` like every other scenario.
        """
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        weights = [1.0 / (rank + 1) ** alpha for rank in range(len(tasks))]
        return cls(tasks, rate, mix=weights, seed=seed)

    @classmethod
    def bursty(
        cls,
        tasks: Sequence[str],
        rate: float,
        burst_factor: float = 4.0,
        burst_period: float = 0.2,
        seed: int = 0,
    ) -> "LoadGenerator":
        """On/off traffic: ``burst_period/2`` at ``burst_factor``x the rate,
        then ``burst_period/2`` at ``1/burst_factor``x, repeating."""
        return cls(
            tasks, rate, seed=seed, burst_factor=burst_factor, burst_period=burst_period
        )

    # ----------------------------------------------------------------- trace --
    def _rate_at(self, now: float) -> float:
        if self.burst_factor == 1.0:
            return self.rate
        phase = (now % self.burst_period) / self.burst_period
        return self.rate * (self.burst_factor if phase < 0.5 else 1.0 / self.burst_factor)

    def trace(self, num_requests: int) -> List[Arrival]:
        """A deterministic arrival schedule starting at t=0.

        Repeated calls return the identical trace (the RNG is reseeded), so a
        benchmark can replay the same workload across policies and worker
        counts.
        """
        if num_requests <= 0:
            raise ValueError("num_requests must be positive")
        rng = np.random.default_rng(self.seed)
        arrivals: List[Arrival] = []
        now = 0.0
        for _ in range(num_requests):
            now += float(rng.exponential(1.0 / self._rate_at(now)))
            task = self.tasks[int(rng.choice(len(self.tasks), p=self.mix))]
            arrivals.append(Arrival(now, task))
        return arrivals

    # ---------------------------------------------------------------- replay --
    def replay(
        self,
        runtime: BaseRuntime,
        images: ImageSource,
        num_requests: int,
        time_scale: float = 1.0,
        deadline_slack: Optional[float] = None,
        block: bool = True,
        trace: Optional[Sequence[Arrival]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> List[Optional[ServingResult]]:
        """Submit the trace against ``runtime`` in (scaled) real time.

        ``images`` is either ``{task: (N, C, H, W) pool}`` (requests cycle
        through the pool) or a callable ``(task, request_number) -> image``.
        ``time_scale=0`` submits everything immediately (offline drain);
        ``deadline_slack`` attaches ``arrival + slack`` deadlines.  Rejected
        requests (bounded queue, ``block=False``) yield ``None`` entries.

        All timestamps — pacing and deadlines — are taken on the *runtime's*
        injectable clock, so a test driving a fake clock sees deadlines and
        arrival pacing in the same deterministic time base the runtime
        measures latency in.  ``sleep`` is injectable for the same reason
        (pacing a fake clock should not busy-wait real seconds).
        """
        if time_scale < 0:
            raise ValueError("time_scale must be non-negative")
        clock = runtime.clock
        arrivals = list(trace) if trace is not None else self.trace(num_requests)
        counters: Dict[str, int] = {}
        results: List[Optional[ServingResult]] = []
        start = clock()
        for arrival in arrivals:
            if time_scale > 0:
                delay = start + arrival.time * time_scale - clock()
                if delay > 0:
                    sleep(delay)
            number = counters.get(arrival.task, 0)
            counters[arrival.task] = number + 1
            if callable(images):
                image = images(arrival.task, number)
            else:
                pool = images[arrival.task]
                image = pool[number % len(pool)]
            deadline = (
                clock() + deadline_slack if deadline_slack is not None else None
            )
            try:
                results.append(
                    runtime.submit(arrival.task, image, deadline=deadline, block=block)
                )
            except AdmissionError:
                results.append(None)
        return results
