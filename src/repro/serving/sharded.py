"""Process-sharded serving: one plan, N supervised worker processes, rings.

The thread backend (:class:`~repro.serving.runtime.ServingRuntime`) scales
until the GIL-bound stages — im2col assembly, threshold masking, batch
stacking — saturate one core; the BLAS GEMMs release the GIL but everything
around them serialises.  :class:`ShardedRuntime` removes that ceiling by
running the workers as spawned **processes**:

* **Spawn-safe plan transport** — each worker rebuilds its
  :class:`~repro.engine.EnginePlan` (and any per-task specialized plans) from
  a picklable :class:`~repro.engine.PlanSetSpec` shipped once at startup,
  rather than pickling a live plan; each worker's workspace pool is
  process-local by contract and serves every plan it builds.
* **Shared-memory rings** — per worker, a fixed-slot input ring and output
  ring backed by :class:`multiprocessing.shared_memory.SharedMemory`.  The
  parent writes a micro-batch's images straight into a free input slot and
  sends only a tiny descriptor through the control queue; the worker runs the
  plan and writes logits into the matching output slot.  Activations never
  pass through pickle.
* **Task-affinity routing with work stealing** — a dispatcher thread pulls
  closed micro-batches from the same :class:`~repro.serving.batcher.
  DynamicBatcher` the thread backend uses and routes each batch to its
  task's home shard (stable hash), so a task's weights stay hot in one
  worker's caches; when the home shard is busy and another shard sits idle,
  the idle shard steals the batch instead.
* **Merged accounting** — every worker keeps a private
  :class:`~repro.engine.SparsityRecorder` and ships its snapshot home at
  shutdown; the parent folds them into one recorder, so
  :meth:`~repro.serving.base.BaseRuntime.hardware_report`, the sparsity
  profile and the effective-MAC totals in the final
  :class:`~repro.serving.metrics.ServingReport` cover the whole fleet.

**Supervision.**  Worker processes die — OOM kills, segfaults in native
kernels, machine hiccups — and a serving fleet must absorb that without
dropping accepted work.  A supervisor (a monitor thread ticking every
``heartbeat_interval`` seconds, plus the same logic run opportunistically
from the shutdown path) provides three guarantees:

* **Crash and flatline detection** — every tick polls process liveness *and*
  pings each worker down its ordered command channel.  A worker that is
  alive but silent (hung in a native call, or dropping heartbeats) for
  ``flatline_after`` consecutive ticks is declared flatlined, counted in the
  report, killed and treated as dead.  Detection does not require traffic:
  an idle fleet notices a crashed shard within one heartbeat interval.
* **Re-dispatch with a retry budget** — micro-batches in flight on a dead
  shard are re-queued *whole* (same composition, same immutable plans, so
  re-execution is bit-identical) after an exponential backoff on the
  runtime's injectable clock.  Each request carries ``attempts``/
  ``max_retries``; budget exhaustion fails its future with
  :class:`~repro.serving.request.RetryBudgetExceededError`, an unmeetable
  deadline with :class:`~repro.serving.request.DeadlineExpiredError`.
  Accepted requests therefore either complete with correct logits or fail
  with an explicit fault-attributed error — never silently vanish.
* **Respawn at the current generation** — dead shards are relaunched from
  the picklable specs of the *committed* plan set.  Restarts compose with
  the hot-swap control plane: a shard that dies mid-swap aborts that swap
  fleet-wide (no shard ever serves plans the others do not), and its
  replacement rejoins on whatever generation is committed when it comes up,
  catching up via an ordinary swap message if a commit landed while it was
  booting.

While the fleet is **degraded** (fewer live shards than configured), the
admission gate sheds load instead of queueing blind: with a bounded queue,
the bound tightens proportionally to the live fraction
(:class:`~repro.serving.request.QueueFullError`, counted as ``shed``); with
every shard dead and no restart possible, ``submit`` fails fast with
:class:`~repro.serving.request.NoLiveShardsError` instead of blocking on a
queue nobody will ever drain.

``stop(timeout=...)`` semantics differ from the thread backend in one way:
shared-memory rings cannot outlive the runtime, so when the timeout elapses
with workers still busy the stragglers are **terminated** and their inflight
requests fail, rather than completing in the background.
"""

from __future__ import annotations

import itertools
import os
import signal
import threading
import time
import zlib
from multiprocessing import connection as mp_connection
from multiprocessing import get_context, shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.plan import EnginePlan, WorkspacePool
from repro.engine.planspec import PlanSetSpec
from repro.engine.scheduling import MicroBatch
from repro.engine.stats import SparsityRecorder
from repro.serving.base import BaseRuntime, PlanSet, run_plan_batch
from repro.serving.request import (
    DeadlineExpiredError,
    NoLiveShardsError,
    QueueFullError,
    RequestCancelledError,
    RetryBudgetExceededError,
    ServingRequest,
)

__all__ = ["ShardedRuntime"]


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without registering it for cleanup.

    Before 3.13 (``track=False``), an attaching process registers the segment
    with the resource tracker, which then unlinks it when *this* process
    exits — yanking the ring out from under the parent that owns it (and
    double-unregistering when the parent later unlinks for real).  Ownership
    stays with the parent: it created the segment, it unlinks it, so the
    attach here must leave no tracker record at all.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # 3.13+
    except TypeError:  # pragma: no cover - interpreter-version dependent
        pass
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register

    def _skip_shared_memory(resource_name: str, rtype: str) -> None:
        if rtype != "shared_memory":
            original_register(resource_name, rtype)

    resource_tracker.register = _skip_shared_memory
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def _shard_worker_main(
    worker_id: int,
    set_spec: PlanSetSpec,
    generation: int,
    in_name: str,
    out_name: str,
    in_slot_bytes: int,
    out_slot_bytes: int,
    input_shape: Tuple[int, int, int],
    dtype_name: str,
    channel_tracking: bool,
    chaos: bool,
    task_queue,
    result_conn,
) -> None:
    """Entry point of one spawned shard worker.

    Builds private plans from the shipped specs (fresh kernels, empty
    workspace pool — nothing is inherited from the parent), then serves
    descriptors until the ``None`` sentinel arrives, finally shipping its
    recorder snapshot home.  Control messages ride the same ordered queue as
    the batch descriptors: ``"reset"`` starts a fresh stats window,
    ``("snapshot", token)`` ships a live recorder snapshot home,
    ``("ping", token)`` is answered with a ``("pong", ...)`` heartbeat, and
    ``("swap", generation, set_spec)`` rebuilds the worker's plans in place —
    every descriptor enqueued before the swap has already executed against
    the old plans by the time it is processed, which is the per-shard half of
    the hot-swap ordering guarantee.

    ``generation`` identifies the plan snapshot this worker was built from;
    it rides the readiness ack so a worker respawned while a swap was
    committing can be caught up by the parent.  ``chaos=True`` arms the
    ``("fault", kind, arg)`` hooks used by :mod:`repro.serving.faults`; a
    plain worker ignores fault messages entirely.
    """
    try:
        plan, specialized = set_spec.build_all()
        in_shm = _attach_shm(in_name)
        out_shm = _attach_shm(out_name)
    except Exception as error:  # pragma: no cover - startup failure path
        result_conn.send(("fatal", worker_id, repr(error)))
        return
    dtype = np.dtype(dtype_name)
    pool = WorkspacePool()
    recorder = SparsityRecorder(channel_tracking=channel_tracking)
    #: generation -> (plan, specialized) built but not yet committed.
    pending_swaps: Dict[int, Tuple[EnginePlan, Dict[str, EnginePlan]]] = {}
    # Chaos state (armed only when the fleet was started with chaos=True).
    slow_penalty = 0.0
    drop_pings = False
    result_conn.send(("ready", worker_id, generation))
    try:
        while True:
            message = task_queue.get()
            if message is None:
                break
            if message == "reset":
                # reset_stats() marker: ordered with the batch descriptors,
                # so the worker's window boundary matches dispatch order.
                recorder.reset()
                continue
            if isinstance(message[0], str):
                kind = message[0]
                if kind == "ping":
                    # Heartbeat: ordered behind whatever work is queued, so a
                    # prompt pong proves the command loop is actually turning.
                    if not drop_pings:
                        result_conn.send(("pong", worker_id, message[1]))
                elif kind == "snapshot":
                    result_conn.send(
                        ("snapshot", worker_id, message[1], recorder.snapshot())
                    )
                elif kind == "fault":
                    # Chaos hooks (repro.serving.faults).  Ignored unless the
                    # runtime armed them, so a stray fault message cannot take
                    # down a production worker.
                    _, fault_kind, arg = message
                    if chaos:
                        if fault_kind == "crash":
                            os.kill(os.getpid(), signal.SIGKILL)
                        elif fault_kind == "hang":
                            time.sleep(float(arg or 0.0))
                        elif fault_kind == "slow":
                            slow_penalty = float(arg or 0.0)
                        elif fault_kind == "drop_heartbeats":
                            drop_pings = True
                elif kind == "swap":
                    # Phase 1 of the two-phase swap: build the new plans but
                    # keep serving the old ones.  Installation waits for the
                    # parent's commit, which it only sends once *every* shard
                    # built successfully — a failed build on any shard aborts
                    # the whole fleet's swap, so shards can never disagree on
                    # which plans serve.
                    _, swap_generation, new_set_spec = message
                    try:
                        pending_swaps[swap_generation] = new_set_spec.build_all()
                    except Exception as error:
                        result_conn.send(
                            ("swap_failed", worker_id, swap_generation, repr(error))
                        )
                    else:
                        result_conn.send(("swap_built", worker_id, swap_generation))
                elif kind == "swap_commit":
                    staged = pending_swaps.pop(message[1], None)
                    if staged is not None:
                        plan, specialized = staged
                elif kind == "swap_abort":
                    pending_swaps.pop(message[1], None)
                continue
            # Batch descriptor: ``row_tasks`` is None for classic single-task
            # batches and the per-row task tuple for coalesced ones;
            # ``exec_task`` names the plan that executes (the coalescing
            # group's leader — for non-coalesced batches it equals ``task``).
            slot, task, n, row_tasks, exec_task = message
            images = np.ndarray(
                (n,) + tuple(input_shape),
                dtype=dtype,
                buffer=in_shm.buf,
                offset=slot * in_slot_bytes,
            )
            started = time.perf_counter()
            try:
                exec_plan = specialized.get(exec_task, plan)
                task_plans = None
                if row_tasks is not None and exec_plan is not plan:
                    # Specialized-group batch: the leader's kernels mask with
                    # each member's own compacted thresholds/head.
                    task_plans = {
                        name: specialized.get(name, plan).tasks[name]
                        for name in set(row_tasks)
                    }
                logits = run_plan_batch(
                    exec_plan, plan.dynamic, images, task, recorder, pool,
                    row_tasks=row_tasks, task_plans=task_plans,
                )
            except Exception as error:
                result_conn.send(("error", worker_id, slot, repr(error)))
                continue
            classes = logits.shape[1]
            out = np.ndarray(
                (n, classes), dtype=dtype, buffer=out_shm.buf, offset=slot * out_slot_bytes
            )
            out[:] = logits
            if slow_penalty:
                # Chaos straggler: correct results, pathological latency.
                time.sleep(slow_penalty)
            service = time.perf_counter() - started
            result_conn.send(("done", worker_id, slot, n, classes, service))
    finally:
        try:
            result_conn.send(("stats", worker_id, recorder.snapshot()))
        except (BrokenPipeError, OSError):  # parent already tore down
            pass
        in_shm.close()
        out_shm.close()


class _Shard:
    """Parent-side handle on one worker process and its rings.

    The handle survives its worker: on death the process/queue fields are
    replaced by the respawn path while the shared-memory rings (parent-owned)
    carry over.  ``generation`` is the plan snapshot the *current* worker
    serves, ``restarts`` how many times this slot has been respawned, and
    ``broken`` marks a slot whose replacement failed to boot (no further
    respawn attempts — a deterministic startup failure would loop forever).

    ``result_rx`` is the parent end of this worker's *private* result pipe.
    Results deliberately do not share one queue across the fleet: a
    ``multiprocessing.Queue`` guards its pipe with a shared write lock, and a
    worker SIGKILLed mid-``put`` dies holding it — wedging every surviving
    writer (pongs, readiness acks, results) and turning one crash into a
    fleet-wide hang.  One single-writer pipe per worker means a crash can
    corrupt at most its own channel, which dies with it.
    """

    __slots__ = (
        "index",
        "process",
        "task_queue",
        "result_rx",
        "in_shm",
        "out_shm",
        "free_slots",
        "inflight",
        "last_task",
        "dead",
        "generation",
        "needs_respawn",
        "broken",
        "restarts",
        "missed_pings",
        "ping_outstanding",
    )

    def __init__(self, index: int, ring_slots: int) -> None:
        self.index = index
        self.process = None
        self.task_queue = None
        self.result_rx = None
        self.in_shm: Optional[shared_memory.SharedMemory] = None
        self.out_shm: Optional[shared_memory.SharedMemory] = None
        self.free_slots: List[int] = list(range(ring_slots))
        self.inflight = 0
        self.last_task: Optional[str] = None
        self.dead = False
        self.generation = 0
        self.needs_respawn = False
        self.broken = False
        self.restarts = 0
        self.missed_pings = 0
        self.ping_outstanding: Optional[int] = None


class ShardedRuntime(BaseRuntime):
    """Process-parallel serving over spawn-safe copies of one compiled plan.

    Construction mirrors :class:`~repro.serving.ServingRuntime`; the extra
    knobs are ``mp_context`` (``"spawn"`` by default — the only start method
    that is safe everywhere; ``"fork"``/``"forkserver"`` are accepted where
    the platform offers them), ``ring_slots`` (micro-batches in flight per
    worker before the dispatcher backpressures) and ``start_timeout``
    (seconds to wait for every spawned worker to finish rebuilding its plan).

    Supervision knobs (see the module docstring for semantics):

    * ``heartbeat_interval`` — seconds between supervisor ticks; ``None``
      disables the monitor thread entirely, leaving supervision to explicit
      :meth:`_supervise_once` calls (deterministic tests on a manual clock).
    * ``flatline_after`` — consecutive unanswered-heartbeat ticks before an
      alive-but-silent worker is declared flatlined and replaced.  Its
      product with ``heartbeat_interval`` must exceed the worst-case service
      time of one micro-batch, or a merely slow worker gets shot.
    * ``restart`` / ``max_restarts`` — whether (and how many times in total)
      dead shards are respawned.
    * ``retry_backoff`` — base of the per-request exponential re-dispatch
      backoff (``retry_backoff * 2**(attempts-1)`` seconds on the injectable
      clock).  The per-request budget itself is ``max_retries`` on
      :class:`~repro.serving.base.BaseRuntime`.
    * ``chaos`` — arm the worker-side fault hooks for
      :class:`~repro.serving.faults.FaultInjector` (also armed by the
      ``REPRO_CHAOS=1`` environment variable).  Off by default.
    """

    backend = "process"

    def __init__(
        self,
        plan: EnginePlan,
        *,
        mp_context: str = "spawn",
        ring_slots: int = 4,
        start_timeout: float = 120.0,
        heartbeat_interval: Optional[float] = 0.25,
        flatline_after: int = 8,
        restart: bool = True,
        max_restarts: Optional[int] = None,
        retry_backoff: float = 0.05,
        chaos: bool = False,
        **kwargs,
    ) -> None:
        super().__init__(plan, **kwargs)
        if ring_slots <= 0:
            raise ValueError("ring_slots must be positive")
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive (or None)")
        if flatline_after <= 0:
            raise ValueError("flatline_after must be positive")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        self._mp_context = get_context(mp_context)
        self._ring_slots = ring_slots
        self._start_timeout = start_timeout
        self._heartbeat_interval = heartbeat_interval
        self._flatline_after = flatline_after
        self._restart = restart
        self._max_restarts = max_restarts
        self._retry_backoff = retry_backoff
        self.chaos = bool(chaos) or os.environ.get("REPRO_CHAOS", "") not in ("", "0")
        itemsize = np.dtype(plan.dtype).itemsize
        per_image = int(np.prod(plan.input_shape))
        self._in_slot_bytes = self.micro_batch * per_image * itemsize
        self._max_classes = max(task.num_classes for task in plan.tasks.values())
        self._out_slot_bytes = self.micro_batch * self._max_classes * itemsize
        self._shards: List[_Shard] = []
        self._route_lock = threading.Lock()
        self._slot_freed = threading.Condition(self._route_lock)
        #: (worker_id, slot) -> (micro-batch, dispatch_time, switched).  The
        #: whole batch is kept so a shard death can re-queue it intact.
        self._inflight: Dict[Tuple[int, int], Tuple[MicroBatch, float, bool]] = {}
        #: (due_time, batch) re-dispatch entries, due on the injectable clock.
        self._retry_queue: List[Tuple[float, MicroBatch]] = []
        self._total_restarts = 0
        self._stats_pending: set = set()
        self._collector_done = threading.Event()
        self._dispatcher: Optional[threading.Thread] = None
        self._collector: Optional[threading.Thread] = None
        self._monitor: Optional[threading.Thread] = None
        self._monitor_stop = threading.Event()
        self._supervise_lock = threading.Lock()
        self._stopping = False
        self._ping_tokens = itertools.count(1)
        # Committed plan snapshot in spec form: what a respawned shard is
        # rebuilt from.  Written under the route lock at launch and at swap
        # commit, read under it by the respawn path.
        self._current_set_spec: Optional[PlanSetSpec] = None
        self._current_generation = 0
        # Control-plane state: swap readiness acks and live snapshot probes
        # arriving on the result pipes, keyed by generation/token.
        self._control_cv = threading.Condition()
        self._swap_generations = itertools.count(1)
        self._swap_acks: Dict[int, Dict[int, Optional[str]]] = {}
        self._probe_tokens = itertools.count(1)
        self._probe_results: Dict[int, Dict[int, dict]] = {}

    # --------------------------------------------------------- backend hooks --
    def _launch_workers(self) -> None:
        set_spec = PlanSetSpec.capture(self.plan, self.specialized)
        with self._route_lock:
            self._current_set_spec = set_spec
            self._current_generation = 0
        self._stats_pending = set(range(self.workers))
        for index in range(self.workers):
            shard = _Shard(index, self._ring_slots)
            shard.in_shm = shared_memory.SharedMemory(
                create=True, size=self._ring_slots * self._in_slot_bytes
            )
            shard.out_shm = shared_memory.SharedMemory(
                create=True, size=self._ring_slots * self._out_slot_bytes
            )
            self._shards.append(shard)
            self._spawn_worker(shard, set_spec, 0)
        self._await_ready()
        self._collector = threading.Thread(
            target=self._collector_loop, name="serving-shard-collector", daemon=True
        )
        self._collector.start()
        self._dispatcher = threading.Thread(
            target=self._worker_loop, args=(None,), name="serving-shard-dispatcher", daemon=True
        )
        self._dispatcher.start()
        if self._heartbeat_interval is not None:
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="serving-shard-supervisor", daemon=True
            )
            self._monitor.start()

    def _spawn_worker(self, shard: _Shard, set_spec: PlanSetSpec, generation: int) -> None:
        """(Re)launch ``shard``'s worker process on ``set_spec``.

        The shared-memory rings carry over (parent-owned, still mapped); the
        command queue and the result pipe are always fresh — a dead worker
        may have left half-consumed descriptors in its old queue (stale
        descriptors replayed into a replacement would corrupt the slot
        accounting) and a half-written frame in its old pipe.
        """
        shard.task_queue = self._mp_context.Queue()
        result_rx, result_tx = self._mp_context.Pipe(duplex=False)
        shard.result_rx = result_rx
        shard.process = self._mp_context.Process(
            target=_shard_worker_main,
            name=f"serving-shard-{shard.index}",
            args=(
                shard.index,
                set_spec,
                generation,
                shard.in_shm.name,
                shard.out_shm.name,
                self._in_slot_bytes,
                self._out_slot_bytes,
                tuple(self.plan.input_shape),
                np.dtype(self.plan.dtype).name,
                getattr(self.recorder, "channel_tracking", False),
                self.chaos,
                shard.task_queue,
                result_tx,
            ),
            daemon=True,
        )
        shard.process.start()
        # Close the parent's copy of the send end: once the worker dies, its
        # pipe hits EOF instead of staying silently half-open.
        result_tx.close()

    def _poll_results(self, timeout: float) -> List[tuple]:
        """Drain every readable worker result pipe (at most one message each).

        The fleet's results arrive on per-worker pipes rather than one shared
        queue so that a SIGKILLed worker cannot poison a shared write lock
        for the survivors (see :class:`_Shard`).  A pipe that hits EOF or a
        torn frame — its worker died, possibly mid-``send`` — is retired
        here; the supervisor's reaper handles the death itself via process
        liveness, so nothing else needs to happen on this path.
        """
        with self._route_lock:
            conns = {
                shard.result_rx: shard
                for shard in self._shards
                if shard.result_rx is not None
            }
        if not conns:
            time.sleep(timeout)
            return []
        try:
            readable = mp_connection.wait(list(conns), timeout)
        except OSError:  # a pipe vanished mid-wait (teardown race)
            return []
        messages: List[tuple] = []
        for conn in readable:
            shard = conns[conn]
            try:
                messages.append(conn.recv())
            except (EOFError, OSError):
                with self._route_lock:
                    if shard.result_rx is conn:
                        shard.result_rx = None
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
        return messages

    def _await_ready(self) -> None:
        """Block until every worker rebuilt its plan (so reported throughput
        measures serving, not interpreter spawn + NumPy import time).

        Deliberately wall-clock: this bounds real interpreter spawn time, and
        a manually-clocked runtime must still be able to start.
        """
        deadline = time.monotonic() + self._start_timeout
        waiting = set(range(self.workers))
        while waiting:
            for message in self._poll_results(0.25):
                kind = message[0]
                if kind == "ready":
                    waiting.discard(message[1])
                    self._shards[message[1]].generation = message[2]
                elif kind == "fatal":
                    self._teardown_processes(force=True)
                    raise RuntimeError(
                        f"shard worker {message[1]} failed to start: {message[2]}"
                    )
            for shard in self._shards:
                if shard.index in waiting and not shard.process.is_alive():
                    self._teardown_processes(force=True)
                    raise RuntimeError(
                        f"shard worker {shard.index} died during startup "
                        f"(exitcode {shard.process.exitcode})"
                    )
            if time.monotonic() > deadline:
                self._teardown_processes(force=True)
                raise RuntimeError(
                    f"shard workers not ready within {self._start_timeout}s"
                )

    # ----------------------------------------------------------------- routing --
    def _home_shard(self, task: str) -> int:
        """Stable task→shard affinity (keeps a task's weights cache-hot)."""
        return zlib.crc32(task.encode("utf-8")) % len(self._shards)

    def _pick_shard(self, task: str) -> Optional[_Shard]:
        """Home shard unless it is busy and someone else is idle.  Lock held."""
        live = [shard for shard in self._shards if not shard.dead]
        if not live:
            return None
        home = self._shards[self._home_shard(task)]
        if home.dead:
            # Re-home deterministically among the survivors.
            home = live[self._home_shard(task) % len(live)]
        if home.inflight == 0 and home.free_slots:
            return home
        idle = [shard for shard in live if shard.inflight == 0 and shard.free_slots]
        if idle:
            # Work stealing: the home shard is busy and these are not.
            return idle[0]
        return home

    def live_shards(self) -> int:
        """How many shard workers are currently accepting work."""
        with self._route_lock:
            return sum(1 for shard in self._shards if not shard.dead)

    def _worker_loop(self, state) -> None:
        """Dispatcher loop: like the base pull loop, but it must outlive the
        batcher's drained state while re-dispatch work is still possible.

        ``next_batch`` returns ``None`` once the batcher is closed and empty,
        yet a shard death can re-queue batches *after* that point (from the
        retry queue, or from the in-flight table of the dying shard).  The
        dispatcher therefore only exits when the batcher is drained **and**
        nothing is in flight or awaiting retry.

        Unlike thread workers it does not ask as an idle consumer: it routes
        a batch and returns for the next one at once, so being free says
        nothing about whether any shard is, and open batches keep closing on
        size or ``max_wait``.
        """
        last_task: Optional[str] = None
        while True:
            batch = self._batcher.next_batch(last_task)
            if batch is None:
                with self._route_lock:
                    outstanding = bool(self._inflight) or bool(self._retry_queue)
                if not outstanding:
                    return
                time.sleep(0.01)
                continue
            try:
                self._execute(batch, state, last_task)
            finally:
                self._batcher.task_done()
            # Routing key, not raw task: consecutive batches of one
            # coalescing group share plan state and are not a switch.
            last_task = batch.routing_key

    def _execute(self, batch: MicroBatch, state, last_task: Optional[str]) -> None:
        """Route one closed micro-batch to a shard (dispatcher thread)."""
        requests: List[ServingRequest] = batch.requests  # type: ignore[assignment]
        plans = self.plans
        if batch.group is not None:
            row_tasks: Optional[tuple] = batch.tasks
            try:
                exec_task = plans.group_leader(batch.group)
            except KeyError:  # group map changed under us (swap drains first,
                exec_task = batch.task  # but stay safe): fall back per-task
                row_tasks = None
        else:
            row_tasks = None
            exec_task = batch.task
        with self._route_lock:
            while True:
                shard = self._pick_shard(batch.routing_key)
                if shard is None:
                    break
                if shard.free_slots:
                    slot = shard.free_slots.pop()
                    break
                # Chosen shard's ring is full: wait for the collector to free
                # a slot (or mark a shard dead), then re-route.
                self._slot_freed.wait(0.25)
            if shard is not None and shard.in_shm is not None:
                switched = (
                    shard.last_task is not None and shard.last_task != batch.routing_key
                )
                shard.last_task = batch.routing_key
                shard.inflight += 1
                dispatch_time = self._clock()
                self._inflight[(shard.index, slot)] = (batch, dispatch_time, switched)
                # Ring write under the lock: a timed-out stop() tears rings
                # down under the same lock, so the segment cannot vanish
                # mid-copy.  The copy is one micro-batch — microseconds.
                view = np.ndarray(
                    (len(requests),) + tuple(self.plan.input_shape),
                    dtype=self.plan.dtype,
                    buffer=shard.in_shm.buf,
                    offset=slot * self._in_slot_bytes,
                )
                for row, request in enumerate(requests):
                    view[row] = request.image  # cast to the plan dtype lands in the ring
                del view
                shard.task_queue.put(
                    (slot, batch.task, len(requests), row_tasks, exec_task)
                )
                return
            restartable = self._restart_capacity_locked()
        if restartable:
            # The whole fleet is momentarily dark but a respawn is coming:
            # park the batch in the retry queue (no attempt consumed — it was
            # never dispatched) instead of failing accepted work.
            self._requeue_or_fail(batch, "no live shard worker", dispatched=False)
        else:
            self._fail_batch(
                requests,
                NoLiveShardsError(
                    "no live shard worker to execute the batch and restarts "
                    "are disabled or exhausted"
                ),
            )

    # ----------------------------------------------------------- fault handling --
    def _restart_capacity_locked(self) -> bool:
        """Whether any future respawn is possible.  Route lock held."""
        if self._stopping or not self._restart:
            return False
        if self._max_restarts is not None and self._total_restarts >= self._max_restarts:
            return False
        return any(not shard.broken for shard in self._shards)

    def _handle_shard_death(self, shard: _Shard, cause: str) -> None:
        """Mark ``shard`` dead and re-dispatch (or fail) its in-flight work."""
        with self._route_lock:
            if shard.dead:
                return
            shard.dead = True
            shard.needs_respawn = True
            shard.missed_pings = 0
            shard.ping_outstanding = None
            stranded = [key for key in self._inflight if key[0] == shard.index]
            batches = [self._inflight.pop(key) for key in stranded]
            # Wake the dispatcher's slot wait and any drain loop: routing
            # decisions that included this shard are stale now.
            self._slot_freed.notify_all()
        self._stats_pending.discard(shard.index)
        # Once the dispatcher is gone nobody can execute a retry, so late
        # deaths during shutdown fail their work instead of parking it.
        retryable = not (
            self._stopping
            and (self._dispatcher is None or not self._dispatcher.is_alive())
        )
        reason = f"shard worker {shard.index} {cause}"
        for batch, _, _ in batches:
            if retryable:
                self._requeue_or_fail(batch, reason)
            else:
                self._fail_batch(batch.requests, RuntimeError(reason))

    def _requeue_or_fail(self, batch: MicroBatch, cause: str, dispatched: bool = True) -> None:
        """Re-queue ``batch`` after a failed dispatch, enforcing the budget.

        ``dispatched=True`` charges one attempt against every member request
        (the batch actually reached a shard that then died); ``False`` means
        the fleet was dark and no dispatch happened, so only the deadline can
        fail a request here.  Survivors are re-queued **as one batch** with
        the original composition — the property that makes re-execution
        bit-identical — and become due after an exponential backoff on the
        runtime's injectable clock.  Requests over budget fail with
        :class:`RetryBudgetExceededError`, requests whose deadline cannot be
        met even by the earliest retry with :class:`DeadlineExpiredError`.
        """
        now = self._clock()
        survivors: List[ServingRequest] = []
        over_budget: List[ServingRequest] = []
        expired: List[ServingRequest] = []
        for request in batch.requests:
            if dispatched:
                request.attempts += 1
            delay = self._retry_backoff * (2 ** max(0, request.attempts - 1))
            if request.attempts > request.max_retries:
                over_budget.append(request)
            elif request.deadline is not None and now + delay >= request.deadline:
                expired.append(request)
            else:
                survivors.append(request)
        if over_budget:
            attempts = over_budget[0].attempts
            self._fail_batch(
                over_budget,
                RetryBudgetExceededError(
                    f"request failed on {attempts} dispatch attempt(s) "
                    f"(max_retries={over_budget[0].max_retries}): {cause}"
                ),
            )
        if expired:
            self._fail_batch(
                expired,
                DeadlineExpiredError(
                    f"deadline unreachable by the earliest possible retry: {cause}"
                ),
            )
        if survivors:
            delay = self._retry_backoff * (2 ** max(0, survivors[0].attempts - 1))
            retry = (
                batch
                if len(survivors) == len(batch.requests)
                else MicroBatch(batch.task, survivors, batch.seq)
            )
            with self._route_lock:
                self._retry_queue.append((now + delay, retry))
            if dispatched:
                self.metrics.observe_redispatch(len(survivors))

    def _pump_retries(self, force: bool = False) -> None:
        """Move due retry-queue entries back into the batcher.

        The batcher is re-entered outside the route lock (its own lock
        suffices and the dispatcher takes the two in the opposite order).
        ``force=True`` ignores the backoff — used by drains, where finishing
        beats pacing.
        """
        now = self._clock()
        due: List[MicroBatch] = []
        with self._route_lock:
            keep: List[Tuple[float, MicroBatch]] = []
            for due_at, batch in self._retry_queue:
                if force or due_at <= now:
                    due.append(batch)
                else:
                    keep.append((due_at, batch))
            self._retry_queue = keep
        for batch in due:
            self._batcher.requeue_batch(batch)

    def _fail_retry_queue(self, error: BaseException) -> None:
        """Permanently fail everything still awaiting re-dispatch."""
        with self._route_lock:
            parked = [batch for _, batch in self._retry_queue]
            self._retry_queue = []
        for batch in parked:
            self._fail_batch(batch.requests, error)

    def _respawn_dead_shards(self) -> None:
        """Relaunch every dead shard at the committed plan generation."""
        for shard in self._shards:
            with self._route_lock:
                if not (shard.dead and shard.needs_respawn and not shard.broken):
                    continue
                if not self._restart_capacity_locked():
                    continue
                shard.needs_respawn = False
                shard.restarts += 1
                self._total_restarts += 1
                set_spec = self._current_set_spec
                generation = self._current_generation
            if shard.process is not None:
                shard.process.join(timeout=1.0)
            if shard.task_queue is not None:
                # The old queue may hold descriptors the dead worker never
                # consumed; they were already re-dispatched, so the queue is
                # garbage — release its feeder thread without flushing.
                shard.task_queue.cancel_join_thread()
                shard.task_queue.close()
                shard.task_queue = None
            self._spawn_worker(shard, set_spec, generation)
            self.metrics.observe_restart()
            self.stream.record_event(
                "restart", detail=f"shard {shard.index} respawned (restart #{shard.restarts})"
            )
            # The shard stays dead (unroutable) until its readiness ack
            # arrives on its result pipe; the collector reactivates it.

    def _monitor_loop(self) -> None:
        while not self._monitor_stop.wait(self._heartbeat_interval):
            self._supervise_once()

    def _supervise_once(self) -> None:
        """One supervisor tick: reap, heartbeat, re-dispatch, respawn.

        Runs from the monitor thread every ``heartbeat_interval`` seconds and
        opportunistically from the shutdown path; with
        ``heartbeat_interval=None`` tests drive it explicitly, which makes
        every fault-tolerance state transition single-steppable on a manual
        clock.  Serialised by its own lock so overlapping callers cannot
        double-handle one death.
        """
        with self._supervise_lock:
            if not self._started:
                return
            # 1. Reap crashed workers — needs no traffic, so an idle fleet
            #    notices a dead shard within one tick.
            for shard in self._shards:
                if shard.dead or shard.process is None:
                    continue
                if not shard.process.is_alive():
                    self._handle_shard_death(
                        shard, f"died (exitcode {shard.process.exitcode})"
                    )
            # 2. Heartbeats: one outstanding ping per shard; a worker that
            #    answers nothing for flatline_after consecutive ticks is
            #    alive-but-gone (hung syscall, dropped heartbeats) and gets
            #    killed so the crash path above takes over cleanly.
            if not self._stopping:
                for shard in self._shards:
                    flatlined = False
                    with self._route_lock:
                        if shard.dead or shard.task_queue is None:
                            continue
                        if shard.ping_outstanding is not None:
                            shard.missed_pings += 1
                            flatlined = shard.missed_pings >= self._flatline_after
                        else:
                            token = next(self._ping_tokens)
                            shard.ping_outstanding = token
                            shard.task_queue.put(("ping", token))
                    if flatlined:
                        self.metrics.observe_flatline()
                        missed = shard.missed_pings
                        self.stream.record_event(
                            "flatline",
                            detail=f"shard {shard.index}: {missed} unanswered heartbeats",
                            value=float(missed),
                        )
                        if shard.process is not None and shard.process.is_alive():
                            shard.process.kill()
                            shard.process.join(5.0)
                        self._handle_shard_death(
                            shard, f"flatlined ({missed} unanswered heartbeats)"
                        )
            # 3. Re-dispatch retries whose backoff elapsed.
            self._pump_retries()
            # 4. Replace the fallen.
            if not self._stopping:
                self._respawn_dead_shards()

    # ----------------------------------------------------------- admission gate --
    def _admission_gate(self, block: bool) -> None:
        """Degradation-aware admission (runs inside :meth:`submit`).

        A fleet with zero live shards and no possible respawn fails fast —
        blocking a submitter on a queue nobody will drain converts a worker
        fault into a client hang.  A *degraded* fleet with a bounded queue
        tightens the bound to the live fraction of capacity and sheds the
        excess: the queue the operator sized for N workers would otherwise
        quietly become an N×-deep latency bomb in front of the survivors.
        """
        if not self._started or self._stopped:
            return
        with self._route_lock:
            live = sum(1 for shard in self._shards if not shard.dead)
            restartable = self._restart_capacity_locked()
            total = len(self._shards)
        if live == 0 and not restartable:
            raise NoLiveShardsError(
                "no live shards: every worker is dead and restarts are "
                "disabled or exhausted"
            )
        if live < total and self._batcher.max_pending:
            bound = max(1, self._batcher.max_pending * live // total)
            if self._batcher.pending() >= bound:
                self.metrics.observe_shed()
                raise QueueFullError(
                    f"degraded fleet ({live}/{total} shards live): shedding "
                    f"load beyond {bound} pending requests"
                )

    def shard_depths(self) -> Dict[int, int]:
        """Instantaneous in-flight micro-batches per shard (gauge).

        Dead shards report ``-1`` so a scrape distinguishes "idle" from
        "down" — the respawn path flips them back once the readiness ack
        lands.
        """
        if not self._started:
            return {}
        with self._route_lock:
            return {
                shard.index: (-1 if shard.dead else shard.inflight)
                for shard in self._shards
            }

    # --------------------------------------------------------------- collector --
    def _collector_loop(self) -> None:
        # The loop must survive a fully-dead fleet (stats_pending empty) so
        # it can process the readiness acks of respawned workers; it only
        # exits once shutdown began *and* every worker's final stats arrived.
        while self._stats_pending or not self._stopping:
            messages = self._poll_results(0.25)
            if not messages:
                if self._stopping:
                    # The monitor is (or is about to be) gone: drop the stats
                    # expectation of workers that died without reporting, or
                    # this loop never meets its exit condition.
                    for shard in self._shards:
                        if (
                            shard.index in self._stats_pending
                            and not shard.dead
                            and shard.process is not None
                            and not shard.process.is_alive()
                        ):
                            self._handle_shard_death(
                                shard, f"died (exitcode {shard.process.exitcode})"
                            )
                continue
            for message in messages:
                self._handle_result(message)
        self._collector_done.set()

    def _handle_result(self, message: tuple) -> None:
        kind = message[0]
        if kind == "done":
            _, worker_id, slot, n, classes, service = message
            self._finish_batch(worker_id, slot, n, classes, service)
        elif kind == "error":
            _, worker_id, slot, error_repr = message
            self._abort_batch(worker_id, slot, RuntimeError(error_repr))
        elif kind == "pong":
            _, worker_id, token = message
            with self._route_lock:
                shard = self._shards[worker_id]
                if not shard.dead and shard.ping_outstanding == token:
                    shard.ping_outstanding = None
                    shard.missed_pings = 0
        elif kind == "ready":
            self._reactivate_shard(message[1], message[2])
        elif kind == "fatal":
            # A *respawned* worker failed to boot (startup fatals during
            # launch are consumed by _await_ready).  Deterministic boot
            # failures would respawn-loop forever, so the slot is retired.
            with self._route_lock:
                self._shards[message[1]].broken = True
            self._stats_pending.discard(message[1])
        elif kind == "stats":
            _, worker_id, snapshot = message
            self.recorder.merge_snapshot(snapshot)
            self._stats_pending.discard(worker_id)
        elif kind in ("swap_built", "swap_failed"):
            _, worker_id, generation = message[:3]
            failure = message[3] if kind == "swap_failed" else None
            with self._control_cv:
                # Only record acks someone is still waiting for: a reply
                # landing after the waiter's timeout cleanup must not
                # recreate (and permanently leak) the entry.
                acks = self._swap_acks.get(generation)
                if acks is not None:
                    acks[worker_id] = failure
                    self._control_cv.notify_all()
        elif kind == "snapshot":
            _, worker_id, token, snapshot = message
            with self._control_cv:
                results = self._probe_results.get(token)
                if results is not None:
                    results[worker_id] = snapshot
                    self._control_cv.notify_all()

    def _reactivate_shard(self, worker_id: int, generation: int) -> None:
        """A respawned worker came up: route to it again (collector thread).

        If a swap committed while the worker was booting, its plans are one
        or more generations stale; an ordinary swap + immediate commit down
        its (empty) command queue catches it up before any batch descriptor
        can be enqueued behind them — the dispatcher only sees the shard as
        routable after this method flips ``dead`` under the route lock.
        """
        shard = self._shards[worker_id]
        if self._stopping:
            # Too late to serve: let it drain straight to its stats message.
            with self._route_lock:
                queue = shard.task_queue
            if queue is not None:
                self._stats_pending.add(worker_id)
                try:
                    queue.put(None)
                except (ValueError, OSError):  # closed by a racing teardown
                    self._stats_pending.discard(worker_id)
            return
        with self._route_lock:
            shard.generation = generation
            if generation != self._current_generation:
                shard.task_queue.put(
                    ("swap", self._current_generation, self._current_set_spec)
                )
                shard.task_queue.put(("swap_commit", self._current_generation))
                shard.generation = self._current_generation
            shard.free_slots = list(range(self._ring_slots))
            shard.inflight = 0
            shard.last_task = None
            shard.missed_pings = 0
            shard.ping_outstanding = None
            shard.dead = False
            self._stats_pending.add(worker_id)
            self._slot_freed.notify_all()

    def _finish_batch(self, worker_id: int, slot: int, n: int, classes: int, service: float) -> None:
        shard = self._shards[worker_id]
        finish = self._clock()
        # The ring read happens under the route lock so a timed-out stop()
        # cannot unlink the segment mid-copy (teardown takes the same lock).
        with self._route_lock:
            entry = self._inflight.pop((worker_id, slot), None)
            if entry is None or shard.out_shm is None:
                return  # already failed/re-dispatched by the supervisor
            batch, dispatch_time, switched = entry
            out = np.ndarray(
                (n, classes),
                dtype=self.plan.dtype,
                buffer=shard.out_shm.buf,
                offset=slot * self._out_slot_bytes,
            )
            logits = np.array(out)  # copy out before the slot is recycled
            shard.free_slots.append(slot)
            shard.inflight -= 1
            self._slot_freed.notify_all()
        start = max(dispatch_time, finish - service)
        per_task: Optional[Dict[str, int]] = None
        if batch.mixed:
            per_task = {}
            for name in batch.tasks:
                per_task[name] = per_task.get(name, 0) + 1
        self._complete_batch(
            batch.requests,
            logits,
            batch.task,
            start,
            finish,
            switched=switched,
            shard=worker_id,
            per_task=per_task,
        )

    def _abort_batch(self, worker_id: int, slot: int, error: BaseException) -> None:
        shard = self._shards[worker_id]
        with self._route_lock:
            entry = self._inflight.pop((worker_id, slot), None)
            if entry is None:
                return
            batch, _, _ = entry
            shard.free_slots.append(slot)
            shard.inflight -= 1
            self._slot_freed.notify_all()
        # An execution error is not a fault: the worker is healthy and the
        # same batch would fail the same way again, so no retry.
        self._fail_batch(batch.requests, error)

    # ------------------------------------------------------------ control plane --
    def _wait_control(self, predicate, timeout: Optional[float], describe):
        """Wait on the control condition until ``predicate()`` returns non-None.

        The single deadline-arithmetic loop behind every control-plane
        acknowledgement wait (swap acks, stats probes).  ``predicate`` runs
        under the condition lock and may raise to abort the wait;
        ``describe()`` renders the :class:`TimeoutError` message.

        The give-up deadline runs on the runtime's injectable clock; the
        individual waits stay wall-clock chunked (they are woken by acks,
        not by time) and re-check the deadline at least every 0.25 s.
        """
        give_up = None if timeout is None else self._clock() + timeout
        with self._control_cv:
            while True:
                result = predicate()
                if result is not None:
                    return result
                remaining = None if give_up is None else give_up - self._clock()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(describe())
                self._control_cv.wait(
                    0.25 if remaining is None else min(0.25, remaining)
                )

    def _validate_swap(self, plans: PlanSet) -> None:
        """Input/dtype checks plus the ring-geometry bound of this backend."""
        super()._validate_swap(plans)
        widest = max(task.num_classes for task in plans.plan.tasks.values())
        if widest > self._max_classes:
            raise ValueError(
                f"cannot swap: task head width {widest} exceeds the output-ring "
                f"slot geometry ({self._max_classes} classes) this fleet was "
                "sized for at start()"
            )

    def _drain_in_flight(self, timeout: Optional[float]) -> None:
        """Wait until every dispatched *and parked* batch has come home.

        Called with intake paused and the batcher quiescent, so no new
        request can appear; the collector empties :attr:`_inflight` as the
        workers finish against the old plans.  Batches parked for re-dispatch
        are admitted work too — they are pumped immediately (finishing the
        drain beats honouring backoff) and must complete before the cutover.

        The give-up deadline runs on the runtime's injectable clock so the
        swap timeout it serves stays in one clock domain end to end.
        """
        give_up = None if timeout is None else self._clock() + timeout
        while True:
            self._pump_retries(force=True)
            with self._route_lock:
                if not self._inflight and not self._retry_queue:
                    return
                if (
                    all(shard.dead for shard in self._shards)
                    and not self._restart_capacity_locked()
                ):
                    return  # teardown already failed everything in flight
                remaining = None if give_up is None else give_up - self._clock()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"in-flight batches did not drain within {timeout}s; "
                        "the old plans are still serving"
                    )
                self._slot_freed.wait(0.25 if remaining is None else min(0.25, remaining))

    def _apply_swap(self, plans: PlanSet, timeout: Optional[float]) -> None:
        """Two-phase cutover: every shard builds, then all commit — or none.

        Phase 1 ships the rebuild specs down each shard's ordered command
        channel (processed strictly after every batch descriptor enqueued
        before it — the queues are empty anyway after
        :meth:`_drain_in_flight`); workers build the new plans but keep
        serving the old ones, acking success or failure.  Only when **every**
        live shard has built does the parent send the commit and update its
        own plan set; on any build failure, ack timeout, or a target shard
        **dying mid-swap** it sends an abort instead and raises, so the fleet
        can never split between old and new plans — shards agree with each
        other and with the intake side in every outcome.  A shard whose death
        aborted the swap is respawned by the supervisor on the *committed*
        (old) generation, exactly like any other crash; a shard that comes
        up while a later swap is committing is caught up by the post-commit
        generation scan below.
        """
        generation = next(self._swap_generations)
        set_spec = PlanSetSpec.capture(plans.plan, plans.specialized)
        with self._control_cv:
            # Registered before the first message can be answered; the
            # collector drops acks for generations nobody waits on.
            self._swap_acks[generation] = {}
        with self._route_lock:
            targets = [shard for shard in self._shards if not shard.dead]
            for shard in targets:
                shard.task_queue.put(("swap", generation, set_spec))
        if not targets:
            self._swap_acks.pop(generation, None)
            raise RuntimeError("no live shard worker to swap plans on")

        def abort() -> None:
            with self._route_lock:
                for shard in targets:
                    if not shard.dead and shard.task_queue is not None:
                        shard.task_queue.put(("swap_abort", generation))

        still_waiting: List[int] = []

        def all_built():
            acks = self._swap_acks.get(generation, {})
            failures = {
                worker: error for worker, error in acks.items() if error is not None
            }
            if failures:
                raise RuntimeError(
                    "plan swap failed in shard worker(s) "
                    + ", ".join(f"{w}: {e}" for w, e in sorted(failures.items()))
                    + " — the swap was aborted fleet-wide; the old plans "
                    "keep serving everywhere"
                )
            lost = [
                shard.index
                for shard in targets
                if shard.index not in acks
                and (
                    shard.dead
                    or shard.process is None
                    or not shard.process.is_alive()
                )
            ]
            if lost:
                raise RuntimeError(
                    f"shard worker(s) {lost} died mid-swap — the swap was "
                    "aborted fleet-wide; the old plans keep serving "
                    "everywhere and the replacement rejoins on the committed "
                    "generation"
                )
            still_waiting[:] = [
                shard.index for shard in targets if shard.index not in acks
            ]
            return True if not still_waiting else None

        try:
            self._wait_control(
                all_built,
                timeout,
                lambda: (
                    f"shard workers {still_waiting} did not acknowledge the swap "
                    f"within {timeout}s — the swap was aborted fleet-wide; "
                    "the old plans keep serving everywhere"
                ),
            )
        except BaseException:
            abort()
            raise
        finally:
            self._swap_acks.pop(generation, None)
        # Phase 2: every shard is staged; commit messages are ordered before
        # any batch descriptor dispatched after intake resumes, so a request
        # admitted against the new plan set always executes on it.  The
        # committed snapshot becomes what respawns rebuild from, and any
        # shard that reactivated mid-swap (not in targets) is caught up here
        # before the dispatcher can route to it with stale plans.
        with self._route_lock:
            for shard in targets:
                if not shard.dead and shard.task_queue is not None:
                    shard.task_queue.put(("swap_commit", generation))
                    shard.generation = generation
            self._plans = plans
            self._current_set_spec = set_spec
            self._current_generation = generation
            for shard in self._shards:
                if (
                    not shard.dead
                    and shard.task_queue is not None
                    and shard.generation != generation
                ):
                    shard.task_queue.put(("swap", generation, set_spec))
                    shard.task_queue.put(("swap_commit", generation))
                    shard.generation = generation

    def current_recorder(self, timeout: float = 30.0) -> SparsityRecorder:
        """A merged live view of every worker's recorder plus the parent's own.

        Sends a snapshot probe down each shard's ordered command channel and
        folds the replies (plus whatever the parent recorder already merged
        from dead workers) into a **fresh** recorder — the parent's recorder
        itself is left untouched, so the final merge at ``stop()`` cannot
        double count.
        """
        if not self._started or self._stopped:
            return self.recorder
        token = next(self._probe_tokens)
        with self._control_cv:
            # Registered before the first probe can be answered; the
            # collector drops replies for tokens nobody waits on.
            self._probe_results[token] = {}
        with self._route_lock:
            targets = [shard for shard in self._shards if not shard.dead]
            for shard in targets:
                shard.task_queue.put(("snapshot", token))
        merged = SparsityRecorder(
            channel_tracking=getattr(self.recorder, "channel_tracking", False)
        )
        merged.merge_snapshot(self.recorder.snapshot())
        still_waiting: List[int] = []

        def all_answered():
            results = self._probe_results.get(token, {})
            still_waiting[:] = [
                shard.index
                for shard in targets
                if shard.index not in results
                and not shard.dead
                and shard.process is not None
                and shard.process.is_alive()
            ]
            return dict(results) if not still_waiting else None

        try:
            results = self._wait_control(
                all_answered,
                timeout,
                lambda: f"shard workers {still_waiting} did not answer the stats probe",
            )
        finally:
            self._probe_results.pop(token, None)
        for snapshot in results.values():
            merged.merge_snapshot(snapshot)
        return merged

    # ----------------------------------------------------------------- stats --
    def reset_stats(self) -> None:
        """Start a fresh measurement window across the whole fleet.

        Clears the parent's metrics/recorder and sends each worker a reset
        marker through its control queue, so worker-side recorders (merged
        into the parent at ``stop()``) drop everything dispatched before the
        reset.  The marker is ordered with the batch descriptors: batches
        dispatched before the reset land in the old window even if they are
        still executing when this returns — the same in-progress blur the
        thread backend's reset has.
        """
        super().reset_stats()
        if self._started and not self._stopped:
            with self._route_lock:
                for shard in self._shards:
                    if not shard.dead and shard.task_queue is not None:
                        shard.task_queue.put("reset")

    # ---------------------------------------------------------------- shutdown --
    def _join_workers(self, drain: bool, timeout: Optional[float]) -> None:
        # Deliberately wall-clock: teardown must stay bounded even when the
        # runtime's injectable clock is a ManualClock nobody advances.
        give_up = None if timeout is None else time.monotonic() + timeout

        def remaining(default: Optional[float] = None) -> Optional[float]:
            if give_up is None:
                return default
            return max(0.0, give_up - time.monotonic())

        # 0. No more respawns: a worker spawned during shutdown would race
        #    the teardown for its rings.  Re-dispatch keeps working while the
        #    dispatcher drains — accepted requests still complete on the
        #    surviving shards.
        self._stopping = True
        if not drain:
            self._fail_retry_queue(
                RequestCancelledError("request cancelled by stop(drain=False)")
            )
        # 1. The dispatcher drains the batcher (closed by stop()) plus any
        #    re-queued batches, then exits.  Supervision keeps ticking
        #    underneath it even when the monitor thread is disabled.
        if self._dispatcher is not None:
            while self._dispatcher.is_alive():
                wait = remaining()
                if wait is not None and wait <= 0:
                    break
                self._supervise_once()
                self._dispatcher.join(0.05)
        self._monitor_stop.set()
        if self._monitor is not None:
            self._monitor.join(remaining(5.0))
        # Nothing can execute a retry any more.
        self._fail_retry_queue(
            RequestCancelledError("request undeliverable: runtime stopped")
            if not drain
            else NoLiveShardsError(
                "request could not be re-dispatched before the runtime stopped"
            )
        )
        # 2. Sentinels let each worker finish its queue, report stats, exit.
        #    Every queue gets one — including shards still flagged dead: a
        #    respawn that is mid-boot when stop() lands has a live process
        #    waiting on a fresh queue, and its readiness ack may arrive after
        #    the collector already drained the last tracked stats snapshot.
        #    Without a parked sentinel that worker would block on its queue
        #    forever and the join below would never return.
        with self._route_lock:
            for shard in self._shards:
                if shard.task_queue is not None:
                    try:
                        shard.task_queue.put(None)
                    except (ValueError, OSError):  # racing teardown closed it
                        pass
        # 3. The collector exits once every worker's stats snapshot arrived.
        self._collector_done.wait(remaining())
        stragglers = [
            shard
            for shard in self._shards
            if shard.process is not None and shard.process.is_alive()
        ]
        # By now every tracked worker has exited (its stats arrived); anything
        # still alive is mid-exit or a booting respawn draining to its parked
        # sentinel — both bounded, so cap the wait and let the forced teardown
        # below terminate a worker that is truly wedged.
        for shard in stragglers:
            shard.process.join(remaining(30.0))
        self._teardown_processes(force=True)
        if self._collector is not None:
            self._collector.join(remaining(1.0))

    def _teardown_processes(self, force: bool) -> None:
        """Terminate stragglers, fail their futures, release the rings.

        Marks every shard dead under the route lock and wakes the
        dispatcher's slot-wait loop: after a timed-out ``stop()`` the
        dispatcher may still be blocked waiting for a free slot, and it must
        observe a fleet with no live shard so the batch it is holding (and
        everything still queued) fails fast instead of hanging its futures.
        """
        self._stopping = True
        self._monitor_stop.set()
        for shard in self._shards:
            if shard.process is not None and shard.process.is_alive():
                if not force:
                    continue
                shard.process.terminate()
                shard.process.join(5.0)
            with self._route_lock:
                shard.dead = True
                shard.needs_respawn = False
                stranded = [key for key in self._inflight if key[0] == shard.index]
                batches = [self._inflight.pop(key) for key in stranded]
                for shm in (shard.in_shm, shard.out_shm):
                    if shm is None:
                        continue
                    try:
                        shm.close()
                        shm.unlink()
                    except FileNotFoundError:  # pragma: no cover - already gone
                        pass
                shard.in_shm = shard.out_shm = None
                self._slot_freed.notify_all()
            for batch, _, _ in batches:
                self._fail_batch(
                    batch.requests,
                    RuntimeError(f"shard worker {shard.index} terminated at stop()"),
                )
            if shard.task_queue is not None:
                shard.task_queue.close()
                shard.task_queue = None
            if shard.result_rx is not None:
                try:
                    shard.result_rx.close()
                except OSError:  # pragma: no cover - already closed
                    pass
                shard.result_rx = None
        self._fail_retry_queue(
            RequestCancelledError("request undeliverable: runtime torn down")
        )
        self._stats_pending = set()
        self._collector_done.set()
