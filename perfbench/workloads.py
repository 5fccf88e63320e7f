"""The five workloads, their seeded inputs, set-up, and the two drivers.

Every workload is: set-up (repeated, timed) -> untimed warm-up -> timed window
-> untimed output check.  Engine workloads drain jobs through
``MultiTaskEngine``; serving workloads push requests from one generator thread
(the caller's) into a serving runtime.  Nothing here reaches into a private
attribute of ``repro``: layers are measured by timing their public calls.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine import (
    ChannelSurvivalRecorder,
    KernelTimingCache,
    MultiTaskEngine,
    PlanSetSpec,
    SparsityRecorder,
    WorkspacePool,
    apply_kernel_choices,
    autotune_kernel_variants,
    compile_network,
    get_policy,
    specialize_tasks,
)
from repro.mime import MimeNetwork, add_structured_sparsity_task
from repro.models import extract_layer_shapes, vgg_small, vgg_tiny
from repro.serving import (
    AdmissionError,
    DynamicBatcher,
    LoadGenerator,
    ServingRequest,
    ServingResult,
    ServingRuntime,
    ShardedRuntime,
    percentile,
    run_plan_batch,
)

from perfbench.check import pick_sample
from perfbench.trace import TracedPlan, Tracer, kernel_breakdown, overhead_share

#: A submit slower than this waited for queue space or a swap; the bookkeeping
#: of an unblocked submit takes ~20 us.
BLOCKED_SUBMIT_S = 1e-3
#: serve_poisson is invalid when the generator's own lateness p99 exceeds this.
MAX_LAG_P99_S = 5e-3
#: Bounds on every wait, so a hung runtime fails the workload instead of hanging it.
RESULT_TIMEOUT_S = 30.0
SWAP_TIMEOUT_S = 30.0
#: Micro-batches of the traced window replayed offline to split service time.
REPLAY_BATCHES = 64


@dataclass(frozen=True)
class Workload:
    """One traffic mix; the *why* of each lives in BENCHMARK.json."""

    name: str
    kind: str  # "engine" or "serve"
    tasks: int = 3
    dead_fraction: float = 0.0
    specialize: bool = False
    backend: str = "thread"
    workers: int = 1
    coalesce: bool = False
    max_wait: float = 0.005
    max_pending: int = 0  # 0 = unbounded
    zipf: bool = False
    rate: Optional[float] = None  # open-loop requests/s; None = closed loop
    swap_every: Optional[float] = None
    slo_ms: Optional[float] = None


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("engine_dense", "engine"),
        Workload("engine_specialized", "engine", dead_fraction=0.65, specialize=True),
        # 700 req/s is about half of what one worker sustains.  The issue's
        # 1000 (two thirds) leaves the queue so little headroom that the host's
        # own slow phases push it towards saturation: interleaved runs spread
        # 8.5 % (p50) and 21 % (p95) at 1000 against 2.3 % and 9 % at 700, and
        # one set of ten at 1000 read p50 from 8.6 to 238 ms.
        Workload("serve_poisson", "serve", rate=700.0, slo_ms=15.0),
        Workload(
            "serve_manytask", "serve", tasks=100, dead_fraction=0.3, coalesce=True,
            max_wait=0.02, max_pending=32, zipf=True,
        ),
        Workload(
            "serve_process_swap", "serve", backend="process", workers=2,
            max_pending=32, swap_every=0.5,
        ),
    )
}


@dataclass(frozen=True)
class Scale:
    """Model and sizes: the reference scale, or the seconds-scale smoke one."""

    smoke: bool = False

    @property
    def input_size(self) -> int:
        return 16 if self.smoke else 32

    @property
    def micro_batch(self) -> int:
        return 8 if self.smoke else 16

    @property
    def pool_images(self) -> int:
        return 32 if self.smoke else 128

    @property
    def job_images(self) -> int:
        """Images per task in one engine job (two micro-batches per task)."""
        return 2 * self.micro_batch

    @property
    def warmup_seconds(self) -> float:
        """Untimed run of the workload's own traffic before the window: the
        process backend needs ~1.5 s before its workers have allocated their
        workspaces for every batch size and seen a first swap."""
        return 0.3 if self.smoke else 2.0

    @property
    def setup_repeats(self) -> int:
        return 2 if self.smoke else 3

    @property
    def model(self) -> str:
        return f"{'vgg_tiny' if self.smoke else 'vgg_small'}@{self.input_size}"


@dataclass
class Live:
    """What one set-up produced."""

    network: MimeNetwork
    plan: object
    specialized: Dict[str, object]
    timings: Dict[str, float]
    engine: Optional[MultiTaskEngine] = None
    runtime: Optional[object] = None

    def kernel_choices(self) -> Dict[str, Dict[str, str]]:
        plans = self.specialized or {"dense": self.plan}
        return {name: dict(plan.kernel_choices or {}) for name, plan in plans.items()}


@dataclass
class Window:
    """One timed window: completed work, failures, and raw per-layer material."""

    origin: float
    wall: float
    records: List[Tuple[float, float, int]]  # (due, finish, images)
    attempted: int
    failed: int
    sample: List[Tuple[str, int, np.ndarray]]  # (task, pool index, logits)
    valid: bool = True
    layers: Dict[str, float] = field(default_factory=dict)
    trace_hash: str = ""


# --------------------------------------------------------------------------
# Seeded inputs and set-up.
# --------------------------------------------------------------------------
def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


#: Threshold no pre-activation reaches: the channel never fires for the task.
DEAD_THRESHOLD = 1e9


def build_network(workload: Workload, scale: Scale, seed: int) -> MimeNetwork:
    """Seeded backbone plus ``workload.tasks`` tasks with structured sparsity.

    As ``add_structured_sparsity_task`` does, except that each masked layer
    loses *exactly* ``round(dead_fraction x channels)`` channels (which ones
    is seeded) instead of a binomial draw: the MACs a specialized plan keeps
    are then the same for every seed, so seeds vary the data, not the amount
    of work, and throughput compares across seeds.
    """
    rng = _rng(seed, 0)
    factory = vgg_tiny if scale.smoke else vgg_small
    backbone = factory(num_classes=8, input_size=scale.input_size, in_channels=3, rng=rng)
    network = MimeNetwork(backbone)
    network.eval()
    for index in range(workload.tasks):
        # Equal head widths, so every dense task shares one coalescing group.
        task = add_structured_sparsity_task(
            network, f"task{index:03d}", num_classes=10, rng=rng,
            dead_fraction=0.0, threshold_jitter=0.2,
        )
        for thresholds in task.thresholds:
            channels = thresholds.data.shape[0]
            dead = rng.permutation(channels)[: round(workload.dead_fraction * channels)]
            thresholds.data[dead] = DEAD_THRESHOLD
    return network


def image_pool(scale: Scale, seed: int) -> np.ndarray:
    shape = (scale.pool_images, 3, scale.input_size, scale.input_size)
    return _rng(seed, 1).normal(size=shape).astype(np.float32)


def build_plans(workload: Workload, scale: Scale, network, pool) -> Tuple[object, dict, dict]:
    """compile -> (calibrate -> specialize) -> autotune, each step timed.

    The chooser gets a fresh timing cache: the process-wide one would make a
    second set-up in this process a pure replay and ``setup_s`` a function of
    what ran before.
    """
    timings: Dict[str, float] = {}
    cache = KernelTimingCache()

    def timed(key: str, start: float) -> float:
        now = time.perf_counter()
        timings[key] = now - start
        return now

    mark = time.perf_counter()
    plan = compile_network(network, dtype=np.float32)
    mark = timed("compile_s", mark)
    specialized: Dict[str, object] = {}
    if workload.specialize:
        # Calibrate on the very images the workload serves: a channel that
        # never fires on them is then dead for every request, which is what
        # lets the output check hold specialized plans to the dense reference.
        survival = ChannelSurvivalRecorder()
        for name in plan.task_names():
            for start in range(0, len(pool), 32):
                plan.run(pool[start : start + 32], name, recorder=survival)
        profile = survival.to_profile()
        mark = timed("calibrate_s", mark)
        specialized = specialize_tasks(plan, profile=profile)
        mark = timed("specialize_s", mark)
        for spec in specialized.values():
            autotune_kernel_variants(spec, batch=scale.micro_batch, cache=cache)
    else:
        autotune_kernel_variants(plan, batch=scale.micro_batch, cache=cache)
    timed("autotune_s", mark)
    return plan, specialized, timings


def reference_plan(live: Live):
    """Untuned, unspecialized plan of the same seeded network (the check's oracle)."""
    return compile_network(live.network, dtype=np.float32)


# --------------------------------------------------------------------------
# Drivers.
# --------------------------------------------------------------------------
class Driver:
    """Shared set-up; subclasses add tear_down(), measure() and finish()."""

    def __init__(self, workload: Workload, scale: Scale, seed: int) -> None:
        self.workload = workload
        self.scale = scale
        self.seed = seed
        self.pool = image_pool(scale, seed)
        self.live: Optional[Live] = None

    def set_up(self) -> Dict[str, float]:
        """One full, timed set-up; returns its per-step timings."""
        start = time.perf_counter()
        network = build_network(self.workload, self.scale, self.seed)
        plan, specialized, timings = build_plans(self.workload, self.scale, network, self.pool)
        self.live = Live(network, plan, specialized, timings)
        self._bring_up(self.live)
        timings["setup_s"] = time.perf_counter() - start
        return timings

    def warm_up(self) -> None:
        """Untimed run of the workload's own traffic; its results are dropped."""
        self.measure(self.scale.warmup_seconds)

    def plan_set_metrics(self) -> Dict[str, float]:
        """engine.planspec: what a spawn or swap ships, from the public API."""
        live = self.live
        start = time.perf_counter()
        spec = PlanSetSpec.capture(live.plan, live.specialized)
        captured = time.perf_counter()
        blob = pickle.dumps(spec)
        pickled = time.perf_counter()
        pickle.loads(blob).build_all()  # bytes this process wrote a line above
        built = time.perf_counter()
        return {
            "engine.planspec.capture_ms": 1e3 * (captured - start),
            "engine.planspec.pickle_bytes": len(blob),
            "engine.planspec.build_ms": 1e3 * (built - pickled),
        }


class EngineDriver(Driver):
    """Offline drains: jobs of ``job_images`` per task through ``run_pending``."""

    def _bring_up(self, live: Live) -> None:
        live.engine = MultiTaskEngine(
            live.plan, micro_batch=self.scale.micro_batch, specialized=live.specialized
        )

    def tear_down(self):
        self.live = None

    def _submit_job(self, engine, job: int) -> None:
        size = self.scale.job_images
        start = (job * size) % len(self.pool)
        for name in self.live.plan.task_names():
            engine.submit(name, self.pool[start : start + size])

    def _jobs(self, engine, seconds: float, tracer: Optional[Tracer] = None, untraced=None):
        """Run back-to-back jobs until ``seconds`` have passed (at least one).

        With ``untraced`` (the same plans in an engine without proxies) every
        traced job is followed by the same job untraced; the wall times of
        those are returned too, and are no part of the window's records.
        """
        records, kept, untraced_walls = [], [], []
        origin = now = time.perf_counter()
        job = 0
        while not records or now - origin < seconds:
            if tracer is not None:
                tracer.begin("job", "engine.engine", job)
            self._submit_job(engine, job)
            outputs, stats = engine.run_pending("pipelined")
            if tracer is not None:
                tracer.end()
            finish = time.perf_counter()
            records.append((now, finish, len(outputs)))
            kept.append((job, outputs))
            if untraced is not None:
                self._submit_job(untraced, job)
                untraced.run_pending("pipelined")
                untraced_walls.append(time.perf_counter() - finish)
            now = time.perf_counter()
            job += 1
        return origin, records, kept, stats, untraced_walls

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> Window:
        live = self.live
        engine = live.engine
        if tracer is not None:
            engine = MultiTaskEngine(
                TracedPlan(live.plan, tracer),
                micro_batch=self.scale.micro_batch,
                specialized={
                    name: TracedPlan(plan, tracer) for name, plan in live.specialized.items()
                },
            )
            # One untimed job, so every traced job starts from the same last
            # task (and counts the same task switches) as a steady-state one.
            self._jobs(engine, seconds=0.0)
            tracer.spans.clear()
        engine.reset_stats()
        origin, records, kept, stats, untraced_walls = self._jobs(
            engine, seconds, tracer, untraced=live.engine if tracer is not None else None)
        wall = records[-1][1] - origin
        images = sum(record[2] for record in records)
        window = Window(origin, wall, records, attempted=images, failed=0,
                        sample=self._sample(kept))
        if tracer is not None:
            window.trace_hash = tracer.skeleton_hash(0)
            window.layers = self._layer_metrics(engine, tracer, window, stats)
            window.layers["perfbench.trace_overhead_share"] = overhead_share(
                [finish - start for start, finish, _ in records], untraced_walls)
        return window

    def _sample(self, kept) -> List[Tuple[str, int, np.ndarray]]:
        names = self.live.plan.task_names()
        per_task = self.scale.job_images
        per_job = per_task * len(names)
        slices = len(self.pool) // per_task
        sample = []
        for position in pick_sample(len(kept) * per_job):
            job, outputs = kept[position // per_job]
            row = position % per_job
            index = (job % slices) * per_task + row % per_task
            sample.append((names[row // per_task], index, outputs[row]))
        return sample

    def _layer_metrics(self, engine, tracer, window, stats) -> Dict[str, float]:
        by_layer = tracer.self_time_by_layer()
        jobs = len(window.records)
        job_wall = sum(finish - start for start, finish, _ in window.records)
        layers = {
            **kernel_metrics(tracer, engine.recorder, window.attempted, jobs * stats.num_batches),
            **hardware_metrics(engine, self.live.network),
            "engine.engine.sched_overhead_share": by_layer["engine.engine"] / job_wall,
            "engine.engine.micro_batches_per_job": stats.num_batches,
            "engine.engine.task_switches_per_job": stats.task_switches,
            "engine.stats.dense_macs_per_image": stats.dense_macs / stats.num_images,
            "engine.stats.effective_macs_per_image": stats.effective_macs / stats.num_images,
            # Share of the traced jobs' wall time that kernel self time, run
            # overhead and scheduling overhead together account for.
            "perfbench.span_coverage_share": sum(by_layer.values()) / job_wall,
        }
        if self.live.specialized:
            layers["engine.specialize.mac_reduction"] = float(
                np.mean([plan.mac_reduction() for plan in self.live.specialized.values()])
            )
        return layers

    def finish(self) -> Dict[str, float]:
        return {}


class ServingDriver(Driver):
    """Online serving: one generator thread, open or closed loop."""

    def __init__(self, workload: Workload, scale: Scale, seed: int) -> None:
        super().__init__(workload, scale, seed)
        names = [f"task{index:03d}" for index in range(workload.tasks)]
        make = LoadGenerator.zipf if workload.zipf else LoadGenerator.uniform
        mix = make(names, rate=workload.rate or 1.0).mix  # the repo's own task mix
        self.names = names
        self.task_draws = _rng(seed, 2).choice(len(names), size=1 << 16, p=mix)
        self.cursor = 0
        self.windows = 0
        #: Every request admitted since start(), and the generator position
        #: (hence pool image) behind each runtime request index.
        self.futures: List[ServingResult] = []
        self.position_of: Dict[int, int] = {}
        self.cpus = sorted(os.sched_getaffinity(0))
        self.swap_every = workload.swap_every
        if self.swap_every and scale.smoke:
            self.swap_every = 0.2

    # ------------------------------------------------------------- lifecycle --
    def _bring_up(self, live: Live) -> None:
        workload = self.workload
        options = dict(
            policy="fifo-deadline", micro_batch=self.scale.micro_batch,
            max_wait=workload.max_wait, workers=workload.workers,
            max_pending=workload.max_pending, coalesce=workload.coalesce,
        )
        if workload.backend == "process":
            live.runtime = ShardedRuntime(live.plan, **options)
        else:
            live.runtime = ServingRuntime(live.plan, **options)
        start = time.perf_counter()
        # Threads inherit their creator's CPU mask: the runtime's threads get
        # every CPU but the first, then the generator (this thread) takes the
        # first.  Left to the scheduler the two end up sharing a CPU in some
        # runs and not in others — its wake-affine placement is sticky — and
        # serve_poisson's p95 reads 10 ms or 12.5 ms accordingly.  Worker
        # *processes* would inherit the mask too, so they are left unplaced.
        place = workload.backend == "thread" and len(self.cpus) >= 2
        if place:
            os.sched_setaffinity(0, set(self.cpus[1:]))
        live.runtime.start()
        if place:
            os.sched_setaffinity(0, {self.cpus[0]})
        live.timings["spawn_s"] = time.perf_counter() - start
        self.futures = []
        self.position_of = {}

    def tear_down(self):
        """Stop the runtime (drained) and return its final report."""
        live, self.live = self.live, None
        if live is None or live.runtime is None:
            return None
        return live.runtime.stop(drain=True, timeout=RESULT_TIMEOUT_S)

    def warm_up(self) -> None:
        """One micro-batch of every size, then the workload's own traffic.

        A worker keeps one set of workspaces per batch size it has run, and
        which sizes a timer-closed batch takes in a window is chance:
        ``peak_rss_mb`` on serve_poisson read 166-197 MB by that alone.  A
        burst of ``rows`` requests for one task, sent well inside ``max_wait``,
        closes as one batch of that size.  (A swap replaces the plan and its
        workspaces, so serve_process_swap regrows them either way.)
        """
        for rows in range(1, self.scale.micro_batch + 1):
            burst = []
            for _ in range(rows):
                burst.append((self._submit(self.cursor, self.names[0]),))
                self.cursor += 1
            self._wait(burst)
        super().warm_up()

    # ------------------------------------------------------------- generator --
    def _submit(self, position: int, task: Optional[str] = None):
        if task is None:
            task = self.names[self.task_draws[position % len(self.task_draws)]]
        try:
            future = self.live.runtime.submit(
                task, self.pool[position % len(self.pool)], timeout=RESULT_TIMEOUT_S
            )
        except AdmissionError:
            return None
        self.futures.append(future)
        self.position_of[future.index] = position
        return future

    def _send_closed(self, seconds: float):
        """One client: the next request leaves when the previous was admitted."""
        clock = time.monotonic
        sent = []  # (position, due, sent_at, admitted_at, future)
        now = clock()
        end = now + seconds
        while now < end:
            position = self.cursor
            self.cursor += 1
            future = self._submit(position)
            admitted = clock()
            sent.append((position, now, now, admitted, future))
            now = admitted
        return sent

    def _send_open(self, offsets: Sequence[float]):
        """Open loop: each request leaves at its due time, or late, never early."""
        clock = time.monotonic
        sent = []
        origin = clock()
        for offset in offsets:
            due = origin + offset
            while True:
                now = clock()
                if now >= due:
                    break
                time.sleep(due - now)
            position = self.cursor
            self.cursor += 1
            future = self._submit(position)
            sent.append((position, due, now, clock(), future))
        return sent

    def _wait(self, sent) -> int:
        """Wait for every future; returns how many were refused, failed or timed out."""
        failed = 0
        give_up = time.monotonic() + RESULT_TIMEOUT_S  # for the whole set, not each
        for *_, future in sent:
            if future is None:
                failed += 1
                continue
            try:
                future.result(timeout=max(0.0, give_up - time.monotonic()))
            except Exception:  # noqa: BLE001 - any failure of a request is a failed request
                failed += 1
        return failed

    def _swapper(self, stop: threading.Event, durations: List[float], errors: List[str]) -> None:
        """Control thread: hot-swap to a re-compiled identical plan on a period."""
        live = self.live
        while not stop.wait(self.swap_every):
            plan = compile_network(live.network, dtype=np.float32)
            apply_kernel_choices(plan, live.plan.kernel_choices)
            start = time.perf_counter()
            try:
                live.runtime.swap(plan, timeout=SWAP_TIMEOUT_S)
            except Exception as error:  # noqa: BLE001 - thread boundary: report, don't die
                errors.append(repr(error))
            else:
                durations.append(time.perf_counter() - start)

    # --------------------------------------------------------------- measure --
    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> Window:
        workload = self.workload
        durations: List[float] = []
        errors: List[str] = []
        stop = threading.Event()
        swapper = None
        if self.swap_every:
            swapper = threading.Thread(
                target=self._swapper, args=(stop, durations, errors), name="perfbench-swapper"
            )
            swapper.start()
        self.windows += 1
        try:
            origin = time.monotonic()
            if workload.rate is not None:
                # A Poisson process conditioned on its count: the count is
                # fixed at rate x seconds, the arrival times are sorted uniforms.
                count = max(1, round(workload.rate * seconds))
                offsets = np.sort(_rng(self.seed, 3 + self.windows).uniform(0, seconds, count))
                sent = self._send_open(offsets.tolist())
            else:
                sent = self._send_closed(seconds)
        finally:
            stop.set()
            if swapper is not None:
                swapper.join(SWAP_TIMEOUT_S + 5.0)
        failed = self._wait(sent) + len(errors)
        done = [row for row in sent if row[4] is not None and row[4].finish_time is not None]
        records = [(row[1], row[4].finish_time, 1) for row in done]
        wall = max(record[1] for record in records) - origin
        sample = [
            (done[i][4].task, done[i][0] % len(self.pool), done[i][4].result(timeout=0))
            for i in pick_sample(len(done))
        ]
        window = Window(origin, wall, records, attempted=len(sent) + len(durations) + len(errors),
                        failed=failed, sample=sample)
        lags = [row[2] - row[1] for row in sent]
        if workload.rate is not None and _lag_p99(lags) > MAX_LAG_P99_S:
            window.valid = False
        if tracer is not None:
            window.trace_hash = hashlib.sha256(self.task_draws.tobytes()).hexdigest()
            window.layers = self._layer_metrics(window, sent, done, lags, durations, tracer)
        return window

    # ------------------------------------------------------- layer metrics --
    def _layer_metrics(self, window, sent, done, lags, swaps, tracer) -> Dict[str, float]:
        workload = self.workload
        sharded = workload.backend == "process"
        service_layer = "serving.sharded" if sharded else "serving.runtime"
        futures = [row[4] for row in done]
        latency = [row[4].finish_time - row[1] for row in done]
        queue = [future.start_time - future.arrival_time for future in futures]
        submit = [row[3] - row[2] for row in sent]
        batches = recover_batches(futures)
        rows = [len(batch) for batch in batches]
        service = [batch[0].finish_time - batch[0].start_time for batch in batches]
        for row in done:
            position, due, _, _, future = row
            root = tracer.add("request", "serving.metrics", due, future.finish_time, -1, position)
            tracer.add("admit", "serving.base", due, future.arrival_time, root, position)
            tracer.add("queue", "serving.batcher", future.arrival_time, future.start_time,
                       root, position)
            tracer.add("service", service_layer, future.start_time, future.finish_time,
                       root, position)
        for index, batch in enumerate(batches):
            tracer.add("batch", service_layer, batch[0].start_time, batch[0].finish_time,
                       -1, index)
        layers = {
            "serving.loadgen.offered_per_s": len(sent) / (sent[-1][2] - window.origin),
            "serving.loadgen.lag_p50_us": 1e6 * percentile(lags, 50),
            "serving.loadgen.lag_p99_us": 1e6 * _lag_p99(lags),
            "serving.base.submit_us_p50": 1e6 * percentile(submit, 50),
            "serving.base.submit_blocked_share": sum(s > BLOCKED_SUBMIT_S for s in submit)
            / len(submit),
            "serving.batcher.queue_wait_p50_ms": 1e3 * percentile(queue, 50),
            "serving.batcher.queue_wait_p95_ms": 1e3 * percentile(queue, 95),
            "serving.batcher.mean_batch_rows": float(np.mean(rows)),
            "serving.batcher.full_batch_share": sum(
                r == self.scale.micro_batch for r in rows) / len(rows),
            "serving.batcher.tasks_per_batch": float(
                np.mean([len({future.task for future in batch}) for batch in batches])),
            "serving.batcher.ops_us": self._batcher_ops_us(),
            f"{service_layer}.service_p50_ms": 1e3 * percentile(service, 50),
            f"{service_layer}.worker_busy_share": sum(service)
            / (window.wall * workload.workers),
            "serving.metrics.latency_p99_ms": 1e3 * percentile(latency, 99),
            "serving.metrics.latency_p999_ms": 1e3 * percentile(latency, 99.9),
            "serving.metrics.latency_samples": len(latency),
            # Nothing is recorded while a serving window runs: its spans are
            # built afterwards from the futures' timestamps, so the traced
            # window executes exactly what the untraced one does.
            "perfbench.trace_overhead_share": 0.0,
        }
        if workload.slo_ms is not None:
            layers["serving.metrics.slo_share"] = sum(
                1e3 * value <= workload.slo_ms for value in latency) / len(sent)
        if swaps:
            layers["serving.sharded.swap_p50_ms"] = 1e3 * percentile(swaps, 50)
            layers["serving.sharded.swap_max_ms"] = 1e3 * max(swaps)
            layers["serving.sharded.swaps"] = len(swaps)
        layers.update(self._replay(batches, tracer))
        return layers

    def _batcher_ops_us(self, requests: int = 4096) -> float:
        """Bare ``DynamicBatcher``: one submit plus its share of a next_batch."""
        batcher = DynamicBatcher(
            self.scale.micro_batch, self.workload.max_wait, get_policy("fifo-deadline")
        )
        names = self.names[: min(len(self.names), 4)]
        pending = [
            ServingRequest(i, names[i % len(names)], self.pool[0], 0.0, None,
                           ServingResult(i, names[i % len(names)], 0.0))
            for i in range(requests)
        ]
        start = time.perf_counter()
        for request in pending:
            batcher.submit(request)
        batcher.flush()
        while batcher.pending():
            batcher.next_batch()
            batcher.task_done()
        return 1e6 * (time.perf_counter() - start) / requests

    def _replay(self, batches, tracer: Tracer) -> Dict[str, float]:
        """Re-run sampled micro-batches offline: same rows, same plan.

        Gives what the online numbers cannot show from outside: how much of a
        batch's service time is kernels, and how online service compares with
        the bare ``run_plan_batch`` of the same rows.  The replayed logits
        must equal the served ones bit for bit (the repo's same-rows
        contract); a difference is a wrong output.
        """
        plan = self.live.plan
        replayed = Tracer()
        traced = TracedPlan(plan, replayed)
        pool = WorkspacePool()
        scratch, recorder = SparsityRecorder(), SparsityRecorder()
        picked = [batches[i] for i in pick_sample(len(batches), REPLAY_BATCHES)]
        online = offline = mixed_wall = 0.0
        mixed_rows = mismatched = 0
        for index, batch in enumerate(picked):
            tasks = [future.task for future in batch]
            images = np.stack([self.pool[self.position_of[future.index] % len(self.pool)]
                               for future in batch])
            row_tasks = tasks if len(set(tasks)) > 1 else None
            args = (None, images, tasks[0], scratch, pool)
            run_plan_batch(plan, *args, row_tasks=row_tasks)  # allocate this batch size
            start = time.perf_counter()
            logits = run_plan_batch(plan, *args, row_tasks=row_tasks)
            wall = time.perf_counter() - start
            replayed.begin("replay", "perfbench", index)
            run_plan_batch(traced, None, images, tasks[0], recorder, pool, row_tasks=row_tasks)
            replayed.end()
            online += batch[0].finish_time - batch[0].start_time
            offline += wall
            if row_tasks is not None:
                mixed_wall += wall
                mixed_rows += len(batch)
            served = np.stack([future.result(timeout=0) for future in batch])
            mismatched += int((served != logits).any(axis=1).sum())
        tracer.extend(replayed)
        rows = sum(len(batch) for batch in picked)
        layers = kernel_metrics(replayed, recorder, rows, len(picked))
        layers["perfbench.replay_mismatch"] = mismatched
        if self.workload.backend == "thread":
            layers["serving.runtime.service_vs_replay_x"] = online / offline
        if mixed_rows:
            layers["engine.plan.run_mixed_us_per_image"] = 1e6 * mixed_wall / mixed_rows
        return layers

    def finish(self) -> Dict[str, float]:
        """Stop the runtime and read what only the final report knows."""
        live = self.live
        runtime = live.runtime
        completed = sum(1 for future in self.futures if future.finish_time is not None)
        plans = runtime.plans
        shared = plans.plan_bytes(shared_only=True)
        report = self.tear_down()
        start = time.perf_counter()
        runtime.report()
        report_ms = 1e3 * (time.perf_counter() - start)
        layers = {
            **hardware_metrics(runtime, live.network),
            "serving.base.rejected": report.rejected,
            "serving.base.errors": report.errors,
            "serving.base.planset_shared_bytes": shared,
            "serving.base.per_task_bytes": (plans.plan_bytes() - shared)
            / len(plans.task_names()),
            "serving.metrics.report_ms": report_ms,
            "serving.metrics.report_mismatch": report.completed - completed,
            "engine.stats.dense_macs_per_image": report.dense_macs / report.completed,
            "engine.stats.effective_macs_per_image": report.effective_macs / report.completed,
            "perfbench.batch_recovery_gap": len(recover_batches(
                [future for future in self.futures if future.finish_time is not None]))
            - report.num_batches,
        }
        if self.workload.backend == "process":
            shares = list(report.per_shard.values())
            layers.update({
                "serving.sharded.spawn_s": live.timings["spawn_s"],
                "serving.sharded.shard_imbalance": max(shares) / (sum(shares) / len(shares)),
                "serving.sharded.restarts": report.restarts,
                "serving.sharded.redispatched": report.redispatched,
            })
        return layers


def kernel_metrics(tracer: Tracer, recorder, images: int, batches: int) -> Dict[str, float]:
    """engine.kernels and engine.plan self times of a traced kernel walk.

    MACs and bytes are the ones ``variant_totals`` *computed* for the calls
    the recorder saw, divided by the kernel time the tracer measured.
    """
    kernels = kernel_breakdown(tracer)
    totals = recorder.variant_totals().values()
    metrics = {
        f"engine.kernels.{kind}_us_per_image": 1e6 * kernels[kind] / images
        for kind in ("conv", "linear", "pool", "other")
    }
    metrics.update({
        "engine.kernels.top_kernel_share": kernels["top_share"],
        "engine.kernels.calls_per_image": kernels["calls"] / images,
        "engine.kernels.gflops": 2e-9 * sum(t["macs"] for t in totals) / kernels["total"],
        "engine.kernels.gbytes_per_s": 1e-9 * sum(t["bytes"] for t in totals) / kernels["total"],
        "engine.plan.run_overhead_us_per_batch":
            1e6 * tracer.self_time_by_layer()["engine.plan"] / batches,
    })
    return metrics


def hardware_metrics(measured, network) -> Dict[str, float]:
    """Systolic-array estimate of what ``measured`` (engine or runtime) ran."""
    shapes = extract_layer_shapes(network.backbone)
    start = time.perf_counter()
    report = measured.hardware_report(shapes, conv_only=True)
    host = time.perf_counter() - start
    images = measured.recorder.num_images()
    return {
        "hardware.sim_host_ms": 1e3 * host,
        "hardware.sim_energy_per_image": report.total_energy().total / images,
        "hardware.sim_cycles_per_image": report.total_cycles() / images,
    }


def _lag_p99(lags: Sequence[float], chunks: int = 10) -> float:
    """Generator lateness p99: median over consecutive chunks, so that one host
    stall does not invalidate a run that offered the stated load otherwise."""
    size = max(1, len(lags) // chunks)
    return statistics.median(
        percentile(lags[start : start + size], 99) for start in range(0, len(lags), size)
    )


def recover_batches(futures: Sequence[ServingResult]) -> List[List[ServingResult]]:
    """Micro-batches as executed, recovered from future timestamps alone.

    Every request of a batch gets the batch's own ``(start, finish)`` pair,
    so grouping on it reproduces the batches; rows come back in admission
    order, which is the order the worker stacked them in.
    """
    groups: Dict[Tuple[float, float], List[ServingResult]] = defaultdict(list)
    for future in futures:
        groups[(future.start_time, future.finish_time)].append(future)
    return [sorted(group, key=lambda future: future.index) for group in groups.values()]


def make_driver(name: str, smoke: bool, seed: int) -> Driver:
    workload = WORKLOADS[name]
    cls = EngineDriver if workload.kind == "engine" else ServingDriver
    return cls(workload, Scale(smoke), seed)
