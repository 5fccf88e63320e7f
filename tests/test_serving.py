"""The online serving runtime: batching, workers, backpressure, metrics.

The acceptance property is exercised directly: a multi-worker
:class:`ServingRuntime` must produce **bit-identical** logits to the offline
:class:`MultiTaskEngine` for the same request set, because both execute the
same micro-batch compositions through the same immutable plan — only the
workspace pools differ.
"""

from __future__ import annotations

import gc
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.engine import MultiTaskEngine, SparsityRecorder, compile_network
from repro.mime import MimeNetwork
from repro.models import extract_layer_shapes, vgg_tiny
from repro.serving import (
    LoadGenerator,
    ManualClock,
    QueueFullError,
    RequestCancelledError,
    RuntimeClosedError,
    ServingResult,
    ServingRuntime,
    ShardedRuntime,
)

TASK_NAMES = ("alpha", "beta", "gamma")


@pytest.fixture(scope="module")
def served():
    backbone = vgg_tiny(num_classes=6, input_size=16, in_channels=3,
                        rng=np.random.default_rng(0))
    network = MimeNetwork(backbone)
    network.eval()
    jitter = np.random.default_rng(99)
    for name in TASK_NAMES:
        task = network.add_task(name, 5, rng=jitter)
        for param in task.thresholds:
            param.data += jitter.uniform(0.0, 0.15, size=param.data.shape)
    plan = compile_network(network, dtype=np.float32)
    return network, backbone, plan


def mixed_stream(seed: int, count: int):
    rng = np.random.default_rng(seed)
    order = np.random.default_rng(seed + 1)
    return [
        (TASK_NAMES[int(order.integers(0, len(TASK_NAMES)))], rng.normal(size=(3, 16, 16)))
        for _ in range(count)
    ]


# ------------------------------------------------------------- equivalence ----
@pytest.mark.parametrize("workers", [2, 4])
def test_runtime_is_bit_identical_to_offline_engine(served, workers):
    _, _, plan = served
    stream = mixed_stream(3, 30)

    engine = MultiTaskEngine(plan, micro_batch=4)
    runtime = ServingRuntime(plan, policy="fifo-deadline", micro_batch=4,
                             max_wait=5.0, workers=workers)
    futures = []
    for task, image in stream:
        engine.submit(task, image)
        futures.append(runtime.submit(task, image))
    offline, _ = engine.run_pending(mode="fifo-deadline")
    runtime.start()
    report = runtime.stop(drain=True)

    assert report.completed == len(stream)
    for future, reference in zip(futures, offline):
        np.testing.assert_array_equal(future.result(timeout=5.0), reference)


def test_futures_resolve_with_correct_shapes_and_timestamps(served):
    _, _, plan = served
    with ServingRuntime(plan, micro_batch=4, max_wait=0.005, workers=2) as runtime:
        future = runtime.submit("beta", np.zeros((3, 16, 16)))
        logits = future.result(timeout=10.0)
    assert logits.shape == (5,)
    assert future.done()
    assert future.latency is not None and future.latency >= 0.0
    assert future.queue_wait is not None and 0.0 <= future.queue_wait <= future.latency
    assert future.start_time <= future.finish_time


def test_partial_batch_closes_on_max_wait(served):
    _, _, plan = served
    clock = ManualClock()
    # One request, micro_batch far larger: only the max-wait timer can close
    # it.  On the fake clock the batch *cannot* close until time is advanced
    # past max_wait, and once it executes every timestamp is deterministic.
    with ServingRuntime(
        plan, micro_batch=64, max_wait=0.05, workers=1, clock=clock
    ) as runtime:
        future = runtime.submit("alpha", np.zeros((3, 16, 16)))
        assert not future.done(), "batch closed although fake time never advanced"
        clock.advance(0.06)
        future.result(timeout=10.0)
    assert future.queue_wait == pytest.approx(0.06), (
        "batch must close exactly when the advanced clock passed max_wait"
    )
    assert future.latency == pytest.approx(0.06)
    assert future.queue_wait >= 0.05, "batch closed before the max-wait deadline"


# ------------------------------------------------------------ admission -------
def test_bounded_queue_rejects_when_full(served):
    _, _, plan = served
    runtime = ServingRuntime(plan, micro_batch=4, max_wait=10.0, workers=1, max_pending=3)
    # Workers not started: nothing drains the queue.
    for _ in range(3):
        runtime.submit("alpha", np.zeros((3, 16, 16)))
    with pytest.raises(QueueFullError):
        runtime.submit("alpha", np.zeros((3, 16, 16)), block=False)
    with pytest.raises(QueueFullError):
        runtime.submit("alpha", np.zeros((3, 16, 16)), block=True, timeout=0.05)
    assert runtime.report().rejected == 2
    runtime.start()
    report = runtime.stop(drain=True)
    assert report.completed == 3


def test_blocking_submit_waits_for_capacity(served):
    _, _, plan = served
    runtime = ServingRuntime(plan, micro_batch=2, max_wait=0.005, workers=1, max_pending=2)
    runtime.start()
    futures = [runtime.submit("alpha", np.zeros((3, 16, 16)), block=True, timeout=10.0)
               for _ in range(8)]
    report = runtime.stop(drain=True)
    assert report.completed == 8
    assert all(future.done() for future in futures)


def test_submit_validates_task_and_shape(served):
    _, _, plan = served
    runtime = ServingRuntime(plan, workers=1)
    with pytest.raises(KeyError):
        runtime.submit("nope", np.zeros((3, 16, 16)))
    with pytest.raises(ValueError):
        runtime.submit("alpha", np.zeros((3, 8, 8)))
    runtime.start()
    runtime.stop()


# ------------------------------------------------------------- lifecycle ------
def test_stop_without_drain_cancels_pending(served):
    _, _, plan = served
    runtime = ServingRuntime(plan, micro_batch=8, max_wait=10.0, workers=1)
    futures = [runtime.submit("alpha", np.zeros((3, 16, 16))) for _ in range(3)]
    # Never started: stop(drain=False) must cancel everything queued.
    report = runtime.stop(drain=False)
    assert report.cancelled == 3
    for future in futures:
        with pytest.raises(RequestCancelledError):
            future.result(timeout=1.0)


def test_stop_on_never_started_runtime_cancels_even_with_drain(served):
    _, _, plan = served
    runtime = ServingRuntime(plan, micro_batch=8, max_wait=10.0, workers=1)
    future = runtime.submit("alpha", np.zeros((3, 16, 16)))
    # No worker ever existed, so drain=True cannot complete the request;
    # it must be cancelled rather than stranding the future forever.
    report = runtime.stop(drain=True)
    assert report.cancelled == 1
    with pytest.raises(RequestCancelledError):
        future.result(timeout=1.0)


def test_submit_after_stop_is_refused(served):
    _, _, plan = served
    runtime = ServingRuntime(plan, workers=1)
    runtime.start()
    runtime.stop(drain=True)
    with pytest.raises(RuntimeClosedError):
        runtime.submit("alpha", np.zeros((3, 16, 16)))
    with pytest.raises(RuntimeClosedError):
        runtime.start()
    # Shutdown refusals are not capacity signals: the rejected counter only
    # tracks bounded-queue overload.
    assert runtime.report().rejected == 0


def test_reset_stats_starts_a_fresh_window(served):
    _, _, plan = served
    runtime = ServingRuntime(plan, micro_batch=4, max_wait=0.005, workers=2)
    runtime.start()
    first = [runtime.submit("alpha", np.zeros((3, 16, 16))) for _ in range(6)]
    for future in first:
        future.result(timeout=30.0)
    assert runtime.report().completed == 6
    assert runtime.recorder.num_images() == 6

    runtime.reset_stats()
    assert runtime.report().completed == 0
    assert runtime.recorder.num_images() == 0

    second = [runtime.submit("beta", np.zeros((3, 16, 16))) for _ in range(4)]
    for future in second:
        future.result(timeout=30.0)
    runtime.stop(drain=True)
    report = runtime.report()
    assert report.completed == 4
    assert report.per_task == {"beta": 4}
    assert runtime.recorder.num_images() == 4


def test_constructor_validation(served):
    _, _, plan = served
    with pytest.raises(ValueError):
        ServingRuntime(plan, workers=0)
    with pytest.raises(ValueError):
        ServingRuntime(plan, micro_batch=0)
    with pytest.raises(ValueError):
        ServingRuntime(plan, policy="bogus")


# ------------------------------------------------------------ concurrency -----
def test_concurrent_submitters_all_complete(served):
    _, _, plan = served
    runtime = ServingRuntime(plan, policy="weighted-fair", micro_batch=4,
                             max_wait=0.005, workers=3, max_pending=64)
    runtime.start()
    results = {}

    def client(name, task, count):
        rng = np.random.default_rng(hash(name) % 2**32)
        futures = [runtime.submit(task, rng.normal(size=(3, 16, 16)), timeout=30.0)
                   for _ in range(count)]
        results[name] = [future.result(timeout=30.0) for future in futures]

    threads = [threading.Thread(target=client, args=(f"client{i}", TASK_NAMES[i % 3], 12))
               for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report = runtime.stop(drain=True)
    assert report.completed == 4 * 12
    assert sum(len(v) for v in results.values()) == 4 * 12
    assert all(logits.shape == (5,) for batch in results.values() for logits in batch)


# ---------------------------------------------------------------- metrics -----
def test_metrics_and_hardware_report_round_trip(served):
    _, backbone, plan = served
    recorder = SparsityRecorder()
    runtime = ServingRuntime(plan, policy="pipelined", micro_batch=4,
                             max_wait=0.005, workers=2, recorder=recorder)
    stream = mixed_stream(5, 24)
    with runtime:
        futures = [runtime.submit(task, image) for task, image in stream]
        for future in futures:
            future.result(timeout=30.0)
    report = runtime.report()
    assert report.completed == 24
    assert report.policy == "pipelined"
    assert report.workers == 2
    assert report.throughput > 0
    assert report.latency.count == 24
    assert report.latency.p50 <= report.latency.p95 <= report.latency.p99 <= report.latency.max
    assert sum(report.per_task.values()) == 24
    summary = report.summary()
    assert "images/sec" in summary and "p50" in summary and "task switches" in summary

    assert recorder.num_images() == 24
    profile = runtime.sparsity_profile()
    assert sorted(profile.tasks()) == sorted(set(task for task, _ in stream))
    hw = runtime.hardware_report(extract_layer_shapes(backbone), conv_only=True)
    assert hw.total_energy().total > 0
    assert hw.total_cycles() > 0


def test_deadline_accounting(served):
    _, _, plan = served
    clock = ManualClock(start=100.0)
    # Deadlines and finish times live on the same fake clock, so met/missed
    # is decided by arithmetic, not by how fast this machine executes.
    with ServingRuntime(
        plan, micro_batch=4, max_wait=0.001, workers=2, clock=clock
    ) as runtime:
        generous = runtime.submit("alpha", np.zeros((3, 16, 16)),
                                  deadline=clock() + 60.0)
        hopeless = runtime.submit("beta", np.zeros((3, 16, 16)),
                                  deadline=clock() - 1.0)
        clock.advance(0.01)  # past max_wait: both partial batches close
        generous.result(timeout=10.0)
        hopeless.result(timeout=10.0)
    assert generous.deadline_met is True
    assert hopeless.deadline_met is False
    report = runtime.report()
    assert report.deadline_total == 2
    assert report.deadline_misses == 1


# ----------------------------------------------------------- load generator ---
def test_load_generator_trace_is_deterministic_and_monotone():
    generator = LoadGenerator.uniform(TASK_NAMES, rate=100.0, seed=4)
    first = generator.trace(50)
    second = generator.trace(50)
    assert first == second
    times = [arrival.time for arrival in first]
    assert all(later > earlier for earlier, later in zip(times, times[1:]))
    # Mean inter-arrival ~ 1/rate (loose: 50 samples).
    gaps = np.diff([0.0] + times)
    assert 0.3 / 100.0 < gaps.mean() < 3.0 / 100.0


def test_load_generator_mix_and_scenarios():
    skewed = LoadGenerator.skewed(TASK_NAMES, rate=50.0, hot_fraction=0.8, seed=6)
    counts = {task: 0 for task in TASK_NAMES}
    for arrival in skewed.trace(300):
        counts[arrival.task] += 1
    assert counts["alpha"] > counts["beta"] + counts["gamma"]

    bursty = LoadGenerator.bursty(TASK_NAMES, rate=50.0, burst_factor=4.0,
                                  burst_period=0.5, seed=6)
    assert len(bursty.trace(40)) == 40

    with pytest.raises(ValueError):
        LoadGenerator(TASK_NAMES, rate=0.0)
    with pytest.raises(ValueError):
        LoadGenerator(TASK_NAMES, rate=10.0, mix=[1.0])
    with pytest.raises(ValueError):
        LoadGenerator(TASK_NAMES, rate=10.0, burst_factor=2.0)  # no period
    with pytest.raises(ValueError):
        LoadGenerator.skewed(TASK_NAMES, rate=10.0, hot_fraction=1.5)


def test_replay_paces_and_stamps_deadlines_on_the_runtime_clock(served):
    _, _, plan = served
    clock = ManualClock()
    runtime = ServingRuntime(plan, micro_batch=4, max_wait=0.001, workers=1, clock=clock)
    generator = LoadGenerator.uniform(TASK_NAMES, rate=100.0, seed=3)
    sleeps = []

    def fake_sleep(seconds: float) -> None:
        sleeps.append(seconds)
        clock.advance(seconds)

    runtime.start()
    futures = generator.replay(
        runtime,
        lambda task, number: np.zeros((3, 16, 16)),
        num_requests=8,
        deadline_slack=30.0,
        sleep=fake_sleep,
    )
    submitted_by = clock()
    runtime.stop(drain=True)
    assert sleeps, "pacing must flow through the injectable sleep"
    assert all(future.done() for future in futures)
    # Deadlines were stamped on the fake clock: arrival + slack, far beyond
    # any finish time this run can produce.
    for future in futures:
        assert future.deadline is not None
        assert 30.0 <= future.deadline <= submitted_by + 30.0
    assert runtime.report().deadline_misses == 0


def test_load_generator_replay_end_to_end(served):
    _, _, plan = served
    rng = np.random.default_rng(12)
    images = {task: rng.normal(size=(4, 3, 16, 16)) for task in TASK_NAMES}
    generator = LoadGenerator.uniform(TASK_NAMES, rate=2000.0, seed=8)
    with ServingRuntime(plan, micro_batch=4, max_wait=0.01, workers=2) as runtime:
        futures = generator.replay(runtime, images, num_requests=20, deadline_slack=30.0)
        outputs = [future.result(timeout=30.0) for future in futures]
    assert len(outputs) == 20
    assert runtime.report().deadline_misses == 0


# ------------------------------------------------------------ release -------
def _serve_mixed_batch(runtime):
    stream = mixed_stream(21, 6)
    futures = [runtime.submit(task, image) for task, image in stream]
    runtime.start()
    report = runtime.stop(drain=True)
    assert report.completed == len(stream)
    return futures


@pytest.mark.parametrize(
    "make, serve",
    [
        (lambda plan: ServingRuntime(plan, workers=1), None),
        (
            lambda plan: ServingRuntime(
                plan, micro_batch=8, max_wait=5.0, workers=1, coalesce=True
            ),
            _serve_mixed_batch,
        ),
        (
            lambda plan: ShardedRuntime(plan, micro_batch=8, max_wait=5.0, workers=1),
            _serve_mixed_batch,
        ),
    ],
    ids=["never-started", "thread-coalesced", "process"],
)
def test_dropped_runtime_frees_its_plans_without_gc(served, make, serve):
    network, _, _ = served
    plan = compile_network(network, dtype=np.float32)
    gc.collect()
    gc.disable()
    try:
        runtime = make(plan)
        futures = serve(runtime) if serve is not None else []
        runtime_ref, plan_ref = weakref.ref(runtime), weakref.ref(plan)
        del runtime, plan
        # Refcount alone must free the runtime and its PlanSet: nothing the
        # runtime owns may point back at it.
        assert runtime_ref() is None
        assert plan_ref() is None
    finally:
        gc.enable()
    # Retained futures still hold their logits.
    assert all(future.result(timeout=0).shape == (5,) for future in futures)


# -------------------------------------------------------------- futures -----
def test_future_completes_once_and_later_calls_are_no_ops():
    future = ServingResult(0, "alpha", 0.0)
    assert not future.done()
    logits = np.arange(5.0)
    future.set_result(logits, 1.0, 2.0)
    assert future.done()
    future.set_result(np.zeros(5), 3.0, 4.0)
    future.set_error(RuntimeError("late"))
    assert future.result(timeout=0) is logits
    assert (future.start_time, future.finish_time) == (1.0, 2.0)


@pytest.mark.parametrize("timeout", [0, -1.0])
def test_pending_future_polls_for_non_positive_timeouts(timeout):
    future = ServingResult(0, "alpha", 0.0)
    began = time.perf_counter()
    with pytest.raises(TimeoutError):
        future.result(timeout=timeout)
    assert time.perf_counter() - began < 1.0
    assert not future.done()


def test_every_waiter_and_later_call_gets_the_same_logits():
    future = ServingResult(0, "alpha", 0.0)
    logits = np.arange(5.0)
    received = []
    waiters = [
        threading.Thread(target=lambda: received.append(future.result(timeout=10.0)))
        for _ in range(8)
    ]
    for waiter in waiters:
        waiter.start()
    time.sleep(0.05)
    assert not future.done()
    future.set_result(logits, 1.0, 2.0)
    for waiter in waiters:
        waiter.join(10.0)
    assert len(received) == 8 and all(row is logits for row in received)
    assert future.result() is logits
    assert future.result(timeout=0) is logits


def test_error_future_reraises_on_every_call():
    future = ServingResult(0, "alpha", 0.0)
    future.set_error(RequestCancelledError("gone"))
    assert future.done()
    for timeout in (None, 0, 1.0):
        with pytest.raises(RequestCancelledError, match="gone"):
            future.result(timeout=timeout)
    future.set_result(np.zeros(5), 1.0, 2.0)
    with pytest.raises(RequestCancelledError):
        future.result()


def test_completed_futures_are_small():
    count = 10_000
    logits = np.zeros((count, 5))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        futures = []
        for index in range(count):
            future = ServingResult(index, "alpha", float(index))
            future.set_result(logits[index], 1.0, 2.0)
            futures.append(future)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(future.done() for future in futures)
    # Each future keeps its slots, its lock, its logits row view and its
    # arrival timestamp; an Event-based future retained about 1.4 KB.
    assert retained / count < 600
