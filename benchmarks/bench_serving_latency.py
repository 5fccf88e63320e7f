"""Online serving: latency percentiles and throughput across policies/workers.

Not a paper figure — this benchmarks the repo's own online serving runtime on
a mixed-task Poisson workload.  Four properties are asserted:

* no run loses or duplicates a request, under any policy, worker count or
  backend;
* with enough CPU cores, 4 worker threads deliver at least
  ``SERVING_BENCH_MIN_SPEEDUP``x (default 1.5x) the images/sec of 1 worker —
  the thread-parallel-workspaces payoff (the assertion is skipped on boxes
  with fewer than 2 cores, where thread parallelism cannot help);
* under light load, p95 latency respects the dynamic batcher's configured
  ``max_wait`` deadline plus a service/scheduling budget
  (``SERVING_BENCH_P95_BUDGET`` seconds, default 0.25) — an upper bound
  only, since an idle thread worker takes an open batch without waiting on
  the timer; and
* on a compute-heavy plan with ≥4 cores, the **process** backend at 4
  workers beats the **thread** backend at 4 workers by at least
  ``SERVING_PROCESS_MIN_SPEEDUP``x (default 1.5x) — the GIL-escape payoff of
  sharding across cores (im2col assembly, masking and batch stacking hold
  the GIL; only the GEMMs release it).

Run standalone with ``pytest benchmarks/bench_serving_latency.py -s``; pass
``--smoke`` for the seconds-scale CI configuration.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.engine import SCHEDULING_MODES, compile_network
from repro.mime import MimeNetwork
from repro.serving import BACKENDS, LoadGenerator, ServingRuntime
from repro.models import vgg_small, vgg_tiny

TASKS = ("cifar10", "cifar100", "fmnist")
INPUT_SIZE = 16
MICRO_BATCH = 4
WORKER_COUNTS = (1, 2, 4)


def _default_min_speedup() -> float:
    cores = os.cpu_count() or 1
    if cores >= 4:
        return 1.5
    if cores >= 2:
        return 1.1
    return 0.0  # single core: threads cannot speed up compute-bound work


MIN_SPEEDUP = float(os.environ.get("SERVING_BENCH_MIN_SPEEDUP", _default_min_speedup()))
P95_BUDGET = float(os.environ.get("SERVING_BENCH_P95_BUDGET", "0.25"))
PROCESS_MIN_SPEEDUP = float(os.environ.get("SERVING_PROCESS_MIN_SPEEDUP", "1.5"))


@pytest.fixture(scope="module")
def served_plan():
    rng = np.random.default_rng(21)
    backbone = vgg_tiny(num_classes=8, input_size=INPUT_SIZE, in_channels=3, rng=rng)
    network = MimeNetwork(backbone)
    network.eval()
    for index, name in enumerate(TASKS):
        task = network.add_task(name, num_classes=10 + index, rng=rng)
        for param in task.thresholds:
            param.data += rng.uniform(0.0, 0.2, size=param.data.shape)
    return compile_network(network, dtype=np.float32)


@pytest.fixture(scope="module")
def image_pools():
    rng = np.random.default_rng(5)
    return {task: rng.normal(size=(16, 3, INPUT_SIZE, INPUT_SIZE)) for task in TASKS}


def _drain_run(plan, image_pools, trace, policy, workers):
    """Submit the whole trace up front, then measure the parallel drain."""
    generator = LoadGenerator.uniform(TASKS, rate=1000.0)  # trace passed explicitly
    runtime = ServingRuntime(
        plan,
        policy=policy,
        micro_batch=MICRO_BATCH,
        max_wait=0.02,
        workers=workers,
    )
    futures = generator.replay(
        runtime, image_pools, num_requests=len(trace), time_scale=0.0, trace=trace
    )
    runtime.start()
    report = runtime.stop(drain=True)
    for future in futures:
        assert future is not None and future.done()
        future.result(timeout=0)
    return report


def test_worker_scaling_and_policy_table(served_plan, image_pools, smoke):
    num_requests = 64 if smoke else 192
    trace = LoadGenerator.uniform(TASKS, rate=500.0, seed=13).trace(num_requests)

    rows = []
    throughput = {}
    for workers in WORKER_COUNTS:
        for policy in SCHEDULING_MODES:
            report = _drain_run(served_plan, image_pools, trace, policy, workers)
            assert report.completed == num_requests, (
                f"{policy}/{workers}w lost requests: {report.completed}/{num_requests}"
            )
            throughput[(policy, workers)] = report.throughput
            rows.append(
                f"  {policy:>15} | {workers}w | {report.throughput:9.1f} img/s | "
                f"p50 {1e3 * report.latency.p50:6.1f} ms | "
                f"p95 {1e3 * report.latency.p95:6.1f} ms | "
                f"p99 {1e3 * report.latency.p99:6.1f} ms | "
                f"switches {report.task_switches:3d}"
            )

    print()
    print(f"Serving drain throughput ({num_requests} mixed-task Poisson requests, "
          f"micro-batch {MICRO_BATCH}, vgg_tiny @ {INPUT_SIZE}x{INPUT_SIZE}):")
    for row in rows:
        print(row)

    min_speedup = min(MIN_SPEEDUP, 1.2) if smoke else MIN_SPEEDUP
    scaling = throughput[("fifo-deadline", 4)] / throughput[("fifo-deadline", 1)]
    print(f"  fifo-deadline 4-worker scaling: {scaling:.2f}x "
          f"(required {min_speedup}x, {os.cpu_count()} cores)")
    if min_speedup <= 0:
        pytest.skip("single-core machine: worker-scaling assertion not meaningful")
    assert scaling >= min_speedup, (
        f"4 workers deliver only {scaling:.2f}x the 1-worker throughput "
        f"(required {min_speedup}x)"
    )


def test_thread_vs_process_scaling_table(smoke):
    """The sharded (process) backend must out-scale threads on heavy plans.

    Drains one deterministic mixed-task trace through both backends at 1, 2
    and 4 workers on a compute-heavy plan, prints the scaling table, and —
    when this machine has ≥4 cores for the comparison to be meaningful —
    asserts the acceptance ratio ``process(4w) >= PROCESS_MIN_SPEEDUP *
    thread(4w)``.  Process throughput excludes worker spawn time: the
    runtime's measurement window opens only after every worker has rebuilt
    its plan from the shipped PlanSpec.
    """
    rng = np.random.default_rng(33)
    if smoke:
        backbone = vgg_tiny(num_classes=8, input_size=INPUT_SIZE, in_channels=3, rng=rng)
        num_requests, micro_batch = 48, 4
    else:
        # Compute-heavy: the 6-conv reduced VGG at 24x24 keeps each
        # micro-batch on the CPU long enough for worker parallelism to matter.
        backbone = vgg_small(num_classes=8, input_size=24, in_channels=3, rng=rng)
        num_requests, micro_batch = 192, 8
    network = MimeNetwork(backbone)
    network.eval()
    for index, name in enumerate(TASKS):
        task = network.add_task(name, num_classes=10 + index, rng=rng)
        for param in task.thresholds:
            param.data += rng.uniform(0.0, 0.2, size=param.data.shape)
    plan = compile_network(network, dtype=np.float32)
    input_size = plan.input_shape[-1]
    pools = {task: rng.normal(size=(16, 3, input_size, input_size)) for task in TASKS}
    trace = LoadGenerator.uniform(TASKS, rate=1000.0, seed=29).trace(num_requests)

    throughput = {}
    rows = []
    for backend in ("thread", "process"):
        for workers in WORKER_COUNTS:
            generator = LoadGenerator.uniform(TASKS, rate=1000.0)
            runtime = BACKENDS[backend](
                plan,
                policy="fifo-deadline",
                micro_batch=micro_batch,
                max_wait=0.02,
                workers=workers,
            )
            futures = generator.replay(
                runtime, pools, num_requests=num_requests, time_scale=0.0, trace=trace
            )
            runtime.start()
            report = runtime.stop(drain=True)
            for future in futures:
                assert future is not None and future.done()
                future.result(timeout=0)
            assert report.completed == num_requests, (
                f"{backend}/{workers}w lost requests: {report.completed}/{num_requests}"
            )
            throughput[(backend, workers)] = report.throughput
            rows.append(
                f"  {backend:>7} | {workers}w | {report.throughput:9.1f} img/s | "
                f"p50 {1e3 * report.latency.p50:7.1f} ms | "
                f"p95 {1e3 * report.latency.p95:7.1f} ms"
            )

    print()
    print(
        f"Thread vs process backend drain ({num_requests} mixed-task requests, "
        f"micro-batch {micro_batch}, input {input_size}x{input_size}, "
        f"{os.cpu_count()} cores):"
    )
    for row in rows:
        print(row)
    ratio = throughput[("process", 4)] / throughput[("thread", 4)]
    print(
        f"  process/thread at 4 workers: {ratio:.2f}x "
        f"(required {PROCESS_MIN_SPEEDUP}x on >=4 cores)"
    )
    if (os.cpu_count() or 1) < 4:
        pytest.skip(
            "fewer than 4 cores: the process-vs-thread scaling comparison "
            "cannot materialise here"
        )
    if smoke:
        pytest.skip(
            "smoke mode: the seconds-scale config's micro-batches are too "
            "small for the per-batch IPC to amortise — the ratio is asserted "
            "on the full compute-heavy configuration"
        )
    assert ratio >= PROCESS_MIN_SPEEDUP, (
        f"the process backend delivers only {ratio:.2f}x the thread backend "
        f"at 4 workers (required {PROCESS_MIN_SPEEDUP}x)"
    )


def test_p95_latency_respects_max_wait(served_plan, image_pools, smoke):
    num_requests = 40 if smoke else 80
    max_wait = 0.05
    generator = LoadGenerator.uniform(TASKS, rate=400.0, seed=17)
    runtime = ServingRuntime(
        served_plan,
        policy="fifo-deadline",
        micro_batch=8,
        max_wait=max_wait,
        workers=2,
        max_pending=512,
    )
    with runtime:
        futures = generator.replay(
            runtime, image_pools, num_requests=num_requests, deadline_slack=max_wait + P95_BUDGET
        )
        for future in futures:
            future.result(timeout=30.0)
    report = runtime.report()

    print()
    print("Light-load latency (an idle worker closes each batch; max-wait bounds the rest):")
    print(report.summary())
    assert report.completed == num_requests
    assert report.latency.p95 <= max_wait + P95_BUDGET, (
        f"p95 latency {1e3 * report.latency.p95:.1f} ms exceeds the "
        f"max-wait deadline ({1e3 * max_wait:.0f} ms) plus budget "
        f"({1e3 * P95_BUDGET:.0f} ms)"
    )
    assert report.deadline_total == num_requests
    assert report.deadline_misses == 0, (
        f"{report.deadline_misses}/{report.deadline_total} deadlines missed under light load"
    )
