"""Many-task serving: cross-task batch coalescing vs per-task-affinity batching.

Not a paper figure — this benchmarks the repo's own many-task serving regime
(ROADMAP: 50-200 tasks, where per-task plan memory and task-switch cost start
to dominate).  The paper's premise is that N tasks share one frozen backbone
and differ only in per-task threshold masks + FC head, so a micro-batch mixing
rows of several tasks can execute as **one** shared-backbone pass with a
per-row mask epilogue.  Three properties are asserted:

* at the primary task count (100 full / 50 smoke) on a zipf long-tail mix of
  dense plans, coalesced mixed-task batching delivers at least
  ``MANYTASK_BENCH_MIN_SPEEDUP``x (1.5x; 1.1x under ``--smoke``) the
  images/sec of today's per-task-affinity batching.  Throughput is measured
  as a *closed-loop bounded-admission drain* — the runtime is started first
  and the trace submitted with blocking admission against ``max_pending`` of
  two micro-batches, the production configuration (the serving examples
  default to a bounded queue).  That is the regime where the many-task cost
  is real: a bounded queue cannot hold deep per-task buckets for 100 tasks,
  so affinity micro-batches close with one or two rows each (an idle worker
  takes the oldest open bucket; the ``max_wait`` timer only while all are
  busy), while the coalescing batcher keeps filling full micro-batches from
  the very same queue.  Plans run the chooser-tuned kernel variants
  (``autotune_kernel_variants`` at the serving micro-batch), as serving
  would, and each configuration takes the best of three drains (shared-host
  noise shows up as multi-hundred-ms stalls, never as a speedup);
* coalescing never changes *what* is computed: every coalesced mixed-task
  batch is bit-identical to per-task singular execution of the same rows,
  verified through both serving backends (row *grouping* matters at the ULP
  level — BLAS reduces single-row GEMMs in a different order — so the exact
  contract is same-rows, not same-request-under-any-batching);
* the deduplicated plan memory stays flat: a 100-task ``PlanSet`` (per-task
  bit-exact specialized plans) holds at most 3x the *shared* plan bytes of a
  single-task set, and the v4 ``PlanSetSpec`` pickle a sharded spawn ships
  carries the backbone once (at least 4x smaller than the per-task-copy
  capture).

Set ``BENCH_RECORD=path.json`` to append this run's numbers to the
``BENCH_manytask.json`` trajectory file.

Run standalone with ``pytest benchmarks/bench_manytask.py -s``; pass
``--smoke`` for the seconds-scale CI configuration.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from pathlib import Path

import numpy as np

from repro.engine import autotune_kernel_variants, compile_network, specialize_tasks
from repro.engine.planspec import PlanSetSpec
from repro.mime import MimeNetwork, add_structured_sparsity_task
from repro.models import vgg_small, vgg_tiny
from repro.serving import BACKENDS, LoadGenerator
from repro.serving.base import PlanSet


def _ratio_from_env(name: str, default: float, smoke_default: float, smoke: bool) -> float:
    """An explicitly-set env override always wins; --smoke only relaxes defaults."""
    value = os.environ.get(name)
    if value is not None:
        return float(value)
    return smoke_default if smoke else default


def _build_plan(num_tasks: int, smoke: bool, tune_batch: int | None = None):
    rng = np.random.default_rng(1234)
    if smoke:
        backbone = vgg_tiny(num_classes=8, input_size=16, in_channels=3, rng=rng)
    else:
        backbone = vgg_small(num_classes=8, input_size=32, in_channels=3, rng=rng)
    network = MimeNetwork(backbone)
    network.eval()
    for index in range(num_tasks):
        add_structured_sparsity_task(
            network, f"task{index:03d}", num_classes=10, rng=rng,
            dead_fraction=0.3, threshold_jitter=0.2,
        )
    plan = compile_network(network, dtype=np.float32)
    if tune_batch is not None:
        # Serve what serving would serve: the chooser-tuned kernel variants at
        # the micro-batch size the drain uses.  Timings are memoised process-
        # wide by layer geometry, so the sweep's other task counts reuse them.
        autotune_kernel_variants(plan, batch=tune_batch, seed=0)
    return plan


def _image_pools(plan, per_task: int = 4):
    rng = np.random.default_rng(5)
    return {
        task: rng.normal(size=(per_task,) + tuple(plan.input_shape))
        for task in plan.task_names()
    }


def _drain(
    plan,
    pools,
    trace,
    *,
    coalesce,
    micro_batch,
    workers,
    backend="thread",
    max_pending=0,
    repeats=1,
):
    """Drain the trace and return the (best) report plus per-request logits.

    With ``max_pending=0`` the whole trace is pre-queued before the runtime
    starts — batch composition is then deterministic (buckets close on the
    size trigger alone), which is what the bit-identity check needs.  With a
    bound, the runtime starts *first* and the trace is submitted with
    blocking admission: the closed-loop production regime the throughput
    comparison measures, where the queue can never hold more than
    ``max_pending`` rows and fragmented per-task buckets close partial (on a
    free worker, or on the ``max_wait`` timer while every worker is busy).
    ``repeats`` re-runs the drain and keeps the highest throughput (host
    noise only ever slows a run down).
    """
    tasks = plan.task_names()
    generator = LoadGenerator.zipf(tasks, rate=1000.0)  # trace passed explicitly
    best_report = None
    best_logits = None
    for _ in range(max(1, repeats)):
        runtime = BACKENDS[backend](
            plan,
            policy="fifo-deadline",
            micro_batch=micro_batch,
            max_wait=0.02,
            workers=workers,
            coalesce=coalesce,
            max_pending=max_pending,
        )
        if max_pending:
            runtime.start()
        futures = generator.replay(
            runtime, pools, num_requests=len(trace), time_scale=0.0, trace=trace
        )
        if not max_pending:
            runtime.start()
        report = runtime.stop(drain=True)
        logits = []
        for future in futures:
            assert future is not None and future.done()
            logits.append(future.result(timeout=0))
        if best_report is None or report.throughput > best_report.throughput:
            best_report, best_logits = report, logits
    return best_report, best_logits


def _verify_bit_identity(plan, pools, trace, *, micro_batch, backend):
    """Coalesced batches must match singular execution of the same rows.

    Dense tasks form one coalescing group, so with every request submitted
    up front and a single worker the coalesced micro-batches are exactly the
    consecutive ``micro_batch``-sized slices of the trace — which makes the
    per-task singular reference reconstructible here: group each slice's rows
    by task, run each group through ``plan.run``, and demand bit-equality.
    """
    _, logits = _drain(
        plan, pools, trace, coalesce=True,
        micro_batch=micro_batch, workers=1, backend=backend, max_pending=0,
    )
    counters: dict = {}
    images = []
    for arrival in trace:
        number = counters.get(arrival.task, 0)
        counters[arrival.task] = number + 1
        pool = pools[arrival.task]
        images.append(pool[number % len(pool)])
    for start in range(0, len(trace), micro_batch):
        stop = min(start + micro_batch, len(trace))
        rows_of: dict = {}
        for index in range(start, stop):
            rows_of.setdefault(trace[index].task, []).append(index)
        for task, rows in rows_of.items():
            reference = plan.run(np.stack([images[r] for r in rows]), task)
            for position, index in enumerate(rows):
                assert np.array_equal(logits[index], reference[position]), (
                    f"request {index} ({task}), {backend} backend: coalesced "
                    f"logits differ from singular execution of the same rows"
                )


def _record_entry(entry: dict) -> None:
    path = os.environ.get("BENCH_RECORD")
    if not path:
        return
    file = Path(path)
    payload = json.loads(file.read_text()) if file.exists() else {"entries": []}
    payload["entries"].append(entry)
    file.write_text(json.dumps(payload, indent=2) + "\n")


def test_coalesced_batching_beats_task_affinity(smoke):
    min_speedup = _ratio_from_env("MANYTASK_BENCH_MIN_SPEEDUP", 1.5, 1.1, smoke)
    task_counts = (10, 50) if smoke else (10, 50, 100, 200)
    primary = 50 if smoke else 100
    micro_batch = 8 if smoke else 16
    # Bounded admission: two micro-batches of queue, the production shape
    # (the serving examples run a bounded queue too).  One worker — the
    # reference container is single-core, where a second worker only makes
    # the two drain modes thrash each other's cache.
    max_pending = 2 * micro_batch
    workers = 1
    repeats = 5
    model = "vgg_tiny@16" if smoke else "vgg_small@32"

    rows = []
    sweep = []
    speedup_at_primary = None
    for count in task_counts:
        plan = _build_plan(count, smoke, tune_batch=micro_batch)
        pools = _image_pools(plan)
        num_requests = max(64, 2 * count) if smoke else max(192, 3 * count)
        trace = LoadGenerator.zipf(plan.task_names(), rate=1000.0, seed=17).trace(
            num_requests
        )
        if count == task_counts[0]:
            # Warm BLAS/workspaces once so the first measured config does not
            # absorb one-time setup cost.
            _drain(plan, pools, trace[:32], coalesce=False,
                   micro_batch=micro_batch, workers=workers)
        affinity, affinity_logits = _drain(
            plan, pools, trace, coalesce=False,
            micro_batch=micro_batch, workers=workers,
            max_pending=max_pending, repeats=repeats,
        )
        coalesced, coalesced_logits = _drain(
            plan, pools, trace, coalesce=True,
            micro_batch=micro_batch, workers=workers,
            max_pending=max_pending, repeats=repeats,
        )
        for report, label in ((affinity, "affinity"), (coalesced, "coalesced")):
            assert report.completed == num_requests, (
                f"{label}@{count} tasks lost requests: "
                f"{report.completed}/{num_requests}"
            )
        speedup = coalesced.throughput / affinity.throughput
        planset = PlanSet(plan, {})
        entry = {
            "tasks": count,
            "requests": num_requests,
            "affinity_ips": round(affinity.throughput, 1),
            "coalesced_ips": round(coalesced.throughput, 1),
            "speedup": round(speedup, 3),
            "affinity_switch_rate": round(
                affinity.task_switches / max(1, affinity.num_batches), 3
            ),
            "coalesced_switch_rate": round(
                coalesced.task_switches / max(1, coalesced.num_batches), 3
            ),
            "affinity_mean_batch": round(num_requests / max(1, affinity.num_batches), 2),
            "coalesced_mean_batch": round(num_requests / max(1, coalesced.num_batches), 2),
            "planset_bytes": planset.plan_bytes(),
            "planset_shared_bytes": planset.plan_bytes(shared_only=True),
            "per_task_bytes": round(
                (planset.plan_bytes() - planset.plan_bytes(shared_only=True)) / count
            ),
        }
        sweep.append(entry)
        rows.append(
            f"  {count:4d} tasks | affinity {affinity.throughput:8.1f} img/s "
            f"(switch rate {entry['affinity_switch_rate']:.2f}, "
            f"mean batch {entry['affinity_mean_batch']:5.2f}) | "
            f"coalesced {coalesced.throughput:8.1f} img/s "
            f"(switch rate {entry['coalesced_switch_rate']:.2f}, "
            f"mean batch {entry['coalesced_mean_batch']:5.2f}) | "
            f"{speedup:.2f}x"
        )
        if count == primary:
            speedup_at_primary = speedup
            # Exactness contract: every coalesced mixed-task batch must be
            # bit-identical to running the *same rows* as per-task singular
            # batches.  (Row grouping matters at the ULP level: BLAS takes a
            # gemv path for single-row GEMMs with a different reduction order,
            # so only same-rows comparisons can be exact.)  Verified through
            # both serving backends on a subset of the trace.
            subset = trace[:48]
            for backend in ("thread", "process"):
                _verify_bit_identity(
                    plan, pools, subset, micro_batch=micro_batch, backend=backend
                )

    print()
    print(f"Many-task coalescing ({model}, zipf mix, dense plans, tuned kernels, "
          f"micro-batch {micro_batch}, max_pending {max_pending}, "
          f"{workers} worker, best of {repeats}):")
    for row in rows:
        print(row)
    print(f"  speedup at {primary} tasks: {speedup_at_primary:.2f}x "
          f"(required {min_speedup}x)")

    _record_entry({
        "date": time.strftime("%Y-%m-%d"),
        "bench": "coalescing_throughput",
        "workload": f"{model} zipf dense, closed-loop bounded admission",
        "smoke": smoke,
        "micro_batch": micro_batch,
        "max_pending": max_pending,
        "workers": workers,
        "sweep": sweep,
        "primary_tasks": primary,
        "primary_speedup": round(speedup_at_primary, 3),
    })
    assert speedup_at_primary >= min_speedup, (
        f"coalesced batching delivers only {speedup_at_primary:.2f}x the "
        f"per-task-affinity throughput at {primary} tasks "
        f"(required {min_speedup}x)"
    )


def test_plan_memory_and_spawn_pickle_stay_flat(smoke):
    """Dedup keeps shared plan bytes O(1) and the spawn pickle near-O(1) in N.

    Model scale is irrelevant to a memory measurement, so this always runs on
    vgg_tiny; the task count is the acceptance regime's 100 (40 under
    ``--smoke`` to stay seconds-scale).
    """
    num_tasks = 40 if smoke else 100
    plan = _build_plan(num_tasks, smoke=True)
    # Bit-exact specialization maximises pass-through sharing: every array a
    # per-task plan does not reshape stays the dense plan's own object.
    specialized = specialize_tasks(plan, compact_reduction=False)
    single_plan = _build_plan(1, smoke=True)
    single_specialized = specialize_tasks(single_plan, compact_reduction=False)

    many = PlanSet(plan, specialized)
    single = PlanSet(single_plan, single_specialized)
    many_shared = many.plan_bytes(shared_only=True)
    single_shared = single.plan_bytes(shared_only=True)
    per_task = (many.plan_bytes() - many_shared) / num_tasks

    dedup = PlanSetSpec.capture(plan, specialized)
    plain = PlanSetSpec.capture(plan, specialized, dedup=False)
    dedup_bytes = len(pickle.dumps(dedup))
    plain_bytes = len(pickle.dumps(plain))

    print()
    print(f"Plan memory at {num_tasks} tasks (vgg_tiny, bit-exact specialized):")
    print(f"  shared plan bytes      : {many_shared:12,d} "
          f"({many_shared / single_shared:.2f}x single-task)")
    print(f"  per-task payload       : {per_task:12,.0f} bytes/task "
          f"(thresholds + FC head)")
    print(f"  spawn pickle (v4 dedup): {dedup_bytes:12,d} bytes")
    print(f"  spawn pickle (plain)   : {plain_bytes:12,d} bytes "
          f"({plain_bytes / dedup_bytes:.1f}x larger)")

    _record_entry({
        "date": time.strftime("%Y-%m-%d"),
        "bench": "plan_memory",
        "tasks": num_tasks,
        "smoke": smoke,
        "shared_bytes": many_shared,
        "shared_bytes_single_task": single_shared,
        "per_task_bytes": round(per_task),
        "pickle_dedup_bytes": dedup_bytes,
        "pickle_plain_bytes": plain_bytes,
        "pickle_ratio": round(plain_bytes / dedup_bytes, 2),
    })
    assert many_shared <= 3 * single_shared, (
        f"{num_tasks}-task PlanSet holds {many_shared / single_shared:.1f}x the "
        f"shared plan bytes of a single-task set (allowed 3x) — backbone "
        f"deduplication regressed"
    )
    assert dedup_bytes * 4 <= plain_bytes, (
        f"v4 spawn pickle is only {plain_bytes / dedup_bytes:.1f}x smaller than "
        f"the per-task-copy capture at {num_tasks} tasks (expected >=4x) — "
        f"tensor interning regressed"
    )
