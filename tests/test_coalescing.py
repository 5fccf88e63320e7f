"""Cross-task batch coalescing: grouping, scheduling, exactness, memory.

The many-task serving regime batches rows of *different* tasks over their
shared backbone.  These tests pin the whole contract down:

* **grouping** — dense tasks with one head width share a coalescing group;
  specialized plans coalesce only on a matching compacted-geometry digest;
* **batching** — the :class:`DynamicBatcher` buckets by group and the
  resulting :class:`MicroBatch` records per-row tasks and a routing key;
* **exactness** — a coalesced mixed-task batch is bit-identical to per-task
  singular execution of the *same rows* (including tasks owning exactly one
  row — the M=1 gemv case ``matmul_rowsafe`` exists for), in the thread
  backend, through the spawned process backend, and on the int8 datapath;
* **accounting** — coalescing drives the task-switch rate to zero while
  per-task request attribution stays exact, and the report renders readably
  at 100+ tasks;
* **memory** — worker workspace pools and the shared plan bytes stay flat in
  the task count, and the v4 PlanSpec ships the backbone once.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.engine import compile_network, specialize_tasks
from repro.engine.planspec import PlanSetSpec
from repro.engine.scheduling import CoalescingPolicy, MicroBatch, get_policy
from repro.mime import MimeNetwork, add_structured_sparsity_task
from repro.models import vgg_tiny
from repro.serving import LoadGenerator, ServingRuntime, ShardedRuntime
from repro.serving.base import PlanSet
from repro.serving.batcher import DynamicBatcher
from repro.serving.metrics import LatencyDigest, ServingReport
from repro.serving.request import ServingRequest, ServingResult


def make_request(index: int, task: str, image, arrival: float = 0.0, deadline=None):
    return ServingRequest(
        index, task, image, arrival, deadline, ServingResult(index, task, arrival, deadline)
    )


def build_plan(num_tasks: int, num_classes: int = 5, seed: int = 7, jitter: float = 0.2):
    rng = np.random.default_rng(seed)
    backbone = vgg_tiny(num_classes=6, input_size=16, in_channels=3, rng=rng)
    network = MimeNetwork(backbone)
    network.eval()
    for index in range(num_tasks):
        add_structured_sparsity_task(
            network, f"task{index:03d}", num_classes=num_classes, rng=rng,
            dead_fraction=0.3, threshold_jitter=jitter,
        )
    return compile_network(network, dtype=np.float32)


@pytest.fixture(scope="module")
def plan6():
    return build_plan(6)


def interleaved_stream(plan, count: int, seed: int = 11):
    """(task, image) pairs cycling through every task — worst case for
    per-task batching, best case for coalescing."""
    rng = np.random.default_rng(seed)
    names = plan.task_names()
    return [
        (names[i % len(names)], rng.normal(size=plan.input_shape)) for i in range(count)
    ]


def assert_same_rows_exact(plan, stream, results, micro_batch, exec_plan=None):
    """Coalesced logits == singular per-task execution of the same rows.

    With every request submitted before ``start()``, one worker and one
    coalescing group, batches close on the size trigger as consecutive
    ``micro_batch``-sized slices of the submission order.
    """
    reference_plan = exec_plan if exec_plan is not None else plan
    for base in range(0, len(stream), micro_batch):
        chunk = stream[base : base + micro_batch]
        rows_of = {}
        for offset, (task, _) in enumerate(chunk):
            rows_of.setdefault(task, []).append(offset)
        for task, rows in rows_of.items():
            images = np.stack([chunk[row][1] for row in rows])
            reference = reference_plan.run(images, task)
            for row, logits in zip(rows, reference):
                np.testing.assert_array_equal(
                    results[base + row], logits,
                    err_msg=f"request {base + row} ({task}) differs from singular "
                    f"execution of the same rows (group of {len(rows)})",
                )


# ---------------------------------------------------------------- grouping ----
def test_dense_tasks_share_one_group_split_by_head_width():
    rng = np.random.default_rng(3)
    backbone = vgg_tiny(num_classes=6, input_size=16, in_channels=3, rng=rng)
    network = MimeNetwork(backbone)
    network.eval()
    for name, classes in (("a", 5), ("b", 5), ("c", 5), ("d", 9)):
        add_structured_sparsity_task(network, name, num_classes=classes, rng=rng)
    plans = PlanSet(compile_network(network, dtype=np.float32))
    assert plans.coalescing_group("a") == plans.coalescing_group("b")
    assert plans.coalescing_group("a") == plans.coalescing_group("c")
    # A different head width is a different group: its logits buffer and
    # head GEMM geometry cannot share a mixed batch.
    assert plans.coalescing_group("d") != plans.coalescing_group("a")
    assert plans.group_leader(plans.coalescing_group("a")) == "a"
    assert plans.group_leader(plans.coalescing_group("d")) == "d"


def test_specialized_plans_group_by_geometry_digest(plan6):
    # Pass-through specialization keeps every task on identical compacted
    # geometry: one spec/ group, led by the first-registered member.
    specialized = specialize_tasks(plan6, compact_reduction=False)
    plans = PlanSet(plan6, specialized)
    names = plan6.task_names()
    groups = {plans.coalescing_group(name) for name in names}
    assert len(groups) == 1
    (group,) = groups
    assert group.startswith("spec/")
    assert plans.group_leader(group) == names[0]
    # Every *mixed* group batch executes on the leader's plan object with the
    # members' own thresholds/heads gathered in.
    mixed = MicroBatch(
        names[1],
        [
            make_request(0, names[1], np.zeros(plan6.input_shape)),
            make_request(1, names[2], np.zeros(plan6.input_shape)),
        ],
        0,
        group=group,
    )
    exec_plan, task_plans, row_tasks = plans.execution_for(mixed)
    assert exec_plan is specialized[names[0]]
    assert task_plans is not None and set(task_plans) == {names[1], names[2]}
    assert row_tasks == (names[1], names[2])
    # A coalesced batch that happens to be single-task skips the gather: it
    # runs its own plan exactly as the per-task singular path would.
    solo = MicroBatch(
        names[1], [make_request(0, names[1], np.zeros(plan6.input_shape))], 0, group=group
    )
    exec_plan, task_plans, row_tasks = plans.execution_for(solo)
    assert exec_plan is specialized[names[1]]
    assert task_plans is None and row_tasks is None


def test_compacted_geometry_mismatch_keeps_tasks_apart():
    plan = build_plan(4, seed=23, jitter=0.6)
    specialized = specialize_tasks(plan, compact_reduction=True)
    plans = PlanSet(plan, specialized)
    names = plan.task_names()
    groups = [plans.coalescing_group(name) for name in names]
    # Different dead sets compact to different geometry digests, so these
    # tasks must not share a mixed batch (distinct groups), while each task
    # still routes to itself.
    assert len(set(groups)) > 1
    for name in names:
        group = plans.coalescing_group(name)
        leader = plans.group_leader(group)
        assert plans.coalescing_group(leader) == group


# ---------------------------------------------------------------- batching ----
def test_batcher_buckets_by_group_and_records_row_tasks():
    policy = get_policy("coalescing")
    batcher = DynamicBatcher(
        micro_batch=3, max_wait=10.0, policy=policy, coalesce=lambda task: "g0"
    )
    for index, task in enumerate(("alpha", "beta", "alpha")):
        batcher.submit(make_request(index, task, np.zeros(2), arrival=float(index)))
    batch = batcher.next_batch()
    assert batch is not None
    assert batch.group == "g0" and batch.routing_key == "g0"
    assert batch.tasks == ("alpha", "beta", "alpha")
    assert batch.mixed
    assert batch.task == "alpha"  # representative: first member's task
    # Without a coalesce map the same stream closes per-task batches.
    classic = DynamicBatcher(micro_batch=3, max_wait=0.0, policy=policy)
    for index, task in enumerate(("alpha", "beta", "alpha")):
        classic.submit(make_request(index, task, np.zeros(2), arrival=float(index)))
    first = classic.next_batch()
    assert first is not None and not first.mixed and first.group is None


def test_coalescing_policy_is_deadline_first_then_group_sticky():
    policy = CoalescingPolicy()

    def batch(index, task, group, arrival, deadline=None):
        request = make_request(index, task, np.zeros(2), arrival=arrival, deadline=deadline)
        return MicroBatch(task, [request], 0, group=group)

    sticky = batch(0, "a", "g0", arrival=1.0)
    older = batch(1, "b", "g1", arrival=0.0)
    urgent = batch(2, "c", "g2", arrival=2.0, deadline=0.5)
    # An urgent deadline always wins...
    assert policy.pick([sticky, older, urgent], last_task="g0") is urgent
    # ...otherwise stick with the worker's current routing key...
    assert policy.pick([sticky, older], last_task="g0") is sticky
    # ...and fall back to the longest-waiting group.
    assert policy.pick([sticky, older], last_task="g9") is older


# --------------------------------------------------------------- exactness ----
def test_thread_coalesced_batches_match_singular_same_rows(plan6):
    stream = interleaved_stream(plan6, 24)
    runtime = ServingRuntime(
        plan6, policy="coalescing", micro_batch=8, max_wait=5.0, workers=1, coalesce=True
    )
    futures = [runtime.submit(task, image) for task, image in stream]
    runtime.start()
    report = runtime.stop(drain=True)
    results = [future.result(timeout=10.0) for future in futures]
    assert_same_rows_exact(plan6, stream, results, micro_batch=8)
    # 6 tasks over one group, one worker: every batch is mixed, no switches.
    assert report.task_switches == 0
    assert report.completed == len(stream)


def test_coalesced_singleton_rows_match_singular_execution(plan6):
    """The M=1 case: a task owning exactly one row of a mixed batch must be
    bit-identical to running that row alone (``matmul_rowsafe`` regression)."""
    names = plan6.task_names()
    rng = np.random.default_rng(41)
    stream = [(name, rng.normal(size=plan6.input_shape)) for name in names]
    runtime = ServingRuntime(
        plan6, micro_batch=len(names), max_wait=5.0, workers=1, coalesce=True
    )
    futures = [runtime.submit(task, image) for task, image in stream]
    runtime.start()
    runtime.stop(drain=True)
    for (task, image), future in zip(stream, futures):
        single = plan6.run(image[None], task)[0]
        np.testing.assert_array_equal(future.result(timeout=10.0), single)


def test_sharded_coalesced_batches_match_singular_same_rows(plan6):
    stream = interleaved_stream(plan6, 12, seed=29)
    runtime = ShardedRuntime(
        plan6, micro_batch=6, max_wait=5.0, workers=1, coalesce=True
    )
    futures = [runtime.submit(task, image) for task, image in stream]
    runtime.start()
    report = runtime.stop(drain=True)
    results = [future.result(timeout=30.0) for future in futures]
    assert_same_rows_exact(plan6, stream, results, micro_batch=6)
    assert report.backend == "process"
    assert report.task_switches == 0
    assert sum(report.per_task.values()) == len(stream)


def test_int8_coalesced_batches_match_singular_same_rows(plan6):
    from repro.engine import calibrate_plan
    from repro.engine.kernels import quantize_plan_kernels

    quantized = build_plan(6)  # fresh kernels; same weights as plan6 (same seed)
    profile = calibrate_plan(quantized, batch_size=8, seed=3)
    named = quantize_plan_kernels(quantized, profile, set_variant=True)
    assert named, "no kernel accepted int8 quantization"
    stream = interleaved_stream(quantized, 16, seed=31)
    runtime = ServingRuntime(
        quantized, micro_batch=8, max_wait=5.0, workers=1, coalesce=True
    )
    futures = [runtime.submit(task, image) for task, image in stream]
    runtime.start()
    runtime.stop(drain=True)
    results = [future.result(timeout=10.0) for future in futures]
    # The integer datapath accumulates exactly at any batch size, so the
    # same-rows contract holds bit for bit on int8 too.
    assert_same_rows_exact(quantized, stream, results, micro_batch=8)


# -------------------------------------------------------------- accounting ----
def test_coalescing_eliminates_task_switches_and_keeps_per_task_exact(plan6):
    stream = interleaved_stream(plan6, 30, seed=13)
    reports = {}
    for coalesce in (False, True):
        runtime = ServingRuntime(
            plan6, micro_batch=6, max_wait=5.0, workers=1, coalesce=coalesce
        )
        futures = [runtime.submit(task, image) for task, image in stream]
        runtime.start()
        reports[coalesce] = runtime.stop(drain=True)
        for future in futures:
            future.result(timeout=10.0)
    expected = {}
    for task, _ in stream:
        expected[task] = expected.get(task, 0) + 1
    # Interleaved arrivals over 6 tasks force per-task batching to alternate;
    # one coalescing group never switches.
    assert reports[False].task_switches > 0
    assert reports[True].task_switches == 0
    assert reports[True].per_task == expected
    assert reports[False].per_task == expected
    assert reports[True].mean_batch_size > reports[False].mean_batch_size


def test_summary_truncates_per_task_at_scale_but_to_dict_is_complete():
    per_task = {f"task{i:03d}": 1000 - i for i in range(120)}
    report = ServingReport(
        policy="coalescing", workers=2, duration=1.0, completed=sum(per_task.values()),
        rejected=0, errors=0, cancelled=0, num_batches=10, task_switches=0,
        latency=LatencyDigest.of([0.01]),
        queue_wait=LatencyDigest.of([0.001]),
        per_task=per_task,
    )
    text = report.summary()
    assert "task000: 1000" in text
    assert "… and 110 more tasks" in text
    shown = [name for name in per_task if name in text]
    assert len(shown) == 10, "summary must show exactly the top-K tasks"
    assert report.to_dict()["per_task"] == per_task
    assert set(report.to_dict()["per_task"]) == set(per_task)


def test_zipf_scenario_is_deterministic_and_long_tailed():
    tasks = [f"task{i:03d}" for i in range(50)]
    generator = LoadGenerator.zipf(tasks, rate=100.0, alpha=1.1, seed=5)
    trace_a = generator.trace(400)
    trace_b = LoadGenerator.zipf(tasks, rate=100.0, alpha=1.1, seed=5).trace(400)
    assert [(a.time, a.task) for a in trace_a] == [(b.time, b.task) for b in trace_b]
    counts = {}
    for arrival in trace_a:
        counts[arrival.task] = counts.get(arrival.task, 0) + 1
    # Power-law mix: the head task dominates, the tail is wide.
    assert counts.get(tasks[0], 0) > counts.get(tasks[-1], 0)
    assert counts.get(tasks[0], 0) >= 0.05 * len(trace_a)
    assert len(counts) > 20, "a 50-task zipf trace must actually reach the tail"
    with pytest.raises(ValueError):
        LoadGenerator.zipf(tasks, rate=100.0, alpha=0.0)


# ------------------------------------------------------------------ memory ----
def test_worker_pools_and_reachable_kernels_stay_flat_in_task_count():
    buffers = {}
    reachable = {}
    for num_tasks in (10, 100):
        plan = build_plan(num_tasks, seed=2)
        # Three full micro-batches: identical batch-size keys in both runs,
        # so any pool-size difference is genuinely task-count-driven.
        stream = interleaved_stream(plan, 24, seed=3)
        runtime = ServingRuntime(
            plan, micro_batch=8, max_wait=5.0, workers=1, coalesce=True
        )
        futures = [runtime.submit(task, image) for task, image in stream]
        runtime.start()
        pool = runtime._pools[0]
        runtime.stop(drain=True)
        for future in futures:
            future.result(timeout=10.0)
        buffers[num_tasks] = len(pool)
        reachable[num_tasks] = len(PlanSet(plan).kernel_uids(reachable_only=True))
    # Every task of the dense group executes on one leader plan, so the
    # worker's workspace pool must not grow with the task count.
    assert buffers[100] == buffers[10]
    assert reachable[100] == reachable[10]


def test_reachable_pruning_drops_non_leader_specialized_buffers(plan6):
    specialized = specialize_tasks(plan6, compact_reduction=False)
    plans = PlanSet(plan6, specialized)
    full = plans.kernel_uids(reachable_only=False)
    live = plans.kernel_uids(reachable_only=True)
    assert live < full, "non-leader specialized plans must be prunable"
    # Simulate the hot-swap prune: buffers owned by unreachable kernels go.
    from repro.engine.plan import WorkspacePool

    pool = WorkspacePool()
    for uid in full:
        pool.get(uid, "x", (1, 4), np.float32)
    pool.retain(live)
    assert len(pool) == len(live)


def test_shared_plan_bytes_stay_flat_at_100_tasks():
    single = build_plan(1, seed=2)
    many = build_plan(100, seed=2)
    single_shared = PlanSet(single).plan_bytes(shared_only=True)
    many_shared = PlanSet(many).plan_bytes(shared_only=True)
    assert many_shared <= 3 * single_shared
    # Total bytes still scale with N — the per-task thresholds/head are the
    # paper's irreducible payload; only the backbone is deduplicable.
    assert PlanSet(many).plan_bytes() > PlanSet(single).plan_bytes()


def test_specialized_shared_bytes_stay_bounded(plan6):
    specialized = specialize_tasks(plan6, compact_reduction=False)
    single = PlanSet(plan6).plan_bytes(shared_only=True)
    with_spec = PlanSet(plan6, specialized).plan_bytes(shared_only=True)
    # Pass-through specialization aliases the dense arrays, so resident
    # shared bytes barely move even with a specialized plan per task.
    assert with_spec <= 3 * single


# ------------------------------------------------------------- PlanSpec v4 ----
def test_planspec_v4_dedups_spawn_payload_and_shares_backbone(plan6):
    specialized = specialize_tasks(plan6, compact_reduction=False)
    dedup = PlanSetSpec.capture(plan6, specialized, dedup=True)
    plain = PlanSetSpec.capture(plan6, specialized, dedup=False)
    dedup_bytes = len(pickle.dumps(dedup, protocol=pickle.HIGHEST_PROTOCOL))
    plain_bytes = len(pickle.dumps(plain, protocol=pickle.HIGHEST_PROTOCOL))
    assert dedup_bytes * 2 < plain_bytes, (
        f"v4 dedup must ship the backbone once: {dedup_bytes} vs {plain_bytes}"
    )
    restored = pickle.loads(pickle.dumps(dedup, protocol=pickle.HIGHEST_PROTOCOL))
    rebuilt_plan, rebuilt_spec = restored.build_all()
    # Rebuilt specialized plans share backbone memory with the rebuilt dense
    # plan — the worker-resident analogue of the pickle dedup.
    assert any(
        np.shares_memory(kernel.weight_t, spec_kernel.weight_t)
        for kernel, spec_kernel in zip(
            rebuilt_plan.kernels, rebuilt_spec[plan6.task_names()[0]].kernels
        )
        if hasattr(kernel, "weight_t") and hasattr(spec_kernel, "weight_t")
    )
    rng = np.random.default_rng(8)
    images = rng.normal(size=(4,) + plan6.input_shape)
    for task in plan6.task_names()[:2]:
        np.testing.assert_array_equal(rebuilt_plan.run(images, task), plan6.run(images, task))
        np.testing.assert_array_equal(
            rebuilt_spec[task].run(images, task), specialized[task].run(images, task)
        )


def test_pre_v4_specs_without_tensor_table_still_build(plan6):
    spec = PlanSetSpec.capture(plan6, {}, dedup=False)
    assert spec.tensors is None
    # A pre-v4 pickle has no ``tensors`` attribute at all; build_all must
    # tolerate its absence, not just a None value.
    if "tensors" in getattr(spec, "__dict__", {}):
        del spec.__dict__["tensors"]
    rebuilt, _ = spec.build_all()
    rng = np.random.default_rng(9)
    images = rng.normal(size=(2,) + plan6.input_shape)
    task = plan6.task_names()[0]
    np.testing.assert_array_equal(rebuilt.run(images, task), plan6.run(images, task))
