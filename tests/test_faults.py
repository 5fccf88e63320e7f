"""Chaos suite: the supervisor survives the failures it was built for.

Process-spawning tests keep fleets small (each worker pays an interpreter +
NumPy import), but the guarantees are exercised for real: a SIGKILLed shard
is reaped and respawned, its in-flight batches re-dispatch bit-identically,
silent workers flatline, a dead fleet degrades (shed, then explicit
rejection) instead of hanging, and a crash mid-swap aborts the swap
fleet-wide.  Everything timing-sensitive that *can* run without processes
does — the retry budget and backoff pacing run on a :class:`ManualClock`
with zero real sleeps.
"""

from __future__ import annotations

import pickle
import re
import time
import urllib.request

import numpy as np
import pytest

from repro.engine import PlanSetSpec, calibrate_plan, compile_network, specialize_tasks
from repro.engine.scheduling import MicroBatch
from repro.mime import MimeNetwork, add_structured_sparsity_task
from repro.models import vgg_tiny
from repro.serving import (
    FaultEvent,
    FaultInjector,
    ManualClock,
    MetricsServer,
    NoLiveShardsError,
    QueueFullError,
    RedispatchError,
    RetryBudgetExceededError,
    ServingRequest,
    ServingResult,
    ShardedRuntime,
    parse_chaos_spec,
)
from repro.serving.faults import ChaosDisabledError
from repro.serving.request import DeadlineExpiredError

TASKS = ("alpha", "beta", "gamma")


@pytest.fixture(scope="module")
def served():
    rng = np.random.default_rng(42)
    backbone = vgg_tiny(num_classes=6, input_size=16, in_channels=3, rng=rng)
    network = MimeNetwork(backbone)
    network.eval()
    for name in TASKS:
        add_structured_sparsity_task(
            network, name, num_classes=5, rng=rng, dead_fraction=0.3, threshold_jitter=0.2
        )
    plan = compile_network(network, dtype=np.float32)
    return network, plan


def deterministic_stream(plan, per_task: int, seed: int):
    """(task, image) pairs whose batcher grouping is fully deterministic."""
    rng = np.random.default_rng(seed)
    stream = []
    for _ in range(per_task):
        for task in TASKS:
            stream.append((task, rng.normal(size=plan.input_shape)))
    return stream


def expected_rows(plan, stream, micro_batch):
    """Per-request reference logits, keyed by (task, k-th submission of task).

    The FIFO size trigger groups each task's images in submission order, so
    the k-th submitted image of a task is the k-th row of that task's
    concatenated reference batches — valid even when a retry split re-executes
    a request in a smaller batch, because every op is row-independent.
    """
    per_task = {}
    for task, image in stream:
        per_task.setdefault(task, []).append(image)
    rows = {}
    for task, images in per_task.items():
        groups = [
            plan.run(np.stack(images[start : start + micro_batch]), task)
            for start in range(0, len(images), micro_batch)
        ]
        logits = np.concatenate(groups)
        for k in range(len(images)):
            rows[(task, k)] = logits[k]
    return rows


def wait_until(predicate, timeout=30.0, interval=0.01, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


# ------------------------------------------------------------- chaos spec ----
class TestChaosSpec:
    def test_parses_and_sorts_by_offset(self):
        events = parse_chaos_spec("slow:1:0.05@3, crash:0@1.5, drop_heartbeats:2")
        assert [e.kind for e in events] == ["drop_heartbeats", "crash", "slow"]
        assert events[1] == FaultEvent(kind="crash", shard=0, arg=None, at=1.5)
        assert events[2].arg == pytest.approx(0.05)

    @pytest.mark.parametrize(
        "spec",
        [
            "explode:0@1",  # unknown kind
            "hang:0@1",  # hang requires a duration argument
            "crash:zero@1",  # non-integer shard
            "crash:0:1:2@1",  # too many fields
            "crash:0@soon",  # non-numeric offset
            "slow:1:fast@1",  # non-numeric argument
            " , ,",  # no events at all
            "crash:-1@1",  # negative shard
        ],
    )
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            parse_chaos_spec(spec)

    def test_injector_refuses_chaos_disabled_runtime(self, served):
        _, plan = served
        runtime = ShardedRuntime(plan, workers=1, heartbeat_interval=None)
        assert not runtime.chaos
        with pytest.raises(ChaosDisabledError):
            FaultInjector(runtime)

    def test_env_var_arms_chaos(self, served, monkeypatch):
        _, plan = served
        monkeypatch.setenv("REPRO_CHAOS", "1")
        runtime = ShardedRuntime(plan, workers=1, heartbeat_interval=None)
        assert runtime.chaos
        FaultInjector(runtime)  # accepted without chaos=True


# ----------------------------------------------------------- PlanSetSpec -----
class TestPlanSetSpec:
    def test_round_trip_rebuilds_dense_and_specialized(self, served):
        _, plan = served
        profile = calibrate_plan(plan, batch_size=8, seed=3)
        specialized = specialize_tasks(plan, profile=profile)
        spec = pickle.loads(pickle.dumps(PlanSetSpec.capture(plan, specialized)))
        dense, rebuilt = spec.build_all()
        assert dense.task_names() == plan.task_names()
        assert set(rebuilt) == set(specialized)
        batch = np.random.default_rng(7).normal(size=(4,) + plan.input_shape)
        for task in TASKS:
            np.testing.assert_array_equal(plan.run(batch, task), dense.run(batch, task))
            np.testing.assert_array_equal(
                specialized[task].run(batch, task), rebuilt[task].run(batch, task)
            )


# ------------------------------------------------- retry budget (no procs) ---
class TestRetryBudget:
    """Deterministic budget/backoff arithmetic — no processes, no real sleeps."""

    def _runtime(self, plan, clock, **kwargs):
        kwargs.setdefault("max_retries", 2)
        return ShardedRuntime(
            plan,
            workers=2,
            micro_batch=4,
            heartbeat_interval=None,
            retry_backoff=0.05,
            clock=clock,
            **kwargs,
        )

    def _batch(self, plan, clock, count=4, max_retries=2, deadline=None, task="alpha"):
        requests = []
        for index in range(count):
            image = np.zeros(plan.input_shape, dtype=np.float32)
            result = ServingResult(index, task, clock(), deadline)
            requests.append(
                ServingRequest(
                    index, task, image, clock(), deadline, result, max_retries=max_retries
                )
            )
        return MicroBatch(task, requests, 0)

    def test_backoff_doubles_and_is_paced_on_the_injectable_clock(self, served):
        _, plan = served
        clock = ManualClock()
        runtime = self._runtime(plan, clock)
        batch = self._batch(plan, clock)

        runtime._requeue_or_fail(batch, "shard worker 0 died")
        assert all(request.attempts == 1 for request in batch.requests)
        ((due, parked),) = runtime._retry_queue
        assert parked is batch  # original composition, re-queued whole
        assert due == pytest.approx(0.05)

        # Not due yet: pumping moves nothing into the batcher.
        clock.advance(0.049)
        runtime._pump_retries()
        assert runtime._batcher.pending() == 0 and runtime._retry_queue

        # Due exactly at now + backoff.
        clock.advance(0.001)
        runtime._pump_retries()
        assert runtime._batcher.pending() == 4 and not runtime._retry_queue

        # Second failure: delay doubles (backoff * 2**(attempts - 1)).
        runtime._batcher.next_batch()
        runtime._requeue_or_fail(batch, "shard worker 1 died")
        ((due, _),) = runtime._retry_queue
        assert due == pytest.approx(clock() + 0.1)
        assert runtime.report().redispatched == 8

    def test_budget_exhaustion_fails_explicitly(self, served):
        _, plan = served
        clock = ManualClock()
        runtime = self._runtime(plan, clock)
        batch = self._batch(plan, clock, max_retries=1)
        runtime._requeue_or_fail(batch, "shard worker 0 died")  # attempt 1: retried
        runtime._requeue_or_fail(batch, "shard worker 1 died")  # attempt 2: over budget
        assert len(runtime._retry_queue) == 1  # only the first requeue parked it
        for request in batch.requests:
            with pytest.raises(RetryBudgetExceededError, match="max_retries=1"):
                request.result.result(timeout=0)

    def test_unreachable_deadline_fails_without_burning_the_budget(self, served):
        _, plan = served
        clock = ManualClock()
        runtime = self._runtime(plan, clock)
        # The earliest retry lands at +0.05; a deadline before that is hopeless.
        batch = self._batch(plan, clock, deadline=clock() + 0.01)
        runtime._requeue_or_fail(batch, "shard worker 0 died")
        for request in batch.requests:
            with pytest.raises(DeadlineExpiredError):
                request.result.result(timeout=0)
        assert not runtime._retry_queue

    def test_undispatched_requeue_charges_no_attempt(self, served):
        _, plan = served
        clock = ManualClock()
        runtime = self._runtime(plan, clock)
        batch = self._batch(plan, clock, max_retries=0)
        # The fleet was dark: nothing was dispatched, so even a zero budget
        # survives — only the deadline can fail a request here.
        runtime._requeue_or_fail(batch, "no live shard worker", dispatched=False)
        assert all(request.attempts == 0 for request in batch.requests)
        assert len(runtime._retry_queue) == 1
        assert runtime.report().redispatched == 0


# ------------------------------------------------------- live supervision ----
class TestSupervision:
    def test_sigkill_mid_load_loses_nothing(self, served):
        """The ISSUE acceptance test: SIGKILL one shard of a 4-shard fleet
        mid-load → every accepted request completes bit-identically (or would
        fail explicitly), the shard respawns, and throughput recovers."""
        _, plan = served
        micro_batch = 4
        runtime = ShardedRuntime(
            plan,
            workers=4,
            micro_batch=micro_batch,
            max_wait=5.0,
            chaos=True,
            heartbeat_interval=0.05,
            flatline_after=200,  # heartbeats must not race the staged hang
            max_retries=3,
        )
        stream = deterministic_stream(plan, per_task=16, seed=11)
        rows = expected_rows(plan, stream, micro_batch)
        futures = [runtime.submit(task, image) for task, image in stream]
        runtime.start()
        try:
            injector = FaultInjector(runtime)
            victim = runtime._home_shard("alpha")
            # Freeze the victim so its dispatched batches cannot complete,
            # then SIGKILL it mid-hang — in-flight work is guaranteed lost.
            injector.hang(victim, 30.0)
            wait_until(
                lambda: runtime._shards[victim].inflight > 0,
                message="dispatched batches on the victim shard",
            )
            injector.crash(victim)

            counts = {task: 0 for task in TASKS}
            for future, (task, _) in zip(futures, stream):
                logits = future.result(timeout=120)
                np.testing.assert_array_equal(logits, rows[(task, counts[task])])
                counts[task] += 1

            # The victim respawns and the fleet serves a second wave.
            wait_until(
                lambda: runtime.live_shards() == 4, message="victim shard respawn"
            )
            wave2 = deterministic_stream(plan, per_task=4, seed=13)
            rows2 = expected_rows(plan, wave2, micro_batch)
            futures2 = [runtime.submit(task, image) for task, image in wave2]
            counts = {task: 0 for task in TASKS}
            for future, (task, _) in zip(futures2, wave2):
                logits = future.result(timeout=120)
                np.testing.assert_array_equal(logits, rows2[(task, counts[task])])
                counts[task] += 1
        finally:
            report = runtime.stop(drain=True)
        assert report.restarts >= 1
        assert report.redispatched >= 1
        assert report.completed == len(stream) + len(wave2)
        assert runtime._shards[victim].restarts >= 1

    def test_idle_fleet_crash_is_detected_by_the_monitor(self, served):
        """No dispatcher activity needed: the monitor thread's reaper notices
        a dead worker on its own timer and respawns it."""
        _, plan = served
        runtime = ShardedRuntime(plan, workers=2, heartbeat_interval=0.05)
        runtime.start()
        try:
            runtime._shards[1].process.kill()
            wait_until(
                lambda: runtime._shards[1].restarts >= 1 and runtime.live_shards() == 2,
                message="idle crash detection + respawn",
            )
            # The respawned worker serves.
            image = np.random.default_rng(3).normal(size=plan.input_shape)
            np.testing.assert_array_equal(
                runtime.submit("beta", image).result(timeout=60),
                plan.run(image[None], "beta")[0],
            )
        finally:
            report = runtime.stop(drain=True)
        assert report.restarts >= 1

    def test_silent_worker_flatlines_and_is_replaced(self, served):
        """drop_heartbeats: the worker stays alive but never pongs — the
        supervisor must flatline it on missed pings alone."""
        _, plan = served
        runtime = ShardedRuntime(
            plan, workers=2, chaos=True, heartbeat_interval=0.05, flatline_after=3
        )
        runtime.start()
        try:
            FaultInjector(runtime).drop_heartbeats(0)
            wait_until(
                lambda: runtime._shards[0].restarts >= 1 and runtime.live_shards() == 2,
                message="flatline kill + respawn",
            )
        finally:
            report = runtime.stop(drain=True)
        assert report.flatline_alerts >= 1
        assert report.restarts >= 1

    def test_hung_shard_straggler_is_routed_around_then_flatlined(self, served):
        """A hung home shard: its queued batch re-dispatches after the
        flatline kill while the live shard steals the rest — nothing is lost
        and every answer stays bit-identical."""
        _, plan = served
        micro_batch = 2
        runtime = ShardedRuntime(
            plan,
            workers=2,
            micro_batch=micro_batch,
            max_wait=5.0,
            chaos=True,
            heartbeat_interval=0.05,
            flatline_after=4,
            max_retries=3,
        )
        runtime.start()
        try:
            FaultInjector(runtime).hang(runtime._home_shard("alpha"), 30.0)
            stream = deterministic_stream(plan, per_task=4, seed=23)
            rows = expected_rows(plan, stream, micro_batch)
            futures = [runtime.submit(task, image) for task, image in stream]
            counts = {task: 0 for task in TASKS}
            for future, (task, _) in zip(futures, stream):
                logits = future.result(timeout=120)
                np.testing.assert_array_equal(logits, rows[(task, counts[task])])
                counts[task] += 1
        finally:
            report = runtime.stop(drain=True)
        assert report.flatline_alerts >= 1
        assert report.restarts >= 1

    def test_dead_fleet_fails_fast_with_restarts_disabled(self, served):
        """restart=False + the only worker killed mid-load: in-flight work
        fails explicitly (no hang, no silent loss) and further submits are
        rejected immediately with a clear error."""
        _, plan = served
        runtime = ShardedRuntime(
            plan,
            workers=1,
            micro_batch=4,
            max_wait=5.0,
            chaos=True,
            restart=False,
            heartbeat_interval=0.05,
            max_retries=3,
        )
        stream = deterministic_stream(plan, per_task=4, seed=29)
        runtime.start()
        try:
            # Hang the only worker before any request exists: the hang is
            # then ahead of every batch on its FIFO task queue, so no batch
            # can execute before the crash.
            injector = FaultInjector(runtime)
            injector.hang(0, 30.0)
            futures = [runtime.submit(task, image) for task, image in stream]
            wait_until(
                lambda: runtime._shards[0].inflight > 0,
                message="dispatched batches on the only shard",
            )
            injector.crash(0)
            for future in futures:
                with pytest.raises((NoLiveShardsError, RedispatchError)):
                    future.result(timeout=60)
            wait_until(lambda: runtime.live_shards() == 0, message="fleet reaped")
            image = np.zeros(plan.input_shape, dtype=np.float32)
            with pytest.raises(NoLiveShardsError, match="no live shard"):
                runtime.submit("alpha", image)
        finally:
            report = runtime.stop(drain=False)
        assert report.restarts == 0

    def test_degraded_fleet_sheds_load(self, served):
        """With half the fleet dead and restarts off, admission control
        shrinks the bounded queue pro rata and sheds the overflow."""
        _, plan = served
        runtime = ShardedRuntime(
            plan,
            workers=2,
            micro_batch=64,  # batches never close: pending load just sits
            max_wait=60.0,
            max_pending=8,
            restart=False,
            heartbeat_interval=0.05,
        )
        runtime.start()
        try:
            runtime._shards[0].process.kill()
            wait_until(lambda: runtime.live_shards() == 1, message="half-dead fleet")
            image = np.zeros(plan.input_shape, dtype=np.float32)
            for _ in range(4):  # degraded bound: max_pending * 1 // 2
                runtime.submit("alpha", image)
            with pytest.raises(QueueFullError, match="degraded"):
                runtime.submit("alpha", image)
        finally:
            report = runtime.stop(drain=False)
        # Exactly the one overflow submit is shed — never double-counted as
        # rejected, and never incremented twice along the admission path.
        assert report.shed == 1
        assert report.rejected == 0

    def test_crash_mid_swap_aborts_fleet_wide_and_rejoins_old_generation(self, served):
        """A shard dying during phase 1 of a hot-swap aborts the swap on
        every shard: the old plans keep serving, and the respawned shard
        rejoins on the old (committed) generation.  A later swap succeeds and
        catches everyone up."""
        network, plan = served
        plan_v2 = compile_network(network, dtype=np.float32)
        runtime = ShardedRuntime(plan, workers=2, heartbeat_interval=None)
        runtime.start()
        try:
            victim = runtime._shards[0]
            victim.process.kill()
            wait_until(
                lambda: not victim.process.is_alive(), message="victim process exit"
            )
            with pytest.raises(RuntimeError, match="mid-swap"):
                runtime.swap(plan_v2, timeout=60.0)

            # Old plans still serve, bit-identically.
            image = np.random.default_rng(5).normal(size=plan.input_shape)
            np.testing.assert_array_equal(
                runtime.submit("gamma", image).result(timeout=60),
                plan.run(image[None], "gamma")[0],
            )

            # Manual supervision (heartbeat_interval=None): reap + respawn,
            # then the collector reactivates the shard at generation 0.
            def recovered():
                runtime._supervise_once()
                return runtime.live_shards() == 2

            wait_until(recovered, message="respawn after aborted swap")
            assert runtime._current_generation == 0
            assert all(shard.generation == 0 for shard in runtime._shards)

            # The fleet is whole again: the swap now goes through everywhere.
            runtime.swap(plan_v2, timeout=60.0)
            assert runtime._current_generation > 0
            assert all(
                shard.generation == runtime._current_generation
                for shard in runtime._shards
            )
            np.testing.assert_array_equal(
                runtime.submit("gamma", image).result(timeout=60),
                plan_v2.run(image[None], "gamma")[0],
            )
        finally:
            report = runtime.stop(drain=True)
        assert report.restarts >= 1


class TestMetricsEndpointUnderFaults:
    def test_endpoint_reports_restart_counters_after_sigkill(self, served):
        """Scrape the Prometheus endpoint mid-load after an injected SIGKILL:
        the restart counter and restart event must move, the flatline-alert
        counter must be exposed, and the per-shard queue-depth gauge must
        name every shard in the fleet."""
        _, plan = served
        runtime = ShardedRuntime(
            plan,
            workers=2,
            micro_batch=4,
            max_wait=0.01,
            max_retries=3,
            heartbeat_interval=0.05,
        )
        runtime.start()
        server = MetricsServer(runtime.stream).start()
        try:
            stream = deterministic_stream(plan, 4, seed=11)
            futures = [runtime.submit(task, image) for task, image in stream]
            runtime._shards[0].process.kill()
            wait_until(
                lambda: runtime.report().restarts >= 1,
                message="supervisor respawned the killed shard",
            )
            for future in futures:
                future.result(timeout=60)
            body = urllib.request.urlopen(server.url, timeout=10).read().decode()
            assert re.search(r"^repro_serving_restarts_total [1-9]", body, re.M)
            assert re.search(r"^repro_serving_flatline_alerts_total \d", body, re.M)
            assert re.search(
                r'^repro_serving_events_total\{kind="restart"\} [1-9]', body, re.M
            )
            assert 'repro_serving_shard_queue_depth{shard="0"}' in body
            assert 'repro_serving_shard_queue_depth{shard="1"}' in body
            restart_events = [
                event for event in runtime.stream.events() if event.kind == "restart"
            ]
            assert restart_events and "respawned" in restart_events[0].detail
        finally:
            server.stop()
            report = runtime.stop(drain=True)
        assert report.restarts >= 1
        assert report.completed == len(stream)
