from __future__ import annotations

import ctypes
import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import ROOT, WORKLOADS
from perfbench import compare, runner, spec, suite
from perfbench.__main__ import _children
from perfbench.check import EXEMPT_CEILING, check_outputs
from perfbench.stats import chunk_medians, spread, whole_window
from perfbench.trace import TracedPlan, Tracer
from perfbench.workloads import WORKLOADS as CONFIGS
from perfbench.workloads import Scale, build_network, build_plans, image_pool


NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ------------------------------------------------------------ declaration --
def test_benchmark_json_meets_the_contract():
    raw = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(raw) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(raw["paths"]) <= 16 and all((ROOT / path).is_dir() for path in raw["paths"])
    assert len(raw["command"]) <= 32 and all(len(part) <= 200 for part in raw["command"])
    assert isinstance(raw["run_seconds"], int) and 1 <= raw["run_seconds"] <= 60
    assert 2 <= len(raw["workloads"]) <= 8
    assert 1 <= len(raw["end_to_end"]) <= 16 and 1 <= len(raw["per_layer"]) <= 128
    names = []
    for entry in raw["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
        names.append(entry["name"])
    for entry in raw["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in raw["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in raw["end_to_end"] + raw["per_layer"]:
        assert UNIT_RE.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
        names.append(entry["name"])
    assert all(NAME_RE.match(name) for name in names)
    assert len(set(names)) == len(names)
    setup = next(entry for entry in raw["end_to_end"] if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in raw["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    assert set(names[: len(raw["workloads"])]) == set(CONFIGS)


def test_exact_metrics_are_declared():
    declared = {metric.name for metric in spec.load().per_layer}
    assert spec.EXACT_ALWAYS | spec.EXACT_ENGINE <= declared


# ------------------------------------------------------------------- runs --
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("traced", (False, True))
def test_every_declared_metric_is_emitted(runs, workload, traced):
    run = runs.get(workload, traced)
    result = run["last_line"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec.load().metrics(traced)
    assert list(result["metrics"]) == [metric.name for metric in declared]
    for metric in declared:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit and np.isfinite(entry["value"])
        if not traced:
            assert entry["value"] > 0
    # No leaked shared-memory segment or semaphore at interpreter exit.
    assert "resource_tracker" not in run["stderr"] and "leaked" not in run["stderr"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_hash_and_exact_counts(runs, workload):
    first, second = runs.get(workload, True), runs.get(workload, True, attempt=1)
    assert first["context"]["trace_hash"] == second["context"]["trace_hash"] != ""
    exact = spec.EXACT_ALWAYS | (spec.EXACT_ENGINE if CONFIGS[workload].kind == "engine" else set())
    for name in sorted(exact):
        values = [run["result"]["metrics"][name]["value"] for run in (first, second)]
        assert values[0] == values[1], name


@pytest.mark.parametrize("workload", ("engine_dense", "engine_specialized"))
def test_engine_span_self_times_account_for_the_window(runs, workload):
    metrics = runs.get(workload, True)["result"]["metrics"]
    assert 0.98 <= metrics["perfbench.span_coverage_share"]["value"] <= 1.0
    per_image = sum(
        metrics[f"engine.kernels.{kind}_us_per_image"]["value"]
        for kind in ("conv", "linear", "pool", "other")
    )
    assert per_image > 0 and metrics["engine.engine.sched_overhead_share"]["value"] < 1


@pytest.mark.parametrize("workload", ("serve_poisson", "serve_manytask", "serve_process_swap"))
def test_batches_recovered_from_futures_match_the_report(runs, workload):
    metrics = runs.get(workload, True)["result"]["metrics"]
    assert metrics["perfbench.batch_recovery_gap"]["value"] == 0
    assert metrics["serving.metrics.report_mismatch"]["value"] == 0
    assert metrics["perfbench.replay_mismatch"]["value"] == 0
    assert metrics["serving.batcher.mean_batch_rows"]["value"] >= 1


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [sys.executable if command[0] == "python3" else command[0], *command[1:],
         "--workload", "engine_dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_a_run_leaves_no_process_behind(runs):
    """Not even the resource tracker, which outlives the interpreter that started it."""
    libc = ctypes.CDLL(None)
    assert libc.prctl(36, 1, 0, 0, 0) == 0  # subreaper: what a run orphans becomes ours
    try:
        before = set(_children())
        run = runs.get("serve_process_swap", False, attempt=2)
        assert set(_children()) == before
        assert "leaked" not in run["stderr"]
    finally:
        libc.prctl(36, 0, 0, 0, 0)


# -------------------------------------------------------------- in-process --
@pytest.fixture(scope="module")
def smoke_plans():
    scale = Scale(smoke=True)
    pool = image_pool(scale, seed=3)
    dense = CONFIGS["serve_manytask"]
    network = build_network(dense, scale, seed=3)
    plan, _, _ = build_plans(dense, scale, network, pool)
    sparse = CONFIGS["engine_specialized"]
    sparse_network = build_network(sparse, scale, seed=3)
    sparse_plan, specialized, _ = build_plans(sparse, scale, sparse_network, pool)
    return pool, plan, sparse_plan, specialized


def test_traced_kernel_walk_is_bit_identical_to_plan_run(smoke_plans):
    pool, plan, _, specialized = smoke_plans
    tracer = Tracer()
    batch = pool[:8]
    assert np.array_equal(TracedPlan(plan, tracer).run(batch, "task001"), plan.run(batch, "task001"))
    rows = [f"task{index:03d}" for index in (0, 5, 5, 2, 9, 0, 1, 7)]
    assert np.array_equal(
        TracedPlan(plan, tracer).run_mixed(batch, rows), plan.run_mixed(batch, rows)
    )
    for name, spec_plan in specialized.items():
        assert np.array_equal(TracedPlan(spec_plan, tracer).run(batch, name),
                              spec_plan.run(batch, name))
    kernels = [span for span in tracer.spans if span[1] == "engine.kernels"]
    assert len(kernels) >= 2 * len(plan.kernels)
    # Children nest inside their parents, so self times add up to the roots.
    roots = sum(span[3] - span[2] for span in tracer.spans if span[4] < 0)
    assert sum(tracer.self_times()) == pytest.approx(roots)


def test_output_check_passes_served_logits_and_flags_wrong_ones(smoke_plans):
    pool, plan, sparse_plan, specialized = smoke_plans
    sample = []
    for name, spec_plan in specialized.items():
        for start in (0, 16):
            logits = spec_plan.run(pool[start : start + 16], name)
            sample += [(name, start + row, logits[row]) for row in range(16)]
    wrong, strict, fragile, exempted = check_outputs(sparse_plan, pool, sample, batch=8)
    assert wrong == 0 and strict > 0.95 and fragile < 0.2
    assert exempted <= EXEMPT_CEILING * len(sample)
    # Isolated faults: another request's image, a non-finite logit.
    broken = list(sample)
    for position in (0, 1, 2, 3):
        task, index, logits = broken[position]
        broken[position] = (task, index + 4, logits)
    broken[4] = (broken[4][0], broken[4][1], np.full_like(broken[4][2], np.nan))
    # A wrong image hides only behind a fragile request, so most are caught.
    assert 4 <= check_outputs(sparse_plan, pool, broken, batch=8)[0] <= 5
    # A systematic 1 % error breaks the declared tolerance on every request
    # that is not fragile.
    scaled = [(task, index, 1.01 * logits) for task, index, logits in sample]
    wrong, strict, fragile, exempted = check_outputs(sparse_plan, pool, scaled, batch=8)
    assert strict == 0 and wrong >= round((1 - fragile) * len(sample))
    # ... and the fragile ones only while they are few: past the ceiling the
    # exemption is void, so an error confined to fragile requests cannot hide.
    assert wrong == len(sample) or exempted <= EXEMPT_CEILING * len(sample)


def test_whole_window_counts_a_stall_the_steady_state_does_not():
    # 400 requests due 1 ms apart, 2 ms latency; the program stalls from 0.2 s
    # to 0.3 s, so the 100 requests due meanwhile finish in a burst after it.
    records = []
    for index in range(400):
        due = 0.001 * index
        finish = 0.3 + 0.0001 * (index - 200) if 200 <= index < 300 else due
        records.append((due, finish + 0.002, 1))
    rate, p50, p95 = whole_window(records, wall=records[-1][1])
    assert rate == pytest.approx(400 / 0.401)
    assert p50 == pytest.approx(0.002) and p95 > 0.08  # a quarter of the requests waited
    steady_rate, steady_p50, steady_p95 = chunk_medians(records, origin=0.0)
    assert steady_rate == pytest.approx(1000.0, rel=1e-6)
    assert steady_p50 == pytest.approx(0.002) and steady_p95 == pytest.approx(0.002)
    assert spread([1.0, 1.0, 1.0, 1.0, 1.0]) == 0.0


def test_traced_run_is_invalid_when_tracing_costs_too_much(monkeypatch):
    # Reference scale, where the limit applies; any overhead at all is too much.
    monkeypatch.setattr(runner, "MAX_TRACE_OVERHEAD", -1.0)
    run = runner.run_workload("engine_dense", seed=7, seconds=0.5, traced=True, smoke=False)
    overhead = run["result"]["metrics"]["perfbench.trace_overhead_share"]["value"]
    assert -0.05 < overhead < 0.05  # interleaved jobs: a real measurement, not noise
    assert run["result"]["failed"] == 0
    assert run["context"]["valid"] is False and run["result"]["correct"] is False


# ----------------------------------------------------------------- compare --
def _result(tmp_path, name, value, spread_value=0.01, **fingerprint):
    declaration = spec.load()
    fp = {"cpu_model": "x", "nproc": 2, "python": "3", "numpy": "2", "blas": "b",
          "threads": {}, "git_sha": "abc", "seed": 0}
    fp.update(fingerprint)
    row = {
        "end_to_end": {m.name: {"value": value, "unit": m.unit} for m in declaration.end_to_end},
        "spread": {m.name: spread_value for m in declaration.end_to_end},
    }
    document = {"seed": 0, "seconds": 10.0, "fingerprint": fp,
                "workloads": {w: row for w in declaration.workloads}}
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def test_compare_applies_bounds_and_refuses_mismatched_hosts(tmp_path, capsys):
    base = _result(tmp_path, "a.json", 100.0)
    assert compare.main([base, _result(tmp_path, "b.json", 101.0)]) == 0
    assert "same" in capsys.readouterr().out
    # 100 -> 140: worse for every lower-is-better metric, beyond every bound.
    assert compare.main([base, _result(tmp_path, "c.json", 140.0)]) == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "1.400x of base 100" in out
    # Spread wider than the bound: the difference cannot be told from noise.
    assert compare.main([base, _result(tmp_path, "d.json", 140.0, spread_value=0.5)]) == 0
    assert "unresolved" in capsys.readouterr().out
    assert compare.main([base, _result(tmp_path, "e.json", 100.0, nproc=64)]) == 2
    assert "refusing" in capsys.readouterr().out


# ------------------------------------------------------------------- suite --
def _canned_run(traced, value, failed=0, exit_code=0):
    metrics = spec.load().metrics(traced)
    return {
        "exit_code": exit_code,
        "result": {"correct": not failed, "attempted": 10, "failed": failed,
                   "metrics": {m.name: {"value": value, "unit": m.unit} for m in metrics}},
        "context": {"valid": True, "fingerprint": {"seed": 0}},
    }


def test_suite_aggregates_repeats_and_fails_on_a_failed_run(tmp_path, monkeypatch, capsys):
    declaration = spec.load()
    calls = []

    def run_once(workload, seed, seconds, traced):
        calls.append((workload, seed, seconds, traced))
        return _canned_run(traced, 100.0 + seed)

    monkeypatch.setattr(suite, "run_once", run_once)
    out = tmp_path / "result.json"
    assert suite.main(["--seed", "4", "--repeats", "5", "--out", str(out)]) == 0
    # Every workload at the declared length: seeds 4..8 untraced, seed 4 traced.
    assert [call[0] for call in calls[::6]] == list(declaration.workloads)
    assert {call[2] for call in calls} == {float(declaration.run_seconds)}
    assert [call[1:] for call in calls[:6]] == [
        (seed, float(declaration.run_seconds), False) for seed in range(4, 9)
    ] + [(4, float(declaration.run_seconds), True)]
    document = json.loads(out.read_text())
    for row in document["workloads"].values():
        assert row["end_to_end"]["images_per_s"]["value"] == 106.0  # median of 104..108
        assert row["spread"]["images_per_s"] == pytest.approx(3.0 / 106.0)
        assert set(row["per_layer"]) == {metric.name for metric in declaration.per_layer}
    printed = capsys.readouterr().out
    for metric in declaration.end_to_end + declaration.per_layer:
        assert metric.name in printed

    # A run that failed an operation, or hung, fails the suite; the file is still written.
    monkeypatch.setattr(suite, "run_once", lambda workload, seed, seconds, traced: (
        _canned_run(traced, 1.0, failed=1, exit_code=1) if workload == "serve_poisson"
        else _canned_run(traced, 1.0)))
    assert suite.main(["--out", str(out)]) == 1
    monkeypatch.setattr(suite, "run_once", lambda workload, seed, seconds, traced: (
        None if traced and workload == "engine_dense" else _canned_run(traced, 1.0)))
    assert suite.main(["--out", str(out)]) == 1
    assert set(json.loads(out.read_text())["workloads"]) == set(declaration.workloads)


def test_verdict_direction():
    higher = spec.Metric("images_per_s", "img/s", "higher", 0.07)
    lower = spec.Metric("latency_p50_ms", "ms", "lower", 0.07)
    assert compare.verdict(higher, 100.0, 90.0, [0.01, 0.01]) == "regressed"
    assert compare.verdict(higher, 100.0, 110.0, [0.01, 0.01]) == "improved"
    assert compare.verdict(lower, 100.0, 110.0, [0.01, 0.01]) == "regressed"
    assert compare.verdict(lower, 100.0, 104.0, [0.01, 0.01]) == "same"
    assert compare.verdict(lower, 100.0, 110.0, [float("nan"), 0.01]) == "unresolved"
