"""Run one workload once: set-up, warm-up, timed window, output check, metrics.

An untraced run measures the end-to-end metrics, a traced run the per-layer
ones; both run the same window, and a traced run is invalid when recording
its spans cost ``MAX_TRACE_OVERHEAD`` or more of the window's throughput.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List

from perfbench import host, spec
from perfbench.check import check_outputs
from perfbench.stats import chunk_medians, whole_window
from perfbench.trace import Tracer
from perfbench.workloads import make_driver, reference_plan

#: A traced run whose ``perfbench.trace_overhead_share`` reaches this is
#: invalid: its per-layer times would describe the tracer.  Enforced at
#: reference scale; vgg_tiny's kernels are too short to hide a span.
MAX_TRACE_OVERHEAD = 0.05

_SETUP_LAYER_KEYS = {
    "compile_s": "engine.plan.compile_s",
    "autotune_s": "engine.kernels.autotune_s",
    "calibrate_s": "engine.calibrate.calibrate_s",
    "specialize_s": "engine.specialize.specialize_s",
}


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """Execute ``name`` and return the full result (contract line + context)."""
    declaration = spec.load()
    driver = make_driver(name, smoke, seed)
    setups: List[Dict[str, float]] = []
    tracer = Tracer() if traced else None
    try:
        for _ in range(driver.scale.setup_repeats):
            driver.tear_down()
            setups.append(driver.set_up())
        live = driver.live
        driver.warm_up()
        window = driver.measure(seconds, tracer)
        rss = host.peak_rss_mb()  # while serving workers are still alive
        layers = dict(window.layers)
        if traced:
            layers.update(driver.plan_set_metrics())
            layers.update(driver.finish())
    finally:
        driver.tear_down()
    wrong, strict_share, fragile_share, exempted = check_outputs(
        reference_plan(live), driver.pool, window.sample, driver.scale.micro_batch
    )

    setup = {key: statistics.median(timing[key] for timing in setups) for key in setups[0]}
    failed = window.failed + wrong + int(layers.get("perfbench.replay_mismatch", 0))
    valid = window.valid
    # Gated: whole-window throughput and median latency, in which a stall
    # counts however short it is, and the steady-state p95.  The whole-window
    # p95 is recorded but cannot be gated: when the host is busy its stalls
    # delay more than 5 % of the requests in some runs and not in others, and
    # ten runs of one commit spread by 32-83 % on serve_poisson and 19-24 % on
    # engine_specialized, against the driver's largest bound of 25 %; the
    # steady-state p95 of the same runs spread by 9-14 %.
    rate, p50, p95 = whole_window(window.records, window.wall)
    steady = chunk_medians(window.records, window.origin)
    if traced:
        valid = valid and (smoke or layers["perfbench.trace_overhead_share"] < MAX_TRACE_OVERHEAD)
        layers["perfbench.strict_match_share"] = strict_share
        for key, metric in _SETUP_LAYER_KEYS.items():
            if key in setup:
                layers[metric] = setup[key]
        values = {metric.name: float(layers.get(metric.name, 0.0))
                  for metric in declaration.per_layer}
        unknown = set(layers) - set(values)
        if unknown:
            raise KeyError(f"per-layer metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    else:
        values = {
            "setup_s": setup["setup_s"],
            "images_per_s": rate,
            "latency_p50_ms": 1e3 * p50,
            "latency_p95_ms": 1e3 * steady[2],
            "peak_rss_mb": rss,
        }
    units = {metric.name: metric.unit for metric in declaration.metrics(traced)}
    result = {
        "correct": failed == 0 and valid,
        "attempted": window.attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }
    context = {
        "workload": name,
        "traced": traced,
        "seconds": seconds,
        "model": driver.scale.model,
        "valid": valid,
        "fingerprint": host.fingerprint(spec.ROOT, seed),
        "kernel_choices": live.kernel_choices(),
        "trace_hash": window.trace_hash,
        "wall_s": window.wall,
        "completed": sum(record[2] for record in window.records),
        "whole_window_p95_ms": 1e3 * p95,
        # Medians over ten equal-count chunks of the window: what it did when
        # nothing stalled.  Next to the whole-window numbers they tell a stall
        # from a uniform slow-down.
        "steady_state": dict(zip(("images_per_s", "latency_p50_s", "latency_p95_s"), steady)),
        "setup_steps_s": setup,
        "output_check": {"sampled": len(window.sample), "wrong": wrong,
                         "strict_match_share": strict_share,
                         "fragile_share": fragile_share, "exempted": exempted},
    }
    if traced:
        tracer.dump(spec.OUT_DIR / f"trace_{name}.json", {"workload": name, "seed": seed})
    return {"result": result, "context": context}


def print_run(run: dict) -> None:
    """Human-readable lines, then the contract's JSON object as the last line."""
    context, result = run["context"], run["result"]
    kind = "traced (per-layer)" if context["traced"] else "untraced (end-to-end)"
    print(f"# perfbench {context['workload']} — {kind}, {context['model']}, "
          f"seed {context['fingerprint']['seed']}, {context['seconds']} s")
    check = context["output_check"]
    print(f"#   window: {context['completed']} images in {context['wall_s']:.3f} s, "
          f"p95 {context['whole_window_p95_ms']:.2f} ms; "
          f"steady state {context['steady_state']['images_per_s']:.1f} img/s; output check: "
          f"{check['wrong']} wrong, {check['exempted']} exempted of {check['sampled']}")
    for name, entry in result["metrics"].items():
        print(f"{name:48s} {entry['value']:>16.6g} {entry['unit']}")
    if not context["valid"]:
        print("# INVALID RUN: the load generator ran too late to offer the stated load, "
              f"or tracing cost {100 * MAX_TRACE_OVERHEAD:.0f} % or more")
    print(json.dumps(result))
