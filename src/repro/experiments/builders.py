"""Shared workload builders behind the serving-facing CLI commands.

``serve``, ``serve-bench`` and ``export`` all need the same three steps —
declare the workload knobs, build a randomly-initialised multi-task network
plus its compiled plan, and optionally calibrate/specialize per-task plans.
This module is the single home for that plumbing (it used to be duplicated
inside ``repro.cli``), plus the small JSON-trajectory helper the benchmark
files and ``serve-bench --json`` share.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict, Optional


def positive_int(value: str) -> int:
    parsed = int(value)
    if parsed <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return parsed


def unit_float(value: str) -> float:
    parsed = float(value)
    if not 0.0 <= parsed < 1.0:
        raise argparse.ArgumentTypeError(f"expected a float in [0, 1), got {value}")
    return parsed


def add_workload_arguments(sub: argparse.ArgumentParser, default_requests: int) -> None:
    """The model/traffic/specialization knobs every serving command shares."""
    sub.add_argument("--model", choices=["vgg_tiny", "vgg_small"], default="vgg_tiny")
    sub.add_argument("--input-size", type=positive_int, default=16,
                     help="square input resolution")
    sub.add_argument("--tasks", type=positive_int, default=3,
                     help="number of child tasks to register")
    sub.add_argument("--requests", type=positive_int, default=default_requests,
                     help="total images in the request stream")
    sub.add_argument("--micro-batch", type=positive_int, default=8,
                     help="engine micro-batch size")
    sub.add_argument("--dtype", choices=["float32", "float64"], default="float32",
                     help="engine compute dtype (training path is always float64)")
    sub.add_argument("--seed", type=int, default=7)
    sub.add_argument("--dead-fraction", type=unit_float, default=0.0,
                     help="fraction of each masked layer's channels made structurally "
                          "dead per task (models the paper's per-task structured sparsity)")
    sub.add_argument("--specialize", action="store_true",
                     help="calibrate and serve per-task dead-channel-eliminated plans")
    sub.add_argument("--dead-threshold", type=unit_float, default=0.0,
                     help="calibrated survival rate at or below which a channel "
                          "counts as dead (used with --specialize)")
    sub.add_argument("--exact-specialize", action="store_true",
                     help="bit-exact specialization (scatter mode): logits match the "
                          "dense plan bit for bit, at the cost of the throughput win")
    sub.add_argument("--dynamic", action="store_true",
                     help="autotune and enable the dynamic sparse row-gather fast path")
    sub.add_argument("--kernels",
                     choices=["default", "auto", "direct"],
                     default="default",
                     help="kernel variant selection: 'auto' runs the per-layer chooser "
                          "on every served plan, 'direct' forces the direct conv on "
                          "every stride-1 conv, 'default' keeps the blocked conv")
    sub.add_argument("--int8", action="store_true",
                     help="attach calibrated int8 weights to every GEMM kernel; with "
                          "--kernels=auto int8 competes in the chooser, otherwise it "
                          "is switched on directly")
    sub.add_argument("--coalesce", action="store_true",
                     help="cross-task batch coalescing: tasks sharing a backbone "
                          "batch together and execute as one shared-backbone pass "
                          "with per-row threshold masks (the many-task fast path)")


def add_fault_arguments(sub: argparse.ArgumentParser) -> None:
    """Supervision/chaos knobs of the process backend (``--backend=process``)."""
    sub.add_argument("--max-retries", type=int, default=2,
                     help="re-dispatch budget per accepted request after a shard "
                          "death (process backend)")
    sub.add_argument("--heartbeat-interval", type=float, default=0.25,
                     help="seconds between supervisor heartbeat/respawn ticks "
                          "(process backend)")
    sub.add_argument("--flatline-after", type=positive_int, default=8,
                     help="consecutive unanswered heartbeats before an "
                          "alive-but-silent shard is killed and replaced")
    sub.add_argument("--no-restart", action="store_true",
                     help="disable respawning dead shard workers")
    sub.add_argument("--chaos", metavar="SPEC", default=None,
                     help="fault-injection schedule, e.g. "
                          "'crash:0@2.5,slow:1:0.05@1,drop_heartbeats:2@3' "
                          "(kind:shard[:arg]@seconds, comma-separated; arms the "
                          "worker-side chaos hooks)")


def add_metrics_arguments(sub: argparse.ArgumentParser) -> None:
    """Observability knobs: the Prometheus endpoint and window cadence."""
    sub.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                     help="serve Prometheus text metrics on this port while the "
                          "run is live (0 = pick an ephemeral port; the chosen "
                          "port is printed)")
    sub.add_argument("--metrics-window", type=float, default=1.0, metavar="SECONDS",
                     help="windowed-snapshot interval of the metrics stream "
                          "(seconds on the runtime clock)")


def build_serving_network(args: argparse.Namespace):
    """A randomly-initialised multi-task network + compiled plan for benchmarks."""
    import numpy as np

    from repro.engine import compile_network
    from repro.mime import MimeNetwork, add_structured_sparsity_task
    from repro.models import vgg_small, vgg_tiny

    rng = np.random.default_rng(args.seed)
    builder = {"vgg_tiny": vgg_tiny, "vgg_small": vgg_small}[args.model]
    backbone = builder(num_classes=8, input_size=args.input_size, in_channels=3, rng=rng)
    network = MimeNetwork(backbone)
    network.eval()
    for index in range(args.tasks):
        # Jittered thresholds give each task a distinct sparsity level;
        # --dead-fraction additionally kills a per-task channel subset (the
        # paper's structured sparsity that specialization exploits).
        add_structured_sparsity_task(
            network, f"task{index}", num_classes=10, rng=rng,
            dead_fraction=getattr(args, "dead_fraction", 0.0), threshold_jitter=0.2,
        )
    plan = compile_network(network, dtype=np.dtype(args.dtype))
    return network, backbone, plan, rng


def configure_kernel_variants(args: argparse.Namespace, plan, profile=None,
                              label: str = "plan") -> None:
    """Apply the ``--kernels`` / ``--int8`` flags to one executable plan.

    Runs the supported pipeline order — quantize first (so ``auto`` lets the
    int8 variant compete), then choose.  ``--int8`` needs calibrated
    activation ranges measured on *this* plan's geometry; when ``profile``
    lacks them (or is ``None``) a range-recording calibration pass runs here.
    """
    from repro.engine import (
        autotune_kernel_variants,
        calibrate_plan,
        force_kernel_variant,
        quantize_plan_kernels,
    )

    mode = getattr(args, "kernels", "default")
    int8 = getattr(args, "int8", False)
    if mode == "default" and not int8:
        return
    if int8:
        if profile is None or not getattr(profile, "ranges", None):
            profile = calibrate_plan(plan, batch_size=args.micro_batch, seed=args.seed)
        quantized = quantize_plan_kernels(plan, profile, set_variant=(mode != "auto"))
        if mode != "auto":
            print(f"int8 kernels on {label}: {', '.join(quantized)}")
    if mode == "auto":
        from repro.engine.kernels import TIMING_CACHE

        hits_before = TIMING_CACHE.hits
        choices = autotune_kernel_variants(plan, batch=args.micro_batch, seed=args.seed)
        reused = TIMING_CACHE.hits - hits_before
        chosen = ", ".join(f"{name}={variant}" for name, variant in choices.items())
        note = f" ({reused} cached timings reused)" if reused else ""
        print(f"kernel chooser on {label}: {{{chosen}}}{note}")
    elif mode != "default":
        force_kernel_variant(plan, mode)


def maybe_specialize(args: argparse.Namespace, plan, profile=None) -> Dict[str, object]:
    """Calibrate + specialize per-task plans when ``--specialize`` was given.

    ``profile`` short-circuits the calibration pass with an existing
    :class:`~repro.engine.CalibrationProfile` (the export command calibrates
    once and ships the same profile inside the artifact).

    Also the single place the ``--kernels`` / ``--int8`` flags take effect:
    the dense plan and every specialized plan are configured here, each on
    its own geometry (a compacted GEMM can prefer a different variant than
    its dense ancestor, so the chooser reruns per plan).
    """
    from repro.engine import autotune_dynamic_crossover, specialize_tasks

    dynamic = getattr(args, "dynamic", False)
    if dynamic:
        config = autotune_dynamic_crossover(plan, batch=args.micro_batch, seed=args.seed)
        tuned = ", ".join(f"{name}={value:.2f}" for name, value in config.crossover.items())
        print(f"dynamic sparse fast path: autotuned crossovers {{{tuned}}}")
    if not getattr(args, "specialize", False):
        configure_kernel_variants(args, plan, profile=profile, label="dense plan")
        return {}
    specialized = specialize_tasks(
        plan,
        profile=profile,
        dead_threshold=args.dead_threshold,
        compact_reduction=not getattr(args, "exact_specialize", False),
        calibration_seed=args.seed,
    )
    configure_kernel_variants(args, plan, profile=profile, label="dense plan")
    for name, spec in sorted(specialized.items()):
        if dynamic:
            # Crossovers are geometry-specific: the compacted GEMMs have
            # different gather-vs-dense economics than the dense plan's, so
            # each specialized plan gets its own measured config.
            autotune_dynamic_crossover(spec, batch=args.micro_batch, seed=args.seed)
        # Specialization resets variants (new geometry); ranges measured on
        # the dense plan do not transfer to compacted activations, so each
        # specialized plan calibrates and chooses for itself.
        configure_kernel_variants(args, spec, label=f"specialized plan '{name}'")
        dead = sum(spec.dead_channel_counts().values())
        print(
            f"specialized plan for {name}: {dead} dead channels eliminated, "
            f"{100.0 * spec.mac_reduction():.1f}% of dense MACs avoided"
        )
    return specialized


def load_artifact_plans(path: str):
    """Resolve ``path`` to a (artifact, store-or-None) pair for serving.

    ``path`` may be one artifact directory (contains ``manifest.json``) or a
    :class:`~repro.artifacts.ModelStore` root, in which case the ``latest``
    version is loaded and the store is returned so a recalibration loop can
    publish follow-up versions back into it.
    """
    from repro.artifacts import MANIFEST_NAME, ArtifactError, ModelArtifact, ModelStore

    root = Path(path)
    if (root / MANIFEST_NAME).is_file():
        return ModelArtifact.load(root), None
    store = ModelStore(root)
    if store.latest() is None:
        raise ArtifactError(
            f"{path} is neither an artifact directory nor a model store with a "
            "latest version"
        )
    return store.load(), store


def append_bench_entry(path: str | Path, entry: dict) -> Path:
    """Append one machine-readable entry to a ``BENCH_*.json`` trajectory file."""
    file = Path(path)
    payload = json.loads(file.read_text()) if file.exists() else {"entries": []}
    payload["entries"].append(entry)
    file.write_text(json.dumps(payload, indent=2) + "\n")
    return file


def build_runtime(args: argparse.Namespace, plan, specialized, recorder=None,
                  max_pending: Optional[int] = None):
    """Construct the serving backend the CLI flags select."""
    from repro.serving import BACKENDS

    kwargs = dict(
        policy=getattr(args, "policy", "fifo-deadline"),
        micro_batch=args.micro_batch,
        max_wait=getattr(args, "max_wait", 0.02),
        workers=args.workers,
        specialized=specialized,
    )
    if recorder is not None:
        kwargs["recorder"] = recorder
    if max_pending is not None:
        kwargs["max_pending"] = max_pending
    if getattr(args, "coalesce", False):
        kwargs["coalesce"] = True
    if getattr(args, "metrics_window", None) is not None:
        kwargs["window_interval"] = args.metrics_window
    if getattr(args, "max_retries", None) is not None:
        kwargs["max_retries"] = args.max_retries
    if args.backend == "process":
        # Supervision knobs only exist on the process backend.
        if getattr(args, "heartbeat_interval", None) is not None:
            kwargs["heartbeat_interval"] = args.heartbeat_interval
        if getattr(args, "flatline_after", None) is not None:
            kwargs["flatline_after"] = args.flatline_after
        if getattr(args, "no_restart", False):
            kwargs["restart"] = False
        if getattr(args, "chaos", None):
            kwargs["chaos"] = True
    return BACKENDS[args.backend](plan, **kwargs)


def start_chaos_schedule(args: argparse.Namespace, runtime):
    """Launch the ``--chaos`` fault schedule against a started runtime.

    Returns the running :class:`~repro.serving.faults.FaultSchedule`, or
    ``None`` when no schedule was requested.  Only meaningful on the process
    backend — the thread backend shares a fate with its workers.
    """
    spec = getattr(args, "chaos", None)
    if not spec:
        return None
    if args.backend != "process":
        raise SystemExit("--chaos requires --backend=process")
    from repro.serving import FaultSchedule, parse_chaos_spec

    events = parse_chaos_spec(spec)
    print(f"chaos schedule armed: {spec}")
    return FaultSchedule(runtime, events).start()


def start_metrics_server(args: argparse.Namespace, runtime):
    """Start the ``--metrics-port`` Prometheus endpoint for a started runtime.

    Also starts the runtime stream's background window poller so scraped
    window gauges move without anyone calling ``poll()`` by hand.  Returns
    the running :class:`~repro.serving.MetricsServer`, or ``None`` when no
    port was requested (note ``0`` requests an *ephemeral* port and is not
    "off").
    """
    port = getattr(args, "metrics_port", None)
    if port is None:
        return None
    from repro.serving import MetricsServer

    runtime.stream.start()
    server = MetricsServer(runtime.stream, port=port).start()
    print(f"metrics endpoint: {server.url}")
    return server
