"""Online serving: Poisson traffic through the thread-parallel runtime.

Where ``compiled_engine_serving.py`` drains a known request set offline, this
example runs the full *online* story the serving subsystem adds:

1. train a small multi-task MIME network (shared parent + per-task
   thresholds) and compile it to an immutable float32 plan;
2. generate three synthetic traffic scenarios with :class:`LoadGenerator` —
   uniform, skewed (one hot task) and bursty Poisson arrivals;
3. serve each through a :class:`ServingRuntime` — dynamic batching closed on
   size, on a free worker or on max-wait, deadline-aware scheduling, worker threads with private
   workspace pools, bounded-queue admission control — and print the latency
   percentiles / throughput / task-switch report;
4. feed the *measured online schedule* into the systolic-array simulator: the
   interleaving the worker pool actually produced is the schedule the
   hardware model charges threshold reloads against.

Run with:  python examples/online_serving.py
"""

from __future__ import annotations

import numpy as np

from repro.baselines import train_parent
from repro.datasets import DataLoader, build_child_tasks, imagenet_surrogate
from repro.engine import compile_network
from repro.mime import MimeNetwork, ThresholdTrainer
from repro.models import extract_layer_shapes, vgg_small
from repro.serving import LoadGenerator, ServingRuntime


def main() -> None:
    rng = np.random.default_rng(1)

    # --- train + compile (same recipe as compiled_engine_serving.py) --------
    parent_task = imagenet_surrogate(scale=0.5, backbone_size=32, samples_per_class=25)
    parent = vgg_small(num_classes=parent_task.num_classes, input_size=32, rng=rng)
    print("Training the shared parent backbone ...")
    train_parent(parent, parent_task, epochs=4, batch_size=32, rng=rng)

    children = build_child_tasks(scale=0.6, backbone_size=32, samples_per_class=30)
    network = MimeNetwork(parent)
    trainer = ThresholdTrainer(network, lr=1e-3, beta=1e-6)
    for task in children:
        network.add_task(task.name, task.num_classes, rng=rng)
        print(f"Training thresholds for child task '{task.name}' ...")
        trainer.train_task(
            task.name, DataLoader(task.train, batch_size=32, shuffle=True, rng=rng), epochs=4
        )
    network.eval()
    plan = compile_network(network, dtype=np.float32)
    task_names = plan.task_names()
    print(f"\nCompiled plan: {len(plan.kernels)} fused kernels, {len(task_names)} tasks")

    # Serve real test images: one pool per task, requests cycle through it.
    images = {
        task.name: np.stack([task.test[i][0] for i in range(min(32, len(task.test)))])
        for task in children
    }

    # --- three traffic scenarios through the online runtime -----------------
    scenarios = {
        "uniform": LoadGenerator.uniform(task_names, rate=600.0, seed=7),
        "skewed 80/10/10": LoadGenerator.skewed(task_names, rate=600.0,
                                                hot_fraction=0.8, seed=7),
        "bursty 4x": LoadGenerator.bursty(task_names, rate=600.0, burst_factor=4.0,
                                          burst_period=0.1, seed=7),
    }
    last_runtime = None
    for label, generator in scenarios.items():
        runtime = ServingRuntime(
            plan,
            policy="fifo-deadline",
            micro_batch=8,
            max_wait=0.01,           # waits for company only while both workers are busy
            workers=2,               # two worker threads over one immutable plan
            max_pending=512,         # admission control: bounded request queue
        )
        with runtime:
            futures = generator.replay(
                runtime, images, num_requests=120, deadline_slack=0.25
            )
            for future in futures:
                if future is not None:
                    future.result(timeout=30.0)
        print(f"\n--- {label} ---")
        print(runtime.report().summary())
        last_runtime = runtime

    # --- hardware estimate from the measured *online* schedule --------------
    report = last_runtime.hardware_report(extract_layer_shapes(parent), conv_only=True)
    print(
        f"\nSystolic-array estimate for the measured online run "
        f"({last_runtime.recorder.num_images()} images, MIME config): "
        f"{report.total_energy().total:,.0f} energy units, "
        f"{report.total_cycles():,.0f} cycles"
    )


if __name__ == "__main__":
    main()
