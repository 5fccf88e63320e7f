"""perfbench: the repo's one canonical performance benchmark.

Five workloads over one model (``vgg_small``@32x32, float32, chooser-tuned
kernels), five end-to-end metrics and a per-layer attribution measured **from
outside** — by timing calls into the public functions of ``src/repro`` — so
the benchmark can be run unchanged against any commit.  ``BENCHMARK.json`` at
the repo root declares the command, workloads, metrics and regression bounds;
``perfbench/README.md`` explains each choice.

Entry points (run from the repo root)::

    python3 -m perfbench --seed 0            # all workloads, untraced + traced
    python3 -m perfbench run --workload engine_dense --seed 0 --seconds 10 --trace 0
    python3 -m perfbench compare A.json B.json

Importing this package imports neither NumPy nor ``repro``: the entry point
pins the BLAS thread pools first (see ``__main__``).
"""
