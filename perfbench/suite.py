"""The suite: every workload, untraced and traced, each in a fresh interpreter.

Writes one result file (``perfbench/out/result_seed<S>.json`` by default): the
host fingerprint, and per workload the end-to-end metrics of each repeat, their
medians and spreads, and the per-layer metrics of the traced run.  Exits
non-zero when any run failed an operation, produced a wrong output, was
invalid, or hung.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import spec
from perfbench.stats import spread

#: Wall-clock limit of one workload run, set-up and check included.
RUN_TIMEOUT_S = 170.0


def run_once(workload: str, seed: int, seconds: float, traced: bool) -> Optional[dict]:
    """One ``perfbench run`` in a fresh interpreter; ``None`` if it hung or crashed."""
    with tempfile.TemporaryDirectory(dir=_out_dir()) as scratch:
        context = Path(scratch) / "run.json"
        command = [
            sys.executable, "-m", "perfbench", "run", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced)),
            "--context", str(context),
        ]
        process = subprocess.Popen(command, cwd=spec.ROOT, stdout=subprocess.PIPE, text=True)
        try:
            process.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # ``run`` has a watchdog of its own, which fires first; on SIGTERM
            # it ends the workload and everything the workload started.
            process.terminate()
            process.communicate()
            print(f"  {workload}: no result within {RUN_TIMEOUT_S:.0f} s — killed", flush=True)
            return None
        if not context.exists():
            print(f"  {workload}: exited with code {process.returncode} and no result", flush=True)
            return None
        run = json.loads(context.read_text())
        run["exit_code"] = process.returncode
        return run


def _out_dir() -> Path:
    spec.OUT_DIR.mkdir(parents=True, exist_ok=True)
    return spec.OUT_DIR


def _print_metrics(title: str, metrics: Dict[str, dict], spreads: Dict[str, float]) -> None:
    print(f"  {title}")
    for name, entry in metrics.items():
        note = ""
        if name in spreads and spreads[name] == spreads[name]:  # not NaN
            note = f"   (spread {100 * spreads[name]:.1f} % over repeats)"
        print(f"    {name:46s} {entry['value']:>16.6g} {entry['unit']}{note}")


def main(argv: List[str]) -> int:
    declaration = spec.load()
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="untraced runs per workload, seeds S, S+1, ...; spreads need >= 4")
    parser.add_argument("--out", type=Path, help="result file")
    args = parser.parse_args(argv)

    # Every workload, at the declared window length: the only configuration
    # whose result files compare.  One workload at another length is ``run``.
    seconds = float(declaration.run_seconds)
    document = {"seed": args.seed, "seconds": seconds, "repeats": args.repeats,
                "fingerprint": None, "workloads": {}}
    ok = True
    for name in declaration.workloads:
        print(f"== {name}: {declaration.workloads[name]}", flush=True)
        untraced = [run_once(name, args.seed + repeat, seconds, False)
                    for repeat in range(args.repeats)]
        traced = run_once(name, args.seed, seconds, True)
        runs = [run for run in untraced + [traced] if run is not None]
        if len(runs) < args.repeats + 1 or any(run["exit_code"] != 0 for run in runs):
            ok = False
        if not runs:
            continue
        document["fingerprint"] = document["fingerprint"] or runs[0]["context"]["fingerprint"]
        entry = {"runs": runs, "end_to_end": {}, "per_layer": {}, "spread": {}}
        done = [run for run in untraced if run is not None]
        for metric in declaration.end_to_end:
            values = [run["result"]["metrics"][metric.name]["value"] for run in done]
            if values:
                entry["end_to_end"][metric.name] = {
                    "value": statistics.median(values), "unit": metric.unit}
                entry["spread"][metric.name] = spread(values)
        if traced is not None:
            entry["per_layer"] = traced["result"]["metrics"]
        document["workloads"][name] = entry
        _print_metrics("end-to-end (median of repeats)", entry["end_to_end"], entry["spread"])
        _print_metrics("per-layer (traced run)", entry["per_layer"], {})
        failed = sum(run["result"]["failed"] for run in runs)
        attempted = sum(run["result"]["attempted"] for run in runs)
        print(f"  failed {failed} of {attempted} attempted; "
              f"{'all runs valid' if all(run['context']['valid'] for run in runs) else 'INVALID RUN'}",
              flush=True)
    out = args.out or _out_dir() / f"result_seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1))
    print(f"result written to {out}; {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1
