"""``perfbench compare A.json B.json``: B against base A, per workload row.

For every workload and end-to-end metric the ratio B/A is printed with its
base, and judged against the metric's bound from ``BENCHMARK.json``:

* ``regressed`` — B is worse than A by more than the bound;
* ``improved`` / ``same`` — otherwise;
* ``unresolved`` — either side's run-to-run spread (inter-quartile distance
  over the median of its repeats) exceeds the bound, or is unknown because the
  file holds fewer than four repeats: the difference cannot be told from noise.

Files taken on different hosts, interpreters, NumPy/BLAS builds or thread pins
do not compare; the command refuses them.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import List

from perfbench import spec
from perfbench.host import COMPARABLE


def verdict(metric: spec.Metric, base: float, new: float, spreads: List[float]) -> str:
    if any(not (s == s) or s > metric.bound for s in spreads):  # NaN = unknown spread
        return "unresolved"
    worse = (new - base) / base if metric.better == "lower" else (base - new) / base
    if worse > metric.bound:
        return "regressed"
    return "improved" if worse < -metric.bound else "same"


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench compare")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base, new = (json.loads(path.read_text()) for path in (args.base, args.new))

    mismatched = [key for key in COMPARABLE
                  if base["fingerprint"].get(key) != new["fingerprint"].get(key)]
    if base["seconds"] != new["seconds"]:
        mismatched.append("seconds")
    if mismatched:
        for key in mismatched:
            print(f"fingerprint mismatch on {key}: "
                  f"{base['fingerprint'].get(key, base.get(key))!r} vs "
                  f"{new['fingerprint'].get(key, new.get(key))!r}")
        print("refusing to compare results that were not taken like for like")
        return 2

    declaration = spec.load()
    regressed = 0
    print(f"base {args.base} @ {base['fingerprint']['git_sha'][:12]}  "
          f"new {args.new} @ {new['fingerprint']['git_sha'][:12]}")
    for name in declaration.workloads:
        if name not in base["workloads"] or name not in new["workloads"]:
            print(f"{name}: missing from one side — not compared")
            continue
        rows = (base["workloads"][name], new["workloads"][name])
        print(name)
        for metric in declaration.end_to_end:
            old_value, new_value = (row["end_to_end"][metric.name]["value"] for row in rows)
            spreads = [row["spread"].get(metric.name, float("nan")) for row in rows]
            outcome = verdict(metric, old_value, new_value, spreads)
            regressed += outcome == "regressed"
            print(f"  {metric.name:16s} {new_value / old_value:7.3f}x of base "
                  f"{old_value:.6g} {metric.unit} -> {new_value:.6g} "
                  f"({metric.better} is better, bound {100 * metric.bound:.0f} %): {outcome}")
    return 1 if regressed else 0
