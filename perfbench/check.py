"""Output check: served logits against an untuned, unspecialized reference plan.

The reference is ``compile_network`` of the same seeded network with every
kernel on its default lowering and no specialization, run through
``EnginePlan.run``.  A served request must match it inside
``winograd_tolerance(dtype)`` with the same argmax — the repo's declared
tolerance contract — unless the request is **fragile**.

Fragile requests exist because the chooser may pick ULP-class lowerings
(direct, Winograd, compacted reductions): they reorder float32 sums, and a
pre-activation that lands within rounding of its threshold then flips one mask
bit.  A flip in the last masked layer moves a logit by threshold x head weight
— as much as serving a different image would — on a few requests in a
thousand.  That is inside the contract (the mask is a discontinuity; no
tolerance on values survives it), and a workload must have no failing
operation, so such requests are identified rather than tolerated by a wider
band: the reference is run twice more with every threshold scaled by
``1 +/- FRAGILE_SHIFT``, and a request whose reference logits change at all has
a pre-activation that close to a threshold.  A fragile request that misses the
strict contract is *exempted*: held to a gross band only (``WRONG_SIGMAS``
standard deviations of the sample's reference logits: another task's
thresholds or head are ~2 sigma off).  Every other request is held to the
strict contract, where a wrong image, a wrong task or a torn row cannot hide.

A wrong image could pass the gross band, so the exemption is rationed:
exempted requests are counted, and when they exceed ``EXEMPT_CEILING`` of the
sample all of them count as wrong.  Mask flips exempted none in 267 of 275
runs and at most 6 requests of 512 (engine_specialized, whose 512 samples
cover 384 distinct requests); the ceiling bounds what the check can leave
unverified whatever the fragile share is.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.engine import winograd_tolerance

#: Relative threshold shift that marks a request fragile.  Reordered float32
#: reductions move a pre-activation by ~1e-6 of a threshold; 1e-5 covers that
#: tenfold while leaving most requests under the strict contract.
FRAGILE_SHIFT = 1e-5
#: Gross band for fragile requests, in standard deviations of the reference logits.
WRONG_SIGMAS = 1.0
#: Largest share of the sample that may pass on the gross band alone.
EXEMPT_CEILING = 0.04
#: Requests compared per workload (the issue's floor).
SAMPLE = 512


def pick_sample(count: int, size: int = SAMPLE) -> List[int]:
    """``size`` evenly spaced positions out of ``count`` (all when fewer)."""
    if count <= size:
        return list(range(count))
    return [int(position) for position in np.linspace(0, count - 1, size)]


def _with_thresholds_scaled(plan, task: str, factor: float):
    """``plan`` serving ``task`` alone, its thresholds multiplied by ``factor``."""
    original = plan.tasks[task]
    scaled = dataclasses.replace(
        original, thresholds=[(t * factor).astype(t.dtype) for t in original.thresholds]
    )
    return dataclasses.replace(plan, tasks={task: scaled})


def check_outputs(
    reference, pool: np.ndarray, sample: Sequence[Tuple[str, int, np.ndarray]], batch: int
) -> Tuple[int, float, float, int]:
    """Compare ``(task, pool index, logits)`` samples with the reference plan.

    Returns ``(wrong requests, share matching strictly, share fragile,
    requests exempted)``.
    """
    by_task: Dict[str, List[Tuple[int, np.ndarray]]] = defaultdict(list)
    for task, index, logits in sample:
        by_task[task].append((index, logits))
    got_rows, ref_rows, fragile_rows = [], [], []
    for task, rows in by_task.items():
        shifted = [
            _with_thresholds_scaled(reference, task, 1.0 + sign * FRAGILE_SHIFT)
            for sign in (-1.0, 1.0)
        ]
        for start in range(0, len(rows), batch):
            part = rows[start : start + batch]
            images = pool[[index for index, _ in part]]
            ref = reference.run(images, task)
            fragile = np.zeros(len(part), dtype=bool)
            for plan in shifted:
                fragile |= (plan.run(images, task) != ref).any(axis=1)
            ref_rows.append(ref)
            fragile_rows.append(fragile)
            got_rows.append(np.stack([logits for _, logits in part]))
    got, ref, fragile = (np.concatenate(rows) for rows in (got_rows, ref_rows, fragile_rows))
    strict = np.isclose(got, ref, **winograd_tolerance(reference.dtype)).all(axis=1) & (
        got.argmax(axis=1) == ref.argmax(axis=1)
    )
    gross = ~np.isfinite(got).all(axis=1) | (
        np.abs(got - ref).max(axis=1) > WRONG_SIGMAS * float(ref.std())
    )
    wrong = gross | (~fragile & ~strict)
    exempted = fragile & ~strict & ~gross
    if exempted.mean() > EXEMPT_CEILING:
        wrong |= exempted
    return int(wrong.sum()), float(strict.mean()), float(fragile.mean()), int(exempted.sum())
