"""Reference (scalar) Step 2 of Algorithm 2, kept as the test oracle.

This is the direct transcription of the paper's rule that
:func:`repro.packing.two_step.pack_initial_group` replaced: for every
remaining candidate, at every insertion, build the occupancy bincount of
its epochs under the group's concurrency counts and pick the smallest
``(reversed histogram, active_epoch_count, tenant_id)`` tuple.  It is slow
(one Python call per candidate per insertion) but obviously correct, so
the differential tests hold the vectorized solver to it exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.packing.livbp import TTP_TOL
from repro.workload.activity import ActivityItem


def _candidate_key(
    counts: np.ndarray, candidate: ActivityItem, histogram_length: int
) -> tuple[tuple[int, ...], int, int]:
    """Ordering key for ``T_best`` selection (smaller is better).

    The first component is the occupancy bincount of the candidate's active
    epochs, padded to a common length and reversed so tuple comparison runs
    highest-concurrency-level-first; the trailing components are the
    activity-count and tenant-id tie-breaks.
    """
    if candidate.epochs.size:
        hist = np.bincount(counts[candidate.epochs], minlength=histogram_length)
    else:
        hist = np.zeros(histogram_length, dtype=np.int64)
    return tuple(int(x) for x in hist[::-1]), candidate.active_epoch_count, candidate.tenant_id


def oracle_pack_initial_group(
    items: Sequence[ActivityItem],
    num_epochs: int,
    replication_factor: int,
    sla_fraction: float,
) -> list[list[int]]:
    """Scalar Step 2 for one homogeneous initial group."""
    d = num_epochs
    r = replication_factor
    p = sla_fraction
    remaining = sorted(items, key=lambda it: (it.active_epoch_count, it.tenant_id))
    groups: list[list[int]] = []
    while remaining:
        seed = remaining.pop(0)
        group_ids = [seed.tenant_id]
        counts = np.zeros(d, dtype=np.int32)
        counts[seed.epochs] += 1
        violations = int(np.count_nonzero(counts > r))
        while remaining:
            histogram_length = len(group_ids) + 1
            best_index = 0
            best_key = _candidate_key(counts, remaining[0], histogram_length)
            for index in range(1, len(remaining)):
                key = _candidate_key(counts, remaining[index], histogram_length)
                if key < best_key:
                    best_key = key
                    best_index = index
            best = remaining[best_index]
            new_violations = violations
            if best.epochs.size:
                new_violations += int(np.count_nonzero(counts[best.epochs] == r))
            if (d - new_violations) / d + TTP_TOL >= p:
                counts[best.epochs] += 1
                violations = new_violations
                group_ids.append(best.tenant_id)
                remaining.pop(best_index)
            else:
                # Algorithm 2 line 11: close the group without re-scanning.
                break
        groups.append(group_ids)
    return groups
