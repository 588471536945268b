"""Hand-written floors: the same answers computed with a plain loop and numpy.

The yardstick for every layer number is not last week's number but what the
same work costs written plainly over the very same rows.  Each floor returns
its answer in the shape the workloads' oracles use, so a floor is asserted
equal to the system's output before it is ever timed.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np


def point_lookup(rows: Sequence[tuple], key_index: int, key: Any) -> list[tuple]:
    """Plain-loop point read: every row whose ``key_index`` column equals ``key``.

    A full scan on purpose — the system's point read scans the 200-row table
    too (no index exists), so this is the floor *of the same algorithm*.
    """
    return [row for row in rows if row[key_index] == key]


def point_lookup_numpy(key_column: np.ndarray, rows: Sequence[tuple],
                       key: Any) -> list[tuple]:
    """Numpy point read over a pre-extracted key column."""
    return [rows[i] for i in np.flatnonzero(key_column == key)]


def filter_group_sum(rows: Sequence[tuple], group_index: int, value_index: int,
                     threshold: float) -> dict[Any, tuple[int, float]]:
    """Plain-loop ``WHERE value > threshold GROUP BY group`` -> {group: (n, sum)}."""
    acc: dict[Any, list] = {}
    for row in rows:
        value = row[value_index]
        if value > threshold:
            slot = acc.get(row[group_index])
            if slot is None:
                acc[row[group_index]] = [1, value]
            else:
                slot[0] += 1
                slot[1] += value
    return {group: (slot[0], slot[1]) for group, slot in acc.items()}


def filter_group_sum_numpy(rows: Sequence[tuple], group_index: int,
                           value_index: int, threshold: float
                           ) -> dict[Any, tuple[int, float]]:
    """Numpy version, *including* column extraction from the row tuples."""
    groups = np.fromiter((row[group_index] for row in rows), dtype=np.int64,
                         count=len(rows))
    values = np.fromiter((row[value_index] for row in rows), dtype=np.float64,
                         count=len(rows))
    mask = values > threshold
    groups, values = groups[mask], values[mask]
    counts = np.bincount(groups)
    sums = np.bincount(groups, weights=values)
    return {int(g): (int(counts[g]), float(sums[g]))
            for g in np.flatnonzero(counts)}


def table_group_sum(rows: Sequence[dict[str, Any]], group: str, count: str,
                    total: str) -> dict[Any, tuple[int, float]]:
    """A system aggregate result (dict rows) in the floors' answer shape."""
    return {row[group]: (row[count], row[total]) for row in rows}
