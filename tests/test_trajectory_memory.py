"""The strict-increase checks hold a byte a node, not a difference array.

Trajectory, EFSeries, crossing_times and the r-grid and monotone-run
checks in analysis compare neighbours (v[1:] > v[:-1]) instead of building
np.diff(v): the same answer for every pair of doubles, with a boolean
temporary of one byte an element instead of a float64 one beside it.
"""

import tracemalloc

import numpy as np

from curlforce.core import Trajectory


def test_trajectory_checks_hold_a_few_bytes_a_node():
    n = 200_001
    t = np.arange(n, dtype=float)
    y = np.ones((n, 4))
    dy = np.ones((n, 4))
    tracemalloc.start()
    try:
        Trajectory(t, y, dy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the remainder is np.isfinite(y), 4 bytes a node
    assert peak / n < 5.0, f"peaked at {peak / n:.2f} bytes a node"
