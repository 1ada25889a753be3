"""Reference nearest-neighbour queries for the tests: one full scan of the
matrix per query vector, independent of the blocked kernel in
polyipa.mining.

`query` and `query_row` return what `VectorIndex.query` and
`VectorIndex.query_row` must return: the first k of a stable sort of the
Euclidean distances, as (row index, distance) tuples.
"""

from __future__ import annotations

import numpy as np


def query(matrix, vector, k):
    """k nearest rows of matrix to vector as (row index, distance)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    vector = np.asarray(vector, dtype=np.float64)
    dists = np.linalg.norm(matrix - vector, axis=1)
    if 0 < k < len(dists):
        # only rows at or under the k-th smallest distance can be in the
        # first k of the full stable sort, and they keep its order
        kth = np.partition(dists, k - 1)[k - 1]
        near = np.flatnonzero(dists <= kth)
        order = near[np.argsort(dists[near], kind="stable")][:k]
    else:
        order = np.argsort(dists, kind="stable")[:k]
    return [(int(i), float(dists[i])) for i in order]


def query_row(matrix, row, k):
    """k nearest rows of matrix to its own row, the row itself excluded."""
    hits = query(matrix, np.asarray(matrix, dtype=np.float64)[row], k + 1)
    return [(i, d) for i, d in hits if i != row][:k]
