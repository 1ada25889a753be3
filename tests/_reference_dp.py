"""Reference feature edit distance for the tests: the textbook two-row DP in
pure Python, independent of the batched kernel in polyipa.features.

Substitution costs use the library's cost definition,
disagree * (sub_scale / dims), so distances compare bit for bit.
"""

from __future__ import annotations

import numpy as np


def encode(strings, table, sub_scale):
    """Each IPA string as a list of vocabulary ids, plus costs[x][y], the
    substitution cost between vocabulary entries x and y."""
    vocab: dict[str, int] = {}
    vectors = []
    encoded = []
    for s in strings:
        ids = []
        for seg in s.segments:
            if seg.text not in vocab:
                vocab[seg.text] = len(vectors)
                vectors.append(table.lookup(seg).vector)
            ids.append(vocab[seg.text])
        encoded.append(ids)
    if not vectors:
        return encoded, []
    mat = np.stack(vectors)
    disagree = (mat[:, None, :] != mat[None, :, :]).sum(axis=2)
    return encoded, (disagree * (sub_scale / table.dims)).tolist()


def two_row_distance(a, b, costs, insert_cost, delete_cost):
    """Edit distance from id list a to id list b."""
    prev = [j * insert_cost for j in range(len(b) + 1)]
    for i, x in enumerate(a, start=1):
        cur = [i * delete_cost]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + delete_cost, cur[j - 1] + insert_cost,
                           prev[j - 1] + costs[x][y]))
        prev = cur
    return prev[-1]
