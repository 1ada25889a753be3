"""Reference EM for the tests: the pure-Python forward-backward over chunk
lattices, one row at a time, independent of the batched kernel in
polyipa.model.

`fit` returns (probs, stats) with probs in the order of each chunk's first
positive posterior; the batched kernel must reproduce both bit for bit. Its
first E pass weights each chunk of one letter 1 and every other chunk
_START_WEIGHT, as the kernel's does.
"""

from __future__ import annotations

from polyipa.model import _EM_ITERATIONS, _SHAPES, _START_WEIGHT, _ratio_ok


def fit(pairs, iterations=_EM_ITERATIONS, min_prob=1e-12):
    """Run EM over (segments, grapheme) pairs; returns (probs, skip counters)."""
    usable = [(tuple(segs), graph) for segs, graph in pairs
              if _ratio_ok(len(segs), len(graph))]
    stats = {"pairs": len(pairs), "ratio_skipped": len(pairs) - len(usable),
             "unalignable": 0}
    probs = {}
    for iteration in range(max(1, iterations)):
        counts = {}
        unalignable = 0
        for segs, graph in usable:
            if not _accumulate(segs, graph, None if iteration == 0 else probs, counts):
                unalignable += 1
        total = sum(counts.values())
        if total <= 0.0:
            break
        probs = {c: v / total for c, v in counts.items() if v / total >= min_prob}
        stats["unalignable"] = unalignable
    return probs, stats


def _accumulate(segs, graph, probs, counts):
    m, n = len(segs), len(graph)
    alpha = [[0.0] * (n + 1) for _ in range(m + 1)]
    alpha[0][0] = 1.0
    edges = []
    for i in range(m + 1):
        row = alpha[i]
        for j in range(n + 1):
            a = row[j]
            if a == 0.0 and (i, j) != (0, 0):
                continue
            for p, g in _SHAPES:
                i2, j2 = i + p, j + g
                if i2 > m or j2 > n:
                    continue
                chunk = (segs[i:i2], graph[j:j2])
                if probs is None:  # the start
                    w = 1.0 if len(chunk[1]) == 1 else _START_WEIGHT
                else:
                    w = probs.get(chunk, 0.0)
                if w == 0.0:
                    continue
                alpha[i2][j2] += a * w
                edges.append((i, j, i2, j2, chunk, w))
    z = alpha[m][n]
    if z <= 0.0:
        return False
    beta = [[0.0] * (n + 1) for _ in range(m + 1)]
    beta[m][n] = 1.0
    for i, j, i2, j2, chunk, w in reversed(edges):
        beta[i][j] += w * beta[i2][j2]
    for i, j, i2, j2, chunk, w in edges:
        posterior = alpha[i][j] * w * beta[i2][j2] / z
        if posterior > 0.0:
            counts[chunk] = counts.get(chunk, 0.0) + posterior
    return True
