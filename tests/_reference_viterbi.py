"""Reference Viterbi for the tests: the pure-Python DP over one chunk lattice
at a time, with chunks looked up by their strings, independent of the
max-plus sweep in polyipa.model.

`chunkings` returns, for every (segments, grapheme) pair, its best
chunking under a chunk probability table, or None where the pair is outside
the length ratio or has no path; `ChunkAligner.viterbi` must return the
same list.
"""

from __future__ import annotations

import math

from polyipa.model import _SHAPES, _ratio_ok


def chunkings(probs, pairs):
    """The best chunking of every pair under probs, None where it has none."""
    logs = {c: math.log(p) for c, p in probs.items() if p > 0.0}
    return [viterbi(logs, tuple(segs), graph) for segs, graph in pairs]


def viterbi(logs, segs, graph):
    """Maximum-likelihood chunking under chunk log probabilities; ties prefer
    the chunk with fewer letters."""
    m, n = len(segs), len(graph)
    if not _ratio_ok(m, n):
        return None
    neg_inf = -math.inf
    score = [[neg_inf] * (n + 1) for _ in range(m + 1)]
    back = [[None] * (n + 1) for _ in range(m + 1)]
    score[0][0] = 0.0
    for i in range(m + 1):
        for j in range(n + 1):
            base = score[i][j]
            if base == neg_inf:
                continue
            for p, g in _SHAPES:
                i2, j2 = i + p, j + g
                if i2 > m or j2 > n:
                    continue
                chunk = (segs[i:i2], graph[j:j2])
                lw = logs.get(chunk)
                if lw is None:
                    continue
                cand = base + lw
                cur = score[i2][j2]
                if cand > cur:
                    score[i2][j2] = cand
                    back[i2][j2] = (i, j, chunk)
                elif cand == cur and g < len(back[i2][j2][2][1]):
                    back[i2][j2] = (i, j, chunk)
    if score[m][n] == neg_inf:
        return None
    chunks = []
    i, j = m, n
    while (i, j) != (0, 0):
        pi, pj, chunk = back[i][j]
        chunks.append(chunk)
        i, j = pi, pj
    chunks.reverse()
    return tuple(chunks)
