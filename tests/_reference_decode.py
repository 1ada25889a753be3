"""Reference decoder for the tests: an exhaustive depth-first walk over every
chunk sequence the model can emit for one input, independent of the beam
search in polyipa.model.

It scores each hypothesis as beam_decode does (token ids of the model's
table, the tag in the starting context, the same output-length bound, EOS
paid once all segments are consumed), so with a wide enough beam both must
find the same best surface.
"""

from __future__ import annotations

import math

from polyipa.model import BOS, EOS, _tag_token


def exhaustive_best(model, tag, ipa):
    """Enumerate every decodable hypothesis; returns the best surface, its
    score, and how many partial hypotheses exist."""
    segs = tuple(seg.text for seg in ipa.segments)
    ctx_len = model.order - 1
    start: tuple = (model.ids[BOS],) * ctx_len if ctx_len else ()
    if ctx_len and tag in model.tags:
        start = (start + (model.ids[_tag_token(tag)],))[-ctx_len:]
    eos = model.ids[EOS]
    max_out = 3 * len(segs) + 5
    best: dict[str, float] = {}
    visited = 0

    def walk(pos, ctx, out, lp):
        nonlocal visited
        visited += 1
        if pos == len(segs):
            flp = lp + model.log_prob(eos, ctx)
            if flp > best.get(out, -math.inf):
                best[out] = flp
        for plen in (0, 1, 2):
            if pos + plen > len(segs):
                break
            for tok, letters in model.chunk_index.get(segs[pos:pos + plen], ()):
                out2 = out + letters
                if len(out2) > max_out:
                    continue
                ctx2 = (ctx + (tok,))[-ctx_len:] if ctx_len else ()
                walk(pos + plen, ctx2, out2, lp + model.log_prob(tok, ctx))

    walk(0, start, "", 0.0)
    surface, score = max(best.items(), key=lambda kv: (kv[1], kv[0]))
    return surface, score, visited
