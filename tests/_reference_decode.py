"""Reference decoder for the tests: an exhaustive depth-first walk over every
chunk sequence the model can emit for one input, independent of the stack
search in polyipa.model.

It scores each hypothesis as beam_decode does, through model.log_prob on
the raw history: BOS ... BOS and the chunks so far, then the query's tag
last (the empty context for an unseen tag); EOS paid once all segments are
consumed. At each position it offers the chunks of that position's segment
counted after the tag alone, and all trained ones of that segment where
the tag has none or is not a context. With a width no smaller than the
number of hypotheses visited, beam_decode must return the best of these
surfaces.
"""

from __future__ import annotations

import math

from polyipa.model import BOS, EOS, Candidate, _tag_token


def exhaustive(model, tag, ipa):
    """Every surface of one input with its best score, and the number of
    partial hypotheses visited."""
    segs = tuple(seg.text for seg in ipa.segments)
    tail: tuple = ()
    history: tuple = ()
    if tag in model.tags:
        tail = (model.ids[_tag_token(tag)],)
        history = (model.ids[BOS],) * (model.order - 2) if model.order > 2 else ()
    eos = model.ids[EOS]
    # an untagged walk keeps every chunk: counts[()] holds every trained token
    trained = model.counts.get(tail, ())
    best: dict[str, float] = {}
    visited = 0

    def walk(pos, hist, out, lp):
        nonlocal visited
        visited += 1
        ctx = hist + tail
        if pos == len(segs):
            flp = lp + model.log_prob(eos, ctx)
            if flp > best.get(out, -math.inf):
                best[out] = flp
            return
        group = model.chunk_index.get(segs[pos], [])
        for tok, letters in [(tok, letters) for tok, letters in group if tok in trained] or group:
            walk(pos + 1, hist + (tok,), out + letters, lp + model.log_prob(tok, ctx))

    walk(0, history, "", 0.0)
    return best, visited


def ranked(best, n_best):
    """The n_best best candidates of exhaustive's surfaces, ties by surface."""
    top = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))[:n_best]
    return [Candidate(surface, lp) for surface, lp in top]


def exhaustive_best(model, tag, ipa):
    """The best surface, its score, and how many partial hypotheses exist."""
    best, visited = exhaustive(model, tag, ipa)
    top = ranked(best, 1)[0]
    return top.grapheme, top.log_score, visited
