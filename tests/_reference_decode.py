"""Reference decoder for the tests: an exhaustive depth-first walk over every
chunk sequence the model can emit for one input, independent of the stack
search in polyipa.model.

It scores each hypothesis as beam_decode does, through model.log_prob on
the raw history: BOS ... BOS and the chunks so far, then the query's tag
last (the empty context for an unseen tag); the same output-length bound;
EOS paid once all segments are consumed. At each position it offers the
chunks of that position's segment: those counted after the tag alone, and
all trained ones where those emit nothing or the tag is not a context.
With a width no smaller than the number of hypotheses visited, beam_decode
must return the best of these surfaces.
"""

from __future__ import annotations

import math

from polyipa.model import BOS, EOS, Candidate, _tag_token


def exhaustive(model, tag, ipa):
    """Every surface of one input with its best score, and the number of
    partial hypotheses visited (over both chunk sets when the tag's emits
    nothing)."""
    segs = tuple(seg.text for seg in ipa.segments)
    tail: tuple = ()
    history: tuple = ()
    if tag in model.tags:
        tail = (model.ids[_tag_token(tag)],)
        history = (model.ids[BOS],) * (model.order - 2) if model.order > 2 else ()
    eos = model.ids[EOS]
    max_out = 3 * len(segs) + 5
    visited = 0

    def walk(chunks, best, pos, hist, out, lp):
        nonlocal visited
        visited += 1
        ctx = hist + tail
        if pos == len(segs):
            flp = lp + model.log_prob(eos, ctx)
            if flp > best.get(out, -math.inf):
                best[out] = flp
            return
        for tok, letters in chunks.get(segs[pos], ()):
            out2 = out + letters
            if len(out2) <= max_out:
                walk(chunks, best, pos + 1, hist + (tok,), out2, lp + model.log_prob(tok, ctx))

    best: dict[str, float] = {}
    if tail and tail in model.counts:
        trained = model.counts[tail]
        walk({key: [(tok, letters) for tok, letters in group if tok in trained]
              for key, group in model.chunk_index.items()}, best, 0, history, "", 0.0)
    if not best:
        walk(model.chunk_index, best, 0, history, "", 0.0)
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
