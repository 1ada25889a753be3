"""Reference beam search for the tests: the decoder that expands every
hypothesis of a round in full before it keeps the best, with the recursive
scalar n-gram probability, independent of beam_decode's pruning and of
JointModel's caches.

It reads the model's data only (order, token ids, counts, tags, vocabulary,
chunk index), counts the discounts itself, and calls none of the model's
methods. `beam_decode` must return the candidate lists of
polyipa.model.beam_decode, scores equal as floats, and `prob` must equal
JointModel.prob bit for bit.
"""

from __future__ import annotations

import math
import warnings

from polyipa.errors import UnknownTagWarning
from polyipa.model import BOS, EOS, Candidate, _tag_token


def discount(model, length, cache):
    """n1 / (n1 + 2 n2) of the n-grams after contexts of this length seen
    once (n1) and twice (n2), or 0.75 where either is 0; memoized in cache."""
    key = ("discount", length)
    if key not in cache:
        seen = [n for ctx, bucket in model.counts.items() if len(ctx) == length
                for n in bucket.values()]
        n1, n2 = seen.count(1), seen.count(2)
        cache[key] = n1 / (n1 + 2 * n2) if n1 and n2 else 0.75
    return cache[key]


def prob(model, token, context, cache):
    """P(token | context) of token ids, memoized in cache per (trained
    context, token)."""
    context = tuple(context)
    while context and context not in model.counts:
        context = context[1:]
    key = (context, token)
    cached = cache.get(key)
    if cached is not None:
        return cached
    uniform = 1.0 / max(1, len(model.vocab))
    bucket = model.counts.get(context)
    if bucket is None:
        value = uniform
    else:
        total, distinct = sum(bucket.values()), len(bucket)
        d = discount(model, len(context), cache)
        hi = max(bucket.get(token, 0) - d, 0.0) / total
        lam = d * distinct / total
        value = hi + lam * (prob(model, token, context[1:], cache) if context else uniform)
    cache[key] = value
    return value


def beam_decode(model, tag, ipa, n_best, beam_width=None):
    """The n-best candidates of one input, ranked."""
    width = beam_width if beam_width is not None else 3 * n_best
    segs = tuple(seg.text for seg in ipa.segments)
    max_out = 3 * len(segs) + 5
    ctx_len = model.order - 1
    context = (model.ids[BOS],) * ctx_len if ctx_len else ()
    if tag in model.tags:
        if ctx_len:
            context = (context + (model.ids[_tag_token(tag)],))[-ctx_len:]
    else:
        warnings.warn(f"tag {tag!r} not seen in training; decoding untagged",
                      UnknownTagWarning, stacklevel=2)
    cache = {}

    def log_prob(token, ctx):
        return math.log(prob(model, token, ctx, cache))

    eos = model.ids[EOS]
    index = model.chunk_index
    # hypothesis: (log_prob, consumed segments, context, surface)
    active = [(0.0, 0, context, "")]
    finalized = {}
    max_rounds = len(segs) + max_out + 2
    for _ in range(max_rounds):
        expanded = []
        for lp, pos, ctx, out in active:
            if pos == len(segs):
                flp = lp + log_prob(eos, ctx)
                prev = finalized.get(out)
                if prev is None or flp > prev:
                    finalized[out] = flp
            for plen in (0, 1, 2):
                if pos + plen > len(segs):
                    break
                for tok, letters in index.get(segs[pos:pos + plen], ()):
                    out2 = out + letters
                    if len(out2) > max_out:
                        continue
                    lp2 = lp + log_prob(tok, ctx)
                    ctx2 = (ctx + (tok,))[-ctx_len:] if ctx_len else ()
                    expanded.append((lp2, pos + plen, ctx2, out2))
        if not expanded:
            break
        expanded.sort(key=lambda h: (-h[0], h[3], h[1]))
        active = expanded[:width]
        if len(finalized) >= n_best:
            kth = sorted(finalized.values(), reverse=True)[n_best - 1]
            if active[0][0] <= kth:
                break
    ranked = sorted(finalized.items(), key=lambda kv: (-kv[1], kv[0]))[:n_best]
    return [Candidate(surface, lp) for surface, lp in ranked]
