"""Reference n-gram probability for the tests: the recursive scalar
interpolated estimate, independent of JointModel's caches and group scoring.

It reads the model's data only (token ids, counts, vocabulary), counts the
discounts itself, and calls none of the model's methods. `prob` must equal
JointModel.prob bit for bit.
"""

from __future__ import annotations


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
