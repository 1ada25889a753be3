"""Feature table, weighted edit distance, and embeddings.

The distance tests include a small memoized-recursion oracle; the large
equivalence sweep lives in the acceptance module.
"""

from __future__ import annotations

import functools
import random

import numpy as np
import pytest

from _reference_dp import encode, two_row_distance
from polyipa import (
    BothEmptyError,
    DistanceParams,
    EmptyStringError,
    FeatureTable,
    default_feature_table,
    feature_edit_distance,
    normalized_feature_distance,
    parse_ipa,
    segment_features,
    string_embedding,
)
from polyipa.errors import UnknownSegmentError
from polyipa.features import _edit_distances, _vocab_and_costs
from polyipa.ipa import IpaSegment


def test_table_shape_and_values():
    table = default_feature_table()
    assert table.dims == 22
    for sym in ("p", "a", "ʃ", "t͡ʃ", "g", "ɡ"):
        vec = table.row(sym)
        assert vec.shape == (22,)
        assert set(np.unique(vec)).issubset({-1, 0, 1})


def test_prosodic_rows_are_zero():
    table = default_feature_table()
    for sym in (".", " ", "ˈ"):
        assert not table.row(sym).any()


def test_voicing_diacritics_modify_vector():
    table = default_feature_table()
    voi = table.names.index("voi")
    nas = table.names.index("nas")
    n = segment_features(IpaSegment("n"), table)
    n_ring = segment_features(IpaSegment("n", ("̥",)), table)
    assert n[voi] == 1 and n_ring[voi] == -1
    assert (n == n_ring).sum() == 21
    a = segment_features(IpaSegment("a"), table)
    a_nasal = segment_features(IpaSegment("a", ("̃",)), table)
    assert a[nas] == -1 and a_nasal[nas] == 1


def test_length_mark_sets_long():
    table = default_feature_table()
    long_ix = table.names.index("long")
    a_long = segment_features(IpaSegment("a", ("ː",)), table)
    assert a_long[long_ix] == 1


def test_unknown_segment_raises():
    table = FeatureTable(["voi"], {"p": np.array([-1], dtype=np.int8)})
    with pytest.raises(UnknownSegmentError):
        table.row("q")


def test_distance_identity_and_symmetry():
    words = ["kat", "t͡ʃat", "ˈmano", "seː"]
    for w in words:
        s = parse_ipa(w)
        assert feature_edit_distance(s, s) == 0.0
    a, b = parse_ipa("kat"), parse_ipa("mano")
    assert feature_edit_distance(a, b) == feature_edit_distance(b, a)


def test_distance_single_feature_substitution():
    # t and d disagree in voicing only: cost 1/22
    d = feature_edit_distance(parse_ipa("kat"), parse_ipa("kad"))
    assert d == pytest.approx(1 / 22, abs=1e-15)


def test_distance_pure_insertion_deletion():
    assert feature_edit_distance(parse_ipa("kat"), parse_ipa("kats")) == 1.0
    assert feature_edit_distance(parse_ipa(""), parse_ipa("kat")) == 3.0
    params = DistanceParams(insert_cost=0.5, delete_cost=2.0, sub_scale=1.0)
    assert feature_edit_distance(parse_ipa("ka"), parse_ipa(""), params) == 4.0
    assert feature_edit_distance(parse_ipa(""), parse_ipa("ka"), params) == 1.0


def test_distance_prefers_cheap_substitution_over_indel():
    # one substitution (max cost 1) always beats delete + insert (cost 2)
    d = feature_edit_distance(parse_ipa("pat"), parse_ipa("mit"))
    assert d < 2.0


def test_params_validation():
    with pytest.raises(ValueError):
        DistanceParams(insert_cost=0)
    with pytest.raises(ValueError):
        DistanceParams(sub_scale=5.0)


def _recursive_oracle(a, b, params, table):
    """Independent memoized recursion over the same cost definition."""
    dims = table.dims

    @functools.lru_cache(maxsize=None)
    def sub(x, y):
        return int((table.row(x) != table.row(y)).sum()) * (params.sub_scale / dims)

    @functools.lru_cache(maxsize=None)
    def d(i, j):
        if i == len(a):
            return (len(b) - j) * params.insert_cost
        if j == len(b):
            return (len(a) - i) * params.delete_cost
        return min(
            d(i + 1, j) + params.delete_cost,
            d(i, j + 1) + params.insert_cost,
            d(i + 1, j + 1) + sub(a[i], b[j]),
        )

    return d(0, 0)


def dyadic_table(symbols, n_features=16, seed=11):
    """Random table whose per-pair costs are exact binary fractions, so DP
    and recursion agree bit for bit regardless of summation order."""
    rng = random.Random(seed)
    rows = {s: np.array([rng.choice((-1, 0, 1)) for _ in range(n_features)],
                        dtype=np.int8) for s in symbols}
    return FeatureTable([f"f{i}" for i in range(n_features)], rows)


ORACLE_SYMBOLS = list("abcdefghij")  # all ten are plain IPA letters


def test_distance_matches_recursion_exactly_on_dyadic_table():
    table = dyadic_table(ORACLE_SYMBOLS)
    rng = random.Random(99)
    for params in (DistanceParams(), DistanceParams(0.75, 1.25, 1.5)):
        for _ in range(200):
            a = tuple(rng.choice(ORACLE_SYMBOLS) for _ in range(rng.randint(0, 4)))
            b = tuple(rng.choice(ORACLE_SYMBOLS) for _ in range(rng.randint(0, 4)))
            got = feature_edit_distance(parse_ipa("".join(a)), parse_ipa("".join(b)),
                                        params, table)
            assert got == _recursive_oracle(a, b, params, table)


def test_distance_matches_recursion_on_default_table():
    # 1/22 costs round, so summation order may differ by an ulp
    table = default_feature_table()
    rng = random.Random(7)
    symbols = ["p", "t", "k", "b", "m", "n", "s", "a", "i", "u"]
    for _ in range(100):
        a = tuple(rng.choice(symbols) for _ in range(rng.randint(0, 4)))
        b = tuple(rng.choice(symbols) for _ in range(rng.randint(0, 4)))
        got = feature_edit_distance(parse_ipa("".join(a)), parse_ipa("".join(b)),
                                    table=table)
        oracle = _recursive_oracle(a, b, DistanceParams(), table)
        assert got == pytest.approx(oracle, abs=1e-12)


def test_batched_kernel_matches_two_row_dp():
    table = default_feature_table()
    rng = random.Random(23)
    symbols = ["p", "t", "k", "b", "m", "n", "s", "ʃ", "t͡ʃ", "a", "i", "u"]
    strings = [parse_ipa("".join(rng.choice(symbols) for _ in range(rng.randint(0, 8))))
               for _ in range(60)]
    I, J = np.nonzero(np.ones((len(strings), len(strings)), dtype=bool))
    shuffled = np.random.default_rng(5).permutation(len(I))
    for params in (DistanceParams(), DistanceParams(0.75, 1.25, 1.5)):
        encoded, costs = encode(strings, table, params.sub_scale)
        want = [(i, j, two_row_distance(encoded[i], encoded[j], costs,
                                        params.insert_cost, params.delete_cost))
                for i, j in zip(I.tolist(), J.tolist())]
        codes, lengths, sub = _vocab_and_costs(strings, table, params.sub_scale)
        for threshold in (np.inf, 2.0):
            got = _edit_distances(codes, lengths, I[shuffled], J[shuffled], sub,
                                  params.insert_cost, params.delete_cost, threshold)
            assert list(zip(*(column.tolist() for column in got))) == \
                [w for w in want if w[2] <= threshold]


def test_normalized_distance_bounds():
    a, b = parse_ipa("kat"), parse_ipa("miso")
    d = normalized_feature_distance(a, b)
    assert 0.0 <= d <= 1.0
    assert normalized_feature_distance(a, a) == 0.0
    assert normalized_feature_distance(a, parse_ipa("")) == 1.0


def test_normalized_distance_both_empty():
    with pytest.raises(BothEmptyError):
        normalized_feature_distance(parse_ipa(""), parse_ipa(""))


def test_embedding_is_mean_of_segment_vectors():
    table = default_feature_table()
    s = parse_ipa("kat")
    vecs = np.stack([segment_features(seg, table) for seg in s.segments])
    assert np.array_equal(string_embedding(s, table), vecs.mean(axis=0))
    assert string_embedding(s).dtype == np.float64


def test_embedding_empty_string():
    with pytest.raises(EmptyStringError):
        string_embedding(parse_ipa(""))


def test_embedding_deterministic():
    a = string_embedding(parse_ipa("t͡ʃeːs"))
    b = string_embedding(parse_ipa("t͡ʃeːs"))
    assert np.array_equal(a, b)
