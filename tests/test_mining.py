"""Nearest-neighbour index, soundalike mining, and generation filters."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from _reference_dp import encode, two_row_distance
from polyipa import (
    DistanceParams,
    Lexicon,
    MiningParams,
    PronEntry,
    VectorIndex,
    build_embedding_matrix,
    default_feature_table,
    filter_by_feature_distance,
    filter_generation_by_cer,
    load_embeddings_tsv,
    mine_soundalikes,
    parse_ipa,
    read_pairs_tsv,
    write_embeddings_tsv,
    write_pairs_tsv,
)
from polyipa.errors import (
    BothEmptyError,
    DimensionMismatchError,
    EmptyOriginalError,
    EmptyStringError,
)


# vector index

def test_query_returns_nearest_first():
    index = VectorIndex(np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]]))
    hits = index.query(np.array([0.0, 0.0]), k=3)
    assert [i for i, _ in hits] == [0, 2, 1]
    assert [d for _, d in hits] == [0.0, 1.0, 5.0]


def test_query_breaks_ties_by_row_order():
    index = VectorIndex(np.array([[1.0], [1.0], [0.0], [1.0]]))
    hits = index.query(np.array([1.0]), k=4)
    assert [i for i, _ in hits] == [0, 1, 3, 2]
    # 27 distinct rows among 200, so most distances tie exactly; the result
    # must equal the first k of a full stable sort
    rng = np.random.default_rng(12)
    matrix = rng.integers(0, 3, size=(200, 3)).astype(np.float64)
    index = VectorIndex(matrix)
    for row in range(0, 200, 7):
        dists = np.linalg.norm(matrix - matrix[row], axis=1)
        order = np.argsort(dists, kind="stable")
        for k in (1, 5, 30, 199, 200, 250):
            want = [(int(i), float(dists[i])) for i in order[:k]]
            assert index.query(matrix[row], k) == want


def test_query_row_excludes_self():
    index = VectorIndex(np.array([[1.0], [1.0], [5.0]]))
    hits = index.query_row(1, k=2)
    assert [i for i, _ in hits] == [0, 2]
    assert hits[0][1] == 0.0  # duplicate row, distance zero but not itself


def test_index_dimension_checks():
    with pytest.raises(DimensionMismatchError):
        VectorIndex(np.zeros(3))
    index = VectorIndex(np.zeros((2, 4)))
    with pytest.raises(DimensionMismatchError):
        index.query(np.zeros(3), k=1)


def test_mining_params_validation():
    with pytest.raises(ValueError):
        MiningParams(k=0)
    with pytest.raises(ValueError):
        MiningParams(threshold=-0.1)


# mining

def _entries(n, seed, lang="de"):
    rng = random.Random(seed)
    phones = "ptkbdmnszlaeiou"
    out = []
    seen = set()
    while len(out) < n:
        word = "".join(rng.choice(phones) for _ in range(rng.randint(2, 5)))
        if word in seen:
            continue
        seen.add(word)
        out.append(PronEntry(lang, word, parse_ipa(word)))
    return out


def _brute_force(entries, threshold, distance=None):
    distance = distance or DistanceParams()
    encoded, costs = encode([e.ipa for e in entries], default_feature_table(),
                            distance.sub_scale)
    found = set()
    for i, j in itertools.combinations(range(len(entries)), 2):
        d = two_row_distance(encoded[i], encoded[j], costs,
                             distance.insert_cost, distance.delete_cost)
        if d <= threshold:
            found.add((entries[i].grapheme, entries[j].grapheme, d))
    return found


def test_exhaustive_mining_matches_brute_force():
    entries = _entries(80, seed=5)
    params = MiningParams(k=len(entries), threshold=1.2)
    mined = mine_soundalikes(entries, params)
    got = {(p.entry_a.grapheme, p.entry_b.grapheme, p.distance) for p in mined}
    assert got == _brute_force(entries, params.threshold)
    assert got  # the fixture actually produces pairs


def test_small_k_mines_a_subset():
    entries = _entries(60, seed=6)
    exhaustive = mine_soundalikes(entries, MiningParams(k=len(entries), threshold=1.5))
    narrow = mine_soundalikes(entries, MiningParams(k=1, threshold=1.5))
    full = {(p.entry_a.grapheme, p.entry_b.grapheme) for p in exhaustive}
    part = {(p.entry_a.grapheme, p.entry_b.grapheme) for p in narrow}
    assert part.issubset(full)


def test_mining_respects_distance_params():
    entries = [PronEntry("de", "kat", parse_ipa("kat")),
               PronEntry("de", "kaat", parse_ipa("kaat"))]
    cheap = mine_soundalikes(entries, MiningParams(k=1, threshold=0.5),
                             distance=DistanceParams(sub_scale=0.2,
                                                     insert_cost=0.1,
                                                     delete_cost=0.1))
    assert len(cheap) == 1
    dear = mine_soundalikes(entries, MiningParams(k=1, threshold=0.5))
    assert dear == []


def test_mining_rejects_empty_transcription():
    entries = _entries(4, seed=10) + [PronEntry("de", "x", parse_ipa(""))]
    for k in (1, len(entries) - 1):
        with pytest.raises(EmptyStringError):
            mine_soundalikes(entries, MiningParams(k=k, threshold=1.0))


def test_mining_needs_two_entries():
    assert mine_soundalikes([]) == []
    assert mine_soundalikes(_entries(1, seed=7)) == []


def test_exclude_existing_drops_known_variants():
    a = PronEntry("de", "kat", parse_ipa("kat"))
    b = PronEntry("de", "kat", parse_ipa("kad"))
    known = Lexicon([a, b])
    kept = mine_soundalikes([a, b], MiningParams(k=1, threshold=5.0), known=known)
    assert len(kept) == 1
    dropped = mine_soundalikes(
        [a, b], MiningParams(k=1, threshold=5.0, exclude_existing=True),
        known=known)
    assert dropped == []


def test_exclude_existing_keeps_novel_pairs():
    a = PronEntry("de", "kat", parse_ipa("kat"))
    b = PronEntry("de", "gat", parse_ipa("kad"))
    known = Lexicon([a])  # b's pronunciation is not recorded for kat
    kept = mine_soundalikes(
        [a, b], MiningParams(k=1, threshold=5.0, exclude_existing=True),
        known=known)
    assert len(kept) == 1


# serialization

def test_embeddings_tsv_roundtrip(tmp_path):
    entries = _entries(10, seed=8)
    matrix = build_embedding_matrix(entries)
    path = tmp_path / "emb.tsv"
    write_embeddings_tsv(path, matrix)
    back = load_embeddings_tsv(path)
    assert back.shape == matrix.shape
    assert np.array_equal(back, matrix)


def test_embeddings_loader_validates_ids(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("1\t0.0\t0.0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_embeddings_tsv(path)


def test_embeddings_loader_rejects_ragged_rows(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("0\t0.0\t0.0\n1\t0.0\n", encoding="utf-8")
    with pytest.raises(DimensionMismatchError):
        load_embeddings_tsv(path)


def test_pairs_tsv_roundtrip(tmp_path):
    entries = _entries(40, seed=9)
    pairs = mine_soundalikes(entries, MiningParams(k=len(entries), threshold=1.5))
    assert pairs
    path = tmp_path / "pairs.tsv"
    write_pairs_tsv(path, pairs)
    back = read_pairs_tsv(path)
    assert len(back) == len(pairs)
    for orig, loaded in zip(pairs, back):
        assert loaded.distance == orig.distance
        assert loaded.entry_a.grapheme == orig.entry_a.grapheme
        assert loaded.entry_b.ipa.text == orig.entry_b.ipa.text


def test_pairs_tsv_rejects_short_rows(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("de\tkat\tkat\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"pairs\.tsv: line 1: "):
        read_pairs_tsv(path)


# generation filters

def test_cer_filter_keeps_boundary():
    # 1 edit over 7 characters is under 0.15; 2 edits are over
    assert filter_generation_by_cer("schmidt", "schmitt")
    assert not filter_generation_by_cer("schmidt", "schnitt")
    assert filter_generation_by_cer("ab", "axb", max_cer=0.5)  # exactly 0.5


def test_cer_filter_rejects_empty_original():
    with pytest.raises(EmptyOriginalError):
        filter_generation_by_cer("", "kat")


def test_feature_distance_filter_strict_bound():
    # one feature differs between t and d, so the normalized distance over
    # three segments is (1/22)/3, just above the 0.01 default
    assert not filter_by_feature_distance(parse_ipa("kat"), parse_ipa("kad"))
    assert filter_by_feature_distance(parse_ipa("kat"), parse_ipa("kat"))
    assert filter_by_feature_distance(parse_ipa("kat"), parse_ipa("kad"),
                                      max_distance=0.02)


def test_feature_distance_filter_strips_marks():
    # stress and length do not count against the distance
    assert filter_by_feature_distance(parse_ipa("ˈkaːt"), parse_ipa("kat"))


def test_feature_distance_filter_rejects_empty_pair():
    with pytest.raises(BothEmptyError):
        filter_by_feature_distance(parse_ipa("ˈ"), parse_ipa("ˌ"))
