"""Nearest-neighbour index, soundalike mining, and the mining files."""

from __future__ import annotations

import itertools
import random
import tracemalloc

import numpy as np
import pytest

import _reference_knn
from _reference_dp import encode, two_row_distance
from polyipa import (
    DistanceParams,
    MiningParams,
    PronEntry,
    VectorIndex,
    build_embedding_matrix,
    default_feature_table,
    mine_soundalikes,
    mining,
    parse_ipa,
    read_pairs_tsv,
    write_embeddings_tsv,
    write_pairs_tsv,
)
from polyipa.errors import DimensionMismatchError, EmptyStringError, UnknownSymbolError


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


def test_query_rejects_negative_k():
    index = VectorIndex(np.arange(10.0).reshape(5, 2))
    assert index.query(np.zeros(2), 0) == []
    with pytest.raises(ValueError, match="k must be >= 0"):
        index.query(np.zeros(2), -1)


def test_query_row_excludes_self():
    index = VectorIndex(np.array([[1.0], [1.0], [5.0]]))
    hits = index.query_row(1, k=2)
    assert [i for i, _ in hits] == [0, 2]
    assert hits[0][1] == 0.0  # duplicate row, distance zero but not itself


def test_query_row_rejects_bad_arguments():
    index = VectorIndex(np.array([[1.0], [1.0], [5.0]]))
    # a negative row would otherwise be read from the end and not excluded
    with pytest.raises(IndexError, match="row -1 is out of range for an index of 3 rows"):
        index.query_row(-1, 1)
    with pytest.raises(IndexError, match="row 3 is out of range"):
        index.query_row(3, 1)
    with pytest.raises(ValueError, match="k must be >= 0, got -1"):
        index.query_row(0, -1)
    with pytest.raises(ValueError, match="k must be >= 0, got -2"):
        index.query_row(0, -2)


def test_index_keeps_its_own_matrix():
    matrix = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 4.0]])
    index = VectorIndex(matrix)
    rows = [index.query_row(row, 2) for row in range(3)]
    near = index.query(np.zeros(2), 3)
    matrix[:] = [[9.0, 9.0], [0.0, 0.0], [1.0, 1.0]]
    assert [index.query_row(row, 2) for row in range(3)] == rows
    assert index.query(np.zeros(2), 3) == near
    with pytest.raises(ValueError):
        index.matrix[0, 0] = 1.0


def test_index_rejects_non_finite_values():
    with pytest.raises(ValueError, match="non-finite"):
        VectorIndex(np.array([[0.0], [np.nan]]))
    index = VectorIndex(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        index.query(np.array([np.inf]), 1)


def _anagram_matrix():
    # anagrams average the same segment vectors, so they embed identically
    words = ["kat", "tak", "akt", "sont", "tons", "nost", "pel", "lep", "ba", "ab",
             "mira", "rima", "amir", "dus", "sud", "ke", "ek", "lopi", "pilo", "z"]
    entries = [PronEntry("de", w, parse_ipa(w)) for w in words]
    return build_embedding_matrix(entries + _entries(30, seed=13))


def _ulp_matrix():
    # coordinates a few ulps apart, at a scale where the screen's
    # |q|^2 + |m|^2 - 2 q.m cancels far more than an ulp
    rng = np.random.default_rng(14)
    base = 1000.0 * rng.random(6)
    rows = []
    for i in range(40):
        row = base.copy()
        for _ in range(i % 7):
            row[i % 6] = np.nextafter(row[i % 6], np.inf)
        rows.append(row)
    rows += [base + 1e-9 * rng.integers(0, 3, size=6) for _ in range(10)]
    return np.array(rows)


def _knn_matrices():
    rng = np.random.default_rng(12)
    return {
        "duplicate-rows": rng.permutation(np.repeat(rng.random((9, 4)), 5, axis=0)),
        "small-integers": rng.integers(0, 3, size=(48, 3)).astype(np.float64),
        "anagram-embeddings": _anagram_matrix(),
        "ulp-apart": _ulp_matrix(),
    }


def _access_orders(n, ks):
    """(row, k) call sequences: rows forward, reversed, shuffled, and forward
    with k alternating between two values."""
    rows = list(range(n))
    shuffled = random.Random(15).sample(rows, n)
    for k in ks:
        yield [(r, k) for r in rows]
        yield [(r, k) for r in reversed(rows)]
        yield [(r, k) for r in shuffled]
    for a, b in zip(ks, ks[1:]):
        yield [(r, (a, b)[r % 2]) for r in rows]


@pytest.mark.parametrize("budget", ["one-row", "default", "whole-matrix"])
@pytest.mark.parametrize("kind", ["duplicate-rows", "small-integers", "anagram-embeddings",
                                  "ulp-apart"])
def test_queries_equal_the_full_scan(kind, budget, monkeypatch):
    matrix = _knn_matrices()[kind]
    n = len(matrix)
    if budget == "one-row":
        monkeypatch.setattr(mining, "_KNN_BLOCK_BYTES", 8)
    elif budget == "whole-matrix":
        monkeypatch.setattr(mining, "_KNN_BLOCK_BYTES", 8 * n * n * matrix.shape[1])
    ks = [0, 1, 5, n - 2, n - 1, n, n + 3]
    index = VectorIndex(matrix)
    probes = [*matrix[::5], *(matrix[::9] + 1e-3), np.zeros(matrix.shape[1])]
    for k in ks:
        for vector in probes:
            assert index.query(vector, k) == _reference_knn.query(matrix, vector, k)
    for calls in _access_orders(n, ks):
        for row, k in calls:
            assert index.query_row(row, k) == _reference_knn.query_row(matrix, row, k), (row, k)


def test_block_budget_bounds_the_temporaries(monkeypatch):
    rng = np.random.default_rng(16)
    matrix = rng.integers(0, 4, size=(3000, 200)).astype(np.float64)
    monkeypatch.setattr(mining, "_KNN_BLOCK_BYTES", 4096)
    index = VectorIndex(matrix)
    for k in (10, len(matrix)):
        for row in (0, 2999):
            tracemalloc.start()
            try:
                got = index.query_row(row, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == _reference_knn.query_row(matrix, row, k)
            # one row's hits and candidates; a gathered (candidates x dims)
            # difference array alone would take matrix.nbytes
            assert peak < matrix.nbytes / 4, (k, row, peak)


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
    got = {(entries[i].grapheme, entries[j].grapheme, d) for i, j, d in mined}
    assert got == _brute_force(entries, params.threshold)
    assert got  # the fixture actually produces pairs


def test_small_k_mines_a_subset():
    entries = _entries(60, seed=6)
    exhaustive = mine_soundalikes(entries, MiningParams(k=len(entries), threshold=1.5))
    narrow = mine_soundalikes(entries, MiningParams(k=1, threshold=1.5))
    full = {(i, j) for i, j, _ in exhaustive}
    part = {(i, j) for i, j, _ in narrow}
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
    kept = mine_soundalikes([a, b], MiningParams(k=1, threshold=5.0))
    assert len(kept) == 1
    dropped = mine_soundalikes(
        [a, b], MiningParams(k=1, threshold=5.0, exclude_existing=True))
    assert dropped == []


def test_exclude_existing_keeps_novel_pairs():
    a = PronEntry("de", "kat", parse_ipa("kat"))
    b = PronEntry("de", "gat", parse_ipa("kad"))  # neither grapheme has the other's ipa
    kept = mine_soundalikes(
        [a, b], MiningParams(k=1, threshold=5.0, exclude_existing=True))
    assert len(kept) == 1


def test_exclude_existing_checks_both_directions():
    a = PronEntry("de", "kat", parse_ipa("kat"))
    b = PronEntry("de", "gat", parse_ipa("kad"))
    params = MiningParams(k=2, threshold=5.0, exclude_existing=True)

    def pairs(*entries):
        return {(i, j) for i, j, _ in mine_soundalikes(entries, params)}

    assert pairs(a, b) == {(0, 1)}
    # the entries already give kat the pronunciation kad, or gat kat
    assert (0, 1) not in pairs(a, b, PronEntry("de", "kat", parse_ipa("kad")))
    assert (0, 1) not in pairs(a, b, PronEntry("de", "gat", parse_ipa("kat")))
    # the same transcription in another language is no witness
    assert (0, 1) in pairs(a, b, PronEntry("nl", "kat", parse_ipa("kad")))


def test_exclude_existing_ignores_script():
    a = PronEntry("sr", "пас", parse_ipa("pas"), "Cyrl")
    b = PronEntry("sr", "pas", parse_ipa("pa"), "Latn")
    params = MiningParams(k=2, threshold=5.0, exclude_existing=True)
    witness = PronEntry("sr", "пас", parse_ipa("pa"), "Latn")
    mined = mine_soundalikes([a, b, witness], params)
    assert (0, 1) not in {(i, j) for i, j, _ in mined}


# serialization

def test_embeddings_tsv_roundtrip(tmp_path):
    entries = _entries(10, seed=8)
    matrix = build_embedding_matrix(entries)
    path = tmp_path / "emb.tsv"
    write_embeddings_tsv(path, matrix)
    back = np.loadtxt(path, delimiter="\t", ndmin=2)
    assert back.shape == (matrix.shape[0], 1 + matrix.shape[1])
    assert np.array_equal(back[:, 0], np.arange(len(matrix)))  # 0-based row ids
    assert np.array_equal(back[:, 1:], matrix)


def test_pairs_tsv_roundtrip(tmp_path):
    entries = _entries(40, seed=9)
    pairs = mine_soundalikes(entries, MiningParams(k=len(entries), threshold=1.5))
    assert pairs
    path = tmp_path / "pairs.tsv"
    write_pairs_tsv(path, entries, pairs)
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    assert [float(row.split("\t")[-1]) for row in rows] == [d for _, _, d in pairs]
    want: dict = {}
    for i, j in ((i, j) for a, b, _ in pairs for i, j in ((a, b), (b, a))):
        key = (entries[i].lang, entries[i].grapheme, entries[i].ipa.text)
        want.setdefault(key, []).append(entries[j].ipa.text)
    back = read_pairs_tsv(path)
    assert {key: [v.text for v in vs] for key, vs in back.items()} == want


def test_read_pairs_tsv_indexes_both_directions_once(tmp_path, monkeypatch):
    path = tmp_path / "pairs.tsv"
    path.write_text("# header\n"
                    "de\tkat\tkat\tde\tgat\tkad\t0.5\n"
                    "de\tkat\tkat\tde\tgat\tkad\t0.5\n"
                    "de\tgat\tkad\tde\tmat\tmat\t1.0\n", encoding="utf-8")
    calls = []
    monkeypatch.setattr(mining, "parse_ipa",
                        lambda text, inventory=None: calls.append(text) or parse_ipa(text))
    mapping = read_pairs_tsv(path)
    assert {key: [v.text for v in vs] for key, vs in mapping.items()} == {
        ("de", "kat", "kat"): ["kad"],
        ("de", "gat", "kad"): ["kat", "mat"],
        ("de", "mat", "mat"): ["kad"],
    }
    assert sorted(calls) == ["kad", "kat", "mat"]  # once per distinct transcription


def test_pairs_tsv_rejects_short_rows(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("de\tkat\tkat\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"pairs\.tsv: line 1: "):
        read_pairs_tsv(path)


def test_pairs_tsv_names_the_line_of_a_bad_field(tmp_path):
    path = tmp_path / "pairs.tsv"
    good = "de\tkat\tkat\tde\tkad\tkad\t1.0\n"
    path.write_text(good + good.replace("1.0", "abc"), encoding="utf-8")
    with pytest.raises(ValueError, match=r"pairs\.tsv: line 2: could not convert .*'abc'"):
        read_pairs_tsv(path)
    path.write_text(good + good.replace("kad\t1", "k@d\t1"), encoding="utf-8")
    with pytest.raises(UnknownSymbolError, match=r"pairs\.tsv: line 2: unknown symbol '@'"):
        read_pairs_tsv(path)
