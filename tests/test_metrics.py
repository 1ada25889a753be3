"""Distance metrics, per-item scoring, and stratified reports."""

from __future__ import annotations

import dataclasses
import json
import math
import random

import numpy as np
import pytest

from polyipa import (
    Candidate,
    EvalItem,
    cer,
    char_bleu,
    exact_match,
    levenshtein,
    parse_ipa,
    report_from_json,
    stratify,
    top_n_wer,
    word_error_rate,
)
from polyipa.errors import EmptyInputError, NoCandidatesError


def test_levenshtein_classic():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("", "abc") == 3
    assert levenshtein("abc", "") == 3
    assert levenshtein("same", "same") == 0


def test_levenshtein_on_non_string_sequences():
    assert levenshtein((1, 2, 3), (1, 3)) == 1
    assert levenshtein(["a", "bb"], ["a", "bb", "c"]) == 1


def test_levenshtein_agrees_with_slow_recursion():
    def slow(a, b):
        if not a:
            return len(b)
        if not b:
            return len(a)
        return min(slow(a[1:], b) + 1, slow(a, b[1:]) + 1,
                   slow(a[1:], b[1:]) + (a[0] != b[0]))

    rng = random.Random(4)
    for _ in range(150):
        a = "".join(rng.choice("abc") for _ in range(rng.randint(0, 6)))
        b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 6)))
        assert levenshtein(a, b) == slow(a, b)


def test_cer_frozen_example():
    assert cer("schmidt", "schmitt") == 1 / 7


def test_cer_empty_reference_clamps():
    assert cer("", "ab") == 2.0
    assert cer("", "") == 0.0


def test_cer_compares_nfc():
    assert cer("café", "café") == 0.0


def test_char_bleu_identity_is_one():
    for text in ("abcd", "kitten", "ˈkatsə", "aaaa"):
        assert len(text) >= 4
        assert abs(char_bleu(text, text) - 1.0) <= 1e-12


def test_char_bleu_hand_computed():
    # all orders up to 3 are perfect, the 4-gram precision falls back to the
    # 0.01 floor, and the brevity penalty is exp(1 - 4/3)
    expected = math.exp(1.0 - 4.0 / 3.0) * 0.01 ** 0.25
    assert char_bleu("abcd", "abc") == pytest.approx(expected, rel=1e-12)


def test_char_bleu_disjoint_is_floor():
    assert char_bleu("aaaa", "bbbb") == pytest.approx(0.01, rel=1e-12)
    assert char_bleu("aaaa", "bbbb") < 0.05


def test_char_bleu_empty_hypothesis():
    assert char_bleu("abcd", "") == 0.0


def test_word_error_rate_multiword():
    assert word_error_rate("a b c", "a x c") == pytest.approx(1 / 3)
    assert word_error_rate("a b c", "a b c") == 0.0
    assert word_error_rate("kat", "kot") == 1.0  # single word, substitution


def test_exact_match_nfc():
    assert exact_match("café", "café")
    assert not exact_match("kat", "kot")


def _item(reference, cand_graphemes, lang="de", tag="<de>", ipa="kat"):
    cands = tuple(Candidate(g, -float(i)) for i, g in
                  enumerate(cand_graphemes, start=1))
    return EvalItem(lang, tag, parse_ipa(ipa), reference, cands)


def test_top_n_wer_rank_of_first_best():
    item = _item("kat", ["kot", "kat", "kit"])
    assert top_n_wer(item, 1) == (1.0, 1)
    assert top_n_wer(item, 2) == (0.0, 2)
    assert top_n_wer(item, 3) == (0.0, 2)  # rank 2 stays the first winner


def test_top_n_wer_caps_at_candidate_count():
    item = _item("kat", ["kot"])
    assert top_n_wer(item, 10) == (1.0, 1)


def test_top_n_wer_input_validation():
    item = _item("kat", ["kat"])
    with pytest.raises(ValueError):
        top_n_wer(item, 0)
    with pytest.raises(NoCandidatesError):
        top_n_wer(_item("kat", []), 1)


def test_top_n_wer_monotone_in_n():
    rng = random.Random(12)
    words = ["kat", "kot", "mit", "mat", "tip", "tap"]
    for _ in range(200):
        ref = rng.choice(words)
        cands = [rng.choice(words) for _ in range(rng.randint(1, 6))]
        item = _item(ref, cands)
        wers = [top_n_wer(item, n)[0] for n in range(1, 7)]
        assert all(x >= y for x, y in zip(wers, wers[1:]))


# stratified reports

def _quarter_item(lang, reference, top1):
    """One item whose top-1 CER is an exact multiple of 1/4."""
    return _item(reference, [top1], lang=lang, tag=f"<{lang}>")


def test_stratify_overall_is_weighted_mean():
    items = [
        _quarter_item("de", "abcd", "abcd"),   # cer 0.00
        _quarter_item("de", "abcd", "abcx"),   # cer 0.25
        _quarter_item("de", "abcd", "abxx"),   # cer 0.50
        _quarter_item("ru", "abcd", "axxx"),   # cer 0.75
    ]
    report = stratify(items, ns=(1,))
    by_lang = {r.lang: r for r in report.rows}
    assert by_lang["de"].cer_mean == pytest.approx(0.25)
    assert by_lang["ru"].cer_mean == pytest.approx(0.75)
    weighted = (3 * by_lang["de"].cer_mean + 1 * by_lang["ru"].cer_mean) / 4
    assert report.overall.cer_mean == pytest.approx(weighted)
    assert report.overall.n_samples == 4


def test_stratify_rows_ordered_by_size_then_lang():
    items = ([_quarter_item("ru", "abcd", "abcd")] * 2
             + [_quarter_item("de", "abcd", "abcd")] * 2
             + [_quarter_item("fr", "abcd", "abcd")] * 3)
    report = stratify(items)
    assert [r.lang for r in report.rows] == ["fr", "de", "ru"]


def test_stratify_single_language_matches_overall():
    items = [
        _quarter_item("de", "abcd", "abcx"),
        _quarter_item("de", "abcd", "abxx"),
    ]
    report = stratify(items, ns=(1, 3))
    row = report.rows[0]
    assert row.n_samples == report.overall.n_samples
    assert row.cer_mean == report.overall.cer_mean
    assert row.cer_std == report.overall.cer_std
    assert row.bleu_mean == report.overall.bleu_mean
    assert row.top_wer == report.overall.top_wer


def test_stratify_population_std():
    items = [
        _quarter_item("de", "abcd", "abcd"),   # cer 0.0
        _quarter_item("de", "abcd", "abxx"),   # cer 0.5
    ]
    report = stratify(items, ns=(1,))
    assert report.rows[0].cer_std == pytest.approx(0.25)  # not 0.3535..


def test_stratify_beam_position_uses_widest_n():
    item = _item("kat", ["kot", "kat"])
    report = stratify([item], ns=(1, 2))
    assert report.overall.mean_best_beam_position == 2.0
    narrow = stratify([item], ns=(1,))
    assert narrow.overall.mean_best_beam_position == 1.0


def test_stratify_wer_matches_top_n_wer():
    # stratify scores each candidate once; its top-n WER and beam position
    # must be top_n_wer's, ties going to the first best candidate
    rng = random.Random(13)
    words = ["kat", "kot", "mit", "mat", "ka t", "k at"]
    items = [_item(rng.choice(words), [rng.choice(words) for _ in range(rng.randint(1, 6))])
             for _ in range(200)]
    ns = (1, 2, 3, 5)
    report = stratify(items, ns=ns)
    for n in ns:
        assert report.overall.top_wer[n] == float(np.mean([top_n_wer(i, n)[0] for i in items]))
    assert report.overall.mean_best_beam_position == float(
        np.mean([float(top_n_wer(i, 5)[1]) for i in items]))
    for bad in ((0, 1), (-1, 3), ()):
        with pytest.raises(ValueError):
            stratify(items, ns=bad)


def test_stratify_rejects_empty_input():
    with pytest.raises(EmptyInputError):
        stratify([])
    with pytest.raises(NoCandidatesError):
        stratify([_item("kat", [])])


def test_report_json_roundtrip():
    items = [
        _quarter_item("de", "abcd", "abcx"),
        _quarter_item("ru", "abcd", "abcd"),
    ]
    report = dataclasses.replace(stratify(items, ns=(1, 3, 5)), no_candidates=4)
    back = report_from_json(report.to_json())
    assert back.rows == report.rows
    assert back.overall == report.overall
    assert back.ns == report.ns
    assert back.no_candidates == 4


def test_report_json_payload_shape():
    report = stratify([_quarter_item("de", "abcd", "abcd")], ns=(1,))
    payload = json.loads(report.to_json())
    assert set(payload) == {"overall", "languages", "no_candidates"}
    assert payload["no_candidates"] == 0
    assert payload["overall"]["lang"] == "overall"
    assert payload["languages"][0]["top_wer"] == {"1": 0.0}


def test_report_csv_roundtrip(tmp_path):
    items = [
        _quarter_item("de", "abcd", "abcx"),
        _quarter_item("ru", "abcd", "abcd"),
    ]
    report = stratify(items, ns=(1, 3))
    path = tmp_path / "report.csv"
    report.write_csv(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("lang,n_samples,cer_mean,cer_std,bleu_mean,"
                        "exact_match_rate,top1_wer,top3_wer,top1_cer,top3_cer,"
                        "mean_best_beam_position")
    assert len(lines) == 1 + len(report.rows) + 1  # header, rows, overall
    overall_cells = lines[-1].split(",")
    assert overall_cells[0] == "overall"
    assert float(overall_cells[2]) == report.overall.cer_mean
