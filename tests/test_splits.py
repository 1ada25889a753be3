"""Stratified splitting and training-stream upsampling."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from polyipa import (
    Lexicon,
    PronEntry,
    SoundalikePair,
    SplitSpec,
    TrainExample,
    parse_ipa,
    read_examples_tsv,
    stratified_split,
    upsample_generate,
    variant_map_from_pairs,
    write_examples_tsv,
)
from polyipa.errors import InsufficientDataError


def _entry(lang, grapheme, ipa=None):
    return PronEntry(lang, grapheme, parse_ipa(ipa or grapheme))


def _corpus(lang_sizes, seed=0):
    rng = random.Random(seed)
    phones = "ptkmnsal"
    entries = []
    for lang, size in lang_sizes.items():
        made = set()
        while len(made) < size:
            word = "".join(rng.choice(phones) for _ in range(rng.randint(3, 6)))
            if (lang, word) in made:
                continue
            made.add((lang, word))
            entries.append(_entry(lang, word))
    return Lexicon(entries)


def _fraction_allocate(total, weights, caps):
    """Largest-remainder allocation recomputed with exact rationals."""
    langs = sorted(weights)
    pool = sum(weights.values())
    if total == 0:
        return {lang: 0 for lang in langs}
    quotas = {lang: Fraction(total * weights[lang], pool) for lang in langs}
    alloc = {lang: min(math.floor(quotas[lang]), caps[lang]) for lang in langs}
    assigned = sum(alloc.values())
    order = sorted(langs, key=lambda l: (-(quotas[l] - math.floor(quotas[l])), l))
    while assigned < total:
        progressed = False
        for lang in order:
            if assigned == total:
                break
            if alloc[lang] < caps[lang]:
                alloc[lang] += 1
                assigned += 1
                progressed = True
        if not progressed:
            raise InsufficientDataError("stuck")
    return alloc


def test_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(test_size=-1)
    with pytest.raises(ValueError):
        SplitSpec(max_tokens=0)
    with pytest.raises(ValueError):
        SplitSpec(per_lang_cap=0)


def test_even_corpus_splits_evenly():
    lex = _corpus({"de": 100, "fr": 100, "ru": 100})
    train, eval_set, test = stratified_split(
        lex, SplitSpec(test_size=30, eval_size=30, seed=1))
    for part, want in ((test, 10), (eval_set, 10)):
        per_lang = {}
        for e in part:
            per_lang[e.lang] = per_lang.get(e.lang, 0) + 1
        assert per_lang == {"de": want, "fr": want, "ru": want}
    assert len(train) == 240


def test_remainder_tie_goes_to_first_language():
    lex = _corpus({"de": 100, "fr": 100, "ru": 100})
    _, _, test = stratified_split(lex, SplitSpec(test_size=10, eval_size=0))
    per_lang = {}
    for e in test:
        per_lang[e.lang] = per_lang.get(e.lang, 0) + 1
    assert per_lang == {"de": 4, "fr": 3, "ru": 3}


def test_parts_are_disjoint_and_cover_everything():
    lex = _corpus({"de": 120, "fr": 80, "ru": 40}, seed=2)
    parts = stratified_split(lex, SplitSpec(test_size=40, eval_size=30, seed=3))
    keys = [frozenset(e.key for e in part) for part in parts]
    assert sum(len(k) for k in keys) == len(lex)
    assert not (keys[0] & keys[1] or keys[0] & keys[2] or keys[1] & keys[2])
    assert frozenset.union(*keys) == frozenset(e.key for e in lex)


def test_same_seed_reproduces_the_split():
    lex = _corpus({"de": 90, "ru": 60}, seed=4)
    spec = SplitSpec(test_size=30, eval_size=20, seed=11)
    a = stratified_split(lex, spec)
    b = stratified_split(lex, spec)
    for part_a, part_b in zip(a, b):
        assert [e.key for e in part_a] == [e.key for e in part_b]
    different = stratified_split(lex, SplitSpec(test_size=30, eval_size=20, seed=12))
    assert any([e.key for e in x] != [e.key for e in y]
               for x, y in zip(a, different))


def test_allocation_matches_exact_rational_oracle():
    rng = random.Random(31)
    for trial in range(12):
        langs = {f"l{chr(ord('a') + i)}": rng.randint(40, 300)
                 for i in range(rng.randint(2, 5))}
        lex = _corpus(langs, seed=trial)
        sizes = {lang: len([e for e in lex if e.lang == lang]) for lang in langs}
        test_size = rng.randint(1, sum(sizes.values()) // 4)
        eval_size = rng.randint(1, sum(sizes.values()) // 4)
        spec = SplitSpec(test_size=test_size, eval_size=eval_size, seed=trial)
        _, eval_set, test = stratified_split(lex, spec)

        want_test = _fraction_allocate(test_size, sizes, dict(sizes))
        remaining = {lang: sizes[lang] - want_test[lang] for lang in sizes}
        want_eval = _fraction_allocate(eval_size, sizes, remaining)
        got_test = {lang: 0 for lang in sizes}
        for e in test:
            got_test[e.lang] += 1
        got_eval = {lang: 0 for lang in sizes}
        for e in eval_set:
            got_eval[e.lang] += 1
        assert got_test == want_test
        assert got_eval == want_eval


def test_tiny_language_rounds_to_zero_and_stays_in_train():
    lex = _corpus({"de": 398, "yi": 2}, seed=5)
    train, eval_set, test = stratified_split(
        lex, SplitSpec(test_size=40, eval_size=40, seed=6))
    assert all(e.lang == "de" for e in test)
    assert all(e.lang == "de" for e in eval_set)
    assert sum(1 for e in train if e.lang == "yi") == 2


def test_per_lang_cap_limits_pools():
    lex = _corpus({"de": 200, "ru": 50}, seed=7)
    spec = SplitSpec(test_size=20, eval_size=0, seed=8, per_lang_cap=50)
    train, _, test = stratified_split(lex, spec)
    per_lang = {}
    for e in test:
        per_lang[e.lang] = per_lang.get(e.lang, 0) + 1
    assert per_lang == {"de": 10, "ru": 10}  # equal pools after capping
    # capped-away entries are not in any part
    assert len(train) == 50 + 50 - 20


def test_insufficient_data_raises():
    lex = _corpus({"de": 15, "ru": 15}, seed=9)
    with pytest.raises(InsufficientDataError):
        stratified_split(lex, SplitSpec(test_size=20, eval_size=10))


# upsampling

def test_token_count():
    ex = TrainExample("<de>", parse_ipa("kat"), "katze", "original")
    assert ex.token_count == 1 + 3 + 5


def test_plain_entries_emit_only_originals():
    train = [_entry("de", "kat"), _entry("de", "mol")]
    counters = {}
    out = list(upsample_generate(train, counters=counters))
    assert [ex.provenance for ex in out] == ["original", "original"]
    assert counters["original"] == 2
    assert counters["repeat"] == 0
    assert all(ex.tag == "<de>" for ex in out)


def test_stripped_variant_only_when_different():
    train = [PronEntry("de", "kat", parse_ipa("ˈkaːt"))]
    out = list(upsample_generate(train))
    assert [ex.provenance for ex in out] == ["original", "cleaned-variant"]
    assert out[1].ipa.text == "kat"
    assert out[1].target == "kat"


def test_repeats_keep_original_ratio():
    variants = {("de", "kat", "kat"): [parse_ipa("kad"), parse_ipa("gat")]}
    train = [_entry("de", "kat")]
    counters = {}
    out = list(upsample_generate(train, variants, ratio=1.0, counters=counters))
    # two similar variants, so one repeat keeps originals at half the stream
    assert [ex.provenance for ex in out] == \
        ["original", "similar-variant", "similar-variant", "repeat"]
    doubled = list(upsample_generate(train, variants, ratio=2.0))
    assert [ex.provenance for ex in doubled].count("repeat") == 3


def test_repeat_count_formula():
    for n_variants in range(5):
        for ratio in (0.5, 1.0, 1.5, 2.0):
            variants = {("de", "kat", "kat"):
                        [parse_ipa("k" + "a" * (i + 2) + "t") for i in range(n_variants)]}
            out = list(upsample_generate([_entry("de", "kat")], variants,
                                         ratio=ratio))
            got = sum(1 for ex in out if ex.provenance == "repeat")
            assert got == max(0, math.ceil(ratio * n_variants) - 1)


def test_token_budget_drops_long_emissions():
    train = [_entry("de", "kat")]  # 1 + 3 + 3 = 7 tokens
    counters = {}
    out = list(upsample_generate(train, spec=SplitSpec(max_tokens=7),
                                 counters=counters))
    assert out == []  # budget is strict, the original itself is filtered
    assert counters["filtered_length"] == 1
    assert counters["original"] == 0
    roomy = list(upsample_generate(train, spec=SplitSpec(max_tokens=8)))
    assert len(roomy) == 1


def test_long_variant_filtered_original_kept():
    variants = {("de", "kat", "kat"): [parse_ipa("kataaaaaaa")]}
    counters = {}
    out = list(upsample_generate([_entry("de", "kat")], variants,
                                 spec=SplitSpec(max_tokens=12),
                                 counters=counters))
    assert [ex.provenance for ex in out] == ["original"]
    assert counters["filtered_length"] == 1


def test_duplicate_entries_suppressed():
    train = [_entry("de", "kat"), _entry("de", "kat")]
    counters = {}
    out = list(upsample_generate(train, counters=counters))
    assert len(out) == 1
    assert counters["filtered_duplicate"] == 1


def test_variant_colliding_with_original_suppressed():
    variants = {("de", "kad", "kad"): [parse_ipa("kat")]}
    train = [_entry("de", "kat", "kat"), _entry("de", "kad", "kad")]
    out = list(upsample_generate(train, variants))
    # kad's variant input kat with target kad is fine; same input with the
    # same target would be the collision
    assert [(ex.provenance, ex.ipa.text, ex.target) for ex in out] == [
        ("original", "kat", "kat"),
        ("original", "kad", "kad"),
        ("similar-variant", "kat", "kad"),
    ]
    again = list(upsample_generate(
        [_entry("de", "kat"), _entry("de", "kat", "kad")],
        {("de", "kat", "kad"): [parse_ipa("kat")]}))
    # here the variant duplicates the first original exactly
    assert [(ex.provenance, ex.ipa.text) for ex in again] == [
        ("original", "kat"), ("original", "kad")]


def test_variant_map_indexes_both_directions():
    a = _entry("de", "kat", "kat")
    b = _entry("de", "gat", "kad")
    pairs = [SoundalikePair(a, b, 0.5), SoundalikePair(a, b, 0.5)]
    mapping = variant_map_from_pairs(pairs)
    assert [v.text for v in mapping[("de", "kat", "kat")]] == ["kad"]
    assert [v.text for v in mapping[("de", "gat", "kad")]] == ["kat"]


def test_examples_tsv_roundtrip(tmp_path):
    examples = [
        TrainExample("<de>", parse_ipa("kat"), "kat", "original"),
        TrainExample("<sr_Cyrl>", parse_ipa("pas"), "пас", "similar-variant"),
    ]
    path = tmp_path / "examples.tsv"
    write_examples_tsv(path, examples)
    back = read_examples_tsv(path)
    assert [(ex.tag, ex.ipa.text, ex.target, ex.provenance) for ex in back] == \
        [(ex.tag, ex.ipa.text, ex.target, ex.provenance) for ex in examples]


def test_examples_tsv_validates(tmp_path):
    path = tmp_path / "examples.tsv"
    path.write_text("<de>\tkat\tkat\tbogus\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"examples\.tsv: line 1: "):
        read_examples_tsv(path)
    path.write_text("<de>\tkat\tkat\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"examples\.tsv: line 1: "):
        read_examples_tsv(path)
