"""Package-level acceptance checks.

Each test prints one `[criterion NN] name: PASS/FAIL` line and enforces its
pinned tolerance and time budget. The oracles are independent of the code
under test: memoized recursion for the distance table, exact rational
arithmetic for the split allocation, a pure-Python two-row DP over every
pair for mining, and brute-force enumeration for beam search.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from _reference_decode import exhaustive_best
from _reference_dp import encode, two_row_distance
from _synth import (
    AMBIG_SPELLINGS,
    ambiguous_lexicon,
    ambiguous_words,
    shallow_lexicon,
    spell_ambiguous,
)
from polyipa import (
    DistanceParams,
    FeatureTable,
    Lexicon,
    MiningParams,
    PronEntry,
    SplitSpec,
    beam_decode,
    cer,
    char_bleu,
    clean,
    default_feature_table,
    effective_beam_width,
    feature_edit_distance,
    lang_script_tag,
    levenshtein,
    mine_soundalikes,
    normalize_text,
    parse_ipa,
    strip_diacritics_tones,
    stratified_split,
    top_n_wer,
    train,
)
from polyipa.metrics import Candidate, EvalItem

# pinned bounds
DISTANCE_TIME_LIMIT = 60.0
MINING_TIME_LIMIT = 120.0
SHALLOW_TIME_LIMIT = 300.0
SHALLOW_CER_BOUND = 0.01
AMBIG_WER_CENTER = 0.50
AMBIG_WER_TOLERANCE = 0.05
AMBIG_TOP2_BOUND = 0.02
BLEU_IDENTITY_TOLERANCE = 1e-12


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    print(f"[criterion {num:02d}] {name}: PASS")


# criterion 1: the distance DP equals exhaustive recursion

ORACLE_SYMBOLS = list("abcdefghij")


def _dyadic_table(n_features=16, seed=11):
    """Feature table whose pairwise costs are exact binary fractions, so
    the comparison below is order-independent and exact."""
    rng = random.Random(seed)
    rows = {s: np.array([rng.choice((-1, 0, 1)) for _ in range(n_features)],
                        dtype=np.int8) for s in ORACLE_SYMBOLS}
    return FeatureTable([f"f{i}" for i in range(n_features)], rows)


def _recursive_distance(a, b, params, table):
    """Independent memoized recursion over suffixes."""
    def sub(x, y):
        va, vb = table.row(x), table.row(y)
        return float(np.count_nonzero(va != vb)) * params.sub_scale / table.dims

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


def test_criterion_01_distance_dp_equals_recursion():
    with criterion(1, "distance DP equals exhaustive recursion"):
        started = time.monotonic()
        table = _dyadic_table()
        param_sets = (DistanceParams(), DistanceParams(0.75, 1.25, 1.5))

        short = [tuple(p) for n in range(3)
                 for p in itertools.product(ORACLE_SYMBOLS, repeat=n)]
        pairs = list(itertools.product(short, short))

        rng = random.Random(41)
        for _ in range(2000):
            a = tuple(rng.choice(ORACLE_SYMBOLS) for _ in range(rng.randint(0, 4)))
            b = tuple(rng.choice(ORACLE_SYMBOLS) for _ in range(rng.randint(0, 4)))
            pairs.append((a, b))

        for params in param_sets:
            for a, b in pairs:
                got = feature_edit_distance(parse_ipa("".join(a)),
                                            parse_ipa("".join(b)),
                                            params, table)
                want = _recursive_distance(a, b, params, table)
                assert got == want, (a, b, got, want)
        assert time.monotonic() - started < DISTANCE_TIME_LIMIT


# criterion 2: exhaustive mining equals brute force

def _mining_entries(n=1000, seed=17):
    rng = random.Random(seed)
    phones = "ptkbdgmnszlrfvaeiou"
    entries = []
    seen = set()
    while len(entries) < n:
        word = "".join(rng.choice(phones) for _ in range(rng.randint(3, 12)))
        if word in seen:
            continue
        seen.add(word)
        entries.append(PronEntry("eo", word, parse_ipa(word)))
    return entries


def test_criterion_02_mining_equals_brute_force():
    with criterion(2, "exhaustive mining equals brute force"):
        started = time.monotonic()
        entries = _mining_entries()
        threshold = 5.0
        params = MiningParams(k=len(entries), threshold=threshold)
        mined = mine_soundalikes(entries, params)
        got = {(p.entry_a.grapheme, p.entry_b.grapheme, p.distance)
               for p in mined}

        params = DistanceParams()
        encoded, costs = encode([e.ipa for e in entries], default_feature_table(),
                                params.sub_scale)
        want = set()
        for i, j in itertools.combinations(range(len(entries)), 2):
            d = two_row_distance(encoded[i], encoded[j], costs,
                                 params.insert_cost, params.delete_cost)
            if d <= threshold:
                want.add((entries[i].grapheme, entries[j].grapheme, d))

        assert got == want
        # the threshold separates the fixture, so equality is not vacuous
        assert 0 < len(got) < len(entries) * (len(entries) - 1) // 2
        assert time.monotonic() - started < MINING_TIME_LIMIT


# criterion 3: shallow orthography is learned almost perfectly

def test_criterion_03_shallow_orthography_cer():
    with criterion(3, "shallow orthography held-out CER"):
        started = time.monotonic()
        lex = shallow_lexicon(5000, seed=303)
        train_lex, _, test_lex = stratified_split(
            lex, SplitSpec(test_size=500, eval_size=0, seed=7))
        assert len(test_lex) == 500
        model = train(train_lex, order=6)
        total = 0.0
        for entry in test_lex:
            cands = beam_decode(model, lang_script_tag(entry), entry.ipa,
                                n_best=1)
            total += cer(entry.grapheme, cands[0].grapheme)
        mean_cer = total / len(test_lex)
        assert mean_cer <= SHALLOW_CER_BOUND, mean_cer
        assert time.monotonic() - started < SHALLOW_TIME_LIMIT


# criterion 4: a perfectly ambiguous spelling splits the probability mass

def test_criterion_04_ambiguous_orthography_wer():
    with criterion(4, "ambiguous orthography top-1 and top-2 WER"):
        words = ambiguous_words(500, seed=404)
        model = train(ambiguous_lexicon(words), order=6)
        rng = random.Random(505)
        top1_errors = 0
        top2_errors = 0
        for ipa_text in words:
            reference = spell_ambiguous(ipa_text, rng.choice(AMBIG_SPELLINGS))
            cands = beam_decode(model, "<eo>", parse_ipa(ipa_text), n_best=2)
            if cands[0].grapheme != reference:
                top1_errors += 1
            if reference not in {c.grapheme for c in cands}:
                top2_errors += 1
        top1_wer = top1_errors / len(words)
        top2_wer = top2_errors / len(words)
        assert abs(top1_wer - AMBIG_WER_CENTER) <= AMBIG_WER_TOLERANCE, top1_wer
        assert top2_wer <= AMBIG_TOP2_BOUND, top2_wer


# criterion 5: pinned metric values and ranking monotonicity

def test_criterion_05_metric_contracts():
    with criterion(5, "metric reference values"):
        assert levenshtein("kitten", "sitting") == 3
        assert cer("schmidt", "schmitt") == 1 / 7
        for text in ("abcd", "kitten", "ˈkatsə", "pneumonoultra"):
            assert len(text) >= 4
            assert abs(char_bleu(text, text) - 1.0) <= BLEU_IDENTITY_TOLERANCE

        rng = random.Random(51)
        words = ["kat", "kot", "mit", "mat", "tip", "tap", "pak", "sol"]
        for _ in range(1000):
            reference = rng.choice(words)
            cands = tuple(
                Candidate(rng.choice(words), -float(i), i)
                for i in range(1, rng.randint(2, 7)))
            item = EvalItem("eo", "<eo>", parse_ipa("kat"), reference, cands)
            wers = [top_n_wer(item, n)[0] for n in range(1, len(cands) + 2)]
            assert all(x >= y for x, y in zip(wers, wers[1:])), wers


# criterion 6: the cleaning pipeline removes exactly the planted rows

def test_criterion_06_cleaning_removals(fixture_rows):
    with criterion(6, "cleaning removes the planted rows"):
        lex, report = clean(fixture_rows)
        assert report.input_count == 100
        assert len(lex) == 90
        assert report.removed_by_rule == {
            "duplicate": 2,
            "invalid-ipa": 5,
            "script-mismatch": 3,
        }
        assert report.conserved


# criterion 7: stratified splitting is proportional and deterministic

def _rational_allocation(total, sizes):
    langs = sorted(sizes)
    pool = sum(sizes.values())
    quotas = {lang: Fraction(total * sizes[lang], pool) for lang in langs}
    alloc = {lang: math.floor(quotas[lang]) for lang in langs}
    leftover = total - sum(alloc.values())
    order = sorted(langs, key=lambda l: (-(quotas[l] - alloc[l]), l))
    for lang in order[:leftover]:
        alloc[lang] += 1
    return alloc


def test_criterion_07_stratified_split():
    with criterion(7, "stratified split proportional and deterministic"):
        rng = random.Random(71)
        entries = []
        for lang in ("de", "fr", "ru"):
            seen = set()
            while len(seen) < 1000:
                word = "".join(rng.choice("ptkmnsal") for _ in range(5))
                if word in seen:
                    continue
                seen.add(word)
                entries.append(PronEntry(lang, f"{lang}{word}", parse_ipa(word)))
        lex = Lexicon(entries)
        spec = SplitSpec(test_size=50, eval_size=50, seed=9)
        train_lex, eval_lex, test_lex = stratified_split(lex, spec)

        assert len(test_lex) == 50
        assert len(eval_lex) == 50
        assert len(train_lex) == 3000 - 100

        sizes = {"de": 1000, "fr": 1000, "ru": 1000}
        want = _rational_allocation(50, sizes)
        for part in (test_lex, eval_lex):
            per_lang = {lang: 0 for lang in sizes}
            for e in part:
                per_lang[e.lang] += 1
            assert per_lang == want

        keys = [frozenset(e.key for e in part)
                for part in (train_lex, eval_lex, test_lex)]
        assert not (keys[0] & keys[1] or keys[0] & keys[2] or keys[1] & keys[2])
        assert frozenset.union(*keys) == frozenset(e.key for e in lex)

        again = stratified_split(lex, spec)
        for part_a, part_b in zip((train_lex, eval_lex, test_lex), again):
            assert [e.key for e in part_a] == [e.key for e in part_b]


# criterion 8: beam search finds the global argmax

def test_criterion_08_beam_matches_exhaustive_argmax():
    with criterion(8, "beam equals exhaustive argmax"):
        assert effective_beam_width(30) == 90
        assert effective_beam_width(30, beam_width=7) == 7

        words = ["pa", "ta", "pat", "tap", "apa", "ata", "tapa", "pata"]
        lex = Lexicon([PronEntry("eo", w, parse_ipa(w)) for w in words])
        model = train(lex, order=2)
        probes = ["pa", "ta", "pat", "apa", "tapa", "pata", "atap", "papa"]
        for probe in probes:
            ipa = parse_ipa(probe)
            assert len(ipa.segments) <= 4
            surface, score, visited = exhaustive_best(model, "<eo>", ipa)
            top = beam_decode(model, "<eo>", ipa, n_best=1,
                              beam_width=visited)
            assert top[0].grapheme == surface, probe
            assert top[0].log_score == pytest.approx(score, abs=1e-12)


# criterion 9: the text-level operations are idempotent

def test_criterion_09_idempotence(fixture_rows):
    with criterion(9, "normalize, strip, and clean are idempotent"):
        for lang, grapheme, ipa_text in fixture_rows:
            once = normalize_text(grapheme)
            assert normalize_text(once) == once
            once = normalize_text(ipa_text)
            assert normalize_text(once) == once

        lex, report = clean(fixture_rows)
        for entry in lex:
            stripped = strip_diacritics_tones(entry.ipa)
            again = strip_diacritics_tones(stripped)
            assert again.text == stripped.text

        rows = [(e.lang, e.grapheme, e.ipa.text) for e in lex]
        relex, rereport = clean(rows)
        assert len(relex) == len(lex)
        assert rereport.removed_by_rule == {}
        assert rereport.conserved
