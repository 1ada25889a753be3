"""Chunk alignment, joint n-gram estimation, beam decoding, and the
candidate file format."""

from __future__ import annotations

import functools
import importlib
import json
import math
import pkgutil
import random
import warnings

import pytest

import _reference_beam
import _reference_em
import _reference_viterbi
import polyipa.model
from _reference_decode import exhaustive, exhaustive_best, ranked
from _synth import ambiguous_lexicon, ambiguous_words, shallow_lexicon, shallow_words
from polyipa import cli
from polyipa import (
    Candidate,
    ChunkAligner,
    IpaSegment,
    IpaString,
    JointModel,
    Lexicon,
    PronEntry,
    beam_decode,
    load_external_candidates,
    parse_ipa,
    train,
    train_tagged,
    write_candidates_tsv,
)
from polyipa.errors import (
    CandidateParseError,
    EmptyInputError,
    EmptyLexiconError,
    NonMonotoneScoresError,
    UnknownTagWarning,
)


def _identity_lexicon(words, lang="eo"):
    return Lexicon([PronEntry(lang, w, parse_ipa(w)) for w in words])


def _identity_words(n, seed):
    rng = random.Random(seed)
    phones = "ptkmnsal"
    out = set()
    while len(out) < n:
        out.add("".join(rng.choice(phones) for _ in range(rng.randint(2, 5))))
    return sorted(out)


# alignment

def test_viterbi_prefers_likelier_chunking():
    probs = {
        (("k",), "k"): 0.5,
        (("a",), "a"): 0.25,
        (("t",), "t"): 0.25,
        (("k", "a"), "ka"): 0.01,
    }
    assert _reference_viterbi.chunkings(probs, [(("k", "a", "t"), "kat")]) == [
        ((("k",), "k"), (("a",), "a"), (("t",), "t"))]


def test_em_learns_digraph_chunk():
    lex = shallow_lexicon(300, seed=21)
    aligner = ChunkAligner()
    stats = aligner.fit([(tuple(s.text for s in e.ipa.segments), e.grapheme)
                         for e in lex])
    assert stats["ratio_skipped"] == 0
    assert stats["unalignable"] == 0
    k, entry = next((k, e) for k, e in enumerate(lex) if "t͡ʃ" in e.ipa.text)
    segs = tuple(s.text for s in entry.ipa.segments)
    chunks = aligner.viterbi()[k]
    assert ((("t͡ʃ",), "ch")) in chunks
    assert tuple(s for phones, _ in chunks for s in phones) == segs
    assert "".join(letters for _, letters in chunks) == entry.grapheme


def test_alignment_rejects_extreme_ratios():
    pairs = [(("a",), "a"), (("a",), "aaaaa"), ((), "a"), (("a",), "")]  # 1:5, 0:1, 1:0
    aligner = ChunkAligner()
    assert aligner.fit(pairs)["ratio_skipped"] == 3
    assert aligner.viterbi() == [((("a",), "a"),), None, None, None]
    assert _reference_viterbi.chunkings({(("a",), "a"): 1.0}, pairs) == \
        [((("a",), "a"),), None, None, None]


def test_alignment_fails_without_covering_chunks():
    assert _reference_viterbi.chunkings({(("a",), "a"): 1.0}, [(("b",), "b")]) == [None]
    # one rare row among 1200 copies: its only chunk has 1/1201 of the
    # counts, and min_prob prunes it
    pairs = [(("a",), "a")] * 1200 + [(("x",), "q")]
    aligner = ChunkAligner()
    assert aligner.fit(pairs, iterations=1, min_prob=1e-3)["unalignable"] == 1
    assert set(aligner.probs) == {(("a",), "a")}
    chunkings = aligner.viterbi()
    assert chunkings[0] == ((("a",), "a"),)
    assert chunkings[-1] is None


def test_viterbi_breaks_exact_ties_by_chunk_shape():
    # once min_prob prunes a:a, the two chunkings of aa -> "aa" left are a
    # silent a then a:aa, and a:aa then a silent a. They tie exactly: 0.0 +
    # log p(a:aa) + log p(a:) in either order. The edge of 0 letters into
    # the final cell outranks the one of 2
    pairs = [(("a",), "aa")] * 50 + [(("a", "t"), "t")] * 50 + [(("a", "a"), "aa")]
    aligner = ChunkAligner()
    aligner.fit(pairs, iterations=1, min_prob=0.02)
    assert (("a",), "a") not in aligner.probs
    first = math.log(aligner.probs[(("a",), "")]) + math.log(aligner.probs[(("a",), "aa")])
    second = math.log(aligner.probs[(("a",), "aa")]) + math.log(aligner.probs[(("a",), "")])
    assert first == second
    assert aligner.viterbi()[-1] == ((("a",), "aa"), (("a",), ""))
    assert _reference_viterbi.chunkings(aligner.probs, pairs[-1:]) == [
        ((("a",), "aa"), (("a",), ""))]


def test_fit_codes_the_chunks_of_a_large_letter_set():
    # 20,000 segments and 20,000 letters, as a lexicon with Chinese
    # characters may hold, and one chunk of 4 of those letters: every
    # chunk's code fits in 64 bits and reads back as its own chunk
    letters = [chr(0x4E00 + k) for k in range(20000)]
    pairs = [((f"s{k}",), letter) for k, letter in enumerate(letters)]
    pairs.append((("s0",), "".join(letters[-4:])))
    aligner = ChunkAligner()
    assert aligner.fit(pairs, iterations=1)["unalignable"] == 0
    assert aligner.viterbi() == [(pair,) for pair in pairs]


def test_viterbi_reads_each_fit_once():
    aligner = ChunkAligner()
    with pytest.raises(RuntimeError):
        aligner.viterbi()
    aligner.fit([(("a",), "a")])
    assert aligner.viterbi() == [((("a",), "a"),)]
    assert aligner._fitted is None  # the lattices are released
    with pytest.raises(RuntimeError):
        aligner.viterbi()


def test_fit_counts_ratio_skips():
    # ab -> "ab" has three chunkings: a:a b:b, a: b:ab and a:ab b:. EM
    # keeps the four chunks of the last two at one weight u and a:a and b:b
    # at v, from the start's u = _START_WEIGHT and v = 1; a chunking's
    # posterior is the product of its weights over their sum, and each
    # chunk's count over the row's 2 phonemes is its next weight
    aligner = ChunkAligner()
    stats = aligner.fit([(("a", "b"), "ab"), (("a",), "aaaaa")], iterations=6)
    u, v, expected = polyipa.model._START_WEIGHT, 1.0, []
    for _ in range(6):
        z = v * v + 2 * u * u
        u, v = u * u / z / 2, v * v / z / 2
        u = u if u >= 1e-12 else 0.0  # min_prob prunes u from the 4th iteration on
        expected.append(math.log(v * v + 2 * u * u))
    assert u == 0.0
    assert stats == {"pairs": 2, "ratio_skipped": 1, "unalignable": 0,
                     "log_likelihood": pytest.approx(expected, rel=1e-12)}


@pytest.mark.parametrize("iterations", [1, 2])
def test_fit_log_likelihood_is_that_of_the_final_table(iterations):
    aligner = ChunkAligner()
    stats = aligner.fit([(("a", "b"), "ab")], iterations=iterations)
    p = aligner.probs
    z = (p[(("a",), "a")] * p[(("b",), "b")] + p[(("a",), "")] * p[(("b",), "ab")]
         + p[(("a",), "ab")] * p[(("b",), "")])
    assert len(stats["log_likelihood"]) == iterations
    assert stats["log_likelihood"][-1] == pytest.approx(math.log(z), rel=1e-12)
    assert stats["log_likelihood"][-1] < 0.0


def _pairs(lex):
    return [(tuple(s.text for s in e.ipa.segments), e.grapheme) for e in lex]


def _mixed_stream():
    """Exact duplicates, 1-segment rows, ratio-skipped rows, rows of 12+
    segments, and rows whose only chunk is rare."""
    base = _pairs(shallow_lexicon(120, seed=5))
    long_rows = [(sum((segs for segs, _ in base[k:k + 5]), ()),
                  "".join(graph for _, graph in base[k:k + 5]))
                 for k in range(0, 50, 5)]
    assert all(len(segs) >= 12 for segs, _ in long_rows)
    singles = [(("a",), "a"), (("ʃ",), "sh"), (("t͡ʃ",), "ch"), (("x",), "q"),
               (("k",), "c")]
    skipped = [(("a",), "aaaaa"), ((), "a"), (("p", "a"), ""),
               (("a", "b", "c", "d", "e", "f", "g", "h", "i"), "ab")]
    rows = base[:60] + singles + long_rows + base[:25] + skipped + base[60:] + singles[:2]
    rows.insert(7, rows[3])
    return rows


def _assert_matches_reference(pairs, **kwargs):
    ref_probs, ref_stats = _reference_em.fit(pairs, **kwargs)
    aligner = ChunkAligner()
    stats = aligner.fit(pairs, **kwargs)
    assert list(aligner.probs) == list(ref_probs)
    assert all(aligner.probs[c] == p for c, p in ref_probs.items())
    log_likelihood = stats.pop("log_likelihood")
    # the oracle counts the rows without a path under the table of its last
    # E step; fit counts them under the final table, as viterbi() sees it
    del ref_stats["unalignable"]
    assert {k: v for k, v in stats.items() if k != "unalignable"} == ref_stats
    assert stats["unalignable"] == aligner.viterbi().count(None) - stats["ratio_skipped"]
    assert len(log_likelihood) == max(1, kwargs.get("iterations", polyipa.model._EM_ITERATIONS))
    return stats, log_likelihood


def test_fit_matches_reference_em_bit_for_bit():
    _, log_likelihood = _assert_matches_reference(_pairs(shallow_lexicon(300, seed=21)))
    # EM never lowers the likelihood
    assert all(b >= a - 1e-6 for a, b in zip(log_likelihood, log_likelihood[1:]))


def test_fit_matches_reference_em_on_mixed_stream():
    stats, _ = _assert_matches_reference(_mixed_stream())
    assert stats["ratio_skipped"] == 4


@pytest.mark.parametrize("iterations", [1, 6])
def test_fit_matches_reference_em_with_pruned_chunks(iterations):
    # the stream's 901 usable segments each count 1: min_prob prunes the
    # chunks counted once, x:q and k:c
    stats, _ = _assert_matches_reference(_mixed_stream(), iterations=iterations,
                                         min_prob=1.5e-3)
    # rows whose only chunk was pruned
    assert stats["unalignable"] == 2


@pytest.mark.parametrize("block_rows", [5, 64])
def test_fit_matches_reference_em_across_blocks(monkeypatch, block_rows):
    # adjacent copies of a row, as augment writes them, share one lattice
    # inside a block; with blocks of 5 some runs of copies straddle two
    base = _pairs(shallow_lexicon(40, seed=5))
    rows = [row for k, row in enumerate(base) for _ in range(1 + k % 3)] + _mixed_stream()
    monkeypatch.setattr(polyipa.model, "_BLOCK_ROWS", block_rows)
    _assert_matches_reference(rows)
    _assert_matches_reference(rows, iterations=3, min_prob=1e-3)


def _assert_viterbi_matches_reference(pairs, **kwargs):
    aligner = ChunkAligner()
    aligner.fit(pairs, **kwargs)
    chunkings = aligner.viterbi()
    assert chunkings == _reference_viterbi.chunkings(aligner.probs, pairs)
    return chunkings


def test_viterbi_matches_reference():
    chunkings = _assert_viterbi_matches_reference(_pairs(shallow_lexicon(300, seed=21)))
    assert None not in chunkings


@pytest.mark.parametrize("kwargs, unaligned", [({}, 4),
                                               ({"iterations": 6, "min_prob": 1.5e-3}, 6),
                                               ({"iterations": 1}, 4),
                                               ({"iterations": 1, "min_prob": 1.5e-3}, 6)])
def test_viterbi_matches_reference_on_mixed_stream(kwargs, unaligned):
    chunkings = _assert_viterbi_matches_reference(_mixed_stream(), **kwargs)
    # the 4 ratio-skipped rows, and with pruning the rows whose only chunk went
    assert chunkings.count(None) == unaligned


@pytest.mark.parametrize("block_rows", [5, 64])
def test_viterbi_matches_reference_across_blocks(monkeypatch, block_rows):
    base = _pairs(shallow_lexicon(40, seed=5))
    rows = [row for k, row in enumerate(base) for _ in range(1 + k % 3)] + _mixed_stream()
    monkeypatch.setattr(polyipa.model, "_BLOCK_ROWS", block_rows)
    _assert_viterbi_matches_reference(rows)
    _assert_viterbi_matches_reference(rows, iterations=3, min_prob=1e-3)


@pytest.mark.parametrize("pairs", [[], [(("a",), "aaaaa"), ((), "a"), (("p", "a"), "")]])
def test_fit_without_usable_rows(pairs):
    aligner = ChunkAligner()
    stats = aligner.fit(pairs)
    assert stats == {"pairs": len(pairs), "ratio_skipped": len(pairs), "unalignable": 0,
                     "log_likelihood": []}
    assert aligner.probs == {}
    assert aligner.viterbi() == [None] * len(pairs)


def test_train_without_usable_rows_is_an_empty_lexicon():
    rows = [("<eo>", IpaString.from_segments(map(IpaSegment, segs)), graph)
            for segs, graph in [(("a",), "aaaaa"), ((), "a"), (("p", "a"), "")]]
    with pytest.raises(EmptyLexiconError):
        train_tagged(rows)


def test_fit_does_not_underflow_on_a_long_row(monkeypatch):
    pairs = _pairs(shallow_lexicon(300, seed=21))
    segs = tuple(s for row, _ in pairs[:70] for s in row)
    graph = "".join(g for _, g in pairs[:70])
    assert len(segs) > 300
    results = []
    # the long row shares a block with the 300 short rows, then sits alone
    # in one: no row's results, nor the log-likelihood, may depend on the
    # rows beside it
    for block_rows in (1024, len(pairs)):
        monkeypatch.setattr(polyipa.model, "_BLOCK_ROWS", block_rows)
        aligner = ChunkAligner()
        stats = aligner.fit(pairs + [(segs, graph)])
        assert stats["unalignable"] == 0
        assert all(math.isfinite(v) for v in stats["log_likelihood"])
        assert all(math.isfinite(p) and p > 0.0 for p in aligner.probs.values())
        chunkings = aligner.viterbi()
        chunks = chunkings[-1]
        assert tuple(s for phones, _ in chunks for s in phones) == segs
        assert "".join(letters for _, letters in chunks) == graph
        results.append((list(aligner.probs.items()), chunkings, stats["log_likelihood"]))
    assert results[0] == results[1]


def test_rows_of_one_block_keep_their_own_scale(monkeypatch):
    # after the first E step a chunk of the common row weighs about 1/2 and
    # one of the rare row, each seen once, about 1/600: 300 phonemes in,
    # their alphas lie some 2 ** 2400 apart, so one scale for both rows
    # would flush the rare row to 0
    common = (("a",) * 300, "a" * 300)
    rare = (tuple(f"s{k}" for k in range(300)), "b" * 300)
    results = []
    for block_rows in (2, 1):
        monkeypatch.setattr(polyipa.model, "_BLOCK_ROWS", block_rows)
        aligner = ChunkAligner()
        assert aligner.fit([common, rare])["unalignable"] == 0
        results.append((list(aligner.probs.items()), aligner.viterbi()))
    assert results[0] == results[1]
    assert None not in results[0][1]


# training and probabilities

def test_train_rejects_empty_input():
    with pytest.raises(EmptyLexiconError):
        train(Lexicon([]))
    with pytest.raises(EmptyLexiconError):
        train_tagged([])


def test_train_rejects_bad_settings_before_em(monkeypatch):
    lex = shallow_lexicon(20, seed=3)
    rows = [(f"<{e.lang}>", e.ipa, e.grapheme) for e in lex]

    def no_em(*args, **kwargs):
        raise AssertionError("EM ran before the settings were checked")

    with monkeypatch.context() as patch:
        patch.setattr(ChunkAligner, "fit", no_em)
        with pytest.raises(ValueError):
            train(lex, order=0)
        with pytest.raises(ValueError):
            train_tagged(rows, order=0)


def test_train_runs_a_fixed_number_of_em_iterations():
    stats = train(shallow_lexicon(40, seed=3), order=3).training_stats
    assert len(stats["log_likelihood"]) == polyipa.model._EM_ITERATIONS == 3


def test_train_alignment_failures_are_the_fit_skips(monkeypatch):
    # pruning at 1.5e-3 after one iteration leaves two usable rows without a path
    monkeypatch.setattr(ChunkAligner, "fit",
                        functools.partialmethod(ChunkAligner.fit, iterations=1, min_prob=1.5e-3))
    rows = [("<eo>", IpaString.from_segments(map(IpaSegment, segs)), graph)
            for segs, graph in _mixed_stream()]
    stats = train_tagged(rows, order=2).training_stats
    assert (stats["ratio_skipped"], stats["unalignable"]) == (4, 2)
    assert stats["alignment_failures"] == 6


def test_every_exported_name_resolves():
    modules = [polyipa] + [importlib.import_module(f"polyipa.{info.name}")
                           for info in pkgutil.iter_modules(polyipa.__path__)]
    assert len(modules) == 11
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing {missing}"


def _hand_counted_model():
    """An order-3 model over a hand-built table with two tags. Its n-grams
    seen once and twice number 1 and 1 after the empty context, 3 and 2
    after 1-token contexts, and 3 and 0 after 2-token contexts."""
    tokens = [("</s>",), ("<s>",), ("chunk", ("a",), "a"), ("chunk", ("b",), "b"),
              ("tag", "<x>"), ("tag", "<y>")]
    eos, bos, a, b, x, y = range(6)
    counts = {
        (): {eos: 2, a: 5, b: 1},
        (x,): {a: 1, b: 1, eos: 2},
        (y,): {a: 1, eos: 2},
        (bos, x): {a: 1, b: 1},
        (a, x): {eos: 1},
    }
    return JointModel(3, tokens, counts)


def test_discounts_are_estimated_per_context_length():
    model = _hand_counted_model()
    assert [d.hex() for d in model.discounts] == [
        (1 / (1 + 2 * 1)).hex(), (3 / (3 + 2 * 2)).hex(), (0.75).hex()]
    assert all(0.0 < d < 1.0 for d in model.discounts)
    # order 2 has no discounts[2] for the table's 2-token contexts
    with pytest.raises(ValueError, match="too long"):
        JointModel(2, model.tokens, model.counts)
    # a trained model's lengths are all estimated, each in (0, 1), once some
    # chunks are counted once (v:w) and twice (f:ph): a shallow spelling
    # alone counts every chunk after the empty and the tag context often
    lex = Lexicon(list(shallow_lexicon(150, seed=22))
                  + [PronEntry("eo", graph, parse_ipa(ipa))
                     for graph, ipa in (("wa", "va"), ("pha", "fa"), ("phi", "fi"))])
    trained = train(lex, order=6)
    assert len(trained.discounts) == 6 and 0.75 not in trained.discounts
    assert all(0.0 < d < 1.0 for d in trained.discounts)


def test_contexts_end_in_the_tag():
    rows = [("<aa>", parse_ipa("pata"), "pata"), ("<bb>", parse_ipa("pa"), "pa")]
    model = train_tagged(rows, order=4)
    tags = {model.ids[("tag", "<aa>")], model.ids[("tag", "<bb>")]}
    assert model.tags == {"<aa>", "<bb>"}
    assert all(ctx[-1] in tags and not tags & set(ctx[:-1]) for ctx in model.counts if ctx)
    assert not tags & model.vocab  # a tag is never predicted
    # <aa>'s row read back along its longest contexts: the last two tokens
    # of its history, BOS BOS first, then the tag
    bos, eos, aa = model.ids[("<s>",)], model.ids[("</s>",)], model.ids[("tag", "<aa>")]
    history, letters = [bos, bos], ""
    while history[-1] != eos:
        (token,) = model.counts[(*history[-2:], aa)]
        history.append(token)
        letters += model.tokens[token][2] if token != eos else ""
    assert letters == "pata"
    # order 2 counts no BOS, order 1 no tag, and both still know the tags
    for order in (1, 2):
        low = train_tagged(rows, order=order)
        assert ("<s>",) not in low.ids
        assert low.tags == {"<aa>", "<bb>"}
        assert all(len(ctx) == order - 1 for ctx in low.counts if ctx)


def test_conditionals_sum_to_one():
    # the hand-counted table's length-2 contexts take the fallback discount
    for model in (train(shallow_lexicon(150, seed=22), order=3), _hand_counted_model()):
        contexts = sorted(model.counts, key=repr)[:25]
        for ctx in contexts:
            total = sum(model.prob(tok, ctx) for tok in model.vocab)
            assert total == pytest.approx(1.0, abs=1e-9)


def test_unseen_context_backs_off_and_sums_to_one():
    model = train(shallow_lexicon(150, seed=22), order=3)
    unseen = (len(model.tokens), len(model.tokens) + 1)  # ids outside the table
    assert unseen not in model.counts
    total = sum(model.prob(tok, unseen) for tok in model.vocab)
    assert total == pytest.approx(1.0, abs=1e-9)


def _cache_sizes(model):
    windows = [window for index in model._indexes.values() for window in index.values()]
    return (len(model._probs_cache), len(windows), sum(len(window.scored) for window in windows))


def test_decode_caches_trained_contexts_only():
    lex = Lexicon(list(shallow_lexicon(150, seed=22))
                  + [PronEntry("de", graph.replace("v", "w"), parse_ipa(ipa))
                     for graph, ipa in shallow_words(60, seed=5)]
                  + [PronEntry("de", "bach", parse_ipa("bax"))])
    model = train(lex, order=3)
    assert model.tags == {"<eo>", "<de>"}
    assert "w" in [letters for _, letters in model.chunk_index["v"]] and "x" in model.chunk_index
    probes = [parse_ipa(probe) for probe in ("pato", "ʃilo", "t͡ʃama", "kemi", "vasi", "xa")]
    for tag in sorted(model.tags):
        for ipa in probes:
            assert beam_decode(model, tag, ipa, n_best=5)
    # <eo> spells v only as v, and x, which only <de> trained, as <de> does
    assert {c.grapheme for c in beam_decode(model, "<eo>", probes[4], 5)} == {"vasi"}
    assert {c.grapheme for c in beam_decode(model, "<eo>", probes[5], 5)} == {"cha"}
    groups = {window.tokens for index in model._indexes.values() for window in index.values()}
    assert model._probs_cache
    for ctx, tokens in model._probs_cache:
        assert ctx in model.counts
        assert tokens in groups or (len(tokens) == 1 and tokens[0] in model.vocab)
    for index in model._indexes.values():
        # every window holds chunks of its own segment, in chunk_index order
        for seg, window in index.items():
            group = [tok for tok, _ in model.chunk_index[seg]]
            assert list(window.tokens) == [tok for tok in group if tok in window.tokens]
            assert all(ctx in model.counts for ctx in window.scored)
        assert any(window.scored for window in index.values())
    sizes = _cache_sizes(model)
    for tag in sorted(model.tags):
        for ipa in probes:
            beam_decode(model, tag, ipa, n_best=5)
    assert _cache_sizes(model) == sizes


def test_prob_matches_reference_bit_for_bit():
    model = train(shallow_lexicon(150, seed=22), order=6)
    # up to 5 contexts of every length: one empty and one tag context, and
    # hundreds of the longest
    rng = random.Random(3)
    by_length = [sorted(ctx for ctx in model.counts if len(ctx) == length) for length in range(6)]
    contexts = [ctx for group in by_length for ctx in rng.sample(group, min(5, len(group)))]
    assert [len(group) > 0 for group in by_length] == [True] * 6
    unseen = (len(model.tokens),) + contexts[-1]  # an id outside the table
    cache = {}
    for ctx in contexts + [unseen]:
        for tok in sorted(model.vocab):
            assert model.prob(tok, ctx).hex() == _reference_beam.prob(model, tok, ctx, cache).hex()


def _assert_decode_matches_reference(model, tag, probes, n_bests=(1, 2, 5)):
    """At a width no smaller than the enumerator's hypothesis count, decode
    returns exactly the enumerator's best min(n_best, surfaces) candidates,
    scores equal as floats. Returns the enumerated surfaces per probe."""
    surfaces = {}
    for probe in probes:
        ipa = parse_ipa(probe)
        best, visited = exhaustive(model, tag, ipa)
        for n_best in n_bests:
            assert beam_decode(model, tag, ipa, n_best, visited) == ranked(best, n_best), \
                (probe, n_best)
        surfaces[probe] = best
    return surfaces


_VARIANT = str.maketrans({"k": "c", "f": "ph", "i": "y", "v": "w"})


def _variant_stream():
    """Shallow words, every third also spelled with k, f, i, v as c, ph, y,
    w: a stream that trains several spellings of 1- and 2-phoneme keys."""
    rows = []
    for graph, ipa in shallow_words(150, seed=22):
        rows.append(("<eo>", parse_ipa(ipa), graph))
        if len(rows) % 3 == 0:
            rows.append(("<eo>", parse_ipa(ipa), graph.translate(_VARIANT)))
    return rows


@pytest.mark.parametrize("order", [1, 2, 3, 6])
def test_decode_matches_reference_beam(order):
    model = train_tagged(_variant_stream(), order=order)
    assert [letters for _, letters in model.chunk_index["k"]] == ["c", "k"]
    with warnings.catch_warnings():
        # a trained tag decodes without a warning, also at order 1, where
        # no context holds it
        warnings.simplefilter("error", UnknownTagWarning)
        surfaces = _assert_decode_matches_reference(
            model, "<eo>", ("kivi", "ʃilo", "t͡ʃama", "kemiltu", "fisk", "a", "xa"))
    # k, i and v spell two ways each
    assert len(surfaces["kivi"]) == 16 and len(surfaces["kemiltu"]) == 4
    assert surfaces["xa"] == {}  # no chunk of x


def _silent_letter_stream():
    """Shallow words, each also spelled with a silent h and a silent w
    inserted: a stream that trains chunks of a segment and a silent letter."""
    rng = random.Random(4)
    rows = []
    for graph, ipa in shallow_words(200, seed=31):
        rows.append(("<eo>", parse_ipa(ipa), graph))
        for silent in ("h", "w"):
            at = rng.randint(0, len(graph))
            rows.append(("<eo>", parse_ipa(ipa), graph[:at] + silent + graph[at:]))
    return rows


def test_decode_matches_reference_beam_with_silent_letters():
    model = train_tagged(_silent_letter_stream(), order=4)
    assert [letters for _, letters in model.chunk_index["a"]] == ["a", "ah", "aw", "ha", "wa"]
    assert [letters for _, letters in model.chunk_index["p"]] == ["hp", "p", "pw", "wp"]
    surfaces = _assert_decode_matches_reference(model, "<eo>", ("a", "pa"))
    # 4 x 5 chunkings of pa, where p + wa and pw + a spell one surface
    assert len(surfaces["pa"]) == 19


@pytest.mark.parametrize("stream, probes", [
    (_variant_stream, ("kivi", "ʃilo", "t͡ʃama", "kemiltu", "a")),
    (_silent_letter_stream, ("a", "pa")),
])
def test_default_width_returns_a_full_n_best_list(stream, probes):
    # at 3 x n_best, decode returns n_best candidates whenever the
    # enumerator finds that many surfaces, and all of them when fewer
    model = train_tagged(stream(), order=6)
    for probe in probes:
        ipa = parse_ipa(probe)
        surfaces = len(exhaustive(model, "<eo>", ipa)[0])
        for n_best in (1, 3, 5):
            assert len(beam_decode(model, "<eo>", ipa, n_best)) == min(n_best, surfaces), \
                (probe, n_best)


def test_decode_matches_reference_beam_on_the_longest_surfaces():
    # every word also spelled with each letter four times, so that every
    # segment spells one letter or four: all 2 ** 6 surfaces of patapa
    # decode, up to four letters on every segment
    rows = []
    for word in _identity_words(150, seed=31):
        rows.append(("<eo>", parse_ipa(word), word))
        rows.append(("<eo>", parse_ipa(word), "".join(letter * 4 for letter in word)))
    for order in (1, 4):
        model = train_tagged(rows, order=order)
        assert [letters for _, letters in model.chunk_index["p"]] == ["p", "pppp"]
        surfaces = _assert_decode_matches_reference(model, "<eo>", ("a", "pat", "patapa"))
        assert max(map(len, surfaces["pat"])) == 12, order
        assert len(surfaces["patapa"]) == 2 ** 6, order
        assert max(map(len, surfaces["patapa"])) == 24, order


def test_decode_matches_reference_beam_for_an_unseen_tag():
    model = train_tagged(_variant_stream(), order=3)
    with pytest.warns(UnknownTagWarning):
        beam_decode(model, "<zz>", parse_ipa("kivi"), 5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnknownTagWarning)
        surfaces = _assert_decode_matches_reference(model, "<zz>", ("kivi", "kemiltu"))
    assert len(surfaces["kivi"]) == 16


def test_decode_matches_reference_beam_with_per_position_chunk_sets():
    # <bb> spells v as w and alone has ʒ: under <aa> a query decodes inside
    # <aa>'s chunks, and ʒ, which <aa> never trained, takes <bb>'s chunk
    # while v keeps <aa>'s
    rows = []
    for graph, ipa in shallow_words(150, seed=22):
        rows.append(("<bb>", parse_ipa(ipa), graph.replace("v", "w")))
        if "ʒ" not in ipa:
            rows.append(("<aa>", parse_ipa(ipa), graph))
    model = train_tagged(rows, order=3)
    assert [letters for _, letters in model.chunk_index["v"]] == ["v", "w"]
    assert "ʒ" in model.chunk_index
    surfaces = _assert_decode_matches_reference(model, "<aa>", ("vasi", "ʒavo"))
    assert set(surfaces["vasi"]) == {"vasi"}
    assert set(surfaces["ʒavo"]) == {"zhavo"}
    _assert_decode_matches_reference(model, "<bb>", ("vasi", "ʒavo"))


def test_decode_keeps_every_expansion_tied_at_the_beam_boundary():
    # k spelled k once and c once: at order 3, k:c and k:k tie after the
    # tag, so stack 1 holds both at the same score; at width 1 the surface
    # order keeps "c", although "k" pays less for EOS, which only k:k was
    # counted before
    rows = [("<x>", parse_ipa("k"), "k"), ("<x>", parse_ipa("ka"), "ca")]
    model = train_tagged(rows, order=3)
    ipa = parse_ipa("k")
    c_id, k_id = (model.ids[("chunk", ("k",), letters)] for letters in ("c", "k"))
    start = (model.ids[("<s>",)], model.ids[("tag", "<x>")])
    assert model.log_prob(c_id, start) == model.log_prob(k_id, start)
    best, _ = exhaustive(model, "<x>", ipa)
    assert [c.grapheme for c in ranked(best, 2)] == ["k", "c"]
    assert beam_decode(model, "<x>", ipa, 2, 1) == [Candidate("c", best["c"])]
    for n_best in (1, 2, 5):
        assert beam_decode(model, "<x>", ipa, n_best, 2) == ranked(best, min(n_best, 2))
    # a unigram table where k spells b or bc and u spells a or z, all
    # counted once: every spelling of "ku" ties. The merge yields the rows
    # of stack 1's "b" first, so keeping rows in merge order would keep
    # "ba" and "bz" at width 2; the surface order keeps "ba" and "bca"
    ipa = parse_ipa("ku")
    tokens = [("</s>",), ("chunk", ("k",), "b"), ("chunk", ("k",), "bc"),
              ("chunk", ("u",), "a"), ("chunk", ("u",), "z"), ("tag", "<x>")]
    unigram = JointModel(1, tokens, {(): {0: 2, 1: 1, 2: 1, 3: 1, 4: 1}})
    best, _ = exhaustive(unigram, "<x>", ipa)
    assert len(set(best.values())) == 1
    got = beam_decode(unigram, "<x>", ipa, 2, 2)
    assert [c.grapheme for c in got] == ["ba", "bca"] and got == ranked(best, 2)


def test_decode_keeps_the_best_path_to_a_state_and_surface():
    # a unigram table where a spells "a" or, rarely, "ah", and k spells "k"
    # or "hk": a + hk and ah + k reach one (empty) state and surface, "ahk",
    # and stack 2 keeps the better of the two
    tokens = [("</s>",), ("chunk", ("a",), "a"), ("chunk", ("a",), "ah"),
              ("chunk", ("k",), "hk"), ("chunk", ("k",), "k"), ("tag", "<x>")]
    eos, a, ah, hk, k = range(5)
    model = JointModel(1, tokens, {(): {eos: 2, a: 4, ah: 1, hk: 2, k: 4}})
    ipa = parse_ipa("ak")
    best, visited = exhaustive(model, "<x>", ipa)
    via_hk, via_ah = (sum(model.log_prob(tok, ()) for tok in path)
                      for path in ((a, hk, eos), (ah, k, eos)))
    assert best["ahk"] == via_hk > via_ah
    for n_best in (1, 3):
        assert beam_decode(model, "<x>", ipa, n_best, visited) == ranked(best, n_best)


def test_tags_condition_the_output():
    rows = []
    for word in ("vata", "vilo", "navi", "kavu", "veni", "sivo"):
        ipa = parse_ipa(word)
        rows.append(("<aa>", ipa, word))
        rows.append(("<bb>", ipa, word.replace("v", "w")))
    model = train_tagged(rows, order=3)
    # novel combination of chunks seen in training
    probe = parse_ipa("vasi")
    top_a = beam_decode(model, "<aa>", probe, n_best=1)[0].grapheme
    top_b = beam_decode(model, "<bb>", probe, n_best=1)[0].grapheme
    assert top_a == "vasi"
    assert top_b == "wasi"


def test_decode_recovers_identity_spelling():
    words = _identity_words(120, seed=23)
    model = train(_identity_lexicon(words), order=4)
    for probe in words[:20]:
        top = beam_decode(model, "<eo>", parse_ipa(probe), n_best=1)
        assert top[0].grapheme == probe


# beam behaviour

def test_beam_results_ranked_and_distinct():
    model = train(shallow_lexicon(200, seed=24), order=3)
    cands = beam_decode(model, "<eo>", parse_ipa("pato"), n_best=5)
    assert 1 <= len(cands) <= 5
    scores = [c.log_score for c in cands]
    assert scores == sorted(scores, reverse=True)
    graphemes = [c.grapheme for c in cands]
    assert len(set(graphemes)) == len(graphemes)


def test_width_one_is_greedy():
    words = _identity_words(80, seed=25)
    model = train(_identity_lexicon(words), order=3)
    cands = beam_decode(model, "<eo>", parse_ipa(words[0]), n_best=1,
                        beam_width=1)
    assert len(cands) == 1
    assert cands[0].grapheme == words[0]


def test_unknown_tag_warns_but_decodes():
    model = train(shallow_lexicon(100, seed=26), order=3)
    with pytest.warns(UnknownTagWarning):
        cands = beam_decode(model, "<zz>", parse_ipa("pato"), n_best=1)
    assert cands


def test_tag_without_an_aligned_row_is_not_trained():
    rows = [("<aa>", parse_ipa(word), word) for word in ("pata", "tapa", "kapa", "paka")]
    rows.append(("<bb>", parse_ipa("a"), "aaaaaa"))  # 1:6, skipped for its length ratio
    model = train_tagged(rows, order=3)
    assert model.training_stats["ratio_skipped"] == 1
    assert model.tags == {"<aa>"}
    with pytest.warns(UnknownTagWarning):
        beam_decode(model, "<bb>", parse_ipa("pa"), n_best=1)


def test_decode_rejects_empty_input():
    model = train(shallow_lexicon(50, seed=27), order=2)
    with pytest.raises(EmptyInputError):
        beam_decode(model, "<eo>", parse_ipa(""), n_best=1)
    with pytest.raises(ValueError):
        beam_decode(model, "<eo>", parse_ipa("pa"), n_best=0)


def test_wide_beam_matches_exhaustive_search():
    lex = _identity_lexicon(["pa", "ta", "pat", "tap", "apa", "ata"])
    model = train(lex, order=2)
    for probe in ("pa", "ta", "pat", "apa"):
        ipa = parse_ipa(probe)
        surface, score, _ = exhaustive_best(model, "<eo>", ipa)
        top = beam_decode(model, "<eo>", ipa, n_best=1, beam_width=5000)[0]
        assert top.grapheme == surface
        assert top.log_score == pytest.approx(score, abs=1e-12)


# persistence

def test_retraining_is_byte_identical(tmp_path):
    lex = shallow_lexicon(120, seed=28)
    path_a, path_b = tmp_path / "a.model", tmp_path / "b.model"
    train(lex, order=3).save(path_a)
    train(lex, order=3).save(path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_save_load_preserves_decoding(tmp_path):
    lex = Lexicon(list(shallow_lexicon(120, seed=29))
                  + [PronEntry("eo", "pa\u2028to", parse_ipa("pato"))])
    model = train(lex, order=3)
    path = tmp_path / "m.model"
    model.save(path)
    loaded = JointModel.load(path)
    assert loaded.order == model.order
    assert loaded.tags == model.tags
    assert loaded.counts == model.counts
    assert [d.hex() for d in loaded.discounts] == [d.hex() for d in model.discounts]
    assert loaded.vocab == model.vocab
    assert loaded.tokens == model.tokens
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert set(doc) == {"format", "version", "order", "tokens", "ngrams"}
    assert doc["version"] == 6
    for probe in ("pato", "shilo", "chama"):
        ipa = parse_ipa(probe)
        a = beam_decode(model, "<eo>", ipa, n_best=3)
        b = beam_decode(loaded, "<eo>", ipa, n_best=3)
        assert a == b


def test_failed_save_keeps_the_previous_file(tmp_path):
    path = tmp_path / "m.model"
    train(shallow_lexicon(40, seed=30), order=2).save(path)
    before = path.read_bytes()
    # a lone surrogate cannot be written as UTF-8, so the write fails after
    # the output file was opened
    lex = Lexicon(list(shallow_lexicon(40, seed=30))
                  + [PronEntry("eo", "pa\ud800to", parse_ipa("pato"))])
    with pytest.raises(UnicodeEncodeError):
        train(lex, order=2).save(path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_token_table_holds_exactly_the_trained_tokens(order):
    model = train(shallow_lexicon(60, seed=31), order=order)
    tags = (model.ids[("tag", tag)] for tag in model.tags)
    used = model.vocab.union(*model.counts, tags)
    assert model.tokens == sorted(model.tokens[i] for i in used)
    assert (("<s>",) in model.ids) == (order > 2)
    assert all(model.ids[tok] == i for i, tok in enumerate(model.tokens))


def test_load_rejects_other_files(tmp_path):
    path = tmp_path / "bogus.model"
    path.write_text("not a model\n", encoding="utf-8")
    with pytest.raises(ValueError):
        JointModel.load(path)


# the reason load gives where a case's file breaks only the chunk rule of
# version 6: decode would never offer a chunk of 0 or 2 phonemes, or one
# of more than 4 letters, that a version-5 file may hold
_CHUNK_RULE = {"version-5": "of version 6", "two-phoneme-chunk": "one str phoneme",
               "five-letter-chunk": "at most 4"}


@pytest.mark.parametrize("case", ["v1-lines", "v2-document", "version-3", "version-4", "version-5",
                                  "two-phoneme-chunk", "five-letter-chunk", "other-format",
                                  "other-version", "truncated", "no-ngrams", "negative-id",
                                  "negative-count", "fractional-count", "long-context", "repeated-ngram",
                                  "bool-order", "context-id-past-table", "token-id-past-table",
                                  "unsorted-tokens", "no-eos", "chunk-letters-not-str",
                                  "chunk-phonemes-not-str", "tag-name-not-str", "unknown-token",
                                  "no-empty-context", "no-1-token-contexts",
                                  "context-without-its-suffix", "context-not-ending-in-a-tag",
                                  "context-without-its-prefix"])
def test_load_rejects_malformed_documents(tmp_path, case, capsys):
    path = tmp_path / "m.model"
    train(shallow_lexicon(40, seed=30), order=4).save(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    tokens, ngrams = doc["tokens"], doc["ngrams"]
    eos, bos, tag = tokens.index(["</s>"]), tokens.index(["<s>"]), tokens.index(["tag", "<eo>"])
    a = tokens.index(["chunk", ["a"], "a"])
    if case == "v1-lines":
        text = "polyipa-joint-model\t1\norder\t2\ndiscount\t0x1.8000000000000p-1\ntags\t0\n"
    elif case == "truncated":
        text = path.read_text(encoding="utf-8")[:-50]
    else:
        if case == "v2-document":
            doc.update(version=2, tags=["<eo>"], chunks=[[["p"], "p", 1.0]])
        elif case == "version-3":
            doc.update(version=3, discount=0.75)  # the fixed discount of version 3
        elif case == "version-4":
            doc["version"] = 4  # the same fields, with the tag first in each context
        elif case == "version-5":
            doc["version"] = 5  # the same fields, with chunks of 0-2 phonemes
        elif case == "two-phoneme-chunk":
            tokens[a][1] = ["a", "a"]
        elif case == "five-letter-chunk":
            tokens[a][2] = "aaaaa"
        elif case == "other-format":
            doc["format"] = "another-model"
        elif case == "other-version":
            doc["version"] = 1
        elif case == "no-ngrams":
            del doc["ngrams"]
        elif case == "negative-id":
            ngrams.append([-1, 800])  # Python would read -1 as the last token
        elif case == "negative-count":
            ngrams[0][-1] = -3
        elif case == "fractional-count":
            ngrams[0][-1] = 0.5
        elif case == "long-context":
            ngrams.append([0] * 9 + [1, 1])  # an order-4 model has 3-token contexts
        elif case == "repeated-ngram":
            ngrams.append(list(ngrams[-1]))
        elif case == "context-id-past-table":
            ngrams.append([len(doc["tokens"]), 1, 1])
        elif case == "token-id-past-table":
            ngrams.append([len(doc["tokens"]), 1])
        elif case == "unsorted-tokens":
            doc["tokens"].reverse()
        elif case == "no-eos":
            assert doc["tokens"][0] == ["</s>"]
            doc["tokens"][0] = ["</r>"]
        elif case == "chunk-letters-not-str":
            tokens[tokens.index(["chunk", ["a"], "a"])][2] = 5
        elif case == "chunk-phonemes-not-str":
            tokens[tokens.index(["chunk", ["a"], "a"])][1] = [5]
        elif case == "tag-name-not-str":
            tokens[tag][1] = 7
        elif case == "unknown-token":
            tokens.append(["word"])
        elif case == "no-empty-context":
            doc["ngrams"] = [row for row in ngrams if len(row) != 2]
        elif case == "no-1-token-contexts":
            doc["ngrams"] = [row for row in ngrams if len(row) != 3]
        elif case == "context-without-its-suffix":
            ngrams.append([bos, eos, tag, eos, 1])  # (bos, tag) is a context, (eos, tag) not
        elif case == "context-not-ending-in-a-tag":
            ngrams.append([a, a, 1])  # (a,) minus its first token, (), is a context
        elif case == "context-without-its-prefix":
            ngrams.append([eos, bos, tag, eos, 1])  # (eos, bos, tag) minus its last history token, (eos, tag), is no context
        else:
            doc["order"] = True
        text = json.dumps(doc)
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match="m.model: not a readable model file") as error:
        JointModel.load(path)
    assert _CHUNK_RULE.get(case, "") in str(error.value)
    queries = tmp_path / "q.tsv"
    queries.write_text("<eo>\tkat\n", encoding="utf-8")
    assert cli.main(["predict", "--model", str(path), "--input", str(queries),
                     "--output", str(tmp_path / "c.tsv")]) == 1
    assert "m.model: not a readable model file" in capsys.readouterr().err


# candidate files

def test_candidates_tsv_roundtrip(tmp_path):
    blocks = [
        ("<de>", "kat", [Candidate("kat", -0.5), Candidate("katt", -2.0)]),
        ("<ru>", "mot", [Candidate("мот", -1.25)]),
    ]
    path = tmp_path / "cands.tsv"
    write_candidates_tsv(path, blocks)
    loaded = load_external_candidates(path)
    assert set(loaded) == {("<de>", "kat"), ("<ru>", "mot")}
    assert loaded[("<de>", "kat")] == [Candidate("kat", -0.5), Candidate("katt", -2.0)]
    assert loaded[("<ru>", "mot")][0].grapheme == "мот"


def test_filtered_candidates_write_and_load(tmp_path):
    # ranks are written from list position, so a caller may drop candidates
    words = ambiguous_words(60, seed=3)
    model = train(ambiguous_lexicon(words), order=3)
    cands = beam_decode(model, "<eo>", parse_ipa(words[0]), n_best=3)
    assert len(cands) == 2
    path = tmp_path / "cands.tsv"
    write_candidates_tsv(path, [("<eo>", words[0], cands[1:])])
    assert load_external_candidates(path) == {("<eo>", words[0]): cands[1:]}


def test_candidates_loader_validates_ranks(tmp_path):
    path = tmp_path / "cands.tsv"
    path.write_text("<de>\tkat\t1\tkat\t-0.5\n<de>\tkat\t3\tkot\t-1.0\n",
                    encoding="utf-8")
    with pytest.raises(CandidateParseError, match=r"cands\.tsv: line 2: rank 3 out of order"):
        load_external_candidates(path)


def test_candidates_loader_requires_monotone_scores(tmp_path):
    path = tmp_path / "cands.tsv"
    path.write_text("<de>\tkat\t1\tkat\t-2.0\n<de>\tkat\t2\tkot\t-1.0\n",
                    encoding="utf-8")
    with pytest.raises(NonMonotoneScoresError, match=r"cands\.tsv: line 2: log_score -1\.0 exceeds"):
        load_external_candidates(path)


def test_candidates_loader_validates_columns_and_floats(tmp_path):
    path = tmp_path / "cands.tsv"
    good = "<ru>\tmot\t1\tmot\t-0.7\n"
    path.write_text(good + "<de>\tkat\t1\tkat\n", encoding="utf-8")
    with pytest.raises(CandidateParseError, match=r"cands\.tsv: line 2: expected 5 columns, got 4$"):
        load_external_candidates(path)
    path.write_text(good + "<de>\tkat\tone\tkat\t-0.5\n", encoding="utf-8")
    with pytest.raises(CandidateParseError, match=r"cands\.tsv: line 2: rank must be int"):
        load_external_candidates(path)


def test_candidates_loader_allows_interleaved_blocks(tmp_path):
    path = tmp_path / "cands.tsv"
    path.write_text(
        "<de>\tkat\t1\tkat\t-0.5\n"
        "<ru>\tmot\t1\tmot\t-0.7\n"
        "<de>\tkat\t2\tkot\t-1.5\n",
        encoding="utf-8")
    loaded = load_external_candidates(path)
    assert [c.grapheme for c in loaded[("<de>", "kat")]] == ["kat", "kot"]
