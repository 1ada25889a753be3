"""Chunk alignment, joint n-gram estimation, beam decoding, and the
candidate file format."""

from __future__ import annotations

import importlib
import json
import math
import pkgutil
import random

import pytest

import _reference_em
import _reference_viterbi
import polyipa.model
from _reference_decode import exhaustive_best
from _synth import shallow_lexicon
from polyipa import (
    Candidate,
    ChunkAligner,
    JointModel,
    Lexicon,
    PronEntry,
    beam_decode,
    effective_beam_width,
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
    # one rare row among 600 copies: min_prob prunes all its chunks
    pairs = [(("a",), "a")] * 600 + [(("x",), "q")]
    aligner = ChunkAligner()
    assert aligner.fit(pairs, iterations=1, min_prob=1e-3)["unalignable"] == 0
    assert set(aligner.probs) == {(("a",), "a"), (("a",), ""), ((), "a")}
    chunkings = aligner.viterbi()
    assert chunkings[0] == ((("a",), "a"),)
    assert chunkings[-1] is None


def test_viterbi_breaks_exact_ties_by_chunk_shape():
    # a+a and a~a tie exactly: 0.0 + log p(a:a) + log p(:a) in either order;
    # the edge of shape 0:1 into the final cell outranks the one of shape 1:1
    aligner = ChunkAligner()
    aligner.fit([(("a",), "aa")], iterations=6)
    first = math.log(aligner.probs[(("a",), "a")]) + math.log(aligner.probs[((), "a")])
    second = math.log(aligner.probs[((), "a")]) + math.log(aligner.probs[(("a",), "a")])
    assert first == second
    assert aligner.viterbi() == [((("a",), "a"), ((), "a"))]


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
    aligner = ChunkAligner()
    stats = aligner.fit([(("a",), "a"), (("a",), "aaaaa")])
    assert stats == {"pairs": 2, "ratio_skipped": 1, "unalignable": 0,
                     "log_likelihood": pytest.approx(
                         [math.log(0.52), -0.6380064218811454, -0.6119370330540815,
                          -0.5671501147243052, -0.48795971874034866, -0.3535802728696125],
                         rel=1e-12)}


@pytest.mark.parametrize("iterations", [1, 2])
def test_fit_log_likelihood_is_that_of_the_final_table(iterations):
    aligner = ChunkAligner()
    stats = aligner.fit([(("a",), "a")], iterations=iterations)
    probs = aligner.probs
    z = probs[(("a",), "a")] + 2 * probs[(("a",), "")] * probs[((), "a")]
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
    assert stats == ref_stats
    assert len(log_likelihood) == max(1, kwargs.get("iterations", 6))
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
    stats, _ = _assert_matches_reference(_mixed_stream(), iterations=iterations,
                                         min_prob=1e-3)
    if iterations > 1:
        assert stats["unalignable"] > 0  # rows whose only chunk was pruned


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


@pytest.mark.parametrize("kwargs, unaligned", [({}, 4), ({"min_prob": 1e-3}, 6),
                                               ({"iterations": 1}, 4),
                                               ({"iterations": 1, "min_prob": 1e-3}, 5)])
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


def test_fit_does_not_underflow_on_a_long_row():
    pairs = _pairs(shallow_lexicon(300, seed=21))
    segs = tuple(s for row, _ in pairs[:70] for s in row)
    graph = "".join(g for _, g in pairs[:70])
    assert len(segs) > 300
    aligner = ChunkAligner()
    stats = aligner.fit(pairs + [(segs, graph)])
    assert stats["unalignable"] == 0
    assert all(math.isfinite(v) for v in stats["log_likelihood"])
    assert all(math.isfinite(p) and p > 0.0 for p in aligner.probs.values())
    chunks = aligner.viterbi()[-1]
    assert tuple(s for phones, _ in chunks for s in phones) == segs
    assert "".join(letters for _, letters in chunks) == graph


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
        for bad in ({"order": 0}, {"discount": 0.0}, {"discount": 1.0}):
            with pytest.raises(ValueError):
                train(lex, **bad)
            with pytest.raises(ValueError):
                train_tagged(rows, **bad)
    with pytest.raises(ValueError, match="iterations must be >= 1"):
        train(lex, em_iterations=0)
    with pytest.raises(ValueError, match="iterations must be >= 1"):
        train_tagged(rows, em_iterations=0)


def test_every_exported_name_resolves():
    modules = [polyipa] + [importlib.import_module(f"polyipa.{info.name}")
                           for info in pkgutil.iter_modules(polyipa.__path__)]
    assert len(modules) == 11
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing {missing}"


def test_conditionals_sum_to_one():
    model = train(shallow_lexicon(150, seed=22), order=3)
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


def test_decode_caches_trained_contexts_only():
    model = train(shallow_lexicon(150, seed=22), order=3)
    for probe in ("pato", "shilo", "chama", "kemi"):
        beam_decode(model, "<eo>", parse_ipa(probe), n_best=5)
    assert model._prob_cache
    assert all(ctx in model.counts for ctx, _ in model._prob_cache)


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
    assert [c.beam_rank for c in cands] == list(range(1, len(cands) + 1))
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


def test_effective_beam_width_default_is_triple():
    assert effective_beam_width(1) == 3
    assert effective_beam_width(30) == 90
    assert effective_beam_width(30, beam_width=7) == 7


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
    assert loaded.discount.hex() == model.discount.hex()
    assert loaded.vocab == model.vocab
    assert loaded.tokens == model.tokens
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert set(doc) == {"format", "version", "order", "discount", "tokens", "ngrams"}
    for probe in ("pato", "shilo", "chama"):
        ipa = parse_ipa(probe)
        a = beam_decode(model, "<eo>", ipa, n_best=3)
        b = beam_decode(loaded, "<eo>", ipa, n_best=3)
        assert [(c.grapheme, c.log_score, c.beam_rank) for c in a] == \
            [(c.grapheme, c.log_score, c.beam_rank) for c in b]


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


@pytest.mark.parametrize("order", [1, 3])
def test_token_table_holds_exactly_the_trained_tokens(order):
    model = train(shallow_lexicon(60, seed=31), order=order)
    used = model.vocab.union(*model.counts)
    assert model.tokens == sorted(model.tokens[i] for i in used)
    assert (("<s>",) in model.ids) == (order > 1)
    assert all(model.ids[tok] == i for i, tok in enumerate(model.tokens))


def test_load_rejects_other_files(tmp_path):
    path = tmp_path / "bogus.model"
    path.write_text("not a model\n", encoding="utf-8")
    with pytest.raises(ValueError):
        JointModel.load(path)


@pytest.mark.parametrize("case", ["v1-lines", "v2-document", "other-format", "other-version",
                                  "truncated", "no-ngrams", "negative-id", "negative-count",
                                  "fractional-count", "long-context", "repeated-ngram",
                                  "bool-order", "context-id-past-table", "token-id-past-table",
                                  "unsorted-tokens", "no-eos"])
def test_load_rejects_malformed_documents(tmp_path, case):
    path = tmp_path / "m.model"
    train(shallow_lexicon(40, seed=30), order=2).save(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    ngrams = doc["ngrams"]
    if case == "v1-lines":
        text = "polyipa-joint-model\t1\norder\t2\ndiscount\t0x1.8000000000000p-1\ntags\t0\n"
    elif case == "truncated":
        text = path.read_text(encoding="utf-8")[:-50]
    else:
        if case == "v2-document":
            doc.update(version=2, tags=["<eo>"], chunks=[[["p"], "p", 1.0]])
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
            ngrams.append([0] * 9 + [1, 1])  # an order-2 model has 1-token contexts
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
        else:
            doc["order"] = True
        text = json.dumps(doc)
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match="m.model: not a readable model file"):
        JointModel.load(path)


# candidate files

def test_candidates_tsv_roundtrip(tmp_path):
    blocks = [
        ("<de>", "kat", [Candidate("kat", -0.5, 1), Candidate("katt", -2.0, 2)]),
        ("<ru>", "mot", [Candidate("мот", -1.25, 1)]),
    ]
    path = tmp_path / "cands.tsv"
    write_candidates_tsv(path, blocks)
    loaded = load_external_candidates(path)
    assert set(loaded) == {("<de>", "kat"), ("<ru>", "mot")}
    assert loaded[("<de>", "kat")] == [Candidate("kat", -0.5, 1),
                                       Candidate("katt", -2.0, 2)]
    assert loaded[("<ru>", "mot")][0].grapheme == "мот"


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
