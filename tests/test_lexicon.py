"""Language registry, script detection, cleaning pipeline, and pair
extraction."""

from __future__ import annotations

import io
import sys

import pytest

from polyipa import (
    CleaningReport,
    LanguageRegistry,
    Lexicon,
    PronEntry,
    ScriptTable,
    clean,
    default_registry,
    default_scripts,
    detect_script,
    extract_ipa_pairs,
    lang_script_tag,
    normalize_lang_code,
    parse_ipa,
)
from polyipa.errors import NoScriptError, UnknownLanguageError, UnknownSymbolError
from polyipa.features import FeatureTable
from polyipa.ipa import IpaInventory, NotationChart, _read_lines


# language registry

def test_canonical_codes():
    reg = default_registry()
    assert reg.canonical("de") == "de"
    assert reg.canonical("deu") == "de"
    assert reg.canonical("german") == "de"
    assert reg.canonical("German") == "de"
    assert reg.canonical("srp") == "sr"
    assert reg.canonical("ang") == "ang"  # no alpha-2 exists


def test_normalize_lang_code_strips_and_lowers():
    assert normalize_lang_code("  DEU ") == "de"


def test_unknown_language_raises():
    with pytest.raises(UnknownLanguageError):
        default_registry().canonical("zz-lol")


# script detection

def test_detect_script_basic():
    assert detect_script("kat") == "Latn"
    assert detect_script("привет") == "Cyrl"
    assert detect_script("γάτα") == "Grek"


def test_detect_script_majority_and_ties():
    assert detect_script("abcд") == "Latn"  # 3 Latin vs 1 Cyrillic
    assert detect_script("aб") == "Latn"  # tie, Latin seen first
    assert detect_script("бa") == "Cyrl"  # tie, Cyrillic seen first


def test_detect_script_ignores_unscripted_characters():
    assert detect_script("kat-1") == "Latn"
    with pytest.raises(NoScriptError):
        detect_script("123 -")


# cleaning pipeline

def _clean_rows(rows):
    lex, report = clean(rows)
    assert report.conserved
    return lex, report


def test_clean_removes_unknown_language():
    lex, report = _clean_rows([("qqq", "kat", "kat"), ("de", "mit", "mit")])
    assert len(lex) == 1
    assert report.removed_by_rule == {"unknown-language": 1}


def test_clean_removes_empty_grapheme():
    # a tab or line break inside a grapheme would not survive write_tsv
    lex, report = _clean_rows([("de", "", "kat"), ("de", "ka\rt", "kat"),
                               ("de", "ka\tt", "kat"), ("de", "ka\nt", "kat")])
    assert len(lex) == 0
    assert report.removed_by_rule == {"empty-grapheme": 1, "separator-in-grapheme": 3}
    assert report.conserved


def test_clean_removes_no_script_grapheme():
    lex, report = _clean_rows([("de", "123", "kat")])
    assert report.removed_by_rule == {"no-script": 1}


def test_clean_skips_script_check_without_official_row():
    # ang has no official-scripts row, so any script passes
    rows = [("ang", "stan", "stɑn"), ("ang", "привет", "mit")]
    lex, report = _clean_rows(rows)
    assert len(lex) == 2
    assert report.removed_by_rule == {}


def test_clean_enforces_script_when_row_exists():
    lex, report = _clean_rows([("ru", "abc", "kat")])
    assert report.removed_by_rule == {"script-mismatch": 1}


def test_clean_resolves_codes_and_detects_script():
    lex, _ = _clean_rows([("deu", "Katze", "ˈkatsə")])
    entry = lex.entries[0]
    assert entry == PronEntry("de", "katze", parse_ipa("ˈkatsə"))
    assert detect_script(entry.grapheme) == "Latn"


def test_clean_counts_exact_duplicates_once():
    row = ("de", "mit", "mit")
    lex, report = _clean_rows([row, row, row])
    assert len(lex) == 1
    assert report.removed_by_rule == {"duplicate": 2}


def test_clean_on_fixture_corpus(fixture_rows):
    lex, report = _clean_rows(fixture_rows)
    assert report.input_count == 100
    assert len(lex) == 90
    assert report.removed_by_rule == {
        "duplicate": 2,
        "invalid-ipa": 5,
        "script-mismatch": 3,
    }


def test_clean_is_idempotent_on_its_own_output():
    rows = [("deu", "Katze", "ˈkatsə"), ("ru", "кот", "kot"),
            ("de", "mit", "mit"), ("de", "mit", "mit")]
    lex, _ = _clean_rows(rows)
    again, report = _clean_rows([(e.lang, e.grapheme, e.ipa.text) for e in lex])
    assert len(again) == len(lex)
    assert report.removed_by_rule == {}


# Lexicon container

def test_lexicon_deduplicates_and_preserves_order():
    a = PronEntry("de", "kat", parse_ipa("kat"))
    b = PronEntry("de", "mit", parse_ipa("mit"))
    lex = Lexicon([a, b, a])
    assert len(lex) == 2
    assert [e.grapheme for e in lex] == ["kat", "mit"]


def test_lexicon_tsv_roundtrip(tmp_path):
    # clean() keeps graphemes with U+2028, U+0085 and form feeds; only "\n"
    # may end a row, in LF and CRLF files alike
    lex = Lexicon([
        PronEntry("de", "Katze", parse_ipa("ˈkatsə")),
        PronEntry("ru", "кот", parse_ipa("kot")),
        PronEntry("de", "ka\u2028t", parse_ipa("kat")),
        PronEntry("de", "ka\x85t", parse_ipa("kat")),
        PronEntry("de", "ka\x0ct", parse_ipa("kat")),
    ])
    path = tmp_path / "lex.tsv"
    lex.write_tsv(path)
    crlf = tmp_path / "crlf.tsv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    for written in (path, crlf):
        back = Lexicon.read_tsv(written)
        assert [e.key for e in back] == [e.key for e in lex]


def test_lexicon_holds_a_cleaned_row_once_whatever_its_source(tmp_path):
    # an entry is its row, so clean()'s entries equal those read from its file
    lex, _ = _clean_rows([("sr", "пас", "pas"), ("sr", "pas", "pas"), ("de", "kat", "kat")])
    path = tmp_path / "lex.tsv"
    lex.write_tsv(path)
    both = Lexicon([*lex, *Lexicon.read_tsv(path)])
    assert [e.key for e in both] == [e.key for e in lex]


def test_lexicon_read_tsv_rejects_short_rows(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("de\tkat\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.tsv: line 1: "):
        Lexicon.read_tsv(path)


def test_table_loaders_name_the_line_of_an_empty_key(tmp_path):
    path = tmp_path / "table.tsv"
    for loader, text, message in [
            (ScriptTable.from_file, "de\tLatn\nru\t\n", "empty scripts"),
            (LanguageRegistry.from_file, "deu\tde\tGerman\n\tfr\tFrench\n", "empty alpha3 code"),
            (NotationChart.from_file, "a\ta\n\tb\n", "empty source"),
            (IpaInventory.from_file, "a\tbase\n\tbase\n", "empty symbol"),
            (IpaInventory.from_file, "a\tbase\nb\tx\n", "unknown category 'x'"),
            (FeatureTable.from_file, "seg\tsyl\tcons\na\t+\n", "expected 3 columns"),
            (FeatureTable.from_file, "seg\tsyl\tcons\na\t+\tx\n", "bad value 'x'")]:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=rf"table\.tsv: line 2: {message}$"):
            loader(path)
    path.write_text("seg\tsyl\tcons\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"table\.tsv: feature table needs a header"):
        FeatureTable.from_file(path)


def test_lexicon_read_tsv_names_the_line_of_a_bad_transcription(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("# header\nde\tkat\tkat\nde\tkat\tk@t\n", encoding="utf-8")
    with pytest.raises(UnknownSymbolError, match=r"bad\.tsv: line 3: unknown symbol '@'") as err:
        Lexicon.read_tsv(path)
    assert err.value.position == 1


def test_a_leading_byte_order_mark_is_dropped(tmp_path, monkeypatch):
    # a "#" header after the mark is still a comment, and the first row keeps its language
    path = tmp_path / "bom.tsv"
    path.write_text("\ufeff# lang\tgrapheme\tipa\nde\tkat\tkat\n", encoding="utf-8")
    assert [(e.lang, e.grapheme) for e in Lexicon.read_tsv(path)] == [("de", "kat")]
    monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeffde\tkat\tkat\n"))
    assert _read_lines("-") == ["de\tkat\tkat"]
    path.write_text("\ufeff\ufeffx\n", encoding="utf-8")  # only one mark is dropped
    assert _read_lines(path) == ["\ufeffx"]


# training tags

def test_lang_script_tag_single_script():
    entry = PronEntry("de", "Katze", parse_ipa("ˈkatsə"))
    assert lang_script_tag(entry) == "<de>"


def test_lang_script_tag_multi_script():
    # the script is read off the grapheme
    cyr = PronEntry("sr", "пас", parse_ipa("pas"))
    lat = PronEntry("sr", "pas", parse_ipa("pas"))
    assert lang_script_tag(cyr) == "<sr_Cyrl>"
    assert lang_script_tag(lat) == "<sr_Latn>"


# pronunciation pair extraction

def test_extract_pairs_ordered_and_first_seen():
    prons = ["kat", "kaːt", "kad"]
    lex = Lexicon([PronEntry("de", "kat", parse_ipa(p)) for p in prons])
    pairs = extract_ipa_pairs(lex)
    assert len(pairs) == 6  # n(n-1) with n = 3
    got = [(p.ipa_a.text, p.ipa_b.text) for p in pairs]
    assert got == [
        ("kat", "kaːt"), ("kat", "kad"),
        ("kaːt", "kat"), ("kaːt", "kad"),
        ("kad", "kat"), ("kad", "kaːt"),
    ]
    assert all(p.lang == "de" and p.grapheme == "kat" for p in pairs)


def test_extract_pairs_needs_two_distinct_pronunciations():
    lex = Lexicon([
        PronEntry("de", "kat", parse_ipa("kat")),
        PronEntry("de", "mit", parse_ipa("mit")),
    ])
    assert extract_ipa_pairs(lex) == []


def test_extract_pairs_merges_script_variants():
    # same pronunciation recorded twice counts once
    lex = Lexicon([
        PronEntry("sr", "pas", parse_ipa("pas")),
        PronEntry("sr", "pas", parse_ipa("pas")),
        PronEntry("sr", "pas", parse_ipa("paːs")),
    ])
    pairs = extract_ipa_pairs(lex)
    assert [(p.ipa_a.text, p.ipa_b.text) for p in pairs] == \
        [("pas", "paːs"), ("paːs", "pas")]


def test_extract_pairs_groups_by_language():
    lex = Lexicon([
        PronEntry("de", "kat", parse_ipa("kat")),
        PronEntry("ru", "kat", parse_ipa("kaːt")),
    ])
    assert extract_ipa_pairs(lex) == []


# cleaning report serialization

def test_report_json_roundtrip():
    report = CleaningReport(input_count=10, retained_count=7,
                            removed_by_rule={"invalid-ipa": 2, "duplicate": 1})
    assert report.conserved
    back = CleaningReport.from_json(report.to_json())
    assert back == report


def test_report_conserved_detects_loss():
    report = CleaningReport(input_count=10, retained_count=7,
                            removed_by_rule={"invalid-ipa": 2})
    assert not report.conserved
