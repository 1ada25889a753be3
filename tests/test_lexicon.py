"""Language registry, script detection, cleaning pipeline, and pair
extraction."""

from __future__ import annotations

import pytest

from polyipa import (
    CleaningReport,
    Lexicon,
    PronEntry,
    clean,
    default_registry,
    default_scripts,
    detect_script,
    extract_ipa_pairs,
    lang_script_tag,
    normalize_lang_code,
    parse_ipa,
)
from polyipa.errors import NoScriptError, UnknownLanguageError


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
    assert entry.lang == "de"
    assert entry.script == "Latn"
    assert entry.ipa.text == "ˈkatsə"


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
    a = PronEntry("de", "kat", parse_ipa("kat"), "Latn")
    b = PronEntry("de", "mit", parse_ipa("mit"), "Latn")
    lex = Lexicon([a, b, a])
    assert len(lex) == 2
    assert [e.grapheme for e in lex] == ["kat", "mit"]


def test_lexicon_has_pronunciation_ignores_script():
    entry = PronEntry("sr", "пас", parse_ipa("pas"), "Cyrl")
    lex = Lexicon([entry])
    assert lex.has_pronunciation("sr", "пас", "pas")
    assert not lex.has_pronunciation("sr", "пас", "pa")
    assert not lex.has_pronunciation("de", "пас", "pas")


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
        assert [(e.lang, e.grapheme, e.ipa.text) for e in back] == \
            [(e.lang, e.grapheme, e.ipa.text) for e in lex]


def test_lexicon_read_tsv_rejects_short_rows(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("de\tkat\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.tsv: line 1: "):
        Lexicon.read_tsv(path)


# training tags

def test_lang_script_tag_single_script():
    entry = PronEntry("de", "Katze", parse_ipa("ˈkatsə"), "Latn")
    assert lang_script_tag(entry) == "<de>"


def test_lang_script_tag_multi_script():
    cyr = PronEntry("sr", "пас", parse_ipa("pas"), "Cyrl")
    lat = PronEntry("sr", "pas", parse_ipa("pas"), "Latn")
    assert lang_script_tag(cyr) == "<sr_Cyrl>"
    assert lang_script_tag(lat) == "<sr_Latn>"


def test_lang_script_tag_detects_when_script_unset():
    entry = PronEntry("sr", "пас", parse_ipa("pas"))
    assert lang_script_tag(entry) == "<sr_Cyrl>"


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
    # same pronunciation recorded under two scripts counts once
    lex = Lexicon([
        PronEntry("sr", "pas", parse_ipa("pas"), "Latn"),
        PronEntry("sr", "pas", parse_ipa("pas"), "Cyrl"),
        PronEntry("sr", "pas", parse_ipa("paːs"), "Latn"),
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
