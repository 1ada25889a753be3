"""Segmentation, validation, stripping, and notation conversion."""

from __future__ import annotations

import random
import unicodedata

import pytest

from polyipa import (
    EmptyStringError,
    IpaSegment,
    IpaString,
    UnknownSymbolError,
    convert_to_ipa,
    default_inventory,
    normalize_text,
    parse_ipa,
    segment_ipa,
    strip_diacritics_tones,
    validate_ipa,
)
from polyipa.errors import UnmappableTokenError


def test_normalize_composes_and_lowercases():
    assert normalize_text("é") == "é"
    assert normalize_text("  KAT  ") == "kat"
    assert normalize_text("É") == "é"


def test_normalize_idempotent_on_samples():
    samples = ["é", "  Wort ", "t͡ʃ", "SCHON", "Élève", ""]
    for s in samples:
        once = normalize_text(s)
        assert normalize_text(once) == once


def test_segment_plain_word():
    s = segment_ipa("kat")
    assert [seg.text for seg in s.segments] == ["k", "a", "t"]
    assert s.text == "kat"


def test_segment_tie_bar_joins_core():
    s = segment_ipa("t͡ʃat")
    assert len(s.segments) == 3
    assert s.segments[0].base == "t͡ʃ"
    assert s.segments[0].base_symbols() == ("t", "ʃ")


def test_segment_attaches_marks_and_tones():
    s = segment_ipa("kʰã˥t")
    assert s.segments[0].diacritics == ("ʰ",)
    assert s.segments[1].tones == ("˥",)
    assert s.segments[1].diacritics == ("̃",)
    assert s.segments[2].text == "t"


def test_segment_precomposed_vowel_decomposes():
    # NFC composes a + tilde into one code point; parsing must still split it
    s = segment_ipa(normalize_text("bõti"))
    assert [seg.text for seg in s.segments] == ["b", "õ", "t", "i"]
    assert s.segments[1].base == "o"
    assert s.segments[1].diacritics == ("̃",)


def test_segment_prosodic_symbols_stand_alone():
    s = segment_ipa("ˈka.to")
    assert [seg.text for seg in s.segments] == ["ˈ", "k", "a", ".", "t", "o"]
    assert all(not seg.diacritics for seg in s.segments)


def test_segment_roundtrip_is_lossless():
    words = ["ˈkato", "t͡ʃeːs", "ma˥˩", "n̥o",
             normalize_text("zẽn"), "pa‿te", "a b"]
    for w in words:
        s = segment_ipa(w)
        assert "".join(seg.text for seg in s.segments) == w


def test_unknown_symbol_reports_position():
    with pytest.raises(UnknownSymbolError) as err:
        segment_ipa("k@t")
    assert err.value.position == 1
    assert err.value.symbol == "@"


def test_dangling_mark_rejected():
    with pytest.raises(UnknownSymbolError) as err:
        segment_ipa("ːkat")
    assert err.value.position == 0
    assert "base" in err.value.reason


def test_dangling_tie_bar_rejected():
    with pytest.raises(UnknownSymbolError):
        segment_ipa("t͡")
    with pytest.raises(UnknownSymbolError):
        segment_ipa("t͡ˈa")


def test_mark_after_tone_rejected():
    with pytest.raises(UnknownSymbolError) as err:
        segment_ipa("a˥̃")
    assert "tone" in err.value.reason


def test_validate_collects_every_violation():
    r = validate_ipa("k@t#")
    assert not r.ok
    assert [(v.position, v.symbol) for v in r.violations] == [(1, "@"), (3, "#")]


def test_validate_empty_and_prosodic_only():
    assert not validate_ipa("").ok
    r = validate_ipa("ˈˌ")
    assert not r.ok
    assert r.violations[0].reason == "no featural segment"


def test_validate_accepts_marked_input():
    assert validate_ipa(normalize_text("t͡ʃã˥t")).ok
    assert validate_ipa("ˈkaː.to").ok


def test_strip_removes_marks_tones_and_length():
    s = parse_ipa("t͡ʃæ̃˥")
    assert strip_diacritics_tones(s).text == "t͡ʃæ"
    s2 = parse_ipa("ˈkaːtʰ")
    assert strip_diacritics_tones(s2).text == "kat"


def test_strip_keeps_ejective_and_syllable_marks():
    s = parse_ipa("kʼa.ta‿mo")
    assert strip_diacritics_tones(s).text == "kʼa.ta‿mo"


def test_strip_inside_tied_cores():
    # a dental mark sitting between the tie components must also go
    s = parse_ipa("t̪͡s")
    stripped = strip_diacritics_tones(s)
    assert stripped.text == "t͡s"
    assert validate_ipa(stripped.text).ok


def test_strip_idempotent_and_validity_preserving():
    words = ["ˈkato", "t͡ʃeːs", "ma˥˩",
             normalize_text("zẽn"), "kʰaːn̥"]
    for w in words:
        once = strip_diacritics_tones(parse_ipa(w))
        twice = strip_diacritics_tones(once)
        assert twice.text == once.text
        assert validate_ipa(once.text).ok


def test_xsampa_conversion():
    assert convert_to_ipa("xsampa", "tS").text == "t͡ʃ"
    assert convert_to_ipa("xsampa", '"pleIs').text == "ˈpleɪs"
    assert convert_to_ipa("xsampa", "va:n").text == "vaːn"


def test_xsampa_case_is_significant():
    # N is the velar nasal, n the alveolar one
    assert convert_to_ipa("xsampa", "siN").text == "siŋ"
    assert convert_to_ipa("xsampa", "sin").text == "sin"


def test_arpabet_conversion():
    assert convert_to_ipa("arpabet", "K AE T").text == "kæt"
    assert convert_to_ipa("arpabet", "HH AH0 L OW1").text == "hʌloʊ"
    assert convert_to_ipa("arpabet", "AX B AW T").text == "əbaʊt"
    assert convert_to_ipa("arpabet", "ch iy z").text == "t͡ʃiz"


def test_arpabet_unknown_token_position():
    with pytest.raises(UnmappableTokenError) as err:
        convert_to_ipa("arpabet", "K QQ T")
    assert err.value.position == 1
    assert err.value.token == "QQ"


def test_xsampa_unmappable_character():
    with pytest.raises(UnmappableTokenError) as err:
        convert_to_ipa("xsampa", "ka$")
    assert err.value.position == 2


def test_ipa_passthrough_and_empty_input():
    assert convert_to_ipa("ipa", " KAT ").text == "kat"
    with pytest.raises(EmptyStringError):
        convert_to_ipa("xsampa", "   ")
    with pytest.raises(EmptyStringError):
        convert_to_ipa("arpabet", "")


def test_inventory_symbol_classes():
    inv = default_inventory()
    assert "t͡ʃ" not in inv.bases  # ties are parsed, not listed
    assert "t" in inv.bases and "ʃ" in inv.bases
    assert "ˈ" in inv.prosodic and "." in inv.prosodic
    assert "̃" in inv.combining
    assert "ʰ" in inv.modifiers
    assert "˥" in inv.tones


def test_ipastring_helpers():
    s = parse_ipa("kat")
    assert len(s) == 3
    assert [str(seg) for seg in s] == ["k", "a", "t"]
    rebuilt = IpaString.from_segments(s.segments)
    assert rebuilt == s


def test_random_valid_words_always_roundtrip():
    """Fuzz the segmenter with generated marked-up words."""
    rng = random.Random(20240816)
    inv = default_inventory()
    bases = ["p", "t", "k", "m", "n", "s", "a", "e", "i", "o", "u", "ʃ"]
    for _ in range(300):
        parts = []
        for _ in range(rng.randint(1, 5)):
            parts.append(rng.choice(bases))
            if rng.random() < 0.2:
                parts.append("̃")
            if rng.random() < 0.2:
                parts.append("ː")
            if rng.random() < 0.1:
                parts.append("˥")
        text = normalize_text("".join(parts))
        s = segment_ipa(text)
        assert "".join(seg.text for seg in s.segments) == text
        assert validate_ipa(text).ok
