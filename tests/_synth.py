"""Synthetic orthographies used across the test suite.

The shallow corpus spells every phoneme with one fixed grapheme, plus three
digraphs, so a correct model can reach zero error on it. The ambiguous
corpus spells one phoneme two ways with equal frequency, which pins the
achievable top-1 accuracy at one half. The deep corpus spells several
phonemes by their neighbours.
"""

from __future__ import annotations

import random

from polyipa import Lexicon, PronEntry, parse_ipa

SHALLOW_MAP = {
    "p": "p", "t": "t", "k": "k", "b": "b", "d": "d", "m": "m", "n": "n",
    "l": "l", "r": "r", "s": "s", "v": "v", "f": "f",
    "a": "a", "e": "e", "i": "i", "o": "o", "u": "u",
    "ʃ": "sh", "t͡ʃ": "ch", "ʒ": "zh",
}
SHALLOW_CONSONANTS = ["p", "t", "k", "b", "d", "m", "n", "l", "r", "s", "v",
                      "f", "ʃ", "t͡ʃ", "ʒ"]
SHALLOW_VOWELS = ["a", "e", "i", "o", "u"]


def shallow_words(n: int, seed: int, min_syllables: int = 1,
                  max_syllables: int = 3) -> list[tuple[str, str]]:
    """n distinct (grapheme, ipa) words under the shallow mapping."""
    rng = random.Random(seed)
    words: list[tuple[str, str]] = []
    seen: set[str] = set()
    while len(words) < n:
        phones: list[str] = []
        for _ in range(rng.randint(min_syllables, max_syllables)):
            phones.append(rng.choice(SHALLOW_CONSONANTS))
            phones.append(rng.choice(SHALLOW_VOWELS))
            if rng.random() < 0.3:
                phones.append(rng.choice(["t", "n", "s", "l"]))
        ipa = "".join(phones)
        if ipa in seen:
            continue
        seen.add(ipa)
        words.append(("".join(SHALLOW_MAP[p] for p in phones), ipa))
    return words


def shallow_lexicon(n: int, seed: int, lang: str = "eo") -> Lexicon:
    return Lexicon(PronEntry(lang, graph, parse_ipa(ipa))
                   for graph, ipa in shallow_words(n, seed))


AMBIG_PHONE = "ʃ"
AMBIG_SPELLINGS = ("q", "x")  # both trained equally often


def ambiguous_words(n: int, seed: int) -> list[str]:
    """n distinct phoneme strings, each containing exactly one ambiguous
    phoneme."""
    rng = random.Random(seed)
    plain_c = ["p", "t", "k", "m", "n"]
    vowels = ["a", "i", "u"]
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n:
        phones: list[str] = []
        slot = rng.randint(0, 1)
        for syllable in range(2):
            phones.append(AMBIG_PHONE if syllable == slot else rng.choice(plain_c))
            phones.append(rng.choice(vowels))
            if rng.random() < 0.4:
                phones.append(rng.choice(["t", "n"]))
        ipa = "".join(phones)
        if ipa in seen:
            continue
        seen.add(ipa)
        words.append(ipa)
    return words


def spell_ambiguous(ipa: str, choice: str) -> str:
    """Spell an ambiguous word with the given grapheme for the ambiguous
    phoneme; every other phoneme spells as itself."""
    return "".join(choice if p == AMBIG_PHONE else p for p in ipa)


def ambiguous_lexicon(words: list[str], lang: str = "eo") -> Lexicon:
    """Both spellings of every word, so the two mappings stay at 50/50."""
    entries = []
    for ipa in words:
        for choice in AMBIG_SPELLINGS:
            entries.append(PronEntry(lang, spell_ambiguous(ipa, choice), parse_ipa(ipa)))
    return Lexicon(entries)


# The deep corpus: one German-like spelling, where a phoneme's letters
# depend on its neighbours. k is c before a back vowel, ck after a vowel
# before a consonant, and k otherwise; s is ss between vowels; ʃ is s
# before the t or p of a word-initial cluster, and sch otherwise; t͡s is tz
# after a vowel, and z otherwise; ks is x, and aj is ei; a vowel takes h
# before a sonorant that closes its syllable. Every rule reads the phonemes
# only, so a model can learn it from context.
DEEP_CONSONANTS = ["p", "b", "t", "d", "k", "ɡ", "m", "n", "ŋ", "l", "r", "s",
                   "z", "f", "v", "ʃ", "t͡ʃ", "x", "t͡s", "j"]
DEEP_VOWELS = ["a", "e", "i", "o", "u", "ø", "y", "ə"]
DEEP_MAP = {"ɡ": "g", "ŋ": "ng", "z": "s", "v": "w", "ʃ": "sch", "t͡ʃ": "tsch",
            "x": "ch", "t͡s": "z", "ø": "ö", "y": "ü", "ə": "e"}
_VOWEL_SET = frozenset(DEEP_VOWELS)
_BACK_VOWELS = frozenset("aou")
_SONORANTS = frozenset("lmnr")


def _deep_phones(rng: random.Random) -> list[str]:
    cluster = rng.random() < 0.15
    phones = ["ʃ", rng.choice(["t", "p"])] if cluster else []
    for syllable in range(rng.randint(2, 4)):
        if not (cluster and syllable == 0) and rng.random() < 0.85:
            phones.append(rng.choice(DEEP_CONSONANTS))
        phones += ["a", "j"] if rng.random() < 0.1 else [rng.choice(DEEP_VOWELS)]
        coda = rng.random()
        if coda < 0.1:
            phones += ["k", "s"]
        elif coda < 0.35:
            phones.append(rng.choice(DEEP_CONSONANTS))
    return phones


def spell_deep(phones: list[str]) -> str:
    """The deep spelling of a phoneme list."""
    out = []
    for i, p in enumerate(phones):
        prev = phones[i - 1] if i else None
        after = phones[i + 1] if i + 1 < len(phones) else None
        if p == "k":
            if after == "s":
                out.append("x")
            elif after in _BACK_VOWELS:
                out.append("c")
            elif prev in _VOWEL_SET and after is not None and after not in _VOWEL_SET:
                out.append("ck")
            else:
                out.append("k")
        elif p == "s" and prev == "k":
            out.append("")
        elif p == "s" and prev in _VOWEL_SET and after in _VOWEL_SET:
            out.append("ss")
        elif p == "ʃ" and i == 0 and after in ("t", "p"):
            out.append("s")
        elif p == "t͡s" and prev in _VOWEL_SET:
            out.append("tz")
        elif p == "a" and after == "j":
            out.append("e")
        elif p == "j" and prev == "a":
            out.append("i")
        elif p in _VOWEL_SET:
            closing = after in _SONORANTS and (i + 2 == len(phones) or phones[i + 2] not in _VOWEL_SET)
            out.append(DEEP_MAP.get(p, p) + ("h" if closing else ""))
        else:
            out.append(DEEP_MAP.get(p, p))
    return "".join(out)


def deep_words(n: int, seed: int) -> list[tuple[str, str]]:
    """n distinct (grapheme, ipa) words under the deep spelling."""
    rng = random.Random(seed)
    words: list[tuple[str, str]] = []
    seen: set[str] = set()
    while len(words) < n:
        phones = _deep_phones(rng)
        ipa = "".join(phones)
        if ipa in seen:
            continue
        seen.add(ipa)
        words.append((spell_deep(phones), ipa))
    return words


def deep_lexicon(n: int, seed: int, lang: str = "de") -> Lexicon:
    return Lexicon(PronEntry(lang, graph, parse_ipa(ipa)) for graph, ipa in deep_words(n, seed))
