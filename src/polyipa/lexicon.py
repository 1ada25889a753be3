"""Pronunciation lexicon: records, cleaning pipeline, language metadata.

Raw rows are lang<TAB>grapheme<TAB>ipa. Cleaning normalizes text, resolves
language codes against a shipped registry, validates transcriptions, drops
script mismatches against a per-language official-script table, and removes
exact duplicates, with every removal accounted for in a report.
"""

from __future__ import annotations

import functools
import json
import re
import unicodedata
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Iterator, Sequence

from .errors import NoScriptError, UnknownLanguageError, UnknownSymbolError
from .ipa import (
    IpaInventory,
    IpaString,
    _parse_rows,
    _write_rows,
    default_inventory,
    normalize_text,
    segment_ipa,
)

__all__ = [
    "PronEntry",
    "Lexicon",
    "CleaningReport",
    "IpaPair",
    "LanguageRegistry",
    "ScriptTable",
    "default_registry",
    "default_scripts",
    "normalize_lang_code",
    "detect_script",
    "clean",
    "lang_script_tag",
    "extract_ipa_pairs",
]

_LANG_RE = re.compile(r"^[a-z]{2,3}$")


@dataclass(frozen=True)
class PronEntry:
    """One cleaned lexicon row; its script is that of its grapheme."""

    lang: str
    grapheme: str
    ipa: IpaString

    @property
    def key(self) -> tuple[str, str, str]:
        """The (lang, grapheme, ipa) row a lexicon TSV holds."""
        return (self.lang, self.grapheme, self.ipa.text)


class LanguageRegistry:
    """ISO-639 lookups: alpha-2 and alpha-3 codes and English names all map
    to one canonical code (alpha-2 when it exists, else alpha-3)."""

    def __init__(self, rows: Iterable[tuple[str, str, str]]):
        self._lookup: dict[str, str] = {}
        for alpha3, alpha2, name in rows:
            canonical = alpha2 or alpha3
            self._lookup.setdefault(alpha3, canonical)
            if alpha2:
                self._lookup.setdefault(alpha2, canonical)
            if name:
                self._lookup.setdefault(name.lower(), canonical)

    @classmethod
    def from_file(cls, path) -> "LanguageRegistry":
        def row(alpha3: str, alpha2: str, name: str) -> tuple[str, str, str]:
            if not alpha3:
                raise ValueError("empty alpha3 code")
            return alpha3, alpha2, name
        return cls(list(_parse_rows(path, row, 3, "alpha3<TAB>alpha2<TAB>name")))

    def canonical(self, code_or_name: str) -> str:
        key = code_or_name.strip().lower()
        try:
            return self._lookup[key]
        except KeyError:
            raise UnknownLanguageError(code_or_name) from None


class ScriptTable:
    """Official scripts per canonical language code, primary script first."""

    def __init__(self, rows: dict[str, tuple[str, ...]]):
        self._rows = dict(rows)

    @classmethod
    def from_file(cls, path) -> "ScriptTable":
        def row(lang: str, scripts: str) -> tuple[str, tuple[str, ...]]:
            if not scripts:
                raise ValueError("empty scripts")
            return lang, tuple(s.strip() for s in scripts.split(","))
        return cls(dict(_parse_rows(path, row, 2, "lang<TAB>scripts")))

    def get(self, lang: str) -> tuple[str, ...] | None:
        return self._rows.get(lang)

    def is_multi_script(self, lang: str) -> bool:
        scripts = self._rows.get(lang)
        return scripts is not None and len(scripts) > 1


@functools.lru_cache(maxsize=None)
def default_registry() -> LanguageRegistry:
    return LanguageRegistry.from_file(resources.files("polyipa.data") / "iso639.tsv")


@functools.lru_cache(maxsize=None)
def default_scripts() -> ScriptTable:
    return ScriptTable.from_file(resources.files("polyipa.data") / "lang_scripts.tsv")


def normalize_lang_code(code_or_name: str, registry: LanguageRegistry | None = None) -> str:
    """Map a language code or English name to its canonical code."""
    registry = registry or default_registry()
    return registry.canonical(code_or_name)


# Unicode character name prefixes -> ISO 15924 script codes. unicodedata has
# no script property, so prefixes of the official character names stand in.
_SCRIPT_PREFIXES: tuple[tuple[str, str], ...] = (
    ("LATIN", "Latn"),
    ("CYRILLIC", "Cyrl"),
    ("GREEK", "Grek"),
    ("COPTIC", "Copt"),
    ("ARMENIAN", "Armn"),
    ("HEBREW", "Hebr"),
    ("ARABIC", "Arab"),
    ("SYRIAC", "Syrc"),
    ("THAANA", "Thaa"),
    ("DEVANAGARI", "Deva"),
    ("BENGALI", "Beng"),
    ("GURMUKHI", "Guru"),
    ("GUJARATI", "Gujr"),
    ("ORIYA", "Orya"),
    ("TAMIL", "Taml"),
    ("TELUGU", "Telu"),
    ("KANNADA", "Knda"),
    ("MALAYALAM", "Mlym"),
    ("SINHALA", "Sinh"),
    ("THAI", "Thai"),
    ("LAO", "Laoo"),
    ("TIBETAN", "Tibt"),
    ("MYANMAR", "Mymr"),
    ("GEORGIAN", "Geor"),
    ("HANGUL", "Hang"),
    ("ETHIOPIC", "Ethi"),
    ("CHEROKEE", "Cher"),
    ("CANADIAN SYLLABICS", "Cans"),
    ("MONGOLIAN", "Mong"),
    ("HIRAGANA", "Hira"),
    ("KATAKANA", "Kana"),
    ("BOPOMOFO", "Bopo"),
    ("CJK", "Hani"),
    ("YI", "Yiii"),
    ("VAI", "Vaii"),
    ("KHMER", "Khmr"),
    ("TAGALOG", "Tglg"),
    ("RUNIC", "Runr"),
    ("OGHAM", "Ogam"),
    ("GLAGOLITIC", "Glag"),
    ("GOTHIC", "Goth"),
    ("NKO", "Nkoo"),
    ("TIFINAGH", "Tfng"),
)


def _char_script(ch: str) -> str | None:
    """ISO 15924 code for one character; None for common/unnamed characters."""
    name = unicodedata.name(ch, "")
    for prefix, code in _SCRIPT_PREFIXES:
        if name.startswith(prefix):
            return code
    return None


def detect_script(grapheme: str) -> str:
    """Majority script over the script-bearing characters; ties go to the
    script seen first. NoScriptError when nothing bears a script."""
    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    for i, ch in enumerate(grapheme):
        code = _char_script(ch)
        if code is None:
            continue
        counts[code] = counts.get(code, 0) + 1
        first_seen.setdefault(code, i)
    if not counts:
        raise NoScriptError(f"no script-bearing characters in {grapheme!r}")
    best = max(counts.values())
    return min((s for s, c in counts.items() if c == best), key=first_seen.__getitem__)


class Lexicon:
    """An ordered, duplicate-free collection of entries."""

    def __init__(self, entries: Iterable[PronEntry]):
        self.entries: list[PronEntry] = []
        self._keys: set[tuple[str, str, str]] = set()
        for e in entries:
            if e.key in self._keys:
                continue
            self._keys.add(e.key)
            self.entries.append(e)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[PronEntry]:
        return iter(self.entries)

    @classmethod
    def read_tsv(cls, path, inventory: IpaInventory | None = None) -> "Lexicon":
        """Read an already-clean 3-column TSV; transcriptions must segment."""
        inv = inventory or default_inventory()
        return cls(_parse_rows(path, lambda lang, grapheme, ipa_text:
                               PronEntry(lang, grapheme, segment_ipa(ipa_text, inv)),
                               3, "lang<TAB>grapheme<TAB>ipa"))

    def write_tsv(self, path) -> None:
        _write_rows(path, (e.key for e in self.entries))


@dataclass
class CleaningReport:
    """Per-rule removal accounting; input = retained + sum(removed)."""

    input_count: int = 0
    retained_count: int = 0
    removed_by_rule: dict[str, int] = field(default_factory=dict)

    def remove(self, rule: str) -> None:
        self.removed_by_rule[rule] = self.removed_by_rule.get(rule, 0) + 1

    @property
    def conserved(self) -> bool:
        return self.input_count == self.retained_count + sum(self.removed_by_rule.values())

    def to_json(self) -> str:
        payload = {
            "input_count": self.input_count,
            "retained_count": self.retained_count,
            "removed_by_rule": dict(sorted(self.removed_by_rule.items())),
        }
        return json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CleaningReport":
        data = json.loads(text)
        return cls(
            input_count=data["input_count"],
            retained_count=data["retained_count"],
            removed_by_rule=dict(data["removed_by_rule"]),
        )


def read_raw_tsv(path) -> list[tuple[str, ...]]:
    """Read raw rows without any validation: each row's fields as they are,
    whatever their number, for clean() to check and count."""
    return list(_parse_rows(path, lambda *fields: fields))


def clean(
    rows: Iterable[Sequence[str]],
    inventory: IpaInventory | None = None,
    registry: LanguageRegistry | None = None,
    scripts: ScriptTable | None = None,
) -> tuple[Lexicon, CleaningReport]:
    """Run the full cleaning pipeline over raw (lang, grapheme, ipa) rows.

    Order: rows without exactly three fields, text normalization, graphemes
    that are empty or contain a tab or line break, language-code resolution,
    IPA that does not segment or has no featural segment, script check
    (skipped when the language has no official-script row), exact-duplicate
    removal. Idempotent: cleaning a cleaned lexicon's rows retains everything.
    """
    inv = inventory or default_inventory()
    registry = registry or default_registry()
    scripts = scripts or default_scripts()
    report = CleaningReport()
    kept: dict[tuple[str, str, str], PronEntry] = {}

    for fields in rows:
        report.input_count += 1
        if len(fields) != 3:
            report.remove("column-count")
            continue
        lang_raw, grapheme_raw, ipa_raw = fields
        grapheme = normalize_text(grapheme_raw)
        ipa_text = normalize_text(ipa_raw)
        if not grapheme:
            report.remove("empty-grapheme")
            continue
        if any(ch in grapheme for ch in "\t\r\n"):
            # would split the TSV row or line that write_tsv writes
            report.remove("separator-in-grapheme")
            continue
        try:
            lang = normalize_lang_code(lang_raw, registry)
        except UnknownLanguageError:
            lang = ""
        if not _LANG_RE.match(lang):
            report.remove("unknown-language")
            continue
        try:
            ipa = segment_ipa(ipa_text, inv)
            featural = any(seg.base not in inv.prosodic for seg in ipa.segments)
        except UnknownSymbolError:
            featural = False
        if not featural:
            report.remove("invalid-ipa")
            continue
        official = scripts.get(lang)
        try:
            script = detect_script(grapheme)
        except NoScriptError:
            report.remove("no-script")
            continue
        if official is not None and script not in official:
            report.remove("script-mismatch")
            continue
        entry = PronEntry(lang, grapheme, ipa)
        if entry.key in kept:
            report.remove("duplicate")
            continue
        kept[entry.key] = entry

    report.retained_count = len(kept)
    return Lexicon(kept.values()), report


def lang_script_tag(entry: PronEntry, scripts: ScriptTable | None = None) -> str:
    """Training tag: <lang> for single-script languages, <lang_Script> for
    multi-script ones, with the script detected from the grapheme."""
    scripts = scripts or default_scripts()
    if not scripts.is_multi_script(entry.lang):
        return f"<{entry.lang}>"
    return f"<{entry.lang}_{detect_script(entry.grapheme)}>"


@dataclass(frozen=True)
class IpaPair:
    """Two distinct pronunciations of the same written form."""

    lang: str
    grapheme: str
    ipa_a: IpaString
    ipa_b: IpaString


def extract_ipa_pairs(lexicon: Lexicon) -> list[IpaPair]:
    """All n(n-1) ordered pairs of distinct pronunciations per (lang,
    grapheme) group; a Lexicon holds each row once, so the pronunciations of
    a group are distinct. Deterministic: groups and members keep first-seen
    order."""
    groups: dict[tuple[str, str], list[IpaString]] = {}
    for e in lexicon:
        groups.setdefault((e.lang, e.grapheme), []).append(e.ipa)
    return [IpaPair(lang, grapheme, a, b) for (lang, grapheme), prons in groups.items()
            for a in prons for b in prons if a.text != b.text]
