"""IPA text handling: normalization, segmentation, validation, notation charts.

A transcription is segmented against a shipped symbol inventory. Each segment
is a base symbol plus any combining marks, modifier letters, and tone letters
that follow it. Tie bars join two bases into a single segment (affricates,
doubly articulated stops). Segmentation is lossless: concatenating the
segments' text reproduces the input exactly.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import sys
import unicodedata
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .errors import EmptyStringError, PolyipaError, UnknownSymbolError, UnmappableTokenError

__all__ = [
    "TIE_BARS",
    "STRIPPED_MODIFIERS",
    "TranscriptionSystem",
    "IpaSegment",
    "IpaString",
    "IpaInventory",
    "NotationChart",
    "Violation",
    "ValidationResult",
    "normalize_text",
    "segment_ipa",
    "parse_ipa",
    "validate_ipa",
    "strip_diacritics_tones",
    "convert_to_ipa",
    "default_inventory",
    "default_chart",
]

TIE_BARS = frozenset({"͡", "͜"})

# Modifier letters removed by strip_diacritics_tones: aspiration,
# palatalization, labialization, velarization, pharyngealization,
# prenasalization, lateral release, stress marks, length marks.
STRIPPED_MODIFIERS = frozenset(
    {"ʰ", "ʲ", "ʷ", "ˠ", "ˤ", "ⁿ", "ˡ",
     "ˈ", "ˌ", "ː", "ˑ"}
)


class TranscriptionSystem(enum.Enum):
    IPA = "ipa"
    XSAMPA = "xsampa"
    ARPABET = "arpabet"


def normalize_text(raw: str) -> str:
    """NFC-normalize, lowercase, and trim surrounding whitespace. Idempotent."""
    s = unicodedata.normalize("NFC", raw.strip())
    return unicodedata.normalize("NFC", s.lower())


@dataclass(frozen=True, slots=True)
class IpaSegment:
    """One phonetic segment: base symbol plus attached marks.

    base holds the full tie-joined core for affricates, including any
    combining marks that precede the tie bar.
    """

    base: str
    diacritics: tuple[str, ...] = ()
    tones: tuple[str, ...] = ()
    # the marks recomposed, so that nasalized vowels etc. round-trip to
    # their NFC form; made once, interned so that all segments of one text
    # share it, and not part of equality or hash. Slots keep a segment no
    # larger than it was without the field.
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        raw = self.base + "".join(self.diacritics) + "".join(self.tones)
        object.__setattr__(self, "text", sys.intern(unicodedata.normalize("NFC", raw)))

    def base_symbols(self) -> tuple[str, ...]:
        """Component base symbols of the core, ties and marks removed."""
        return tuple(ch for ch in self.base
                     if ch not in TIE_BARS and not unicodedata.combining(ch))

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class IpaString:
    """A segmented transcription. text equals the concatenated segment texts."""

    text: str
    segments: tuple[IpaSegment, ...]

    @classmethod
    def from_segments(cls, segments: Iterable[IpaSegment]) -> "IpaString":
        segs = tuple(segments)
        return cls("".join(s.text for s in segs), segs)

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self) -> Iterator[IpaSegment]:
        return iter(self.segments)

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class IpaInventory:
    """Symbol classes the segmenter recognizes."""

    bases: frozenset[str]
    prosodic: frozenset[str]
    combining: frozenset[str]
    modifiers: frozenset[str]
    tones: frozenset[str]
    _max_base_len: int = field(init=False, default=1, repr=False, compare=False)

    def __post_init__(self) -> None:
        longest = max((len(s) for s in self.bases | self.prosodic), default=1)
        object.__setattr__(self, "_max_base_len", longest)

    @classmethod
    def from_file(cls, path) -> "IpaInventory":
        groups: dict[str, set[str]] = {
            "base": set(), "prosodic": set(), "diacritic": set(),
            "modifier": set(), "tone": set(),
        }

        def row(symbol: str, category: str) -> tuple[str, str]:
            if not symbol:
                raise ValueError("empty symbol")
            if category not in groups:
                raise ValueError(f"unknown category {category!r}")
            return category, unicodedata.normalize("NFC", symbol)

        for category, symbol in _parse_rows(path, row, 2, "symbol<TAB>category"):
            groups[category].add(symbol)
        return cls(
            bases=frozenset(groups["base"]),
            prosodic=frozenset(groups["prosodic"]),
            combining=frozenset(groups["diacritic"]),
            modifiers=frozenset(groups["modifier"]),
            tones=frozenset(groups["tone"]),
        )


def _read_lines(path) -> list[str]:
    """Lines of a UTF-8 file, a packaged resource, or stdin when path is "-".

    "\r\n" and "\r" read as "\n", and only "\n" ends a line: unlike
    str.splitlines, U+0085, U+2028 and form feeds stay inside the line,
    because clean() keeps graphemes that contain them. One leading
    byte-order mark is dropped.
    """
    if path == "-":
        text = sys.stdin.read()
    else:
        text = (path if hasattr(path, "read_text") else Path(path)).read_text(encoding="utf-8")
    text = text.removeprefix("\ufeff")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _parse_rows(path, parse: Callable, columns: int | None = None, expected: str = "") -> Iterator:
    """parse(*fields) per tab-separated row, skipping blank and "#" lines. With
    columns set, a row of another width raises ValueError("expected <expected>").
    That error and those of parse keep their type, prefixed "path: line N: "."""
    for line_no, line in enumerate(_read_lines(path), start=1):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        try:
            if columns is not None and len(fields) != columns:
                raise ValueError(f"expected {expected}")
            row = parse(*fields)
        except (PolyipaError, ValueError) as exc:
            exc.args = (f"{path}: line {line_no}: {exc}",)
            raise
        yield row


def _output(path):
    """A text stream for `with`: a new UTF-8 file, or stdout, left open,
    when path is "-"."""
    return contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="utf-8")


def _write_rows(path, rows: Iterable[Iterable[str]], header: Iterable[str] | None = None) -> None:
    """Write each row's fields tab-separated, one row per line, after a
    "# name<TAB>name..." comment line when header names the columns, to a
    UTF-8 file, or to stdout when path is "-"."""
    with _output(path) as fh:
        if header is not None:
            fh.write("# " + "\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")


@functools.lru_cache(maxsize=None)
def default_inventory() -> IpaInventory:
    return IpaInventory.from_file(resources.files("polyipa.data") / "ipa_inventory.tsv")


def _match_base(text: str, inv: IpaInventory, i: int) -> str:
    """Longest base or prosodic symbol starting at i, else raise."""
    limit = min(inv._max_base_len, len(text) - i)
    for length in range(limit, 0, -1):
        cand = text[i:i + length]
        if cand in inv.bases or cand in inv.prosodic:
            return cand
    ch = text[i]
    if ch in inv.combining or ch in inv.modifiers or ch in inv.tones:
        raise UnknownSymbolError(i, ch, "mark with no base to attach to")
    raise UnknownSymbolError(i, ch)


def _next_segment(text: str, inv: IpaInventory, start: int) -> tuple[IpaSegment, int]:
    """Parse one segment at start; returns (segment, index past it)."""
    base = _match_base(text, inv, start)
    i = start + len(base)
    if base in inv.prosodic:
        return IpaSegment(base), i

    diacritics: list[str] = []
    tones: list[str] = []
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in inv.combining:
            if tones:
                raise UnknownSymbolError(i, ch, "combining mark after tone letters")
            if ch in TIE_BARS:
                # A tie joins the following featural base into one core.
                nxt = None
                if i + 1 < n:
                    try:
                        nxt = _match_base(text, inv, i + 1)
                    except UnknownSymbolError:
                        nxt = None
                if nxt is None or nxt not in inv.bases:
                    raise UnknownSymbolError(i, ch, "tie bar without a following base")
                base = base + "".join(diacritics) + ch + nxt
                diacritics = []
                i += 1 + len(nxt)
                continue
            diacritics.append(ch)
            i += 1
        elif ch in inv.modifiers:
            if tones:
                raise UnknownSymbolError(i, ch, "modifier letter after tone letters")
            diacritics.append(ch)
            i += 1
        elif ch in inv.tones:
            tones.append(ch)
            i += 1
        else:
            break
    return IpaSegment(base, tuple(diacritics), tuple(tones)), i


def segment_ipa(text: str, inventory: IpaInventory | None = None) -> IpaString:
    """Segment a normalized transcription; UnknownSymbolError on bad input.

    Parsing happens over the canonical decomposition, so precomposed
    characters like a nasalized vowel still split into base plus marks;
    error positions refer to the decomposed sequence.
    """
    inv = inventory or default_inventory()
    work = unicodedata.normalize("NFD", text)
    segments: list[IpaSegment] = []
    i = 0
    while i < len(work):
        seg, i = _next_segment(work, inv, i)
        segments.append(seg)
    return IpaString(text, tuple(segments))


def parse_ipa(raw: str, inventory: IpaInventory | None = None) -> IpaString:
    """Convenience: normalize raw text, then segment it."""
    return segment_ipa(normalize_text(raw), inventory)


@dataclass(frozen=True)
class Violation:
    position: int
    symbol: str
    reason: str


@dataclass(frozen=True)
class ValidationResult:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def validate_ipa(text: str, inventory: IpaInventory | None = None) -> ValidationResult:
    """Check segmentability; lists every offending position.

    A valid transcription is non-empty, segments cleanly, and contains at
    least one featural (non-prosodic) segment, so that a string of bare
    stress marks does not count as phonetic content.
    """
    inv = inventory or default_inventory()
    if text == "":
        return ValidationResult((Violation(0, "", "empty transcription"),))
    work = unicodedata.normalize("NFD", text)
    violations: list[Violation] = []
    has_featural = False
    i = 0
    while i < len(work):
        try:
            seg, i = _next_segment(work, inv, i)
        except UnknownSymbolError as err:
            violations.append(Violation(err.position, err.symbol, err.reason))
            i = err.position + 1
        else:
            if seg.base not in inv.prosodic:
                has_featural = True
    if not violations and not has_featural:
        violations.append(Violation(0, work[0], "no featural segment"))
    return ValidationResult(tuple(violations))


def strip_diacritics_tones(
    s: IpaString,
    inventory: IpaInventory | None = None,
) -> IpaString:
    """Remove combining marks (except tie bars), tone letters, and the
    STRIPPED_MODIFIERS letters. Idempotent; valid input stays valid."""
    inv = inventory or default_inventory()
    out: list[IpaSegment] = []
    for seg in s.segments:
        if seg.base in inv.prosodic:
            if seg.base not in STRIPPED_MODIFIERS:
                out.append(IpaSegment(seg.base))
            continue
        core = "".join(
            ch for ch in seg.base
            if ch in TIE_BARS or not unicodedata.combining(ch)
        )
        kept = tuple(
            m for m in seg.diacritics
            if (m in TIE_BARS) or (m in inv.modifiers and m not in STRIPPED_MODIFIERS)
        )
        out.append(IpaSegment(core, kept, ()))
    return IpaString.from_segments(out)


class NotationChart:
    """A source-notation-to-IPA mapping loaded from a two-column chart file."""

    def __init__(self, mapping: dict[str, str]):
        if not mapping:
            raise ValueError("empty chart")
        self.mapping = dict(mapping)
        self._max_len = max(len(k) for k in mapping)

    @classmethod
    def from_file(cls, path) -> "NotationChart":
        def row(source: str, ipa: str) -> tuple[str, str]:
            if not source:
                raise ValueError("empty source")
            return source, unicodedata.normalize("NFC", ipa)
        return cls(dict(_parse_rows(path, row, 2, "source<TAB>ipa")))

    def convert_stream(self, text: str) -> str:
        """Greedy longest-match conversion of a character stream."""
        out: list[str] = []
        i = 0
        while i < len(text):
            for length in range(min(self._max_len, len(text) - i), 0, -1):
                cand = text[i:i + length]
                if cand in self.mapping:
                    out.append(self.mapping[cand])
                    i += length
                    break
            else:
                raise UnmappableTokenError(i, text[i])
        return "".join(out)

    def convert_tokens(self, tokens: Iterable[str]) -> str:
        out: list[str] = []
        for position, token in enumerate(tokens):
            if token not in self.mapping:
                raise UnmappableTokenError(position, token)
            out.append(self.mapping[token])
        return "".join(out)


@functools.lru_cache(maxsize=None)
def default_chart(system: TranscriptionSystem) -> NotationChart:
    names = {
        TranscriptionSystem.XSAMPA: "xsampa_chart.tsv",
        TranscriptionSystem.ARPABET: "arpabet_chart.tsv",
    }
    return NotationChart.from_file(resources.files("polyipa.data") / names[system])


def convert_to_ipa(
    system: TranscriptionSystem | str,
    text: str,
    inventory: IpaInventory | None = None,
    chart: NotationChart | None = None,
) -> IpaString:
    """Convert a transcription in the named system to a validated IpaString.

    IPA input passes through normalization and segmentation unchanged.
    X-SAMPA is converted before lowercasing (its case is significant);
    ARPABET is whitespace-tokenized, trailing stress digits dropped.
    """
    if isinstance(system, str):
        system = TranscriptionSystem(system.lower())
    if system is TranscriptionSystem.IPA:
        return segment_ipa(normalize_text(text), inventory)
    if text.strip() == "":
        raise EmptyStringError("nothing to convert")
    chart = chart or default_chart(system)
    if system is TranscriptionSystem.XSAMPA:
        ipa = chart.convert_stream(text.strip())
    else:
        tokens = [t.rstrip("012").upper() or t for t in text.split()]
        ipa = chart.convert_tokens(tokens)
    return segment_ipa(normalize_text(ipa), inventory)
