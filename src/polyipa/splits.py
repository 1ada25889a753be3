"""Stratified dataset splitting and the training-stream upsampler.

Splitting allocates the requested test and evaluation sizes across languages
proportionally (largest-remainder rounding) from seeded shuffles, so the
same seed always reproduces the same three disjoint sets. Upsampling turns
each training entry into a small stream: the original, its stripped variant
when that differs, any mined sound-alike variants, and enough repeats of the
original to keep originals at or above a configured ratio of the augmented
material, every emission under a fixed token budget.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InsufficientDataError
from .ipa import IpaInventory, IpaString, _parse_rows, _write_rows, parse_ipa, strip_diacritics_tones
from .lexicon import Lexicon, PronEntry, ScriptTable, lang_script_tag

__all__ = [
    "SplitSpec",
    "TrainExample",
    "stratified_split",
    "upsample_generate",
    "write_examples_tsv",
    "read_examples_tsv",
]

PROVENANCES = ("original", "cleaned-variant", "similar-variant", "repeat")
# an emission of this many tokens or more is dropped (TrainExample.token_count)
_MAX_TOKENS = 40


@dataclass(frozen=True)
class SplitSpec:
    test_size: int = 5000
    eval_size: int = 5000
    seed: int = 0
    per_lang_cap: int | None = None

    def __post_init__(self):
        if self.test_size < 0 or self.eval_size < 0:
            raise ValueError("split sizes must be >= 0")
        if self.per_lang_cap is not None and self.per_lang_cap < 1:
            raise ValueError("per_lang_cap must be >= 1 when given")


@dataclass(frozen=True)
class TrainExample:
    """One tagged training emission: tag + IPA input, grapheme target."""

    tag: str
    ipa: IpaString
    target: str
    provenance: str

    @property
    def token_count(self) -> int:
        # one tag token, one token per segment, one per target code point
        return 1 + len(self.ipa.segments) + len(self.target)


def _allocate(total: int, weights: dict[str, int], caps: dict[str, int]) -> dict[str, int]:
    """Proportional allocation with largest-remainder rounding, capped per
    language by availability."""
    langs = sorted(weights)
    pool = sum(weights.values())
    if total == 0:
        return {lang: 0 for lang in langs}
    quotas = {lang: total * weights[lang] / pool for lang in langs}
    alloc = {lang: min(math.floor(quotas[lang]), caps[lang]) for lang in langs}
    assigned = sum(alloc.values())
    by_remainder = sorted(langs, key=lambda l: (-(quotas[l] - math.floor(quotas[l])), l))
    while assigned < total:
        progressed = False
        for lang in by_remainder:
            if assigned == total:
                break
            if alloc[lang] < caps[lang]:
                alloc[lang] += 1
                assigned += 1
                progressed = True
        if not progressed:
            raise InsufficientDataError(
                f"cannot allocate {total} items from pools of {sum(caps.values())}")
    return alloc


def stratified_split(
    lex: Lexicon, spec: SplitSpec | None = None
) -> tuple[Lexicon, Lexicon, Lexicon]:
    """Split into (train, eval, test), stratified by language code.

    Entries are canonically ordered, shuffled once with the seed, optionally
    capped per language, and then test and evaluation quotas are allocated
    proportionally with largest-remainder rounding. The three parts are
    disjoint and cover no entry twice.
    """
    spec = spec or SplitSpec()
    by_lang: dict[str, list[PronEntry]] = {}
    for entry in sorted(lex, key=lambda e: e.key):
        by_lang.setdefault(entry.lang, []).append(entry)

    rng = random.Random(spec.seed)
    pools: dict[str, list[PronEntry]] = {}
    for lang in sorted(by_lang):
        pool = list(by_lang[lang])
        rng.shuffle(pool)
        if spec.per_lang_cap is not None:
            pool = pool[:spec.per_lang_cap]
        pools[lang] = pool

    sizes = {lang: len(pool) for lang, pool in pools.items()}
    available = sum(sizes.values())
    needed = spec.test_size + spec.eval_size
    if available <= needed:
        raise InsufficientDataError(
            f"need more than {needed} entries after capping, have {available}")

    test_alloc = _allocate(spec.test_size, sizes, sizes)
    remaining = {lang: sizes[lang] - test_alloc[lang] for lang in sizes}
    eval_alloc = _allocate(spec.eval_size, sizes, remaining)

    test_entries: list[PronEntry] = []
    eval_entries: list[PronEntry] = []
    train_entries: list[PronEntry] = []
    for lang in sorted(pools):
        pool = pools[lang]
        t, v = test_alloc[lang], eval_alloc[lang]
        test_entries.extend(pool[:t])
        eval_entries.extend(pool[t:t + v])
        train_entries.extend(pool[t + v:])
    return Lexicon(train_entries), Lexicon(eval_entries), Lexicon(test_entries)


def upsample_generate(
    train: Iterable[PronEntry],
    variants: Mapping[tuple[str, str, str], Sequence[IpaString]] | None = None,
    ratio: float = 1.0,
    scripts: ScriptTable | None = None,
    inventory: IpaInventory | None = None,
    counters: dict[str, int] | None = None,
) -> Iterator[TrainExample]:
    """Yield the augmented training stream for each entry in order.

    Per entry: the original, the stripped variant if different, each mapped
    similar variant, then repeats of the original so that originals stay at
    or above `ratio` times the augmented emissions. Everything except
    repeats passes a duplicate index keyed on (tag, ipa, target); every
    emission must stay under _MAX_TOKENS tokens. Suppressed items are counted
    in `counters`, never raised.
    """
    variants = variants or {}
    if counters is None:
        counters = {}
    for key in ("original", "cleaned-variant", "similar-variant", "repeat",
                "filtered_length", "filtered_duplicate"):
        counters.setdefault(key, 0)
    seen: set[tuple[str, str, str]] = set()

    def admit(ex: TrainExample, dedup: bool) -> bool:
        if ex.token_count >= _MAX_TOKENS:
            counters["filtered_length"] += 1
            return False
        if dedup:
            sig = (ex.tag, ex.ipa.text, ex.target)
            if sig in seen:
                counters["filtered_duplicate"] += 1
                return False
            seen.add(sig)
        counters[ex.provenance] += 1
        return True

    for entry in train:
        tag = lang_script_tag(entry, scripts)
        original = TrainExample(tag, entry.ipa, entry.grapheme, "original")
        if not admit(original, dedup=True):
            continue
        yield original
        augmented = 0

        stripped = strip_diacritics_tones(entry.ipa, inventory=inventory)
        if stripped.text != entry.ipa.text:
            ex = TrainExample(tag, stripped, entry.grapheme, "cleaned-variant")
            if admit(ex, dedup=True):
                yield ex
                augmented += 1

        for variant in variants.get(entry.key, ()):
            ex = TrainExample(tag, variant, entry.grapheme, "similar-variant")
            if admit(ex, dedup=True):
                yield ex
                augmented += 1

        repeats = max(0, math.ceil(ratio * augmented) - 1)
        for _ in range(repeats):
            ex = TrainExample(tag, entry.ipa, entry.grapheme, "repeat")
            if admit(ex, dedup=False):
                yield ex


def write_examples_tsv(path, examples: Iterable[TrainExample]) -> None:
    """tag<TAB>grapheme<TAB>ipa<TAB>provenance, one emission per line."""
    _write_rows(path, ((ex.tag, ex.target, ex.ipa.text, ex.provenance) for ex in examples))


def read_examples_tsv(path, inventory: IpaInventory | None = None) -> list[TrainExample]:
    def parse(tag: str, target: str, ipa_text: str, provenance: str) -> TrainExample:
        if provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {provenance!r}")
        return TrainExample(tag, parse_ipa(ipa_text, inventory), target, provenance)

    return list(_parse_rows(path, parse, 4, "tag<TAB>grapheme<TAB>ipa<TAB>provenance"))
