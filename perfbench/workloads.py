"""Seeded input generators and stage lists for the four benchmark workloads.

Everything here uses the standard library only, so the inputs do not depend
on the code under test. The same seed always writes byte-identical files.
The library sees only the files written here, never the seed.
"""

from __future__ import annotations

import random
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Phone -> spelling per language. A list value is a weighted choice made per
# occurrence, which keeps a little genuine ambiguity so quality numbers are
# not trivially perfect.
ORTHOGRAPHIES: dict[str, dict[str, object]] = {
    "eo": {
        "p": "p", "b": "b", "t": "t", "d": "d", "k": "k", "ɡ": "g", "m": "m",
        "n": "n", "l": "l", "r": "r", "s": "s", "z": "z", "f": "f", "v": "v",
        "ʃ": "ŝ", "ʒ": "ĵ", "t͡ʃ": "ĉ", "d͡ʒ": "ĝ", "x": "ĥ", "t͡s": "c", "j": "j",
        "a": "a", "e": "e", "i": "i", "o": "o", "u": "u",
    },
    "de": {
        "p": "p", "b": "b", "t": "t", "d": "d", "k": "k", "ɡ": "g", "m": "m",
        "n": "n", "l": "l", "r": "r", "s": "s", "z": "s", "f": [("f", 4), ("v", 1)],
        "v": "w", "ʃ": "sch", "t͡ʃ": "tsch", "x": "ch", "t͡s": "z", "j": "j",
        "ŋ": "ng", "a": "a", "e": "e", "i": "i", "o": "o", "u": "u", "ø": "ö",
        "y": "ü", "ə": "e",
    },
    "ru": {
        "p": "п", "b": "б", "t": "т", "d": "д", "k": "к", "ɡ": "г", "m": "м",
        "n": "н", "l": "л", "r": "р", "s": "с", "z": "з", "f": "ф", "v": "в",
        "ʃ": "ш", "ʒ": "ж", "t͡ʃ": "ч", "x": "х", "t͡s": "ц", "j": "й",
        "a": "а", "e": "е", "i": "и", "o": "о", "u": "у", "ɨ": "ы",
        "ə": [("а", 1), ("о", 1)],
    },
    "az": {
        "p": "p", "b": "b", "t": "t", "d": "d", "k": "k", "ɡ": "q", "m": "m",
        "n": "n", "l": "l", "r": "r", "s": "s", "z": "z", "f": "f", "v": "v",
        "ʃ": "ş", "ʒ": "j", "t͡ʃ": "ç", "d͡ʒ": "c", "x": "x", "j": "y",
        "a": "a", "e": "e", "i": "i", "o": "o", "u": "u", "æ": "ə", "y": "ü",
        "ø": "ö",
    },
}

VOWELS = frozenset("a e i o u ø y ə ɨ æ".split())

# The training tag each language gets: az is multi-script in the shipped
# script table, and every generated az spelling is Latin.
TAGS = {"eo": "<eo>", "de": "<de>", "ru": "<ru>", "az": "<az_Latn>"}

# Phones for the mining workloads: plain rows of the feature table, so the
# benchmark's own distance check needs no diacritic handling.
MINING_PHONES = ("p b t d k ɡ m n ŋ l r s z f v ʃ ʒ x h j w t͡ʃ d͡ʒ t͡s "
                 "a e i o u ə ɛ ɔ y ø").split()

BAD_KINDS = ("invalid-ipa", "script-mismatch", "unknown-language", "duplicate")


def _spell(rng: random.Random, phones: list[str], ortho: dict[str, object]) -> str:
    out = []
    for p in phones:
        rule = ortho[p]
        if isinstance(rule, list):
            out.append(rng.choices([s for s, _ in rule], [w for _, w in rule])[0])
        else:
            out.append(rule)
    return "".join(out)


def _word(rng: random.Random, syllables: int, consonants: list[str],
          vowels: list[str]) -> list[str]:
    phones: list[str] = []
    for _ in range(syllables):
        if rng.random() < 0.85:
            phones.append(rng.choice(consonants))
        phones.append(rng.choice(vowels))
        if rng.random() < 0.3:
            phones.append(rng.choice(consonants))
    return phones


def raw_lexicon(n_words: int, seed: int | str, bad_share: float = 0.05):
    """Rows (lang, grapheme, ipa) of a 4-language raw lexicon plus a count of
    the deliberately bad rows by the cleaning rule that must remove them.

    Returns (rows, expected_removed, phones) where phones maps every IPA text
    written to its segment list.
    """
    rng = random.Random(seed)
    langs = sorted(ORTHOGRAPHIES)
    inventories = {}
    for lang in langs:
        phones = sorted(ORTHOGRAPHIES[lang])
        inventories[lang] = ([p for p in phones if p not in VOWELS],
                             [p for p in phones if p in VOWELS])
    rows: list[tuple[str, str, str]] = []
    expected = {kind: 0 for kind in BAD_KINDS}
    phones_of: dict[str, list[str]] = {}
    seen: set[tuple[str, str]] = set()
    while len(seen) < n_words:
        # languages and word lengths in fixed rotation, so that the work a
        # seed generates varies little from seed to seed
        lang = langs[len(seen) % len(langs)]
        phones = _word(rng, 2 + len(seen) // len(langs) % 3, *inventories[lang])
        ipa = "".join(phones)
        if (lang, ipa) in seen:
            continue
        seen.add((lang, ipa))
        phones_of[ipa] = phones
        grapheme = _spell(rng, phones, ORTHOGRAPHIES[lang])
        rows.append((lang, grapheme, ipa))
        if rng.random() >= bad_share:
            continue
        kind = rng.choice(BAD_KINDS)
        expected[kind] += 1
        if kind == "invalid-ipa":
            cut = rng.randint(0, len(ipa))
            rows.append((lang, grapheme, ipa[:cut] + "*" + ipa[cut:]))
        elif kind == "script-mismatch":
            # a Latin spelling under Cyrillic-only ru, or the reverse
            rows.append(("ru" if lang != "ru" else "de", grapheme, ipa))
        elif kind == "unknown-language":
            rows.append(("xq", grapheme, ipa))
        else:
            decomposed = unicodedata.normalize("NFD", grapheme)
            variant = decomposed if decomposed != grapheme else grapheme.capitalize()
            rows.append((lang, variant, ipa))
    return rows, expected, phones_of


def phone_strings(n: int, seed: int | str, lo: int = 3, hi: int = 12):
    """n distinct random phone sequences of lo..hi segments."""
    rng = random.Random(seed)
    out: list[list[str]] = []
    seen: set[str] = set()
    while len(out) < n:
        length = lo + len(out) % (hi - lo + 1)  # lengths in fixed rotation
        phones = [rng.choice(MINING_PHONES) for _ in range(length)]
        ipa = "".join(phones)
        if ipa in seen:
            continue
        seen.add(ipa)
        out.append(phones)
    return out


def _label(i: int) -> str:
    letters = []
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        letters.append(chr(ord("a") + r))
    return "w" + "".join(reversed(letters))


def _write_tsv(path: Path, rows) -> None:
    path.write_text("".join("\t".join(r) + "\n" for r in rows), encoding="utf-8")


@dataclass
class Inputs:
    """What the generator wrote and what it knows about it."""

    files: dict[str, Path]
    phones: dict[str, list[str]]
    expected_removed: dict[str, int] | None
    entries: int


def write_p2g_inputs(out_dir: Path, seed: int | str, sizes: dict) -> Inputs:
    rows, expected, phones = raw_lexicon(sizes["words"], seed)
    raw = out_dir / "raw.tsv"
    _write_tsv(raw, rows)
    return Inputs({"raw": raw}, phones, expected, len(rows))


def write_mining_inputs(out_dir: Path, seed: int | str, sizes: dict) -> Inputs:
    strings = phone_strings(sizes["entries"], seed)
    lex = out_dir / "lexicon.tsv"
    _write_tsv(lex, (("eo", _label(i), "".join(p)) for i, p in enumerate(strings)))
    return Inputs({"lexicon": lex}, {"".join(p): p for p in strings}, None, len(strings))


# Split seed, mining and decode settings are fixed pipeline settings, not
# the workload seed: the library only ever receives the generated files.
SPLIT_SEED = "7"

# workload -> (k, threshold) of its mine stage; k None means k = N
MINING = {"p2g-augmented": ("50", "1.0"), "mine-exhaustive": (None, "3.0"),
          "mine-knn": ("20", "2.0")}


def p2g_stages(augmented: bool) -> Callable:
    def stages(inp: Inputs, rep: Path, sizes: dict) -> list[tuple[str, list[str]]]:
        s = lambda name: str(rep / name)
        out = [
            ("clean", ["clean", "--input", str(inp.files["raw"]), "--output", s("clean.tsv"),
                       "--report", s("clean_report.json")]),
            ("split", ["split", "--input", s("clean.tsv"), "--test", str(sizes["test"]),
                       "--eval", "0", "--seed", SPLIT_SEED, "--out-dir", s("splits")]),
        ]
        if augmented:
            k, threshold = MINING["p2g-augmented"]
            out += [
                ("mine", ["mine", "--input", s("clean.tsv"), "--k", k,
                          "--threshold", threshold, "--output", s("mined.tsv")]),
                ("augment", ["augment", "--train", s("splits/train.tsv"), "--pairs",
                             s("mined.tsv"), "--ratio", "1.0", "--out", s("aug.tsv")]),
            ]
        return out + [
            ("train", ["train", "--input", s("aug.tsv" if augmented else "splits/train.tsv"),
                       "--order", "6", "--output", s("model.json.gz")]),
            ("predict", ["predict", "--model", s("model.json.gz"), "--input",
                         s("splits/test.tsv"), "--n-best", "5", "--output", s("cands.tsv")]),
            ("eval", ["eval", "--test", s("splits/test.tsv"), "--candidates", s("cands.tsv"),
                      "--report", s("eval.json")]),
        ]
    return stages


def mining_stages(name: str) -> Callable:
    def stages(inp: Inputs, rep: Path, sizes: dict) -> list[tuple[str, list[str]]]:
        k, threshold = MINING[name]
        return [("mine", ["mine", "--input", str(inp.files["lexicon"]),
                          "--k", k or str(sizes["entries"]), "--threshold", threshold,
                          "--output", str(rep / "mined.tsv")])]
    return stages


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict
    tiny: dict
    write_inputs: Callable[[Path, int | str, dict], Inputs]
    stages: Callable[[Inputs, Path, dict], list[tuple[str, list[str]]]]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "p2g",
        "EM training dominates, decode is small, and no mining or duplicate "
        "training rows occur: the bypass workload for mining and row dedup",
        {"words": 1000, "test": 200}, {"words": 120, "test": 20},
        write_p2g_inputs, p2g_stages(augmented=False)),
    Workload(
        "p2g-augmented",
        "README path clean-split-mine-augment-train-predict-eval: repeat rows, "
        "a large model and costly decode with empty results",
        {"words": 320, "test": 100}, {"words": 80, "test": 10},
        write_p2g_inputs, p2g_stages(augmented=True)),
    Workload(
        "mine-exhaustive",
        "k >= N mining: feature edit-distance DP over every pair dominates; "
        "no model layer runs",
        {"entries": 600}, {"entries": 60},
        write_mining_inputs, mining_stages("mine-exhaustive")),
    Workload(
        "mine-knn",
        "k=20 mining on a larger corpus: per-row kNN retrieval dominates and "
        "the DP is small",
        {"entries": 2800}, {"entries": 150},
        write_mining_inputs, mining_stages("mine-knn")),
)}
