"""Evaluation harness: string metrics and language-stratified reporting.

All character-level metrics operate on NFC code-point sequences. Items carry
a ranked candidate list; Top-N statistics look at the first N candidates and
record the best word and character error rates, and where on the beam the
best word error rate was found.
"""

from __future__ import annotations

import json
import math
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyInputError, NoCandidatesError
from .ipa import IpaString, _output
from .model import Candidate

__all__ = [
    "levenshtein",
    "cer",
    "char_bleu",
    "word_error_rate",
    "top_n_wer",
    "exact_match",
    "EvalItem",
    "MetricsRow",
    "EvalReport",
    "stratify",
    "report_from_json",
]


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Minimal unit-cost edit count between two sequences."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ai in enumerate(a, start=1):
        cur = [i]
        for j, bj in enumerate(b, start=1):
            best = prev[j] + 1
            if cur[j - 1] + 1 < best:
                best = cur[j - 1] + 1
            sub = prev[j - 1] + (ai != bj)
            if sub < best:
                best = sub
            cur.append(best)
        prev = cur
    return prev[-1]


def _nfc(s: str) -> str:
    return unicodedata.normalize("NFC", s)


def cer(reference: str, hypothesis: str) -> float:
    """Character error rate: levenshtein / max(1, |reference|) on NFC
    code points. The clamp makes an empty reference well-defined."""
    ref, hyp = _nfc(reference), _nfc(hypothesis)
    return levenshtein(ref, hyp) / max(1, len(ref))


_BLEU_ORDER = 4
_BLEU_FLOOR = 0.01


def char_bleu(reference: str, hypothesis: str) -> float:
    """BLEU over character tokens, orders 1..4, geometric mean with floor
    smoothing (zero precisions become 0.01), standard brevity penalty.
    Empty hypothesis scores 0."""
    ref, hyp = _nfc(reference), _nfc(hypothesis)
    if not hyp:
        return 0.0
    log_sum = 0.0
    for n in range(1, _BLEU_ORDER + 1):
        hyp_grams = Counter(hyp[i:i + n] for i in range(len(hyp) - n + 1))
        ref_grams = Counter(ref[i:i + n] for i in range(len(ref) - n + 1))
        matches = sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())
        total = max(0, len(hyp) - n + 1)
        precision = matches / total if total and matches else _BLEU_FLOOR
        log_sum += math.log(precision)
    geo = math.exp(log_sum / _BLEU_ORDER)
    brevity = 1.0 if len(hyp) >= len(ref) else math.exp(1.0 - len(ref) / len(hyp))
    return geo * brevity


def word_error_rate(reference: str, hypothesis: str) -> float:
    """Word-level levenshtein normalized by reference word count (clamped)."""
    ref_words = _nfc(reference).split()
    hyp_words = _nfc(hypothesis).split()
    return levenshtein(ref_words, hyp_words) / max(1, len(ref_words))


def exact_match(reference: str, top1: str) -> bool:
    """NFC code-point equality (inputs already lowercased upstream)."""
    return _nfc(reference) == _nfc(top1)


@dataclass(frozen=True)
class EvalItem:
    """One test word with its ranked candidates."""

    lang: str
    tag: str
    ipa: IpaString
    reference: str
    candidates: tuple[Candidate, ...]


def top_n_wer(item: EvalItem, n: int) -> tuple[float, int]:
    """(best word error rate over the first min(n, |candidates|) candidates,
    1-based rank of the first candidate achieving it)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not item.candidates:
        raise NoCandidatesError(f"no candidates for {item.tag} {item.ipa}")
    best_wer = math.inf
    best_pos = 1
    for pos, cand in enumerate(item.candidates[:n], start=1):
        wer = word_error_rate(item.reference, cand.grapheme)
        if wer < best_wer:
            best_wer = wer
            best_pos = pos
    return best_wer, best_pos


@dataclass(frozen=True)
class MetricsRow:
    """Aggregated metrics for one language (or the pooled overall row)."""

    lang: str
    n_samples: int
    cer_mean: float
    cer_std: float
    bleu_mean: float
    exact_match_rate: float
    top_wer: dict[int, float]
    top_cer: dict[int, float]
    mean_best_beam_position: float

    def to_dict(self) -> dict:
        return {
            "lang": self.lang,
            "n_samples": self.n_samples,
            "cer_mean": self.cer_mean,
            "cer_std": self.cer_std,
            "bleu_mean": self.bleu_mean,
            "exact_match_rate": self.exact_match_rate,
            "top_wer": {str(n): v for n, v in sorted(self.top_wer.items())},
            "top_cer": {str(n): v for n, v in sorted(self.top_cer.items())},
            "mean_best_beam_position": self.mean_best_beam_position,
        }


@dataclass
class EvalReport:
    """Per-language rows plus a pooled overall row, and the number of test
    entries left out of them for having no candidates."""

    rows: list[MetricsRow]
    overall: MetricsRow
    ns: tuple[int, ...] = (1, 3, 5)
    no_candidates: int = 0

    def to_json(self) -> str:
        payload = {
            "overall": self.overall.to_dict(),
            "languages": [row.to_dict() for row in self.rows],
            "no_candidates": self.no_candidates,
        }
        return json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2)

    def write_csv(self, path) -> None:
        """Write one CSV row per language, then the overall row, to a UTF-8
        file, or to stdout when path is "-"."""
        header = ["lang", "n_samples", "cer_mean", "cer_std", "bleu_mean", "exact_match_rate"]
        header += [f"top{n}_wer" for n in self.ns] + [f"top{n}_cer" for n in self.ns]
        header.append("mean_best_beam_position")
        with _output(path) as fh:
            fh.write(",".join(header) + "\n")
            for row in self.rows + [self.overall]:
                cells = [row.lang, str(row.n_samples)]
                cells += [repr(v) for v in (row.cer_mean, row.cer_std, row.bleu_mean, row.exact_match_rate)]
                cells += [repr(row.top_wer[n]) for n in self.ns]
                cells += [repr(row.top_cer[n]) for n in self.ns]
                cells.append(repr(row.mean_best_beam_position))
                fh.write(",".join(cells) + "\n")


@dataclass
class _Scores:
    cers: list[float] = field(default_factory=list)
    bleus: list[float] = field(default_factory=list)
    exacts: list[float] = field(default_factory=list)
    wers: dict[int, list[float]] = field(default_factory=dict)
    top_cers: dict[int, list[float]] = field(default_factory=dict)
    positions: list[float] = field(default_factory=list)


def _score_row(lang: str, sc: _Scores, ns: tuple[int, ...]) -> MetricsRow:
    cers = np.asarray(sc.cers)
    return MetricsRow(
        lang=lang,
        n_samples=len(sc.cers),
        cer_mean=float(cers.mean()),
        cer_std=float(cers.std()),  # population std
        bleu_mean=float(np.mean(sc.bleus)),
        exact_match_rate=float(np.mean(sc.exacts)),
        top_wer={n: float(np.mean(sc.wers[n])) for n in ns},
        top_cer={n: float(np.mean(sc.top_cers[n])) for n in ns},
        mean_best_beam_position=float(np.mean(sc.positions)),
    )


def stratify(items: Iterable[EvalItem], ns: tuple[int, ...] = (1, 3, 5)) -> EvalReport:
    """Group items by language and aggregate.

    Per-language rows use population standard deviation; the overall row is
    computed from the pooled items, which makes its means the sample-count-
    weighted means of the per-language rows. Rows are ordered by descending
    n_samples, ties by language code. The recorded beam position is taken at
    the widest N; top-N WER and CER are the best WER and CER over the first N
    candidates.
    """
    items = list(items)
    if not items:
        raise EmptyInputError("no evaluation items")
    ns = tuple(sorted(set(ns)))
    if min(ns, default=0) < 1:
        raise ValueError("n must be >= 1")
    per_lang: dict[str, _Scores] = {}
    pooled = _Scores()
    widest = max(ns)
    for item in items:
        if not item.candidates:
            raise NoCandidatesError(f"no candidates for {item.tag} {item.ipa}")
        top1 = item.candidates[0].grapheme
        targets = (per_lang.setdefault(item.lang, _Scores()), pooled)
        cers = [cer(item.reference, c.grapheme) for c in item.candidates[:widest]]
        wers = [word_error_rate(item.reference, c.grapheme) for c in item.candidates[:widest]]
        item_bleu = char_bleu(item.reference, top1)
        item_exact = float(exact_match(item.reference, top1))
        # 1-based rank of the first candidate with the best WER, as top_n_wer
        position = float(wers.index(min(wers)) + 1)
        for sc in targets:
            sc.cers.append(cers[0])
            sc.bleus.append(item_bleu)
            sc.exacts.append(item_exact)
            for n in ns:
                sc.wers.setdefault(n, []).append(min(wers[:n]))
                sc.top_cers.setdefault(n, []).append(min(cers[:n]))
            sc.positions.append(position)
    rows = [_score_row(lang, sc, ns) for lang, sc in per_lang.items()]
    rows.sort(key=lambda r: (-r.n_samples, r.lang))
    overall = _score_row("overall", pooled, ns)
    return EvalReport(rows=rows, overall=overall, ns=ns)


def _row_from_dict(payload: dict) -> MetricsRow:
    if not isinstance(payload["lang"], str):
        raise TypeError(f"lang {payload['lang']!r} is not a string")
    return MetricsRow(
        lang=payload["lang"],
        n_samples=int(payload["n_samples"]),
        cer_mean=float(payload["cer_mean"]),
        cer_std=float(payload["cer_std"]),
        bleu_mean=float(payload["bleu_mean"]),
        exact_match_rate=float(payload["exact_match_rate"]),
        top_wer={int(k): float(v) for k, v in payload["top_wer"].items()},
        top_cer={int(k): float(v) for k, v in payload["top_cer"].items()},
        mean_best_beam_position=float(payload["mean_best_beam_position"]),
    )


def report_from_json(text: str) -> EvalReport:
    """Inverse of EvalReport.to_json."""
    payload = json.loads(text)
    no_candidates = payload["no_candidates"]
    if not (type(no_candidates) is int and no_candidates >= 0):
        raise ValueError(f"no_candidates {no_candidates!r} is not a count")
    overall = _row_from_dict(payload["overall"])
    rows = [_row_from_dict(r) for r in payload["languages"]]
    ns = tuple(sorted(overall.top_wer))
    for row in rows + [overall]:
        if tuple(sorted(row.top_wer)) != ns or tuple(sorted(row.top_cer)) != ns:
            raise ValueError(f"row {row.lang}: top_wer or top_cer keys differ from "
                             f"the overall top_wer {list(ns)}")
    return EvalReport(rows=rows, overall=overall, ns=ns, no_candidates=no_candidates)
