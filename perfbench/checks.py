"""Output checks, run outside the timed region.

The mining checks use the benchmark's own feature edit distance, computed
from the shipped ``ipa_features.tsv`` with unit insert/delete costs and
substitution cost equal to the share of disagreeing features. It works in
whole units of 1/dims, so its keep-or-drop decision is exact; the library's
floating-point distance must match it to 1e-9.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from workloads import MINING, TAGS, Inputs


class FeatureDistance:
    """Segment edit distance in integer units of 1/dims."""

    def __init__(self, features_tsv: Path):
        self.vectors: dict[str, tuple[str, ...]] = {}
        header_seen = False
        for line in features_tsv.read_text(encoding="utf-8").splitlines():
            if not line or line.startswith("#"):
                continue
            symbol, *values = line.split("\t")
            if not header_seen:
                header_seen = True
                self.dims = len(values)
                continue
            self.vectors[symbol] = tuple(values)
        self._sub: dict[tuple[str, str], int] = {}

    def sub(self, a: str, b: str) -> int:
        key = (a, b)
        cost = self._sub.get(key)
        if cost is None:
            va, vb = self.vectors[a], self.vectors[b]
            cost = sum(x != y for x, y in zip(va, vb))
            self._sub[key] = cost
        return cost

    def units(self, a: list[str], b: list[str]) -> int:
        gap = self.dims
        prev = [j * gap for j in range(len(b) + 1)]
        for i, pa in enumerate(a, start=1):
            cur = [i * gap]
            for j, pb in enumerate(b, start=1):
                cur.append(min(prev[j] + gap, cur[j - 1] + gap, prev[j - 1] + self.sub(pa, pb)))
            prev = cur
        return prev[-1]


def read_mined(path: Path) -> list[tuple[tuple[str, ...], tuple[str, ...], float]]:
    """((lang, grapheme, ipa) of a, the same of b, distance) per kept pair."""
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 7:
            raise ValueError(f"{path}: expected 7 columns, got {len(parts)}")
        out.append((tuple(parts[0:3]), tuple(parts[3:6]), float(parts[6])))
    return out


class Checker:
    def __init__(self, root: Path):
        self.dist = FeatureDistance(root / "src" / "polyipa" / "data" / "ipa_features.tsv")
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok

    def _agrees(self, pair, phones, threshold: float, kept: bool) -> bool:
        """The library's decision and distance for one pair agree with the
        exact DP; a pair exactly at the threshold may go either way."""
        ipa_a, ipa_b, d_lib = pair
        units = self.dist.units(phones[ipa_a], phones[ipa_b])
        limit = round(threshold * self.dist.dims)
        distance_ok = d_lib is None or abs(d_lib - units / self.dist.dims) <= 1e-9
        return distance_ok and (units == limit or kept == (units < limit))

    def mined_pairs(self, path: Path, inputs: Inputs, threshold: float,
                    sample: int | None, seed) -> dict:
        """Every kept pair (or a seeded sample of them) must agree with the
        DP; pairs must be distinct, unordered and drawn from the input."""
        pairs = read_mined(path)
        keys = [frozenset((a, b)) for a, b, _ in pairs]
        if not self.expect(all(a[2] in inputs.phones and b[2] in inputs.phones
                               for a, b, _ in pairs), f"{path.name}: pair endpoint not in the input"):
            return {"kept": len(pairs), "kept_checked": 0, "kept_set": set()}
        pairs = [(a[2], b[2], d) for a, b, d in pairs]
        self.expect(len(set(keys)) == len(keys) and all(len(k) == 2 for k in keys),
                    f"{path.name}: duplicate or self pairs")
        rng = random.Random(seed)
        checked = pairs if sample is None or sample >= len(pairs) else rng.sample(pairs, sample)
        bad = [p for p in checked if not self._agrees(p, inputs.phones, threshold, True)]
        self.expect(not bad, f"{path.name}: {len(bad)} kept pairs disagree with the DP, "
                             f"first {bad[:1]}")
        return {"kept": len(pairs), "kept_checked": len(checked), "kept_set": set(keys)}

    def dropped_pairs(self, inputs: Inputs, kept: set, threshold: float,
                      sample: int, seed) -> int:
        """Exhaustive mining: a seeded sample of all pairs; those not kept
        must lie above the threshold."""
        lines = inputs.files["lexicon"].read_text(encoding="utf-8").splitlines()
        entries = [tuple(line.split("\t")) for line in lines if line]
        n = len(entries)
        rng = random.Random(f"{seed}/dropped")
        picks: set[tuple[int, int]] = set()
        while len(picks) < min(sample, n * (n - 1) // 2):
            i, j = sorted(rng.sample(range(n), 2))
            picks.add((i, j))
        bad = 0
        dropped = 0
        for i, j in sorted(picks):
            is_kept = frozenset((entries[i], entries[j])) in kept
            dropped += not is_kept
            pair = (entries[i][2], entries[j][2], None)
            if not self._agrees(pair, inputs.phones, threshold, is_kept):
                bad += 1
        self.expect(bad == 0, f"{bad} sampled pairs disagree with the DP on keep or drop")
        return dropped

    def clean_report(self, rep: Path, inputs: Inputs) -> None:
        report = json.loads((rep / "clean_report.json").read_text(encoding="utf-8"))
        removed = report["removed_by_rule"]
        self.expect(report["input_count"] == report["retained_count"] + sum(removed.values()),
                    f"clean report not conserved: {report}")
        self.expect(report["input_count"] == inputs.entries,
                    f"clean read {report['input_count']} rows, {inputs.entries} written")
        expected = {k: v for k, v in inputs.expected_removed.items() if v}
        self.expect(removed == expected, f"clean removed {removed}, injected {expected}")

    def predictions(self, rep: Path) -> dict:
        """Candidates load under the rank/score contract, cover exactly the
        test queries, and scored items plus empty queries equal the test size."""
        test = [line.split("\t") for line in
                (rep / "splits" / "test.tsv").read_text(encoding="utf-8").splitlines() if line]
        queries = {(TAGS[lang], ipa) for lang, _, ipa in test}
        from polyipa.errors import PolyipaError
        from polyipa.model import load_external_candidates
        try:
            cands = load_external_candidates(rep / "cands.tsv")
        except (PolyipaError, ValueError) as exc:
            self.expect(False, f"cands.tsv breaks the candidate contract: {exc}")
            return {}
        self.expect(set(cands) <= queries, "cands.tsv has blocks for unknown queries")
        self.expect(all(len(b) <= 5 for b in cands.values()), "more than n-best candidates")
        zero_items = sum(1 for lang, _, ipa in test if not cands.get((TAGS[lang], ipa)))
        empty_queries = sum(1 for q in queries if not cands.get(q))
        report = json.loads((rep / "eval.json").read_text(encoding="utf-8"))["overall"]
        self.expect(report["n_samples"] + zero_items == len(test),
                    f"eval scored {report['n_samples']} items and {zero_items} had no "
                    f"candidates, test size {len(test)}")
        return {"test_size": len(test), "queries": len(queries), "empty_queries": empty_queries,
                "heldout_cer": report["cer_mean"], "exact_match": report["exact_match_rate"]}

    def augment(self, rep: Path, inputs: Inputs, max_tokens: int = 40) -> dict:
        """Every training entry under the token budget (one tag token, one
        per segment, one per letter) is in the stream. Its provenance may be
        similar-variant when a mined variant of an earlier entry produced the
        same example first."""
        rows = [line.split("\t") for line in
                (rep / "aug.tsv").read_text(encoding="utf-8").splitlines() if line]
        train = [line.split("\t") for line in
                 (rep / "splits" / "train.tsv").read_text(encoding="utf-8").splitlines() if line]
        expected = {(TAGS[lang], g, ipa) for lang, g, ipa in train
                    if 1 + len(inputs.phones[ipa]) + len(g) < max_tokens}
        missing = expected - {(r[0], r[1], r[2]) for r in rows}
        self.expect(not missing, f"augment lost {len(missing)} training entries, "
                                 f"first {sorted(missing)[:1]}")
        return {"aug_rows": len(rows),
                "aug_repeat_share": sum(1 for r in rows if r[3] == "repeat") / max(1, len(rows))}


def check_outputs(name: str, stages: set[str], rep: Path, inputs: Inputs, seed,
                  root: Path, tiny: bool) -> tuple[list[str], dict]:
    """Run every check for one workload's outputs; returns (failures, facts)."""
    c = Checker(root)
    facts: dict = {}
    try:
        _check(c, facts, name, stages, rep, inputs, seed, tiny)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        c.expect(False, f"unreadable output: {exc!r}")
    return c.failures, facts


def _check(c: Checker, facts: dict, name: str, stages: set[str], rep: Path, inputs: Inputs,
           seed, tiny: bool) -> None:
    if "clean" in stages:
        c.clean_report(rep, inputs)
    if "predict" in stages:
        facts.update(c.predictions(rep))
    if "augment" in stages:
        facts.update(c.augment(rep, inputs))
    if "mine" in stages:
        k, threshold = MINING[name]
        exhaustive = k is None  # every pair was a candidate, so drops are checkable
        mined = c.mined_pairs(rep / "mined.tsv", inputs, float(threshold),
                              sample=1000 if exhaustive else None, seed=seed)
        facts["mined_pairs"] = mined["kept"]
        facts["kept_checked"] = mined["kept_checked"]
        if exhaustive:
            facts["dropped_checked"] = c.dropped_pairs(
                inputs, mined["kept_set"], float(threshold), 200 if tiny else 1500, seed)

