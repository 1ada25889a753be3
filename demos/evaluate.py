"""Scoring decoded candidates: per-item metrics, then a stratified
per-language report."""

import random
import tempfile
from pathlib import Path

from polyipa import (
    Candidate,
    EvalItem,
    cer,
    char_bleu,
    exact_match,
    levenshtein,
    parse_ipa,
    stratify,
    top_n_wer,
)

# item-level metrics first
print(f"levenshtein('kitten', 'sitting') = {levenshtein('kitten', 'sitting')}")
print(f"cer('schmidt', 'schmitt')       = {cer('schmidt', 'schmitt'):.4f}")
print(f"char_bleu('haus', 'haus')       = {char_bleu('haus', 'haus'):.4f}")
print(f"char_bleu('haus', 'hause')      = {char_bleu('haus', 'hause'):.4f}")
print(f"exact_match('grün', 'grün')    = {exact_match('grün', 'grün')}")


def item(lang, ipa, reference, *graphemes):
    cands = tuple(Candidate(g, -0.5 * i) for i, g in enumerate(graphemes))
    return EvalItem(lang, f"<{lang}>", parse_ipa(ipa), reference, cands)


# the reference may appear below rank 1; top-n WER credits it by rank
deep = item("de", "ʃmɪt", "schmitt", "schmidt", "schmitt", "schmid")
for n in (1, 2, 3):
    wer, rank = top_n_wer(deep, n)
    print(f"top-{n} WER {wer:.1f} (best at rank {rank})")

# a small decoded batch across two languages, with seeded noise so the
# report has something to aggregate
rng = random.Random(8)
items = [deep]
for lang, ipa, ref in [
    ("de", "haʊ̯s", "haus"), ("de", "kʊnst", "kunst"),
    ("de", "ɡʁyːn", "gruen"), ("fr", "ʃa", "chat"),
    ("fr", "mɛzɔ̃", "maison"), ("fr", "ʁuʒ", "rouge"),
]:
    hyp = ref if rng.random() < 0.7 else ref[:-1] + "x"
    items.append(item(lang, ipa, ref, hyp, ref))

report = stratify(items, ns=(1, 2, 3))
print("\nper-language rows (widest first):")
for row in report.rows + [report.overall]:
    print(f"  {row.lang:8s} n={row.n_samples} cer={row.cer_mean:.3f} "
          f"bleu={row.bleu_mean:.3f} exact={row.exact_match_rate:.3f} "
          f"top1={row.top_wer[1]:.3f} top3={row.top_wer[3]:.3f} "
          f"top3_cer={row.top_cer[3]:.3f}")

# reports serialize to JSON and CSV for downstream tooling
with tempfile.TemporaryDirectory() as tmp:
    csv_path = Path(tmp) / "report.csv"
    report.write_csv(csv_path)
    print("\ncsv:")
    print(csv_path.read_text(encoding="utf-8").rstrip())
