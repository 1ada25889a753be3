"""Single command-line entry point for the whole pipeline.

Subcommands: clean, convert, strip, pairs, mine, split, augment, train,
predict, eval, report. Exit codes: 0 success, 1 input or validation error
(including usage errors), 2 internal error. Every output is deterministic
for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import traceback
from pathlib import Path

from . import __version__
from .config import KEYS, PipelineConfig, Resources, load as load_config
from .errors import PolyipaError
from .ipa import (
    _output,
    _parse_rows,
    _read_lines,
    _write_rows,
    convert_to_ipa,
    parse_ipa,
    strip_diacritics_tones,
)
from .lexicon import Lexicon, PronEntry, clean, extract_ipa_pairs, lang_script_tag, read_raw_tsv
from .metrics import EvalItem, report_from_json, stratify
from .mining import (
    build_embedding_matrix,
    mine_soundalikes,
    read_pairs_tsv,
    write_embeddings_tsv,
    write_pairs_tsv,
)
from .model import (
    JointModel,
    beam_decode,
    load_external_candidates,
    stack_width,
    train,
    train_tagged,
    write_candidates_tsv,
)
from .splits import (
    read_examples_tsv,
    stratified_split,
    upsample_generate,
    write_examples_tsv,
)

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _StdinText:
    """stdin read once, passed to readers in place of the path "-": train
    and predict read their input twice, to count columns and to parse it."""

    def __init__(self):
        self._text = sys.stdin.read()

    def read_text(self, encoding: str = "utf-8") -> str:
        return self._text

    def __str__(self) -> str:
        return "-"


def _input(path: str):
    return _StdinText() if path == "-" else path


def _first_data_columns(path) -> int:
    return next(_parse_rows(path, lambda *fields: len(fields)), 0)


def _summary(line: str, *outputs: str | None) -> None:
    """Print a summary line, to stderr when a data output is stdout ("-")."""
    print(line, file=sys.stderr if "-" in outputs else sys.stdout)


def _distinct_outputs(**outputs: str | None) -> None:
    """Reject two outputs of one command that are both stdout ("-") or
    name the same file, before anything is read or written."""
    seen: dict[str, str] = {}
    for name, path in outputs.items():
        if path is None:
            continue
        target = path if path == "-" else os.path.realpath(path)
        other = seen.setdefault(target, name)
        if other != name:
            raise ValueError(f"--{other} and --{name} cannot both be - (stdout)" if path == "-"
                             else f"--{other} and --{name} name the same file {path}")


def _write_json(path: str, text: str) -> None:
    with _output(path) as fh:
        fh.write(text + "\n")


def cmd_clean(args, cfg: PipelineConfig, res: Resources) -> int:
    _distinct_outputs(output=args.output, report=args.report)
    rows = read_raw_tsv(args.input)
    lex, report = clean(rows, res.inventory, res.registry, res.scripts)
    lex.write_tsv(args.output)
    if args.report:
        _write_json(args.report, report.to_json())
    removed = report.input_count - report.retained_count
    _summary(f"clean: {report.input_count} rows in, {report.retained_count} kept, "
             f"{removed} removed", args.output, args.report)
    return 0


def _map_lines(args, convert) -> None:
    """Write convert(line) for every line of --input to --output, and an
    empty line for a blank one; nothing is written if a line fails."""
    _write_rows(args.output, [(convert(line) if line.strip() else "",)
                              for line in _read_lines(args.input)])


def cmd_convert(args, cfg: PipelineConfig, res: Resources) -> int:
    chart = {"xsampa": res.xsampa, "arpabet": res.arpabet, "ipa": None}[args.system]
    _map_lines(args, lambda line: convert_to_ipa(args.system, line, inventory=res.inventory,
                                                 chart=chart).text)
    return 0


def cmd_strip(args, cfg: PipelineConfig, res: Resources) -> int:
    _map_lines(args, lambda line: strip_diacritics_tones(parse_ipa(line, res.inventory),
                                                         inventory=res.inventory).text)
    return 0


def cmd_pairs(args, cfg: PipelineConfig, res: Resources) -> int:
    lex = Lexicon.read_tsv(args.input, res.inventory)
    pairs = extract_ipa_pairs(lex)
    _write_rows(args.output, ((p.lang, p.grapheme, p.ipa_a.text, p.ipa_b.text) for p in pairs),
                ("lang", "grapheme", "ipa_a", "ipa_b"))
    _summary(f"pairs: {len(pairs)} ordered pronunciation pairs", args.output)
    return 0


def cmd_mine(args, cfg: PipelineConfig, res: Resources) -> int:
    _distinct_outputs(output=args.output, embeddings=args.embeddings)
    lex = Lexicon.read_tsv(args.input, res.inventory)
    entries = list(lex)
    if args.embeddings:
        write_embeddings_tsv(args.embeddings, build_embedding_matrix(entries, res.features))
    pairs = mine_soundalikes(entries, cfg.mining, table=res.features)
    write_pairs_tsv(args.output, entries, pairs)
    _summary(f"mine: {len(pairs)} pairs at threshold {cfg.mining.threshold} from "
             f"{len(entries)} entries", args.output, args.embeddings)
    return 0


def cmd_split(args, cfg: PipelineConfig, res: Resources) -> int:
    lex = Lexicon.read_tsv(args.input, res.inventory)
    train_lex, eval_lex, test_lex = stratified_split(lex, cfg.split)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_lex.write_tsv(out_dir / "train.tsv")
    eval_lex.write_tsv(out_dir / "eval.tsv")
    test_lex.write_tsv(out_dir / "test.tsv")
    print(f"split: train {len(train_lex)}, eval {len(eval_lex)}, test {len(test_lex)}")
    return 0


def cmd_augment(args, cfg: PipelineConfig, res: Resources) -> int:
    if not (math.isfinite(args.ratio) and args.ratio >= 0):
        raise ValueError(f"--ratio must be a finite number >= 0, got {args.ratio}")
    train_lex = Lexicon.read_tsv(args.train, res.inventory)
    variants = read_pairs_tsv(args.pairs, train_lex, res.inventory) if args.pairs else {}
    counters: dict[str, int] = {}
    stream = upsample_generate(train_lex, variants, ratio=args.ratio, scripts=res.scripts,
                               inventory=res.inventory, counters=counters)
    write_examples_tsv(args.out, stream)
    _summary("augment: " + ", ".join(f"{k}={counters[k]}" for k in sorted(counters)), args.out)
    return 0


def cmd_train(args, cfg: PipelineConfig, res: Resources) -> int:
    if args.output == "-":
        # save() replaces its target file as a whole, so it cannot stream
        raise ValueError("train --output must be a file, not - (stdout)")
    source = _input(args.input)
    if _first_data_columns(source) == 4:
        examples = read_examples_tsv(source, res.inventory)
        rows = [(ex.tag, ex.ipa, ex.target) for ex in examples]
        model = train_tagged(rows, order=cfg.model_order)
    else:
        lex = Lexicon.read_tsv(source, res.inventory)
        model = train(lex, order=cfg.model_order, scripts=res.scripts)
    model.save(args.output)
    stats = model.training_stats
    log_likelihood = stats.get("log_likelihood")
    print(f"train: order {cfg.model_order}, {stats.get('trained_on', 0)} examples, "
          f"{stats.get('alignment_failures', 0)} alignment failures, "
          f"{len(model.vocab)} vocabulary tokens; EM: "
          f"{stats.get('ratio_skipped', 0)} ratio-skipped, "
          f"{stats.get('unalignable', 0)} unalignable"
          + (f", log-likelihood {log_likelihood[-1]:.4f}" if log_likelihood else ""))
    return 0


def cmd_predict(args, cfg: PipelineConfig, res: Resources) -> int:
    model = JointModel.load(args.model)
    source = _input(args.input)
    if _first_data_columns(source) == 2:
        # parsed as read, so that a bad transcription names its line
        queries = dict(_parse_rows(source, lambda tag, ipa_text: (
            (tag, ipa_text), parse_ipa(ipa_text, res.inventory)), 2, "tag<TAB>ipa"))
    else:
        def query(lang: str, grapheme: str, ipa_text: str):
            # keyed by the raw transcription, which eval looks candidates up by
            ipa = parse_ipa(ipa_text, res.inventory)
            return (lang_script_tag(PronEntry(lang, grapheme, ipa), res.scripts), ipa_text), ipa

        queries = dict(_parse_rows(source, query, 3, "lang<TAB>grapheme<TAB>ipa"))
    blocks = []
    empty = 0
    for (tag, ipa_text), ipa in queries.items():
        cands = beam_decode(model, tag, ipa, cfg.n_best)
        empty += not cands
        blocks.append((tag, ipa_text, cands))
    write_candidates_tsv(args.output, blocks)
    if empty:
        print(f"warning: {empty} inputs decoded to no candidates", file=sys.stderr)
    _summary(f"predict: {len(queries)} inputs, n_best {cfg.n_best}, "
             f"beam width {stack_width(cfg.n_best)}, "
             f"{empty} without candidates", args.output)
    return 0


def cmd_eval(args, cfg: PipelineConfig, res: Resources) -> int:
    _distinct_outputs(report=args.report, csv=args.csv)
    test_lex = Lexicon.read_tsv(args.test, res.inventory)
    candidates = load_external_candidates(args.candidates)
    ns = tuple(int(part) for part in args.n.split(","))
    items: list[EvalItem] = []
    skipped = 0
    for entry in test_lex:
        tag = lang_script_tag(entry, res.scripts)
        block = candidates.get((tag, entry.ipa.text))
        if not block:
            skipped += 1
            continue
        items.append(EvalItem(entry.lang, tag, entry.ipa, entry.grapheme,
                              tuple(block)))
    if skipped:
        print(f"warning: {skipped} test entries had no candidates and were skipped",
              file=sys.stderr)
    report = dataclasses.replace(stratify(items, ns), no_candidates=skipped)
    _write_json(args.report, report.to_json())
    if args.csv:
        report.write_csv(args.csv)
    o = report.overall
    _summary(f"eval: {o.n_samples} items, cer {o.cer_mean:.4f}, bleu {o.bleu_mean:.4f}, "
             f"exact {o.exact_match_rate:.4f}", args.report, args.csv)
    return 0


def cmd_report(args, cfg: PipelineConfig, res: Resources) -> int:
    try:
        rep = report_from_json(Path(args.input).read_text(encoding="utf-8"))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{args.input}: not a readable eval report "
                         f"({type(exc).__name__}: {exc})") from None
    if args.csv:
        rep.write_csv(args.csv)
    top_heads = [f"top{n}_wer" for n in rep.ns] + [f"top{n}_cer" for n in rep.ns]
    header = ["lang", "n", "cer", "bleu", "exact"] + top_heads + ["beam_pos"]
    # the table is the summary: on stderr when the CSV goes to stdout
    _summary("  ".join(f"{h:>10}" for h in header), args.csv)
    for row in rep.rows + [rep.overall]:
        cells = [row.lang, str(row.n_samples), f"{row.cer_mean:.4f}",
                 f"{row.bleu_mean:.4f}", f"{row.exact_match_rate:.4f}"]
        cells += [f"{row.top_wer[n]:.4f}" for n in rep.ns]
        cells += [f"{row.top_cer[n]:.4f}" for n in rep.ns]
        cells.append(f"{row.mean_best_beam_position:.2f}")
        _summary("  ".join(f"{c:>10}" for c in cells), args.csv)
    _summary(f"{rep.no_candidates} test entries without candidates, not in the means", args.csv)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="polyipa", description=__doc__)
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--version", action="version", version=f"polyipa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser,
                                metavar="SUBCOMMAND")

    p = sub.add_parser("clean", help="clean a raw lexicon TSV")
    p.add_argument("--input", required=True, help="raw lexicon TSV (lang, grapheme, ipa)")
    p.add_argument("--output", required=True, help="cleaned lexicon TSV, - for stdout")
    p.add_argument("--report", help="write the cleaning report JSON here, - for stdout")
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("convert", help="convert transcriptions to IPA")
    p.add_argument("--from", dest="system", required=True,
                   choices=("ipa", "xsampa", "arpabet"), help="source notation")
    p.add_argument("--input", default="-", help="one transcription per line, - for stdin")
    p.add_argument("--output", default="-", help="output file, - for stdout")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("strip", help="remove diacritics, tones, and modifier letters")
    p.add_argument("--input", default="-", help="one IPA string per line, - for stdin")
    p.add_argument("--output", default="-", help="output file, - for stdout")
    p.set_defaults(func=cmd_strip)

    p = sub.add_parser("pairs", help="extract ordered pronunciation-variant pairs")
    p.add_argument("--input", required=True, help="cleaned lexicon TSV")
    p.add_argument("--output", required=True, help="pairs TSV")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("mine", help="mine sound-alike entry pairs")
    p.add_argument("--input", required=True, help="cleaned lexicon TSV")
    p.add_argument("--k", dest="mining_k", help="nearest neighbours per entry")
    p.add_argument("--threshold", dest="mining_threshold", help="max feature edit distance")
    p.add_argument("--exclude-existing", action="store_true", default=None,
                   help="drop pairs the lexicon already lists as variants")
    p.add_argument("--embeddings", help="also write the embedding matrix TSV here")
    p.add_argument("--output", required=True, help="mined pairs TSV")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("split", help="stratified train/eval/test split")
    p.add_argument("--input", required=True, help="cleaned lexicon TSV")
    p.add_argument("--test", dest="test_size", help="test set size")
    p.add_argument("--eval", dest="eval_size", help="evaluation set size")
    p.add_argument("--seed", help="shuffle seed")
    p.add_argument("--per-lang-cap", help="cap entries per language")
    p.add_argument("--out-dir", required=True, help="directory for train/eval/test.tsv")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("augment", help="upsample a training lexicon")
    p.add_argument("--train", required=True, help="training lexicon TSV")
    p.add_argument("--pairs", help="mined pairs TSV for similar variants")
    p.add_argument("--ratio", type=float, default=1.0,
                   help="min originals-to-augmented ratio (default 1.0)")
    p.add_argument("--out", required=True, help="augmented examples TSV")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train", help="train the phoneme-to-grapheme model")
    p.add_argument("--input", required=True,
                   help="lexicon TSV or augmented examples TSV")
    p.add_argument("--order", dest="model_order", help="n-gram order")
    p.add_argument("--output", required=True, help="model file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="decode n-best spellings")
    p.add_argument("--model", required=True, help="trained model file")
    p.add_argument("--input", required=True,
                   help="lexicon TSV or tag<TAB>ipa lines")
    p.add_argument("--n-best", help="candidates per input")
    p.add_argument("--output", required=True, help="candidates TSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score candidates against references")
    p.add_argument("--test", required=True, help="test lexicon TSV")
    p.add_argument("--candidates", required=True, help="candidates TSV")
    p.add_argument("--n", default="1,3,5", help="comma-separated top-N list")
    p.add_argument("--report", required=True, help="output report JSON, - for stdout")
    p.add_argument("--csv", help="also write a per-language CSV, - for stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="render a report JSON as a table")
    p.add_argument("--input", required=True, help="report JSON from eval")
    p.add_argument("--csv", help="also write the per-language CSV, - for stdout")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # flags that set a config key have it as dest; unset ones are None
    flags = {key: value for key, value in vars(args).items()
             if key in KEYS and value is not None}
    try:
        cfg = load_config(args.config, validate=False, flags=flags)
        res = cfg.resources()
        return args.func(args, cfg, res)
    except (PolyipaError, OSError, ValueError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
