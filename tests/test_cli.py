"""End-to-end command-line pipeline and exit-code contract."""

from __future__ import annotations

import io
import json
import os
import sys
from pathlib import Path

import pytest

from _synth import shallow_lexicon
from polyipa import cli
from polyipa.config import ENV_PREFIX, KEYS, PipelineConfig, load as load_config


@pytest.fixture(autouse=True)
def scrub_env(monkeypatch):
    for name in list(os.environ):
        if name.startswith(ENV_PREFIX):
            monkeypatch.delenv(name)


def run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage and --version paths
        return exc.code


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run clean, split, train, predict, and eval once; tests inspect the
    outputs."""
    root = tmp_path_factory.mktemp("pipeline")
    lex = shallow_lexicon(250, seed=41)
    raw = root / "raw.tsv"
    raw.write_text(
        "".join(f"{e.lang}\t{e.grapheme}\t{e.ipa.text}\n" for e in lex),
        encoding="utf-8")

    paths = {
        "root": root,
        "raw": raw,
        "cleaned": root / "cleaned.tsv",
        "clean_report": root / "clean_report.json",
        "splits": root / "splits",
        "model": root / "p2g.model",
        "cands": root / "cands.tsv",
        "eval_report": root / "eval_report.json",
        "eval_csv": root / "eval_report.csv",
    }
    steps = [
        ["clean", "--input", str(raw), "--output", str(paths["cleaned"]),
         "--report", str(paths["clean_report"])],
        ["split", "--input", str(paths["cleaned"]), "--test", "30",
         "--eval", "30", "--seed", "5", "--out-dir", str(paths["splits"])],
        ["train", "--input", str(paths["splits"] / "train.tsv"),
         "--order", "3", "--output", str(paths["model"])],
        ["predict", "--model", str(paths["model"]),
         "--input", str(paths["splits"] / "test.tsv"), "--n-best", "3",
         "--output", str(paths["cands"])],
        ["eval", "--test", str(paths["splits"] / "test.tsv"),
         "--candidates", str(paths["cands"]), "--report",
         str(paths["eval_report"]), "--csv", str(paths["eval_csv"])],
    ]
    for argv in steps:
        assert run_cli(argv) == 0, argv[0]
    return paths


def test_clean_report_conserves_rows(pipeline):
    report = json.loads(pipeline["clean_report"].read_text(encoding="utf-8"))
    removed = sum(report["removed_by_rule"].values())
    assert report["input_count"] == report["retained_count"] + removed
    assert report["retained_count"] == 250  # synthetic corpus is already clean


def test_split_files_have_requested_sizes(pipeline):
    sizes = {}
    for name in ("train", "eval", "test"):
        lines = (pipeline["splits"] / f"{name}.tsv").read_text(
            encoding="utf-8").splitlines()
        sizes[name] = len(lines)
    assert sizes == {"train": 190, "eval": 30, "test": 30}


def test_candidates_cover_every_test_entry(pipeline):
    test_lines = (pipeline["splits"] / "test.tsv").read_text(
        encoding="utf-8").splitlines()
    ipas = {line.split("\t")[2] for line in test_lines}
    cand_ipas = {line.split("\t")[1] for line in
                 pipeline["cands"].read_text(encoding="utf-8").splitlines()}
    assert cand_ipas == ipas


def test_eval_report_covers_test_set(pipeline):
    payload = json.loads(pipeline["eval_report"].read_text(encoding="utf-8"))
    assert payload["overall"]["n_samples"] == 30
    assert payload["languages"][0]["lang"] == "eo"
    assert set(payload["overall"]["top_wer"]) == {"1", "3", "5"}
    assert pipeline["eval_csv"].read_text(encoding="utf-8").startswith("lang,")


def test_report_renders_table(pipeline, capsys):
    assert run_cli(["report", "--input", str(pipeline["eval_report"])]) == 0
    out = capsys.readouterr().out
    assert "overall" in out
    assert "top1_wer" in out


def test_retrain_and_repredict_are_byte_identical(pipeline):
    model2 = pipeline["root"] / "again.model"
    assert run_cli(["train", "--input", str(pipeline["splits"] / "train.tsv"),
                    "--order", "3", "--output", str(model2)]) == 0
    assert model2.read_bytes() == pipeline["model"].read_bytes()

    cands2 = pipeline["root"] / "again.tsv"
    assert run_cli(["predict", "--model", str(model2),
                    "--input", str(pipeline["splits"] / "test.tsv"),
                    "--n-best", "3", "--output", str(cands2)]) == 0
    assert cands2.read_bytes() == pipeline["cands"].read_bytes()


def test_predict_reports_beam_width(pipeline, tmp_path, capsys):
    queries = tmp_path / "queries.tsv"
    queries.write_text("<eo>\tpato\n", encoding="utf-8")
    out = tmp_path / "c.tsv"
    assert run_cli(["predict", "--model", str(pipeline["model"]),
                    "--input", str(queries), "--n-best", "30",
                    "--output", str(out)]) == 0
    assert "n_best 30, beam width 90," in capsys.readouterr().out
    assert run_cli(["predict", "--model", str(pipeline["model"]),
                    "--input", str(queries), "--n-best", "30",
                    "--beam-width", "7", "--output", str(out)]) == 0
    assert "n_best 30, beam width 7," in capsys.readouterr().out


def test_predict_deduplicates_queries(pipeline, tmp_path):
    queries = tmp_path / "queries.tsv"
    queries.write_text("<eo>\tpato\n<eo>\tpato\n", encoding="utf-8")
    out = tmp_path / "c.tsv"
    assert run_cli(["predict", "--model", str(pipeline["model"]),
                    "--input", str(queries), "--n-best", "1",
                    "--output", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1


def test_predict_names_malformed_query_line(pipeline, tmp_path, capsys):
    queries = tmp_path / "q.tsv"
    queries.write_text("<eo>\tpato\n<eo> pato\n", encoding="utf-8")
    assert run_cli(["predict", "--model", str(pipeline["model"]),
                    "--input", str(queries),
                    "--output", str(tmp_path / "c.tsv")]) == 1
    assert "q.tsv: line 2: expected tag<TAB>ipa" in capsys.readouterr().err


def test_predict_reports_empty_decodes(pipeline, tmp_path, capsys):
    queries = tmp_path / "queries.tsv"
    queries.write_text("<eo>\tpato\n<eo>\tθa\n", encoding="utf-8")
    out = tmp_path / "c.tsv"
    assert run_cli(["predict", "--model", str(pipeline["model"]),
                    "--input", str(queries), "--n-best", "2",
                    "--output", str(out)]) == 0
    captured = capsys.readouterr()
    assert "predict: 2 inputs, n_best 2, beam width 6, 1 without candidates" in captured.out
    assert "warning: 1 inputs decoded to no candidates" in captured.err
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines and all(line.split("\t")[1] == "pato" for line in lines)


def test_train_reports_em_counters(pipeline, tmp_path, capsys):
    assert run_cli(["train", "--input", str(pipeline["splits"] / "train.tsv"),
                    "--order", "3", "--output", str(tmp_path / "m")]) == 0
    line = capsys.readouterr().out.strip()
    assert "; EM: 0 ratio-skipped, 0 unalignable, log-likelihood -" in line


def test_train_reads_stdin_once(pipeline, tmp_path, monkeypatch):
    rows = pipeline["splits"] / "train.tsv"
    monkeypatch.setattr(sys, "stdin", io.StringIO(rows.read_text(encoding="utf-8")))
    model = tmp_path / "stdin.model"
    assert run_cli(["train", "--input", "-", "--order", "3",
                    "--output", str(model)]) == 0
    assert model.read_bytes() == pipeline["model"].read_bytes()


def test_predict_reads_stdin_once(pipeline, tmp_path, monkeypatch):
    test = pipeline["splits"] / "test.tsv"
    monkeypatch.setattr(sys, "stdin", io.StringIO(test.read_text(encoding="utf-8")))
    cands = tmp_path / "stdin.tsv"
    assert run_cli(["predict", "--model", str(pipeline["model"]), "--input", "-",
                    "--n-best", "3", "--output", str(cands)]) == 0
    assert cands.read_bytes() == pipeline["cands"].read_bytes()


def test_eval_warns_on_missing_candidates(pipeline, tmp_path, capsys):
    partial = tmp_path / "partial.tsv"
    lines = pipeline["cands"].read_text(encoding="utf-8").splitlines()
    covered = lines[0].split("\t")[1]
    partial.write_text("\n".join(l for l in lines
                                 if l.split("\t")[1] == covered) + "\n",
                       encoding="utf-8")
    report = tmp_path / "r.json"
    assert run_cli(["eval", "--test", str(pipeline["splits"] / "test.tsv"),
                    "--candidates", str(partial),
                    "--report", str(report)]) == 0
    assert "had no candidates" in capsys.readouterr().err
    assert json.loads(report.read_text(encoding="utf-8"))["overall"]["n_samples"] == 1


# auxiliary subcommands

def test_convert_and_strip_on_stdio(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("tS\n\"pleIs\n"))
    assert run_cli(["convert", "--from", "xsampa"]) == 0
    assert capsys.readouterr().out == "t͡ʃ\nˈpleɪs\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO("ˈkaːtʰ\n"))
    assert run_cli(["strip"]) == 0
    assert capsys.readouterr().out == "kat\n"


def test_pairs_mine_augment_train(tmp_path):
    lex = shallow_lexicon(80, seed=42)
    cleaned = tmp_path / "cleaned.tsv"
    rows = [f"{e.lang}\t{e.grapheme}\t{e.ipa.text}" for e in lex]
    first = rows[0].split("\t")
    rows.append(f"{first[0]}\t{first[1]}\t{first[2][:-1]}aː")  # second pron
    cleaned.write_text("".join(r + "\n" for r in rows), encoding="utf-8")

    pairs_out = tmp_path / "pron_pairs.tsv"
    assert run_cli(["pairs", "--input", str(cleaned),
                    "--output", str(pairs_out)]) == 0
    assert len([l for l in pairs_out.read_text(encoding="utf-8").splitlines()
                if not l.startswith("#")]) == 2

    mined = tmp_path / "mined.tsv"
    emb = tmp_path / "emb.tsv"
    assert run_cli(["mine", "--input", str(cleaned), "--k", "5",
                    "--threshold", "2.0", "--embeddings", str(emb),
                    "--output", str(mined)]) == 0
    assert emb.exists()
    assert mined.exists()

    examples = tmp_path / "examples.tsv"
    assert run_cli(["augment", "--train", str(cleaned),
                    "--pairs", str(mined), "--ratio", "1.0",
                    "--out", str(examples)]) == 0
    lines = examples.read_text(encoding="utf-8").splitlines()
    assert all(len(l.split("\t")) == 4 for l in lines)
    assert len(lines) >= 81

    model = tmp_path / "aug.model"
    assert run_cli(["train", "--input", str(examples), "--order", "2",
                    "--output", str(model)]) == 0
    assert model.exists()


def test_clean_fixture_via_cli(fixture_corpus, tmp_path):
    out = tmp_path / "cleaned.tsv"
    report_path = tmp_path / "report.json"
    assert run_cli(["clean", "--input", str(fixture_corpus),
                    "--output", str(out), "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["input_count"] == 100
    assert report["retained_count"] == 90
    assert report["removed_by_rule"] == {
        "duplicate": 2, "invalid-ipa": 5, "script-mismatch": 3}


# exit codes and help

def test_version_and_usage_exits(capsys):
    assert run_cli(["--version"]) == 0
    assert capsys.readouterr().out.startswith("polyipa ")
    assert run_cli([]) == 1  # subcommand is required
    assert run_cli(["clean"]) == 1  # missing required flags
    assert run_cli(["bogus"]) == 1


def test_missing_input_exits_one(tmp_path, capsys):
    assert run_cli(["clean", "--input", str(tmp_path / "absent.tsv"),
                    "--output", str(tmp_path / "out.tsv")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_bad_config_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("POLYIPA_BOGUS", "1")
    assert run_cli(["clean", "--input", str(tmp_path / "x.tsv"),
                    "--output", str(tmp_path / "y.tsv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_internal_error_exits_two(monkeypatch, tmp_path, capsys):
    def boom(args, cfg, res):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli, "cmd_clean", boom)
    assert run_cli(["clean", "--input", str(tmp_path / "x.tsv"),
                    "--output", str(tmp_path / "y.tsv")]) == 2
    assert "RuntimeError" in capsys.readouterr().err


def test_help_lists_every_flag():
    parser = cli.build_parser()
    top_help = parser.format_help()
    for action in parser._actions:
        for opt in action.option_strings:
            assert opt in top_help
    subparsers = next(a for a in parser._actions
                      if isinstance(a, type(parser._subparsers._group_actions[0])))
    for name, sub in subparsers.choices.items():
        assert name in top_help
        sub_help = sub.format_help()
        for action in sub._actions:
            for opt in action.option_strings:
                assert opt in sub_help, f"{name} help is missing {opt}"


# settings: one resolver for flags, POLYIPA_* variables and the config file

@pytest.mark.parametrize("argv, env, message", [
    (["--order", "0"], "MODEL_ORDER", "model_order must be >= 1"),
    (["--em-iterations", "0"], "EM_ITERATIONS", "em_iterations must be >= 1"),
    (["--order", "six"], "MODEL_ORDER", "model_order must be an integer, got 'six'"),
])
def test_train_flags_and_env_share_checks(pipeline, tmp_path, monkeypatch, capsys,
                                          argv, env, message):
    command = ["train", "--input", str(pipeline["splits"] / "train.tsv"),
               "--output", str(tmp_path / "m")]
    assert run_cli(command + argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    monkeypatch.setenv(ENV_PREFIX + env, argv[1])
    assert run_cli(command) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "m").exists()


def test_n_best_precedence_flag_env_file(tmp_path, monkeypatch):
    # three equally likely spellings of ʃ give "ʃa" three candidates
    lex = tmp_path / "lex.tsv"
    lex.write_text("".join(f"eo\t{ipa.replace('ʃ', c)}\t{ipa}\n"
                           for ipa in ("ʃa", "aʃ", "ʃaʃ", "paʃ", "ʃap") for c in "qxc"),
                   encoding="utf-8")
    model = tmp_path / "m"
    assert run_cli(["train", "--input", str(lex), "--order", "2", "--output", str(model)]) == 0
    queries = tmp_path / "queries.tsv"
    queries.write_text("<eo>\tʃa\n", encoding="utf-8")
    conf = tmp_path / "pipeline.conf"
    conf.write_text("n_best = 3\n", encoding="utf-8")
    out = tmp_path / "c.tsv"

    def written(*flags):
        assert run_cli(["--config", str(conf), "predict", "--model", str(model),
                        "--input", str(queries), *flags, "--output", str(out)]) == 0
        return len(out.read_text(encoding="utf-8").splitlines())

    assert written() == 3
    monkeypatch.setenv("POLYIPA_N_BEST", "2")
    assert written() == 2
    assert written("--n-best", "1") == 1


def test_mine_exclude_existing_with_key_unset(tmp_path):
    lex = tmp_path / "lex.tsv"
    lex.write_text("de\tkat\tkat\nde\tkat\tkad\n", encoding="utf-8")
    conf = tmp_path / "pipeline.conf"
    conf.write_text("mining_k = 1\nmining_threshold = 5.0\n", encoding="utf-8")
    out = tmp_path / "mined.tsv"

    def mined(*flags):
        assert run_cli(["--config", str(conf), "mine", "--input", str(lex), *flags,
                        "--output", str(out)]) == 0
        return [l for l in out.read_text(encoding="utf-8").splitlines()
                if not l.startswith("#")]

    assert len(mined()) == 1
    assert mined("--exclude-existing") == []


def test_readme_lists_every_config_key():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = [[cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
            for line in readme.read_text(encoding="utf-8").splitlines()
            if line.startswith("| `")]
    assert {row[0] for row in rows} == KEYS
    assert all(env == ENV_PREFIX + key.upper() for key, env, *_ in rows)
    assert len(rows) == len(KEYS)

    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, type(parser._subparsers._group_actions[0])))
    flags = {f"{name} {opt}": action.dest for name, sub in subparsers.choices.items()
             for action in sub._actions if action.dest in KEYS
             for opt in action.option_strings}
    assert {row[2]: row[0] for row in rows if row[2]} == flags

    # the default column, read back through the loader, is the default config
    defaults = {key: default for key, _, _, default, _ in rows if default != "packaged"}
    assert load_config(None, validate=False, flags=defaults) == PipelineConfig()
