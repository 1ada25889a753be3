"""End-to-end command-line pipeline and exit-code contract."""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
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
    assert payload["no_candidates"] == 0
    assert payload["languages"][0]["lang"] == "eo"
    assert set(payload["overall"]["top_wer"]) == {"1", "3", "5"}
    assert set(payload["overall"]["top_cer"]) == {"1", "3", "5"}
    assert pipeline["eval_csv"].read_text(encoding="utf-8").startswith("lang,")


def test_report_renders_table(pipeline, capsys):
    assert run_cli(["report", "--input", str(pipeline["eval_report"])]) == 0
    out = capsys.readouterr().out
    assert "overall" in out
    assert "top1_wer" in out and "top3_cer" in out


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


def test_predict_names_the_line_of_a_bad_transcription(pipeline, tmp_path, capsys):
    queries = tmp_path / "q.tsv"
    queries.write_text("<eo>\tpato\n<eo>\tp@to\n", encoding="utf-8")
    assert run_cli(["predict", "--model", str(pipeline["model"]),
                    "--input", str(queries),
                    "--output", str(tmp_path / "c.tsv")]) == 1
    assert "q.tsv: line 2: unknown symbol '@'" in capsys.readouterr().err


def test_train_and_predict_do_not_depend_on_the_hash_seed(pipeline, tmp_path):
    """Two processes with different string hashing write the same bytes."""
    def rows(name):
        text = (pipeline["splits"] / name).read_text(encoding="utf-8")
        return [line.split("\t") for line in text.splitlines()]

    test_rows = rows("test.tsv")
    stream = tmp_path / "stream.tsv"  # two tags, so the table holds tokens of both
    stream.write_text("".join(f"<{('de', 'eo')[i % 2]}>\t{grapheme}\t{ipa}\toriginal\n"
                              for i, (_, grapheme, ipa) in enumerate(rows("train.tsv"))),
                      encoding="utf-8")
    queries = tmp_path / "queries.tsv"
    queries.write_text("".join(f"<{tag}>\t{ipa}\n" for _, _, ipa in test_rows
                               for tag in ("de", "eo")), encoding="utf-8")
    script = ("import sys\n"
              "from polyipa.cli import main\n"
              "model, stream, queries, cands = sys.argv[1:]\n"
              "sys.exit(main(['train', '--input', stream, '--order', '3', '--output', model])\n"
              "         or main(['predict', '--model', model, '--input', queries,\n"
              "                  '--n-best', '3', '--output', cands]))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        model, cands = tmp_path / f"model{seed}.json", tmp_path / f"cands{seed}.tsv"
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script, str(model), str(stream),
                               str(queries), str(cands)], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outputs.append((model.read_bytes(), cands.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][1].count(b"\n") >= len(test_rows)


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


def test_predict_keeps_the_tags_chunks_beside_an_untrained_segment(tmp_path, monkeypatch,
                                                                    capsys):
    # <de> never trained ʒ, so only that position takes <ru>'s chunk; a and
    # k keep <de>'s letters, not the Cyrillic к of <ru>
    lex = tmp_path / "lex.tsv"
    lex.write_text("de\tkat\tkat\nde\ttak\ttak\nru\tжук\tʒuk\n", encoding="utf-8")
    model = tmp_path / "m.json"
    assert run_cli(["train", "--input", str(lex), "--output", str(model)]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO("<de>\tʒak\n"))
    cands = tmp_path / "c.tsv"
    assert run_cli(["predict", "--model", str(model), "--input", "-", "--n-best", "5",
                    "--output", str(cands)]) == 0
    assert "0 without candidates" in capsys.readouterr().out
    rows = [line.split("\t") for line in cands.read_text(encoding="utf-8").splitlines()]
    assert [row[:4] for row in rows] == [["<de>", "ʒak", "1", "жak"]]


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
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["overall"]["n_samples"] == 1
    assert payload["no_candidates"] == 29  # the other test entries of the fixture's 30
    assert run_cli(["report", "--input", str(report)]) == 0
    assert "29 test entries without candidates" in capsys.readouterr().out


# auxiliary subcommands

def test_convert_and_strip_on_stdio(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("tS\n\"pleIs\n"))
    assert run_cli(["convert", "--from", "xsampa"]) == 0
    assert capsys.readouterr().out == "t͡ʃ\nˈpleɪs\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO("ˈkaːtʰ\n"))
    assert run_cli(["strip"]) == 0
    assert capsys.readouterr().out == "kat\n"


def test_dash_output_writes_only_the_tsv_to_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    raw = tmp_path / "raw.tsv"
    raw.write_text("de\tkat\tkat\nde\tkat\tkad\nde\tk\tat\tkat\n", encoding="utf-8")
    assert run_cli(["clean", "--input", str(raw), "--output", "-"]) == 0
    out, err = capsys.readouterr()
    assert out == "de\tkat\tkat\nde\tkat\tkad\n"
    assert err == "clean: 3 rows in, 2 kept, 1 removed\n"
    cleaned = tmp_path / "cleaned.tsv"
    cleaned.write_text(out, encoding="utf-8")
    assert run_cli(["pairs", "--input", str(cleaned), "--output", "-"]) == 0
    out, err = capsys.readouterr()
    assert out == "# lang\tgrapheme\tipa_a\tipa_b\nde\tkat\tkat\tkad\nde\tkat\tkad\tkat\n"
    assert err == "pairs: 2 ordered pronunciation pairs\n"
    assert run_cli(["mine", "--input", str(cleaned), "--output", "-", "--embeddings", "-"]) == 1
    assert "--output and --embeddings cannot both be -" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cleaned.tsv", "raw.tsv"]


def test_clean_report_dash_writes_the_json_to_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    raw = tmp_path / "raw.tsv"
    raw.write_text("de\tkat\tkat\nde\tk\tat\tkat\n", encoding="utf-8")
    assert run_cli(["clean", "--input", str(raw), "--output", "clean.tsv",
                    "--report", "-"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["removed_by_rule"] == {"column-count": 1}
    assert err == "clean: 2 rows in, 1 kept, 1 removed\n"
    assert run_cli(["clean", "--input", str(raw), "--output", "-", "--report", "-"]) == 1
    assert "--output and --report cannot both be -" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.tsv", "raw.tsv"]


def test_eval_dash_writes_the_report_or_csv_to_stdout(pipeline, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    inputs = ["eval", "--test", str(pipeline["splits"] / "test.tsv"),
              "--candidates", str(pipeline["cands"])]
    assert run_cli(inputs + ["--report", "-"]) == 0
    out, err = capsys.readouterr()
    assert out == pipeline["eval_report"].read_text(encoding="utf-8")
    assert err.startswith("eval: 30 items")
    assert run_cli(inputs + ["--report", "r.json", "--csv", "-"]) == 0
    out, err = capsys.readouterr()
    assert out == pipeline["eval_csv"].read_text(encoding="utf-8")
    assert err.startswith("eval: 30 items")
    assert run_cli(inputs + ["--report", "-", "--csv", "-"]) == 1
    assert "--report and --csv cannot both be -" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]


@pytest.mark.parametrize("command", ["clean", "mine", "eval"])
def test_two_outputs_naming_one_file_are_a_usage_error(command, pipeline, tmp_path,
                                                       monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    argv, first, second = {
        "clean": (["clean", "--input", str(pipeline["raw"])], "--output", "--report"),
        "mine": (["mine", "--input", str(pipeline["cleaned"])], "--output", "--embeddings"),
        "eval": (["eval", "--test", str(pipeline["splits"] / "test.tsv"),
                  "--candidates", str(pipeline["cands"])], "--report", "--csv"),
    }[command]
    assert run_cli(argv + [first, "out", second, "sub/../out"]) == 1
    assert f"{first} and {second} name the same file sub/../out" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]


def test_report_csv_dash_writes_the_csv_to_stdout(pipeline, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["report", "--input", str(pipeline["eval_report"]), "--csv", "-"]) == 0
    out, err = capsys.readouterr()
    assert out == pipeline["eval_csv"].read_text(encoding="utf-8")
    assert "top1_wer" in err and "overall" in err
    assert list(tmp_path.iterdir()) == []


def test_train_rejects_dash_output(pipeline, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["train", "--input", str(pipeline["splits"] / "train.tsv"),
                    "--order", "2", "--output", "-"]) == 1
    assert "train --output must be a file" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def test_augment_takes_variants_only_from_pairs_inside_train(tmp_path):
    # mined over the whole lexicon, as the README path does, so some pairs
    # pair a training entry with the held-out "mat"
    lex = tmp_path / "lex.tsv"
    lex.write_text("de\tkat\tkat\nde\tgat\tkad\nde\tmat\tmat\n", encoding="utf-8")
    train = tmp_path / "train.tsv"
    train.write_text("de\tkat\tkat\nde\tgat\tkad\n", encoding="utf-8")
    mined = tmp_path / "mined.tsv"
    assert run_cli(["mine", "--input", str(lex), "--k", "2", "--threshold", "5",
                    "--output", str(mined)]) == 0
    assert "mat" in mined.read_text(encoding="utf-8")
    aug = tmp_path / "aug.tsv"
    assert run_cli(["augment", "--train", str(train), "--pairs", str(mined),
                    "--out", str(aug)]) == 0
    variants = sorted((graph, ipa) for _, graph, ipa, provenance in
                      (line.split("\t") for line in aug.read_text(encoding="utf-8").splitlines())
                      if provenance == "similar-variant")
    assert variants == [("gat", "kat"), ("kat", "kad")]


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


def test_clean_removes_rows_without_three_fields(tmp_path):
    raw = tmp_path / "raw.tsv"
    raw.write_text("de\tkatze\tkatsə\nde\tk\tat\tkat\nde\tkat\n", encoding="utf-8")
    out = tmp_path / "clean.tsv"
    report_path = tmp_path / "report.json"
    assert run_cli(["clean", "--input", str(raw), "--output", str(out),
                    "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["removed_by_rule"] == {"column-count": 2}
    assert out.read_text(encoding="utf-8") == "de\tkatze\tkatsə\n"


def test_clean_keeps_the_row_after_a_byte_order_mark(tmp_path):
    raw = tmp_path / "raw.tsv"
    raw.write_text("\ufeffde\tkat\tkat\nde\tgat\tgat\n", encoding="utf-8")
    out = tmp_path / "clean.tsv"
    report_path = tmp_path / "report.json"
    assert run_cli(["clean", "--input", str(raw), "--output", str(out),
                    "--report", str(report_path)]) == 0
    assert json.loads(report_path.read_text(encoding="utf-8"))["removed_by_rule"] == {}
    assert out.read_text(encoding="utf-8") == "de\tkat\tkat\nde\tgat\tgat\n"


def test_mine_drops_the_byte_order_mark(tmp_path):
    lex = tmp_path / "lex.tsv"
    lex.write_text("\ufeffde\tkat\tkat\nde\tgat\tkad\n", encoding="utf-8")
    mined = tmp_path / "mined.tsv"
    assert run_cli(["mine", "--input", str(lex), "--k", "1", "--threshold", "5",
                    "--output", str(mined)]) == 0
    rows = mined.read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split("\t")[:6] for row in rows] == [["de", "kat", "kat", "de", "gat", "kad"]]


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


@pytest.mark.parametrize("mutate", [
    lambda doc: {"overall": {"lang": "overall"}, "languages": []},
    lambda doc: {**doc, "overall": {**doc["overall"], "top_wer": []}},
    lambda doc: {**doc, "languages": [{**doc["languages"][0], "top_wer": {}}]},
    lambda doc: {**doc, "languages": [{**doc["languages"][0], "lang": None}]},
    lambda doc: {**doc, "overall": {**doc["overall"], "top_cer": {"1": 0.5}}},
    lambda doc: {key: value for key, value in doc.items() if key != "no_candidates"},
    lambda doc: {**doc, "no_candidates": -1},
    lambda doc: {**doc, "no_candidates": 1.5},
], ids=["missing-field", "top-wer-list", "top-wer-keys-differ", "lang-null",
        "top-cer-keys-differ", "no-candidates-missing", "no-candidates-negative",
        "no-candidates-fractional"])
def test_report_rejects_a_malformed_report(pipeline, tmp_path, capsys, mutate):
    doc = json.loads(pipeline["eval_report"].read_text(encoding="utf-8"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutate(doc)), encoding="utf-8")
    assert run_cli(["report", "--input", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {bad}: not a readable eval report (")


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


@pytest.mark.parametrize("ratio", ["inf", "nan", "-1"])
def test_augment_rejects_a_bad_ratio_before_writing(tmp_path, capsys, ratio):
    lex = tmp_path / "lex.tsv"
    lex.write_text("de\tkat\tkat\n", encoding="utf-8")
    out = tmp_path / "aug.tsv"
    assert run_cli(["augment", "--train", str(lex), "--ratio", ratio,
                    "--out", str(out)]) == 1
    assert "--ratio must be a finite number >= 0" in capsys.readouterr().err
    assert not out.exists()


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


def test_readme_quick_start_runs(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(readme), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines
    for line in lines:
        grapheme, score = line.split(" ")
        assert grapheme and float(score) <= 0.0
