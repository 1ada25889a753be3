"""Fast self-test of the benchmark: every workload at tiny size, traced and
untraced, with every output check, plus checks that the output checks catch
broken outputs and that the benchmark refuses to run without sources.

    python3 perfbench/run.py --selftest
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import run
import tracing
from workloads import WORKLOADS, write_mining_inputs

SELFTEST = run.WORK / "selftest"


def _run_bench(cwd: Path, *extra: str) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *extra], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)
    return proc.returncode, proc.stdout.splitlines() + proc.stderr.splitlines()


def check_workloads(spec: dict) -> list[str]:
    problems = []
    for trace_flag, section in (("0", "end_to_end"), ("1", "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        for name in WORKLOADS:
            code, lines = _run_bench(run.ROOT, "--workload", name, "--seed", "5", "--seconds",
                                     "0", "--trace", trace_flag, "--tiny")
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{name} trace {trace_flag}: exit {code}: {lines[-5:]}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{name} trace {trace_flag}: metrics {sorted(got)} "
                                f"differ from BENCHMARK.json {section}")
            if set(result) != {"correct", "attempted", "failed", "metrics"} or \
                    result["attempted"] < 1 or result["failed"]:
                problems.append(f"{name} trace {trace_flag}: bad result keys or counts")
    return problems


def check_checks() -> list[str]:
    """Broken outputs must be caught."""
    problems = []
    work = SELFTEST / "broken"
    work.mkdir(parents=True)
    inputs = write_mining_inputs(work, 3, {"entries": 20})
    entries = [line.split("\t") for line in
               inputs.files["lexicon"].read_text(encoding="utf-8").splitlines()]
    dist = checks.FeatureDistance(run.ROOT / "src" / "polyipa" / "data" / "ipa_features.tsv")
    a, b = entries[0], entries[1]
    d = dist.units(inputs.phones[a[2]], inputs.phones[b[2]]) / dist.dims
    mined = work / "mined.tsv"
    cases = {
        "exact distance": (d, d + 1.0, True),
        "wrong distance": (d + 0.01, d + 1.0, False),
        "kept above threshold": (d, d - 0.5, False),
    }
    for label, (written, threshold, should_pass) in cases.items():
        mined.write_text("\t".join(a + b + [repr(written)]) + "\n", encoding="utf-8")
        c = checks.Checker(run.ROOT)
        c.mined_pairs(mined, inputs, threshold, sample=None, seed=0)
        if (not c.failures) != should_pass:
            problems.append(f"mined-pair check, {label}: failures {c.failures}")

    (work / "clean_report.json").write_text(json.dumps(
        {"input_count": inputs.entries, "retained_count": inputs.entries - 1,
         "removed_by_rule": {}}), encoding="utf-8")
    inputs.expected_removed = {}
    c = checks.Checker(run.ROOT)
    c.clean_report(work, inputs)
    if not c.failures:
        problems.append("an unconserved clean report passed")

    record_path = work / "record.json"
    record = {"code_digest": "x", "sizes": {}, "hashes": {"0": {"outputs/a": "1"}}}
    record_path.write_text(json.dumps(record), encoding="utf-8")
    if not run.compare_with_previous(record_path,
                                     dict(record, hashes={"0": {"outputs/a": "2"}})):
        problems.append("a changed output hash across runs passed")
    return problems


def check_bare_directory() -> list[str]:
    """With only BENCHMARK.json and the benchmark's files, it must fail."""
    bare = SELFTEST / "bare"
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, lines = _run_bench(bare, "--workload", "p2g", "--seed", "1", "--seconds", "1",
                             "--trace", "0")
    if code == 0 or any(line.startswith("{") for line in lines):
        return [f"bare directory run exited {code}: {lines[-3:]}"]
    return []


def main() -> int:
    shutil.rmtree(SELFTEST, ignore_errors=True)
    SELFTEST.mkdir(parents=True)
    try:
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        problems = []
        names = [m["name"] for m in spec["per_layer"]]
        if names != [name for name, *_ in tracing.PER_LAYER]:
            problems.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
        if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
            problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
        problems += check_checks()
        problems += check_bare_directory()
        problems += check_workloads(spec)
    finally:
        shutil.rmtree(SELFTEST, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0
