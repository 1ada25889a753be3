#!/usr/bin/env python3
"""Benchmark of the polyipa pipeline, driven through the real CLI code path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. A run is a series of repetitions until
``--seconds`` of pipeline time is measured. Repetition k gets its own input
files, generated from the pair (seed, k), so a run's median averages over
several corpora as well as over machine noise; the library receives only
the files. Each repetition is one fresh process that imports polyipa, loads
its tables, writes its inputs and then calls ``polyipa.cli.main(argv)`` for
every stage in order, as a user's process would.

Outside the timed region every output is checked and hashed. The hashes go
to a run record (``perfbench/_work/records``); a later run of the same code
and seed must reproduce them exactly.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every
corpus twice, traced and untraced, and reports the per-layer metrics of
``tracing.py`` and the tracing overhead. The last line of standard output
is one JSON object; the lines before it list every metric by name and unit,
including the pipeline numbers that exist on some workloads only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
RECORDS = WORK / "records"
REP_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (for example, no sources to import)."""


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pin_environment() -> None:
    """Cap BLAS thread pools at nproc and drop POLYIPA_* settings before
    numpy loads, so neither thread defaults nor a user's config reach the
    measured code. Child processes inherit the same environment."""
    n = nproc()
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        os.environ[var] = str(min(int(cur), n) if cur.isdigit() and int(cur) > 0 else n)
    for var in [v for v in os.environ if v.startswith("POLYIPA_")]:
        del os.environ[var]


def import_cli():
    src = ROOT / "src"
    if not (src / "polyipa" / "__init__.py").is_file():
        raise BenchError(f"no polyipa sources under {src}")
    sys.path.insert(0, str(src))
    import polyipa.cli
    if Path(polyipa.cli.__file__).resolve().parent != (src / "polyipa").resolve():
        raise BenchError(f"imported polyipa from {polyipa.cli.__file__}, not {src}")
    return polyipa.cli


def corpus_seed(seed: int, index: int) -> str:
    """Seed of the k-th corpus of a run (random.Random hashes strings stably)."""
    return f"{seed}/{index}"


def _mkdir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- one repetition, in its own process ---------------------------------------

def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, err.getvalue()


def run_rep(args) -> int:
    """Set up (import, tables, inputs), then run every stage in order.
    Writes rep.json, and spans.jsonl when traced, into --rep."""
    rep_dir = Path(args.rep)
    workload = WORKLOADS[args.workload]
    sizes = workload.tiny if args.tiny else workload.sizes
    cli = import_cli()
    cli.load_config(None, validate=False).resources()
    inputs = workload.write_inputs(_mkdir(rep_dir / "inputs"),
                                   corpus_seed(args.seed, args.corpus), sizes)
    setup_done = monotonic()
    stages = workload.stages(inputs, _mkdir(rep_dir / "outputs"), sizes)
    tracer = None
    if args.traced:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    times: dict[str, float] = {}
    failed: list[str] = []
    for name, argv in stages:
        span = tracer.open(f"cli.{name}") if tracer else None
        t0 = perf_counter()
        code, err = call_cli(cli, argv)
        times[name] = perf_counter() - t0
        if span:
            tracer.close(span)
        if code != 0:
            failed.append(f"stage {name} exited {code}: {err.strip()[-500:]}")
            break
    result = {"setup_done": setup_done, "stages": times, "failed": failed,
              "pipeline_s": sum(times.values()), "traced": tracer is not None,
              "corpus": args.corpus,
              "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracing.Aggregate(tracer),
                                                 {name for name, _ in stages})
        result["missing_hooks"] = tracer.missing
        tracer.write_spans(rep_dir / "spans.jsonl")
    (rep_dir / "rep.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


def spawn_rep(args, rep_dir: Path, corpus: int, traced: bool) -> dict:
    """Run one repetition in a child process and wait for it. Its set-up
    time runs from the spawn to the end of the child's set-up."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--rep", str(rep_dir), "--corpus", str(corpus)]
    argv += ["--traced"] * traced + ["--tiny"] * args.tiny
    rep_dir.mkdir(parents=True)
    t_spawn = monotonic()
    try:
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=REP_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return {"failed": [f"repetition exceeded {REP_TIMEOUT_S} s"], "stages": {}}
    if proc.returncode != 0:
        return {"failed": [f"repetition exited {proc.returncode}: {proc.stderr.strip()[-800:]}"],
                "stages": {}}
    rep = json.loads((rep_dir / "rep.json").read_text(encoding="utf-8"))
    rep["setup_s"] = rep.pop("setup_done") - t_spawn
    return rep


# -- the run ----------------------------------------------------------------------

def hash_tree(base: Path) -> dict[str, str]:
    return {path.relative_to(base).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(p for p in base.rglob("*") if p.is_file())}


def code_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy
    return {"nproc": nproc(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def count_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip() and not line.startswith("#"))


def stage_facts(stages: list[str], out: Path, inputs) -> dict:
    """Input sizes of the stages, read from the files they consumed."""
    facts = {}
    if "mine" in stages:
        facts["mine_entries"] = (count_lines(out / "clean.tsv") if "clean" in stages
                                 else inputs.entries)
    if "train" in stages:
        facts["train_rows"] = count_lines(out / ("aug.tsv" if "augment" in stages
                                                 else "splits/train.tsv"))
        facts["model_mb"] = (out / "model.json.gz").stat().st_size / 2**20
    return facts


def stage_metrics(stages: list[str], reps: list[dict]) -> dict[str, tuple[float, str]]:
    """Pipeline numbers that exist on some workloads only. They go to the
    record and the report lines; the gated result carries the end-to-end
    metrics that every workload has. Rates are medians over repetitions;
    output facts are those of corpus 0, which every run of a seed has, so
    they repeat exactly across runs."""
    med = lambda f: statistics.median(f(r) for r in reps)
    first = reps[0]["facts"]
    found: dict[str, tuple[float, str]] = {}
    if "mine" in stages:
        found["mine_entries_per_s"] = (
            med(lambda r: r["facts"]["mine_entries"] / r["stages"]["mine"]), "entries/s")
    if "train" in stages:
        found["train_rows_per_s"] = (
            med(lambda r: r["facts"]["train_rows"] / r["stages"]["train"]), "rows/s")
        found["model_mb"] = (first["model_mb"], "MB")
    if "predict" in stages:
        found["predict_queries_per_s"] = (
            med(lambda r: r["facts"]["queries"] / r["stages"]["predict"]), "queries/s")
        found["heldout_cer"] = (first["heldout_cer"], "ratio")
        found["exact_match"] = (first["exact_match"], "ratio")
    # an operation is a CLI stage or a predict query; a query fails when it
    # decodes to no candidate
    found["failed_share"] = (first.get("empty_queries", 0) /
                             (len(stages) + first.get("queries", 0)), "ratio")
    return found


def compare_with_previous(record_path: Path, record: dict) -> list[str]:
    """Two runs of the same code, sizes and seed must write identical files
    for every corpus both of them ran."""
    try:
        prev = json.loads(record_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return []
    if (prev.get("code_digest"), prev.get("sizes")) != (record["code_digest"], record["sizes"]):
        return []
    old, new = prev.get("hashes") or {}, record["hashes"]
    diff = sorted(f"corpus {k}: {f}" for k in set(old) & set(new)
                  for f in set(old[k]) | set(new[k]) if old[k].get(f) != new[k].get(f))
    return [f"outputs differ from an earlier run of this seed: {diff[:5]}"] if diff else []


def run(args) -> int:
    import checks
    import tracing

    import_cli()  # fail early where there are no sources
    workload = WORKLOADS[args.workload]
    sizes = workload.tiny if args.tiny else workload.sizes
    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    record_path = _mkdir(RECORDS) / \
        f"{workload.name}-seed{args.seed}{'-tiny' if args.tiny else ''}.json"
    reps: list[dict] = []
    failures: list[str] = []
    hashes: dict[str, dict[str, str]] = {}
    try:
        measured = 0.0
        while True:
            i = len(reps)
            # traced runs measure each corpus traced, then untraced
            corpus, traced = (i // 2, i % 2 == 0) if args.trace else (i, False)
            rep_dir = work / f"rep{i}"
            rep = spawn_rep(args, rep_dir, corpus, traced)
            reps.append(rep)
            # -- outside the timed region --
            if rep["failed"]:
                failures += rep["failed"]
                break
            measured += rep["pipeline_s"]
            inputs = workload.write_inputs(_mkdir(rep_dir / "expected"),
                                           corpus_seed(args.seed, corpus), sizes)
            got = hash_tree(rep_dir / "inputs")
            if got != hash_tree(rep_dir / "expected"):
                failures.append(f"corpus {corpus}: inputs differ between processes")
            got |= {f"outputs/{k}": v for k, v in hash_tree(rep_dir / "outputs").items()}
            if str(corpus) in hashes:
                if got != hashes[str(corpus)]:
                    failures.append(f"corpus {corpus}: traced and untraced outputs differ")
            else:
                hashes[str(corpus)] = got
                stages = [name for name, _ in workload.stages(inputs, rep_dir, sizes)]
                found, rep["facts"] = checks.check_outputs(
                    workload.name, set(stages), rep_dir / "outputs", inputs,
                    corpus_seed(args.seed, corpus), ROOT, args.tiny)
                failures += [f"corpus {corpus}: {f}" for f in found]
                rep["facts"] |= stage_facts(stages, rep_dir / "outputs", inputs)
            if traced:
                shutil.copyfile(rep_dir / "spans.jsonl", record_path.with_suffix(".spans.jsonl"))
            shutil.rmtree(rep_dir)
            if failures:
                break
            typical = statistics.median(r["pipeline_s"] for r in reps)
            if measured + typical > args.seconds and (not args.trace or i % 2 == 1):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "sizes": sizes, "tiny": args.tiny, "trace": args.trace, "seconds": args.seconds,
        "machine": machine(), "code_digest": code_digest(), "reps": reps,
        "hashes": hashes,
    }
    if not failures:
        failures += compare_with_previous(record_path, record)
    metrics: dict[str, tuple[float, str]] = {}
    if not failures:
        untraced = [r for r in reps if not r["traced"]]
        if args.trace:
            traced = [r for r in reps if r["traced"]]
            for name, unit, *_ in tracing.PER_LAYER:
                values = [r["layers"][name] for r in traced if name in r["layers"]]
                if values and len(values) == len(traced):
                    metrics[name] = (statistics.median(values), unit)
            metrics["trace.overhead_s"] = (statistics.median(
                t["pipeline_s"] - u["pipeline_s"] for t, u in zip(traced, untraced)), "s")
            record["missing_hooks"] = traced[0]["missing_hooks"]
        else:
            metrics["setup_s"] = (statistics.median(r["setup_s"] for r in reps), "s")
            metrics["pipeline_s"] = (statistics.median(r["pipeline_s"] for r in reps), "s")
            metrics["peak_rss_mb"] = (statistics.median(r["maxrss_mb"] for r in reps), "MB")
            record["stage_metrics"] = {
                k: {"value": v, "unit": u}
                for k, (v, u) in stage_metrics(list(reps[0]["stages"]), untraced).items()}
    record["failures"] = failures
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    tmp = record_path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    tmp.replace(record_path)

    print(f"# workload {workload.name} seed {args.seed}: {len(reps)} repetitions, "
          f"sizes {sizes}")
    for failure in failures:
        print(f"# FAILED {failure}")
    for section in ("metrics", "stage_metrics"):
        for name, m in sorted(record.get(section, {}).items()):
            print(f"# {name} = {m['value']:.6g} {m['unit']}")
    # a repetition whose process died counts as one failed operation
    result = {"correct": not failures, "attempted": sum(len(r["stages"]) or 1 for r in reps),
              "failed": sum(1 for r in reps if r["failed"]), "metrics": record["metrics"]}
    print(json.dumps(result))
    return 0 if not failures else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload tiny, traced and untraced, with all checks")
    # internal: one repetition in a child process
    parser.add_argument("--rep", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--corpus", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_environment()
    try:
        if args.selftest:
            import selftest
            return selftest.main()
        if args.workload is None:
            parser.error("--workload is required")
        return run_rep(args) if args.rep else run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
