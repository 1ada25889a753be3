"""Span tracing of polyipa's layers from outside the package.

The tracer replaces public functions and methods at the place the pipeline
looks them up (for example ``polyipa.cli.beam_decode``, not
``polyipa.model.beam_decode``, because the CLI calls the name it imported)
and restores the originals afterwards, so nothing under ``src/`` changes.

Each call becomes a span: name, start, end and parent. A layer's self time
is the span's duration minus the time covered by its child spans. Private
helpers (``_edit_distance_ids``, ``ChunkAligner._accumulate``) and per-token
methods (``JointModel.prob``/``log_prob``) are not wrapped, because a span
per n-gram lookup would cost more than the lookup; their time counts as
self time of their public caller. Counts come from return values.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import statistics
from pathlib import Path
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.counts: dict[str, float] | None = None

    def count(self, key: str, value: float) -> None:
        if self.counts is None:
            self.counts = {}
        self.counts[key] = self.counts.get(key, 0) + value


def current_rss_mb() -> float | None:
    """Resident set size now (not the peak), or None where /proc is absent."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Tracer:
    """In-memory spans of one pipeline repetition, written out at its end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        # (row, hits) per query_row call; deduplicated only after the run, so
        # the hook adds no time to the caller's span
        self.retrievals: list[tuple[int, list]] = []
        self.rss_before_decode: float | None = None
        self.rss_after_decode: float | None = None
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name, before, after):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(tracer, span, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, name, before, after):
        tracer = self

        def iterate(gen, args, kwargs):
            while True:
                span = tracer.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    break
                finally:
                    tracer.close(span)
                yield item
            if after is not None:
                after(tracer, span, args, kwargs, None)

        def wrapper(*args, **kwargs):
            return iterate(fn(*args, **kwargs), args, kwargs)

        return wrapper

    def install(self) -> None:
        """Patch every hook that resolves; unresolvable ones are recorded in
        ``missing`` and their metrics are reported absent."""
        self.missing = []
        for target, name, before, after in HOOKS:
            module_name, _, attr_path = target.partition(":")
            owner = importlib.import_module(module_name)
            *owner_path, attr = attr_path.split(".")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except AttributeError:
                self.missing.append(target)
                continue
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            wrap = self._wrap_generator if inspect.isgeneratorfunction(fn) else self._wrap
            wrapped = wrap(fn, name, before, after)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "counts": s.counts}) + "\n")


# -- counters read from return values -----------------------------------------

def _after_clean(tracer, span, args, kwargs, result):
    _, report = result
    span.count("rows_in", report.input_count)
    span.count("rows_kept", report.retained_count)


def _after_query_row(tracer, span, args, kwargs, result):
    tracer.retrievals.append((args[1] if len(args) > 1 else kwargs["row"], result))


def _after_mine(tracer, span, args, kwargs, result):
    span.count("kept", len(result))


def _after_fit(tracer, span, args, kwargs, stats):
    span.count("rows", stats.get("pairs", 0))
    span.count("skipped", stats.get("ratio_skipped", 0) + stats.get("unalignable", 0))


def _after_train(tracer, span, args, kwargs, model):
    span.count("alignment_failures", model.training_stats.get("alignment_failures", 0))
    span.count("vocab", len(model.vocab))
    span.count("ngram_entries", sum(len(bucket) for bucket in model.counts.values()))


def _before_decode(tracer, args, kwargs):
    if tracer.rss_before_decode is None:
        tracer.rss_before_decode = current_rss_mb()


def _after_decode(tracer, span, args, kwargs, result):
    span.count("empty", 0 if result else 1)
    tracer.rss_after_decode = current_rss_mb()


def _after_augment(tracer, span, args, kwargs, result):
    counters = kwargs.get("counters") or {}
    rows = sum(counters.get(k, 0) for k in
               ("original", "cleaned-variant", "similar-variant", "repeat"))
    span.count("rows", rows)
    span.count("repeat", counters.get("repeat", 0))


def _after_stratify(tracer, span, args, kwargs, report):
    span.count("items", report.overall.n_samples)


# target "module:attribute.path", span name, before hook, after hook
HOOKS = (
    ("polyipa.lexicon:segment_ipa", "ipa.segment", None, None),
    ("polyipa.ipa:segment_ipa", "ipa.segment", None, None),
    ("polyipa.cli:parse_ipa", "ipa.parse", None, None),
    ("polyipa.splits:parse_ipa", "ipa.parse", None, None),
    ("polyipa.mining:parse_ipa", "ipa.parse", None, None),
    ("polyipa.splits:strip_diacritics_tones", "ipa.strip", None, None),
    ("polyipa.cli:clean", "lexicon.clean", None, _after_clean),
    ("polyipa.cli:read_raw_tsv", "lexicon.read", None, None),
    ("polyipa.lexicon:Lexicon.read_tsv", "lexicon.read", None, None),
    ("polyipa.cli:mine_soundalikes", "mining.mine", None, _after_mine),
    ("polyipa.mining:build_embedding_matrix", "mining.embed", None, None),
    ("polyipa.mining:VectorIndex.query_row", "mining.retrieve", None, _after_query_row),
    ("polyipa.mining:VectorIndex.query", "mining.query", None, None),
    ("polyipa.cli:stratified_split", "splits.split", None, None),
    ("polyipa.cli:upsample_generate", "splits.augment", None, _after_augment),
    ("polyipa.cli:train", "model.train", None, _after_train),
    ("polyipa.cli:train_tagged", "model.train", None, _after_train),
    ("polyipa.model:ChunkAligner.fit", "model.em", None, _after_fit),
    ("polyipa.model:ChunkAligner.viterbi", "model.viterbi", None, None),
    ("polyipa.model:JointModel.save", "model.save", None, None),
    ("polyipa.model:JointModel.load", "model.load", None, None),
    ("polyipa.cli:beam_decode", "model.decode", _before_decode, _after_decode),
    ("polyipa.cli:stratify", "metrics.stratify", None, _after_stratify),
)

STAGES = ("clean", "split", "mine", "augment", "train", "predict", "eval")


# -- per-layer metrics ----------------------------------------------------------

class Aggregate:
    """Self time, inclusive time, call count and counters per span name."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        for s, c in zip(spans, child):
            d = s.end - s.start
            self.self_s[s.name] = self.self_s.get(s.name, 0.0) + d - c
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            self.durations.setdefault(s.name, []).append(d)
            self.total_s[s.name] = self.total_s.get(s.name, 0.0) + d
            for k, v in (s.counts or {}).items():
                key = f"{s.name}.{k}"
                self.counts[key] = self.counts.get(key, 0) + v
        self.candidate_pairs = len({(min(i, j), max(i, j))
                                    for i, hits in tracer.retrievals for j, _ in hits})
        rss = (tracer.rss_before_decode, tracer.rss_after_decode)
        self.decode_rss_growth = None if None in rss else rss[1] - rss[0]

    def has(self, name: str) -> bool:
        return name in self.calls

    def self_of(self, name: str) -> float | None:
        return self.self_s.get(name)

    def count(self, key: str) -> float | None:
        span = key.rsplit(".", 1)[0]
        return self.counts.get(key, 0) if self.has(span) else None


def _sum(*parts):
    known = [p for p in parts if p is not None]
    return sum(known) if known else None


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def _decode_ms(agg: Aggregate, q: float) -> float | None:
    """Per-call decode time at quantile q; the median for 0.5, otherwise
    the nearest rank, so p90 of 100 calls has 10 calls above it."""
    d = agg.durations.get("model.decode")
    if not d:
        return None
    if q == 0.5:
        return 1000.0 * statistics.median(d)
    return 1000.0 * sorted(d)[max(0, math.ceil(q * len(d)) - 1)]


# name, unit, better, stage whose absence makes the value 0, formula
PER_LAYER = (
    ("mining.embed_s", "s", "lower", "mine", lambda a: a.self_of("mining.embed")),
    ("mining.retrieve_s", "s", "lower", "mine",
     lambda a: _sum(a.self_of("mining.retrieve"), a.self_of("mining.query"))),
    ("mining.retrieve_calls", "count", "lower", "mine",
     lambda a: a.calls.get("mining.retrieve") if a.has("mining.retrieve") else None),
    ("mining.rescore_s", "s", "lower", "mine", lambda a: a.self_of("mining.mine")),
    ("mining.candidate_pairs", "count", "lower", "mine",
     lambda a: a.candidate_pairs if a.has("mining.retrieve") else None),
    ("mining.kept_pairs", "count", "higher", "mine", lambda a: a.count("mining.mine.kept")),
    ("mining.keep_ratio", "ratio", "higher", "mine",
     lambda a: _ratio(a.count("mining.mine.kept"),
                      a.candidate_pairs if a.has("mining.retrieve") else None)),
    ("model.em_s", "s", "lower", "train", lambda a: a.self_of("model.em")),
    ("model.em_rows", "count", "lower", "train", lambda a: a.count("model.em.rows")),
    ("model.em_skipped", "count", "lower", "train", lambda a: a.count("model.em.skipped")),
    ("model.viterbi_s", "s", "lower", "train", lambda a: a.self_of("model.viterbi")),
    ("model.viterbi_calls", "count", "lower", "train", lambda a: a.calls.get("model.viterbi")),
    ("model.alignment_failures", "count", "lower", "train",
     lambda a: a.count("model.train.alignment_failures")),
    ("model.count_s", "s", "lower", "train", lambda a: a.self_of("model.train")),
    ("model.save_s", "s", "lower", "train", lambda a: a.self_of("model.save")),
    ("model.load_s", "s", "lower", "predict", lambda a: a.self_of("model.load")),
    ("model.vocab", "count", "lower", "train", lambda a: a.count("model.train.vocab")),
    ("model.ngram_entries", "count", "lower", "train",
     lambda a: a.count("model.train.ngram_entries")),
    ("model.decode_s", "s", "lower", "predict", lambda a: a.self_of("model.decode")),
    ("model.decode_ms_p50", "ms", "lower", "predict", lambda a: _decode_ms(a, 0.5)),
    ("model.decode_ms_p90", "ms", "lower", "predict", lambda a: _decode_ms(a, 0.9)),
    ("model.decode_calls", "count", "lower", "predict", lambda a: a.calls.get("model.decode")),
    ("model.decode_empty", "count", "lower", "predict", lambda a: a.count("model.decode.empty")),
    ("model.decode_rss_growth_mb", "MB", "lower", "predict",
     lambda a: a.decode_rss_growth if a.has("model.decode") else None),
    ("splits.split_s", "s", "lower", "split", lambda a: a.self_of("splits.split")),
    ("splits.augment_s", "s", "lower", "augment", lambda a: a.self_of("splits.augment")),
    ("splits.augment_rows_per_s", "rows/s", "higher", "augment",
     lambda a: _ratio(a.count("splits.augment.rows"), a.total_s.get("splits.augment"))),
    ("splits.aug_rows", "count", "lower", "augment", lambda a: a.count("splits.augment.rows")),
    ("splits.aug_repeat_share", "ratio", "lower", "augment",
     lambda a: _ratio(a.count("splits.augment.repeat"), a.count("splits.augment.rows"))),
    ("lexicon.clean_s", "s", "lower", "clean", lambda a: a.self_of("lexicon.clean")),
    ("lexicon.clean_rows_per_s", "rows/s", "higher", "clean",
     lambda a: _ratio(a.count("lexicon.clean.rows_in"), a.total_s.get("lexicon.clean"))),
    ("lexicon.rows_in", "count", "higher", "clean", lambda a: a.count("lexicon.clean.rows_in")),
    ("lexicon.rows_kept", "count", "higher", "clean", lambda a: a.count("lexicon.clean.rows_kept")),
    ("lexicon.read_s", "s", "lower", None, lambda a: a.self_of("lexicon.read")),
    ("ipa.segment_s", "s", "lower", None, lambda a: a.self_of("ipa.segment")),
    ("ipa.segment_calls", "count", "lower", None, lambda a: a.calls.get("ipa.segment")),
    ("ipa.parse_s", "s", "lower", "predict", lambda a: a.self_of("ipa.parse")),
    ("ipa.parse_calls", "count", "lower", "predict", lambda a: a.calls.get("ipa.parse")),
    ("ipa.strip_s", "s", "lower", "augment", lambda a: a.self_of("ipa.strip")),
    ("metrics.stratify_s", "s", "lower", "eval", lambda a: a.self_of("metrics.stratify")),
    ("metrics.items", "count", "higher", "eval", lambda a: a.count("metrics.stratify.items")),
    ("metrics.items_per_s", "items/s", "higher", "eval",
     lambda a: _ratio(a.count("metrics.stratify.items"), a.total_s.get("metrics.stratify"))),
) + tuple(
    (f"cli.{stage}.self_s", "s", "lower", stage,
     (lambda name: lambda a: a.self_of(name))(f"cli.{stage}"))
    for stage in STAGES
) + (
    # filled in by run.py: median over corpora of traced minus untraced
    # pipeline time
    ("trace.overhead_s", "s", "lower", None, None),
)


def layer_metrics(agg: Aggregate, stages: set[str]) -> dict[str, float]:
    """Per-layer values of one traced repetition. A metric whose stage does
    not run in the workload reads 0; one whose stage runs but whose span
    never appeared (function renamed or no longer called) is left out."""
    out: dict[str, float] = {}
    for name, _, _, stage, formula in PER_LAYER:
        if formula is None:
            continue
        if stage is not None and stage not in stages:
            out[name] = 0.0
            continue
        value = formula(agg)
        if value is not None:
            out[name] = float(value)
    return out
