"""Joint-sequence n-gram phoneme-to-grapheme model with n-best beam decoding.

Training entries are chunk-aligned by EM (chunk shapes up to 2 phonemes by
2 graphemes, never 0:0), then an n-gram model with absolute-discount
interpolation is counted over token streams of the form

    [BOS ... BOS, <lang tag>, chunk, chunk, ..., EOS]

Decoding walks the input segments left to right, proposing trained chunks,
and keeps the usual breadth-limited beam with early stopping.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import (
    AlignmentFailureError,
    CandidateParseError,
    EmptyInputError,
    EmptyLexiconError,
    NonMonotoneScoresError,
    UnknownTagWarning,
)
from .ipa import IpaString, _read_lines, _tsv_rows
from .lexicon import Lexicon, PronEntry, ScriptTable, lang_script_tag

__all__ = [
    "Chunk",
    "AlignedPair",
    "Candidate",
    "ChunkAligner",
    "JointModel",
    "align",
    "train",
    "train_tagged",
    "beam_decode",
    "effective_beam_width",
    "load_external_candidates",
    "write_candidates_tsv",
]

# (phoneme segment texts, grapheme characters); at most 2x2, never 0:0.
Chunk = tuple[tuple[str, ...], str]

Token = tuple
BOS: Token = ("<s>",)
EOS: Token = ("</s>",)

_MAX_RATIO = 4
_SHAPES = tuple((p, g) for p in range(3) for g in range(3) if (p, g) != (0, 0))


def _tag_token(tag: str) -> Token:
    return ("tag", tag)


def _chunk_token(chunk: Chunk) -> Token:
    return ("chunk", chunk[0], chunk[1])


@dataclass(frozen=True)
class AlignedPair:
    """A pronunciation/spelling pair expressed as a chunk sequence."""

    chunks: tuple[Chunk, ...]

    @property
    def phonemes(self) -> tuple[str, ...]:
        return tuple(s for c in self.chunks for s in c[0])

    @property
    def grapheme(self) -> str:
        return "".join(c[1] for c in self.chunks)


@dataclass(frozen=True)
class Candidate:
    grapheme: str
    log_score: float
    beam_rank: int


def _ratio_ok(m: int, n: int) -> bool:
    if m == 0 or n == 0:
        return False
    return max(m, n) <= _MAX_RATIO * min(m, n)


class ChunkAligner:
    """EM-trained chunk probabilities and the Viterbi chunking they induce.

    The first E pass weights every allowed chunk uniformly, so the initial
    expected counts are pure path statistics; later passes reweight by the
    current chunk distribution.
    """

    def __init__(self, probs: dict[Chunk, float] | None = None):
        self.probs: dict[Chunk, float] = dict(probs or {})
        self._logs: dict[Chunk, float] | None = None

    def fit(self, pairs: Sequence[tuple[tuple[str, ...], str]], iterations: int = 6,
            min_prob: float = 1e-12) -> dict[str, int]:
        """Run EM over (segments, grapheme) pairs; returns skip counters."""
        usable = [(tuple(segs), graph) for segs, graph in pairs
                  if _ratio_ok(len(segs), len(graph))]
        stats = {"pairs": len(pairs), "ratio_skipped": len(pairs) - len(usable),
                 "unalignable": 0}
        probs: dict[Chunk, float] = {}
        for iteration in range(max(1, iterations)):
            counts: dict[Chunk, float] = {}
            uniform = iteration == 0
            unalignable = 0
            for segs, graph in usable:
                if not self._accumulate(segs, graph, None if uniform else probs, counts):
                    unalignable += 1
            total = sum(counts.values())
            if total <= 0.0:
                break
            probs = {c: v / total for c, v in counts.items() if v / total >= min_prob}
            stats["unalignable"] = unalignable
        self.probs = probs
        self._logs = None
        return stats

    def _accumulate(self, segs: tuple[str, ...], graph: str,
                    probs: dict[Chunk, float] | None,
                    counts: dict[Chunk, float]) -> bool:
        m, n = len(segs), len(graph)
        alpha = [[0.0] * (n + 1) for _ in range(m + 1)]
        alpha[0][0] = 1.0
        edges: list[tuple[int, int, int, int, Chunk, float]] = []
        for i in range(m + 1):
            row = alpha[i]
            for j in range(n + 1):
                a = row[j]
                if a == 0.0 and (i, j) != (0, 0):
                    continue
                for p, g in _SHAPES:
                    i2, j2 = i + p, j + g
                    if i2 > m or j2 > n:
                        continue
                    chunk = (segs[i:i2], graph[j:j2])
                    w = 1.0 if probs is None else probs.get(chunk, 0.0)
                    if w == 0.0:
                        continue
                    alpha[i2][j2] += a * w
                    edges.append((i, j, i2, j2, chunk, w))
        z = alpha[m][n]
        if z <= 0.0:
            return False
        beta = [[0.0] * (n + 1) for _ in range(m + 1)]
        beta[m][n] = 1.0
        for i, j, i2, j2, chunk, w in reversed(edges):
            beta[i][j] += w * beta[i2][j2]
        for i, j, i2, j2, chunk, w in edges:
            posterior = alpha[i][j] * w * beta[i2][j2] / z
            if posterior > 0.0:
                counts[chunk] = counts.get(chunk, 0.0) + posterior
        return True

    def _log_probs(self) -> dict[Chunk, float]:
        if self._logs is None:
            self._logs = {c: math.log(p) for c, p in self.probs.items() if p > 0.0}
        return self._logs

    def viterbi(self, segs: tuple[str, ...], graph: str) -> tuple[Chunk, ...]:
        """Maximum-likelihood chunking; ties prefer smaller chunks, then the
        lexicographically smaller chunk."""
        m, n = len(segs), len(graph)
        if not _ratio_ok(m, n):
            raise AlignmentFailureError(
                f"length ratio {m}:{n} exceeds {_MAX_RATIO}:1")
        logs = self._log_probs()
        neg_inf = -math.inf
        score = [[neg_inf] * (n + 1) for _ in range(m + 1)]
        back: list[list[tuple[int, int, Chunk] | None]] = [[None] * (n + 1) for _ in range(m + 1)]
        score[0][0] = 0.0
        for i in range(m + 1):
            for j in range(n + 1):
                base = score[i][j]
                if base == neg_inf:
                    continue
                for p, g in _SHAPES:
                    i2, j2 = i + p, j + g
                    if i2 > m or j2 > n:
                        continue
                    chunk = (segs[i:i2], graph[j:j2])
                    lw = logs.get(chunk)
                    if lw is None:
                        continue
                    cand = base + lw
                    cur = score[i2][j2]
                    if cand > cur:
                        score[i2][j2] = cand
                        back[i2][j2] = (i, j, chunk)
                    elif cand == cur and back[i2][j2] is not None:
                        old = back[i2][j2][2]
                        new_key = (p + g, p, chunk)
                        old_key = (len(old[0]) + len(old[1]), len(old[0]), old)
                        if new_key < old_key:
                            back[i2][j2] = (i, j, chunk)
        if score[m][n] == neg_inf:
            raise AlignmentFailureError("no alignment path under current chunk table")
        chunks: list[Chunk] = []
        i, j = m, n
        while (i, j) != (0, 0):
            pi, pj, chunk = back[i][j]
            chunks.append(chunk)
            i, j = pi, pj
        chunks.reverse()
        return tuple(chunks)


def align(entry: PronEntry, aligner: ChunkAligner) -> AlignedPair:
    """Maximum-likelihood chunking of one cleaned entry."""
    segs = tuple(seg.text for seg in entry.ipa.segments)
    return AlignedPair(aligner.viterbi(segs, entry.grapheme))


class JointModel:
    """Interpolated n-gram model over joint chunk tokens.

    Absolute discounting with a fixed discount recurses to a uniform
    distribution over the observed vocabulary, so every conditional
    distribution sums to one.
    """

    def __init__(
        self,
        order: int,
        discount: float,
        aligner: ChunkAligner,
        counts: dict[tuple, dict[Token, int]],
        tags: frozenset[str],
        training_stats: dict[str, int] | None = None,
    ):
        if order < 1:
            raise ValueError("order must be >= 1")
        if not 0.0 < discount < 1.0:
            raise ValueError("discount must be in (0, 1)")
        self.order = order
        self.discount = discount
        self.aligner = aligner
        self.counts = counts
        self.tags = frozenset(tags)
        self.training_stats = dict(training_stats or {})
        self.vocab: frozenset[Token] = frozenset(
            tok for bucket in counts.values() for tok in bucket
        )
        self._ctx_stats: dict[tuple, tuple[int, int]] = {
            ctx: (sum(bucket.values()), len(bucket)) for ctx, bucket in counts.items()
        }
        self._prob_cache: dict[tuple[tuple, Token], float] = {}
        self._chunk_index: dict[tuple[str, ...], list[Token]] | None = None

    def prob(self, token: Token, context: tuple) -> float:
        """P(token | context); context longer than order-1 is truncated."""
        context = tuple(context)[-(self.order - 1):] if self.order > 1 else ()
        return self._prob(token, context)

    def _prob(self, token: Token, context: tuple) -> float:
        key = (context, token)
        cached = self._prob_cache.get(key)
        if cached is not None:
            return cached
        bucket = self.counts.get(context)
        if bucket is None:
            # unseen history: full weight on the shorter one
            value = self._prob(token, context[1:]) if context else 1.0 / max(1, len(self.vocab))
        else:
            total, distinct = self._ctx_stats[context]
            hi = max(bucket.get(token, 0) - self.discount, 0.0) / total
            lam = self.discount * distinct / total
            if context:
                lower = self._prob(token, context[1:])
            else:
                lower = 1.0 / max(1, len(self.vocab))
            value = hi + lam * lower
        self._prob_cache[key] = value
        return value

    def log_prob(self, token: Token, context: tuple) -> float:
        return math.log(self.prob(token, context))

    def chunk_index(self) -> dict[tuple[str, ...], list[Token]]:
        """Chunk tokens grouped by their phoneme tuple, decode-ready."""
        if self._chunk_index is None:
            index: dict[tuple[str, ...], list[Token]] = {}
            for tok in self.vocab:
                if tok[0] == "chunk":
                    index.setdefault(tok[1], []).append(tok)
            for toks in index.values():
                toks.sort(key=lambda t: (t[2], t[1]))
            self._chunk_index = index
        return self._chunk_index

    # -- serialization ----------------------------------------------------

    def save(self, path) -> None:
        """Line-based text dump; counts are integers, probabilities are hex
        floats, so a load() round-trip is bit-exact."""
        chunk_lines = sorted(
            f"{_token_to_json(_chunk_token(c))}\t{p.hex()}"
            for c, p in self.aligner.probs.items()
        )
        ngram_lines = sorted(
            f"{json.dumps([[_token_list(t) for t in ctx], _token_list(tok)], ensure_ascii=False)}\t{cnt}"
            for ctx, bucket in self.counts.items()
            for tok, cnt in bucket.items()
        )
        tag_lines = sorted(self.tags)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("polyipa-joint-model\t1\n")
            fh.write(f"order\t{self.order}\n")
            fh.write(f"discount\t{self.discount.hex()}\n")
            fh.write(f"tags\t{len(tag_lines)}\n")
            for line in tag_lines:
                fh.write(line + "\n")
            fh.write(f"chunks\t{len(chunk_lines)}\n")
            for line in chunk_lines:
                fh.write(line + "\n")
            fh.write(f"ngrams\t{len(ngram_lines)}\n")
            for line in ngram_lines:
                fh.write(line + "\n")

    @classmethod
    def load(cls, path) -> "JointModel":
        lines = _read_lines(path)
        pos = 0

        def expect(label: str) -> str:
            nonlocal pos
            if pos >= len(lines):
                raise ValueError(f"model file truncated, expected {label}")
            name, _, value = lines[pos].partition("\t")
            if name != label:
                raise ValueError(f"model file: expected {label}, got {name!r}")
            pos += 1
            return value

        if expect("polyipa-joint-model") != "1":
            raise ValueError("unsupported model file version")
        order = int(expect("order"))
        discount = float.fromhex(expect("discount"))
        tags = set()
        for _ in range(int(expect("tags"))):
            tags.add(lines[pos])
            pos += 1
        probs: dict[Chunk, float] = {}
        for _ in range(int(expect("chunks"))):
            raw, _, hexval = lines[pos].partition("\t")
            tok = _token_from_list(json.loads(raw))
            probs[(tok[1], tok[2])] = float.fromhex(hexval)
            pos += 1
        counts: dict[tuple, dict[Token, int]] = {}
        for _ in range(int(expect("ngrams"))):
            raw, _, cnt = lines[pos].partition("\t")
            ctx_raw, tok_raw = json.loads(raw)
            ctx = tuple(_token_from_list(t) for t in ctx_raw)
            counts.setdefault(ctx, {})[_token_from_list(tok_raw)] = int(cnt)
            pos += 1
        return cls(order, discount, ChunkAligner(probs), counts, frozenset(tags))


def _token_list(token: Token) -> list:
    if token[0] == "chunk":
        return ["chunk", list(token[1]), token[2]]
    return list(token)


def _token_to_json(token: Token) -> str:
    return json.dumps(_token_list(token), ensure_ascii=False)


def _token_from_list(raw: list) -> Token:
    if raw[0] == "chunk":
        return ("chunk", tuple(raw[1]), raw[2])
    return tuple(raw)


def train(
    lex: Lexicon,
    order: int = 6,
    em_iterations: int = 6,
    discount: float = 0.75,
    scripts: ScriptTable | None = None,
    aligner: ChunkAligner | None = None,
) -> JointModel:
    """Fit the chunk aligner and count tagged joint n-grams."""
    if len(lex) == 0:
        raise EmptyLexiconError("cannot train on an empty lexicon")
    tagged = [
        (lang_script_tag(e, scripts), tuple(seg.text for seg in e.ipa.segments), e.grapheme)
        for e in lex
    ]
    return _train_tagged(tagged, order, em_iterations, discount, aligner)


def train_tagged(
    rows: Sequence[tuple[str, IpaString, str]],
    order: int = 6,
    em_iterations: int = 6,
    discount: float = 0.75,
    aligner: ChunkAligner | None = None,
) -> JointModel:
    """Train from pre-tagged (tag, ipa, target) rows, e.g. an augmented
    training stream."""
    if not rows:
        raise EmptyLexiconError("cannot train on an empty example stream")
    tagged = [(tag, tuple(seg.text for seg in ipa.segments), target)
              for tag, ipa, target in rows]
    return _train_tagged(tagged, order, em_iterations, discount, aligner)


def _train_tagged(
    tagged: list[tuple[str, tuple[str, ...], str]],
    order: int,
    em_iterations: int,
    discount: float,
    aligner: ChunkAligner | None,
) -> JointModel:
    stats: dict[str, int] = {}
    if aligner is None:
        aligner = ChunkAligner()
        stats = aligner.fit([(segs, graph) for _, segs, graph in tagged],
                            iterations=em_iterations)

    counts: dict[tuple, dict[Token, int]] = {}
    tags: set[str] = set()
    failures = 0
    for tag, segs, graph in tagged:
        try:
            chunks = aligner.viterbi(segs, graph)
        except AlignmentFailureError:
            failures += 1
            continue
        tags.add(tag)
        tokens = [_tag_token(tag)] + [_chunk_token(c) for c in chunks] + [EOS]
        stream = [BOS] * (order - 1) + tokens
        for t in range(order - 1, len(stream)):
            target = stream[t]
            for n in range(1, order + 1):
                ctx = tuple(stream[t - n + 1:t])
                counts.setdefault(ctx, {})
                counts[ctx][target] = counts[ctx].get(target, 0) + 1
    if not counts:
        raise EmptyLexiconError("no entry could be aligned")
    stats["alignment_failures"] = failures
    stats["trained_on"] = len(tagged) - failures
    return JointModel(order, discount, aligner, counts, frozenset(tags), stats)


def effective_beam_width(n_best: int, beam_width: int | None = None) -> int:
    """The beam width decode will use: explicit, else 3x the request size."""
    return beam_width if beam_width is not None else 3 * n_best


def beam_decode(
    model: JointModel,
    tag: str,
    ipa: IpaString,
    n_best: int,
    beam_width: int | None = None,
    max_len: int | None = None,
) -> list[Candidate]:
    """Breadth-limited n-best search over trained chunks.

    Hypotheses finalize by paying the EOS probability once all input segments
    are consumed; the search stops early when n_best surfaces are finalized
    and the best active hypothesis can no longer beat the worst kept one
    (scores only decrease as log probabilities accumulate). Output length is
    bounded by max_len (default 3 x segments + 5).
    """
    if n_best < 1:
        raise ValueError("n_best must be >= 1")
    if not ipa.segments:
        raise EmptyInputError("cannot decode an empty transcription")
    width = effective_beam_width(n_best, beam_width)
    if width < 1:
        raise ValueError("beam_width must be >= 1")
    segs = tuple(seg.text for seg in ipa.segments)
    max_out = max_len if max_len is not None else 3 * len(segs) + 5
    ctx_len = model.order - 1
    context: tuple = (BOS,) * ctx_len
    if tag in model.tags:
        if ctx_len:
            context = (context + (_tag_token(tag),))[-ctx_len:]
    else:
        warnings.warn(f"tag {tag!r} not seen in training; decoding untagged",
                      UnknownTagWarning, stacklevel=2)

    index = model.chunk_index()
    # hypothesis: (log_prob, consumed segments, context, surface)
    active: list[tuple[float, int, tuple, str]] = [(0.0, 0, context, "")]
    finalized: dict[str, float] = {}
    max_rounds = len(segs) + max_out + 2
    for _ in range(max_rounds):
        expanded: list[tuple[float, int, tuple, str]] = []
        for lp, pos, ctx, out in active:
            if pos == len(segs):
                flp = lp + model.log_prob(EOS, ctx)
                prev = finalized.get(out)
                if prev is None or flp > prev:
                    finalized[out] = flp
            for plen in (0, 1, 2):
                if pos + plen > len(segs):
                    break
                for tok in index.get(segs[pos:pos + plen], ()):
                    out2 = out + tok[2]
                    if len(out2) > max_out:
                        continue
                    lp2 = lp + model.log_prob(tok, ctx)
                    ctx2 = (ctx + (tok,))[-ctx_len:] if ctx_len else ()
                    expanded.append((lp2, pos + plen, ctx2, out2))
        if not expanded:
            break
        expanded.sort(key=lambda h: (-h[0], h[3], h[1]))
        active = expanded[:width]
        if len(finalized) >= n_best:
            kth = sorted(finalized.values(), reverse=True)[n_best - 1]
            if active[0][0] <= kth:
                break
    ranked = sorted(finalized.items(), key=lambda kv: (-kv[1], kv[0]))[:n_best]
    return [Candidate(surface, lp, rank)
            for rank, (surface, lp) in enumerate(ranked, start=1)]


def write_candidates_tsv(path, blocks: Iterable[tuple[str, str, list[Candidate]]]) -> None:
    """Write candidate blocks as tag<TAB>ipa<TAB>rank<TAB>grapheme<TAB>log_score."""
    with open(path, "w", encoding="utf-8") as fh:
        for tag, ipa_text, candidates in blocks:
            for cand in candidates:
                fh.write(f"{tag}\t{ipa_text}\t{cand.beam_rank}\t{cand.grapheme}\t{cand.log_score!r}\n")


def load_external_candidates(path) -> dict[tuple[str, str], list[Candidate]]:
    """Parse a candidate TSV into (tag, ipa) -> ranked Candidate list.

    Ranks must be consecutive from 1 per block and scores non-increasing;
    blocks for different keys may interleave.
    """
    result: dict[tuple[str, str], list[Candidate]] = {}
    for line_no, parts in _tsv_rows(path):
        if len(parts) != 5:
            raise CandidateParseError(line_no, f"expected 5 columns, got {len(parts)}", path)
        tag, ipa_text, rank_raw, grapheme, score_raw = parts
        try:
            rank = int(rank_raw)
            score = float(score_raw)
        except ValueError:
            raise CandidateParseError(
                line_no, "rank must be int, log_score float", path) from None
        key = (tag, ipa_text)
        block = result.setdefault(key, [])
        if rank != len(block) + 1:
            raise CandidateParseError(
                line_no, f"rank {rank} out of order for {key}; expected {len(block) + 1}", path)
        if block and score > block[-1].log_score:
            raise NonMonotoneScoresError(
                line_no, f"log_score {score} exceeds previous {block[-1].log_score}", path)
        block.append(Candidate(grapheme, score, rank))
    return result
