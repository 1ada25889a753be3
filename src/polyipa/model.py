"""Joint-sequence n-gram phoneme-to-grapheme model with n-best stack decoding.

Training entries are chunk-aligned by EM (every chunk is one phoneme and 0
to 4 graphemes; the first E pass favours chunks of one grapheme) and
chunked by Viterbi over the same compiled lattices. Both sweep the
lattices of a block of entries one phoneme layer at a time, with alpha and
beta scaled per entry and layer by a power of two. Then an n-gram model
interpolated by absolute discounting, with discounts per context length,
is counted over the chunks and EOS of each entry, each predicted after a
context of the form

    (h_-k, ..., h_-1, <lang tag>),  k <= order - 2

where the history h is BOS ... BOS, chunk, chunk, ..., so that the tag is
the last token of every context and is never predicted.

Decoding keeps one stack of hypotheses per number of input segments
consumed, each filled from the one before it with the chunks of the next
segment trained under the query's tag (Koehn 2004, *Pharaoh*; Bisani &
Ney 2008).
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import os
import warnings
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CandidateParseError,
    EmptyInputError,
    EmptyLexiconError,
    NonMonotoneScoresError,
    UnknownTagWarning,
)
from .ipa import IpaString, _parse_rows, _write_rows
from .lexicon import Lexicon, ScriptTable, lang_script_tag

__all__ = [
    "Chunk",
    "Candidate",
    "ChunkAligner",
    "JointModel",
    "train",
    "train_tagged",
    "beam_decode",
    "load_external_candidates",
    "write_candidates_tsv",
]

# (phoneme segment texts, grapheme characters): one segment and at most
# _MAX_LETTERS characters.
Chunk = tuple[tuple[str, ...], str]

Token = tuple
BOS: Token = ("<s>",)
EOS: Token = ("</s>",)

_MAX_RATIO = 4
_FORMAT = "polyipa-joint-model"
_VERSION = 6
_FIELDS = frozenset({"format", "version", "order", "tokens", "ngrams"})
_FALLBACK_DISCOUNT = 0.75  # JointModel.discounts[L] where its n1 or n2 is 0
_EM_ITERATIONS = 3
# training rows per compiled block of EM lattices
_BLOCK_ROWS = 1024
# t͡ʃ -> tsch; _piece_codes codes pieces of up to 4 letters
_MAX_LETTERS = 4
# (phonemes, letters) of every chunk shape, by letters
_SHAPES = tuple((1, g) for g in range(_MAX_LETTERS + 1))
# the first E pass weights (1, 1) chunks 1 and every other chunk this
_START_WEIGHT = 0.1


def _tag_token(tag: str) -> Token:
    return ("tag", tag)


def _chunk_token(chunk: Chunk) -> Token:
    return ("chunk", chunk[0], chunk[1])


@dataclass(frozen=True)
class Candidate:
    grapheme: str
    log_score: float


def _ratio_ok(m: int, n: int) -> bool:
    if m == 0 or n == 0:
        return False
    return max(m, n) <= _MAX_RATIO * min(m, n)


def _piece_codes(chars: np.ndarray, pairs: np.ndarray, n_chars: int, radix: int) -> np.ndarray:
    """Code of the letter piece at every start k of every length 0 to 4, as
    an array of shape (len + 1, 5), from the letter ids and the ids of the
    letter pairs that start at each k: 0 for the empty piece, 1 + letter id
    for one letter, 1 + n_chars + pair id for two, and for three or four
    letters the code of the first one or two times radix plus that of the
    last two. Pieces past the end read 0."""
    length = len(chars)
    one, two = 1 + chars, 1 + n_chars + pairs
    codes = np.zeros((length + 1, _MAX_LETTERS + 1), dtype=np.int64)
    starts = [max(length + 1 - g, 0) for g in range(_MAX_LETTERS + 1)]
    codes[:starts[1], 1] = one
    codes[:starts[2], 2] = two
    codes[:starts[3], 3] = one[:starts[3]] * radix + two[1:]
    codes[:starts[4], 4] = two[:starts[4]] * radix + two[2:]
    return codes


def _piece(code: int, symbols: list[str]) -> str:
    """The letters of a piece code made by _piece_codes, where symbols
    lists the letters, then the letter pairs, by id."""
    head, tail = divmod(code, len(symbols) + 1)
    return "".join(symbols[c - 1] for c in (head, tail) if c)


class _Block:
    """The chunk lattices of one block of training rows as integer arrays,
    built once per fit, with one batched forward-backward pass per EM
    iteration and one max-plus pass for the Viterbi chunking. Identical
    rows share one lattice: rows are the block's distinct rows, most
    phonemes first, and copies gives the distinct row of every row.

    Every chunk consumes one phoneme, so every edge runs from phoneme layer
    i to layer i + 1. The cells (i, j) that a path from (0, 0) reaches,
    j <= min(n, _MAX_LETTERS * i), are numbered by layer, then row, then j,
    so that each layer is one contiguous slice whose rows, those of at least
    i phonemes, come first in the block. The edges out of each layer are
    stored together by row, source j, then letters: the order in which the
    per-row recursion visits them. Alpha of a layer sums each cell's
    incoming edges in that order, beta each cell's outgoing edges in
    reverse, and counts add up in row order, so every float sum is the one
    the per-row recursion makes. Alpha and beta are scaled per row and
    layer by a power of two, which is exact wherever the unscaled value is
    a normal float and keeps long rows from underflowing (Rabiner 1989).
    All sources of a row's layer share its scale, so one sweep per layer
    sums them as they are.
    """

    def __init__(self, rows: list[tuple[tuple[str, ...], str]], copies: list[int]):
        # most phonemes first, so that the rows of every layer come first
        order = sorted(range(len(rows)), key=lambda r: -len(rows[r][0]))
        self._rows = [rows[r] for r in order]
        rank = np.empty(len(rows), dtype=np.intp)
        rank[order] = np.arange(len(rows))
        self.copies = rank[copies]
        m = self._m = np.array([len(segs) for segs, _ in self._rows])
        n = self._n = np.array([len(graph) for _, graph in self._rows])
        # the number of rows of at least i phonemes, by i
        live = np.searchsorted(-m, -np.arange(m[0] + 2), side="right")
        # per layer: its cells lo:hi, the edges e0:e1 out of it, and the
        # offset and width of each of its rows' cells
        self._layers = []
        self._final_cell = np.empty(len(rows), dtype=np.int64)
        lo = e0 = 0
        for i in range(m[0] + 1):
            widths = np.minimum(n[:live[i]], _MAX_LETTERS * i) + 1
            offsets = np.cumsum(widths) - widths
            hi = lo + int(widths.sum())
            # an edge per source cell j and letters g with j + g <= n, in the
            # rows that go on to layer i + 1
            going = n[:live[i + 1]]
            e1 = e0 + sum(int(np.maximum(np.minimum(going - g, _MAX_LETTERS * i) + 1, 0).sum())
                          for g in range(_MAX_LETTERS + 1))
            self._layers.append((lo, hi, e0, e1, offsets, widths))
            # the rows of i phonemes end in their last cell
            ending = slice(live[i + 1], live[i])
            self._final_cell[ending] = lo + offsets[ending] + widths[ending] - 1
            lo, e0 = hi, e1
        self._n_cells, self.n_edges = lo, e0
        self._cell_row = np.concatenate([np.repeat(np.arange(len(widths), dtype=np.int32), widths)
                                         for *_, widths in self._layers])

    def compile(self, seg_ids: dict[str, int], char_ids: dict[str, int],
                pair_ids: dict[str, int], fields: list[np.ndarray]) -> None:
        """Fill the edges into fields, four int32 arrays of n_edges entries:
        source cell, target cell, chunk id, and the edge at each position
        of row order."""
        rows = self._rows
        n_chars = len(char_ids)
        radix = 1 + n_chars + len(pair_ids)
        phones = np.array([seg_ids[s] for segs, _ in rows for s in segs])
        text = "".join(graph for _, graph in rows)
        # the pieces that straddle two rows are never read
        pairs = np.array([pair_ids.get(text[k:k + 2], 0) for k in range(len(text) - 1)],
                         dtype=np.int64)
        letters = _piece_codes(np.array([char_ids[c] for c in text]), pairs, n_chars, radix)
        phone_lo = np.cumsum(self._m) - self._m
        letter_lo = np.cumsum(self._n) - self._n
        src, tgt, cid, by_row = fields
        keys = np.empty(self.n_edges, dtype=np.int64)
        for i, ((lo, _, e0, e1, offsets, widths), (lo1, _, _, _, offsets1, _)) in enumerate(
                zip(self._layers, self._layers[1:])):
            going = len(offsets1)  # the rows that go on to layer i + 1
            r = np.repeat(np.arange(going), widths[:going])
            j = np.arange(len(r)) - np.repeat(offsets[:going], widths[:going])
            # every source cell by every number of letters left in its row
            cell, g = np.nonzero(j[:, None] + np.arange(_MAX_LETTERS + 1) <= self._n[r][:, None])
            r, j = r[cell], j[cell]
            src[e0:e1] = lo + cell
            tgt[e0:e1] = lo1 + offsets1[r] + j + g
            keys[e0:e1] = phones[phone_lo[r] + i] * radix ** 2 + letters[letter_lo[r] + j, g]
            by_row[e0:e1] = r
        self.codes, cid[:] = np.unique(keys, return_inverse=True)
        del keys
        self._src, self._tgt, self._cid = src, tgt, cid
        # the first edge of every distinct row in row order, and that order:
        # by row, then as stored
        self._edge_base = np.concatenate(([0], np.cumsum(np.bincount(by_row,
                                                                     minlength=len(rows)))))
        by_row[:] = np.argsort(by_row, kind="stable")
        self._by_row = by_row

    def number_chunks(self, codes: np.ndarray) -> None:
        """Renumber the block's chunk ids as indices into the sorted codes."""
        self._cid[:] = np.searchsorted(codes, self.codes)[self._cid]

    @staticmethod
    def _rescale(values, exps, cell_exps, lo, hi, offsets, widths):
        """Scale each row's cells in values[lo:hi] so that their maximum
        lies in [0.5, 1), add the shift to the row's exponent in exps, and
        copy that to its cells in cell_exps."""
        layer = values[lo:hi]
        shift = np.frexp(np.maximum.reduceat(layer, offsets))[1]
        values[lo:hi] = np.ldexp(layer, -np.repeat(shift, widths))
        exps[:len(widths)] += shift
        cell_exps[lo:hi] = np.repeat(exps[:len(widths)], widths)

    def _forward(self, weights: np.ndarray):
        """Scaled alpha and its exponent per cell, and z of every distinct
        row as a mantissa in [0.5, 1), 0 without a path, and its exponent."""
        src, tgt, cid = self._src, self._tgt, self._cid
        alpha = np.zeros(self._n_cells)
        alpha[:len(self._m)] = 1.0  # layer 0 holds each row's start cell, in row order
        # true alpha = alpha * 2 ** alpha_exp, kept per row and per cell
        exps = np.zeros(len(self._m), dtype=np.int32)
        alpha_exp = np.zeros(self._n_cells, dtype=np.int32)
        for (*_, e0, e1, _, _), (lo, hi, *_, offsets, widths) in zip(self._layers,
                                                                      self._layers[1:]):
            v = alpha[src[e0:e1]]
            v *= weights[cid[e0:e1]]
            alpha[lo:hi] = np.bincount(tgt[e0:e1] - lo, v, hi - lo)
            self._rescale(alpha, exps, alpha_exp, lo, hi, offsets, widths)
        z, shift = np.frexp(alpha[self._final_cell])
        return alpha, alpha_exp, z, alpha_exp[self._final_cell] + shift

    def z(self, weights: np.ndarray):
        """Scaled z and its exponent for every row of the block."""
        *_, z, z_exp = self._forward(weights)
        return z[self.copies], z_exp[self.copies]

    def posteriors(self, weights: np.ndarray):
        """(chunk id, posterior) of every edge of every row in row order, 0
        for rows without a path, and scaled z and its exponent per row."""
        src, tgt, cid = self._src, self._tgt, self._cid
        alpha, alpha_exp, z, z_exp = self._forward(weights)
        beta = np.zeros(self._n_cells)
        beta[self._final_cell] = 1.0
        exps = np.zeros(len(self._m), dtype=np.int32)
        beta_exp = np.zeros(self._n_cells, dtype=np.int32)
        for lo, hi, e0, e1, offsets, widths in reversed(self._layers):
            v = weights[cid[e0:e1]] * beta[tgt[e0:e1]]
            beta[lo:hi] += np.bincount(src[e0:e1][::-1] - lo, v[::-1], hi - lo)
            self._rescale(beta, exps, beta_exp, lo, hi, offsets, widths)
        row = self._cell_row
        post = alpha[src]
        post *= weights[cid]
        post *= beta[tgt]
        post /= np.where(z > 0.0, z, np.inf)[row][src]  # a row without a path counts nothing
        alpha_exp -= z_exp[row]  # from here on relative to the row's z
        shift = alpha_exp[src]
        shift += beta_exp[tgt]
        np.ldexp(post, shift, out=post)
        # the edges of every row of the block, copies included, in row order
        start = self._edge_base[self.copies]
        sizes = self._edge_base[self.copies + 1] - start
        edges = self._by_row[np.arange(int(sizes.sum()))
                             + np.repeat(start - np.cumsum(sizes) + sizes, sizes)]
        return cid[edges], post[edges], z[self.copies], z_exp[self.copies]

    def best_paths(self, logs: np.ndarray) -> list[list[int] | None]:
        """Chunk ids along the best path of every distinct row under chunk
        log weights, None for a row without a path. Float max is exact, so
        the best score does not depend on the order of the edges; among
        equal-score edges into one cell the one with fewer letters wins."""
        src, tgt, cid = self._src, self._tgt, self._cid
        score = np.full(self._n_cells, -math.inf)
        score[:len(self._m)] = 0.0
        back = np.empty(self._n_cells, dtype=np.int32)  # the best edge into each cell
        for (lo0, _, e0, e1, offsets0, _), (lo, hi, _, _, offsets, _) in zip(self._layers,
                                                                              self._layers[1:]):
            s, t = src[e0:e1], tgt[e0:e1] - lo
            # an edge's letters: the j of its target less that of its source
            g = t - (s - lo0) - (offsets - offsets0[:len(offsets)])[self._cell_row[s]]
            # every cell's candidates by letters, so that the first maximum
            # has the fewest
            cand = np.full((hi - lo, _MAX_LETTERS + 1), -math.inf)
            cand[t, g] = score[s] + logs[cid[e0:e1]]
            edge = np.zeros(cand.shape, dtype=np.int32)
            edge[t, g] = np.arange(e0, e1)
            best = cand.argmax(axis=1)
            cells = np.arange(hi - lo)
            score[lo:hi] = cand[cells, best]
            back[lo:hi] = edge[cells, best]
        # walk all rows back from their final cells at once, one edge a step
        reached = np.flatnonzero(score[self._final_cell] > -math.inf)
        on_path = np.zeros(len(cid), dtype=bool)
        cells = self._final_cell[reached]
        while len(cells):
            e = back[cells]
            on_path[e] = True
            cells = src[e]
            cells = cells[cells >= len(self._m)]  # layer 0 holds the start cells
        # in row order a row's edges come layer by layer: path order
        steps = np.flatnonzero(on_path[self._by_row])
        ids = cid[self._by_row[steps]].tolist()
        ends = np.searchsorted(steps, self._edge_base[reached + 1]).tolist()
        paths: list[list[int] | None] = [None] * len(self._m)
        for r, lo, hi in zip(reached.tolist(), [0] + ends, ends):
            paths[r] = ids[lo:hi]
        return paths


class _Lattices:
    """The chunk lattices of all training rows, compiled in blocks of
    _BLOCK_ROWS rows so that the arrays of one pass stay bounded, with chunk
    ids shared by all blocks. Every block lays out its layers before any
    edge is made, so that the edges of all blocks fill one array per field.
    Counts add up block by block in row order (np.add.at adds in index
    order), as one pass over all rows would."""

    def __init__(self, rows: list[tuple[tuple[str, ...], str]]):
        seg_ids: dict[str, int] = {}
        char_ids: dict[str, int] = {}
        pair_ids: dict[str, int] = {}
        for segs, graph in rows:
            for s in segs:
                seg_ids.setdefault(s, len(seg_ids))
            for c in graph:
                char_ids.setdefault(c, len(char_ids))
            for k in range(len(graph) - 1):
                pair_ids.setdefault(graph[k:k + 2], len(pair_ids))
        self._blocks = []
        for b in range(0, len(rows), _BLOCK_ROWS):
            distinct: dict[tuple[tuple[str, ...], str], int] = {}
            copies = [distinct.setdefault(row, len(distinct)) for row in rows[b:b + _BLOCK_ROWS]]
            self._blocks.append(_Block(list(distinct), copies))
        ends = np.cumsum([0] + [block.n_edges for block in self._blocks])
        # one allocation per edge field for all blocks: many block-sized
        # arrays land in the C heap, which keeps their pages after the fit
        fields = [np.empty(int(ends[-1]), dtype=np.int32) for _ in range(4)]
        for block, lo, hi in zip(self._blocks, ends[:-1], ends[1:]):
            block.compile(seg_ids, char_ids, pair_ids, [f[lo:hi] for f in fields])
        self._codes = np.unique(np.concatenate([np.zeros(0, dtype=np.int64)]
                                               + [block.codes for block in self._blocks]))
        for block in self._blocks:
            block.number_chunks(self._codes)
        self.n_chunks = len(self._codes)
        # a chunk's code is its segment id * (1 + len(symbols)) ** 2 plus
        # the code of its letters
        self._symbols = (list(seg_ids), list(char_ids) + list(pair_ids), len(char_ids))

    def chunk(self, chunk_id: int) -> Chunk:
        segs, symbols, _ = self._symbols
        seg, letters = divmod(int(self._codes[chunk_id]), (1 + len(symbols)) ** 2)
        return ((segs[seg],), _piece(letters, symbols))

    def start_weights(self) -> np.ndarray:
        """The chunk weights of the first E pass: 1 for a chunk of one
        letter, whose code is 1 + its letter id, and _START_WEIGHT for
        every other."""
        _, symbols, n_chars = self._symbols
        letters = self._codes % (1 + len(symbols)) ** 2
        return np.where((letters >= 1) & (letters <= n_chars), 1.0, _START_WEIGHT)

    def expected_counts(self, weights: np.ndarray):
        """One E step under chunk weights: (expected count per chunk id, the
        chunk ids in order of their first positive posterior, sum of log z
        over the rows with a path)."""
        counts = np.zeros(self.n_chunks)
        never = np.iinfo(np.int64).max
        first = np.full(self.n_chunks, never)
        edges = 0
        log_z = []
        for block in self._blocks:
            cid, post, z, z_exp = block.posteriors(weights)
            np.add.at(counts, cid, post)
            positive = np.flatnonzero(post > 0.0)
            np.minimum.at(first, cid[positive], edges + positive)
            edges += len(post)
            log_z.append(_log_z(z, z_exp))
        order = np.argsort(first)[:np.count_nonzero(first < never)]
        return counts, order, sum(log_z)

    def log_likelihood(self, weights: np.ndarray) -> tuple[float, int]:
        """Sum of log z over the rows with a path under chunk weights, and
        the number of rows without one."""
        log_z = unalignable = 0
        for block in self._blocks:
            z, z_exp = block.z(weights)
            log_z += _log_z(z, z_exp)
            unalignable += int(np.count_nonzero(z <= 0.0))
        return log_z, unalignable

    def best_chunkings(self, logs: np.ndarray,
                       chunks: dict[int, Chunk]) -> list[tuple[Chunk, ...] | None]:
        """The best chunking of every row in row order under chunk log
        weights, None for a row without a path; chunks names every chunk id
        of finite weight, and copies share one tuple."""
        result = []
        for block in self._blocks:
            paths = [None if path is None else tuple(chunks[c] for c in path)
                     for path in block.best_paths(logs)]
            result.extend(paths[r] for r in block.copies.tolist())
        return result


def _log_z(z: np.ndarray, z_exp: np.ndarray) -> float:
    """Sum of log(z * 2 ** z_exp) over the rows with z > 0."""
    aligned = z > 0.0
    return float(np.log(z[aligned]).sum() + z_exp[aligned].sum() * math.log(2.0))


class ChunkAligner:
    """EM-trained chunk probabilities and the Viterbi chunking they induce.

    fit() compiles the chunk lattices of its pairs once and runs EM over
    them. The first E pass weights each chunk of one phoneme and one letter
    1 and every other chunk _START_WEIGHT, so that EM starts from 1:1
    chunkings and does not explain a small stream by long chunks; later
    passes reweight by the current chunk distribution. viterbi() then reads
    the best chunking of every pair off the same lattices, and releases
    them.
    """

    def __init__(self):
        self.probs: dict[Chunk, float] = {}
        # what viterbi() reads: the ratio check per pair, the lattices of
        # the pairs that pass it, the log weight per chunk id, and the
        # chunk of every kept id
        self._fitted: tuple[list[bool], _Lattices, np.ndarray, dict[int, Chunk]] | None = None

    def fit(self, pairs: Sequence[tuple[tuple[str, ...], str]], iterations: int = _EM_ITERATIONS,
            min_prob: float = 1e-12) -> dict[str, int | list[float]]:
        """Run EM over (segments, grapheme) pairs; returns skip counters and,
        per iteration, the log-likelihood of the table it made: the sum of
        log z over the rows that table aligns. viterbi() returns None for
        the ratio_skipped pairs and the unalignable ones, without a path
        under the final table."""
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        pairs = [(tuple(segs), graph) for segs, graph in pairs]
        ok = [_ratio_ok(len(segs), len(graph)) for segs, graph in pairs]
        usable = list(itertools.compress(pairs, ok))
        log_likelihood: list[float] = []
        # unalignable stays len(usable) when EM stops because no row has a path
        stats = {"pairs": len(pairs), "ratio_skipped": len(pairs) - len(usable),
                 "unalignable": len(usable), "log_likelihood": log_likelihood}
        lattices = _Lattices(usable)
        weights = lattices.start_weights()
        kept = np.zeros(0, dtype=np.intp)
        for k in range(iterations):
            counts, order, previous = lattices.expected_counts(weights)
            if k:  # the log-likelihood of the table the last iteration made
                log_likelihood.append(previous)
            values = counts[order]
            # summed in the order each chunk first gets a positive posterior
            total = sum(values.tolist())
            if total <= 0.0:
                break
            values /= total
            keep = values >= min_prob
            kept = order[keep]
            weights = np.zeros(lattices.n_chunks)
            weights[kept] = values[keep]
        else:  # and that of the final table, by one more forward pass
            final, stats["unalignable"] = lattices.log_likelihood(weights)
            log_likelihood.append(final)
        chunks = {c: lattices.chunk(c) for c in kept.tolist()}
        probs = weights[kept].tolist()
        self.probs = dict(zip(chunks.values(), probs))
        logs = np.full(lattices.n_chunks, -math.inf)
        # math.log, not np.log, whose rounding may differ
        logs[kept] = [math.log(p) if p > 0.0 else -math.inf for p in probs]
        self._fitted = (ok, lattices, logs, chunks)
        return stats

    def viterbi(self) -> list[tuple[Chunk, ...] | None]:
        """The maximum-likelihood chunking under probs of every pair the
        last fit() saw, in its order; None for a pair outside the length
        ratio or without a path through the kept chunks. Ties are broken
        cell by cell from the end back: of the equal-score chunks that end
        at one lattice cell, the one with fewer letters wins. Releases the
        lattices, so it runs once per fit()."""
        if self._fitted is None:
            raise RuntimeError("viterbi() reads the lattices of a fit() not yet read")
        ok, lattices, logs, chunks = self._fitted
        self._fitted = None
        chunkings = iter(lattices.best_chunkings(logs, chunks))
        return [next(chunkings) if good else None for good in ok]


def _check_order(order: int) -> None:
    if isinstance(order, bool) or not isinstance(order, int) or order < 1:
        raise ValueError("order must be an integer >= 1")


class _Window:
    """The chunks of one segment that decode can add where it occurs. Their
    scores after a context do not depend on the query, so one window serves
    them all."""

    __slots__ = ("tokens", "letters", "scored")

    def __init__(self, group: list[tuple[int, str]]):
        # the token ids, as _probs scores them, and the letters of each
        self.tokens = tuple(tok for tok, _ in group)
        self.letters = tuple(letters for _, letters in group)
        # per trained context: JointModel._expansions
        self.scored: dict[tuple[int, ...], tuple[tuple[float, int, str], ...]] = {}


class JointModel:
    """Interpolated n-gram model over joint chunk tokens.

    Tokens live in one sorted table, the one the model file stores, and the
    n-gram counts, contexts and vocabulary refer to them by their index in it.
    Absolute discounting, by discounts[L] in (0, 1) after a length-L context,
    recurses to a uniform distribution over the observed vocabulary, so every
    conditional distribution sums to one. Every predicted token is counted
    under the empty context, so that bucket holds the vocabulary; the trained
    tags are the tags of the table.

    Every other context ends in a tag, and the contexts are closed under
    dropping their first token and under dropping their last history token
    (ctx[:-2] + ctx[-1:]), as counting every n-gram order of a stream makes
    them: _probs backs off along context[1:], dropping the oldest history
    first and the tag last, and decode's state, the longest trained suffix
    of a history, is the longest trained suffix of the previous state's
    history plus one token, then the tag. The constructor rejects any other
    table.
    """

    def __init__(
        self,
        order: int,
        tokens: list[Token],
        counts: dict[tuple[int, ...], dict[int, int]],
        training_stats: dict[str, int | list[float]] | None = None,
    ):
        _check_order(order)
        self.order = order
        self.tokens = tokens
        self.counts = counts
        self.training_stats = dict(training_stats or {})
        if not all(map(_is_token, tokens)):
            raise ValueError("token table holds a token that is not a boundary, a tag with a "
                             f"str name or a chunk of one str phoneme and at most {_MAX_LETTERS} "
                             "str letters")
        if any(a >= b for a, b in zip(tokens, tokens[1:])):
            raise ValueError("token table not sorted or not distinct")
        self.ids = {tok: i for i, tok in enumerate(self.tokens)}
        if EOS not in self.ids or (order > 2 and BOS not in self.ids):
            raise ValueError("token table lacks the sentence boundary tokens")
        if () not in counts or not all(
                len(ctx) < order and tokens[ctx[-1]][0] == "tag" and ctx[1:] in counts
                and ctx[:-2] + ctx[-1:] in counts for ctx in counts if ctx):
            raise ValueError("n-gram contexts too long, not ending in a tag or not closed: a "
                             "context has >= order tokens or a last token that is not a tag, or "
                             "the empty context or a context minus its first or its last "
                             "history token is missing")
        self.vocab: frozenset[int] = frozenset(counts.get((), ()))
        self.tags = frozenset(tok[1] for tok in self.tokens if tok[0] == "tag")
        # chunk ids and letters by segment, letters in table order
        self.chunk_index: dict[str, list[tuple[int, str]]] = {}
        for i in sorted(self.vocab):
            tok = self.tokens[i]
            if tok[0] == "chunk":
                self.chunk_index.setdefault(tok[1][0], []).append((i, tok[2]))
        self._ctx_stats: dict[tuple[int, ...], tuple[int, int]] = {
            ctx: (sum(bucket.values()), len(bucket)) for ctx, bucket in counts.items()
        }
        # discounts[L] = n1 / (n1 + 2 n2) of the n-grams after length-L contexts
        # seen once (n1) and twice (n2); Ney, Essen & Kneser 1994
        seen = Counter((len(ctx), n) for ctx, bucket in counts.items() for n in bucket.values())
        self.discounts = tuple(n1 / (n1 + 2 * n2) if n1 and n2 else _FALLBACK_DISCOUNT
                               for n1, n2 in ((seen[k, 1], seen[k, 2]) for k in range(order)))
        # P(tokens | trained context) per (context, token tuple); the tuples
        # are the tokens of a window below or single tokens, so the model
        # bounds it
        self._probs_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[float, ...]] = {}
        # decode's window per segment, per tag id and None for chunk_index,
        # each scored for all queries
        self._indexes: dict[int | None, dict[str, _Window]] = {}

    def prob(self, token: int, context: Sequence[int]) -> float:
        """P(token | context) of token ids. An unseen history puts full
        weight on its longest trained suffix, so the cache holds trained
        contexts only; no trained context is longer than order - 1, so this
        also truncates a longer context."""
        return self._probs(self._trained_suffix(context), (token,))[0]

    def _trained_suffix(self, context: Sequence[int]) -> tuple[int, ...]:
        context = tuple(context)
        while context and context not in self.counts:
            context = context[1:]
        return context

    def _probs(self, context: tuple[int, ...], tokens: tuple[int, ...]) -> tuple[float, ...]:
        """P(token | context) of each of tokens after a trained context:
        the discounted count plus the backoff weight times the same after
        context[1:], which is trained too, down to a uniform distribution
        over the vocabulary."""
        key = (context, tokens)
        cached = self._probs_cache.get(key)
        if cached is not None:
            return cached
        bucket = self.counts[context]
        total, distinct = self._ctx_stats[context]
        d = self.discounts[len(context)]
        lam = d * distinct / total
        lower = (self._probs(context[1:], tokens) if context
                 else (1.0 / len(self.vocab),) * len(tokens))
        value = self._probs_cache[key] = tuple(
            max(bucket.get(tok, 0) - d, 0.0) / total + lam * low for tok, low in zip(tokens, lower))
        return value

    def _index(self, tag_id: int | None) -> dict[str, _Window]:
        """The window of every segment with chunks counted after the context
        (tag_id,), or with chunks in chunk_index for None."""
        index = self._indexes.get(tag_id)
        if index is None:
            trained = self.vocab if tag_id is None else self.counts[(tag_id,)]
            index = self._indexes[tag_id] = {
                seg: _Window(kept) for seg, group in self.chunk_index.items()
                if (kept := [(tok, letters) for tok, letters in group if tok in trained])}
        return index

    def _expansions(self, context: tuple[int, ...],
                    window: _Window) -> tuple[tuple[float, int, str], ...]:
        """(log-probability, token id, letters) of a window's chunks after a
        trained context, best first."""
        rows = window.scored.get(context)
        if rows is None:
            # math.log, not np.log, whose rounding may differ
            logs = map(math.log, self._probs(context, window.tokens))
            rows = window.scored[context] = tuple(sorted(
                zip(logs, window.tokens, window.letters), key=itemgetter(0), reverse=True))
        return rows

    def _next_state(self, context: tuple[int, ...], token: int) -> tuple[int, ...]:
        """The longest trained suffix of a state's history plus token, then
        its tag; the empty state stays empty."""
        return self._trained_suffix(context[:-1] + (token,) + context[-1:]) if context else ()

    def log_prob(self, token: int, context: Sequence[int]) -> float:
        return math.log(self.prob(token, context))

    # -- serialization ----------------------------------------------------

    def save(self, path) -> None:
        """Write the model as one JSON document: the token table, then the
        n-grams as sorted [context id..., token id, count] rows. json writes
        floats by their shortest round-trip repr, so a load() round trip is
        bit-exact, and sorting keeps retraining byte-identical.

        The document goes to a temporary file next to path, which then
        replaces path, so a failed save leaves any earlier file as it was."""
        doc = {
            "format": _FORMAT,
            "version": _VERSION,
            "order": self.order,
            "tokens": self.tokens,
            "ngrams": sorted([*ctx, tok, cnt] for ctx, bucket in self.counts.items()
                             for tok, cnt in bucket.items()),
        }
        path = os.fspath(path)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, ensure_ascii=False))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise

    @classmethod
    def load(cls, path) -> "JointModel":
        """Read a file written by save(); anything else raises ValueError
        naming the path."""
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            doc = json.loads(text)
            if not isinstance(doc, dict) or set(doc) != _FIELDS or (
                    doc["format"], doc["version"]) != (_FORMAT, _VERSION):
                raise ValueError(f"not a {_FORMAT} document of version {_VERSION}")
            tokens = [tuple(tuple(f) if isinstance(f, list) else f for f in raw)
                      for raw in doc["tokens"]]
            counts: dict[tuple[int, ...], dict[int, int]] = {}
            for row in doc["ngrams"]:
                *ctx, tok, cnt = row
                ctx = tuple(ctx)
                bucket = counts.get(ctx)
                if bucket is None:
                    if not all(_is_id(i, len(tokens)) for i in ctx):
                        raise ValueError(f"n-gram context not token ids: {row}")
                    bucket = counts[ctx] = {}
                if not (_is_id(tok, len(tokens)) and _is_id(cnt) and cnt and tok not in bucket):
                    raise ValueError(f"bad token id, count or repeated n-gram: {row}")
                bucket[tok] = cnt
            return cls(doc["order"], tokens, counts)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: not a readable model file "
                             f"({type(exc).__name__}: {exc})") from None


def _is_id(value, size: float = math.inf) -> bool:
    return type(value) is int and 0 <= value < size  # json reads true as a bool


def _is_token(tok) -> bool:
    """BOS, EOS, ("tag", name) or ("chunk", (phoneme,), letters), of str,
    with at most _MAX_LETTERS letters: decode offers no other chunk."""
    if tok in (BOS, EOS):
        return True
    if len(tok) == 2 and tok[0] == "tag":
        return isinstance(tok[1], str)
    return (len(tok) == 3 and tok[0] == "chunk" and isinstance(tok[1], tuple)
            and len(tok[1]) == 1 and isinstance(tok[1][0], str)
            and isinstance(tok[2], str) and len(tok[2]) <= _MAX_LETTERS)


def train(
    lex: Lexicon,
    order: int = 6,
    scripts: ScriptTable | None = None,
) -> JointModel:
    """Train on a lexicon, each entry tagged with its language and script."""
    if len(lex) == 0:
        raise EmptyLexiconError("cannot train on an empty lexicon")
    rows = [(lang_script_tag(e, scripts), e.ipa, e.grapheme) for e in lex]
    return train_tagged(rows, order)


def train_tagged(
    rows: Sequence[tuple[str, IpaString, str]],
    order: int = 6,
) -> JointModel:
    """Train from pre-tagged (tag, ipa, target) rows, e.g. an augmented
    training stream: fit the chunk aligner by EM, then count tagged joint
    n-grams over each row's Viterbi chunking."""
    if not rows:
        raise EmptyLexiconError("cannot train on an empty example stream")
    # a bad order fails here, not after EM
    _check_order(order)
    aligner = ChunkAligner()
    stats = aligner.fit([(tuple(seg.text for seg in ipa.segments), target)
                         for _, ipa, target in rows])
    # each row's history, from order - 2 BOS to EOS, and its tag; the tokens
    # after the BOS are predicted, each after its history's last order - 2
    # or fewer tokens followed by the tag
    streams = [([BOS] * max(order - 2, 0) + [*map(_chunk_token, chunks), EOS], _tag_token(tag))
               for (tag, _, _), chunks in zip(rows, aligner.viterbi()) if chunks is not None]
    if not streams:
        raise EmptyLexiconError("no entry could be aligned")
    tokens = sorted(set().union(*(history + [tag] for history, tag in streams)))
    ids = {tok: i for i, tok in enumerate(tokens)}
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    for history, tag in streams:
        stream = [ids[tok] for tok in history]
        tag_id = (ids[tag],)
        for t in range(max(order - 2, 0), len(stream)):
            target = stream[t]
            for ctx in [()] + [tuple(stream[t - k:t]) + tag_id for k in range(order - 1)]:
                bucket = counts.setdefault(ctx, {})
                bucket[target] = bucket.get(target, 0) + 1
    stats["alignment_failures"] = len(rows) - len(streams)
    stats["trained_on"] = len(streams)
    return JointModel(order, tokens, counts, stats)


def stack_width(n_best: int) -> int:
    """The number of hypotheses a stack of beam_decode keeps by default."""
    return 3 * n_best


def beam_decode(
    model: JointModel,
    tag: str,
    ipa: IpaString,
    n_best: int,
    beam_width: int | None = None,
) -> list[Candidate]:
    """The n_best best spellings of one input by stack decoding.

    Stack q holds hypotheses that have consumed q input segments, each a
    log-probability, a state (the longest trained context of its history)
    and a surface; of hypotheses with one state and surface only the best
    is kept. Stack q is filled from stack q - 1 by the chunks of segment q.
    Surfaces are bounded by 3 x segments + 5 characters, and EOS is paid on
    the last stack.

    A stack keeps the beam_width (stack_width(n_best) by default) best
    hypotheses, ties broken by surface, then state (the histogram pruning
    of stack decoders; Koehn 2004). Each hypothesis reads its chunks'
    log-probabilities, sorted, from the model's cache for its state and
    segment, and one lazy merge of those lists builds only the hypotheses
    that can enter the stack.

    Only the chunks trained under the tag are offered, and all trained
    chunks where those decode nothing. An unseen tag warns and decodes
    with the empty context and all trained chunks.
    """
    if n_best < 1:
        raise ValueError("n_best must be >= 1")
    if not ipa.segments:
        raise EmptyInputError("cannot decode an empty transcription")
    width = stack_width(n_best) if beam_width is None else beam_width
    if width < 1:
        raise ValueError("beam_width must be >= 1")
    segs = tuple(seg.text for seg in ipa.segments)
    start: tuple[int, ...] = ()
    tag_id = None
    if tag in model.tags:
        tag_id = model.ids[_tag_token(tag)]
        bos = (model.ids[BOS],) * (model.order - 2) if model.order > 2 else ()
        start = model._trained_suffix(bos + (tag_id,))
    else:
        warnings.warn(f"tag {tag!r} not seen in training; decoding untagged",
                      UnknownTagWarning, stacklevel=2)
    if tag_id is not None and (tag_id,) in model.counts:
        cands = _stack_search(model, model._index(tag_id), segs, start, n_best, width)
        if cands:
            return cands
    return _stack_search(model, model._index(None), segs, start, n_best, width)


# hypothesis: (log-probability, state, surface)
_Hyp = tuple[float, tuple[int, ...], str]


def _stack_search(model: JointModel, index: dict[str, _Window], segs: tuple[str, ...],
                  start: tuple[int, ...], n_best: int, width: int) -> list[Candidate]:
    max_out = 3 * len(segs) + 5
    stack: list[_Hyp] = [(0.0, start, "")]
    for seg in segs:
        window = index.get(seg)
        if window is None:
            return []
        stack = _admit(model, [_fitting(hyp, model._expansions(hyp[1], window), max_out)
                               for hyp in stack], width)
    eos = (model.ids[EOS],)
    final: dict[str, float] = {}
    for lp, state, out in stack:
        flp = lp + math.log(model._probs(state, eos)[0])
        if flp > final.get(out, -math.inf):
            final[out] = flp
    ranked = sorted(final.items(), key=lambda kv: (-kv[1], kv[0]))[:n_best]
    return [Candidate(surface, lp) for surface, lp in ranked]


def _fitting(hyp: _Hyp, rows, max_out: int):
    """(log_prob, state, token, surface) of hyp's expansions by rows whose
    surface fits in max_out characters, in row order."""
    lp, state, out = hyp
    room = max_out - len(out)
    for s, tok, letters in rows:
        if len(letters) <= room:
            yield lp + s, state, tok, out + letters


def _admit(model: JointModel, sources: list, width: int) -> list[_Hyp]:
    """The width best hypotheses that the sources' rows make, each source a
    sorted stream of (log_prob, state, token, surface), sorted by score,
    then surface, then state.

    One merge walks the rows best first and stops below the width-th
    distinct hypothesis, where no later row can enter; a hypothesis's
    first row is its best."""
    floor = -math.inf
    found: dict[tuple[tuple[int, ...], str], float] = {}
    for lp, state, tok, out in heapq.merge(*sources, key=itemgetter(0), reverse=True):
        if lp < floor:
            break
        key = (model._next_state(state, tok), out)
        if key in found:
            continue
        found[key] = lp
        if len(found) == width:
            floor = lp
    return sorted(((lp, state, out) for (state, out), lp in found.items()),
                  key=lambda h: (-h[0], h[2], h[1]))[:width]


def write_candidates_tsv(path, blocks: Iterable[tuple[str, str, list[Candidate]]]) -> None:
    """Write candidate blocks as tag<TAB>ipa<TAB>rank<TAB>grapheme<TAB>log_score,
    ranks counted from 1 in list order."""
    _write_rows(path, ((tag, ipa_text, str(rank), cand.grapheme, repr(cand.log_score))
                       for tag, ipa_text, candidates in blocks
                       for rank, cand in enumerate(candidates, start=1)))


def load_external_candidates(path) -> dict[tuple[str, str], list[Candidate]]:
    """Parse a candidate TSV into (tag, ipa) -> ranked Candidate list.

    Ranks must be consecutive from 1 per block and scores non-increasing;
    blocks for different keys may interleave.
    """
    result: dict[tuple[str, str], list[Candidate]] = {}

    def parse(*fields: str) -> tuple[tuple[str, str], Candidate]:
        if len(fields) != 5:
            raise CandidateParseError(f"expected 5 columns, got {len(fields)}")
        tag, ipa_text, rank_raw, grapheme, score_raw = fields
        try:
            rank, score = int(rank_raw), float(score_raw)
        except ValueError:
            raise CandidateParseError("rank must be int, log_score float") from None
        key = (tag, ipa_text)
        block = result.get(key, [])
        if rank != len(block) + 1:
            raise CandidateParseError(
                f"rank {rank} out of order for {key}; expected {len(block) + 1}")
        if block and score > block[-1].log_score:
            raise NonMonotoneScoresError(
                f"log_score {score} exceeds previous {block[-1].log_score}")
        return key, Candidate(grapheme, score)

    for key, cand in _parse_rows(path, parse):
        result.setdefault(key, []).append(cand)
    return result
