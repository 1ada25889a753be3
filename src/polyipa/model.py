"""Joint-sequence n-gram phoneme-to-grapheme model with n-best beam decoding.

Training entries are chunk-aligned by EM (chunk shapes up to 2 phonemes by
2 graphemes, never 0:0) and chunked by Viterbi over the same compiled
lattices, then an n-gram model with absolute-discount
interpolation is counted over token streams of the form

    [BOS ... BOS, <lang tag>, chunk, chunk, ..., EOS]

Decoding walks the input segments left to right, proposing trained chunks,
and keeps the usual breadth-limited beam with early stopping.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import warnings
from dataclasses import dataclass
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
_FORMAT = "polyipa-joint-model"
_VERSION = 3
_FIELDS = frozenset({"format", "version", "order", "discount", "tokens", "ngrams"})
# training rows per compiled block of EM lattices
_BLOCK_ROWS = 1024
_SHAPES = tuple((p, g) for p in range(3) for g in range(3) if (p, g) != (0, 0))
# Viterbi's tie rank per shape: of equal-score edges into one cell, the one
# with fewer symbols wins, then the one with fewer phonemes
_TIE_RANK = np.array([sorted(_SHAPES, key=lambda s: (s[0] + s[1], s[0])).index(s)
                      for s in _SHAPES], dtype=np.int8)


def _tag_token(tag: str) -> Token:
    return ("tag", tag)


def _chunk_token(chunk: Chunk) -> Token:
    return ("chunk", chunk[0], chunk[1])


@dataclass(frozen=True)
class Candidate:
    grapheme: str
    log_score: float
    beam_rank: int


def _ratio_ok(m: int, n: int) -> bool:
    if m == 0 or n == 0:
        return False
    return max(m, n) <= _MAX_RATIO * min(m, n)


_SHAPE_P = np.array([p for p, _ in _SHAPES])
_SHAPE_G = np.array([g for _, g in _SHAPES])


def _edge_count(m: int, n: int) -> int:
    """Number of edges of an m x n lattice, m, n >= 1: each of p, g in 0..2
    has m + 1 - p and n + 1 - g starts, less the (m + 1)(n + 1) of 0:0."""
    return 9 * m * n - (m + 1) * (n + 1)


def _lattice_edges(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, shape index) of every edge of an m x n lattice, in the order
    the per-row recursion visits them: source row-major, then _SHAPES."""
    i = np.arange(m + 1)[:, None, None]
    j = np.arange(n + 1)[None, :, None]
    return np.nonzero((i + _SHAPE_P <= m) & (j + _SHAPE_G <= n))


def _piece_codes(ids: np.ndarray, size: int) -> np.ndarray:
    """Code of the piece ids[:, k:k + length] for every start k and length
    0, 1, 2 (0 is the empty piece, then single ids, then id pairs), as an
    array of shape (rows, len + 1, 3); pieces past the end read 0."""
    rows, length = ids.shape
    codes = np.zeros((rows, length + 1, 3), dtype=np.int64)
    codes[:, :length, 1] = 1 + ids
    codes[:, :length - 1, 2] = 1 + size + ids[:, :-1] * size + ids[:, 1:]
    return codes


def _piece(code: int, symbols: list[str]) -> tuple[str, ...]:
    """The symbols of a piece code made by _piece_codes."""
    size = len(symbols)
    if code == 0:
        return ()
    if code <= size:
        return (symbols[code - 1],)
    first, second = divmod(code - 1 - size, size)
    return (symbols[first], symbols[second])


class _Block:
    """The chunk lattices of one block of training rows as integer arrays,
    built once per fit, with one batched forward-backward pass per EM
    iteration and one max-plus pass for the Viterbi chunking. Identical
    rows share one lattice: rows are the block's distinct rows, and copies
    gives the distinct row of every row.

    Cells (i, j) of all distinct rows are numbered by anti-diagonal i + j,
    then row, then i, so that each diagonal is one contiguous slice. Edges
    are stored in the order the per-row recursion visits them (row, source
    cell row-major, then _SHAPES). Alpha sums each cell's incoming edges in
    that order and beta each cell's outgoing edges in reverse, and counts
    add up in edge order, so every float sum is the one the per-row
    recursion makes. Alpha and beta are scaled per row and diagonal by a
    power of two, which is exact wherever the unscaled value is a normal
    float and keeps long rows from underflowing (Rabiner 1989).
    """

    def __init__(self, rows: list[tuple[tuple[str, ...], str]], copies: list[int],
                 seg_ids: dict[str, int], char_ids: dict[str, int],
                 fields: list[np.ndarray]):
        self._rows = len(rows)
        m = np.array([len(segs) for segs, _ in rows], dtype=np.int64)
        n = np.array([len(graph) for _, graph in rows], dtype=np.int64)
        last = m + n
        # (row, diagonal) entries, row by row, each row followed by one spare
        # whose exponent stays 0: the scale a final cell's beta refers to
        rd_base = np.concatenate(([0], np.cumsum(last + 2)))
        rd_row = np.repeat(np.arange(self._rows), last + 2)
        rd_diag = np.arange(rd_base[-1]) - rd_base[rd_row]
        first_i = np.maximum(rd_diag - n[rd_row], 0)
        width = np.maximum(np.minimum(m[rd_row], rd_diag) - first_i + 1, 0)
        by_diag = np.lexsort((rd_row, rd_diag))
        by_diag = by_diag[width[by_diag] > 0]
        cell_end = np.cumsum(width[by_diag])
        # cell (i, j) of row r is cell_start[rd_base[r] + i + j] + i
        cell_start = np.zeros_like(width)
        cell_start[by_diag] = cell_end - width[by_diag]
        cell_start -= first_i
        self._n_cells = int(width.sum())
        self._n_rd = len(rd_row)
        self._cell_row = np.repeat(rd_row[by_diag], width[by_diag]).astype(np.int32)
        self._final_cell = cell_start[rd_base[:-1] + last] + m

        shapes: dict[tuple[int, int], list[int]] = {}
        for r, (segs, graph) in enumerate(rows):
            shapes.setdefault((len(segs), len(graph)), []).append(r)
        templates = {shape: _lattice_edges(*shape) for shape in shapes}
        row_edges = np.zeros(self._rows, dtype=np.int64)
        for shape, members in shapes.items():
            row_edges[members] = len(templates[shape][0])
        edge_base = np.concatenate(([0], np.cumsum(row_edges)))
        n_edges = int(edge_base[-1])
        n_segs, n_chars = len(seg_ids), len(char_ids)
        letter_codes = 1 + n_chars + n_chars * n_chars
        # five int32 arrays and one int8 array of n_edges entries, filled here
        src, tgt, cid, fwd, bwd, rank = fields
        keys = np.empty(n_edges, dtype=np.int64)
        for shape, members in shapes.items():
            ti, tj, ts = templates[shape]
            tp, tg = _SHAPE_P[ts], _SHAPE_G[ts]
            base = rd_base[members][:, None]
            at = edge_base[members][:, None] + np.arange(len(ti))
            src[at] = cell_start[base + ti + tj] + ti
            tgt[at] = cell_start[base + ti + tp + tj + tg] + ti + tp
            rank[at] = _TIE_RANK[ts]
            phones = _piece_codes(np.array([[seg_ids[s] for s in rows[r][0]] for r in members]),
                                  n_segs)
            letters = _piece_codes(np.array([[char_ids[c] for c in rows[r][1]] for r in members]),
                                   n_chars)
            keys[at] = phones[:, ti, tp] * letter_codes + letters[:, tj, tg]
        self.codes, cid[:] = np.unique(keys, return_inverse=True)
        del keys
        self._src, self._tgt, self._cid, self._rank = src, tgt, cid, rank
        # edges grouped by target, and by source with the shapes reversed
        fwd[:] = np.argsort(tgt, kind="stable")
        bwd[:] = n_edges - 1 - np.argsort(src[::-1], kind="stable")
        self._fwd, self._bwd = fwd, bwd
        # the distinct row of every row, and the first edge of every distinct row
        self.copies = np.array(copies, dtype=np.intp)
        self._edge_base = edge_base

        diag_end = np.searchsorted(rd_diag[by_diag], np.arange(int(last.max(initial=-1)) + 1),
                                   side="right")
        cell_lo = np.concatenate(([0], cell_end[diag_end - 1]))
        fwd_lo = np.searchsorted(tgt[self._fwd], cell_lo)
        bwd_lo = np.searchsorted(src[self._bwd], cell_lo)
        # per diagonal: its cells, its forward and backward edges, and its
        # (row, diagonal) entries with their offsets and widths in the slice
        self._diags = []
        rd_lo = 0
        for d, rd_hi in enumerate(diag_end.tolist()):
            rds = by_diag[rd_lo:rd_hi]
            lo = int(cell_lo[d])
            self._diags.append((lo, int(cell_lo[d + 1]), int(fwd_lo[d]), int(fwd_lo[d + 1]),
                                int(bwd_lo[d]), int(bwd_lo[d + 1]), rds,
                                cell_start[rds] + first_i[rds] - lo, width[rds]))
            rd_lo = rd_hi

    def number_chunks(self, codes: np.ndarray) -> None:
        """Renumber the block's chunk ids as indices into the sorted codes."""
        self._cid[:] = np.searchsorted(codes, self.codes)[self._cid]

    @staticmethod
    def _rescale(values, exps, cell_exps, lo, hi, rds, offsets, widths, ref):
        """Scale each (row, diagonal) block of values[lo:hi] so that its
        maximum lies in [0.5, 1), and record the block's exponent, relative
        to the exponent of the (row, diagonal) entries ref."""
        block = values[lo:hi]
        shift = np.frexp(np.maximum.reduceat(block, offsets))[1]
        values[lo:hi] = np.ldexp(block, -np.repeat(shift, widths))
        exps[rds] = exps[ref] + shift
        cell_exps[lo:hi] = np.repeat(exps[rds], widths)

    def _forward(self, weights: np.ndarray):
        """Scaled alpha and its exponent per cell."""
        src, tgt, cid = self._src, self._tgt, self._cid
        alpha = np.zeros(self._n_cells)
        alpha[:self._rows] = 1.0  # diagonal 0 holds each row's start cell, in row order
        # true alpha = alpha * 2 ** alpha_exp, kept per (row, diagonal) and per cell
        ea = np.zeros(self._n_rd, dtype=np.int32)
        alpha_exp = np.zeros(self._n_cells, dtype=np.int32)
        for lo, hi, f0, f1, _, _, rds, offsets, widths in self._diags[1:]:
            e = self._fwd[f0:f1]
            s, t = src[e], tgt[e] - lo
            v = alpha[s] * weights[cid[e]]
            # to the scale of the same row's previous diagonal
            np.ldexp(v, alpha_exp[s] - np.repeat(ea[rds - 1], widths)[t], out=v)
            alpha[lo:hi] = np.bincount(t, v, hi - lo)
            self._rescale(alpha, ea, alpha_exp, lo, hi, rds, offsets, widths, rds - 1)
        return alpha, alpha_exp

    def z(self, weights: np.ndarray):
        """Scaled z and its exponent for every row of the block."""
        alpha, alpha_exp = self._forward(weights)
        final = self._final_cell[self.copies]
        return alpha[final], alpha_exp[final]

    def posteriors(self, weights: np.ndarray):
        """(chunk id, posterior) of every edge of every row in row order, 0
        for rows without a path, and scaled z and its exponent per row."""
        src, tgt, cid = self._src, self._tgt, self._cid
        alpha, alpha_exp = self._forward(weights)
        beta = np.zeros(self._n_cells)
        beta[self._final_cell] = 1.0
        eb = np.zeros(self._n_rd, dtype=np.int32)
        beta_exp = np.zeros(self._n_cells, dtype=np.int32)
        for lo, hi, _, _, b0, b1, rds, offsets, widths in reversed(self._diags):
            e = self._bwd[b0:b1]
            s, t = src[e] - lo, tgt[e]
            v = weights[cid[e]] * beta[t]
            # to the scale of the same row's next diagonal
            np.ldexp(v, beta_exp[t] - np.repeat(eb[rds + 1], widths)[s], out=v)
            beta[lo:hi] += np.bincount(s, v, hi - lo)
            self._rescale(beta, eb, beta_exp, lo, hi, rds, offsets, widths, rds + 1)
        z = alpha[self._final_cell]
        z_exp = alpha_exp[self._final_cell]
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
        edges = np.arange(int(sizes.sum())) + np.repeat(start - np.cumsum(sizes) + sizes, sizes)
        return cid[edges], post[edges], z[self.copies], z_exp[self.copies]

    def best_paths(self, logs: np.ndarray) -> list[list[int] | None]:
        """Chunk ids along the best path of every distinct row under chunk
        log weights, None for a row without a path. Float max is exact, so
        the best score does not depend on the order of the edges; among
        equal-score edges into one cell the lowest _TIE_RANK wins."""
        src, cid = self._src, self._cid
        score = np.full(self._n_cells, -math.inf)
        score[:self._rows] = 0.0
        back = np.empty(self._n_cells, dtype=np.int32)  # the best edge into each cell
        for lo, hi, f0, f1, *_ in self._diags[1:]:
            e = self._fwd[f0:f1]
            t = self._tgt[e] - lo
            # every cell past diagonal 0 has an incoming edge, and e lists
            # each cell's edges together
            starts = np.searchsorted(t, np.arange(hi - lo))
            cand = score[src[e]] + logs[cid[e]]
            best = np.maximum.reduceat(cand, starts)
            rank = np.where(cand == best[t], self._rank[e], len(_SHAPES))
            score[lo:hi] = best
            back[lo:hi] = e[rank == np.minimum.reduceat(rank, starts)[t]]
        # walk all rows back from their final cells at once, one edge a step
        reached = np.flatnonzero(score[self._final_cell] > -math.inf)
        on_path = np.zeros(len(cid), dtype=bool)
        cells = self._final_cell[reached]
        while len(cells):
            e = back[cells]
            on_path[e] = True
            cells = src[e]
            cells = cells[cells >= self._rows]  # diagonal 0 holds the start cells
        # edges are stored by row, then source cell row-major, and the cells
        # of a path rise in that order: edge order is path order
        edges = np.flatnonzero(on_path)
        ids = cid[edges].tolist()
        ends = np.searchsorted(edges, self._edge_base[reached + 1]).tolist()
        paths: list[list[int] | None] = [None] * self._rows
        for r, lo, hi in zip(reached.tolist(), [0] + ends, ends):
            paths[r] = ids[lo:hi]
        return paths


class _Lattices:
    """The chunk lattices of all training rows, compiled in blocks of
    _BLOCK_ROWS rows so that the arrays of one pass stay bounded, with chunk
    ids shared by all blocks. Counts add up block by block in row order
    (np.add.at adds in index order), as one pass over all rows would."""

    def __init__(self, rows: list[tuple[tuple[str, ...], str]]):
        seg_ids: dict[str, int] = {}
        char_ids: dict[str, int] = {}
        for segs, graph in rows:
            for s in segs:
                seg_ids.setdefault(s, len(seg_ids))
            for c in graph:
                char_ids.setdefault(c, len(char_ids))
        blocks = []
        for b in range(0, len(rows), _BLOCK_ROWS):
            distinct: dict[tuple[tuple[str, ...], str], int] = {}
            copies = [distinct.setdefault(row, len(distinct)) for row in rows[b:b + _BLOCK_ROWS]]
            blocks.append((list(distinct), copies))
        ends = np.cumsum([0] + [sum(_edge_count(len(segs), len(graph)) for segs, graph in distinct)
                                for distinct, _ in blocks])
        # one allocation per edge field for all blocks: many block-sized
        # arrays land in the C heap, which keeps their pages after the fit
        fields = [np.empty(int(ends[-1]), dtype=dtype) for dtype in [np.int32] * 5 + [np.int8]]
        self._blocks = [_Block(distinct, copies, seg_ids, char_ids, [f[lo:hi] for f in fields])
                        for (distinct, copies), lo, hi in zip(blocks, ends[:-1], ends[1:])]
        self._codes = np.unique(np.concatenate([np.zeros(0, dtype=np.int64)]
                                               + [block.codes for block in self._blocks]))
        for block in self._blocks:
            block.number_chunks(self._codes)
        self.n_chunks = len(self._codes)
        self._symbols = (list(seg_ids), list(char_ids), 1 + len(char_ids) + len(char_ids) ** 2)

    def chunk(self, chunk_id: int) -> Chunk:
        segs, chars, letter_codes = self._symbols
        phones, letters = divmod(int(self._codes[chunk_id]), letter_codes)
        return (_piece(phones, segs), "".join(_piece(letters, chars)))

    def expected_counts(self, weights: np.ndarray):
        """One E step under chunk weights: (expected count per chunk id, the
        chunk ids in order of their first positive posterior, rows without
        a path, sum of log z over the other rows)."""
        counts = np.zeros(self.n_chunks)
        never = np.iinfo(np.int64).max
        first = np.full(self.n_chunks, never)
        edges = unalignable = 0
        log_z = []
        for block in self._blocks:
            cid, post, z, z_exp = block.posteriors(weights)
            np.add.at(counts, cid, post)
            positive = np.flatnonzero(post > 0.0)
            np.minimum.at(first, cid[positive], edges + positive)
            edges += len(post)
            unalignable += int(np.count_nonzero(z <= 0.0))
            log_z.append(_log_z(z, z_exp))
        order = np.argsort(first)[:np.count_nonzero(first < never)]
        return counts, order, unalignable, sum(log_z)

    def log_likelihood(self, weights: np.ndarray) -> float:
        """Sum of log z over the rows with a path under chunk weights."""
        return sum(_log_z(*block.z(weights)) for block in self._blocks)

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
    them. The first E pass weights every allowed chunk uniformly, so the
    initial expected counts are pure path statistics; later passes reweight
    by the current chunk distribution. viterbi() then reads the best
    chunking of every pair off the same lattices, and releases them.
    """

    def __init__(self):
        self.probs: dict[Chunk, float] = {}
        # what viterbi() reads: the ratio check per pair, the lattices of
        # the pairs that pass it, the log weight per chunk id, and the
        # chunk of every kept id
        self._fitted: tuple[list[bool], _Lattices, np.ndarray, dict[int, Chunk]] | None = None

    def fit(self, pairs: Sequence[tuple[tuple[str, ...], str]], iterations: int = 6,
            min_prob: float = 1e-12) -> dict[str, int | list[float]]:
        """Run EM over (segments, grapheme) pairs; returns skip counters and,
        per iteration, the log-likelihood of the table it made: the sum of
        log z over the rows that table aligns."""
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        pairs = [(tuple(segs), graph) for segs, graph in pairs]
        ok = [_ratio_ok(len(segs), len(graph)) for segs, graph in pairs]
        usable = list(itertools.compress(pairs, ok))
        log_likelihood: list[float] = []
        stats = {"pairs": len(pairs), "ratio_skipped": len(pairs) - len(usable),
                 "unalignable": 0, "log_likelihood": log_likelihood}
        lattices = _Lattices(usable)
        weights = np.ones(lattices.n_chunks)
        kept = np.zeros(0, dtype=np.intp)
        for k in range(iterations):
            counts, order, unalignable, previous = lattices.expected_counts(weights)
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
            stats["unalignable"] = unalignable
        else:  # and that of the final table, by one more forward pass
            log_likelihood.append(lattices.log_likelihood(weights))
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
        at one lattice cell, the one with fewer symbols, then fewer
        phonemes, wins. Releases the lattices, so it runs once per fit()."""
        if self._fitted is None:
            raise RuntimeError("viterbi() reads the lattices of a fit() not yet read")
        ok, lattices, logs, chunks = self._fitted
        self._fitted = None
        chunkings = iter(lattices.best_chunkings(logs, chunks))
        return [next(chunkings) if good else None for good in ok]


def _check_order_discount(order: int, discount: float) -> None:
    if isinstance(order, bool) or not isinstance(order, int) or order < 1:
        raise ValueError("order must be an integer >= 1")
    if not 0.0 < discount < 1.0:
        raise ValueError("discount must be in (0, 1)")


class JointModel:
    """Interpolated n-gram model over joint chunk tokens.

    Tokens live in one sorted table, the one the model file stores, and the
    n-gram counts, contexts and vocabulary refer to them by their index in
    it. Absolute discounting with a fixed discount recurses to a uniform
    distribution over the observed vocabulary, so every conditional
    distribution sums to one. Every trained token is counted under the empty
    context, so that bucket holds the vocabulary and the trained tags.
    """

    def __init__(
        self,
        order: int,
        discount: float,
        tokens: list[Token],
        counts: dict[tuple[int, ...], dict[int, int]],
        training_stats: dict[str, int | list[float]] | None = None,
    ):
        _check_order_discount(order, discount)
        self.order = order
        self.discount = discount
        self.tokens = tokens
        self.counts = counts
        self.training_stats = dict(training_stats or {})
        self.ids = {tok: i for i, tok in enumerate(self.tokens)}
        if EOS not in self.ids or (order > 1 and BOS not in self.ids):
            raise ValueError("token table lacks the sentence boundary tokens")
        self.vocab: frozenset[int] = frozenset(counts.get((), ()))
        self.tags = frozenset(self.tokens[i][1] for i in self.vocab if self.tokens[i][0] == "tag")
        # chunk ids and letters by phoneme tuple, letters in table order
        self.chunk_index: dict[tuple[str, ...], list[tuple[int, str]]] = {}
        for i in sorted(self.vocab):
            tok = self.tokens[i]
            if tok[0] == "chunk":
                self.chunk_index.setdefault(tok[1], []).append((i, tok[2]))
        self._ctx_stats: dict[tuple[int, ...], tuple[int, int]] = {
            ctx: (sum(bucket.values()), len(bucket)) for ctx, bucket in counts.items()
        }
        self._prob_cache: dict[tuple[tuple[int, ...], int], float] = {}

    def prob(self, token: int, context: Sequence[int]) -> float:
        """P(token | context) of token ids; a context over order-1 is truncated."""
        context = tuple(context)[-(self.order - 1):] if self.order > 1 else ()
        return self._prob(token, context)

    def _prob(self, token: int, context: tuple[int, ...]) -> float:
        # an unseen history puts full weight on its longest trained suffix, so
        # the cache holds trained contexts only and stays bounded by the model
        while context and context not in self.counts:
            context = context[1:]
        key = (context, token)
        cached = self._prob_cache.get(key)
        if cached is not None:
            return cached
        uniform = 1.0 / max(1, len(self.vocab))
        bucket = self.counts.get(context)
        if bucket is None:
            value = uniform
        else:
            total, distinct = self._ctx_stats[context]
            hi = max(bucket.get(token, 0) - self.discount, 0.0) / total
            lam = self.discount * distinct / total
            value = hi + lam * (self._prob(token, context[1:]) if context else uniform)
        self._prob_cache[key] = value
        return value

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
            "discount": self.discount,
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
            if any(a >= b for a, b in zip(tokens, tokens[1:])):
                raise ValueError("token table not sorted or not distinct")
            counts: dict[tuple[int, ...], dict[int, int]] = {}
            for row in doc["ngrams"]:
                *ctx, tok, cnt = row
                ctx = tuple(ctx)
                bucket = counts.get(ctx)
                if bucket is None:
                    if len(ctx) >= doc["order"] or not all(_is_id(i, len(tokens)) for i in ctx):
                        raise ValueError(f"n-gram context too long or not token ids: {row}")
                    bucket = counts[ctx] = {}
                if not (_is_id(tok, len(tokens)) and _is_id(cnt) and cnt and tok not in bucket):
                    raise ValueError(f"bad token id, count or repeated n-gram: {row}")
                bucket[tok] = cnt
            return cls(doc["order"], doc["discount"], tokens, counts)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: not a readable model file "
                             f"({type(exc).__name__}: {exc})") from None


def _is_id(value, size: float = math.inf) -> bool:
    return type(value) is int and 0 <= value < size  # json reads true as a bool


def train(
    lex: Lexicon,
    order: int = 6,
    em_iterations: int = 6,
    discount: float = 0.75,
    scripts: ScriptTable | None = None,
) -> JointModel:
    """Train on a lexicon, each entry tagged with its language and script."""
    if len(lex) == 0:
        raise EmptyLexiconError("cannot train on an empty lexicon")
    rows = [(lang_script_tag(e, scripts), e.ipa, e.grapheme) for e in lex]
    return train_tagged(rows, order, em_iterations, discount)


def train_tagged(
    rows: Sequence[tuple[str, IpaString, str]],
    order: int = 6,
    em_iterations: int = 6,
    discount: float = 0.75,
) -> JointModel:
    """Train from pre-tagged (tag, ipa, target) rows, e.g. an augmented
    training stream: fit the chunk aligner by EM, then count tagged joint
    n-grams over each row's Viterbi chunking."""
    if not rows:
        raise EmptyLexiconError("cannot train on an empty example stream")
    # bad settings fail here, not after EM; fit itself rejects em_iterations < 1
    _check_order_discount(order, discount)
    aligner = ChunkAligner()
    stats = aligner.fit([(tuple(seg.text for seg in ipa.segments), target)
                         for _, ipa, target in rows], iterations=em_iterations)
    streams = [[BOS] * (order - 1) + [_tag_token(tag), *map(_chunk_token, chunks), EOS]
               for (tag, _, _), chunks in zip(rows, aligner.viterbi()) if chunks is not None]
    if not streams:
        raise EmptyLexiconError("no entry could be aligned")
    tokens = sorted(set().union(*streams))
    ids = {tok: i for i, tok in enumerate(tokens)}
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    for row in streams:
        stream = [ids[tok] for tok in row]
        for t in range(order - 1, len(stream)):
            target = stream[t]
            for n in range(1, order + 1):
                bucket = counts.setdefault(tuple(stream[t - n + 1:t]), {})
                bucket[target] = bucket.get(target, 0) + 1
    stats["alignment_failures"] = len(rows) - len(streams)
    stats["trained_on"] = len(streams)
    return JointModel(order, discount, tokens, counts, stats)


def effective_beam_width(n_best: int, beam_width: int | None = None) -> int:
    """The beam width decode will use: explicit, else 3x the request size."""
    return beam_width if beam_width is not None else 3 * n_best


def beam_decode(
    model: JointModel,
    tag: str,
    ipa: IpaString,
    n_best: int,
    beam_width: int | None = None,
) -> list[Candidate]:
    """Breadth-limited n-best search over trained chunks.

    Hypotheses finalize by paying the EOS probability once all input segments
    are consumed; the search stops early when n_best surfaces are finalized
    and the best active hypothesis can no longer beat the worst kept one
    (scores only decrease as log probabilities accumulate). Output length is
    bounded by 3 x segments + 5 characters.
    """
    if n_best < 1:
        raise ValueError("n_best must be >= 1")
    if not ipa.segments:
        raise EmptyInputError("cannot decode an empty transcription")
    width = effective_beam_width(n_best, beam_width)
    if width < 1:
        raise ValueError("beam_width must be >= 1")
    segs = tuple(seg.text for seg in ipa.segments)
    max_out = 3 * len(segs) + 5
    ctx_len = model.order - 1
    context: tuple[int, ...] = (model.ids[BOS],) * ctx_len if ctx_len else ()
    if tag in model.tags:
        if ctx_len:
            context = (context + (model.ids[_tag_token(tag)],))[-ctx_len:]
    else:
        warnings.warn(f"tag {tag!r} not seen in training; decoding untagged",
                      UnknownTagWarning, stacklevel=2)

    eos = model.ids[EOS]
    index = model.chunk_index
    # hypothesis: (log_prob, consumed segments, context, surface)
    active: list[tuple[float, int, tuple[int, ...], str]] = [(0.0, 0, context, "")]
    finalized: dict[str, float] = {}
    max_rounds = len(segs) + max_out + 2
    for _ in range(max_rounds):
        expanded: list[tuple[float, int, tuple[int, ...], str]] = []
        for lp, pos, ctx, out in active:
            if pos == len(segs):
                flp = lp + model.log_prob(eos, ctx)
                prev = finalized.get(out)
                if prev is None or flp > prev:
                    finalized[out] = flp
            for plen in (0, 1, 2):
                if pos + plen > len(segs):
                    break
                for tok, letters in index.get(segs[pos:pos + plen], ()):
                    out2 = out + letters
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
    _write_rows(path, ((tag, ipa_text, str(cand.beam_rank), cand.grapheme, repr(cand.log_score))
                       for tag, ipa_text, candidates in blocks for cand in candidates))


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
        return key, Candidate(grapheme, score, rank)

    for key, cand in _parse_rows(path, parse):
        result.setdefault(key, []).append(cand)
    return result
