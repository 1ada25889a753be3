"""Two-stage mining of sound-alike pronunciation pairs.

Stage one retrieves nearest neighbours in the averaged feature-vector space,
which is cheap but approximate. Stage two rescoring runs the exact weighted
segment edit distance on the surviving candidate pairs and keeps those at or
under the distance threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError
from .features import (
    DistanceParams,
    FeatureTable,
    _edit_distances,
    _vocab_and_costs,
    default_feature_table,
    string_embedding,
)
from .ipa import IpaInventory, IpaString, _parse_rows, _write_rows, parse_ipa
from .lexicon import PronEntry

__all__ = [
    "VectorIndex",
    "MiningParams",
    "build_embedding_matrix",
    "write_embeddings_tsv",
    "mine_soundalikes",
    "write_pairs_tsv",
    "read_pairs_tsv",
]


# Working memory of one block of kNN queries: a block has as many query rows
# as fit one float64 per (query row, index row) in this budget, its other
# temporaries are a few arrays of that size, and the exact distances are
# taken in chunks of as many pairs as fit one float64 per dimension.
_KNN_BLOCK_BYTES = 1 << 17


class VectorIndex:
    """Exact nearest-neighbour queries over a fixed embedding matrix.

    Distances are Euclidean; ties are broken by row order (stable sort), so
    query results are deterministic for a fixed matrix. The index keeps its
    own read-only copy of the matrix.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.array(matrix, dtype=np.float64, order="C")
        if matrix.ndim != 2:
            raise DimensionMismatchError(f"expected a 2-d matrix, got {matrix.ndim}-d")
        if not np.isfinite(matrix).all():
            raise ValueError("index matrix has non-finite values")
        matrix.flags.writeable = False
        self.matrix = matrix
        self._sq_norms = np.einsum("ij,ij->i", matrix, matrix)
        self._max_norm = float(np.sqrt(self._sq_norms.max())) if len(matrix) else 0.0
        # query_row's last block: ((k, first row, end row), rows, distances)
        self._block: tuple[tuple[int, int, int], np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @property
    def dims(self) -> int:
        return self.matrix.shape[1]

    def _nearest(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k nearest rows to each query row, as (rows, distances) arrays
        of shape (len(queries), min(k, len(self))), each line ordered by
        (distance, row): the first k of a stable sort of the distances.

        For k < n, one matrix product screens the squared distances
        |q|^2 + |m|^2 - 2 q.m and keeps every row within a rounding margin of
        each query's k-th screened value. Both the screened value and the
        exact distance are within delta of the true squared distance, where
        delta = gamma_{D+4} (|q| + max|m|)^2, so the true first k are all
        within 2 delta of the k-th screened value. The kept rows then get the
        exact distance, norm(m - q), in the same floats as a full scan.
        """
        n, dims = self.matrix.shape
        b = len(queries)
        width = min(k, n)
        if width == 0:
            return np.empty((b, 0), dtype=np.intp), np.empty((b, 0))
        q_sq = np.einsum("ij,ij->i", queries, queries)
        # twice the margin of the docstring, plus an absolute term for
        # underflow; where it overflows, the screen is skipped
        with np.errstate(over="ignore"):
            slack = 4 * (dims + 4) * (np.finfo(np.float64).eps
                                      * (np.sqrt(q_sq) + self._max_norm) ** 2 + 2.0 ** -1070)
        if k < n and np.isfinite(slack).all():
            screen = queries @ self.matrix.T
            screen *= -2.0
            screen += q_sq[:, None]
            screen += self._sq_norms
            kth = np.partition(screen, k - 1, axis=1)[:, k - 1]
            qi, rows = np.nonzero(screen <= (kth + slack)[:, None])
        else:
            qi = np.repeat(np.arange(b), n)
            rows = np.tile(np.arange(n), b)
        dists = np.empty(len(rows))
        step = max(1, _KNN_BLOCK_BYTES // (8 * max(1, dims)))
        for s in range(0, len(rows), step):
            dists[s:s + step] = np.linalg.norm(
                self.matrix[rows[s:s + step]] - queries[qi[s:s + step]], axis=1)
        order = np.lexsort((rows, dists, qi))
        qi, rows, dists = qi[order], rows[order], dists[order]
        rank = np.arange(len(qi)) - np.searchsorted(qi, qi)
        first = rank < width
        return rows[first].reshape(b, width), dists[first].reshape(b, width)

    def _check_k(self, k: int) -> None:
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")

    def query(self, vector: np.ndarray, k: int) -> list[tuple[int, float]]:
        """k nearest rows to vector as (row index, distance), nearest first."""
        self._check_k(k)
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dims,):
            raise DimensionMismatchError(
                f"query has shape {vector.shape}, index rows have {self.dims}")
        if not np.isfinite(vector).all():
            raise ValueError("query has non-finite values")
        rows, dists = self._nearest(vector[None, :], k)
        return list(zip(rows[0].tolist(), dists[0].tolist()))

    def query_row(self, row: int, k: int) -> list[tuple[int, float]]:
        """k nearest rows to the stored row, the row itself excluded.

        Rows are answered a block at a time: a call computes the hits of every
        row in its block, and later calls with the same k for rows of that
        block read them, so asking for rows in order costs one block query
        per block."""
        self._check_k(k)
        n = len(self)
        if not 0 <= row < n:
            raise IndexError(f"row {row} is out of range for an index of {n} rows")
        size = max(1, _KNN_BLOCK_BYTES // (8 * n))
        lo = row - row % size
        hi = min(n, lo + size)
        block = self._block
        if block is None or block[0] != (k, lo, hi):
            rows, dists = self._nearest(self.matrix[lo:hi], k + 1)
            # drop each line's own row, or its last hit where the row is not
            # among the k + 1 nearest
            keep = rows != np.arange(lo, hi)[:, None]
            keep &= np.cumsum(keep, axis=1) < rows.shape[1]
            shape = (hi - lo, rows.shape[1] - 1)
            block = self._block = ((k, lo, hi), rows[keep].reshape(shape),
                                   dists[keep].reshape(shape))
        _, rows, dists = block
        return list(zip(rows[row - lo].tolist(), dists[row - lo].tolist()))


@dataclass(frozen=True)
class MiningParams:
    k: int = 10000
    threshold: float = 5.0
    exclude_existing: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.threshold < 0:
            raise ValueError("threshold must be >= 0")


def build_embedding_matrix(
    entries: Sequence[PronEntry], table: FeatureTable | None = None
) -> np.ndarray:
    """One embedding row per entry, in entry order."""
    table = table or default_feature_table()
    if not entries:
        return np.zeros((0, table.dims), dtype=np.float64)
    return np.stack([string_embedding(e.ipa, table) for e in entries])


def write_embeddings_tsv(path, matrix: np.ndarray) -> None:
    """Rows as id<TAB>v1<TAB>...<TAB>vD; ids are 0-based row positions."""
    _write_rows(path, ([str(i), *map(repr, row)]
                       for i, row in enumerate(np.asarray(matrix, dtype=np.float64).tolist())))


def _nearest_pairs(entries: Sequence[PronEntry], k: int, table: FeatureTable):
    """Unordered pairs i < j where either is among the other's k nearest
    neighbours, as index arrays in (i, j) order."""
    index = VectorIndex(build_embedding_matrix(entries, table))
    n = len(index)
    near = np.empty((n, k), dtype=np.intp)
    for i in range(n):
        near[i] = [j for j, _ in index.query_row(i, k)]
    rows = np.repeat(np.arange(n), k)
    cols = near.ravel()
    keys = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols))
    return keys // n, keys % n


def mine_soundalikes(
    entries: Sequence[PronEntry],
    params: MiningParams | None = None,
    distance: DistanceParams | None = None,
    table: FeatureTable | None = None,
) -> list[tuple[int, int, float]]:
    """Mine unordered entry pairs whose exact feature edit distance is at or
    below the threshold, as (i, j, distance) with i < j indexing entries, in
    (i, j) order.

    Candidate generation takes the union of each entry's k nearest
    neighbours, so with k >= len(entries) - 1 the candidate set is every
    pair and the result is exhaustive. With exclude_existing, a pair is
    dropped when the entries already give one side's grapheme the other
    side's transcription in the same language.
    """
    params = params or MiningParams()
    distance = distance or DistanceParams()
    table = table or default_feature_table()
    entries = list(entries)
    if len(entries) < 2:
        return []

    I, J = _nearest_pairs(entries, min(params.k, len(entries) - 1), table)
    codes, lengths, costs = _vocab_and_costs([e.ipa for e in entries], table, distance.sub_scale)
    kept = _edit_distances(codes, lengths, I, J, costs, distance.insert_cost,
                           distance.delete_cost, params.threshold)
    pairs = list(zip(*(column.tolist() for column in kept)))
    if params.exclude_existing:
        known = {(e.lang, e.grapheme, e.ipa.text) for e in entries}
        pairs = [(i, j, d) for i, j, d in pairs
                 if (entries[i].lang, entries[i].grapheme, entries[j].ipa.text) not in known
                 and (entries[j].lang, entries[j].grapheme, entries[i].ipa.text) not in known]
    return pairs


_PAIR_COLUMNS = ("lang_a", "grapheme_a", "ipa_a", "lang_b", "grapheme_b", "ipa_b", "distance")


def write_pairs_tsv(path, entries: Sequence[PronEntry],
                    pairs: Sequence[tuple[int, int, float]]) -> None:
    """One row per mined (i, j, distance): entry i's lang, grapheme and ipa,
    then entry j's, then the distance."""
    sides = [(e.lang, e.grapheme, e.ipa.text) for e in entries]
    _write_rows(path, ((*sides[i], *sides[j], repr(d)) for i, j, d in pairs), _PAIR_COLUMNS)


def read_pairs_tsv(
    path, inventory: IpaInventory | None = None,
) -> dict[tuple[str, str, str], list[IpaString]]:
    """The pairs file as augment's variant map: each side's (lang, grapheme,
    ipa) maps to the other sides' transcriptions, in file order, each kept
    once. Every distinct transcription is parsed once."""
    parsed: dict[str, IpaString] = {}

    def ipa(text: str) -> IpaString:
        if text not in parsed:
            parsed[text] = parse_ipa(text, inventory)
        return parsed[text]

    def parse(la: str, ga: str, ia: str, lb: str, gb: str, ib: str, d: str):
        a, b = ipa(ia), ipa(ib)
        float(d)  # the distance is not used, but must be a number
        return ((la, ga, a.text), b), ((lb, gb, b.text), a)

    variants: dict[tuple[str, str, str], list[IpaString]] = {}
    for row in _parse_rows(path, parse, len(_PAIR_COLUMNS), "<TAB>".join(_PAIR_COLUMNS)):
        for key, variant in row:
            bucket = variants.setdefault(key, [])
            if variant not in bucket:
                bucket.append(variant)
    return variants
