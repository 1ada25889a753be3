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


class VectorIndex:
    """Exact nearest-neighbour queries over a fixed embedding matrix.

    Distances are Euclidean; ties are broken by row order (stable sort), so
    query results are deterministic for a fixed matrix.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise DimensionMismatchError(f"expected a 2-d matrix, got {matrix.ndim}-d")
        self.matrix = matrix

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @property
    def dims(self) -> int:
        return self.matrix.shape[1]

    def query(self, vector: np.ndarray, k: int) -> list[tuple[int, float]]:
        """k nearest rows to vector as (row index, distance), nearest first."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dims,):
            raise DimensionMismatchError(
                f"query has shape {vector.shape}, index rows have {self.dims}")
        dists = np.linalg.norm(self.matrix - vector, axis=1)
        if 0 < k < len(dists):
            # only rows at or under the k-th smallest distance can be in the
            # first k of the full stable sort, and they keep its order
            kth = np.partition(dists, k - 1)[k - 1]
            near = np.flatnonzero(dists <= kth)
            order = near[np.argsort(dists[near], kind="stable")][:k]
        else:
            order = np.argsort(dists, kind="stable")[:k]
        return [(int(i), float(dists[i])) for i in order]

    def query_row(self, row: int, k: int) -> list[tuple[int, float]]:
        """k nearest rows to the stored row, the row itself excluded."""
        hits = self.query(self.matrix[row], k + 1)
        return [(i, d) for i, d in hits if i != row][:k]


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
