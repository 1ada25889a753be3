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

from .errors import BothEmptyError, DimensionMismatchError, EmptyOriginalError
from .features import (
    DistanceParams,
    FeatureTable,
    _edit_distances,
    _vocab_and_costs,
    default_feature_table,
    normalized_feature_distance,
    string_embedding,
)
from .ipa import IpaInventory, IpaString, _parse_rows, _tsv_rows, parse_ipa, strip_diacritics_tones
from .lexicon import Lexicon, PronEntry
from .metrics import cer

__all__ = [
    "VectorIndex",
    "MiningParams",
    "SoundalikePair",
    "build_embedding_matrix",
    "write_embeddings_tsv",
    "load_embeddings_tsv",
    "mine_soundalikes",
    "write_pairs_tsv",
    "read_pairs_tsv",
    "filter_generation_by_cer",
    "filter_by_feature_distance",
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


@dataclass(frozen=True)
class SoundalikePair:
    entry_a: PronEntry
    entry_b: PronEntry
    distance: float


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
    with open(path, "w", encoding="utf-8") as fh:
        for i, row in enumerate(np.asarray(matrix, dtype=np.float64)):
            fh.write(str(i) + "\t" + "\t".join(repr(float(v)) for v in row) + "\n")


def load_embeddings_tsv(path) -> np.ndarray:
    rows: list[list[float]] = []
    for line_no, parts in _tsv_rows(path):
        if int(parts[0]) != len(rows):
            raise ValueError(f"{path}: line {line_no}: ids must be 0-based row positions")
        rows.append([float(v) for v in parts[1:]])
    if not rows:
        return np.zeros((0, 0), dtype=np.float64)
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DimensionMismatchError(f"ragged embedding rows: widths {sorted(widths)}")
    return np.array(rows, dtype=np.float64)


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
    known: Lexicon | None = None,
) -> list[SoundalikePair]:
    """Mine unordered entry pairs whose exact feature edit distance is at or
    below the threshold.

    Candidate generation takes the union of each entry's k nearest
    neighbours, so with k >= len(entries) - 1 the candidate set is every
    pair and the result is exhaustive. With exclude_existing, pairs that the
    known lexicon already records as pronunciation variants of each other
    are dropped.
    """
    params = params or MiningParams()
    if params.exclude_existing and known is None:
        raise ValueError("exclude_existing needs the known lexicon")
    distance = distance or DistanceParams()
    table = table or default_feature_table()
    entries = list(entries)
    if len(entries) < 2:
        return []

    I, J = _nearest_pairs(entries, min(params.k, len(entries) - 1), table)
    codes, lengths, costs = _vocab_and_costs([e.ipa for e in entries], table, distance.sub_scale)
    kept = _edit_distances(codes, lengths, I, J, costs, distance.insert_cost,
                           distance.delete_cost, params.threshold)
    pairs: list[SoundalikePair] = []
    for i, j, d in zip(*(column.tolist() for column in kept)):
        a, b = entries[i], entries[j]
        if params.exclude_existing and (known.has_pronunciation(a.lang, a.grapheme, b.ipa.text)
                                        or known.has_pronunciation(b.lang, b.grapheme, a.ipa.text)):
            continue
        pairs.append(SoundalikePair(a, b, d))
    return pairs


def write_pairs_tsv(path, pairs: Sequence[SoundalikePair]) -> None:
    header = "lang_a\tgrapheme_a\tipa_a\tlang_b\tgrapheme_b\tipa_b\tdistance"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + header + "\n")
        for p in pairs:
            a, b = p.entry_a, p.entry_b
            fh.write(f"{a.lang}\t{a.grapheme}\t{a.ipa.text}\t"
                     f"{b.lang}\t{b.grapheme}\t{b.ipa.text}\t{p.distance!r}\n")


def read_pairs_tsv(path, inventory: IpaInventory | None = None) -> list[SoundalikePair]:
    def parse(la: str, ga: str, ia: str, lb: str, gb: str, ib: str, d: str) -> SoundalikePair:
        return SoundalikePair(PronEntry(la, ga, parse_ipa(ia, inventory)),
                              PronEntry(lb, gb, parse_ipa(ib, inventory)), float(d))

    return list(_parse_rows(path, parse, 7, "lang_a<TAB>grapheme_a<TAB>ipa_a<TAB>"
                                            "lang_b<TAB>grapheme_b<TAB>ipa_b<TAB>distance"))


def filter_generation_by_cer(original: str, generated: str,
                             max_cer: float = 0.15) -> bool:
    """Keep a generated spelling only while it stays close to the original;
    the boundary value itself is kept."""
    if not original:
        raise EmptyOriginalError("original spelling is empty")
    return cer(original, generated) <= max_cer


def filter_by_feature_distance(
    a: IpaString,
    b: IpaString,
    max_distance: float = 0.01,
    params: DistanceParams | None = None,
    table: FeatureTable | None = None,
    inventory: IpaInventory | None = None,
) -> bool:
    """Near-duplicate check on stripped transcriptions: keep strictly under
    the normalized distance bound. Raises BothEmptyError when stripping
    leaves nothing on either side."""
    sa = strip_diacritics_tones(a, inventory=inventory)
    sb = strip_diacritics_tones(b, inventory=inventory)
    if not sa.segments and not sb.segments:
        raise BothEmptyError("both transcriptions are empty after stripping")
    return normalized_feature_distance(sa, sb, params, table) < max_distance
