"""Articulatory feature vectors and the weighted feature edit distance.

Each segment maps to a ternary vector over a fixed feature set. Substituting
one segment for another costs the fraction of disagreeing features times
sub_scale, so the distance interpolates smoothly between identity (0) and a
full insert+delete. With unit costs, a threshold of 5 reads as five whole
segments of accumulated change.
"""

from __future__ import annotations

import functools
import unicodedata
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

import numpy as np

from .errors import BothEmptyError, EmptyStringError, UnknownSegmentError
from .ipa import TIE_BARS, IpaSegment, IpaString, _parse_rows

__all__ = [
    "FeatureTable",
    "DistanceParams",
    "default_feature_table",
    "segment_features",
    "feature_edit_distance",
    "normalized_feature_distance",
    "string_embedding",
]

# Marks that modify features rather than merely being dropped in lookup:
# devoicing rings, the voicing wedge, nasalization, and the length marks.
_MODIFICATIONS: dict[str, tuple[str, int]] = {
    "̥": ("voi", -1),
    "̊": ("voi", -1),
    "̬": ("voi", 1),
    "̃": ("nas", 1),
    "ː": ("long", 1),
    "ˑ": ("long", 1),
}

_VALUES = {"+": 1, "0": 0, "-": -1, "−": -1}


class FeatureTable:
    """Feature rows keyed by segment symbol, loaded from a TSV with a header."""

    def __init__(self, names: Sequence[str], rows: dict[str, np.ndarray]):
        if not names or not rows:
            raise ValueError("feature table needs a header and at least one row")
        self.names = tuple(names)
        self._index = {n: i for i, n in enumerate(self.names)}
        self._rows: dict[str, np.ndarray] = {}
        for symbol, values in rows.items():
            arr = np.asarray(values, dtype=np.int8)
            if arr.shape != (len(self.names),):
                raise ValueError(f"row {symbol!r} has {arr.size} values, expected {len(self.names)}")
            if not np.isin(arr, (-1, 0, 1)).all():
                raise ValueError(f"row {symbol!r} has values outside {{-1, 0, +1}}")
            arr.setflags(write=False)
            self._rows[symbol] = arr

    @classmethod
    def from_file(cls, path) -> "FeatureTable":
        """The first data row is the header: a label, then the feature names."""
        names: tuple[str, ...] | None = None

        def row(symbol: str, *values: str) -> tuple[str, list[int]] | None:
            nonlocal names
            if names is None:
                names = values
                return None
            if len(values) != len(names):
                raise ValueError(f"expected {len(names) + 1} columns")
            try:
                return unicodedata.normalize("NFC", symbol), [_VALUES[v] for v in values]
            except KeyError as err:
                raise ValueError(f"bad value {err.args[0]!r}") from None

        rows = dict(filter(None, _parse_rows(path, row)))
        try:
            return cls(names or (), rows)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    @property
    def dims(self) -> int:
        return len(self.names)

    def row(self, symbol: str) -> np.ndarray:
        try:
            return self._rows[symbol]
        except KeyError:
            raise UnknownSegmentError(symbol) from None

    def lookup(self, segment: IpaSegment) -> np.ndarray:
        """Resolve a segment to a vector.

        Exact symbol match first (covers tie-bar affricates with their own
        rows); otherwise the base row with the modeled diacritic effects
        applied and other marks ignored. A base absent from the table falls
        back to its first component symbol.
        """
        text = segment.text
        if text in self._rows:
            return self._rows[text]

        marks = list(segment.diacritics) + list(segment.tones)
        base = segment.base
        if base not in self._rows:
            # Tied core without its own row: try it stripped of inner marks,
            # then fall back to the first component.
            stripped = "".join(ch for ch in base if ch in TIE_BARS or not unicodedata.combining(ch))
            if stripped in self._rows:
                base = stripped
            else:
                components = segment.base_symbols()
                base = next((c for c in components if c in self._rows), "")
                if not base:
                    raise UnknownSegmentError(segment.text)
            marks = [ch for ch in segment.base if unicodedata.combining(ch) and ch not in TIE_BARS] + marks

        vec = self._rows[base].copy()
        for mark in marks:
            rule = _MODIFICATIONS.get(mark)
            if rule is not None:
                vec[self._index[rule[0]]] = rule[1]
        vec.setflags(write=False)
        return vec


@functools.lru_cache(maxsize=None)
def default_feature_table() -> FeatureTable:
    return FeatureTable.from_file(resources.files("polyipa.data") / "ipa_features.tsv")


def segment_features(segment: IpaSegment, table: FeatureTable | None = None) -> np.ndarray:
    """The segment's feature vector (diacritic effects applied)."""
    table = table or default_feature_table()
    return table.lookup(segment)


@dataclass(frozen=True)
class DistanceParams:
    """Costs for the feature edit distance. Defaults are unit costs, making
    insert_cost = delete_cost and keeping substitution never dearer than an
    insert plus a delete."""

    insert_cost: float = 1.0
    delete_cost: float = 1.0
    sub_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.insert_cost <= 0 or self.delete_cost <= 0 or self.sub_scale <= 0:
            raise ValueError("costs must be positive")
        if self.sub_scale > self.insert_cost + self.delete_cost:
            raise ValueError("sub_scale must not exceed insert_cost + delete_cost")


# Pairs scored together by one DP batch; its working memory is a few arrays
# of the string length times this many pairs.
_DP_BATCH = 4096


def _dp_batch(a: np.ndarray, b: np.ndarray, sub: np.ndarray,
              insert_cost: float, delete_cost: float) -> np.ndarray:
    """Edit distance from each row of a (m x la ids) to the same row of b
    (m x lb ids), filling the DP table one anti-diagonal t = i + j at a time.

    A diagonal is stored by i, one column per pair, so cell (i, t - i) reads
    its upper neighbour at i - 1 and its left one at i of diagonal t - 1, and
    its diagonal neighbour at i - 1 of diagonal t - 2. With b reversed, the
    substitution costs along a diagonal come from contiguous rows of a and b.
    """
    m, la = a.shape
    lb = b.shape[1]
    rows = np.ascontiguousarray(a.T * sub.shape[0])
    b_rev = np.ascontiguousarray(b[:, ::-1].T)
    flat = sub.ravel()
    prev2 = prev1 = np.zeros((la + 1, m))
    for t in range(1, la + lb + 1):
        cur = np.empty((la + 1, m))
        lo, hi = max(1, t - lb), min(la, t - 1)
        if lo <= hi:
            cells = cur[lo:hi + 1]
            costs = flat[rows[lo - 1:hi] + b_rev[lb - t + lo:lb - t + hi + 1]]
            np.minimum(prev1[lo - 1:hi] + delete_cost, prev1[lo:hi + 1] + insert_cost,
                       out=cells)
            np.minimum(cells, prev2[lo - 1:hi] + costs, out=cells)
        if t <= lb:
            cur[0] = t * insert_cost
        if t <= la:
            cur[t] = t * delete_cost
        prev2, prev1 = prev1, cur
    return prev1[la]


def _edit_distances(
    codes: np.ndarray,
    lengths: np.ndarray,
    I: np.ndarray,
    J: np.ndarray,
    sub: np.ndarray,
    insert_cost: float,
    delete_cost: float,
    threshold: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted edit distance from string I[p] to string J[p] for every pair
    p, keeping the pairs at or under threshold.

    codes holds each string's vocabulary ids in a row padded past its length;
    sub[x, y] is the substitution cost between vocabulary entries x and y. A
    pair whose length difference alone costs more than threshold is not
    scored. Pairs with the same (len_a, len_b) are scored in batches. Each
    cell is the minimum of the up + delete, left + insert and diagonal +
    substitution sums of the textbook DP, so every distance is bit-identical
    to it. Returns the kept (i, j, d) arrays in (i, j) order.
    """
    la, lb = lengths[I], lengths[J]
    fits = np.abs(la - lb) * min(insert_cost, delete_cost) <= threshold
    I, J, la, lb = I[fits], J[fits], la[fits], lb[fits]
    key = la * (int(lengths.max(initial=0)) + 1) + lb
    order = np.argsort(key, kind="stable")
    bounds = np.flatnonzero(np.diff(key[order])) + 1
    dist = np.empty(len(I))
    for group in np.split(order, bounds):
        for start in range(0, len(group), _DP_BATCH):
            p = group[start:start + _DP_BATCH]
            dist[p] = _dp_batch(codes[I[p], :la[p[0]]], codes[J[p], :lb[p[0]]],
                                sub, insert_cost, delete_cost)
    kept = dist <= threshold
    I, J, dist = I[kept], J[kept], dist[kept]
    order = np.lexsort((J, I))
    return I[order], J[order], dist[order]


def _vocab_and_costs(
    strings: Sequence[IpaString],
    table: FeatureTable,
    sub_scale: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encode strings as rows of vocabulary ids (zero-padded past each
    string's length, given in lengths) and build the pairwise substitution
    matrix."""
    vocab: dict[str, int] = {}
    vectors: list[np.ndarray] = []
    encoded: list[list[int]] = []
    for s in strings:
        ids = []
        for seg in s.segments:
            key = seg.text
            if key not in vocab:
                vocab[key] = len(vectors)
                vectors.append(table.lookup(seg))
            ids.append(vocab[key])
        encoded.append(ids)
    lengths = np.array([len(ids) for ids in encoded], dtype=np.intp)
    codes = np.zeros((len(encoded), lengths.max(initial=0)), dtype=np.intp)
    for row, ids in zip(codes, encoded):
        row[:len(ids)] = ids
    if vectors:
        mat = np.stack(vectors)
        disagree = (mat[:, None, :] != mat[None, :, :]).sum(axis=2)
        costs = disagree * (sub_scale / table.dims)
    else:
        costs = np.zeros((0, 0))
    return codes, lengths, costs


def feature_edit_distance(
    a: IpaString,
    b: IpaString,
    params: DistanceParams | None = None,
    table: FeatureTable | None = None,
) -> float:
    """Weighted segment edit distance between two transcriptions."""
    params = params or DistanceParams()
    table = table or default_feature_table()
    codes, lengths, costs = _vocab_and_costs((a, b), table, params.sub_scale)
    _, _, d = _edit_distances(codes, lengths, np.array([0]), np.array([1]), costs,
                              params.insert_cost, params.delete_cost, np.inf)
    return float(d[0])


def normalized_feature_distance(
    a: IpaString,
    b: IpaString,
    params: DistanceParams | None = None,
    table: FeatureTable | None = None,
) -> float:
    """feature_edit_distance scaled into [0, 1] by the worst case for the
    longer string. Undefined (BothEmptyError) when both are empty."""
    params = params or DistanceParams()
    if not a.segments and not b.segments:
        raise BothEmptyError("both transcriptions are empty")
    d = feature_edit_distance(a, b, params, table)
    scale = max(len(a.segments), len(b.segments)) * max(
        params.insert_cost, params.delete_cost, params.sub_scale
    )
    return d / scale


def string_embedding(s: IpaString, table: FeatureTable | None = None) -> np.ndarray:
    """Deterministic fixed-width embedding: the mean of the segment vectors."""
    table = table or default_feature_table()
    if not s.segments:
        raise EmptyStringError("cannot embed an empty transcription")
    rows = np.stack([table.lookup(seg) for seg in s.segments]).astype(np.float64)
    return rows.mean(axis=0)
