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
from .ipa import TIE_BARS, IpaSegment, IpaString, _tsv_rows

__all__ = [
    "FeatureTable",
    "SegmentFeatures",
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


@dataclass(frozen=True)
class SegmentFeatures:
    """Lookup result: the vector, whether the match was exact, and any marks
    whose effect is not modeled (left unapplied)."""

    vector: np.ndarray
    exact: bool
    unapplied: tuple[str, ...]


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
        tsv = _tsv_rows(path)
        header = next(tsv, None)
        if header is None:
            raise ValueError(f"{path}: missing header row")
        names = header[1][1:]
        rows: dict[str, np.ndarray] = {}
        for line_no, parts in tsv:
            if len(parts) != len(names) + 1:
                raise ValueError(f"{path}: line {line_no}: expected {len(names) + 1} columns")
            try:
                values = [_VALUES[v] for v in parts[1:]]
            except KeyError as err:
                raise ValueError(f"{path}: line {line_no}: bad value {err.args[0]!r}") from None
            rows[unicodedata.normalize("NFC", parts[0])] = np.array(values, dtype=np.int8)
        return cls(names, rows)

    @property
    def dims(self) -> int:
        return len(self.names)

    def symbols(self) -> tuple[str, ...]:
        return tuple(self._rows)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._rows

    def row(self, symbol: str) -> np.ndarray:
        try:
            return self._rows[symbol]
        except KeyError:
            raise UnknownSegmentError(symbol) from None

    def lookup(self, segment: IpaSegment) -> SegmentFeatures:
        """Resolve a segment to a vector.

        Exact symbol match first (covers tie-bar affricates with their own
        rows); otherwise the base row with the modeled diacritic effects
        applied and the rest reported as unapplied. A base absent from the
        table falls back to its first component symbol.
        """
        text = segment.text
        if text in self._rows:
            return SegmentFeatures(self._rows[text], True, ())

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
        unapplied: list[str] = []
        for mark in marks:
            rule = _MODIFICATIONS.get(mark)
            if rule is None:
                unapplied.append(mark)
            else:
                vec[self._index[rule[0]]] = rule[1]
        vec.setflags(write=False)
        return SegmentFeatures(vec, False, tuple(unapplied))


@functools.lru_cache(maxsize=None)
def default_feature_table() -> FeatureTable:
    return FeatureTable.from_file(resources.files("polyipa.data") / "ipa_features.tsv")


def segment_features(segment: IpaSegment, table: FeatureTable | None = None) -> np.ndarray:
    """The segment's feature vector (diacritic effects applied)."""
    table = table or default_feature_table()
    return table.lookup(segment).vector


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


def _edit_distance_ids(
    a: Sequence[int],
    b: Sequence[int],
    sub: Sequence[Sequence[float]],
    insert_cost: float,
    delete_cost: float,
) -> float:
    """Two-row DP over segments encoded as vocabulary ids; sub[i][j] is the
    substitution cost between vocabulary entries i and j."""
    if not a:
        return len(b) * insert_cost
    if not b:
        return len(a) * delete_cost
    prev = [j * insert_cost for j in range(len(b) + 1)]
    for i, ai in enumerate(a, start=1):
        row_sub = sub[ai]
        cur = [i * delete_cost]
        for j, bj in enumerate(b, start=1):
            best = prev[j] + delete_cost
            other = cur[j - 1] + insert_cost
            if other < best:
                best = other
            other = prev[j - 1] + row_sub[bj]
            if other < best:
                best = other
            cur.append(best)
        prev = cur
    return prev[-1]


def _vocab_and_costs(
    strings: Sequence[IpaString],
    table: FeatureTable,
    sub_scale: float,
) -> tuple[list[list[int]], list[list[float]]]:
    """Encode strings as id lists and build the pairwise substitution matrix."""
    vocab: dict[str, int] = {}
    vectors: list[np.ndarray] = []
    encoded: list[list[int]] = []
    for s in strings:
        ids = []
        for seg in s.segments:
            key = seg.text
            if key not in vocab:
                vocab[key] = len(vectors)
                vectors.append(table.lookup(seg).vector)
            ids.append(vocab[key])
        encoded.append(ids)
    if vectors:
        mat = np.stack(vectors)
        disagree = (mat[:, None, :] != mat[None, :, :]).sum(axis=2)
        costs = (disagree * (sub_scale / table.dims)).tolist()
    else:
        costs = []
    return encoded, costs


def feature_edit_distance(
    a: IpaString,
    b: IpaString,
    params: DistanceParams | None = None,
    table: FeatureTable | None = None,
) -> float:
    """Weighted segment edit distance between two transcriptions."""
    params = params or DistanceParams()
    table = table or default_feature_table()
    (ids_a, ids_b), costs = _vocab_and_costs((a, b), table, params.sub_scale)
    return _edit_distance_ids(ids_a, ids_b, costs, params.insert_cost, params.delete_cost)


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
    rows = np.stack([table.lookup(seg).vector for seg in s.segments]).astype(np.float64)
    return rows.mean(axis=0)
