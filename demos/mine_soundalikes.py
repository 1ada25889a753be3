"""Mining sound-alike word pairs from a lexicon in two stages: coarse
vector retrieval, then exact feature edit distance."""

import numpy as np

from polyipa import (
    MiningParams,
    PronEntry,
    VectorIndex,
    build_embedding_matrix,
    mine_soundalikes,
    parse_ipa,
)

words = [
    ("kat", "kat"),
    ("kad", "kad"),       # near kat, voicing flip
    ("gat", "gat"),       # near kat too
    ("mol", "mol"),
    ("mul", "mul"),       # near mol
    ("zuzu", "zuzu"),     # far from everything
    ("pilo", "pilo"),
    ("bilo", "bilo"),     # near pilo
]
entries = [PronEntry("de", g, parse_ipa(ipa)) for g, ipa in words]

# stage 1: mean-feature embeddings into a brute-force nearest index
matrix = build_embedding_matrix(entries)
index = VectorIndex(matrix)
query = words.index(("kat", "kat"))
print("nearest to 'kat':")
for row, dist in index.query_row(query, k=3):
    print(f"  {entries[row].grapheme:6s} embedding distance {dist:.3f}")

# stage 2: exact distances on the shortlist, thresholded
pairs = mine_soundalikes(entries, MiningParams(k=3, threshold=0.12))
print(f"\nmined {len(pairs)} pairs at threshold 0.12:")
for i, j, d in sorted(pairs, key=lambda p: p[2]):
    print(f"  {entries[i].grapheme:6s} ~ {entries[j].grapheme:6s} d={d:.4f}")

# embeddings are deterministic, so the index can be rebuilt bit for bit
again = build_embedding_matrix(entries)
print(f"\nembedding matrix reproducible: {np.array_equal(matrix, again)}")
