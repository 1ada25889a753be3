"""Training a joint-sequence phoneme-to-grapheme model on a synthetic
shallow orthography, then decoding held-out words."""

import random

from polyipa import (
    Lexicon,
    PronEntry,
    SplitSpec,
    beam_decode,
    lang_script_tag,
    parse_ipa,
    stratified_split,
    train,
)

# invented shallow orthography: mostly 1-1, plus three digraphs so the
# aligner has real multi-letter chunks to find
SPELL = {"t͡ʃ": "ch", "ʃ": "sh", "ŋ": "ng",
         "p": "p", "t": "t", "k": "k", "m": "m", "n": "n", "l": "l",
         "s": "s", "a": "a", "e": "e", "i": "i", "o": "o", "u": "u"}
PHONES = list(SPELL)


def make_word(rng):
    n = rng.randint(2, 6)
    phones = [rng.choice(PHONES) for _ in range(n)]
    return "".join(phones), "".join(SPELL[p] for p in phones)


rng = random.Random(13)
seen = {}
while len(seen) < 600:
    ipa, spelling = make_word(rng)
    seen.setdefault(ipa, spelling)
entries = [PronEntry("eo", spelling, parse_ipa(ipa))
           for ipa, spelling in sorted(seen.items())]

train_lex, eval_lex, test_lex = stratified_split(
    Lexicon(entries), SplitSpec(test_size=60, eval_size=0, seed=3))
print(f"{len(train_lex)} train words, {len(test_lex)} held out")

model = train(train_lex, order=5)
print(f"model order {model.order}, {sum(map(len, model.chunk_index.values()))} learned chunks")

# decode held-out words the model never saw spelled
correct = 0
for entry in test_lex.entries[:8]:
    tag = lang_script_tag(entry, None)
    best = beam_decode(model, tag, entry.ipa, n_best=1)[0]
    mark = "ok " if best.grapheme == entry.grapheme else "MISS"
    correct += best.grapheme == entry.grapheme
    print(f"  {mark} /{entry.ipa.text}/ -> {best.grapheme!r} "
          f"(gold {entry.grapheme!r}, logp {best.log_score:.2f})")

# when an orthography has competing conventions, n-best surfaces both.
# here /k/ is written "k" in most words but "c" in a minority.
ambiguous = []
for i, (ipa, spelling) in enumerate(sorted(seen.items())):
    if "k" in ipa and i % 3 == 0:
        spelling = spelling.replace("k", "c")
    ambiguous.append(PronEntry("eo", spelling, parse_ipa(ipa)))
model2 = train(Lexicon(ambiguous), order=5)

probe = parse_ipa("kato")
print(f"\ntop 3 for /{probe.text}/ under the mixed k/c convention:")
for rank, cand in enumerate(beam_decode(model2, tag, probe, n_best=3), 1):
    print(f"  {rank}. {cand.grapheme!r} logp {cand.log_score:.2f}")
