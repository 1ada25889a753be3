"""Cleaning a raw pronunciation lexicon: bad rows out, report in."""

from polyipa import clean, detect_script

# raw rows are (lang, grapheme, ipa); several are deliberately broken
raw = [
    ("de", "Katze", "ˈkatsə"),
    ("deu", "Hund", "hʊnt"),          # alpha-3 alias, canonicalized to de
    ("German", "Maus", "maʊ̯s"),      # English name alias, same language
    ("de", "Katze", "ˈkatsə"),        # exact duplicate of row 1
    ("ru", "кошка", "ˈkoʂkə"),
    ("ru", "собака", "sɐˈbakə"),
    ("ru", "sobaka", "sɐˈbakə"),      # Latin spelling under ru
    ("el", "γάτα", "ˈɣata"),
    ("de", "Vogel", "ˈfoː@l"),         # @ is not an IPA symbol
    ("xx", "mystery", "mɪst"),         # unknown language code
    ("de", "", "laɪ̯m"),               # grapheme missing
]

lexicon, report = clean(raw)

print(f"{report.input_count} rows in, {report.retained_count} kept")
for rule, n in sorted(report.removed_by_rule.items()):
    print(f"  removed by {rule}: {n}")
print(f"conserved: {report.conserved}")

print("\nkept entries:")
for e in lexicon.entries:
    print(f"  {e.lang} {detect_script(e.grapheme)} {e.grapheme!r} /{e.ipa.text}/")

# the report serializes for pipeline logs
print("\nreport json:")
print(report.to_json())
