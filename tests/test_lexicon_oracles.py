"""The array-speed lexicon stages against plain per-line, per-word loops.

``lexicon_reference`` holds the loops; here generated lexicons (every line
ending, a BOM, comments, repeated spellings, several umlaut sites, words
longer than the slot count, a fractional feature table) must give equal
entries, classes and source ids, and vectors equal bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexicon_reference import (
    reference_derive_plural_class,
    reference_encode_word,
    reference_ingest,
)
from pluralbench.dataset import encode_entries, ingest, split
from pluralbench.errors import LexiconFormatError, UnknownPhonemeError
from pluralbench.phonology import (
    UMLAUT_PAIRS,
    FeatureTable,
    default_feature_table,
    derive_plural_class,
    encode_word,
)

CONSONANTS = ("p", "t", "k", "n", "s", "r", "ə")
SYMBOLS = CONSONANTS + tuple(UMLAUT_PAIRS) + tuple(UMLAUT_PAIRS.values())
ORTHOGRAPHIES = ("Hand", "Haus", "Maus", "Ofen", "Uhr", "Tag")
N_FEATURES = 3


def _table(values) -> FeatureTable:
    entries = {}
    for symbol, row in zip(SYMBOLS, values):
        vec = np.array(row, dtype=np.float64)
        vec.flags.writeable = False
        entries[symbol] = vec
    return FeatureTable(feature_names=("f0", "f1", "f2"), entries=entries)


tables = st.lists(
    st.lists(st.floats(0.0, 1.0), min_size=N_FEATURES, max_size=N_FEATURES),
    min_size=len(SYMBOLS),
    max_size=len(SYMBOLS),
).map(_table)

# words with several umlaut sites are common: half the alphabet umlauts
words = st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=9).map(tuple)


@st.composite
def plurals(draw, singular):
    """A plural of one of the shapes the class derivation knows, or noise."""
    stem = singular
    sites = [i for i, s in enumerate(singular) if s in UMLAUT_PAIRS]
    if sites and draw(st.booleans()):
        i = draw(st.sampled_from(sites))
        stem = singular[:i] + (UMLAUT_PAIRS[singular[i]],) + singular[i + 1 :]
    shape = draw(st.sampled_from(("same", "suffix", "rewrite", "noise")))
    if shape == "same":
        return stem
    if shape == "suffix":
        return stem + draw(words)
    if shape == "rewrite":
        return stem[: draw(st.integers(0, len(stem) - 1))] + draw(words)
    return draw(words)


@st.composite
def lexicons(draw):
    """The bytes of a valid lexicon file, decorated."""
    lines, kinds = [], []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(("entry", "entry", "entry", "comment", "blank")))
        kinds.append(kind)
        if kind == "comment":
            lines.append(draw(st.sampled_from(("# note", "  # indented", "#"))))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(("", "   ", " \t "))))
        else:
            singular = draw(words)
            plural = draw(plurals(singular))
            pad = draw(st.sampled_from(("", " ", "  ")))
            orth = draw(st.sampled_from(ORTHOGRAPHIES))
            lines.append(f"{orth}\t{pad}{' '.join(singular)}{pad}\t{' '.join(plural)}{pad}")
    if "entry" not in kinds:
        lines.append("Tag\tt a k\tt aː k ə")
    newline = draw(st.sampled_from(("\n", "\r\n", "\r")))
    text = newline.join(lines) + draw(st.sampled_from(("", newline)))
    bom = "﻿" if draw(st.booleans()) else ""
    return (bom + text).encode("utf-8")


@pytest.fixture(scope="module")
def lexicon_path(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle") / "lexicon.tsv"


@settings(max_examples=40, deadline=None)
@given(data=lexicons(), table=tables, slots=st.integers(1, 6))
def test_ingest_and_encoding_match_the_reference_loops(lexicon_path, data, table, slots):
    lexicon_path.write_bytes(data)
    entries = ingest(lexicon_path, table)
    expected = reference_ingest(lexicon_path, table)
    assert entries == expected
    assert [e.source_id for e in entries] == [e.source_id for e in expected]
    assert [str(e.derived_class) for e in entries] == [str(e.derived_class) for e in expected]

    encoded = encode_entries(entries, table, slots=slots)
    for noun, entry in zip(encoded, expected):
        reference = reference_encode_word(entry.singular, table, slots)
        assert noun.vector.tobytes() == reference.tobytes()
        assert noun.label == entry.derived_class and noun.source_id == entry.source_id
    for entry in expected:
        assert encode_word(entry.plural, table, slots).tobytes() == (
            reference_encode_word(entry.plural, table, slots).tobytes()
        )

    data_split = split(entries, table, seed=3, slots=slots) if len(entries) > 1 else None
    if data_split is not None:
        by_id = {e.source_id: e for e in expected}
        for noun in data_split.train + data_split.test:
            reference = reference_encode_word(by_id[noun.source_id].singular, table, slots)
            assert noun.vector.tobytes() == reference.tobytes()


@settings(max_examples=100, deadline=None)
@given(singular=words, data=st.data())
def test_derive_plural_class_matches_the_reference(singular, data):
    plural = data.draw(plurals(singular))
    assert derive_plural_class(singular, plural) == reference_derive_plural_class(singular, plural)


LINE_ERRORS = [
    # (file text, why it fails)
    ("Hand\th a n t\th ɛ n t ə\nBad\tq a\tq a\n", "unknown symbol in a singular"),
    ("Hand\th a n t\th ɛ n t ə\r\nBad\tt a\tt a ʘ\r\n", "unknown symbol in a plural"),
    ("# c\rHand\th a n t\th ɛ n t ə\r\rBad\tt ʘ a ʘ\tq\r", "both words unknown, CR endings"),
    ("﻿Hand\th a n t\th ɛ n t ə\nBad\tt a\n", "two columns"),
    ("Hand\th a n t\th ɛ n t ə\n\nBad\tt a\tt a\tx\n", "four columns"),
    ("Hand\th a n t\th ɛ n t ə\nBad\t  \tt a\n", "empty singular"),
    (" \t\tt a\tt a\n", "empty orthography"),
    ("# only a comment\n\n", "no entries"),
]


@pytest.mark.parametrize("text, why", LINE_ERRORS, ids=[why for _, why in LINE_ERRORS])
def test_ingest_errors_match_the_reference(tmp_path, text, why):
    path = tmp_path / "lexicon.tsv"
    path.write_bytes(text.encode("utf-8"))
    table = default_feature_table()
    with pytest.raises(LexiconFormatError) as expected:
        reference_ingest(path, table)
    with pytest.raises(LexiconFormatError) as got:
        ingest(path, table)
    assert str(got.value) == str(expected.value)
    assert got.value.line_number == expected.value.line_number


@pytest.mark.parametrize(
    "word, slots",
    [
        (("t", "ʘ", "a"), 16),  # unknown in a short word
        (("ʘ", "t", "a", "ʃ", "ʃ", "ʘ"), 3),  # unknown in the kept tail of a long word
        (("ʃ", "ʃ", "a", "t", "ʘ", "n"), 4),  # position counts from the whole word
    ],
)
def test_encode_word_unknown_symbol_position_matches_the_reference(word, slots):
    table = default_feature_table()
    with pytest.raises(UnknownPhonemeError) as expected:
        reference_encode_word(word, table, slots)
    with pytest.raises(UnknownPhonemeError) as got:
        encode_word(word, table, slots)
    assert str(got.value) == str(expected.value)
    assert got.value.position == expected.value.position


def test_unknown_symbol_outside_the_kept_tail_encodes():
    table = default_feature_table()
    word = ("ʘ", "t", "a", "n")
    assert encode_word(word, table, 3).tobytes() == reference_encode_word(word, table, 3).tobytes()
