"""Lexicon ingestion, filtering, compound removal, and splitting."""

from collections import Counter

import numpy as np
import pytest

from pluralbench.dataset import (
    LexiconEntry,
    apply_exclusions,
    encode_entries,
    filter_by_type_frequency,
    ingest,
    load_exclusion_list,
    remove_compounds,
    split,
)
from pluralbench.errors import LexiconFormatError
from pluralbench.phonology import (
    PluralClass,
    bundled_data_path,
    default_feature_table,
)


@pytest.fixture(scope="module")
def table():
    return default_feature_table()


@pytest.fixture(scope="module")
def toy_entries(table):
    return ingest(bundled_data_path("toy_lexicon.tsv"), table)


def _entry(orth, sing, plur, cls):
    return LexiconEntry(
        orthography=orth,
        singular=tuple(sing.split()),
        plural=tuple(plur.split()),
        derived_class=cls,
        source_id=orth,
    )


SUFFIX_N = PluralClass(kind="suffix", suffix=("n",))
SUFFIX_S = PluralClass(kind="suffix", suffix=("s",))
IDENT = PluralClass(kind="identity")


# --------------------------------------------------------------------------
# Ingest
# --------------------------------------------------------------------------


def test_ingest_toy_lexicon(toy_entries):
    assert len(toy_entries) == 212
    ids = [e.source_id for e in toy_entries]
    assert len(set(ids)) == len(ids)
    classes = {str(e.derived_class) for e in toy_entries}
    assert len(classes) == 15
    assert {"+ən", "+n", "+ə", "+s", "Identity", "Umlaut", "ʊm→ən"} <= classes


def test_ingest_spot_checks(toy_entries):
    by_orth = {e.orthography: e for e in toy_entries}
    assert str(by_orth["Hand"].derived_class) == "Umlaut+ə"
    assert str(by_orth["Auto"].derived_class) == "+s"
    assert str(by_orth["Museum"].derived_class) == "ʊm→ən"
    assert str(by_orth["Wagen"].derived_class) == "Identity"


def test_ingest_deduplicates_source_ids(tmp_path, table):
    path = tmp_path / "lex.tsv"
    path.write_text(
        "Bank\tb a ŋ k\tb ɛ ŋ k ə\n"
        "Bank\tb a ŋ k\tb a ŋ k ə n\n",
        encoding="utf-8",
    )
    entries = ingest(path, table)
    assert [e.source_id for e in entries] == ["Bank", "Bank#2"]
    assert entries[0].orthography == entries[1].orthography == "Bank"


def test_ingest_skips_comments_and_blanks(tmp_path, table):
    path = tmp_path / "lex.tsv"
    path.write_text(
        "# header comment\n\n  \nHund\th ʊ n t\th ʊ n t ə\n",
        encoding="utf-8",
    )
    entries = ingest(path, table)
    assert len(entries) == 1
    assert str(entries[0].derived_class) == "+ə"


@pytest.mark.parametrize(
    "line,expected_lineno",
    [
        ("Hund\th ʊ n t\n", 2),                       # two columns
        ("Hund\th ʊ n t\th ʊ n t ə\textra\n", 2),     # four columns
        ("Hund\th q n t\th ʊ n t ə\n", 2),            # unknown phoneme
        ("\th ʊ n t\th ʊ n t ə\n", 2),                # empty orthography
    ],
)
def test_ingest_rejects_malformed_lines(tmp_path, table, line, expected_lineno):
    path = tmp_path / "lex.tsv"
    path.write_text("# comment\n" + line, encoding="utf-8")
    with pytest.raises(LexiconFormatError) as err:
        ingest(path, table)
    assert err.value.line_number == expected_lineno


# --------------------------------------------------------------------------
# Exclusions
# --------------------------------------------------------------------------


def test_exclusions(tmp_path, toy_entries):
    path = tmp_path / "exclude.txt"
    path.write_text("# drop these\nHand\n\nAuto\n", encoding="utf-8")
    words = load_exclusion_list(path)
    assert words == ["Hand", "Auto"]
    filtered = apply_exclusions(toy_entries, words)
    assert len(filtered) == len(toy_entries) - 2
    assert all(e.orthography not in {"Hand", "Auto"} for e in filtered)


# --------------------------------------------------------------------------
# Type-frequency filter
# --------------------------------------------------------------------------


def test_filter_threshold_is_inclusive():
    entries = [_entry(f"a{i}", "a", "a n", SUFFIX_N) for i in range(15)]
    entries += [_entry(f"b{i}", "b a", "b a", IDENT) for i in range(5)]
    kept, discarded = filter_by_type_frequency(entries, min_fraction=0.25)
    assert len(kept) == 20 and not discarded
    kept, discarded = filter_by_type_frequency(entries, min_fraction=0.250001)
    assert len(kept) == 15
    assert [e.orthography for e in discarded] == [f"b{i}" for i in range(5)]


def test_filter_uses_prefilter_total():
    entries = [_entry(f"a{i}", "a", "a n", SUFFIX_N) for i in range(98)]
    entries.append(_entry("b", "b a", "b a", IDENT))
    entries.append(_entry("c", "k a", "k a s", SUFFIX_S))
    kept, discarded = filter_by_type_frequency(entries, min_fraction=0.01)
    assert len(kept) == 100 and not discarded  # 1/100 == 0.01 passes
    kept, discarded = filter_by_type_frequency(entries, min_fraction=0.0101)
    assert len(kept) == 98 and len(discarded) == 2


def test_filter_toy_lexicon_keeps_everything(toy_entries):
    kept, discarded = filter_by_type_frequency(toy_entries)
    assert len(kept) == 212 and not discarded


def test_filter_rejects_empty_input():
    with pytest.raises(ValueError):
        filter_by_type_frequency([])


# --------------------------------------------------------------------------
# Compound removal
# --------------------------------------------------------------------------


def test_remove_compounds_toy_lexicon(toy_entries):
    kept, _ = filter_by_type_frequency(toy_entries)
    non_compound = remove_compounds(kept)
    assert len(non_compound) == 207
    removed = {e.orthography for e in kept} - {e.orthography for e in non_compound}
    assert removed == {"Baumhaus", "Haustür", "Autobahn", "Kinderzimmer", "Stadtpark"}


def test_remove_compounds_phoneme_suffix_rule():
    entries = [
        _entry("Haus", "h aʊ s", "h ɔʏ z ər", IDENT),
        _entry("Baumhaus", "b aʊ m h aʊ s", "b aʊ m h ɔʏ z ər", IDENT),
        _entry("Maus", "m aʊ s", "m ɔʏ z ə", IDENT),
    ]
    kept = remove_compounds(entries)
    # Maus survives: (aʊ s) and (s) are not entries, only full-word suffixes count
    assert [e.orthography for e in kept] == ["Haus", "Maus"]


def test_remove_compounds_one_phoneme_remainder():
    entries = [
        _entry("Ei", "aɪ", "aɪ ər", SUFFIX_N),
        _entry("Hai", "h aɪ", "h aɪ ə", SUFFIX_N),
        _entry("Aal", "aː l", "aː l ə", SUFFIX_N),
    ]
    # one phoneme (h) before an entry's whole word is enough for a compound
    assert [e.orthography for e in remove_compounds(entries)] == ["Ei", "Aal"]


def test_remove_compounds_orthography_mode():
    entries = [
        _entry("Tür", "t yː r", "t yː r ə n", SUFFIX_N),
        _entry("Haustür", "h aʊ s t yː r", "h aʊ s t yː r ə n", SUFFIX_N),
    ]
    kept = remove_compounds(entries, match_on="orthography")
    assert [e.orthography for e in kept] == ["Tür"]
    with pytest.raises(ValueError):
        remove_compounds(entries, match_on="letters")


def test_identical_words_are_not_their_own_compounds():
    entries = [
        _entry("Bank", "b a ŋ k", "b ɛ ŋ k ə", IDENT),
        _entry("Bank#2", "b a ŋ k", "b a ŋ k ə n", SUFFIX_N),
    ]
    # a word equal to another entry is not a *proper* suffix of itself
    assert len(remove_compounds(entries)) == 2


# --------------------------------------------------------------------------
# Encoding and splitting
# --------------------------------------------------------------------------


def test_encode_entries_shapes(table, toy_entries):
    encoded = encode_entries(toy_entries[:5], table)
    assert len(encoded) == 5
    for noun, entry in zip(encoded, toy_entries[:5]):
        assert noun.vector.shape == (240,)
        assert noun.label == entry.derived_class
        assert noun.source_id == entry.source_id


def test_split_counts_and_partition(table, toy_entries):
    kept, _ = filter_by_type_frequency(toy_entries)
    non_compound = remove_compounds(kept)
    data = split(non_compound, table, fraction=0.5, seed=0)
    assert (len(data.train), len(data.test)) == (104, 103)
    train_ids = {n.source_id for n in data.train}
    test_ids = {n.source_id for n in data.test}
    assert not train_ids & test_ids
    assert train_ids | test_ids == {e.source_id for e in non_compound}
    assert str(data.default_class) == "+s"
    assert all(n.label != data.default_class for n in data.train_no_default)
    n_default_train = sum(n.label == data.default_class for n in data.train)
    assert len(data.train_no_default) == len(data.train) - n_default_train


def test_split_is_seed_deterministic(table, toy_entries):
    a = split(toy_entries, table, fraction=0.5, seed=3)
    b = split(toy_entries, table, fraction=0.5, seed=3)
    c = split(toy_entries, table, fraction=0.5, seed=4)
    assert [n.source_id for n in a.train] == [n.source_id for n in b.train]
    assert [n.source_id for n in a.train] != [n.source_id for n in c.train]


def test_split_fraction_sizes(table, toy_entries):
    rng = np.random.default_rng(5)
    for _ in range(10):
        fraction = float(rng.uniform(0.1, 0.9))
        data = split(toy_entries, table, fraction=fraction, seed=int(rng.integers(100)))
        assert len(data.train) == round(len(toy_entries) * fraction)
        assert len(data.train) + len(data.test) == len(toy_entries)


def test_split_stratified_per_class(table, toy_entries):
    data = split(toy_entries, table, fraction=0.5, seed=2, stratify=True)
    want = Counter(str(e.derived_class) for e in toy_entries)
    got_train = Counter(str(n.label) for n in data.train)
    for name, count in want.items():
        assert got_train[name] == round(count * 0.5)


def test_split_validation(table, toy_entries):
    with pytest.raises(ValueError):
        split([], table)
    with pytest.raises(ValueError):
        split(toy_entries, table, fraction=1.0)
    with pytest.raises(ValueError):
        split(toy_entries, table, fraction=0.0)


def test_split_custom_default_class(table, toy_entries):
    ident = PluralClass(kind="identity")
    data = split(toy_entries, table, fraction=0.5, seed=0, default_class=ident)
    assert data.default_class == ident
    assert all(n.label != ident for n in data.train_no_default)
