"""Feature-table loading, word encoding, and plural-class derivation."""

import numpy as np
import pytest

from pluralbench.errors import FeatureTableError, UnknownPhonemeError
from pluralbench.phonology import (
    DEFAULT_SLOTS,
    IDENTITY,
    REWRITE,
    SUFFIX,
    UMLAUT,
    UMLAUT_PAIRS,
    UMLAUT_REWRITE,
    UMLAUT_SUFFIX,
    PluralClass,
    bundled_data_path,
    default_feature_table,
    derive_plural_class,
    encode_word,
    load_feature_table,
    parse_phonemes,
)


# --------------------------------------------------------------------------
# Feature table
# --------------------------------------------------------------------------


def test_bundled_table_shape():
    table = default_feature_table()
    assert table.feature_count == 15
    assert len(table.entries) == 45
    assert len(table.feature_names) == 15


def test_bundled_table_rows_binary_distinct_nonzero():
    table = default_feature_table()
    seen = {}
    for symbol, vec in table.entries.items():
        assert vec.shape == (15,)
        assert set(np.unique(vec)).issubset({0.0, 1.0}), symbol
        assert vec.any(), f"all-zero row for {symbol}"
        key = tuple(vec.tolist())
        assert key not in seen, f"{symbol} duplicates {seen.get(key)}"
        seen[key] = symbol


def test_bundled_table_contains_expected_symbols():
    table = default_feature_table()
    for symbol in ("a", "aː", "ɛ", "ʊ", "ʏ", "aʊ", "ɔʏ", "ʃ", "ŋ", "pf", "ts", "ə"):
        assert symbol in table
    assert "q" not in table
    vec = table.vector("a")
    assert not vec.flags.writeable


def test_umlaut_pairs_cover_back_vowels():
    assert UMLAUT_PAIRS == {
        "a": "ɛ", "aː": "ɛː", "ɔ": "œ", "oː": "øː",
        "ʊ": "ʏ", "uː": "yː", "aʊ": "ɔʏ",
    }
    table = default_feature_table()
    for plain, fronted in UMLAUT_PAIRS.items():
        assert plain in table and fronted in table


def test_bundled_data_path_exists():
    assert bundled_data_path("feature_table.tsv").exists()
    assert bundled_data_path("toy_lexicon.tsv").exists()


def _write_table(tmp_path, text):
    path = tmp_path / "table.tsv"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_feature_table_round_trip(tmp_path):
    path = _write_table(
        tmp_path,
        "# comment\n\nsymbol\tf1\tf2\na\t1\t0\nb\t0\t1\n",
    )
    table = load_feature_table(path)
    assert table.feature_count == 2
    assert table.feature_names == ("f1", "f2")
    assert np.array_equal(table.vector("a"), [1.0, 0.0])


@pytest.mark.parametrize(
    "text",
    [
        "a\t1\t0\nb\t0\t1\n",                      # missing header
        "symbol\tf1\tf2\na\t1\t0\na\t0\t1\n",       # duplicate symbol
        "symbol\tf1\tf2\na\t1\n",                   # wrong width
        "symbol\tf1\tf2\na\t1\tx\n",                # non-numeric
        "symbol\tf1\tf2\na\t1\t2\n",                # out of [0, 1]
    ],
)
def test_load_feature_table_rejects_malformed(tmp_path, text):
    path = _write_table(tmp_path, text)
    with pytest.raises(FeatureTableError):
        load_feature_table(path)


def test_check_word_flags_unknown_symbol():
    table = default_feature_table()
    table.check_word(("h", "a", "n", "t"))
    with pytest.raises(UnknownPhonemeError):
        table.check_word(("h", "q", "n", "t"))


# --------------------------------------------------------------------------
# Encoding
# --------------------------------------------------------------------------


def test_parse_phonemes_splits_on_whitespace():
    assert parse_phonemes("h a n t") == ("h", "a", "n", "t")
    assert parse_phonemes("  m uː  t ər ") == ("m", "uː", "t", "ər")


def test_encode_word_right_justified():
    table = default_feature_table()
    word = ("h", "a", "n", "t")
    vec = encode_word(word, table)
    assert vec.shape == (DEFAULT_SLOTS * 15,)
    # leading 12 slots are zero padding
    assert not vec[: 12 * 15].any()
    for i, symbol in enumerate(word):
        start = (12 + i) * 15
        assert np.array_equal(vec[start : start + 15], table.vector(symbol))


def test_encode_word_truncates_from_the_left():
    table = default_feature_table()
    long_word = ("ʃ",) * 18 + ("a", "t")
    vec = encode_word(long_word, table, slots=4)
    expect = encode_word(("ʃ", "ʃ", "a", "t"), table, slots=4)
    assert np.array_equal(vec, expect)


def test_encode_word_reports_original_position():
    table = default_feature_table()
    word = ("a",) * 10 + ("q",) + ("t",)
    with pytest.raises(UnknownPhonemeError) as err:
        encode_word(word, table, slots=4)
    assert err.value.position == 10
    assert err.value.symbol == "q"


def test_encode_word_rejects_bad_slots():
    table = default_feature_table()
    with pytest.raises(ValueError):
        encode_word(("a",), table, slots=0)


def test_encode_word_random_words_block_structure():
    table = default_feature_table()
    inventory = sorted(table.entries)
    rng = np.random.default_rng(7)
    for _ in range(50):
        length = int(rng.integers(1, 21))
        word = tuple(inventory[int(i)] for i in rng.integers(0, len(inventory), length))
        vec = encode_word(word, table)
        tail = word[-DEFAULT_SLOTS:]
        offset = DEFAULT_SLOTS - len(tail)
        assert not vec[: offset * 15].any()
        for i, symbol in enumerate(tail):
            start = (offset + i) * 15
            assert np.array_equal(vec[start : start + 15], table.vector(symbol))


# --------------------------------------------------------------------------
# Plural classes
# --------------------------------------------------------------------------


def test_canonical_names():
    assert str(PluralClass(kind=IDENTITY)) == "Identity"
    assert str(PluralClass(kind=SUFFIX, suffix=("ə", "n"))) == "+ən"
    assert str(PluralClass(kind=UMLAUT)) == "Umlaut"
    assert str(PluralClass(kind=UMLAUT_SUFFIX, suffix=("ə",))) == "Umlaut+ə"
    assert (
        str(PluralClass(kind=REWRITE, rewrite_from=("ʊ", "m"), rewrite_to=("ə", "n")))
        == "ʊm→ən"
    )
    assert (
        str(
            PluralClass(
                kind=UMLAUT_REWRITE, rewrite_from=("ʊ", "s"), rewrite_to=("ə", "n")
            )
        )
        == "Umlaut+ʊs→ən"
    )


def test_plural_class_rejects_unknown_kind():
    with pytest.raises(ValueError, match="discarded"):
        PluralClass(kind="discarded")


def test_plural_class_orders_by_name():
    a = PluralClass(kind=SUFFIX, suffix=("n",))
    b = PluralClass(kind=SUFFIX, suffix=("s",))
    assert a < b
    assert sorted([b, a]) == [a, b]


def test_derive_identity_and_umlaut():
    word = ("v", "aː", "g", "ə", "n")
    assert derive_plural_class(word, word).kind == IDENTITY
    fronted = ("v", "ɛː", "g", "ə", "n")
    assert derive_plural_class(word, fronted).kind == UMLAUT


def test_derive_suffix_and_umlaut_suffix():
    cls = derive_plural_class(("h", "ʊ", "n", "t"), ("h", "ʊ", "n", "t", "ə"))
    assert cls.kind == SUFFIX and cls.suffix == ("ə",)
    cls = derive_plural_class(("h", "a", "n", "t"), ("h", "ɛ", "n", "t", "ə"))
    assert cls.kind == UMLAUT_SUFFIX and cls.suffix == ("ə",)


def test_derive_rewrite_prefers_plain_stem_on_ties():
    singular = ("m", "uː", "z", "eː", "ʊ", "m")
    plural = ("m", "uː", "z", "eː", "ə", "n")
    cls = derive_plural_class(singular, plural)
    assert cls.kind == REWRITE
    assert cls.rewrite_from == ("ʊ", "m")
    assert cls.rewrite_to == ("ə", "n")
    assert str(cls) == "ʊm→ən"


def test_derive_umlaut_rewrite_when_fronting_extends_match():
    singular = ("h", "uː", "t", "ʊ", "s")
    plural = ("h", "yː", "t", "ə", "n")
    cls = derive_plural_class(singular, plural)
    assert cls.kind == UMLAUT_REWRITE
    assert cls.rewrite_from == ("ʊ", "s")
    assert cls.rewrite_to == ("ə", "n")


def test_derive_uses_rightmost_umlaut_site_first():
    # both vowels are umlautable; the rightmost one is the fronted site
    singular = ("b", "a", "l", "a")
    plural = ("b", "a", "l", "ɛ")
    assert derive_plural_class(singular, plural).kind == UMLAUT


def test_derive_rejects_empty_sequences():
    with pytest.raises(ValueError):
        derive_plural_class((), ("a",))
    with pytest.raises(ValueError):
        derive_plural_class(("a",), ())


def test_derive_total_over_random_pairs():
    """Every singular/plural pair gets some class (the parse is total)."""
    table = default_feature_table()
    inventory = sorted(table.entries)
    rng = np.random.default_rng(11)
    kinds = {IDENTITY, SUFFIX, UMLAUT, UMLAUT_SUFFIX, REWRITE, UMLAUT_REWRITE}
    for _ in range(200):
        n1 = int(rng.integers(1, 8))
        n2 = int(rng.integers(1, 8))
        sing = tuple(inventory[int(i)] for i in rng.integers(0, len(inventory), n1))
        plur = tuple(inventory[int(i)] for i in rng.integers(0, len(inventory), n2))
        cls = derive_plural_class(sing, plur)
        assert cls.kind in kinds
