"""Phoneme feature encoding and plural-class derivation.

Words are sequences of space-separated phoneme symbols.  A feature table
maps every symbol to a fixed-length bundle of feature values; a word is
encoded as the concatenation of its phonemes' bundles, right-justified
into a fixed number of slots and zero-padded on the left.

The plural class of a singular/plural pair is derived from the shape of
the transformation: identity, suffixation, umlaut (stem-vowel fronting),
rewriting of the final phoneme(s), or combinations of umlaut with the
others.  The three umlauted vowels count as a single umlaut marker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import FeatureTableError, UnknownPhonemeError

DEFAULT_SLOTS = 16

# Back vowel -> fronted (umlauted) counterpart.  The reverse map exists
# only to locate umlaut sites; classes never record which pair fired.
UMLAUT_PAIRS = {
    "a": "ɛ",
    "aː": "ɛː",
    "ɔ": "œ",
    "oː": "øː",
    "ʊ": "ʏ",
    "uː": "yː",
    "aʊ": "ɔʏ",
}

Phonemes = tuple[str, ...]


def parse_phonemes(text: str) -> Phonemes:
    """Split a space-separated phoneme string into a symbol tuple."""
    return tuple(text.split())


@dataclass(frozen=True)
class FeatureTable:
    """Maps phoneme symbols to fixed-length feature vectors."""

    feature_names: tuple[str, ...]
    entries: dict[str, np.ndarray]

    @property
    def feature_count(self) -> int:
        return len(self.feature_names)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.entries

    def vector(self, symbol: str) -> np.ndarray:
        try:
            return self.entries[symbol]
        except KeyError:
            raise UnknownPhonemeError(symbol) from None

    def check_word(self, word: Phonemes, context=None) -> None:
        """Raise UnknownPhonemeError for the first symbol not in the table."""
        for pos, symbol in enumerate(word):
            if symbol not in self.entries:
                raise UnknownPhonemeError(symbol, position=pos, context=context)


def _read_utf8(path, error) -> str:
    """A file's text without a leading BOM; invalid UTF-8 raises
    ``error(message, line_number)``."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise error(f"invalid UTF-8 in {path} ({exc.reason})", lineno) from None


def load_feature_table(path) -> FeatureTable:
    """Load and validate a tab-separated feature table.

    Expected layout: a header row ``symbol<TAB>name1..nameK`` followed by
    one row per phoneme with K feature values in [0, 1].  Lines starting
    with ``#`` and blank lines are ignored.
    """
    path = Path(path)
    rows = []
    text = _read_utf8(path, lambda message, line: FeatureTableError(f"line {line}: {message}"))
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        rows.append((lineno, line.split("\t")))
    if not rows:
        raise FeatureTableError(f"{path}: no header row found")

    header_lineno, header = rows[0]
    if len(header) < 2 or header[0] != "symbol":
        raise FeatureTableError(
            f"{path} line {header_lineno}: header must be 'symbol' followed by feature names"
        )
    feature_names = tuple(header[1:])
    n_features = len(feature_names)

    entries: dict[str, np.ndarray] = {}
    for lineno, cells in rows[1:]:
        symbol = cells[0]
        if not symbol:
            raise FeatureTableError(f"{path} line {lineno}: empty phoneme symbol")
        if symbol in entries:
            raise FeatureTableError(f"{path} line {lineno}: duplicate symbol {symbol!r}")
        values = cells[1:]
        if len(values) != n_features:
            raise FeatureTableError(
                f"{path} line {lineno}: wrong feature count for {symbol!r} "
                f"(got {len(values)}, expected {n_features})"
            )
        try:
            vec = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError as exc:
            raise FeatureTableError(f"{path} line {lineno}: non-numeric feature value ({exc})")
        if np.any(vec < 0.0) or np.any(vec > 1.0):
            raise FeatureTableError(f"{path} line {lineno}: feature values must lie in [0, 1]")
        vec.flags.writeable = False
        entries[symbol] = vec
    if not entries:
        raise FeatureTableError(f"{path}: table has no phoneme rows")
    return FeatureTable(feature_names=feature_names, entries=entries)


def bundled_data_path(name: str) -> Path:
    """Path of a data file shipped with the package."""
    return Path(resources.files("pluralbench") / "data" / name)


def default_feature_table() -> FeatureTable:
    """The bundled 15-feature articulatory table (stand-in inventory).

    The original feature source is not recoverable, so this table is a
    documented substitute; every operation that consumes a table accepts
    a user-supplied replacement.
    """
    return load_feature_table(bundled_data_path("feature_table.tsv"))


def encode_word(word: Phonemes, table: FeatureTable, slots: int = DEFAULT_SLOTS) -> np.ndarray:
    """Encode a word as a right-justified slots x feature_count vector.

    Words shorter than ``slots`` are zero-padded on the left; words longer
    than ``slots`` keep their rightmost ``slots`` phonemes, since endings
    carry the plural-relevant material.  One row of encode_words.
    """
    return encode_words([word], table, slots)[0]


def encode_words(words, table: FeatureTable, slots: int = DEFAULT_SLOTS) -> np.ndarray:
    """(len(words), slots * feature_count) array, row i encoding words[i].

    One gather: each kept phoneme becomes a row index into the table's
    feature matrix (row 0 all zeros, for padding), so every vector holds
    copies of table values, exactly as a per-slot fill would.
    """
    if slots < 1:
        raise ValueError("slots must be a positive integer")
    rows = {symbol: i for i, symbol in enumerate(table.entries, start=1)}
    matrix = np.vstack([np.zeros(table.feature_count), *table.entries.values()])
    tails = [word[-slots:] for word in words]
    lengths = np.fromiter(map(len, tails), dtype=np.intp, count=len(tails))
    try:
        flat = np.fromiter(
            map(rows.__getitem__, chain.from_iterable(tails)), dtype=np.intp, count=lengths.sum()
        )
    except KeyError as exc:
        # the first unknown symbol of the first tail holding one; its
        # position counts from the start of the whole word
        symbol = exc.args[0]
        word, tail = next((w, t) for w, t in zip(words, tails) if symbol in t)
        raise UnknownPhonemeError(symbol, tail.index(symbol) + len(word) - len(tail)) from None
    codes = np.zeros((len(tails), slots), dtype=np.intp)
    codes[np.arange(slots) >= slots - lengths[:, None]] = flat
    return matrix[codes].reshape(len(tails), slots * table.feature_count)


# --------------------------------------------------------------------------
# Plural classes
# --------------------------------------------------------------------------

IDENTITY = "identity"
SUFFIX = "suffix"
UMLAUT = "umlaut"
UMLAUT_SUFFIX = "umlaut_suffix"
REWRITE = "rewrite"
UMLAUT_REWRITE = "umlaut_rewrite"
_KINDS = (IDENTITY, SUFFIX, UMLAUT, UMLAUT_SUFFIX, REWRITE, UMLAUT_REWRITE)


@dataclass(frozen=True, order=False)
class PluralClass:
    """A singular-to-plural transformation category.

    ``canonical_name`` renders the category in the conventional notation:
    ``+suffix`` for suffixation, ``from→to`` for rewrites, ``Umlaut``
    markers prefixed where a stem vowel fronts.
    """

    kind: str
    suffix: Phonemes = ()
    rewrite_from: Phonemes = ()
    rewrite_to: Phonemes = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown plural class kind {self.kind!r}")

    @property
    def canonical_name(self) -> str:
        if self.kind == IDENTITY:
            return "Identity"
        if self.kind == SUFFIX:
            return "+" + "".join(self.suffix)
        if self.kind == UMLAUT:
            return "Umlaut"
        if self.kind == UMLAUT_SUFFIX:
            return "Umlaut+" + "".join(self.suffix)
        if self.kind == REWRITE:
            return "".join(self.rewrite_from) + "→" + "".join(self.rewrite_to)
        return "Umlaut+" + "".join(self.rewrite_from) + "→" + "".join(self.rewrite_to)

    def __str__(self) -> str:
        return self.canonical_name

    def __lt__(self, other: "PluralClass") -> bool:
        return self.canonical_name < other.canonical_name


def _umlaut_candidates(word: Phonemes):
    """Yield (umlauted word, site) for each umlautable vowel, rightmost first."""
    for i in range(len(word) - 1, -1, -1):
        fronted = UMLAUT_PAIRS.get(word[i])
        if fronted is not None:
            yield word[:i] + (fronted,) + word[i + 1 :], i


def _common_prefix_len(a: Phonemes, b: Phonemes) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def derive_plural_class(singular: Phonemes, plural: Phonemes) -> PluralClass:
    """Classify the transformation turning ``singular`` into ``plural``.

    Parses are tried in order: identity, pure suffixation, final rewrite;
    each stage first tries the unchanged stem, then every umlauted variant
    (rightmost vowel first).  The rewrite fallback picks the parse with the
    longest matched prefix, preferring the plain stem on ties, so an
    umlauted rewrite is only reported when fronting genuinely extends the
    match.  Every pair receives a label; unmatched oddities surface as
    whole-word rewrites and are later dropped by frequency filtering.
    """
    if not singular or not plural:
        raise ValueError("singular and plural must be non-empty phoneme sequences")
    # the plain stem is the first suffix candidate, and a longer plural
    # cannot be an identity or umlaut (fronting keeps the length)
    n = len(singular)
    if len(plural) > n and plural[:n] == singular:
        return PluralClass(kind=SUFFIX, suffix=plural[n:])

    stems = [(singular, False)] + [(w, True) for w, _ in _umlaut_candidates(singular)]

    for stem, umlauted in stems:
        if plural == stem:
            return PluralClass(kind=UMLAUT) if umlauted else PluralClass(kind=IDENTITY)
    for stem, umlauted in stems:
        if len(plural) > len(stem) and plural[: len(stem)] == stem:
            sfx = plural[len(stem) :]
            kind = UMLAUT_SUFFIX if umlauted else SUFFIX
            return PluralClass(kind=kind, suffix=sfx)

    best = None
    for stem, umlauted in stems:
        lcp = _common_prefix_len(stem, plural)
        if best is None or lcp > best[0]:
            best = (lcp, stem, umlauted)
    lcp, stem, umlauted = best
    kind = UMLAUT_REWRITE if umlauted else REWRITE
    return PluralClass(kind=kind, rewrite_from=stem[lcp:], rewrite_to=plural[lcp:])
