"""Lexicon ingestion, filtering, and train/test splitting.

The lexicon format is UTF-8 TSV with three columns: orthography, singular
phonemes, plural phonemes (phonemes space-separated).  ``#`` comment lines
and blank lines are skipped.  The pipeline mirrors the corpus preparation
used for the plural-prediction experiments: derive a class for every
entry, drop rare classes by type frequency, drop compounds whose rightmost
lexeme is itself in the set, then split into train/test plus a training
copy with the default (+s) class removed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import LexiconFormatError, UnknownPhonemeError
from .phonology import (
    DEFAULT_SLOTS,
    FeatureTable,
    Phonemes,
    PluralClass,
    _read_utf8,
    derive_plural_class,
    encode_words,
    parse_phonemes,
)


@dataclass(frozen=True)
class LexiconEntry:
    orthography: str
    singular: Phonemes
    plural: Phonemes
    derived_class: PluralClass
    source_id: str


@dataclass(frozen=True, eq=False)
class EncodedNoun:
    """A fixed-length feature vector with its plural-class label."""

    vector: np.ndarray
    label: PluralClass
    source_id: str


@dataclass(frozen=True, eq=False)
class DataSplit:
    train: list[EncodedNoun]
    test: list[EncodedNoun]
    train_no_default: list[EncodedNoun]
    default_class: PluralClass


def ingest(path, table: FeatureTable) -> list[LexiconEntry]:
    """Parse a lexicon file and derive each entry's plural class.

    Every phoneme symbol (singular and plural) must be present in the
    feature table.  ``source_id`` is the orthography, suffixed with ``#k``
    for repeated spellings so that identifiers stay unique.  Equal classes
    are one object, so later dict and Counter lookups match by identity.
    """
    text = _read_utf8(path, LexiconFormatError)
    symbols = frozenset(table.entries)
    entries: list[LexiconEntry] = []
    seen: dict[str, int] = {}
    classes: dict[PluralClass, PluralClass] = {}
    # universal newlines, as a text-mode file gives them
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        head = line.lstrip()
        if not head or head[0] == "#":
            continue
        cells = line.split("\t")
        if len(cells) != 3:
            raise LexiconFormatError(
                f"expected 3 tab-separated columns, got {len(cells)}", line_number=lineno
            )
        orth = cells[0].strip()
        singular = parse_phonemes(cells[1])
        plural = parse_phonemes(cells[2])
        if not orth or not singular or not plural:
            raise LexiconFormatError("empty orthography or phoneme field", line_number=lineno)
        if not (symbols.issuperset(singular) and symbols.issuperset(plural)):
            try:
                table.check_word(singular, context=f"singular of {orth!r}")
                table.check_word(plural, context=f"plural of {orth!r}")
            except UnknownPhonemeError as exc:
                raise LexiconFormatError(str(exc), line_number=lineno) from exc
        k = seen[orth] = seen.get(orth, 0) + 1
        cls = derive_plural_class(singular, plural)
        entries.append(
            LexiconEntry(
                orthography=orth,
                singular=singular,
                plural=plural,
                derived_class=classes.setdefault(cls, cls),
                source_id=orth if k == 1 else f"{orth}#{k}",
            )
        )
    if not entries:
        raise LexiconFormatError(f"{path}: no entries (the lexicon is empty or only comments)")
    return entries


def apply_exclusions(entries: list[LexiconEntry], exclusions) -> list[LexiconEntry]:
    """Drop entries whose orthography appears in the exclusion collection."""
    excluded = set(exclusions)
    return [e for e in entries if e.orthography not in excluded]


def load_exclusion_list(path) -> list[str]:
    """Read an exclusion-list file: one orthography per line, ``#`` comments."""
    words = []
    for raw in _read_utf8(path, LexiconFormatError).splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            words.append(line)
    return words


def filter_by_type_frequency(
    entries: list[LexiconEntry], min_fraction: float = 0.001
) -> tuple[list[LexiconEntry], list[LexiconEntry]]:
    """Keep classes whose type frequency is at least ``min_fraction``.

    The threshold is computed against the pre-filter total, so a class
    survives iff count(class) / len(entries) >= min_fraction.  Returns
    (kept, discarded), both in the original order.  Kept entries already
    carry canonical class names; discarded ones keep their raw labels for
    inspection.
    """
    if not entries:
        raise ValueError("filter_by_type_frequency requires a non-empty entry list")
    total = len(entries)
    counts = Counter(e.derived_class for e in entries)
    kept, discarded = [], []
    for e in entries:
        if counts[e.derived_class] / total >= min_fraction:
            kept.append(e)
        else:
            discarded.append(e)
    return kept, discarded


def remove_compounds(
    entries: list[LexiconEntry], match_on: str = "phonemes"
) -> list[LexiconEntry]:
    """Keep entries whose rightmost lexeme is not another entry in the set.

    An entry is a compound when some other entry's word is a proper suffix
    (remainder of at least one unit) of its own.  Matching runs on singular
    phoneme strings by default; ``match_on='orthography'`` switches to
    character suffixes of the casefolded spelling (heads lose their
    capital inside compounds, so case must not block the match).
    """
    if match_on == "phonemes":
        keys = [e.singular for e in entries]
    elif match_on == "orthography":
        keys = [tuple(e.orthography.casefold()) for e in entries]
    else:
        raise ValueError(f"match_on must be 'phonemes' or 'orthography', got {match_on!r}")
    present = set(keys)
    kept = []
    for e, key in zip(entries, keys):
        is_compound = any(key[i:] in present for i in range(1, len(key)))
        if not is_compound:
            kept.append(e)
    return kept


def encode_entries(
    entries: list[LexiconEntry], table: FeatureTable, slots: int = DEFAULT_SLOTS
) -> list[EncodedNoun]:
    """EncodedNouns whose vectors are rows of one encode_words array."""
    X = encode_words([e.singular for e in entries], table, slots=slots)
    return [
        EncodedNoun(vector=x, label=e.derived_class, source_id=e.source_id)
        for x, e in zip(X, entries)
    ]


def split(
    entries: list[LexiconEntry],
    table: FeatureTable,
    fraction: float = 0.5,
    seed: int = 0,
    slots: int = DEFAULT_SLOTS,
    stratify: bool = False,
    default_class: PluralClass | None = None,
) -> DataSplit:
    """Shuffle with the given seed and cut into train/test.

    ``fraction`` is the share assigned to training (sizes within one item
    of the request).  ``stratify=True`` shuffles and cuts within each class
    instead of globally.  ``train_no_default`` is the training list with
    all default-class items removed; the default class is ``+s`` unless
    overridden.
    """
    if not entries:
        raise ValueError("split requires a non-empty entry list")
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    if default_class is None:
        default_class = PluralClass(kind="suffix", suffix=("s",))

    rng = np.random.default_rng(seed)
    if stratify:
        by_class: dict[PluralClass, list[LexiconEntry]] = {}
        for e in entries:
            by_class.setdefault(e.derived_class, []).append(e)
        train_entries, test_entries = [], []
        for cls in sorted(by_class, key=str):
            group = by_class[cls]
            order = rng.permutation(len(group))
            cut = round(len(group) * fraction)
            train_entries.extend(group[i] for i in order[:cut])
            test_entries.extend(group[i] for i in order[cut:])
    else:
        order = rng.permutation(len(entries))
        cut = round(len(entries) * fraction)
        train_entries = [entries[i] for i in order[:cut]]
        test_entries = [entries[i] for i in order[cut:]]

    encoded = encode_entries(train_entries + test_entries, table, slots=slots)
    train, test = encoded[: len(train_entries)], encoded[len(train_entries) :]
    train_no_default = [n for n in train if n.label != default_class]
    return DataSplit(
        train=train, test=test, train_no_default=train_no_default, default_class=default_class
    )
