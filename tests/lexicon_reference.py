"""Plain per-line and per-word reference versions of the lexicon stages.

These are straightforward loops over one line, one word and one phoneme at
a time.  The tests compare ``dataset.ingest``, ``phonology.derive_plural_class``
and the gathered encoder against them: entries, classes, source ids, error
messages and vector bits must all agree.
"""

from __future__ import annotations

import io
from collections import Counter

import numpy as np

from pluralbench.dataset import LexiconEntry
from pluralbench.errors import LexiconFormatError, UnknownPhonemeError
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
    _read_utf8,
    parse_phonemes,
)


def reference_encode_word(word, table, slots: int = DEFAULT_SLOTS) -> np.ndarray:
    """Right-justified slots x feature_count vector, one phoneme at a time."""
    if slots < 1:
        raise ValueError("slots must be a positive integer")
    n_feat = table.feature_count
    out = np.zeros(slots * n_feat, dtype=np.float64)
    tail = word[-slots:] if len(word) > slots else word
    offset = slots - len(tail)
    for i, symbol in enumerate(tail):
        try:
            vec = table.entries[symbol]
        except KeyError:
            pos = i + (len(word) - len(tail))
            raise UnknownPhonemeError(symbol, position=pos) from None
        start = (offset + i) * n_feat
        out[start : start + n_feat] = vec
    return out


def _umlaut_candidates(word):
    for i in range(len(word) - 1, -1, -1):
        fronted = UMLAUT_PAIRS.get(word[i])
        if fronted is not None:
            yield word[:i] + (fronted,) + word[i + 1 :], i


def _common_prefix_len(a, b) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def reference_derive_plural_class(singular, plural) -> PluralClass:
    """Identity, then suffix, then rewrite; every stage tries the plain stem
    and then each umlauted stem, rightmost vowel first."""
    if not singular or not plural:
        raise ValueError("singular and plural must be non-empty phoneme sequences")

    stems = [(singular, False)] + [(w, True) for w, _ in _umlaut_candidates(singular)]

    for stem, umlauted in stems:
        if plural == stem:
            return PluralClass(kind=UMLAUT) if umlauted else PluralClass(kind=IDENTITY)
    for stem, umlauted in stems:
        if len(plural) > len(stem) and plural[: len(stem)] == stem:
            kind = UMLAUT_SUFFIX if umlauted else SUFFIX
            return PluralClass(kind=kind, suffix=plural[len(stem) :])

    best = None
    for stem, umlauted in stems:
        lcp = _common_prefix_len(stem, plural)
        if best is None or lcp > best[0]:
            best = (lcp, stem, umlauted)
    lcp, stem, umlauted = best
    kind = UMLAUT_REWRITE if umlauted else REWRITE
    return PluralClass(kind=kind, rewrite_from=stem[lcp:], rewrite_to=plural[lcp:])


def reference_ingest(path, table) -> list[LexiconEntry]:
    """One line at a time through a universal-newline text stream."""
    text = _read_utf8(path, LexiconFormatError)
    entries = []
    seen: Counter[str] = Counter()
    with io.StringIO(text, newline=None) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            cells = line.split("\t")
            if len(cells) != 3:
                raise LexiconFormatError(
                    f"expected 3 tab-separated columns, got {len(cells)}", line_number=lineno
                )
            orth, sing_text, plur_text = (c.strip() for c in cells)
            singular = parse_phonemes(sing_text)
            plural = parse_phonemes(plur_text)
            if not orth or not singular or not plural:
                raise LexiconFormatError("empty orthography or phoneme field", line_number=lineno)
            try:
                table.check_word(singular, context=f"singular of {orth!r}")
                table.check_word(plural, context=f"plural of {orth!r}")
            except UnknownPhonemeError as exc:
                raise LexiconFormatError(str(exc), line_number=lineno) from exc
            seen[orth] += 1
            source_id = orth if seen[orth] == 1 else f"{orth}#{seen[orth]}"
            entries.append(
                LexiconEntry(
                    orthography=orth,
                    singular=singular,
                    plural=plural,
                    derived_class=reference_derive_plural_class(singular, plural),
                    source_id=source_id,
                )
            )
    if not entries:
        raise LexiconFormatError(f"{path}: no entries (the lexicon is empty or only comments)")
    return entries
