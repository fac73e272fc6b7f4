"""Deterministic paper-scale lexicon generator.

Writes a German-like noun lexicon in the pluralbench TSV format
(orthography, singular phonemes, plural phonemes) using only symbols of
the bundled feature table.  Plurals follow ending-conditioned rules, with
a latent gender deciding the ambiguous monosyllables, so the pipeline
derives the usual class inventory (+n, +ən, +ə, +s, Umlaut+ə, +ər,
Umlaut+ər, Identity, Umlaut, +nən, +sə) plus two rare rewrite classes
that the type-frequency filter discards.  About two thirds of the entries
are compounds (modifier + simplex head, inheriting the head's plural), so
the result has the shape of the full-lexicon experiment: about 24,640
entries ingested and about 8,600 left after compound removal.

    python3 bench/lexicon.py --seed 3 --out lexicon.tsv
"""

from __future__ import annotations

import argparse
import itertools
import random
from pathlib import Path

INGESTED = 24_640
NON_COMPOUND = 8_600

ONSETS = (
    "p b t d k g f v s z ʃ m n l r h j ts pf tʃ".split()
    + [tuple(c.split()) for c in (
        "ʃ t", "ʃ p", "ʃ r", "ʃ l", "ʃ v", "ʃ m", "ʃ n", "b r", "b l", "d r",
        "t r", "k r", "k l", "k n", "g r", "g l", "f r", "f l", "p r", "p l", "ts v",
    )]
)
NUCLEI = "iː ɪ yː ʏ uː ʊ eː ɛ ɛː øː œ oː ɔ aː a aɪ aʊ ɔʏ".split()
CODAS = (
    "n m l r s t k f x ç ŋ ʃ p".split()
    + [tuple(c.split()) for c in (
        "n t", "n d", "l t", "r t", "r k", "s t", "ŋ k", "x t", "ç t", "l m",
        "r m", "r n", "n s", "m p", "l d", "r d", "f t", "ts",
    )]
)
FULL_VOWELS = "a oː iː uː yː eː".split()
UMLAUT = {"a": "ɛ", "aː": "ɛː", "ɔ": "œ", "oː": "øː", "ʊ": "ʏ", "uː": "yː", "aʊ": "ɔʏ"}

# polysyllable endings whose plural class follows from the ending alone
FIXED_ENDINGS = (
    ("ʊ ŋ", ("ə", "n")), ("h aɪ t", ("ə", "n")), ("k aɪ t", ("ə", "n")),
    ("ʃ a f t", ("ə", "n")), ("ts j oː n", ("ə", "n")), ("t eː t", ("ə", "n")),
    ("ɛ n t", ("ə", "n")), ("a n t", ("ə", "n")), ("ɪ n", ("n", "ə", "n")),
    ("n ɪ s", ("s", "ə")), ("ɪ ç", ("ə",)), ("l ɪ ŋ", ("ə",)), ("m ɛ n t", ("ə",)),
)

ROMAN = {
    "iː": "ie", "ɪ": "i", "yː": "üh", "ʏ": "ü", "uː": "uh", "ʊ": "u", "eː": "eh",
    "ɛ": "e", "ɛː": "äh", "øː": "öh", "œ": "ö", "oː": "oh", "ɔ": "o", "aː": "ah",
    "a": "a", "ə": "e", "aɪ": "ei", "aʊ": "au", "ɔʏ": "eu", "ʃ": "sch", "ç": "ch",
    "x": "ch", "ŋ": "ng", "ts": "z", "tʃ": "tsch", "z": "s", "v": "w", "j": "j",
}


def _flat(*parts) -> tuple[str, ...]:
    out = []
    for p in parts:
        if isinstance(p, tuple):
            out.extend(p)
        elif p:
            out.append(p)
    return tuple(out)


def _umlaut(word: tuple[str, ...]) -> tuple[str, ...] | None:
    """Front the rightmost umlautable vowel, or None if there is none."""
    for i in range(len(word) - 1, -1, -1):
        if word[i] in UMLAUT:
            return word[:i] + (UMLAUT[word[i]],) + word[i + 1 :]
    return None


class _Language:
    """Sampling rules; ``rng`` is the only source of randomness."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        # coda-conditioned gender leanings: the part of the class that a
        # monosyllable's ending predicts
        fixed = random.Random(1996)
        self.gender_bias = {
            c: fixed.choices(("m", "n", "f"), weights=(45, 30, 25))[0] for c in CODAS
        }

    def syllable(self, onset=True, coda=True):
        r = self.rng
        return _flat(
            r.choice(ONSETS) if onset and r.random() < 0.9 else None,
            r.choice(NUCLEI),
            r.choice(CODAS) if coda else None,
        )

    def gendered(self, stem, last_coda):
        """Plural of a consonant-final stem decided by a latent gender."""
        r = self.rng
        bias = self.gender_bias.get(last_coda, "m")
        gender = bias if r.random() < 0.7 else r.choice("mnf")
        uml = _umlaut(stem)
        if gender == "m":
            if uml and r.random() < 0.45:
                return uml + ("ə",)
            return stem + (("ə", "n") if r.random() < 0.08 else ("ə",))
        if gender == "n":
            if uml and r.random() < 0.35:
                return uml + ("ə", "r")
            return stem + (("ə", "r") if r.random() < 0.2 else ("ə",))
        if uml and r.random() < 0.3:
            return uml + ("ə",)
        return stem + ("ə", "n")

    def simplex(self):
        """One (singular, plural, rare) triple."""
        r = self.rng
        kind = r.choices(
            ("mono", "schwa", "sonorant", "fixed", "poly", "s_vowel", "s_loan", "rare"),
            weights=(24, 20, 14, 22, 10, 5.2, 1.5, 0.25),
        )[0]
        if kind == "mono":
            coda = r.choice(CODAS)
            stem = _flat(r.choice(ONSETS), r.choice(NUCLEI), coda)
            return stem, self.gendered(stem, coda), False
        if kind == "schwa":
            stem = self.syllable() + _flat(r.choice(ONSETS), "ə")
            if r.random() < 0.05:
                stem = self.syllable(coda=False) + stem
            return stem, stem + ("n",), False
        if kind == "sonorant":
            stem = self.syllable(coda=r.random() < 0.4) + _flat(
                r.choice(ONSETS), "ə", r.choice(("r", "l", "n"))
            )
            uml = _umlaut(stem)
            roll = r.random()
            if uml and roll < 0.3:
                return stem, uml, False
            if stem[-1] != "n" and roll > 0.85:
                return stem, stem + ("n",), False
            return stem, stem, False
        if kind == "fixed":
            ending, suffix = r.choice(FIXED_ENDINGS)
            stem = self.syllable(coda=r.random() < 0.5) + tuple(ending.split())
            return stem, stem + suffix, False
        if kind == "poly":
            coda = r.choice(CODAS)
            stem = self.syllable(coda=r.random() < 0.5) + _flat(
                r.choice(ONSETS), r.choice(NUCLEI), coda
            )
            return stem, self.gendered(stem, coda), False
        if kind == "s_vowel":
            stem = self.syllable(coda=r.random() < 0.5) + _flat(
                r.choice(ONSETS), r.choice(FULL_VOWELS)
            )
            return stem, stem + ("s",), False
        if kind == "s_loan":
            stem = _flat(r.choice(ONSETS), r.choice(NUCLEI), r.choice(("p", "k", "ʃ", "m")))
            stem = self.syllable(coda=False) + stem
            return stem, stem + ("s",), False
        # rare Latinate rewrites, dropped by the type-frequency filter
        stem = self.syllable(coda=False) + _flat(r.choice(ONSETS))
        if r.random() < 0.5:
            return stem + ("eː", "ʊ", "m"), stem + ("eː", "ə", "n"), True
        return stem + ("a",), stem + ("ə", "n"), True


def _surviving(words: set) -> int:
    """How many words have no proper suffix that is itself a word."""
    return sum(
        1 for w in words if not any(w[i:] in words for i in range(1, len(w)))
    )


def generate(seed: int) -> list[tuple[str, tuple[str, ...], tuple[str, ...]]]:
    """(orthography, singular, plural) rows, deterministic per seed."""
    rng = random.Random(seed)
    lang = _Language(rng)
    simplex: dict[tuple, tuple] = {}
    rare: set = set()
    # grow the simplex set in batches until NON_COMPOUND of them survive
    # compound removal among themselves
    while len(simplex) < NON_COMPOUND or _surviving(set(simplex)) < NON_COMPOUND:
        for _ in range(200):
            sing, plur, is_rare = lang.simplex()
            if sing not in simplex:
                simplex[sing] = plur
                if is_rare:
                    rare.add(sing)
    heads = sorted(s for s in simplex if s not in rare)
    rng.shuffle(heads)
    # Zipf-like head popularity: a few heads form many compounds
    cum_weights = list(itertools.accumulate(1.0 / (k + 10) for k in range(len(heads))))
    modifiers = sorted(simplex)
    words = dict(simplex)
    while len(words) < INGESTED:
        head = rng.choices(heads, cum_weights=cum_weights)[0]
        mod = rng.choice(modifiers)
        link = rng.choices(((), ("s",), ("ə", "n")), weights=(70, 20, 10))[0]
        sing = mod + link + head
        if sing in words:
            continue
        words[sing] = mod + link + words[head]
    rows = [("".join(ROMAN.get(p, p) for p in s).capitalize(), s, p) for s, p in words.items()]
    rng.shuffle(rows)
    return rows


def write_lexicon(path, seed: int) -> int:
    """Write the generated lexicon as TSV; returns the number of rows."""
    rows = generate(seed)
    lines = [f"# generated pluralbench lexicon, seed {seed}\n"]
    lines += [f"{o}\t{' '.join(s)}\t{' '.join(p)}\n" for o, s, p in rows]
    Path(path).write_text("".join(lines), encoding="utf-8")
    return len(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="TSV file to write")
    args = parser.parse_args(argv)
    n = write_lexicon(args.out, args.seed)
    print(f"wrote {n} entries -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
