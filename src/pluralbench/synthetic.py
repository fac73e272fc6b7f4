"""Synthetic two-dimensional languages for probing when a default rule helps.

Each language is a handful of gaussian class clusters in a 2-D space.  In
the first preset every class, the default included, is a compact cluster;
in the second the default class is exploded to cover the whole space
uniformly.  Comparing a simple nearest-neighbour classifier (default class
in memory) against the hybrid (default class removed, threshold rule added)
shows that the hybrid only wins when the default is spread out enough to
produce "interfacial" members hugging the other clusters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classifiers import ExemplarMemory, nn_decide_batch, _distance_blocks
from .hybrid import HybridConfig, SweepCurve, threshold_sweep
from .dataset import EncodedNoun

GAUSSIAN = "gaussian"
UNIFORM = "uniform"


@dataclass(frozen=True)
class LanguageSpec:
    """Generator settings for one pseudolanguage sample."""

    centroids: tuple[tuple[float, float], ...]
    sigmas: tuple[float, ...]
    points_per_class: int = 200
    default_class_index: int = 4
    default_mode: str = GAUSSIAN
    space_bounds: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 10.0), (0.0, 10.0))
    seed: int = 0

    @property
    def class_count(self) -> int:
        return len(self.centroids)

    def validate(self) -> None:
        if self.class_count < 2:
            raise ValueError("need at least two classes")
        if len(self.sigmas) != self.class_count:
            raise ValueError("sigmas must match centroid count")
        if not 0 <= self.default_class_index < self.class_count:
            raise ValueError("default_class_index out of range")
        if self.points_per_class < 1:
            raise ValueError("points_per_class must be >= 1")
        if self.default_mode not in (GAUSSIAN, UNIFORM):
            raise ValueError(f"default_mode must be {GAUSSIAN!r} or {UNIFORM!r}")
        (x0, x1), (y0, y1) = self.space_bounds
        if not (x0 < x1 and y0 < y1):
            raise ValueError("space_bounds must be a non-degenerate rectangle")
        if any(s < 0 for s in self.sigmas):
            raise ValueError("sigmas must be non-negative")


@dataclass(frozen=True, eq=False)
class SyntheticSample:
    """Generated points (n, 2) with integer class labels (n,)."""

    coords: np.ndarray
    labels: np.ndarray
    spec: LanguageSpec


# Preset constants: five clusters on the corners-plus-center pattern of the
# unit square scaled by 5 and centered in the space, tight sigma, uniform
# default over the full square in language 2.  The inset keeps each
# cluster's interface ring inside the bounds; clusters pushed into the
# corners lose most of that ring and the seed-robust verdicts with it.
# These are artifact choices; the claims under test are seed-robust
# verdicts, not particular coordinates.
_PRESET_CENTROIDS = ((2.5, 2.5), (7.5, 2.5), (2.5, 7.5), (7.5, 7.5), (5.0, 5.0))
_PRESET_SIGMA = 0.5


def language_1(seed: int = 0, points_per_class: int = 200) -> LanguageSpec:
    """All five classes gaussian with equal variance (default included)."""
    return LanguageSpec(
        centroids=_PRESET_CENTROIDS,
        sigmas=(_PRESET_SIGMA,) * 5,
        points_per_class=points_per_class,
        default_class_index=4,
        default_mode=GAUSSIAN,
        seed=seed,
    )


def language_2(seed: int = 0, points_per_class: int = 200) -> LanguageSpec:
    """Four gaussian clusters; the default class exploded uniformly."""
    return LanguageSpec(
        centroids=_PRESET_CENTROIDS,
        sigmas=(_PRESET_SIGMA,) * 5,
        points_per_class=points_per_class,
        default_class_index=4,
        default_mode=UNIFORM,
        seed=seed,
    )


def generate_language(spec: LanguageSpec) -> SyntheticSample:
    """Sample the language: gaussian clusters, optionally a uniform default."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    (x0, x1), (y0, y1) = spec.space_bounds
    coords = []
    labels = []
    for cls in range(spec.class_count):
        n = spec.points_per_class
        if cls == spec.default_class_index and spec.default_mode == UNIFORM:
            pts = rng.uniform((x0, y0), (x1, y1), size=(n, 2))
        else:
            pts = rng.normal(spec.centroids[cls], spec.sigmas[cls], size=(n, 2))
        coords.append(pts)
        labels.append(np.full(n, cls, dtype=np.intp))
    return SyntheticSample(
        coords=np.concatenate(coords), labels=np.concatenate(labels), spec=spec
    )


def _as_encoded(coords: np.ndarray, labels: np.ndarray) -> list[EncodedNoun]:
    return [
        EncodedNoun(vector=coords[i], label=int(labels[i]), source_id=str(i))
        for i in range(len(labels))
    ]


def compare_simple_vs_hybrid(
    sample: SyntheticSample, split_seed: int, t_grid
) -> tuple[float, SweepCurve, str]:
    """Simple NN vs. the best-over-threshold hybrid NN on a held-out half.

    The simple memory keeps all classes; the hybrid memory drops the
    default class and falls back to it on memory failure.  The verdict
    compares the hybrid's maximum accuracy over the grid against the
    simple accuracy.
    """
    if len(set(sample.labels.tolist())) < 2:
        raise ValueError("sample must contain at least two classes")
    rng = np.random.default_rng(split_seed)
    order = rng.permutation(len(sample.labels))
    cut = round(len(order) * 0.5)
    train_idx, test_idx = order[:cut], order[cut:]
    default = sample.spec.default_class_index

    train_c, train_l = sample.coords[train_idx], sample.labels[train_idx]
    test_c, test_l = sample.coords[test_idx], sample.labels[test_idx]

    simple_memory = ExemplarMemory.from_pairs(train_c, train_l.tolist())
    decisions, _ = nn_decide_batch(simple_memory, test_c)
    simple_accuracy = sum(d == l for d, l in zip(decisions, test_l.tolist())) / len(test_l)

    keep = train_l != default
    if not keep.any():
        raise ValueError("training half contains only the default class")
    hybrid_memory = ExemplarMemory.from_pairs(train_c[keep], train_l[keep].tolist())
    config = HybridConfig(base="nn", t=0.0, default_class=default)
    curve = threshold_sweep(
        config, hybrid_memory, _as_encoded(test_c, test_l), t_grid, baseline=simple_accuracy
    )

    best_accuracy = curve.best()[1]
    if best_accuracy > simple_accuracy:
        verdict = "hybrid-wins"
    elif best_accuracy < simple_accuracy:
        verdict = "simple-wins"
    else:
        verdict = "tie"
    return simple_accuracy, curve, verdict


def _nearest_sq(X: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Per row of Q: squared distance to its nearest row of X, or, when
    ``Q is X``, to its nearest other row; one blocked pass, bounded memory."""
    best = np.empty(len(Q))
    for start, sq in _distance_blocks(X, Q):
        if Q is X:
            np.fill_diagonal(sq[:, start:], np.inf)
        best[start : start + len(sq)] = sq.min(axis=1)
    return best


def regular_taxonomy(
    sample: SyntheticSample, radius: float | None = None, multiplier: float = 2.0
) -> tuple[int, int]:
    """Count interfacial vs. isolated default-class points.

    A default point is interfacial when its nearest non-default point lies
    strictly within the radius rule; otherwise it is isolated.  The default
    rule is scale-free: the median nearest-neighbour distance among the
    non-default (irregular) points times ``multiplier``.  Pass ``radius``
    to override.
    """
    default = sample.spec.default_class_index
    is_default = sample.labels == default
    if not is_default.any():
        raise ValueError("sample has no default-class points")
    irregular = sample.coords[~is_default]
    regular = sample.coords[is_default]
    if len(irregular) == 0:
        raise ValueError("sample has no irregular points")

    if radius is None:
        nn_dist = np.sqrt(_nearest_sq(irregular, irregular))
        radius = float(np.median(nn_dist)) * multiplier

    d_to_irregular = np.sqrt(_nearest_sq(irregular, regular))
    interfacial = int(np.count_nonzero(d_to_irregular < radius))
    return interfacial, len(regular) - interfacial
