"""Default-rule hybrids: associative memory plus an "add -s" fallback.

Memory failure is made explicit through a threshold t.  For nearest
neighbour the memory fails when the closest exemplar is not strictly
nearer than t; for the probabilistic and network models it fails when the
best score does not strictly exceed t.  The comparisons are deliberately
strict (< for distance, > for scores), so boundary equality falls to the
default rule.  The associative component is always trained without the
default class; the "simple" baseline it is compared against includes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import (
    ExemplarMemory,
    GcmParams,
    MlpModel,
    _class_ranks,
    _gcm_decide_scales,
    gcm_classify,
    gcm_decide_batch,
    mlp_classify,
    mlp_decide_batch,
    nn_classify,
    nn_decide_batch,
)
from .dataset import EncodedNoun

BASES = ("nn", "gcm", "mlp")


@dataclass(frozen=True)
class HybridConfig:
    """Which associative base to wrap, its threshold, and the default class.

    ``t`` is a distance for the nearest-neighbour base and a score in
    [0, 1] for the other two.  ``gcm_params`` is required for the gcm base.
    """

    base: str
    t: float
    default_class: object
    gcm_params: GcmParams | None = None

    def __post_init__(self):
        if self.base not in BASES:
            raise ValueError(f"base must be one of {BASES}, got {self.base!r}")
        if self.t < 0:
            raise ValueError("threshold t must be non-negative")
        if self.base in ("gcm", "mlp") and self.t > 1:
            raise ValueError("score thresholds must lie in [0, 1]")
        if self.base == "gcm" and self.gcm_params is None:
            raise ValueError("gcm base requires gcm_params")


@dataclass(frozen=True, eq=False)
class SweepCurve:
    """Ordered (t, accuracy) pairs plus the simple-classifier baseline."""

    points: list[tuple[float, float]]
    baseline: float | None = None

    def best(self) -> tuple[float, float]:
        """(t, accuracy) maximizing accuracy; ties go to the smallest t."""
        return min(self.points, key=lambda p: (-p[1], p[0]))


def hybrid_nn_classify(memory_no_default: ExemplarMemory, query, t: float, default_class):
    """Nearest neighbour's class if it lies strictly nearer than t, else default."""
    decision, distance = nn_classify(memory_no_default, query)
    return decision if distance < t else default_class


def hybrid_gcm_classify(
    memory_no_default: ExemplarMemory, params: GcmParams, query, t: float, default_class
):
    """Most probable class if its probability strictly exceeds t, else default."""
    response = gcm_classify(memory_no_default, params, query)
    return response.decision if response.scores.max() > t else default_class


def hybrid_mlp_classify(model_no_default: MlpModel, query, t: float, default_class):
    """Most active class if its activation strictly exceeds t, else default."""
    response = mlp_classify(model_no_default, query)
    return response.decision if response.scores.max() > t else default_class


def _base_scores(config: HybridConfig, model, queries):
    """Per-query (candidate decision, score) for the associative component."""
    if config.base == "nn":
        return nn_decide_batch(model, queries)
    if config.base == "gcm":
        return gcm_decide_batch(model, config.gcm_params, queries)
    return mlp_decide_batch(model, queries)


def _use_memory(base: str, scores: np.ndarray, t: float) -> np.ndarray:
    return scores < t if base == "nn" else scores > t


def _hybrid_accuracy(use_memory, memory_right, default_right) -> float:
    """Accuracy when use_memory queries take memory's answer and the others the default."""
    right = np.where(use_memory, memory_right, default_right)
    return int(np.count_nonzero(right)) / len(right)


def hybrid_decide_batch(config: HybridConfig, model, queries) -> list:
    """Hybrid decisions for query rows at the config's threshold."""
    decisions, scores = _base_scores(config, model, queries)
    use_memory = _use_memory(config.base, scores, config.t)
    return [d if ok else config.default_class for d, ok in zip(decisions, use_memory)]


def threshold_sweep(
    config: HybridConfig,
    model,
    test_set: list[EncodedNoun],
    t_grid,
    baseline: float | None = None,
) -> SweepCurve:
    """Hybrid accuracy at every threshold in the grid.

    The associative component's decisions and scores are computed once;
    each grid point only re-applies the threshold rule.  ``baseline`` is
    the accuracy of the corresponding simple classifier (trained with the
    default class included) and is attached to the curve unchanged.
    """
    t_grid = list(t_grid)
    if not t_grid:
        raise ValueError("threshold grid must be non-empty")
    if not test_set:
        raise ValueError("test_set must be non-empty")
    decisions, scores = _base_scores(config, model, [n.vector for n in test_set])
    memory_right = np.array([d == n.label for d, n in zip(decisions, test_set)], dtype=bool)
    default_right = np.array([config.default_class == n.label for n in test_set], dtype=bool)
    points = []
    for t in sorted(t_grid):
        use_memory = _use_memory(config.base, scores, t)
        points.append((float(t), _hybrid_accuracy(use_memory, memory_right, default_right)))
    return SweepCurve(points=points, baseline=baseline)


def grid_search_s_t(
    memory_no_default: ExemplarMemory,
    test_set: list[EncodedNoun],
    s_grid,
    t_grid,
    default_class,
    p: int = 2,
) -> tuple[float, float, float]:
    """Exhaustive accuracy search over the kernel scale and threshold grids.

    Returns (best_s, best_t, accuracy); ties resolve to the smaller t,
    then the smaller s.
    """
    s_grid = sorted(s_grid)
    t_grid = sorted(t_grid)
    if not s_grid or not t_grid:
        raise ValueError("grids must be non-empty")
    if not test_set:
        raise ValueError("test_set must be non-empty")
    queries = [n.vector for n in test_set]
    results = _gcm_decide_scales(memory_no_default, [GcmParams(s=s, p=p) for s in s_grid], queries)
    truth = _class_ranks(memory_no_default, test_set)
    default_right = np.array([default_class == n.label for n in test_set], dtype=bool)
    best = None
    for s, (ranks, max_probs) in zip(s_grid, results):
        for t in t_grid:
            acc = _hybrid_accuracy(max_probs > t, ranks == truth, default_right)
            key = (-acc, t, s)
            if best is None or key < best[0]:
                best = (key, (float(s), float(t), acc))
    return best[1]
