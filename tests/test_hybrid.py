"""Threshold semantics of the default-rule hybrids."""

import numpy as np
import pytest

from pluralbench.classifiers import (
    ExemplarMemory,
    GcmParams,
    MlpModel,
    gcm_decide_batch,
    mlp_train,
)
from pluralbench.dataset import EncodedNoun
from pluralbench.hybrid import (
    HybridConfig,
    SweepCurve,
    grid_search_s_t,
    hybrid_decide_batch,
    hybrid_gcm_classify,
    hybrid_mlp_classify,
    hybrid_nn_classify,
    threshold_sweep,
)


def _nouns(X, labels):
    return [
        EncodedNoun(vector=np.asarray(x, dtype=np.float64), label=l, source_id=str(i))
        for i, (x, l) in enumerate(zip(X, labels))
    ]


def test_config_validation():
    with pytest.raises(ValueError):
        HybridConfig(base="svm", t=0.5, default_class="d")
    with pytest.raises(ValueError):
        HybridConfig(base="nn", t=-0.1, default_class="d")
    with pytest.raises(ValueError):
        HybridConfig(base="mlp", t=1.5, default_class="d")
    with pytest.raises(ValueError):
        HybridConfig(base="gcm", t=0.5, default_class="d")  # params missing
    HybridConfig(base="nn", t=5.0, default_class="d")  # distances may exceed 1


def test_nn_threshold_is_strictly_less_than():
    memory = ExemplarMemory.from_pairs([[0.0, 0.0]], ["m"])
    query = [1.0, 0.0]  # distance exactly 1
    assert hybrid_nn_classify(memory, query, t=1.0, default_class="d") == "d"
    assert hybrid_nn_classify(memory, query, t=1.0 + 1e-9, default_class="d") == "m"
    assert hybrid_nn_classify(memory, query, t=0.0, default_class="d") == "d"


def test_score_thresholds_are_strictly_greater_than():
    # two equidistant exemplars of different classes: max probability is 0.5
    memory = ExemplarMemory.from_pairs([[0.0, 0.0], [2.0, 0.0]], ["a", "b"])
    params = GcmParams(s=1.0)
    query = [1.0, 0.0]
    assert hybrid_gcm_classify(memory, params, query, t=0.5, default_class="d") == "d"
    assert hybrid_gcm_classify(memory, params, query, t=0.499, default_class="d") == "a"
    assert hybrid_gcm_classify(memory, params, query, t=0.0, default_class="d") == "a"

    model = MlpModel(
        w_hidden=np.zeros((2, 2)),
        b_hidden=np.zeros(2),
        w_output=np.zeros((2, 2)),
        b_output=np.zeros(2),
        class_set=["a", "b"],
    )  # all outputs are exactly 0.5
    assert hybrid_mlp_classify(model, np.ones(2), t=0.5, default_class="d") == "d"
    assert hybrid_mlp_classify(model, np.ones(2), t=0.499, default_class="d") == "a"


@pytest.mark.parametrize("base", ["nn", "gcm", "mlp"])
def test_batch_matches_single(base):
    rng = np.random.default_rng(20)
    X = rng.normal(size=(20, 2))
    labels = ["a", "b"] * 10
    train = _nouns(X, labels)
    Q = rng.normal(size=(12, 2))
    if base == "nn":
        model = ExemplarMemory.from_encoded(train)
        config = HybridConfig(base="nn", t=0.8, default_class="d")
        singles = [hybrid_nn_classify(model, q, 0.8, "d") for q in Q]
    elif base == "gcm":
        model = ExemplarMemory.from_encoded(train)
        params = GcmParams(s=0.9)
        config = HybridConfig(base="gcm", t=0.6, default_class="d", gcm_params=params)
        singles = [hybrid_gcm_classify(model, params, q, 0.6, "d") for q in Q]
    else:
        model = mlp_train(train, hidden=3, epochs=5, seed=2)
        config = HybridConfig(base="mlp", t=0.6, default_class="d")
        singles = [hybrid_mlp_classify(model, q, 0.6, "d") for q in Q]
    assert hybrid_decide_batch(config, model, Q) == singles


def test_sweep_curve_best_prefers_smallest_t():
    curve = SweepCurve(points=[(0.3, 0.8), (0.1, 0.8), (0.2, 0.7)])
    assert curve.best() == (0.1, 0.8)


def test_threshold_sweep_endpoints():
    rng = np.random.default_rng(21)
    X = np.concatenate([rng.normal((0, 0), 0.2, (10, 2)), rng.normal((5, 5), 0.2, (10, 2))])
    memory = ExemplarMemory.from_pairs(X, ["a"] * 10 + ["b"] * 10)
    test_set = _nouns(
        np.concatenate([rng.normal((0, 0), 0.2, (6, 2)), rng.uniform(10, 20, (6, 2))]),
        ["a"] * 6 + ["d"] * 6,
    )
    config = HybridConfig(base="nn", t=0.0, default_class="d")
    curve = threshold_sweep(config, memory, test_set, [0.0, 2.0, 1e9], baseline=0.5)
    by_t = dict(curve.points)
    assert by_t[0.0] == pytest.approx(0.5)   # everything defaults: the 6 "d"s
    assert by_t[2.0] == pytest.approx(1.0)   # near points to memory, far to default
    assert by_t[1e9] == pytest.approx(0.5)   # nothing defaults: the 6 "a"s
    assert curve.baseline == 0.5
    assert [t for t, _ in curve.points] == [0.0, 2.0, 1e9]


def test_threshold_sweep_is_strict_at_attained_values():
    # nn: distances exactly 1 and 2 reach memory only when t exceeds them
    memory = ExemplarMemory.from_pairs([[0.0, 0.0]], ["m"])
    test_set = _nouns([[1.0, 0.0], [2.0, 0.0]], ["m", "m"])
    config = HybridConfig(base="nn", t=0.0, default_class="d")
    curve = threshold_sweep(config, memory, test_set, [1.0, 2.0, 2.0 + 1e-9])
    assert curve.points == [(1.0, 0.0), (2.0, 0.5), (2.0 + 1e-9, 1.0)]

    # gcm: an equidistant query attains max probability exactly 0.5
    memory = ExemplarMemory.from_pairs([[0.0, 0.0], [2.0, 0.0]], ["a", "b"])
    config = HybridConfig(base="gcm", t=0.0, default_class="d", gcm_params=GcmParams(s=1.0))
    curve = threshold_sweep(config, memory, _nouns([[1.0, 0.0]], ["a"]), [0.499, 0.5])
    assert curve.points == [(0.499, 1.0), (0.5, 0.0)]

    # mlp: zero weights make every activation exactly 0.5
    model = MlpModel(
        w_hidden=np.zeros((2, 2)),
        b_hidden=np.zeros(2),
        w_output=np.zeros((2, 2)),
        b_output=np.zeros(2),
        class_set=["a", "b"],
    )
    config = HybridConfig(base="mlp", t=0.0, default_class="d")
    curve = threshold_sweep(config, model, _nouns([[1.0, 1.0]], ["a"]), [0.5, 0.499])
    assert curve.points == [(0.499, 1.0), (0.5, 0.0)]


def test_threshold_sweep_validation():
    memory = ExemplarMemory.from_pairs([[0.0]], ["a"])
    config = HybridConfig(base="nn", t=0.0, default_class="d")
    with pytest.raises(ValueError):
        threshold_sweep(config, memory, _nouns([[0.0]], ["a"]), [])
    with pytest.raises(ValueError):
        threshold_sweep(config, memory, [], [1.0])


def test_grid_search_matches_manual_enumeration():
    rng = np.random.default_rng(22)
    X = rng.normal(size=(8, 2))
    memory = ExemplarMemory.from_pairs(X, ["a", "b"] * 4)
    test_set = _nouns(rng.normal(size=(10, 2)), ["a", "b", "d", "a", "b"] * 2)
    s_grid, t_grid = [0.5, 1.0], [0.2, 0.5, 0.8]
    best = None
    for s in s_grid:
        decisions, max_probs = gcm_decide_batch(
            memory, GcmParams(s=s), [n.vector for n in test_set]
        )
        for t in t_grid:
            hybrid = [d if mp > t else "d" for d, mp in zip(decisions, max_probs)]
            acc = sum(h == n.label for h, n in zip(hybrid, test_set)) / len(test_set)
            key = (-acc, t, s)
            if best is None or key < best[0]:
                best = (key, (s, t, acc))
    assert grid_search_s_t(memory, test_set, s_grid, t_grid, "d") == best[1]


def test_grid_search_tie_breaks_to_smaller_t_then_s():
    # single-class memory: max probability is always 1.0, so only t = 1.0
    # routes anything to the default; every (s, t<1) cell ties
    memory = ExemplarMemory.from_pairs([[0.0, 0.0]], ["m"])
    test_set = _nouns([[5.0, 5.0], [6.0, 6.0]], ["d", "d"])
    s, t, acc = grid_search_s_t(memory, test_set, [2.0, 1.0], [0.3, 0.7, 1.0], "d")
    assert (s, t, acc) == (1.0, 1.0, 1.0)
    all_m = _nouns([[5.0, 5.0], [6.0, 6.0]], ["m", "m"])
    s, t, acc = grid_search_s_t(memory, all_m, [2.0, 1.0], [0.3, 0.7, 1.0], "d")
    assert (s, t, acc) == (1.0, 0.3, 1.0)  # full tie across t < 1: smallest wins
    with pytest.raises(ValueError):
        grid_search_s_t(memory, all_m, [], [0.5], "d")
    with pytest.raises(ValueError):
        grid_search_s_t(memory, all_m, [-1.0], [0.5], "d")


def test_grid_search_smaller_s_wins_only_at_larger_t():
    # "a" at 0 and "b" at 4; the "a" query should reach memory, the "d"
    # query should default.  At s=1 both probabilities are high (0.9997,
    # 0.69), so only t=0.8 separates them; at s=4 they are flat (0.62,
    # 0.51), so t=0.6 already does.  Both reach accuracy 1, and the
    # smaller t wins the tie even though it belongs to the larger s.
    memory = ExemplarMemory.from_pairs([[0.0], [4.0]], ["a", "b"])
    test_set = _nouns([[1.0], [1.9]], ["a", "d"])
    assert grid_search_s_t(memory, test_set, [4.0, 1.0], [0.3, 0.6, 0.8], "d") == (
        4.0, 0.6, 1.0,
    )
    # without s=4 the best cell is the smaller s at the larger t
    assert grid_search_s_t(memory, test_set, [1.0], [0.3, 0.6, 0.8], "d") == (1.0, 0.8, 1.0)
    with pytest.raises(ValueError):
        grid_search_s_t(memory, [], [1.0], [0.5], "d")
