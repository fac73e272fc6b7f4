"""Oracle-backed tests for the exemplar, context, and network classifiers."""

import functools
import math
from collections import Counter

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pluralbench import classifiers
from pluralbench.classifiers import (
    ClassifierResponse,
    ExemplarMemory,
    GcmParams,
    MlpModel,
    _distance_blocks,
    _exact_in_float32,
    _gcm_decide_scales,
    _gcm_prob_matrix,
    _histogram_block_probs,
    _integer_peak,
    _leave_one_out_panels,
    _mlp_train_checkpoints,
    _nearest,
    _nearest_ranks,
    _nearest_window,
    _panel_keys_exact,
    _sq_distances,
    evaluate,
    gcm_classify,
    gcm_decide_batch,
    gcm_optimize_scale,
    mlp_classify,
    mlp_decide_batch,
    mlp_gradients,
    mlp_grid_sweep,
    mlp_loss,
    mlp_train,
    nn_classify,
    nn_decide_batch,
    nn_leave_one_out,
)
from pluralbench.dataset import EncodedNoun
from pluralbench.synthetic import generate_language, language_2


def _nouns(X, labels):
    return [
        EncodedNoun(vector=np.asarray(x, dtype=np.float64), label=l, source_id=str(i))
        for i, (x, l) in enumerate(zip(X, labels))
    ]


# --------------------------------------------------------------------------
# Exemplar memory
# --------------------------------------------------------------------------


def test_memory_canonical_class_order():
    X = np.zeros((6, 2))
    labels = ["b", "a", "a", "c", "c", "c"]
    memory = ExemplarMemory.from_pairs(X, labels)
    assert memory.class_set == ["c", "a", "b"]  # count desc, then name
    assert memory.class_counts == {"a": 2, "b": 1, "c": 3}
    assert memory.label_rank.tolist() == [2, 1, 1, 0, 0, 0]
    assert len(memory) == 6 and memory.dim == 2


def test_memory_from_encoded_matches_from_pairs():
    X = np.arange(8, dtype=np.float64).reshape(4, 2)
    labels = ["a", "b", "a", "b"]
    a = ExemplarMemory.from_pairs(X, labels)
    b = ExemplarMemory.from_encoded(_nouns(X, labels))
    assert a.class_set == b.class_set
    assert np.array_equal(a.vectors, b.vectors)
    assert a.labels == b.labels


def test_memory_validation():
    with pytest.raises(ValueError):
        ExemplarMemory.from_pairs(np.zeros((0, 2)), [])
    with pytest.raises(ValueError):
        ExemplarMemory.from_pairs(np.zeros(3), ["a", "b", "c"])
    with pytest.raises(ValueError):
        ExemplarMemory.from_pairs(np.zeros((2, 2)), ["a"])
    with pytest.raises(ValueError):
        ExemplarMemory.from_encoded([])


def test_sq_distances_against_loops():
    rng = np.random.default_rng(0)
    for _ in range(10):
        X = rng.normal(size=(int(rng.integers(1, 12)), int(rng.integers(1, 5))))
        Q = rng.normal(size=(int(rng.integers(1, 8)), X.shape[1]))
        sq = _sq_distances(X, Q)
        for qi in range(len(Q)):
            for xi in range(len(X)):
                want = float(np.sum((X[xi] - Q[qi]) ** 2))
                assert abs(sq[qi, xi] - want) < 1e-9


def test_sq_distances_exact_on_binary_vectors():
    rng = np.random.default_rng(1)
    X = rng.integers(0, 2, size=(20, 30)).astype(np.float64)
    Q = rng.integers(0, 2, size=(7, 30)).astype(np.float64)
    sq = _sq_distances(X, Q)
    for qi in range(len(Q)):
        for xi in range(len(X)):
            hamming = float(np.count_nonzero(X[xi] != Q[qi]))
            assert sq[qi, xi] == hamming  # exact, not approximate


# --------------------------------------------------------------------------
# Nearest neighbour
# --------------------------------------------------------------------------


def test_nn_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(3, 30))
        X = rng.normal(size=(n, 2))
        labels = [f"c{int(i)}" for i in rng.integers(0, 4, n)]
        memory = ExemplarMemory.from_pairs(X, labels)
        for _ in range(10):
            q = rng.normal(size=2)
            dists = [math.hypot(*(x - q)) for x in X]
            j = int(np.argmin(dists))
            decision, distance = nn_classify(memory, q)
            assert decision == labels[j]
            assert abs(distance - dists[j]) < 1e-9


def test_nn_tie_breaks_by_name_then_count():
    # equal class counts: alphabetical order wins
    memory = ExemplarMemory.from_pairs([[0.0, 0.0], [2.0, 0.0]], ["b", "a"])
    decision, distance = nn_classify(memory, [1.0, 0.0])
    assert decision == "a" and distance == 1.0
    # unequal counts: the more frequent class outranks the name
    memory = ExemplarMemory.from_pairs(
        [[0.0, 0.0], [2.0, 0.0], [5.0, 5.0]], ["b", "a", "b"]
    )
    decision, _ = nn_classify(memory, [1.0, 0.0])
    assert decision == "b"


def test_nn_batch_matches_single():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 3))
    labels = [f"c{int(i)}" for i in rng.integers(0, 3, 40)]
    memory = ExemplarMemory.from_pairs(X, labels)
    Q = rng.normal(size=(25, 3))
    decisions, distances = nn_decide_batch(memory, Q)
    for qi in range(len(Q)):
        d, dist = nn_classify(memory, Q[qi])
        assert decisions[qi] == d
        assert distances[qi] == pytest.approx(dist, abs=1e-12)
    with pytest.raises(ValueError):
        nn_decide_batch(memory, rng.normal(size=(5, 4)))


def test_leave_one_out_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        X = rng.normal(size=(n, 2))
        labels = [f"c{int(i)}" for i in rng.integers(0, 3, n)]
        correct = 0
        for i in range(n):
            dists = [
                math.hypot(*(X[j] - X[i])) if j != i else math.inf for j in range(n)
            ]
            correct += labels[int(np.argmin(dists))] == labels[i]
        assert nn_leave_one_out(ExemplarMemory.from_pairs(X, labels)) == pytest.approx(correct / n)
    with pytest.raises(ValueError):
        nn_leave_one_out(ExemplarMemory.from_pairs(X[:1], labels[:1]))


def _hamming_nn_oracle(X, labels, q, skip=None):
    """Class of the nearest row of binary X by Hamming distance, with exact
    ties going to the class with more items in ``labels``, then by name."""
    counts = {c: labels.count(c) for c in set(labels)}
    dists = [
        math.inf if j == skip else int(np.count_nonzero(X[j] != q)) for j in range(len(X))
    ]
    best = min(dists)
    tied = {labels[j] for j in range(len(X)) if dists[j] == best}
    return min(tied, key=lambda c: (-counts[c], c)), math.sqrt(best)


def test_nn_exact_ties_across_unequal_classes_on_binary_vectors():
    # the query is at Hamming distance 1 from one "a" and one "z"; "z" has
    # more exemplars, so it outranks the alphabetically first "a"
    X = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 1, 1], [1, 1, 1, 0]], dtype=np.float64)
    labels = ["a", "z", "z", "z"]
    memory = ExemplarMemory.from_pairs(X, labels)
    decisions, distances = nn_decide_batch(memory, np.zeros((1, 4)))
    assert decisions == ["z"] and distances.tolist() == [1.0]
    # leave-one-out: items 0 and 3 each tie an "a" and a "z" neighbour and
    # are right only if "z" wins; item 1 ("a") is nearest to a "z"
    X = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 1, 1]], dtype=np.float64)
    assert nn_leave_one_out(ExemplarMemory.from_pairs(X, ["z", "a", "z", "z"])) == 0.75

    rng = np.random.default_rng(40)
    X = rng.integers(0, 2, size=(120, 7)).astype(np.float64)
    labels = [["a", "m", "z"][int(i)] for i in rng.choice(3, 120, p=[0.2, 0.3, 0.5])]
    memory = ExemplarMemory.from_pairs(X, labels)
    Q = rng.integers(0, 2, size=(300, 7)).astype(np.float64)
    decisions, distances = nn_decide_batch(memory, Q)
    for q, d, dist in zip(Q, decisions, distances):
        assert (d, dist) == _hamming_nn_oracle(X, labels, q)


def _float64_leave_one_out(memory):
    """Per item (class rank, squared distance) of its nearest other item: the
    float64 formula over all pairs at once, no blocks, no keys."""
    sq = _sq_distances(memory.vectors, memory.vectors)
    np.fill_diagonal(sq, np.inf)
    return _nearest_ranks(sq, memory.label_rank)


def _assert_leave_one_out_kernels(memory, block, oracle):
    """Both kernels at ``block`` equal the float64 loop item by item, and
    their decisions and distances equal ``oracle`` (per item (class, dist))."""
    X, label_rank, n_classes = memory.vectors, memory.label_rank, len(memory.class_set)
    ranks, best = _float64_leave_one_out(memory)
    assert [(memory.class_set[r], math.sqrt(b)) for r, b in zip(ranks, best)] == oracle
    assert _panel_keys_exact(X, n_classes, block)
    for kernel_ranks, kernel_best in (
        _leave_one_out_panels(X, label_rank, n_classes, block),
        _nearest(X, label_rank, X, True, block),
    ):
        assert np.array_equal(kernel_ranks, ranks) and np.array_equal(kernel_best, best)


_BLOCK_EDGE_N = 330


@functools.cache
def _block_edge_case():
    rng = np.random.default_rng(41)
    n = _BLOCK_EDGE_N
    X = rng.integers(0, 2, size=(n, 9)).astype(np.float64)
    labels = [["a", "b", "c"][int(i)] for i in rng.choice(3, n, p=[0.5, 0.3, 0.2])]
    oracle = [_hamming_nn_oracle(X, labels, X[i], skip=i) for i in range(n)]
    return X, labels, oracle


@pytest.mark.parametrize("block", [1, 3, _BLOCK_EDGE_N - 1, _BLOCK_EDGE_N, _BLOCK_EDGE_N + 1])
def test_leave_one_out_crosses_block_edge_against_oracle(block):
    # short binary vectors, so that exact ties and duplicate rows in
    # different blocks are common: a wrong self-exclusion index, a panel
    # edge off by one or a lost column minimum changes some item
    X, labels, oracle = _block_edge_case()
    _assert_leave_one_out_kernels(ExemplarMemory.from_pairs(X, labels), block, oracle)
    correct = sum(label == labels[i] for i, (label, _) in enumerate(oracle))
    assert nn_leave_one_out(ExemplarMemory.from_pairs(X, labels)) == correct / len(X)


# --------------------------------------------------------------------------
# Generalized Context Model
# --------------------------------------------------------------------------


def _gcm_oracle(X, labels, q, s, p, biases=None, likelihoods=None):
    """Direct per-class summation with scalar math, no vectorization."""
    strengths = {}
    for j, (x, lab) in enumerate(zip(X, labels)):
        d = math.hypot(*(np.asarray(x) - np.asarray(q)))
        eta = math.exp(-((d / s) ** p))
        if likelihoods is not None:
            eta *= likelihoods[j]
        strengths[lab] = strengths.get(lab, 0.0) + eta
    if biases is not None:
        strengths = {c: biases.get(c, 0.0) * v for c, v in strengths.items()}
    total = sum(strengths.values())
    return {c: v / total for c, v in strengths.items()}


def test_gcm_probabilities_sum_to_one():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 4))
    labels = [f"c{int(i)}" for i in rng.integers(0, 5, 60)]
    memory = ExemplarMemory.from_pairs(X, labels)
    params = GcmParams(s=0.7, p=2)
    for _ in range(50):
        response = gcm_classify(memory, params, rng.normal(size=4))
        assert abs(float(response.scores.sum()) - 1.0) < 1e-12
        assert response.decision == response.classes[int(np.argmax(response.scores))]


@pytest.mark.parametrize("p", [1, 2])
def test_gcm_matches_direct_summation(p):
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        X = rng.uniform(-2, 2, size=(n, 2))
        labels = [f"c{int(i)}" for i in rng.integers(0, 3, n)]
        memory = ExemplarMemory.from_pairs(X, labels)
        s = float(rng.uniform(0.3, 3.0))
        params = GcmParams(s=s, p=p)
        for _ in range(5):
            q = rng.uniform(-2, 2, size=2)
            want = _gcm_oracle(X, labels, q, s, p)
            response = gcm_classify(memory, params, q)
            for cls, prob in zip(response.classes, response.scores):
                assert abs(prob - want[cls]) < 1e-12


def test_gcm_biases_reweight_classes():
    X = [[0.0, 0.0], [2.0, 0.0]]
    labels = ["a", "b"]
    memory = ExemplarMemory.from_pairs(X, labels)
    q = [1.0, 0.0]  # equidistant: unbiased poll is 50/50
    even = gcm_classify(memory, GcmParams(s=1.0), q)
    assert even.scores[0] == pytest.approx(0.5)
    biased = gcm_classify(memory, GcmParams(s=1.0, biases={"a": 0.9, "b": 0.1}), q)
    by_class = dict(zip(biased.classes, biased.scores))
    assert by_class["a"] == pytest.approx(0.9)
    assert biased.decision == "a"
    want = _gcm_oracle(X, labels, q, 1.0, 2, biases={"a": 0.9, "b": 0.1})
    for cls, prob in zip(biased.classes, biased.scores):
        assert abs(prob - want[cls]) < 1e-12


def test_gcm_likelihoods_match_duplication():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(4, 2))
    labels = ["a", "a", "b", "b"]
    doubled = ExemplarMemory.from_pairs(
        np.concatenate([X, X[:1]]), labels + ["a"]
    )
    weighted = ExemplarMemory.from_pairs(X, labels)
    like = np.array([2.0, 1.0, 1.0, 1.0])
    for _ in range(10):
        q = rng.normal(size=2)
        a = gcm_classify(doubled, GcmParams(s=0.8), q)
        b = gcm_classify(weighted, GcmParams(s=0.8, likelihoods=like), q)
        assert a.classes == b.classes
        assert np.allclose(a.scores, b.scores, atol=1e-12)


def test_gcm_far_query_does_not_underflow():
    memory = ExemplarMemory.from_pairs([[0.0, 0.0], [0.1, 0.0]], ["a", "b"])
    params = GcmParams(s=0.01, p=2)
    response = gcm_classify(memory, params, [1e4, 1e4])
    assert np.isfinite(response.scores).all()
    assert float(response.scores.sum()) == pytest.approx(1.0)
    assert float(response.scores.max()) > 0.0


def test_gcm_batch_matches_single():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 3))
    labels = [f"c{int(i)}" for i in rng.integers(0, 4, 30)]
    memory = ExemplarMemory.from_pairs(X, labels)
    params = GcmParams(s=1.2, p=1)
    Q = rng.normal(size=(17, 3))
    decisions, max_probs = gcm_decide_batch(memory, params, Q)
    for qi in range(len(Q)):
        response = gcm_classify(memory, params, Q[qi])
        assert decisions[qi] == response.decision
        assert max_probs[qi] == pytest.approx(float(response.scores.max()), abs=1e-12)


@pytest.mark.parametrize("p", [1, 2])
def test_gcm_scales_share_one_pass_bit_for_bit(p):
    # more than one 256-row block of fractional queries; every scale must
    # equal gcm_decide_batch at that scale and the per-block probability
    # matrix it replaced, exactly
    rng = np.random.default_rng(42)
    X = rng.uniform(0, 1, size=(70, 5))
    labels = [f"c{int(i)}" for i in rng.integers(0, 4, 70)]
    memory = ExemplarMemory.from_pairs(X, labels)
    Q = rng.uniform(0, 1, size=(300, 5))
    params_list = [GcmParams(s=s, p=p) for s in (0.05, 0.3, 1.0, 4.0)]
    results = _gcm_decide_scales(memory, params_list, Q)
    for params, (ranks, max_probs) in zip(params_list, results):
        decisions, batch_probs = gcm_decide_batch(memory, params, Q)
        assert decisions == [memory.class_set[r] for r in ranks]
        assert np.array_equal(max_probs, batch_probs)
        probs = np.concatenate(
            [_gcm_prob_matrix(memory, params, Q[i : i + 256]) for i in range(0, len(Q), 256)]
        )
        assert np.array_equal(ranks, np.argmax(probs, axis=1))
        assert np.array_equal(max_probs, probs.max(axis=1))


def test_gcm_params_validation():
    with pytest.raises(ValueError):
        GcmParams(s=0.0)
    with pytest.raises(ValueError):
        GcmParams(s=1.0, p=3)
    with pytest.raises(ValueError):
        GcmParams(s=1.0, biases={"a": 0.7, "b": 0.7})
    with pytest.raises(ValueError):
        GcmParams(s=1.0, biases={"a": 1.5, "b": -0.5})
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        GcmParams(s=1.0, biases={"a": float("nan"), "b": 1.0})
    with pytest.raises(ValueError):
        gcm_classify(
            ExemplarMemory.from_pairs([[0.0, 0.0]], ["a"]),
            GcmParams(s=1.0, likelihoods=np.ones(3)),
            [0.0, 0.0],
        )


def test_gcm_optimize_scale_selects_locality():
    # one "a" exemplar near the query vs. three distant "b"s: a small scale
    # trusts the nearest item, a huge scale polls raw class counts
    X = [[0.0], [3.0], [4.0], [5.0]]
    labels = ["a", "b", "b", "b"]
    memory = ExemplarMemory.from_pairs(X, labels)
    near_a = _nouns([[1.0]], ["a"])
    crowd_b = _nouns([[1.0]], ["b"])
    assert gcm_optimize_scale(memory, near_a, 2, [0.5, 100.0]) == (0.5, 1.0)
    assert gcm_optimize_scale(memory, crowd_b, 2, [0.5, 100.0]) == (100.0, 1.0)


def test_gcm_optimize_scale_tie_goes_to_smallest():
    memory = ExemplarMemory.from_pairs([[0.0], [10.0]], ["a", "b"])
    eval_set = _nouns([[1.0], [9.0]], ["a", "b"])
    s, acc = gcm_optimize_scale(memory, eval_set, 2, [3.0, 1.0, 2.0])
    assert (s, acc) == (1.0, 1.0)
    with pytest.raises(ValueError):
        gcm_optimize_scale(memory, eval_set, 2, [])
    with pytest.raises(ValueError):
        gcm_optimize_scale(memory, [], 2, [1.0])


# --------------------------------------------------------------------------
# Exact integer path: float32 distances and the class x distance histogram
# --------------------------------------------------------------------------


def _integer_nn_oracle(X, labels, q, skip=None):
    """Nearest row of integer X by exact int64 squared distance, with exact
    ties going to the class with more items in ``labels``, then by name."""
    counts = Counter(labels)
    sq = ((X.astype(np.int64) - np.asarray(q).astype(np.int64)) ** 2).sum(axis=1).tolist()
    candidates = [j for j in range(len(X)) if j != skip]
    best = min(sq[j] for j in candidates)
    tied = {labels[j] for j in candidates if sq[j] == best}
    return min(tied, key=lambda c: (-counts[c], c)), math.sqrt(best)


def _integer_case(seed, high, n=200, dim=6, n_queries=300):
    """Integer vectors in [0, high) over three unequal classes.  The last ten
    exemplars repeat the first ten (another leave-one-out block once n > 256),
    and queries 256.. repeat queries 0.., so duplicates sit in different
    query blocks; queries 100..119 sit on exemplars."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, high, size=(n, dim)).astype(np.float64)
    X[n - 10 :] = X[:10]
    labels = [["a", "m", "z"][int(i)] for i in rng.choice(3, n, p=[0.2, 0.3, 0.5])]
    Q = rng.integers(0, high, size=(n_queries, dim)).astype(np.float64)
    Q[100:120] = X[:20]
    Q[256:] = Q[: n_queries - 256]
    return X, labels, Q


def _per_row_nearest_ranks(sq, label_rank):
    """Per row: lowest rank among every column at the row minimum."""
    best = sq.min(axis=1)
    return np.array([label_rank[np.flatnonzero(r == b)].min() for r, b in zip(sq, best)]), best


def test_nearest_ranks_matches_per_row_rule_with_planted_ties():
    rng = np.random.default_rng(45)
    X = rng.normal(size=(300, 2))
    # exemplars 280.. copy 0..19 exactly: 0..9 under another class, 10..19 the same
    X[280:] = X[:20]
    labels = [["a", "b", "c"][int(i)] for i in rng.choice(3, 300, p=[0.5, 0.3, 0.2])]
    for i in range(10):
        labels[280 + i] = "a" if labels[i] != "a" else "c"
        labels[290 + i] = labels[10 + i]
    memory = ExemplarMemory.from_pairs(X, labels)
    # queries 0..39 sit on the copied exemplars, the rest on untied ones
    Q = np.concatenate([X[:20], X[:20] + 1e-9, rng.normal(size=(260, 2))])
    sq = _sq_distances(memory.vectors, Q)
    tied = np.count_nonzero(sq == sq.min(axis=1)[:, None], axis=1) > 1
    assert tied[:40].all() and np.count_nonzero(~tied) > len(Q) // 2
    ranks, best = _nearest_ranks(sq, memory.label_rank)
    want_ranks, want_best = _per_row_nearest_ranks(sq, memory.label_rank)
    assert np.array_equal(ranks, want_ranks) and best.tobytes() == want_best.tobytes()
    # the first nearest exemplar alone would be wrong on some tied rows
    assert np.any(ranks != memory.label_rank[sq.argmin(axis=1)])
    for start, block in _distance_blocks(memory.vectors, Q):
        ranks, best = _nearest_ranks(block, memory.label_rank)
        assert np.array_equal(ranks, want_ranks[start : start + len(block)])
        assert best.tobytes() == want_best[start : start + len(block)].tobytes()
    sq[7, 3] = np.nan
    with pytest.raises(ValueError):
        _nearest_ranks(sq, memory.label_rank)


@pytest.mark.parametrize("high", [2, 4])
def test_integer_path_nn_bit_equal_to_float64_path(high):
    X, labels, Q = _integer_case(50 + high, high)
    memory = ExemplarMemory.from_pairs(X, labels)
    assert _exact_in_float32(memory.vectors, Q)
    assert {sq.dtype for _, sq in _distance_blocks(memory.vectors, Q)} == {np.dtype(np.float32)}
    decisions, distances = nn_decide_batch(memory, Q)
    # the float64 formula over all queries at once, no blocks
    ranks, best = _nearest_ranks(_sq_distances(memory.vectors, Q), memory.label_rank)
    assert best.dtype == np.float64
    assert decisions == [memory.class_set[r] for r in ranks]
    assert np.array_equal(distances, np.sqrt(best))
    cross_class_ties = 0
    for q, d, dist in zip(Q, decisions, distances):
        assert (d, dist) == _integer_nn_oracle(X, labels, q)
        sq = ((X - q) ** 2).sum(axis=1)
        cross_class_ties += len({labels[j] for j in np.flatnonzero(sq == sq.min())}) > 1
    assert cross_class_ties > 10  # the case exercises the tie rule


_INTEGER_LOO_N = 300


@functools.cache
def _integer_loo_case(high):
    X, labels, _ = _integer_case(60 + high, high, n=_INTEGER_LOO_N)
    oracle = [_integer_nn_oracle(X, labels, X[i], skip=i) for i in range(len(X))]
    return X, labels, oracle


@pytest.mark.parametrize("block", [1, 3, _INTEGER_LOO_N - 1, _INTEGER_LOO_N, _INTEGER_LOO_N + 1])
@pytest.mark.parametrize("high", [2, 4])
def test_integer_path_leave_one_out_matches_oracle(high, block):
    X, labels, oracle = _integer_loo_case(high)
    assert _exact_in_float32(X, X, block)
    _assert_leave_one_out_kernels(ExemplarMemory.from_pairs(X, labels), block, oracle)
    if block == _INTEGER_LOO_N:
        correct = sum(label == labels[i] for i, (label, _) in enumerate(oracle))
        assert nn_leave_one_out(ExemplarMemory.from_pairs(X, labels)) == correct / len(X)


@pytest.mark.parametrize("peak, panels", [(1448, True), (1449, False)])
def test_leave_one_out_panel_key_bound(monkeypatch, peak, panels):
    # 2 * (1 * (2 * peak)^2 + 2) is 16,773,636 below 2**24 at peak 1448 and
    # 16,796,812 past it at 1449.  Item 0's only neighbour is item 1 of rank
    # 1 at the largest distance, so its key 2 * (2 * peak)^2 + 1 is odd: at
    # 1449 it would round in float32 and give item 0 the wrong class
    X = np.array([[-peak], [peak]], dtype=np.float64)
    labels = ["a", "b"]
    memory = ExemplarMemory.from_pairs(X, labels)
    assert _panel_keys_exact(X, 2) is panels
    taken = []

    def spy(kernel):
        def run(*args):
            taken.append(kernel.__name__)
            return kernel(*args)
        return run

    for kernel in (_leave_one_out_panels, _nearest):
        monkeypatch.setattr(classifiers, kernel.__name__, spy(kernel))
    # a and b are each other's neighbour
    assert nn_leave_one_out(ExemplarMemory.from_pairs(X, labels)) == 0.0
    assert taken == ["_leave_one_out_panels" if panels else "_nearest"]
    ranks, best = _float64_leave_one_out(memory)
    assert ranks.tolist() == [1, 0] and best.tolist() == [(2 * peak) ** 2] * 2
    if panels:
        kernel_ranks, kernel_best = _leave_one_out_panels(X, memory.label_rank, 2)
        assert kernel_ranks.tolist() == [1, 0] and np.array_equal(kernel_best, best)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("high", [2, 4])
def test_integer_path_gcm_matches_direct_path(monkeypatch, high, p, weighted):
    X, labels, Q = _integer_case(70 + high, high)
    memory = ExemplarMemory.from_pairs(X, labels)
    rng = np.random.default_rng(high)
    extra = {}
    if weighted:
        extra = {"biases": {"a": 0.5, "m": 0.2, "z": 0.3},
                 "likelihoods": rng.uniform(0.5, 2.0, len(X))}
    params_list = [GcmParams(s=s, p=p, **extra) for s in (0.3, 1.0, 2.5)]
    histogram_blocks = []

    def spy(memory, sq, bins):
        histogram_blocks.append(len(sq))
        return _histogram_block_probs(memory, sq, bins)

    monkeypatch.setattr(classifiers, "_histogram_block_probs", spy)
    results = _gcm_decide_scales(memory, params_list, Q)
    assert histogram_blocks == [256, len(Q) - 256]
    for params, (ranks, max_probs) in zip(params_list, results):
        direct = _gcm_prob_matrix(memory, params, Q)
        assert np.array_equal(ranks, np.argmax(direct, axis=1))
        assert np.abs(max_probs - direct.max(axis=1)).max() < 1e-12
        for start, sq in _distance_blocks(memory.vectors, Q):
            probs = _histogram_block_probs(memory, sq, int(sq.max()) + 1)(params)
            assert np.abs(probs - direct[start : start + len(sq)]).max() < 1e-12


@pytest.mark.parametrize("p", [1, 2])
def test_integer_path_gcm_exact_cross_class_tie(p):
    # two "a" and two "b" exemplars at squared distance 1 from the query and
    # twenty "c" exemplars at 4: a and b tie exactly on both paths, and the
    # tie goes to a, the first of them in canonical order (c, a, b)
    X = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]] + [[1] * 4] * 20,
                 dtype=np.float64)
    memory = ExemplarMemory.from_pairs(X, ["a", "a", "b", "b"] + ["c"] * 20)
    Q = np.zeros((1, 4))
    params = GcmParams(s=0.25, p=p)
    [(ranks, _)] = _gcm_decide_scales(memory, [params], Q)
    [sq] = [sq for _, sq in _distance_blocks(memory.vectors, Q)]
    probs = _histogram_block_probs(memory, sq, 5)(params)[0]
    assert probs[1] == probs[2] > probs[0]
    assert memory.class_set[ranks[0]] == "a"
    assert np.argmax(_gcm_prob_matrix(memory, params, Q)[0]) == ranks[0]


def test_integer_path_gcm_far_query_does_not_underflow():
    # every exemplar sits at squared distance >= 4 from the query: at s = 0.05
    # and p = 2 the kernel underflows without the per-query shift, and the
    # empty bins below the nearest one must not overflow to inf * 0 either
    rng = np.random.default_rng(44)
    X = np.zeros((60, 6))
    X[:, 4:] = rng.integers(0, 2, size=(60, 2))
    memory = ExemplarMemory.from_pairs(X, [["a", "b"][i % 2] for i in range(60)])
    Q = np.array([[1, 1, 1, 1, 0, 0]], dtype=np.float64)
    for p in (1, 2):
        params = GcmParams(s=0.05, p=p)
        [(ranks, max_probs)] = _gcm_decide_scales(memory, [params], Q)
        [sq] = [sq for _, sq in _distance_blocks(memory.vectors, Q)]
        probs = _histogram_block_probs(memory, sq, int(sq.max()) + 1)(params)
        direct = _gcm_prob_matrix(memory, params, Q)
        assert np.isfinite(probs).all() and np.abs(probs - direct).max() < 1e-12
        assert ranks[0] == np.argmax(direct[0]) and max_probs[0] == probs.max()


def test_integer_path_bound_keeps_large_values_on_float64():
    # dim * (max|X| + max|Q|)^2 must stay below 2**24 for float32 to be exact
    X = np.array([[0.0], [4095.0]])
    assert _exact_in_float32(X, np.zeros((1, 1)))  # 4095^2 < 2**24
    assert not _exact_in_float32(np.array([[4096.0]]), np.zeros((1, 1)))  # == 2**24
    assert not _exact_in_float32(X, X)  # (4095 + 4095)^2
    assert not _exact_in_float32(np.array([[0.5]]), np.zeros((1, 1)))
    assert not _exact_in_float32(np.zeros((1, 1)), np.array([[np.nan]]))
    assert not _exact_in_float32(np.zeros((1, 1)), np.array([[np.inf]]))
    # integers past the bound: float64 blocks, still exact
    rng = np.random.default_rng(43)
    X = rng.integers(0, 3000, size=(300, 3)).astype(np.float64)
    X[-10:] = X[:10]
    labels = [["a", "b"][int(i)] for i in rng.integers(0, 2, len(X))]
    Q = np.concatenate([X[:150], rng.integers(0, 3000, size=(150, 3))]).astype(np.float64)
    memory = ExemplarMemory.from_pairs(X, labels)
    assert 3 * (2 * X.max()) ** 2 >= 2**24 and not _exact_in_float32(X, Q)
    assert {sq.dtype for _, sq in _distance_blocks(memory.vectors, Q)} == {np.dtype(np.float64)}
    decisions, distances = nn_decide_batch(memory, Q)
    for q, d, dist in zip(Q, decisions, distances):
        assert (d, dist) == _integer_nn_oracle(X, labels, q)
    correct = sum(
        _integer_nn_oracle(X, labels, X[i], skip=i)[0] == labels[i] for i in range(len(X))
    )
    assert nn_leave_one_out(ExemplarMemory.from_pairs(X, labels)) == correct / len(X)


def test_integer_path_predicates_refuse_huge_values_without_overflow():
    # squaring 1e200 on Python floats raises OverflowError; the bounds are
    # tested before squaring
    X = np.full((3, 2), 1e200)
    assert not _exact_in_float32(X, X)
    assert not _exact_in_float32(X, np.zeros((1, 2)))
    assert not _panel_keys_exact(X, 2)
    # the largest values the float32 paths take are still taken
    assert _exact_in_float32(np.array([[2047.0]]), np.array([[2048.0]]))
    assert _panel_keys_exact(np.array([[0.0], [1023.0]]), 1)
    assert not _panel_keys_exact(np.array([[0.0], [2048.0]]), 1)


@pytest.mark.parametrize("block", [1, 3, 9, 10, 11])
def test_integer_scan_sees_every_row(block):
    # a fractional or large entry in any row, on either side of a block edge
    for row in range(10):
        X = np.zeros((10, 2))
        X[row, 1] = 0.5
        assert _integer_peak(X, block) is None and not _exact_in_float32(X, X, block)
        X[row, 1] = -4096
        assert _integer_peak(X, block) == 4096 and not _panel_keys_exact(X, 1, block)


_small_ints = st.integers(-3, 3)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integer_path_nn_property(data):
    dim = data.draw(st.integers(1, 5), label="dim")
    X = data.draw(hnp.arrays(np.int64, (data.draw(st.integers(2, 25)), dim), elements=_small_ints))
    Q = data.draw(hnp.arrays(np.int64, (data.draw(st.integers(1, 12)), dim), elements=_small_ints))
    labels = data.draw(st.lists(st.sampled_from("abc"), min_size=len(X), max_size=len(X)))
    X, Q = X.astype(np.float64), Q.astype(np.float64)
    decisions, distances = nn_decide_batch(ExemplarMemory.from_pairs(X, labels), Q)
    for q, d, dist in zip(Q, decisions, distances):
        assert (d, dist) == _integer_nn_oracle(X, labels, q)
    correct = sum(
        _integer_nn_oracle(X, labels, X[i], skip=i)[0] == labels[i] for i in range(len(X))
    )
    assert nn_leave_one_out(ExemplarMemory.from_pairs(X, labels)) == correct / len(X)


# --------------------------------------------------------------------------
# Windowed nearest search on 1- and 2-D points
# --------------------------------------------------------------------------


def _dense_difference_nearest(X, label_rank, Q, exclude_self=False):
    """The window's oracle: every pair as sum_k (q_k - x_k)^2, then the
    per-row rule over whole rows."""
    sq = sum((Q[:, None, k] - X[None, :, k]) ** 2 for k in range(X.shape[1]))
    if exclude_self:
        np.fill_diagonal(sq, np.inf)
    return _per_row_nearest_ranks(sq, label_rank)


def _assert_window_matches_dense(X, label_rank, Q):
    """The window equals the dense oracle bit for bit, against Q and, with
    self-exclusion, against X itself."""
    for exclude_self, queries in ((False, Q), (True, X)):
        ranks, best = _nearest_window(X, label_rank, queries, exclude_self)
        want_ranks, want_best = _dense_difference_nearest(X, label_rank, queries, exclude_self)
        assert np.array_equal(ranks, want_ranks) and best.tobytes() == want_best.tobytes()


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 200])
def test_window_matches_dense_around_block_edges(n):
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 2)) * 3.0
    Q = rng.uniform(-8.0, 8.0, size=(n, 2))
    _assert_window_matches_dense(X, rng.integers(0, 3, n), Q)
    _assert_window_matches_dense(X[:, :1], rng.integers(0, 3, n), Q[:, :1])


def test_window_duplicates_and_self_exclusion():
    # 300 points in tenths on a 5 x 5 grid: every point has duplicates,
    # mostly under other classes, so nearly every row ties at distance 0
    rng = np.random.default_rng(46)
    X = rng.integers(0, 5, size=(300, 2)) / 10.0
    label_rank = rng.integers(0, 3, 300)
    Q = np.concatenate([X[::7], rng.integers(0, 5, size=(90, 2)) / 10.0 + 0.05])
    _assert_window_matches_dense(X, label_rank, Q)
    _, best = _nearest_window(X, label_rank, X, True)
    assert not best.any()  # self skipped, its duplicates kept


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_window_keeps_a_tie_at_its_edge(side):
    # the query's nearest are "b" at (0, 1) and "a" at (side, 0), both at
    # squared distance exactly 1.  The 100 fillers lie between the two in x,
    # far away in y, so the bound pass sees only "b"; "a" wins the tie only
    # if the window reaches exactly sqrt(1) past the query's x
    fillers = np.stack([side * np.linspace(0.01, 0.99, 100), np.full(100, 100.0)], axis=1)
    X = np.concatenate([fillers, [[side, 0.0], [0.0, 1.0]]])
    labels = ["a"] * 101 + ["b"]
    memory = ExemplarMemory.from_pairs(X, labels)
    Q = np.zeros((1, 2))
    assert nn_decide_batch(memory, Q) == (["a"], [1.0])
    _assert_window_matches_dense(X, memory.label_rank, Q)


@pytest.mark.parametrize("layout", ["clustered", "uniform", "vertical line"])
def test_window_matches_dense_on_layouts(layout):
    rng = np.random.default_rng(47)
    if layout == "clustered":
        centres = rng.uniform(0.0, 10.0, size=(5, 2))
        X = centres[rng.integers(0, 5, 400)] + rng.normal(scale=0.2, size=(400, 2))
    elif layout == "uniform":
        X = rng.uniform(0.0, 10.0, size=(400, 2))
    else:  # one x for every point: the window is everything
        X = np.stack([np.full(400, 3.0), rng.uniform(0.0, 10.0, 400)], axis=1)
    Q = np.concatenate([X[:100] + rng.normal(scale=0.05, size=(100, 2)),
                        rng.uniform(-1.0, 11.0, size=(100, 2))])
    _assert_window_matches_dense(X, rng.integers(0, 4, 400), Q)


_window_coords = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1.0, -1.0]),
    st.floats(-100.0, 100.0),
    st.floats(-1e-150, 1e-150),  # squares underflow to 0
    st.floats(-1e200, 1e200),  # squares overflow to inf
)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_window_matches_dense_property(data):
    dim = data.draw(st.sampled_from([1, 2]), label="dim")
    n, m = data.draw(st.integers(1, 150), label="n"), data.draw(st.integers(1, 150), label="m")
    X = data.draw(hnp.arrays(np.float64, (n, dim), elements=_window_coords), label="X")
    Q = data.draw(hnp.arrays(np.float64, (m, dim), elements=_window_coords), label="Q")
    label_rank = data.draw(hnp.arrays(np.intp, n, elements=st.integers(0, 3)), label="ranks")
    _assert_window_matches_dense(X, label_rank, Q)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_window_rejects_non_finite_coordinates(value):
    rng = np.random.default_rng(48)
    X = rng.normal(size=(50, 2))
    memory = ExemplarMemory.from_pairs(X, [["a", "b"][i % 2] for i in range(50)])
    Q = rng.normal(size=(5, 2))
    Q[3, 1] = value
    with pytest.raises(ValueError):
        nn_decide_batch(memory, Q)
    X[7, 0] = value
    with pytest.raises(ValueError):
        nn_decide_batch(ExemplarMemory.from_pairs(X, memory.labels), Q[:3])


@functools.cache
def _lone_row_case(points):
    """A 2-D memory and 257 queries: language 2 points, or points in tenths."""
    if points == "language_2":
        coords = generate_language(language_2(seed=5, points_per_class=200)).coords
    else:
        coords = np.random.default_rng(49).integers(0, 100, size=(1000, 2)) / 10.0
    order = np.random.default_rng(50).permutation(len(coords))
    labels = [["a", "b", "c"][i % 3] for i in range(500)]
    return ExemplarMemory.from_pairs(coords[order[:500]], labels), coords[order[500:757]]


@pytest.mark.parametrize("n_queries", [1, 63, 64, 65, 257])
@pytest.mark.parametrize("points", ["language_2", "tenths"])
def test_nn_lone_rows_equal_batch_on_2d_points(points, n_queries):
    memory, Q = _lone_row_case(points)
    Q = Q[:n_queries]
    decisions, distances = nn_decide_batch(memory, Q)
    for i in range(len(Q)):
        lone_decisions, lone_distances = nn_decide_batch(memory, Q[i : i + 1])
        assert lone_decisions == decisions[i : i + 1]
        assert lone_distances.tobytes() == distances[i : i + 1].tobytes()


def test_nn_classify_agrees_with_batch_on_2d_ties():
    # exemplars 250.. copy 0..49 exactly under another class; queries sit
    # near the copied pairs, so many rows tie across classes
    rng = np.random.default_rng(51)
    X = rng.uniform(0.0, 10.0, size=(300, 2))
    X[250:] = X[:50]
    labels = [["a", "b", "c"][int(i)] for i in rng.choice(3, 300, p=[0.5, 0.3, 0.2])]
    labels[250:] = ["c" if label != "c" else "a" for label in labels[:50]]
    memory = ExemplarMemory.from_pairs(X, labels)
    Q = np.concatenate([X[:50] + rng.normal(scale=1e-3, size=(50, 2)),
                        rng.uniform(0.0, 10.0, size=(80, 2))])
    decisions, distances = nn_decide_batch(memory, Q)
    ties = 0
    for q, d, dist in zip(Q, decisions, distances):
        assert nn_classify(memory, q) == (d, dist)
        sq = ((X - q) ** 2).sum(axis=1)
        ties += len({labels[j] for j in np.flatnonzero(sq == sq.min())}) > 1
    assert ties > 30  # the case exercises the tie rule


# --------------------------------------------------------------------------
# Backprop network
# --------------------------------------------------------------------------


def _sigma(z):
    return 1.0 / (1.0 + math.exp(-z))


def test_mlp_forward_hand_computed():
    model = MlpModel(
        w_hidden=np.array([[2.0]]),
        b_hidden=np.array([0.5]),
        w_output=np.array([[1.0]]),
        b_output=np.array([-1.0]),
        class_set=["a"],
    )
    hidden, out = model.forward(np.array([1.0]))
    assert hidden[0] == pytest.approx(_sigma(2.5))
    assert out[0] == pytest.approx(_sigma(_sigma(2.5) - 1.0))
    loss = mlp_loss(model, np.array([1.0]), np.array([1.0]))
    assert loss == pytest.approx(0.5 * (out[0] - 1.0) ** 2)


def test_logistic_outputs_match_definition_and_saturate():
    from pluralbench.classifiers import _logistic

    z = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    want = np.array([_sigma(v) for v in z])
    assert np.allclose(_logistic(z), want, atol=1e-15)
    extreme = _logistic(np.array([800.0, -800.0]))
    assert extreme[0] == 1.0 and extreme[1] == 0.0
    sym = _logistic(np.array([2.3])) + _logistic(np.array([-2.3]))
    assert sym[0] == pytest.approx(1.0, abs=1e-15)


def _two_branch_logistic(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_logistic_bits_match_two_branch_formula():
    from pluralbench.classifiers import _logistic

    tiny = np.finfo(np.float64).smallest_subnormal
    z = np.array([
        0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 0.5, -0.5, 36.7, -36.7,
        700.0, -700.0, 745.0, -745.0, 746.0, -746.0,
        np.inf, -np.inf, np.nan, -np.nan,
    ])
    z = np.concatenate([z, np.random.default_rng(15).normal(scale=20.0, size=1000)])
    with np.errstate(all="ignore"):
        want = _two_branch_logistic(z)
        got = _logistic(z)
        into = np.empty_like(z)
        assert _logistic(z, out=into) is into
        in_place = z.copy()
        _logistic(in_place, out=in_place)
    for result in (got, into, in_place):
        assert np.array_equal(result.view(np.int64), want.view(np.int64))


def _reference_mlp_train(train, hidden, epochs, seed, rate, momentum, seen):
    """The per-pattern momentum loop on top of mlp_gradients, one array per
    parameter; appends each update's pre-activations and activations to
    ``seen``."""
    class_set = classifiers._class_order([n.label for n in train])
    index = {c: i for i, c in enumerate(class_set)}
    X = np.array([n.vector for n in train], dtype=np.float64)
    targets = np.zeros((len(train), len(class_set)))
    for i, noun in enumerate(train):
        targets[i, index[noun.label]] = 1.0
    rng = np.random.default_rng(seed)
    model = MlpModel(
        w_hidden=rng.uniform(-0.1, 0.1, size=(hidden, X.shape[1])),
        b_hidden=rng.uniform(-0.1, 0.1, size=hidden),
        w_output=rng.uniform(-0.1, 0.1, size=(len(class_set), hidden)),
        b_output=rng.uniform(-0.1, 0.1, size=len(class_set)),
        class_set=class_set,
    )
    params = (model.w_hidden, model.b_hidden, model.w_output, model.b_output)
    velocity = [np.zeros_like(p) for p in params]
    for _ in range(epochs):
        for i in rng.permutation(len(X)):
            z_hidden = model.w_hidden @ X[i] + model.b_hidden
            h, out = model.forward(X[i])
            seen.append((z_hidden, model.w_output @ h + model.b_output, h, out))
            grads = mlp_gradients(model, X[i], targets[i])
            for vel, param, grad in zip(velocity, params, grads):
                vel *= momentum
                vel -= rate * grad
                param += vel
    return model


@pytest.mark.parametrize("inputs", ["binary", "fractional"])
@pytest.mark.parametrize("hidden", [1, 7, 50])
def test_mlp_train_weights_bit_identical_to_gradient_reference(inputs, hidden):
    rng = np.random.default_rng(16)
    X = rng.random((40, 240))
    if inputs == "binary":
        X = (X < 0.3).astype(np.float64)
    train = _nouns(X, [f"c{k}" for k in rng.integers(0, 5, len(X))])
    seen = []
    # a rate and momentum far above the defaults drive units into saturation
    want = _reference_mlp_train(train, hidden, 4, 3, 4.0, 0.95, seen)
    got = mlp_train(train, hidden, 4, 3, rate=4.0, momentum=0.95)
    for name in ("w_hidden", "b_hidden", "w_output", "b_output"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name
    z = np.concatenate([s[0] for s in seen] + [s[1] for s in seen])
    act = np.concatenate([s[2] for s in seen] + [s[3] for s in seen])
    assert (z >= 0).any() and (z < 0).any()
    # saturated at float64 resolution: exactly 1, or too small to move 1 - a
    assert ((act == 1.0) | (1.0 - act == 1.0)).any()


def _random_net(rng, n_in=4, n_hidden=3, n_out=2):
    return MlpModel(
        w_hidden=rng.uniform(-0.5, 0.5, size=(n_hidden, n_in)),
        b_hidden=rng.uniform(-0.5, 0.5, size=n_hidden),
        w_output=rng.uniform(-0.5, 0.5, size=(n_out, n_hidden)),
        b_output=rng.uniform(-0.5, 0.5, size=n_out),
        class_set=list(range(n_out)),
    )


def _fd_check(model, x, target, h=1e-5, tol=1e-4):
    grads = mlp_gradients(model, x, target)
    params = (model.w_hidden, model.b_hidden, model.w_output, model.b_output)
    for param, grad in zip(params, grads):
        flat_p = param.ravel()
        flat_g = grad.ravel()
        for k in range(flat_p.size):
            orig = flat_p[k]
            flat_p[k] = orig + h
            up = mlp_loss(model, x, target)
            flat_p[k] = orig - h
            down = mlp_loss(model, x, target)
            flat_p[k] = orig
            fd = (up - down) / (2 * h)
            assert abs(fd - flat_g[k]) <= tol * max(1.0, abs(flat_g[k]))


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    for _ in range(5):
        model = _random_net(rng)
        x = rng.uniform(0.0, 1.0, size=4)
        target = rng.uniform(0.0, 1.0, size=2)
        _fd_check(model, x, target)


def test_mlp_train_deterministic_per_seed():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(12, 3))
    labels = ["a"] * 6 + ["b"] * 6
    train = _nouns(X, labels)
    a = mlp_train(train, hidden=4, epochs=3, seed=5)
    b = mlp_train(train, hidden=4, epochs=3, seed=5)
    c = mlp_train(train, hidden=4, epochs=3, seed=6)
    assert np.array_equal(a.w_hidden, b.w_hidden)
    assert np.array_equal(a.w_output, b.w_output)
    assert not np.array_equal(a.w_hidden, c.w_hidden)
    assert a.metadata == {
        "hidden": 4, "epochs": 3, "seed": 5, "rate": 0.25, "momentum": 0.9,
    }


def test_mlp_checkpoints_equal_fresh_runs():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(10, 2))
    labels = ["a", "b"] * 5
    train = _nouns(X, labels)
    _, snapshots = _mlp_train_checkpoints(train, 3, [2, 5], seed=7, rate=0.25, momentum=0.9)
    for epochs, snap in snapshots:
        fresh = mlp_train(train, hidden=3, epochs=epochs, seed=7)
        assert np.array_equal(snap.w_hidden, fresh.w_hidden)
        assert np.array_equal(snap.b_hidden, fresh.b_hidden)
        assert np.array_equal(snap.w_output, fresh.w_output)
        assert np.array_equal(snap.b_output, fresh.b_output)


def test_mlp_learns_separable_data():
    rng = np.random.default_rng(12)
    X = np.concatenate([rng.normal((0, 0), 0.3, (20, 2)), rng.normal((4, 4), 0.3, (20, 2))])
    labels = ["a"] * 20 + ["b"] * 20
    train = _nouns(X, labels)
    model = mlp_train(train, hidden=4, epochs=30, seed=1)
    decisions, _ = mlp_decide_batch(model, X)
    accuracy = sum(d == l for d, l in zip(decisions, labels)) / len(labels)
    assert accuracy == 1.0


def test_mlp_batch_matches_single():
    rng = np.random.default_rng(13)
    model = _random_net(rng, n_in=3, n_hidden=5, n_out=4)
    Q = rng.normal(size=(9, 3))
    decisions, scores = mlp_decide_batch(model, Q)
    for qi in range(len(Q)):
        response = mlp_classify(model, Q[qi])
        assert decisions[qi] == response.decision
        assert scores[qi] == pytest.approx(float(response.scores.max()), abs=1e-12)
    with pytest.raises(ValueError):
        mlp_classify(model, np.zeros(7))


def test_mlp_grid_sweep_rows_match_fresh_training():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(16, 2))
    labels = ["a", "b", "c", "d"] * 4
    train = _nouns(X, labels)
    eval_set = _nouns(rng.normal(size=(8, 2)), ["a", "b", "c", "d"] * 2)
    rows, best = mlp_grid_sweep(train, eval_set, [2, 3], [1, 3], [1, 2])
    assert len(rows) == 8
    for hidden, epochs, seed, acc in rows:
        model = mlp_train(train, hidden, epochs, seed)
        decisions, _ = mlp_decide_batch(model, [n.vector for n in eval_set])
        fresh = sum(d == n.label for d, n in zip(decisions, eval_set)) / len(eval_set)
        assert acc == pytest.approx(fresh, abs=1e-15)
    assert best in rows
    assert best[3] == max(r[3] for r in rows)


def test_mlp_grid_sweep_tie_breaks_to_cheapest():
    # single class: every configuration scores 1.0, so the tie-break
    # (fewest epochs, then fewest hidden units, then smallest seed) decides
    X = np.zeros((4, 2))
    train = _nouns(X, ["a"] * 4)
    eval_set = _nouns(np.ones((2, 2)), ["a", "a"])
    rows, best = mlp_grid_sweep(train, eval_set, [5, 2], [4, 1], [3, 1])
    assert all(r[3] == 1.0 for r in rows)
    assert best == (2, 1, 1, 1.0)


def test_mlp_grid_sweep_tie_prefers_fewer_epochs_over_fewer_hidden():
    # (1 hidden, 20 epochs) ties (6 hidden, 1 epoch) at the top, and
    # (1 hidden, 1 epoch) scores below both: fewer epochs must win
    rng = np.random.default_rng(226)
    X = np.concatenate([rng.normal(0, 1, (6, 2)), rng.normal(2, 1, (6, 2))])
    train = _nouns(X, ["a"] * 6 + ["b"] * 6)
    E = np.concatenate([rng.normal(0, 1, (2, 2)), rng.normal(2, 1, (2, 2))])
    eval_set = _nouns(E, ["a", "a", "b", "b"])
    rows, best = mlp_grid_sweep(train, eval_set, [1, 6], [1, 20], [0], rate=0.5)
    acc = {(hidden, epochs): a for hidden, epochs, _, a in rows}
    top = max(acc.values())
    assert acc[(1, 20)] == acc[(6, 1)] == top > acc[(1, 1)]
    assert best == (6, 1, 0, top)


def test_mlp_train_validation():
    train = _nouns(np.zeros((2, 2)), ["a", "b"])
    with pytest.raises(ValueError):
        mlp_train([], 3, 2, 0)
    with pytest.raises(ValueError):
        mlp_train(train, 0, 2, 0)
    with pytest.raises(ValueError):
        mlp_train(train, 3, 0, 0)
    with pytest.raises(ValueError):
        mlp_train(train, 3, 2, 0, rate=0.0)
    with pytest.raises(ValueError):
        mlp_train(train, 3, 2, 0, momentum=-0.1)


# --------------------------------------------------------------------------
# Scoring
# --------------------------------------------------------------------------


def test_evaluate_accuracy_and_confusion():
    accuracy, confusion = evaluate(["a", "b", "a"], ["a", "a", "b"])
    assert accuracy == pytest.approx(1 / 3)
    assert confusion.classes == ["a", "b"]
    assert confusion.counts.tolist() == [[1, 1], [1, 0]]


def test_evaluate_confusion_rows_are_true_classes():
    # two "a" items predicted "b", one "b" item predicted "a"
    _, confusion = evaluate(["b", "b", "a", "a"], ["a", "a", "b", "a"])
    assert confusion.classes == ["a", "b"]
    assert confusion.counts.tolist() == [[1, 2], [1, 0]]


def test_evaluate_accepts_responses():
    responses = [
        ClassifierResponse(classes=["a", "b"], scores=np.array([0.9, 0.1]), decision="a"),
        "b",
    ]
    accuracy, _ = evaluate(responses, ["a", "b"])
    assert accuracy == 1.0
    with pytest.raises(ValueError):
        evaluate(["a"], ["a", "b"])
