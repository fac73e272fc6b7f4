"""The three associative classifiers: nearest neighbour, similarity-kernel
exemplar model (GCM), and a three-layer logistic backprop network.

All three consume fixed-length numeric vectors and emit per-class graded
scores plus an argmax decision.  Classes are kept in a canonical order,
sorted by descending training type frequency then by name, so the first
maximal score implements the tie-break rule (prefer the more frequent
class, then the lexicographically first name) everywhere.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dataset import EncodedNoun

# Queries are processed in blocks to bound the size of the pairwise
# distance matrix on large exemplar sets; _nearest_window's are smaller.
_BLOCK = 256
_WINDOW_BLOCK = 64


def _class_order(labels) -> list:
    counts = Counter(labels)
    return sorted(counts, key=lambda c: (-counts[c], str(c)))


def _sq_distances(X: np.ndarray, Q: np.ndarray, x2=None, out=None) -> np.ndarray:
    """(len(Q), len(X)) squared Euclidean distances, computed in ``out`` if given.

    At dim <= 2 the difference form sum_k (q_k - x_k)^2: no cancellation,
    and bits independent of the call's shape.  Otherwise ||x||^2 - 2 x.q +
    ||q||^2 in place (``x2``: exemplar norms, if known), exact for small
    integers.  One formula per dim keeps ties identical on every path.
    """
    if 0 < X.shape[1] <= 2:
        sq = np.subtract.outer(Q[:, 0], X[:, 0], out=out)
        sq *= sq
        for k in range(1, X.shape[1]):
            sq += np.subtract.outer(Q[:, k], X[:, k]) ** 2
        return sq
    if x2 is None:
        x2 = np.einsum("ij,ij->i", X, X)
    q2 = np.einsum("ij,ij->i", Q, Q)
    sq = np.dot(Q, X.T, out=out)
    sq *= 2.0
    np.subtract(x2, sq, out=sq)
    sq += q2[:, None]
    np.maximum(sq, 0.0, out=sq)
    return sq


def _integer_peak(A: np.ndarray, block: int = _BLOCK) -> float | None:
    """max|A| when every entry of A is an integer, else None.

    Scanned ``block`` rows at a time, so it allocates no copy of a large
    memory.
    """
    peak = 0.0
    for start in range(0, len(A), block):
        rows = A[start : start + block]
        if not np.array_equal(rows, np.rint(rows)):
            return None
        peak = max(peak, float(np.abs(rows).max()))
    return peak


def _exact_in_float32(X: np.ndarray, Q: np.ndarray, block: int = _BLOCK) -> bool:
    """True when X and Q hold only integers with dim * (max|X| + max|Q|)^2 < 2**24.

    Every squared distance, and every term of _sq_distances' expansion, is
    then an integer below 2**24, so float32 arithmetic gives exactly the
    float64 values.
    """
    peaks = [_integer_peak(A, block) for A in ((X,) if Q is X else (X, Q))]
    if None in peaks:
        return False
    bound = 2 * peaks[0] if Q is X else sum(peaks)
    # dim >= 1 needs bound < 2**12; testing that first keeps bound**2 finite
    return bound < 2**12 and X.shape[1] * bound**2 < 2**24


def _distance_blocks(X: np.ndarray, Q: np.ndarray, block: int = _BLOCK):
    """Yield (start, squared distances) per ``block``-row slice of Q, every
    block in the same buffer: use one before asking for the next.

    Integer-valued inputs small enough for _exact_in_float32 are cast to
    float32 once per pass (once in all when ``Q is X``) and give float32
    blocks holding the same integers as the float64 path.
    """
    if _exact_in_float32(X, Q, block):
        same = Q is X
        X = X.astype(np.float32)
        Q = X if same else Q.astype(np.float32)
    x2 = np.einsum("ij,ij->i", X, X)
    buf = np.empty((min(block, len(Q)), len(X)), dtype=X.dtype)
    for start in range(0, len(Q), block):
        rows = Q[start : start + block]
        yield start, _sq_distances(X, rows, x2, buf[: len(rows)])


def _nearest_ranks(sq: np.ndarray, label_rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: lowest class rank among the nearest exemplars, and their squared distance.

    One argmin serves every row with a unique minimum; only rows where it
    is not unique (ties, or NaN rows, which raise) take the per-row rule.
    """
    nearest = sq.argmin(axis=1)
    best = sq[np.arange(len(sq)), nearest]
    ranks = label_rank[nearest]
    for i in np.flatnonzero(np.count_nonzero(sq == best[:, None], axis=1) != 1):
        ranks[i] = label_rank[np.flatnonzero(sq[i] == best[i])].min()
    return ranks, best


def _panel_keys_exact(X: np.ndarray, n_classes: int, block: int = _BLOCK) -> bool:
    """True when X holds only integers with n_classes * (dim * (2 max|X|)^2 + 2) < 2**24.

    Every partial sum of _leave_one_out_panels' GEMM, and every key plus a
    second class rank, is then an integer below 2**24, exact in float32.
    """
    peak = _integer_peak(X, block)
    return (
        peak is not None
        and peak < 2**11  # what dim >= 1 needs; keeps the square finite
        and n_classes * (X.shape[1] * (2 * peak) ** 2 + 2) < 2**24
    )


def _leave_one_out_panels(
    X: np.ndarray, label_rank: np.ndarray, n_classes: int, block: int = _BLOCK
) -> tuple[np.ndarray, np.ndarray]:
    """Per item: lowest class rank among its nearest other items, and their
    squared distance (_nearest_ranks' rule), computing each pair once.

    Each panel is rows s..s+b against items s.. (the upper triangle), its
    entries the keys n_classes * sq + rank of the column item, straight out
    of one float32 GEMM of [-2C x, C |x|^2, 1] against [x, 1, C |x|^2 + rank].
    Row minima give items s..s+b their nearest among items s..; adding the
    row items' ranks and taking column minima gives every later item its
    nearest among rows s..s+b.  Requires _panel_keys_exact(X, n_classes).
    """
    n, dim, C = len(X), X.shape[1], n_classes
    x2 = np.einsum("ij,ij->i", X, X)
    items = np.empty((n, dim + 2), dtype=np.float32)
    items[:, :dim] = X
    items[:, dim] = 1.0
    items[:, dim + 1] = C * x2 + label_rank
    ranks = label_rank.astype(np.float32)
    best = np.full(n, np.inf, dtype=np.float32)
    buf = np.empty(min(block, n) * n, dtype=np.float32)
    for s in range(0, n, block):
        e = min(s + block, n)
        rows = np.empty((e - s, dim + 2), dtype=np.float32)
        np.multiply(X[s:e], -2.0 * C, out=rows[:, :dim], casting="unsafe")  # no float64 temporary
        rows[:, dim] = C * x2[s:e]
        rows[:, dim + 1] = 1.0
        panel = np.dot(rows, items[s:].T, out=buf[: (e - s) * (n - s)].reshape(e - s, n - s))
        np.fill_diagonal(panel, np.inf)  # each item's key against itself
        np.minimum(best[s:e], panel.min(axis=1), out=best[s:e])
        if e < n:
            later = panel[:, e - s :]
            later += ranks[s:e, None]
            cols = later.min(axis=0)
            cols -= ranks[e:]
            np.minimum(best[e:], cols, out=best[e:])
    keys = best.astype(np.int64)
    return keys % C, keys // C


def _nearest_window(
    X: np.ndarray, label_rank: np.ndarray, Q: np.ndarray, exclude_self: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """_nearest_ranks' result for Q against X (dim 1 or 2), searching only
    exemplars near each query in x (Friedman, Baskett and Shustek 1975).

    Per block of x-sorted queries, each row's nearest among the block's
    x-neighbours bounds its nearest squared distance.  Per group of 16 rows
    by that bound, b the largest, an exemplar whose x lies over sqrt(b)
    (plus slack for rounding and underflow) outside the group's x range is
    farther than b: the window holds every minimum and tie.  Non-finite
    inputs raise ValueError, as the dense pass's NaNs do.
    """
    if not (np.isfinite(X).all() and np.isfinite(Q).all()):
        raise ValueError("nearest-neighbour inputs must be finite")
    order = np.argsort(X[:, 0], kind="stable")
    X, label_rank, xs = X[order], label_rank[order], X[order, 0]
    q_order = order if exclude_self else np.argsort(Q[:, 0], kind="stable")
    Q = X if exclude_self else Q[q_order]
    ranks, best = np.empty(len(Q), dtype=np.intp), np.empty(len(Q))

    def nearest(rows: np.ndarray, a: int, z: int):
        sq = _sq_distances(X[a:z], Q[rows])
        if exclude_self:
            sq[np.arange(len(rows)), rows - a] = np.inf
        return _nearest_ranks(sq, label_rank[a:z])

    for s in range(0, len(Q), _WINDOW_BLOCK):
        block = np.arange(s, min(s + _WINDOW_BLOCK, len(Q)))
        a = max(int(np.searchsorted(xs, Q[s, 0])) - _WINDOW_BLOCK, 0)
        z = int(np.searchsorted(xs, Q[block[-1], 0], "right")) + _WINDOW_BLOCK
        r, b = nearest(block, a, z)
        for g in np.split(np.argsort(b), range(16, len(b), 16)):
            lo, hi = float(Q[s + g.min(), 0]), float(Q[s + g.max(), 0])
            reach = math.sqrt(b[g].max()) * (1 + 2**-30) + (abs(lo) + abs(hi) + 1e-120) * 2**-30
            wa, wz = np.searchsorted(xs, lo - reach), np.searchsorted(xs, hi + reach, "right")
            if wa < a or wz > z:
                r[g], b[g] = nearest(block[g], wa, wz)
        ranks[q_order[block]], best[q_order[block]] = r, b
    return ranks, best


def _nearest(X, label_rank, Q, exclude_self=False, block: int = _BLOCK):
    """Per row of Q: _nearest_ranks' result against X, each item skipping
    itself if ``exclude_self`` (Q is X).  Dim 1 or 2 takes _nearest_window;
    other inputs one _distance_blocks pass over every pair."""
    if 0 < X.shape[1] <= 2:
        return _nearest_window(X, label_rank, Q, exclude_self)
    ranks, best = np.empty(len(Q), dtype=np.intp), np.empty(len(Q))
    for start, sq in _distance_blocks(X, Q, block):
        if exclude_self:
            np.fill_diagonal(sq[:, start:], np.inf)
        rows = slice(start, start + len(sq))
        ranks[rows], best[rows] = _nearest_ranks(sq, label_rank)
    return ranks, best


@dataclass(frozen=True, eq=False)
class ExemplarMemory:
    """Stored exemplars with their labels and the canonical class order."""

    vectors: np.ndarray  # (n, d) float64
    labels: list
    class_set: list
    class_counts: dict
    label_rank: np.ndarray  # per-exemplar index into class_set

    @classmethod
    def from_pairs(cls, vectors, labels) -> "ExemplarMemory":
        X = np.ascontiguousarray(np.asarray(vectors, dtype=np.float64))
        if X.ndim != 2 or len(X) == 0:
            raise ValueError("memory requires a non-empty 2-D exemplar array")
        labels = list(labels)
        if len(labels) != len(X):
            raise ValueError("vectors and labels must have equal length")
        order = _class_order(labels)
        index = {c: i for i, c in enumerate(order)}
        return cls(
            vectors=X,
            labels=labels,
            class_set=order,
            class_counts=dict(Counter(labels)),
            label_rank=np.array([index[l] for l in labels], dtype=np.intp),
        )

    @classmethod
    def from_encoded(cls, nouns: list[EncodedNoun]) -> "ExemplarMemory":
        if not nouns:
            raise ValueError("memory requires at least one exemplar")
        return cls.from_pairs([n.vector for n in nouns], [n.label for n in nouns])

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def _check_query(self, query: np.ndarray) -> np.ndarray:
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ValueError(f"query length {q.shape} does not match memory dim {self.dim}")
        return q


@dataclass(frozen=True, eq=False)
class ClassifierResponse:
    """Per-class graded scores (aligned with ``classes``) and the decision."""

    classes: list
    scores: np.ndarray
    decision: object


# --------------------------------------------------------------------------
# Nearest neighbour
# --------------------------------------------------------------------------


def nn_classify(memory: ExemplarMemory, query) -> tuple[object, float]:
    """Class of the minimum-Euclidean-distance exemplar, and that distance.

    Exact distance ties between exemplars of different classes resolve in
    canonical class order.  One row of nn_decide_batch.
    """
    [decision], [distance] = nn_decide_batch(memory, memory._check_query(query)[None, :])
    return decision, float(distance)


def nn_decide_batch(memory: ExemplarMemory, queries) -> tuple[list, np.ndarray]:
    """Vectorized nn_classify over rows of ``queries``: (decisions, distances).

    Bit for bit nn_classify per row, ties included, at dim <= 2 and on
    integer inputs.  On fractional inputs of higher dim, last bits and so
    ties follow the GEMM's float64 rounding, which depends on batch shape.
    """
    Q = np.ascontiguousarray(np.asarray(queries, dtype=np.float64))
    if Q.ndim != 2 or Q.shape[1] != memory.dim:
        raise ValueError("queries must be a 2-D array matching memory dim")
    ranks, best = _nearest(memory.vectors, memory.label_rank, Q)
    return [memory.class_set[r] for r in ranks], np.sqrt(best)


def nn_leave_one_out(memory: ExemplarMemory) -> float:
    """Accuracy when each exemplar is classified by its nearest other exemplar."""
    if len(memory) < 2:
        raise ValueError("leave-one-out requires at least 2 entries")
    X, n_classes = memory.vectors, len(memory.class_set)
    if _panel_keys_exact(X, n_classes):
        ranks, _ = _leave_one_out_panels(X, memory.label_rank, n_classes)
    else:
        ranks, _ = _nearest(X, memory.label_rank, X, True)
    return int(np.count_nonzero(ranks == memory.label_rank)) / len(memory)


# --------------------------------------------------------------------------
# Generalized Context Model
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GcmParams:
    """Similarity-kernel parameters: eta = exp(-(d/s)^p).

    ``p=2`` gives a gaussian kernel, ``p=1`` exponential decay.  Optional
    per-class ``biases`` must be in [0, 1] and sum to 1; they are omitted
    by default to keep the parameter count down.  Optional per-exemplar
    ``likelihoods`` weight each stored item (presentation frequency);
    the default presents every exemplar once with equal weight.
    """

    s: float
    p: int = 2
    biases: dict | None = None
    likelihoods: np.ndarray | None = None

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError("scale s must be positive")
        if self.p not in (1, 2):
            raise ValueError("kernel exponent p must be 1 or 2")
        if self.biases is not None:
            values = np.array(list(self.biases.values()), dtype=np.float64)
            if not np.all((values >= 0) & (values <= 1)):  # NaN fails too
                raise ValueError("biases must lie in [0, 1]")
            if abs(values.sum() - 1.0) > 1e-9:
                raise ValueError("biases must sum to 1")


def _likelihoods(memory: ExemplarMemory, params: GcmParams) -> np.ndarray | None:
    if params.likelihoods is None:
        return None
    like = np.asarray(params.likelihoods, dtype=np.float64)
    if like.shape != (len(memory),):
        raise ValueError("likelihoods must have one weight per exemplar")
    return like


def _normalise_strengths(memory: ExemplarMemory, params: GcmParams, strengths: np.ndarray):
    """Bias-weighted class strengths, normalised to probabilities per row."""
    if params.biases is not None:
        b = np.array([params.biases.get(c, 0.0) for c in memory.class_set], dtype=np.float64)
        strengths = strengths * b
    return strengths / strengths.sum(axis=1, keepdims=True)


def _gcm_block_probs(memory: ExemplarMemory, params: GcmParams, d: np.ndarray) -> np.ndarray:
    """(rows, n_classes) probabilities from a block of distances d."""
    expo = (d / params.s) ** params.p
    # subtract the per-query minimum exponent: rescales every class score
    # by the same factor, so probabilities are unchanged but far queries
    # cannot underflow to an all-zero row
    expo -= expo.min(axis=1, keepdims=True)
    eta = np.exp(-expo)
    like = _likelihoods(memory, params)
    if like is not None:
        eta = eta * like
    onehot = np.zeros((len(memory), len(memory.class_set)), dtype=np.float64)
    onehot[np.arange(len(memory)), memory.label_rank] = 1.0
    return _normalise_strengths(memory, params, eta @ onehot)


def _gcm_prob_matrix(memory: ExemplarMemory, params: GcmParams, Q: np.ndarray) -> np.ndarray:
    """(n_queries, n_classes) probability matrix, classes in canonical order."""
    return _gcm_block_probs(memory, params, np.sqrt(_sq_distances(memory.vectors, Q)))


def _histogram_block_probs(memory: ExemplarMemory, sq: np.ndarray, bins: int):
    """Probabilities per parameter set from a block of integer squared distances.

    Counts, per query row, the exemplars of each class at each squared
    distance 0 .. bins-1 once; each parameter set then weights the counts
    by a bins-entry kernel row per query instead of one exp per pair.
    Returns params -> (rows, n_classes) probabilities.
    """
    rows, n_classes = sq.shape[0], len(memory.class_set)
    index = sq.astype(np.intp)
    nearest = index.min(axis=1)
    index += memory.label_rank * bins
    index += (np.arange(rows) * (n_classes * bins))[:, None]
    index = index.ravel()
    levels = np.sqrt(np.arange(bins, dtype=np.float64))

    def histogram(weights=None) -> np.ndarray:
        flat = np.bincount(index, weights, rows * n_classes * bins)
        return flat.reshape(rows, n_classes, bins).astype(np.float64, copy=False)

    counts = histogram()

    def probs(params: GcmParams) -> np.ndarray:
        like = _likelihoods(memory, params)
        hist = counts if like is None else histogram(np.broadcast_to(like, sq.shape).ravel())
        expo = (levels / params.s) ** params.p
        # the direct path's underflow guard: subtract the exponent at each
        # row's nearest exemplar; empty bins below it are clipped to 0
        expo = expo - expo[nearest][:, None]
        np.maximum(expo, 0.0, out=expo)
        eta = np.exp(-expo, out=expo)
        return _normalise_strengths(memory, params, np.einsum("rcb,rb->rc", hist, eta))

    return probs


def _gcm_decide_scales(memory: ExemplarMemory, params_list, queries) -> list:
    """One distance pass serving several parameter sets: per entry of
    ``params_list``, its (class ranks, max probabilities) arrays.

    Blocks of exact integer distances go through a class x distance
    histogram when it is no larger than the block (n_classes * bins <=
    exemplars); all other blocks take the direct per-pair kernel.
    """
    Q = np.ascontiguousarray(np.asarray(queries, dtype=np.float64))
    results = [(np.empty(len(Q), dtype=np.intp), np.empty(len(Q))) for _ in params_list]
    for start, sq in _distance_blocks(memory.vectors, Q):
        bins = int(sq.max()) + 1 if sq.dtype == np.float32 else None
        if bins is not None and len(memory.class_set) * bins <= len(memory):
            block_probs = _histogram_block_probs(memory, sq, bins)
        else:
            d = sq.astype(np.float64, copy=False)
            block_probs = partial(_gcm_block_probs, memory, d=np.sqrt(d, out=d))
        for params, (ranks, max_probs) in zip(params_list, results):
            probs = block_probs(params)
            ranks[start : start + len(sq)] = np.argmax(probs, axis=1)
            max_probs[start : start + len(sq)] = probs.max(axis=1)
    return results


def gcm_classify(memory: ExemplarMemory, params: GcmParams, query) -> ClassifierResponse:
    """Normalized per-class response strengths for one query.

    The strength of class J is the (bias-weighted) sum over J's exemplars
    of likelihood times kernel similarity, normalized across classes.
    """
    q = memory._check_query(query)
    probs = _gcm_prob_matrix(memory, params, q[None, :])[0]
    return ClassifierResponse(
        classes=list(memory.class_set),
        scores=probs,
        decision=memory.class_set[int(np.argmax(probs))],
    )


def gcm_decide_batch(memory: ExemplarMemory, params: GcmParams, queries) -> tuple[list, np.ndarray]:
    """Per-row decisions and max probabilities: _gcm_decide_scales at one scale."""
    [(ranks, max_probs)] = _gcm_decide_scales(memory, [params], queries)
    return [memory.class_set[r] for r in ranks], max_probs


def _class_ranks(memory: ExemplarMemory, nouns: list[EncodedNoun]) -> np.ndarray:
    """Each noun's label as an index into memory.class_set; -1 if absent."""
    index = {c: i for i, c in enumerate(memory.class_set)}
    return np.array([index.get(n.label, -1) for n in nouns], dtype=np.intp)


def gcm_optimize_scale(
    memory: ExemplarMemory, eval_set: list[EncodedNoun], p: int, grid
) -> tuple[float, float]:
    """Grid point maximizing eval-set accuracy; ties go to the smallest s."""
    grid = sorted(grid)
    if not grid:
        raise ValueError("scale grid must be non-empty")
    if not eval_set:
        raise ValueError("eval_set must be non-empty")
    params_list = [GcmParams(s=s, p=p) for s in grid]
    results = _gcm_decide_scales(memory, params_list, [n.vector for n in eval_set])
    truth = _class_ranks(memory, eval_set)
    accs = [int(np.count_nonzero(ranks == truth)) / len(eval_set) for ranks, _ in results]
    first_best = accs.index(max(accs))
    return grid[first_best], accs[first_best]


# --------------------------------------------------------------------------
# Three-layer backprop network
# --------------------------------------------------------------------------


def _logistic(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Overflow-free logistic: where(z >= 0, 1, e) / (1 + e) with e = exp(-|z|).

    Bit for bit, this is 1 / (1 + exp(-z)) for z >= 0 (-0.0 and +inf
    included) and exp(z) / (1 + exp(z)) otherwise, NaN included: -|z| is
    taken as min(z, -z), which returns a NaN with its sign.  ``out`` may be
    ``z`` itself.
    """
    e = np.exp(np.minimum(z, -z))
    return np.divide(np.where(z >= 0, 1.0, e), 1.0 + e, out=out)


@dataclass(eq=False)
class MlpModel:
    """Feed-forward net with one logistic hidden layer and logistic outputs."""

    w_hidden: np.ndarray  # (hidden, inputs)
    b_hidden: np.ndarray  # (hidden,)
    w_output: np.ndarray  # (classes, hidden)
    b_output: np.ndarray  # (classes,)
    class_set: list
    metadata: dict = field(default_factory=dict)

    @property
    def input_dim(self) -> int:
        return self.w_hidden.shape[1]

    @property
    def hidden_count(self) -> int:
        return self.w_hidden.shape[0]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hidden = _logistic(self.w_hidden @ x + self.b_hidden)
        output = _logistic(self.w_output @ hidden + self.b_output)
        return hidden, output


def mlp_loss(model: MlpModel, x: np.ndarray, target: np.ndarray) -> float:
    """Half sum-of-squares error on the logistic outputs for one pattern."""
    _, out = model.forward(x)
    return 0.5 * float(np.sum((out - target) ** 2))


def mlp_gradients(model: MlpModel, x: np.ndarray, target: np.ndarray):
    """Backprop gradients of mlp_loss w.r.t. (w_hidden, b_hidden, w_output, b_output)."""
    hidden, out = model.forward(x)
    delta_out = (out - target) * out * (1.0 - out)
    delta_hidden = (model.w_output.T @ delta_out) * hidden * (1.0 - hidden)
    return (
        np.outer(delta_hidden, x),
        delta_hidden,
        np.outer(delta_out, hidden),
        delta_out,
    )


def mlp_train(
    train: list[EncodedNoun],
    hidden: int,
    epochs: int,
    seed: int,
    rate: float = 0.25,
    momentum: float = 0.9,
) -> MlpModel:
    """Per-pattern backprop training with momentum, deterministic per seed.

    Targets are one-hot over the canonical class order of the training
    set.  Weights start uniform in [-0.1, 0.1]; patterns are visited in a
    freshly shuffled order every epoch.  Rate, momentum, and initialization
    are artifact defaults (configurable), not empirical claims.
    """
    model, _ = _mlp_train_checkpoints(train, hidden, [epochs], seed, rate, momentum)
    return model


def _training_patterns(train: list[EncodedNoun]):
    """(class_set, input matrix, one-hot targets) for a training set."""
    if not train:
        raise ValueError("training set must be non-empty")
    class_set = _class_order([n.label for n in train])
    index = {c: i for i, c in enumerate(class_set)}
    X = np.ascontiguousarray([n.vector for n in train], dtype=np.float64)
    targets = np.zeros((len(train), len(class_set)), dtype=np.float64)
    targets[np.arange(len(train)), [index[n.label] for n in train]] = 1.0
    return class_set, X, targets


def _mlp_checkpoints(patterns, hidden, checkpoint_epochs, seed, rate, momentum):
    """Train once up to max(checkpoint_epochs), yielding (epoch, model) at each checkpoint.

    The yielded model's weights are views of the live parameter buffer:
    copy them to keep a snapshot.  All four weight arrays share one flat
    buffer, as do their gradients and their velocities, so the momentum
    step is four in-place calls.  Every update performs mlp_gradients'
    arithmetic in its order, so the weights are bit-identical to applying
    ``v = momentum * v - rate * grad; param += v`` to its gradients.
    """
    checkpoints = sorted(set(checkpoint_epochs))
    if hidden < 1:
        raise ValueError("hidden must be >= 1")
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError("epochs must be >= 1")
    if rate <= 0:
        raise ValueError("rate must be positive")
    if momentum < 0:
        raise ValueError("momentum must be non-negative")
    class_set, X, targets = patterns
    n_out = len(class_set)
    shapes = [(hidden, X.shape[1]), (hidden,), (n_out, hidden), (n_out,)]
    bounds = np.cumsum([math.prod(s) for s in shapes])

    def views(flat):
        return [part.reshape(s) for part, s in zip(np.split(flat, bounds[:-1]), shapes)]

    params, grads, velocity = np.empty(bounds[-1]), np.empty(bounds[-1]), np.zeros(bounds[-1])
    rng = np.random.default_rng(seed)
    w_hidden, b_hidden, w_output, b_output = views(params)
    for p in (w_hidden, b_hidden, w_output, b_output):
        p[...] = rng.uniform(-0.1, 0.1, size=p.shape)
    g_hidden, delta_hidden, g_output, delta_out = views(grads)
    w_output_t = w_output.T
    h, out = np.empty(hidden), np.empty(n_out)
    h_slope, out_slope = np.empty(hidden), np.empty(n_out)
    model = MlpModel(
        w_hidden=w_hidden, b_hidden=b_hidden, w_output=w_output, b_output=b_output,
        class_set=class_set,
        metadata={
            "hidden": hidden,
            "epochs": checkpoints[-1],
            "seed": seed,
            "rate": rate,
            "momentum": momentum,
        },
    )
    for epoch in range(1, checkpoints[-1] + 1):
        for i in rng.permutation(len(X)).tolist():
            x = X[i]
            np.dot(w_hidden, x, out=h)
            h += b_hidden
            _logistic(h, out=h)
            np.dot(w_output, h, out=out)
            out += b_output
            _logistic(out, out=out)
            # delta_out = (out - target) * out * (1 - out)
            np.subtract(out, targets[i], out=delta_out)
            delta_out *= out
            np.subtract(1.0, out, out=out_slope)
            delta_out *= out_slope
            # delta_hidden = (w_output.T @ delta_out) * h * (1 - h)
            np.dot(w_output_t, delta_out, out=delta_hidden)
            delta_hidden *= h
            np.subtract(1.0, h, out=h_slope)
            delta_hidden *= h_slope
            np.multiply.outer(delta_hidden, x, out=g_hidden)
            np.multiply.outer(delta_out, h, out=g_output)
            velocity *= momentum
            grads *= rate
            velocity -= grads
            params += velocity
        if epoch in checkpoints:
            yield epoch, model


def _mlp_train_checkpoints(train, hidden, checkpoint_epochs, seed, rate, momentum):
    """Train once up to max(checkpoint_epochs), snapshotting at each checkpoint.

    Returns (final model, list of (epochs, model)); the states at
    intermediate checkpoints are identical to shorter runs with the same
    seed.
    """
    patterns = _training_patterns(train)
    snapshots = [
        (epoch, MlpModel(
            w_hidden=model.w_hidden.copy(),
            b_hidden=model.b_hidden.copy(),
            w_output=model.w_output.copy(),
            b_output=model.b_output.copy(),
            class_set=model.class_set,
            metadata=dict(model.metadata, epochs=epoch),
        ))
        for epoch, model in _mlp_checkpoints(
            patterns, hidden, checkpoint_epochs, seed, rate, momentum
        )
    ]
    return snapshots[-1][1], snapshots


def mlp_classify(model: MlpModel, query) -> ClassifierResponse:
    """Output activations in (0, 1) per class; decision is the argmax."""
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (model.input_dim,):
        raise ValueError(f"query length {q.shape} does not match input dim {model.input_dim}")
    _, out = model.forward(q)
    return ClassifierResponse(
        classes=list(model.class_set),
        scores=out,
        decision=model.class_set[int(np.argmax(out))],
    )


def mlp_decide_batch(model: MlpModel, queries) -> tuple[list, np.ndarray]:
    """Vectorized decisions and max-activations over query rows."""
    Q = np.asarray(queries, dtype=np.float64)
    hidden = _logistic(Q @ model.w_hidden.T + model.b_hidden)
    out = _logistic(hidden @ model.w_output.T + model.b_output)
    idx = np.argmax(out, axis=1)
    decisions = [model.class_set[i] for i in idx]
    return decisions, out[np.arange(len(out)), idx]


def mlp_grid_sweep(
    train: list[EncodedNoun],
    eval_set: list[EncodedNoun],
    hidden_grid,
    epoch_grid,
    seeds,
    rate: float = 0.25,
    momentum: float = 0.9,
):
    """Hidden-count x epoch x seed sweep evaluated on ``eval_set``.

    Each (hidden, seed) pair trains once to the largest epoch count and is
    scored at every epoch checkpoint, which matches training each cell
    from scratch because updates are deterministic per seed.  Returns
    (rows, best) where rows are (hidden, epochs, seed, accuracy) in grid
    order and best is the argmax row (ties: fewer epochs, then fewer
    hidden units, then smaller seed).
    """
    hidden_grid = sorted(set(hidden_grid))
    epoch_grid = sorted(set(epoch_grid))
    seeds = list(seeds)
    if not hidden_grid or not epoch_grid or not seeds:
        raise ValueError("sweep grids must be non-empty")
    patterns = _training_patterns(train)
    queries = np.asarray([n.vector for n in eval_set], dtype=np.float64)
    labels = [n.label for n in eval_set]
    rows = []
    for hidden in hidden_grid:
        for seed in seeds:
            for epochs, model in _mlp_checkpoints(
                patterns, hidden, epoch_grid, seed, rate, momentum
            ):
                decisions, _ = mlp_decide_batch(model, queries)
                acc = sum(d == lab for d, lab in zip(decisions, labels)) / len(labels)
                rows.append((hidden, epochs, seed, acc))
    best = min(rows, key=lambda r: (-r[3], r[1], r[0], r[2]))
    return rows, best


# --------------------------------------------------------------------------
# Scoring
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Confusion:
    """Row = true class, column = predicted class, canonical name order."""

    classes: list
    counts: np.ndarray


def evaluate(responses, labels) -> tuple[float, Confusion]:
    """Exact-match accuracy plus the confusion matrix.

    ``responses`` may be ClassifierResponse objects or bare class
    decisions; only the decision is scored.
    """
    if len(responses) != len(labels):
        raise ValueError("responses and labels must have equal length")
    decisions = [r.decision if isinstance(r, ClassifierResponse) else r for r in responses]
    classes = sorted(set(decisions) | set(labels), key=str)
    index = {c: i for i, c in enumerate(classes)}
    counts = np.zeros((len(classes), len(classes)), dtype=np.int64)
    correct = 0
    for dec, lab in zip(decisions, labels):
        counts[index[lab], index[dec]] += 1
        correct += dec == lab
    accuracy = correct / len(labels) if labels else 0.0
    return accuracy, Confusion(classes=classes, counts=counts)
