"""Pseudolanguage generation and the simple-vs-hybrid comparison."""

import tracemalloc

import numpy as np
import pytest

from pluralbench.classifiers import _exact_in_float32, _sq_distances
from pluralbench.synthetic import (
    GAUSSIAN,
    UNIFORM,
    LanguageSpec,
    SyntheticSample,
    _nearest_sq,
    compare_simple_vs_hybrid,
    generate_language,
    language_1,
    language_2,
    regular_taxonomy,
)

T_GRID = [round(0.05 * i, 2) for i in range(101)]  # 0.0 .. 5.0


def test_spec_validation():
    ok = language_1()
    ok.validate()
    bad = [
        dict(centroids=((0.0, 0.0),), sigmas=(1.0,)),
        dict(centroids=((0.0, 0.0), (1.0, 1.0)), sigmas=(1.0,)),
        dict(centroids=((0.0, 0.0), (1.0, 1.0)), sigmas=(1.0, 1.0), default_class_index=5),
        dict(centroids=((0.0, 0.0), (1.0, 1.0)), sigmas=(1.0, 1.0), points_per_class=0),
        dict(centroids=((0.0, 0.0), (1.0, 1.0)), sigmas=(1.0, 1.0), default_mode="ring"),
        dict(
            centroids=((0.0, 0.0), (1.0, 1.0)),
            sigmas=(1.0, 1.0),
            space_bounds=((5.0, 5.0), (0.0, 10.0)),
        ),
        dict(centroids=((0.0, 0.0), (1.0, 1.0)), sigmas=(1.0, -1.0)),
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            LanguageSpec(**kwargs).validate()


def test_presets():
    one, two = language_1(seed=3), language_2(seed=3)
    assert one.centroids == two.centroids
    assert len(one.centroids) == 5
    assert one.default_class_index == two.default_class_index == 4
    assert one.default_mode == GAUSSIAN
    assert two.default_mode == UNIFORM
    assert one.sigmas == (0.5,) * 5
    assert one.space_bounds == ((0.0, 10.0), (0.0, 10.0))


def test_generate_counts_and_determinism():
    sample = generate_language(language_1(seed=9, points_per_class=50))
    assert sample.coords.shape == (250, 2)
    assert sample.labels.shape == (250,)
    counts = np.bincount(sample.labels)
    assert counts.tolist() == [50] * 5
    again = generate_language(language_1(seed=9, points_per_class=50))
    assert np.array_equal(sample.coords, again.coords)
    other = generate_language(language_1(seed=10, points_per_class=50))
    assert not np.array_equal(sample.coords, other.coords)


def test_generate_cluster_and_uniform_geometry():
    spec = language_2(seed=0)
    sample = generate_language(spec)
    for cls, centroid in enumerate(spec.centroids[:4]):
        pts = sample.coords[sample.labels == cls]
        assert np.allclose(pts.mean(axis=0), centroid, atol=0.2)
        assert np.all(np.abs(pts - centroid) < 5 * 0.5)  # 5 sigma
    default_pts = sample.coords[sample.labels == 4]
    assert default_pts.min() >= 0.0 and default_pts.max() <= 10.0
    # uniform spread: standard deviation far above the cluster sigma
    assert default_pts.std(axis=0).min() > 2.0


def test_compare_returns_consistent_verdict():
    sample = generate_language(language_2(seed=0))
    simple, curve, verdict = compare_simple_vs_hybrid(sample, split_seed=0, t_grid=T_GRID)
    best_t, best_acc = curve.best()
    assert curve.baseline == simple
    assert 0.0 <= simple <= 1.0
    assert {
        True: "hybrid-wins", False: "simple-wins" if best_acc < simple else "tie"
    }[best_acc > simple] == verdict
    assert verdict == "hybrid-wins"
    assert len(curve.points) == len(T_GRID)
    # deterministic given both seeds
    simple2, curve2, verdict2 = compare_simple_vs_hybrid(sample, split_seed=0, t_grid=T_GRID)
    assert (simple2, verdict2) == (simple, verdict)
    assert curve2.points == curve.points


def test_compare_rejects_degenerate_samples():
    base = generate_language(language_1(seed=0, points_per_class=10))
    flat = SyntheticSample(
        coords=base.coords, labels=np.zeros(len(base.labels), dtype=np.intp), spec=base.spec
    )
    with pytest.raises(ValueError):
        compare_simple_vs_hybrid(flat, split_seed=0, t_grid=T_GRID)
    only_default = SyntheticSample(
        coords=base.coords,
        labels=np.where(np.arange(len(base.labels)) % 2 == 0, 4, 3).astype(np.intp),
        spec=base.spec,
    )
    compare_simple_vs_hybrid(only_default, split_seed=0, t_grid=T_GRID)  # two classes: fine


def test_taxonomy_partitions_default_class():
    sample = generate_language(language_2(seed=1))
    interfacial, isolated = regular_taxonomy(sample)
    n_default = int(np.count_nonzero(sample.labels == 4))
    assert interfacial + isolated == n_default
    assert interfacial > 0 and isolated > 0
    # radius overrides: vanishing radius isolates everyone, huge radius none
    assert regular_taxonomy(sample, radius=1e-12) == (0, n_default)
    assert regular_taxonomy(sample, radius=1e12) == (n_default, 0)


def test_taxonomy_sees_more_interface_in_language_2():
    compact = generate_language(language_1(seed=2))
    spread = generate_language(language_2(seed=2))
    inter_compact, _ = regular_taxonomy(compact)
    inter_spread, _ = regular_taxonomy(spread)
    assert inter_spread > inter_compact


def test_taxonomy_rejects_single_sided_samples():
    base = generate_language(language_1(seed=0, points_per_class=10))
    all_default = SyntheticSample(
        coords=base.coords, labels=np.full(len(base.labels), 4, dtype=np.intp), spec=base.spec
    )
    with pytest.raises(ValueError):
        regular_taxonomy(all_default)
    no_default = SyntheticSample(
        coords=base.coords, labels=np.zeros(len(base.labels), dtype=np.intp), spec=base.spec
    )
    with pytest.raises(ValueError):
        regular_taxonomy(no_default)


def _split_default(sample):
    is_default = sample.labels == sample.spec.default_class_index
    return sample.coords[~is_default], sample.coords[is_default]


def _unblocked_taxonomy(sample, multiplier=2.0):
    """regular_taxonomy on whole N² matrices, as before blocking: (squared
    distance of each irregular point to its nearest other irregular point,
    of each regular point to its nearest irregular point, the counts)."""
    irregular, regular = _split_default(sample)
    sq = _sq_distances(irregular, irregular)
    np.fill_diagonal(sq, np.inf)
    nn_sq = sq.min(axis=1)
    radius = float(np.median(np.sqrt(nn_sq))) * multiplier
    to_irregular = _sq_distances(irregular, regular).min(axis=1)
    interfacial = int(np.count_nonzero(np.sqrt(to_irregular) < radius))
    return nn_sq, to_irregular, (interfacial, len(regular) - interfacial)


@pytest.mark.parametrize("preset", [language_1, language_2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_blocked_taxonomy_equals_unblocked_matrices(preset, seed):
    # 1,200 irregular and 300 regular points: both passes cross a 256-row block edge
    sample = generate_language(preset(seed=seed, points_per_class=300))
    nn_sq, to_irregular, counts = _unblocked_taxonomy(sample)
    irregular, regular = _split_default(sample)
    assert _nearest_sq(irregular, irregular).tobytes() == nn_sq.tobytes()
    assert _nearest_sq(irregular, regular).tobytes() == to_irregular.tobytes()
    assert regular_taxonomy(sample) == counts


def test_blocked_taxonomy_integer_duplicates_across_blocks():
    # 600 distinct irregular grid points 3 apart, then exact duplicates
    # planted in other 256-row blocks
    grid = np.stack(np.meshgrid(np.arange(25), np.arange(24)), axis=-1).reshape(-1, 2)
    irregular = 3.0 * grid
    irregular[[520, 300]] = irregular[[10, 5]]
    # 300 regular points: 100 duplicates of irregular points, 200 far away
    regular = 700.0 + 3.0 * grid[:300]
    regular[::3] = irregular[np.arange(0, 600, 6)]
    coords = np.concatenate([irregular, regular])
    labels = np.repeat(np.array([0, 4], dtype=np.intp), [600, 300])
    sample = SyntheticSample(coords=coords, labels=labels, spec=language_2())
    assert _exact_in_float32(irregular, irregular) and _exact_in_float32(irregular, regular)

    nn_sq = _nearest_sq(irregular, irregular)
    for i, q in enumerate(irregular):
        others = np.delete(irregular, i, axis=0)
        assert nn_sq[i] == ((others - q) ** 2).sum(axis=1).min()
    # a duplicate is at distance 0; only the item itself is excluded
    assert nn_sq[[5, 10, 300, 520]].tolist() == [0.0] * 4
    assert np.count_nonzero(nn_sq == 0) == 4
    to_irregular = _nearest_sq(irregular, regular)
    assert np.count_nonzero(to_irregular == 0) == 100
    nn_ref, to_ref, counts = _unblocked_taxonomy(sample)
    assert nn_sq.tobytes() == nn_ref.tobytes() and to_irregular.tobytes() == to_ref.tobytes()
    assert regular_taxonomy(sample) == counts == (100, 200)


def test_taxonomy_memory_is_bounded():
    sample = generate_language(language_2(seed=1, points_per_class=1000))
    tracemalloc.start()
    try:
        regular_taxonomy(sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def _spread_language(seed, bounds):
    spec = language_2(seed=seed)
    return LanguageSpec(
        centroids=spec.centroids,
        sigmas=spec.sigmas,
        points_per_class=spec.points_per_class,
        default_class_index=spec.default_class_index,
        default_mode=UNIFORM,
        space_bounds=bounds,
        seed=seed,
    )


def test_shrinking_bounds_raises_interface_and_hybrid_gap():
    """Tighter bounds around fixed clusters concentrate the spread-out
    default class at the cluster interfaces, which must not reduce the
    hybrid's mean advantage (paired seeds, fixed grids)."""
    full = ((0.0, 10.0), (0.0, 10.0))
    shrunk = ((1.0, 9.0), (1.0, 9.0))
    gaps = {full: [], shrunk: []}
    ratios = {full: [], shrunk: []}
    for seed in range(20):
        for bounds in (full, shrunk):
            sample = generate_language(_spread_language(seed, bounds))
            simple, curve, _ = compare_simple_vs_hybrid(sample, split_seed=seed, t_grid=T_GRID)
            gaps[bounds].append(curve.best()[1] - simple)
            interfacial, isolated = regular_taxonomy(sample)
            ratios[bounds].append(interfacial / (interfacial + isolated))
    assert np.mean(ratios[shrunk]) > np.mean(ratios[full])
    assert np.mean(gaps[shrunk]) >= np.mean(gaps[full])
