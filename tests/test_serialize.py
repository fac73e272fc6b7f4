"""Model persistence: JSON envelopes round-trip decisions bit for bit."""

import base64
import json
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from pluralbench.classifiers import (
    ExemplarMemory,
    GcmParams,
    MlpModel,
    gcm_classify,
    mlp_decide_batch,
    mlp_train,
    nn_decide_batch,
)
from pluralbench.dataset import EncodedNoun
from pluralbench.errors import ModelFormatError
from pluralbench.phonology import PluralClass, default_feature_table, encode_word
from pluralbench.serialize import (
    FORMAT_NAME,
    FORMAT_VERSION,
    _tag_label,
    _untag_label,
    load_model,
    save_gcm,
    save_mlp,
    save_nn,
)

IDENT = PluralClass(kind="identity")
SUFFIX_EN = PluralClass(kind="suffix", suffix=("ə", "n"))
UML_REWRITE = PluralClass(
    kind="umlaut_rewrite", rewrite_from=("ʊ", "s"), rewrite_to=("ə", "n")
)


def _nouns(X, labels):
    return [
        EncodedNoun(vector=np.asarray(x, dtype=np.float64), label=l, source_id=str(i))
        for i, (x, l) in enumerate(zip(X, labels))
    ]


def test_label_tags_round_trip():
    labels = [
        IDENT,
        SUFFIX_EN,
        UML_REWRITE,
        PluralClass(kind="umlaut"),
        PluralClass(kind="umlaut_suffix", suffix=("ə",)),
        PluralClass(kind="rewrite", rewrite_from=("ʊ", "m"), rewrite_to=("ə", "n")),
        7,
        "plain-string",
    ]
    for label in labels:
        assert _untag_label(_tag_label(label)) == label
    with pytest.raises(ModelFormatError):
        _tag_label(True)
    with pytest.raises(ModelFormatError):
        _tag_label(3.5)
    with pytest.raises(ModelFormatError):
        _untag_label({"type": "tuple", "value": []})
    with pytest.raises(ModelFormatError):
        _untag_label("not-a-dict")


def test_nn_round_trip(tmp_path):
    rng = np.random.default_rng(30)
    X = rng.normal(size=(9, 4))
    labels = [IDENT, SUFFIX_EN, IDENT, UML_REWRITE, IDENT, SUFFIX_EN, IDENT, IDENT, SUFFIX_EN]
    memory = ExemplarMemory.from_pairs(X, labels)
    path = tmp_path / "nn.json"
    save_nn(memory, path, metadata={"note": "test"})
    saved = load_model(path)
    assert saved.kind == "nn" and saved.params is None
    assert saved.metadata == {"note": "test"}
    assert saved.model.class_set == memory.class_set
    assert np.array_equal(saved.model.vectors, memory.vectors)
    Q = rng.normal(size=(6, 4))
    want_dec, want_dist = nn_decide_batch(memory, Q)
    got_dec, got_dist = nn_decide_batch(saved.model, Q)
    assert got_dec == want_dec
    assert np.array_equal(got_dist, want_dist)


def test_gcm_round_trip_with_biases_and_likelihoods(tmp_path):
    rng = np.random.default_rng(31)
    X = rng.normal(size=(6, 3))
    labels = [IDENT, IDENT, SUFFIX_EN, SUFFIX_EN, UML_REWRITE, UML_REWRITE]
    memory = ExemplarMemory.from_pairs(X, labels)
    params = GcmParams(
        s=1.3,
        p=1,
        biases={IDENT: 0.5, SUFFIX_EN: 0.3, UML_REWRITE: 0.2},
        likelihoods=np.array([1.0, 2.0, 1.0, 1.0, 3.0, 1.0]),
    )
    path = tmp_path / "gcm.json"
    save_gcm(memory, params, path)
    saved = load_model(path)
    assert saved.kind == "gcm"
    assert saved.params.s == params.s and saved.params.p == params.p
    assert saved.params.biases == params.biases
    assert np.array_equal(saved.params.likelihoods, params.likelihoods)
    q = rng.normal(size=3)
    want = gcm_classify(memory, params, q)
    got = gcm_classify(saved.model, saved.params, q)
    assert got.classes == want.classes
    assert np.array_equal(got.scores, want.scores)
    assert got.decision == want.decision


def test_gcm_round_trip_without_options(tmp_path):
    memory = ExemplarMemory.from_pairs([[0.0, 1.0], [1.0, 0.0]], ["a", "b"])
    path = tmp_path / "gcm.json"
    save_gcm(memory, GcmParams(s=0.9), path)
    saved = load_model(path)
    assert saved.params.biases is None and saved.params.likelihoods is None


def test_mlp_round_trip(tmp_path):
    rng = np.random.default_rng(32)
    X = rng.normal(size=(12, 5))
    labels = [IDENT, SUFFIX_EN, "extra"] * 4
    model = mlp_train(_nouns(X, labels), hidden=4, epochs=3, seed=2)
    path = tmp_path / "mlp.json"
    save_mlp(model, path, metadata={"train_size": 12})
    saved = load_model(path)
    assert saved.kind == "mlp" and saved.params is None
    assert saved.model.class_set == model.class_set
    assert np.array_equal(saved.model.w_hidden, model.w_hidden)
    assert np.array_equal(saved.model.b_hidden, model.b_hidden)
    assert np.array_equal(saved.model.w_output, model.w_output)
    assert np.array_equal(saved.model.b_output, model.b_output)
    # metadata merges the training record with the caller's extras
    assert saved.metadata["train_size"] == 12
    assert saved.metadata["hidden"] == 4 and saved.metadata["epochs"] == 3
    Q = rng.normal(size=(7, 5))
    want_dec, want_scores = mlp_decide_batch(model, Q)
    got_dec, got_scores = mlp_decide_batch(saved.model, Q)
    assert got_dec == want_dec
    assert np.array_equal(got_scores, want_scores)


def test_saved_files_are_text_json(tmp_path):
    memory = ExemplarMemory.from_pairs([[0.0], [1.0]], ["a", "b"])
    path = tmp_path / "nn.json"
    save_nn(memory, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["format"] == FORMAT_NAME
    assert doc["version"] == FORMAT_VERSION
    assert doc["kind"] == "nn"
    assert path.read_text(encoding="utf-8").endswith("\n")


def _write_doc(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_load_rejects_malformed_files(tmp_path):
    with pytest.raises(ModelFormatError):
        load_model(tmp_path / "missing.json")
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelFormatError):
        load_model(bad_json)
    with pytest.raises(ModelFormatError):
        load_model(_write_doc(tmp_path, {"format": "other", "version": 1}))
    with pytest.raises(ModelFormatError):
        load_model(_write_doc(tmp_path, {"format": FORMAT_NAME, "version": 99}))
    with pytest.raises(ModelFormatError):
        load_model(
            _write_doc(tmp_path, {"format": FORMAT_NAME, "version": 1, "kind": "tree"})
        )


def test_load_rejects_structural_damage(tmp_path):
    memory = ExemplarMemory.from_pairs([[0.0, 1.0], [1.0, 0.0]], ["a", "b"])
    path = tmp_path / "nn.json"
    save_nn(memory, path)
    doc = json.loads(path.read_text(encoding="utf-8"))

    broken = dict(doc)
    del broken["vectors"]
    with pytest.raises(ModelFormatError):
        load_model(_write_doc(tmp_path, broken))

    broken = dict(doc, labels=[0, 5])  # index out of range
    with pytest.raises(ModelFormatError):
        load_model(_write_doc(tmp_path, broken))

    broken = dict(doc, labels=[0])  # fewer labels than vectors
    with pytest.raises(ModelFormatError):
        load_model(_write_doc(tmp_path, broken))


def test_load_rejects_mlp_shape_mismatch(tmp_path):
    model = mlp_train(_nouns(np.zeros((4, 3)), ["a", "b", "a", "b"]), 2, 1, 0)
    path = tmp_path / "mlp.json"
    save_mlp(model, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    with pytest.raises(ModelFormatError):
        load_model(_write_doc(tmp_path, dict(doc, hidden=7)))
    with pytest.raises(ModelFormatError):
        load_model(_write_doc(tmp_path, dict(doc, classes=doc["classes"][:1])))


def test_load_rejects_unknown_plural_class_kind(tmp_path):
    train = _nouns(np.zeros((4, 3)), [IDENT, SUFFIX_EN, IDENT, SUFFIX_EN])
    path = tmp_path / "mlp.json"
    save_mlp(mlp_train(train, 2, 1, 0), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["classes"][0]["kind"] = "discarded"
    with pytest.raises(ModelFormatError, match="discarded"):
        load_model(_write_doc(tmp_path, doc))


# --------------------------------------------------------------------------
# Format version 1 (JSON lists) still loads
# --------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


def _v1_fixture_models():
    """The models behind tests/golden/model_v1_*.json, which version 1's
    save_nn, save_gcm and save_mlp wrote with metadata {"note": "v1 fixture"}."""
    rng = np.random.default_rng(40)
    labels = [IDENT, SUFFIX_EN, IDENT, UML_REWRITE, IDENT, SUFFIX_EN, IDENT, IDENT, SUFFIX_EN]
    memory = ExemplarMemory.from_pairs(rng.normal(size=(9, 4)), labels)
    params = GcmParams(
        s=1.3,
        p=1,
        biases={IDENT: 0.5, SUFFIX_EN: 0.3, UML_REWRITE: 0.2},
        likelihoods=rng.uniform(0.5, 2.0, size=9),
    )
    mlp = MlpModel(
        w_hidden=rng.normal(size=(3, 4)),
        b_hidden=rng.normal(size=3),
        w_output=rng.normal(size=(3, 3)),
        b_output=rng.normal(size=3),
        class_set=[IDENT, SUFFIX_EN, "extra"],
        metadata={"hidden": 3},
    )
    return memory, params, mlp


def _assert_same_memory(got, want):
    assert got.class_set == want.class_set and got.labels == want.labels
    assert np.array_equal(got.vectors, want.vectors)
    Q = np.random.default_rng(41).normal(size=(8, want.dim))
    got_dec, got_dist = nn_decide_batch(got, Q)
    want_dec, want_dist = nn_decide_batch(want, Q)
    assert got_dec == want_dec and np.array_equal(got_dist, want_dist)


def test_v1_fixtures_load_bit_for_bit(tmp_path):
    memory, params, mlp = _v1_fixture_models()
    for kind in ("nn", "gcm", "mlp"):
        path = GOLDEN / f"model_v1_{kind}.json"
        assert json.loads(path.read_text(encoding="utf-8"))["version"] == 1
        saved = load_model(path)
        assert saved.kind == kind and saved.metadata["note"] == "v1 fixture"
        if kind == "mlp":
            for name in ("w_hidden", "b_hidden", "w_output", "b_output"):
                assert np.array_equal(getattr(saved.model, name), getattr(mlp, name)), name
            assert saved.model.class_set == mlp.class_set
            Q = np.random.default_rng(42).normal(size=(5, 4))
            assert mlp_decide_batch(saved.model, Q)[0] == mlp_decide_batch(mlp, Q)[0]
            assert np.array_equal(mlp_decide_batch(saved.model, Q)[1], mlp_decide_batch(mlp, Q)[1])
            continue
        _assert_same_memory(saved.model, memory)
        if kind == "gcm":
            assert (saved.params.s, saved.params.p) == (params.s, params.p)
            assert saved.params.biases == params.biases
            assert np.array_equal(saved.params.likelihoods, params.likelihoods)
            q = np.random.default_rng(43).normal(size=4)
            got = gcm_classify(saved.model, saved.params, q)
            want = gcm_classify(memory, params, q)
            assert got.decision == want.decision and np.array_equal(got.scores, want.scores)
        # a v1 model saved again is a v2 file holding the same arrays
        resaved = tmp_path / f"{kind}.json"
        save_nn(saved.model, resaved)
        assert json.loads(resaved.read_text(encoding="utf-8"))["version"] == FORMAT_VERSION == 2
        _assert_same_memory(load_model(resaved).model, memory)


# --------------------------------------------------------------------------
# Format version 2 (packed arrays): strict decoding
# --------------------------------------------------------------------------


def _packed(raw: bytes, shape, dtype="<f8"):
    return {"dtype": dtype, "shape": list(shape), "data": base64.b64encode(raw).decode("ascii")}


def _saved_doc(tmp_path, save, *args):
    path = tmp_path / "saved.json"
    save(*args, path)
    return json.loads(path.read_text(encoding="utf-8"))


def test_saved_arrays_are_packed(tmp_path):
    memory, params, mlp = _v1_fixture_models()
    doc = _saved_doc(tmp_path, save_gcm, memory, params)
    packed = doc["vectors"]
    assert set(packed) == {"data", "dtype", "shape"}
    assert packed["dtype"] == "<f8" and packed["shape"] == [9, 4]
    raw = zlib.decompress(base64.b64decode(packed["data"]))
    assert raw == memory.vectors.astype("<f8").tobytes()
    assert doc["params"]["likelihoods"]["shape"] == [9]
    assert doc["labels"] == memory.label_rank.tolist()
    doc = _saved_doc(tmp_path, save_mlp, mlp)
    assert [doc[n]["shape"] for n in ("w_hidden", "b_hidden", "w_output", "b_output")] == [
        [3, 4], [3], [3, 3], [3]
    ]


VECTORS = np.arange(8.0).reshape(2, 4)


@pytest.mark.parametrize(
    "packed, message",
    [
        ({**_packed(b"", (2, 4)), "data": "!!not base64!!"}, "vectors"),
        ({**_packed(b"", (2, 4)), "data": 17}, "vectors"),
        (_packed(zlib.compress(VECTORS.tobytes())[:-6], (2, 4)), "complete zlib stream"),
        (_packed(zlib.compress(VECTORS.tobytes()) + b"trailing", (2, 4)), "complete zlib stream"),
        (_packed(b"not zlib at all", (2, 4)), "vectors"),
        (_packed(zlib.compress(VECTORS.astype("<f4").tobytes()), (2, 4), "<f4"), "dtype"),
        (_packed(zlib.compress(VECTORS.astype(">f8").tobytes()), (2, 4), ">f8"), "dtype"),
        (_packed(zlib.compress(VECTORS.tobytes()), (4, 2)), "shape"),
        (_packed(zlib.compress(VECTORS[:1].tobytes()), (2, 4)), "complete zlib stream"),
        (_packed(zlib.compress(np.zeros((3, 4)).tobytes()), (2, 4)), "complete zlib stream"),
        ([[0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0]], "vectors"),
    ],
    ids=[
        "bad-base64", "data-not-a-string", "truncated-stream", "trailing-bytes", "not-zlib",
        "dtype-f4", "dtype-big-endian", "shape-disagrees", "too-few-bytes", "inflates-past-header",
        "list-in-v2",
    ],
)
def test_v2_rejects_malformed_packed_arrays(tmp_path, packed, message):
    memory = ExemplarMemory.from_pairs(VECTORS, ["a", "b"])
    doc = _saved_doc(tmp_path, save_nn, memory)
    assert load_model(_write_doc(tmp_path, doc)).model.vectors.tolist() == VECTORS.tolist()
    with pytest.raises(ModelFormatError, match=message):
        load_model(_write_doc(tmp_path, dict(doc, vectors=packed)))


def test_v2_inflates_no_more_than_the_header_allows(tmp_path):
    # 64 MB of zeros compress to about 64 KB; the header asks for 64 bytes
    deflater = zlib.compressobj()
    chunks = [deflater.compress(bytes(1 << 20)) for _ in range(64)] + [deflater.flush()]
    memory = ExemplarMemory.from_pairs(VECTORS, ["a", "b"])
    doc = _saved_doc(tmp_path, save_nn, memory)
    path = _write_doc(tmp_path, dict(doc, vectors=_packed(b"".join(chunks), (2, 4))))
    tracemalloc.start()
    try:
        with pytest.raises(ModelFormatError, match="complete zlib stream"):
            load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


# --------------------------------------------------------------------------
# Label indices, headers and values: checked in both versions
# --------------------------------------------------------------------------


def _docs_by_version(tmp_path, kind):
    """The v1 fixture of ``kind`` and the same model saved as v2."""
    v1 = json.loads((GOLDEN / f"model_v1_{kind}.json").read_text(encoding="utf-8"))
    saved = load_model(GOLDEN / f"model_v1_{kind}.json")
    if kind == "gcm":
        v2 = _saved_doc(tmp_path, save_gcm, saved.model, saved.params)
    else:
        v2 = _saved_doc(tmp_path, save_nn if kind == "nn" else save_mlp, saved.model)
    return {1: v1, 2: v2}


def _with_array(doc, version, name, array):
    """``doc`` with field ``name`` (or params.likelihoods) replaced by ``array``."""
    if version == 1:
        value = array.tolist()
    else:
        value = _packed(zlib.compress(array.tobytes()), array.shape)
    if name == "likelihoods":
        return dict(doc, params=dict(doc["params"], likelihoods=value))
    return dict(doc, **{name: value})


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize(
    "label", [-1, 3, True, False, 1.0, "1", None], ids=repr
)
def test_label_indices_must_index_the_classes(tmp_path, version, label):
    doc = _docs_by_version(tmp_path, "gcm")[version]
    labels = list(doc["labels"])
    labels[4] = label
    with pytest.raises(ModelFormatError, match="labels"):
        load_model(_write_doc(tmp_path, dict(doc, labels=labels)))
    with pytest.raises(ModelFormatError, match="labels"):
        load_model(_write_doc(tmp_path, dict(doc, labels={"0": 0})))


@pytest.mark.parametrize("version", [1, 2])
def test_memory_dim_must_match_the_vectors(tmp_path, version):
    doc = _docs_by_version(tmp_path, "nn")[version]
    assert load_model(_write_doc(tmp_path, doc)).model.dim == 4
    for dim in (3, 7, "4", None):
        with pytest.raises(ModelFormatError, match="vectors"):
            load_model(_write_doc(tmp_path, dict(doc, dim=dim)))


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize(
    "name, shape",
    [
        ("w_hidden", (3, 5)),
        ("w_hidden", (4, 4)),
        ("b_hidden", (2,)),
        ("b_hidden", (3, 1)),
        ("w_output", (2, 3)),
        ("b_output", (2,)),
        ("b_output", (4,)),
    ],
)
def test_mlp_arrays_must_match_the_header(tmp_path, version, name, shape):
    doc = _docs_by_version(tmp_path, "mlp")[version]
    bad = np.ones(shape)
    with pytest.raises(ModelFormatError, match=name):
        load_model(_write_doc(tmp_path, _with_array(doc, version, name, bad)))


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "kind, name",
    [("gcm", "vectors"), ("gcm", "likelihoods"), ("mlp", "w_hidden"), ("mlp", "b_output")],
)
def test_non_finite_values_are_rejected(tmp_path, version, value, kind, name):
    doc = _docs_by_version(tmp_path, kind)[version]
    saved = load_model(_write_doc(tmp_path, doc))
    if name == "vectors":
        array = saved.model.vectors.copy()
    elif name == "likelihoods":
        array = saved.params.likelihoods.copy()
    else:
        array = getattr(saved.model, name).copy()
    array.flat[-1] = value
    with pytest.raises(ModelFormatError, match=f"{name}.*non-finite"):
        load_model(_write_doc(tmp_path, _with_array(doc, version, name, array)))


@pytest.mark.parametrize("version", [1, 2])
def test_non_finite_biases_are_rejected(tmp_path, version):
    doc = _docs_by_version(tmp_path, "gcm")[version]
    biases = [list(pair) for pair in doc["params"]["biases"]]
    biases[0][1] = float("nan")
    with pytest.raises(ModelFormatError, match="biases"):
        load_model(_write_doc(tmp_path, dict(doc, params=dict(doc["params"], biases=biases))))


@pytest.mark.parametrize("version", [1, 2])
def test_mlp_needs_a_class(tmp_path, version):
    doc = _docs_by_version(tmp_path, "mlp")[version]
    doc = _with_array(dict(doc, classes=[]), version, "w_output", np.ones((0, 3)))
    doc = _with_array(doc, version, "b_output", np.ones(0))
    with pytest.raises(ModelFormatError, match="classes"):
        load_model(_write_doc(tmp_path, doc))


def test_likelihoods_must_have_one_weight_per_exemplar(tmp_path):
    for version, doc in _docs_by_version(tmp_path, "gcm").items():
        with pytest.raises(ModelFormatError, match="likelihoods"):
            load_model(_write_doc(tmp_path, _with_array(doc, version, "likelihoods", np.ones(8))))


def test_version_must_be_an_integer(tmp_path):
    doc = _saved_doc(tmp_path, save_nn, ExemplarMemory.from_pairs(VECTORS, ["a", "b"]))
    for version in (True, 2.0, "2", None, 3):
        with pytest.raises(ModelFormatError, match="version"):
            load_model(_write_doc(tmp_path, dict(doc, version=version)))


# --------------------------------------------------------------------------
# Size
# --------------------------------------------------------------------------


def test_paper_sized_binary_memory_saves_compact_and_exact(tmp_path):
    # 4,000 pseudo-words of 2-12 phonemes drawn from the bundled inventory,
    # encoded as the lexicon pipeline encodes nouns: 16 slots x 15 binary
    # features, right-justified.  Version 1 wrote about 10 MB for this.
    table = default_feature_table()
    symbols = sorted(table.entries)
    rng = np.random.default_rng(44)
    words = [
        tuple(rng.choice(symbols, size=rng.integers(2, 13)).tolist()) for _ in range(4000)
    ]
    X = np.array([encode_word(w, table) for w in words])
    assert X.shape == (4000, 240) and set(np.unique(X)) == {0.0, 1.0}
    labels = [(IDENT, SUFFIX_EN, UML_REWRITE)[i % 3] for i in range(4000)]
    memory = ExemplarMemory.from_pairs(X, labels)
    path = tmp_path / "nn.json"
    save_nn(memory, path)
    assert path.stat().st_size < 256 * 1024
    Q = np.array([encode_word(w, table) for w in words[:300]]) + 0.0
    Q[::2, ::7] = 1.0 - Q[::2, ::7]
    _assert_same_memory(load_model(path).model, memory)
    want_dec, want_dist = nn_decide_batch(memory, Q)
    got_dec, got_dist = nn_decide_batch(load_model(path).model, Q)
    assert got_dec == want_dec and np.array_equal(got_dist, want_dist)
