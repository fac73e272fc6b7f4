"""Model persistence: JSON envelopes round-trip decisions bit for bit."""

import json

import numpy as np
import pytest

from pluralbench.classifiers import (
    ExemplarMemory,
    GcmParams,
    gcm_classify,
    mlp_decide_batch,
    mlp_train,
    nn_decide_batch,
)
from pluralbench.dataset import EncodedNoun
from pluralbench.errors import ModelFormatError
from pluralbench.phonology import PluralClass
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
