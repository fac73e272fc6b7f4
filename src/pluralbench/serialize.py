"""Versioned, binary-free model persistence.

All three classifier families save to the same JSON envelope::

    {"format": "pluralbench-model", "version": 1, "kind": "nn"|"gcm"|"mlp", ...}

Exemplar models store their memory (vectors plus per-exemplar class
indices); the network stores both weight matrices and biases.  Class
labels are stored structurally (kind and phoneme lists for plural
classes, tagged scalars otherwise) so reloading never depends on parsing
display names.  Floats round-trip exactly through JSON's shortest-repr
encoding, so a saved model reproduces its decisions bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classifiers import ExemplarMemory, GcmParams, MlpModel
from .errors import ModelFormatError
from .phonology import PluralClass, _read_utf8

FORMAT_NAME = "pluralbench-model"
FORMAT_VERSION = 1


def _tag_label(label):
    if isinstance(label, PluralClass):
        return {
            "type": "plural_class",
            "kind": label.kind,
            "suffix": list(label.suffix),
            "rewrite_from": list(label.rewrite_from),
            "rewrite_to": list(label.rewrite_to),
        }
    if isinstance(label, (bool, np.bool_)):
        raise ModelFormatError(f"cannot serialize boolean class label {label!r}")
    if isinstance(label, (int, np.integer)):
        return {"type": "int", "value": int(label)}
    if isinstance(label, str):
        return {"type": "str", "value": label}
    raise ModelFormatError(f"cannot serialize class label of type {type(label).__name__}")


def _untag_label(tagged):
    if not isinstance(tagged, dict) or "type" not in tagged:
        raise ModelFormatError(f"malformed class label entry: {tagged!r}")
    kind = tagged["type"]
    if kind == "plural_class":
        return PluralClass(
            kind=tagged["kind"],
            suffix=tuple(tagged["suffix"]),
            rewrite_from=tuple(tagged["rewrite_from"]),
            rewrite_to=tuple(tagged["rewrite_to"]),
        )
    if kind == "int":
        return int(tagged["value"])
    if kind == "str":
        return str(tagged["value"])
    raise ModelFormatError(f"unknown class label type {kind!r}")


def _memory_payload(memory: ExemplarMemory) -> dict:
    classes = list(memory.class_set)
    index = {c: i for i, c in enumerate(classes)}
    return {
        "dim": memory.dim,
        "classes": [_tag_label(c) for c in classes],
        "labels": [index[lab] for lab in memory.labels],
        "vectors": [[float(v) for v in row] for row in memory.vectors],
    }


def _memory_from_payload(payload: dict) -> ExemplarMemory:
    classes = [_untag_label(t) for t in payload["classes"]]
    try:
        labels = [classes[i] for i in payload["labels"]]
    except IndexError:
        raise ModelFormatError("exemplar label index out of range")
    vectors = [np.asarray(row, dtype=float) for row in payload["vectors"]]
    if len(vectors) != len(labels):
        raise ModelFormatError(
            f"{len(vectors)} vectors but {len(labels)} labels in model file"
        )
    return ExemplarMemory.from_pairs(vectors, labels)


@dataclass(frozen=True)
class SavedModel:
    """A deserialized model: ``params`` is set only for kind 'gcm'."""

    kind: str
    model: object  # ExemplarMemory for nn/gcm, MlpModel for mlp
    params: GcmParams | None
    metadata: dict


def _envelope(kind: str, metadata) -> dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": kind,
        "metadata": dict(metadata or {}),
    }


def save_nn(memory: ExemplarMemory, path, metadata=None) -> None:
    doc = _envelope("nn", metadata)
    doc.update(_memory_payload(memory))
    _dump(doc, path)


def save_gcm(memory: ExemplarMemory, params: GcmParams, path, metadata=None) -> None:
    doc = _envelope("gcm", metadata)
    doc.update(_memory_payload(memory))
    if params.biases is None:
        biases = None
    else:
        biases = [[_tag_label(c), float(b)] for c, b in params.biases.items()]
    doc["params"] = {
        "s": float(params.s),
        "p": int(params.p),
        "biases": biases,
        "likelihoods": (
            None
            if params.likelihoods is None
            else [float(w) for w in params.likelihoods]
        ),
    }
    _dump(doc, path)


def save_mlp(model: MlpModel, path, metadata=None) -> None:
    doc = _envelope("mlp", metadata)
    merged = dict(model.metadata)
    merged.update(metadata or {})
    doc["metadata"] = merged
    doc.update(
        {
            "dim": model.input_dim,
            "hidden": model.hidden_count,
            "classes": [_tag_label(c) for c in model.class_set],
            "w_hidden": [[float(v) for v in row] for row in model.w_hidden],
            "b_hidden": [float(v) for v in model.b_hidden],
            "w_output": [[float(v) for v in row] for row in model.w_output],
            "b_output": [float(v) for v in model.b_output],
        }
    )
    _dump(doc, path)


def _dump(doc: dict, path) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    Path(path).write_bytes(text.encode("utf-8"))


def load_model(path) -> SavedModel:
    path = Path(path)
    try:
        text = _read_utf8(path, lambda message, line: ModelFormatError(f"line {line}: {message}"))
        doc = json.loads(text)
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ModelFormatError(f"{path} is not a {FORMAT_NAME} file")
    if doc.get("version") != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {doc.get('version')!r}"
        )
    kind = doc.get("kind")
    metadata = doc.get("metadata") or {}
    try:
        if kind == "nn":
            return SavedModel("nn", _memory_from_payload(doc), None, metadata)
        if kind == "gcm":
            raw = doc["params"]
            raw_biases = raw.get("biases")
            if raw_biases is None:
                biases = None
            else:
                biases = {_untag_label(tag): float(b) for tag, b in raw_biases}
            likelihoods = raw.get("likelihoods")
            params = GcmParams(
                s=raw["s"],
                p=raw["p"],
                biases=biases,
                likelihoods=None if likelihoods is None else np.asarray(likelihoods),
            )
            return SavedModel("gcm", _memory_from_payload(doc), params, metadata)
        if kind == "mlp":
            classes = [_untag_label(t) for t in doc["classes"]]
            model = MlpModel(
                w_hidden=np.asarray(doc["w_hidden"], dtype=float),
                b_hidden=np.asarray(doc["b_hidden"], dtype=float),
                w_output=np.asarray(doc["w_output"], dtype=float),
                b_output=np.asarray(doc["b_output"], dtype=float),
                class_set=classes,
                metadata=metadata,
            )
            if model.w_hidden.shape != (doc["hidden"], doc["dim"]):
                raise ModelFormatError("hidden weight shape disagrees with header")
            if model.w_output.shape != (len(classes), doc["hidden"]):
                raise ModelFormatError("output weight shape disagrees with class set")
            return SavedModel("mlp", model, None, metadata)
    except KeyError as exc:
        raise ModelFormatError(f"model file {path} is missing field {exc}")
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"model file {path} is malformed: {exc}")
    raise ModelFormatError(f"unknown model kind {kind!r} in {path}")
