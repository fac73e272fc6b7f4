"""Versioned model persistence: a JSON envelope with packed float arrays.

All three classifier families save to the same JSON envelope::

    {"format": "pluralbench-model", "version": 2, "kind": "nn"|"gcm"|"mlp", ...}

Exemplar models store their memory (vectors plus per-exemplar class
indices); the network stores both weight matrices and biases.  Class
labels are stored structurally (kind and phoneme lists for plural
classes, tagged scalars otherwise) so reloading never depends on parsing
display names.  Every float array is packed as ``{"dtype": "<f8",
"shape": [...], "data": ...}``, ``data`` being base64 of the
zlib-compressed little-endian float64 bytes, so a saved model reproduces
its decisions bit for bit.  Version 1 files, which held the same arrays
as JSON lists, still load.  In both versions the loader checks every
label index, array shape and value against the header.
"""

from __future__ import annotations

import base64
import json
import math
import zlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .classifiers import ExemplarMemory, GcmParams, MlpModel
from .errors import ModelFormatError
from .phonology import PluralClass, _read_utf8

FORMAT_NAME = "pluralbench-model"
FORMAT_VERSION = 2
_DTYPE = "<f8"


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


def _pack(array) -> dict:
    a = np.ascontiguousarray(array, dtype=_DTYPE)
    data = base64.b64encode(zlib.compress(a.tobytes())).decode("ascii")
    return {"dtype": _DTYPE, "shape": list(a.shape), "data": data}


def _unpack(packed, shape) -> np.ndarray:
    """Decode a packed array, inflating at most the header's ``shape`` worth."""
    if not isinstance(packed, dict) or packed.get("dtype") != _DTYPE:
        raise ValueError(f"dtype must be {_DTYPE!r}")
    if packed.get("shape") != list(shape):
        raise ValueError(f"packed shape {packed.get('shape')} is not the header's {list(shape)}")
    size = 8 * math.prod(shape)
    inflater = zlib.decompressobj()
    data = inflater.decompress(base64.b64decode(packed["data"], validate=True), max(size, 1))
    if len(data) != size or not inflater.eof or inflater.unused_data:
        raise ValueError(f"data is not one complete zlib stream of {size} bytes")
    return np.frombuffer(data, dtype=_DTYPE).reshape(shape).astype(np.float64)


def _array(version: int, raw, shape: tuple, name: str) -> np.ndarray:
    """Field ``name``, a JSON list (version 1) or a packed array (version 2),
    as a finite float64 array of the header's ``shape``."""
    try:
        a = np.asarray(raw, dtype=np.float64) if version == 1 else _unpack(raw, shape)
    except (TypeError, ValueError, zlib.error) as exc:
        raise ModelFormatError(f"field {name!r} is malformed: {exc}") from None
    if a.shape != shape:
        raise ModelFormatError(f"field {name!r} has shape {a.shape}, the header gives {shape}")
    if not np.isfinite(a).all():
        raise ModelFormatError(f"field {name!r} holds a non-finite value")
    return a


def _memory_payload(memory: ExemplarMemory) -> dict:
    return {
        "dim": memory.dim,
        "classes": [_tag_label(c) for c in memory.class_set],
        "labels": memory.label_rank.tolist(),
        "vectors": _pack(memory.vectors),
    }


def _memory_from_payload(payload: dict, array) -> ExemplarMemory:
    classes = [_untag_label(t) for t in payload["classes"]]
    indices = payload["labels"]
    if not isinstance(indices, list) or not all(
        type(i) is int and 0 <= i < len(classes) for i in indices
    ):
        raise ModelFormatError(f"field 'labels' must hold indices into the {len(classes)} classes")
    vectors = array(payload["vectors"], (len(indices), payload["dim"]), "vectors")
    return ExemplarMemory.from_pairs(vectors, [classes[i] for i in indices])


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
        "likelihoods": None if params.likelihoods is None else _pack(params.likelihoods),
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
            "w_hidden": _pack(model.w_hidden),
            "b_hidden": _pack(model.b_hidden),
            "w_output": _pack(model.w_output),
            "b_output": _pack(model.b_output),
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
    version = doc.get("version")
    if type(version) is not int or version not in (1, FORMAT_VERSION):
        raise ModelFormatError(f"unsupported model format version {version!r}")
    kind = doc.get("kind")
    if kind not in ("nn", "gcm", "mlp"):
        raise ModelFormatError(f"unknown model kind {kind!r} in {path}")
    metadata = doc.get("metadata") or {}
    array = partial(_array, version)
    try:
        if kind == "mlp":
            classes = [_untag_label(t) for t in doc["classes"]]
            if not classes:
                raise ModelFormatError("field 'classes' of an mlp model is empty")
            hidden, k = doc["hidden"], len(classes)
            model = MlpModel(
                w_hidden=array(doc["w_hidden"], (hidden, doc["dim"]), "w_hidden"),
                b_hidden=array(doc["b_hidden"], (hidden,), "b_hidden"),
                w_output=array(doc["w_output"], (k, hidden), "w_output"),
                b_output=array(doc["b_output"], (k,), "b_output"),
                class_set=classes,
                metadata=metadata,
            )
            return SavedModel("mlp", model, None, metadata)
        memory = _memory_from_payload(doc, array)
        params = None
        if kind == "gcm":
            raw = doc["params"]
            raw_biases, likelihoods = raw.get("biases"), raw.get("likelihoods")
            params = GcmParams(
                s=raw["s"],
                p=raw["p"],
                biases=None if raw_biases is None else {
                    _untag_label(tag): float(b) for tag, b in raw_biases
                },
                likelihoods=None if likelihoods is None else array(
                    likelihoods, (len(memory),), "likelihoods"
                ),
            )
        return SavedModel(kind, memory, params, metadata)
    except KeyError as exc:
        raise ModelFormatError(f"model file {path} is missing field {exc}")
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"model file {path} is malformed: {exc}")
