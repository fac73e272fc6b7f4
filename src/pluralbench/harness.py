"""Configuration-driven experiment runner.

Chains the full pipeline (ingest, filter, split, train, evaluate, hybrid
sweeps) and writes a deterministic report: a JSON summary plus CSV
artifacts (class frequency table, confusion matrices, sweep curves, the
network hyperparameter sweep).  Reports are byte-identical across runs
with the same config and inputs: every random choice flows from named
seeds and no timestamps or absolute paths are embedded.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, ExperimentError, PluralbenchError
from .classifiers import (
    Confusion,
    ExemplarMemory,
    GcmParams,
    evaluate,
    gcm_decide_batch,
    gcm_optimize_scale,
    mlp_decide_batch,
    mlp_grid_sweep,
    mlp_train,
    nn_decide_batch,
    nn_leave_one_out,
)
from .dataset import (
    DataSplit,
    apply_exclusions,
    encode_entries,
    filter_by_type_frequency,
    ingest,
    load_exclusion_list,
    remove_compounds,
    split,
)
from .hybrid import HybridConfig, grid_search_s_t, threshold_sweep
from .phonology import DEFAULT_SLOTS, default_feature_table, load_feature_table

DEFAULT_NN = {
    "t_grid": {"start": 0.0, "stop": 10.0, "step": 0.05},
    "leave_one_out": True,
}
DEFAULT_GCM = {
    "kernel_p": 2,
    "s_grid": {"start": 1.4, "stop": 1.5, "step": 0.01},
    "hybrid_s_grid": {"start": 1.4, "stop": 1.5, "step": 0.01},
    "t_grid": {"start": 0.0, "stop": 1.0, "step": 0.01},
}
DEFAULT_MLP = {
    "hidden": [10, 20, 30, 40, 50],
    "epochs": {"start": 5, "stop": 50, "step": 5},
    "seeds": [1, 2, 3],
    "rate": 0.25,
    "momentum": 0.9,
    "t_grid": {"start": 0.0, "stop": 1.0, "step": 0.01},
}


def expand_grid(spec) -> list[float]:
    """A grid is either an explicit list or a {start, stop, step} range."""
    if isinstance(spec, (list, tuple)):
        values = [float(v) for v in spec]
        if not values:
            raise ConfigError("grid list must be non-empty")
        return values
    if isinstance(spec, dict):
        try:
            start, stop, step = spec["start"], spec["stop"], spec["step"]
        except KeyError as exc:
            raise ConfigError(f"grid range missing key {exc}")
        if not all(type(v) in (int, float) for v in (start, stop, step)):
            raise ConfigError("grid range start, stop and step must be numbers")
        if step <= 0 or stop < start:
            raise ConfigError("grid range requires step > 0 and stop >= start")
        n = int((stop - start) / step * (1 + 1e-9)) + 1
        return [float(start + i * step) for i in range(n)]
    raise ConfigError(f"cannot interpret grid spec {spec!r}")


def _expand_int_grid(spec) -> list[int]:
    return [int(round(v)) for v in expand_grid(spec)]


# (section, key, expansion, predicate, allowed range) for every grid a
# classifier section holds; a value outside its range is a config error
_GRID_RANGES = (
    ("nn", "t_grid", expand_grid, lambda v: v >= 0, ">= 0"),
    ("gcm", "s_grid", expand_grid, lambda v: v > 0, "> 0"),
    ("gcm", "hybrid_s_grid", expand_grid, lambda v: v > 0, "> 0"),
    ("gcm", "t_grid", expand_grid, lambda v: 0 <= v <= 1, "in [0, 1]"),
    ("mlp", "hidden", _expand_int_grid, lambda v: v >= 1, ">= 1"),
    ("mlp", "epochs", _expand_int_grid, lambda v: v >= 1, ">= 1"),
    ("mlp", "t_grid", expand_grid, lambda v: 0 <= v <= 1, "in [0, 1]"),
)


@dataclass
class ExperimentConfig:
    """Validated experiment settings; see README for the full key set."""

    lexicon: str
    feature_table: str | None = None
    exclusions: str | None = None
    slots: int = DEFAULT_SLOTS
    filter_min_fraction: float = 0.001
    compound_matching: str = "phonemes"  # phonemes | orthography | off
    split_fraction: float = 0.5
    split_seed: int = 0
    stratify: bool = False
    selection: str = "test"  # select hyperparameters on: test | validation
    validation_fraction: float = 0.2
    validation_seed: int = 1
    default_class: str = "+s"
    classifiers: tuple[str, ...] = ("nn", "gcm", "mlp")
    nn: dict = field(default_factory=lambda: dict(DEFAULT_NN))
    gcm: dict = field(default_factory=lambda: dict(DEFAULT_GCM))
    mlp: dict = field(default_factory=lambda: dict(DEFAULT_MLP))
    output_dir: str = "out"

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "lexicon" not in raw or not raw["lexicon"]:
            raise ConfigError("config requires a 'lexicon' path")
        merged = dict(raw)
        for key, defaults in (("nn", DEFAULT_NN), ("gcm", DEFAULT_GCM), ("mlp", DEFAULT_MLP)):
            section = dict(defaults)
            section.update(raw.get(key) or {})
            extra = set(section) - set(defaults)
            if extra:
                raise ConfigError(f"unknown keys in '{key}' section: {sorted(extra)}")
            merged[key] = section
        if "classifiers" in merged:
            if not isinstance(merged["classifiers"], (list, tuple)):
                raise ConfigError("classifiers must be a list of names")
            merged["classifiers"] = tuple(merged["classifiers"])
        cfg = cls(**merged)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.compound_matching not in ("phonemes", "orthography", "off"):
            raise ConfigError("compound_matching must be phonemes|orthography|off")
        if self.selection not in ("test", "validation"):
            raise ConfigError("selection must be 'test' or 'validation'")
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError("split_fraction must lie strictly between 0 and 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError("validation_fraction must lie strictly between 0 and 1")
        if type(self.slots) is not int or self.slots < 1:
            raise ConfigError("slots must be an integer >= 1")
        if type(self.split_seed) is not int or self.split_seed < 0:
            raise ConfigError("split_seed must be a non-negative integer")
        if type(self.validation_seed) is not int or self.validation_seed < 0:
            raise ConfigError("validation_seed must be a non-negative integer")
        if not 0.0 <= self.filter_min_fraction <= 1.0:
            raise ConfigError("filter_min_fraction must lie in [0, 1]")
        if self.gcm["kernel_p"] not in (1, 2):
            raise ConfigError("gcm.kernel_p must be 1 or 2")
        if type(self.mlp["rate"]) not in (int, float) or self.mlp["rate"] <= 0:
            raise ConfigError("mlp.rate must be a positive number")
        if type(self.mlp["momentum"]) not in (int, float) or self.mlp["momentum"] < 0:
            raise ConfigError("mlp.momentum must be a non-negative number")
        seeds = self.mlp["seeds"]
        if not isinstance(seeds, list) or not seeds or any(
            type(v) is not int or v < 0 for v in seeds
        ):
            raise ConfigError("mlp.seeds must be a non-empty list of non-negative integers")
        for section, key, expand, ok, allowed in _GRID_RANGES:
            bad = [v for v in expand(getattr(self, section)[key]) if not ok(v)]
            if bad:
                raise ConfigError(f"{section}.{key} values must be {allowed}, got {bad[0]:g}")
        bad = [c for c in self.classifiers if c not in ("nn", "gcm", "mlp")]
        if bad:
            raise ConfigError(f"unknown classifiers: {bad}")
        if not self.classifiers:
            raise ConfigError("at least one classifier must be selected")

    def normalized(self) -> dict:
        """Config as a plain dict; output_dir excluded (not part of identity)."""
        out = {
            name: getattr(self, name)
            for name in self.__dataclass_fields__
            if name != "output_dir"
        }
        out["classifiers"] = list(self.classifiers)
        return out

    def digest(self) -> str:
        blob = json.dumps(self.normalized(), sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def require_file(path, what: str) -> None:
    """Raise ConfigError unless ``path`` names an existing regular file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{what} file not found: {path}")
    if not path.is_file():
        raise ConfigError(f"{what} is not a file: {path}")


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    require_file(path, "config")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return ExperimentConfig.from_dict(raw)


@dataclass(eq=False)
class Report:
    """Report payload plus the artifact files written next to it."""

    payload: dict
    artifacts: dict[str, str] = field(default_factory=dict)

    def to_json_bytes(self) -> bytes:
        text = json.dumps(self.payload, indent=2, sort_keys=True, ensure_ascii=False)
        return (text + "\n").encode("utf-8")


# --------------------------------------------------------------------------
# Tables
# --------------------------------------------------------------------------


def emit_frequency_table(entries) -> list[tuple[str, int, float]]:
    """(class name, count, percent) rows sorted by count descending."""
    counts = {}
    for e in entries:
        name = str(e.derived_class)
        counts[name] = counts.get(name, 0) + 1
    total = sum(counts.values())
    rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(name, count, 100.0 * count / total) for name, count in rows]


def emit_summary(reports) -> list[tuple[str, float | None, float | None]]:
    """(classifier, simple accuracy, hybrid accuracy) rows across reports.

    Missing cells stay ``None`` (rendered as an explicit ``NA`` marker by
    the CSV writer), never silently dropped.
    """
    cells: dict[str, dict[str, float | None]] = {}
    for report in reports:
        payload = report.payload if isinstance(report, Report) else report
        for name, section in payload.get("classifiers", {}).items():
            entry = cells.setdefault(name, {"simple": None, "hybrid": None})
            if section.get("simple_accuracy") is not None:
                entry["simple"] = section["simple_accuracy"]
            hybrid = section.get("hybrid") or {}
            if hybrid.get("best_accuracy") is not None:
                entry["hybrid"] = hybrid["best_accuracy"]
    order = [c for c in ("nn", "gcm", "mlp") if c in cells]
    order += sorted(set(cells) - set(order))
    return [(name, cells[name]["simple"], cells[name]["hybrid"]) for name in order]


# --------------------------------------------------------------------------
# Artifact writers (all newline='\n' for byte-stable output)
# --------------------------------------------------------------------------


def _csv_bytes(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["NA" if v is None else v for v in row])
    return buf.getvalue().encode("utf-8")


def _write(outdir: Path, name: str, data: bytes) -> str:
    (outdir / name).write_bytes(data)
    return name


def _confusion_rows(confusion: Confusion):
    names = [str(c) for c in confusion.classes]
    for i, name in enumerate(names):
        yield [name] + [int(v) for v in confusion.counts[i]]


def _curve_artifacts(outdir, stem, curve, sidecar_extra):
    curve_name = _write(
        outdir, f"{stem}.csv", _csv_bytes(["t", "accuracy"], curve.points)
    )
    sidecar = {"baseline_accuracy": curve.baseline, "points_file": curve_name}
    sidecar.update(sidecar_extra)
    sidecar_bytes = (
        json.dumps(sidecar, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    ).encode("utf-8")
    _write(outdir, f"{stem}.json", sidecar_bytes)
    return curve_name


# --------------------------------------------------------------------------
# Pipeline
# --------------------------------------------------------------------------


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PluralbenchError as exc:
        raise ExperimentError(name, exc) from exc
    except (ValueError, OSError) as exc:
        raise ExperimentError(name, exc) from exc


def _resolve_default_class(entries, name: str):
    present = {}
    for e in entries:
        present.setdefault(str(e.derived_class), e.derived_class)
    if name not in present:
        raise ConfigError(
            f"default class {name!r} not among dataset classes {sorted(present)}"
        )
    return present[name]


def _selection_sets(config: ExperimentConfig, data: DataSplit):
    """(memory entries, eval set) used for hyperparameter selection.

    ``test`` mirrors the original protocol (select on generalisation to the
    test set); ``validation`` carves a labelled validation share out of the
    training half instead, leaving the test set untouched until final
    evaluation.
    """
    if config.selection == "test":
        return data.train, data.test
    rng = np.random.default_rng(config.validation_seed)
    order = rng.permutation(len(data.train))
    n_val = max(1, round(len(data.train) * config.validation_fraction))
    val_idx = set(order[:n_val].tolist())
    val = [data.train[i] for i in sorted(val_idx)]
    subtrain = [data.train[i] for i in range(len(data.train)) if i not in val_idx]
    return subtrain, val


def _strip_default(nouns, default_class):
    return [n for n in nouns if n.label != default_class]


def _run_nn(config, data, outdir):
    memory_simple = ExemplarMemory.from_encoded(data.train)
    decisions, _ = nn_decide_batch(memory_simple, [n.vector for n in data.test])
    accuracy, confusion = evaluate(decisions, [n.label for n in data.test])
    confusion_csv = _write(
        outdir,
        "nn_confusion.csv",
        _csv_bytes(["class"] + [str(c) for c in confusion.classes], _confusion_rows(confusion)),
    )

    memory_hybrid = ExemplarMemory.from_encoded(data.train_no_default)
    t_grid = expand_grid(config.nn["t_grid"])
    hconfig = HybridConfig(base="nn", t=0.0, default_class=data.default_class)
    curve = threshold_sweep(hconfig, memory_hybrid, data.test, t_grid, baseline=accuracy)
    best_t, best_acc = curve.best()
    curve_csv = _curve_artifacts(
        outdir, "nn_hybrid_curve", curve,
        {"base": "nn", "default_class": str(data.default_class)},
    )
    return {
        "simple_accuracy": accuracy,
        "confusion_csv": confusion_csv,
        "hybrid": {"best_t": best_t, "best_accuracy": best_acc, "curve_csv": curve_csv},
    }


def _run_gcm(config, data, outdir, selection):
    p = int(config.gcm["kernel_p"])
    sel_memory_entries, sel_eval = selection
    s_grid = expand_grid(config.gcm["s_grid"])
    sel_memory = ExemplarMemory.from_encoded(sel_memory_entries)
    best_s, _ = gcm_optimize_scale(sel_memory, sel_eval, p, s_grid)

    memory_simple = ExemplarMemory.from_encoded(data.train)
    params = GcmParams(s=best_s, p=p)
    decisions, _ = gcm_decide_batch(memory_simple, params, [n.vector for n in data.test])
    accuracy, confusion = evaluate(decisions, [n.label for n in data.test])
    confusion_csv = _write(
        outdir,
        "gcm_confusion.csv",
        _csv_bytes(["class"] + [str(c) for c in confusion.classes], _confusion_rows(confusion)),
    )

    t_grid = expand_grid(config.gcm["t_grid"])
    hybrid_s_grid = expand_grid(config.gcm["hybrid_s_grid"])
    sel_memory_nd = ExemplarMemory.from_encoded(
        _strip_default(sel_memory_entries, data.default_class)
    )
    hyb_s, hyb_t, _ = grid_search_s_t(
        sel_memory_nd, sel_eval, hybrid_s_grid, t_grid, data.default_class, p=p
    )
    memory_hybrid = ExemplarMemory.from_encoded(data.train_no_default)
    hconfig = HybridConfig(
        base="gcm", t=0.0, default_class=data.default_class,
        gcm_params=GcmParams(s=hyb_s, p=p),
    )
    curve = threshold_sweep(hconfig, memory_hybrid, data.test, t_grid, baseline=accuracy)
    by_t = dict(curve.points)
    best_acc = by_t[float(hyb_t)]
    curve_csv = _curve_artifacts(
        outdir, "gcm_hybrid_curve", curve,
        {"base": "gcm", "default_class": str(data.default_class),
         "s": hyb_s, "kernel_p": p},
    )
    return {
        "simple_accuracy": accuracy,
        "simple_s": best_s,
        "kernel_p": p,
        "confusion_csv": confusion_csv,
        "hybrid": {
            "best_s": hyb_s, "best_t": hyb_t, "best_accuracy": best_acc,
            "curve_csv": curve_csv,
        },
    }


def _run_mlp(config, data, outdir, selection):
    section = config.mlp
    hidden_grid = _expand_int_grid(section["hidden"])
    epoch_grid = _expand_int_grid(section["epochs"])
    seeds = [int(s) for s in section["seeds"]]
    rate = float(section["rate"])
    momentum = float(section["momentum"])
    sel_memory_entries, sel_eval = selection

    rows, best = mlp_grid_sweep(
        sel_memory_entries, sel_eval, hidden_grid, epoch_grid, seeds, rate, momentum
    )
    sweep_csv = _write(
        outdir, "mlp_sweep.csv",
        _csv_bytes(["hidden", "epochs", "seed", "test_accuracy"], rows),
    )
    best_hidden, best_epochs, best_seed, _ = best

    model = mlp_train(data.train, best_hidden, best_epochs, best_seed, rate, momentum)
    decisions, _ = mlp_decide_batch(model, [n.vector for n in data.test])
    accuracy, confusion = evaluate(decisions, [n.label for n in data.test])
    confusion_csv = _write(
        outdir,
        "mlp_confusion.csv",
        _csv_bytes(["class"] + [str(c) for c in confusion.classes], _confusion_rows(confusion)),
    )

    model_nd = mlp_train(
        data.train_no_default, best_hidden, best_epochs, best_seed, rate, momentum
    )
    t_grid = expand_grid(section["t_grid"])
    hconfig = HybridConfig(base="mlp", t=0.0, default_class=data.default_class)
    curve = threshold_sweep(hconfig, model_nd, data.test, t_grid, baseline=accuracy)
    best_t, best_acc = curve.best()
    curve_csv = _curve_artifacts(
        outdir, "mlp_hybrid_curve", curve,
        {"base": "mlp", "default_class": str(data.default_class),
         "hidden": best_hidden, "epochs": best_epochs, "seed": best_seed},
    )
    return {
        "simple_accuracy": accuracy,
        "best_hidden": best_hidden,
        "best_epochs": best_epochs,
        "best_seed": best_seed,
        "sweep_csv": sweep_csv,
        "confusion_csv": confusion_csv,
        "hybrid": {"best_t": best_t, "best_accuracy": best_acc, "curve_csv": curve_csv},
    }


def run_experiment(config: ExperimentConfig, output_dir=None) -> Report:
    """Execute the full pipeline and write the report and its artifacts.

    ``output_dir`` overrides the config's directory (the CLI also honours
    the PLURALBENCH_OUTPUT_DIR environment variable).  The report payload
    never references the output location, so identical configs and inputs
    give byte-identical reports wherever they are written.
    """
    require_file(config.lexicon, "lexicon")
    if config.feature_table is not None:
        require_file(config.feature_table, "feature table")
    if config.exclusions is not None:
        require_file(config.exclusions, "exclusion list")

    outdir = Path(output_dir if output_dir is not None else config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    if config.feature_table is None:
        table = _stage("load-feature-table", default_feature_table)
    else:
        table = _stage("load-feature-table", load_feature_table, config.feature_table)

    entries = _stage("ingest", ingest, config.lexicon, table)
    n_ingested = len(entries)
    n_excluded = 0
    if config.exclusions is not None:
        exclusions = _stage("load-exclusions", load_exclusion_list, config.exclusions)
        entries = apply_exclusions(entries, exclusions)
        n_excluded = n_ingested - len(entries)

    kept, discarded = _stage(
        "frequency-filter", filter_by_type_frequency, entries, config.filter_min_fraction
    )
    discarded_classes = sorted({str(e.derived_class) for e in discarded})
    frequency_rows = emit_frequency_table(kept)

    if config.compound_matching == "off":
        non_compound = kept
    else:
        non_compound = _stage(
            "remove-compounds", remove_compounds, kept, config.compound_matching
        )

    default_class = _resolve_default_class(non_compound, config.default_class)
    data = _stage(
        "split",
        split,
        non_compound,
        table,
        fraction=config.split_fraction,
        seed=config.split_seed,
        slots=config.slots,
        stratify=config.stratify,
        default_class=default_class,
    )

    loo = None
    if "nn" in config.classifiers and config.nn.get("leave_one_out"):
        encoded_all = encode_entries(kept, table, slots=config.slots)
        loo = {
            "set": "post-frequency-filter",
            "size": len(encoded_all),
            "accuracy": _stage("leave-one-out", nn_leave_one_out, encoded_all),
        }

    selection = _selection_sets(config, data)
    classifier_sections = {}
    for name in config.classifiers:
        if name == "nn":
            classifier_sections["nn"] = _stage("nn", _run_nn, config, data, outdir)
        elif name == "gcm":
            classifier_sections["gcm"] = _stage("gcm", _run_gcm, config, data, outdir, selection)
        else:
            classifier_sections["mlp"] = _stage("mlp", _run_mlp, config, data, outdir, selection)

    payload = {
        "format": "pluralbench-report",
        "version": 1,
        "provenance": {
            "config_sha256": config.digest(),
            "package_version": __version__,
            "split_seed": config.split_seed,
            "selection": config.selection,
        },
        "dataset": {
            "ingested": n_ingested,
            "excluded": n_excluded,
            "after_frequency_filter": len(kept),
            "discarded_classes": discarded_classes,
            "non_compound": len(non_compound),
            "train": len(data.train),
            "test": len(data.test),
            "train_no_default": len(data.train_no_default),
            "default_class": str(default_class),
        },
        "frequency_table": [
            {"class": name, "count": count, "percent": percent}
            for name, count, percent in frequency_rows
        ],
        "leave_one_out": loo,
        "classifiers": classifier_sections,
    }

    report = Report(payload=payload)
    summary_rows = emit_summary([report])
    payload["summary"] = [
        {"classifier": name, "simple": simple, "hybrid": hybrid}
        for name, simple, hybrid in summary_rows
    ]

    report.artifacts["frequency_table.csv"] = _write(
        outdir, "frequency_table.csv",
        _csv_bytes(["class", "count", "percent"], frequency_rows),
    )
    report.artifacts["summary.csv"] = _write(
        outdir, "summary.csv",
        _csv_bytes(["classifier", "simple_accuracy", "hybrid_accuracy"], summary_rows),
    )
    report.artifacts["report.json"] = _write(outdir, "report.json", report.to_json_bytes())
    return report
