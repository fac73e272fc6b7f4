"""Command-line interface.

Subcommands: ``ingest`` (pipeline counts and frequency table), ``encode``
(feature vectors as CSV), ``train`` (fit one classifier, save the model),
``evaluate`` (score a saved model, optionally as a hybrid), ``sweep``
(single-classifier hybrid threshold sweep), ``synth`` (pseudolanguage
presets), and ``report`` (the full experiment).

Settings come from an optional JSON config file plus flags; flags win.
The output directory resolves flag > PLURALBENCH_OUTPUT_DIR environment
variable > config > default.  Exit codes: 0 success, 1 configuration
error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .classifiers import (
    ExemplarMemory,
    GcmParams,
    evaluate as score,
    gcm_decide_batch,
    mlp_decide_batch,
    mlp_train,
    nn_decide_batch,
)
from .dataset import encode_entries
from .errors import (
    ConfigError,
    ExperimentError,
    FeatureTableError,
    LexiconFormatError,
    ModelFormatError,
    PluralbenchError,
    UnknownPhonemeError,
)
from .harness import (
    ExperimentConfig,
    _csv_bytes,
    _lexicon_stages,
    emit_frequency_table,
    expand_grid,
    load_config,
    require_file,
    run_experiment,
    split_lexicon,
)
from .hybrid import HybridConfig, hybrid_decide_batch
from .phonology import default_feature_table, load_feature_table
from .serialize import load_model, save_gcm, save_mlp, save_nn
from .synthetic import compare_simple_vs_hybrid, generate_language, language_1, language_2

OUTPUT_DIR_ENV = "PLURALBENCH_OUTPUT_DIR"

_DATA_ERRORS = (LexiconFormatError, FeatureTableError, UnknownPhonemeError, ModelFormatError)


def _merged_config(args) -> ExperimentConfig:
    """Config file merged with command-line overrides (flags win)."""
    raw = {}
    if getattr(args, "config", None):
        raw = load_config(args.config).__dict__.copy()
        raw["classifiers"] = list(raw["classifiers"])
    overrides = {
        "lexicon": getattr(args, "lexicon", None),
        "feature_table": getattr(args, "feature_table", None),
        "exclusions": getattr(args, "exclusions", None),
        "slots": getattr(args, "slots", None),
        "filter_min_fraction": getattr(args, "min_fraction", None),
        "compound_matching": getattr(args, "compound_matching", None),
        "split_fraction": getattr(args, "fraction", None),
        "split_seed": getattr(args, "split_seed", None),
        "default_class": getattr(args, "default_class", None),
        "output_dir": getattr(args, "output_dir", None) or os.environ.get(OUTPUT_DIR_ENV),
    }
    for key, value in overrides.items():
        if value is not None:
            raw[key] = value
    return ExperimentConfig.from_dict(raw)


def _outdir(config: ExperimentConfig) -> Path:
    path = Path(config.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_table(config: ExperimentConfig):
    if config.feature_table is None:
        return default_feature_table()
    require_file(config.feature_table, "feature table")
    return load_feature_table(config.feature_table)


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def _cmd_ingest(args) -> int:
    config = _merged_config(args)
    table = _load_table(config)
    n_ingested, n_after_exclusions, kept, discarded, non_compound = _lexicon_stages(config, table)
    outdir = _outdir(config)
    rows = emit_frequency_table(kept)
    (outdir / "frequency_table.csv").write_bytes(
        _csv_bytes(["class", "count", "percent"], rows)
    )
    summary = {
        "ingested": n_ingested,
        "after_exclusions": n_after_exclusions,
        "after_frequency_filter": len(kept),
        "discarded_entries": len(discarded),
        "non_compound": len(non_compound),
        "classes": len(rows),
    }
    (outdir / "ingest_summary.json").write_bytes(
        (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode("utf-8")
    )
    for key, value in summary.items():
        print(f"{key}: {value}")
    return 0


def _cmd_encode(args) -> int:
    config = _merged_config(args)
    table = _load_table(config)
    *_, non_compound = _lexicon_stages(config, table)
    encoded = encode_entries(non_compound, table, slots=config.slots)
    outdir = _outdir(config)
    dim = len(encoded[0].vector)
    header = ["source_id", "class"] + [f"f{i}" for i in range(dim)]
    rows = (
        [n.source_id, str(n.label)] + [format(v, "g") for v in n.vector]
        for n in encoded
    )
    out_path = outdir / "encoded.csv"
    out_path.write_bytes(_csv_bytes(header, rows))
    print(f"encoded {len(encoded)} entries ({dim} features) -> {out_path}")
    return 0


def _cmd_train(args) -> int:
    config = _merged_config(args)
    out_path = Path(args.model_out)
    if not out_path.parent.is_dir():
        raise ConfigError(f"--model-out directory does not exist: {out_path.parent}")
    table = _load_table(config)
    *_, non_compound = _lexicon_stages(config, table)
    data = split_lexicon(config, table, non_compound)
    train_set = data.train_no_default if args.no_default else data.train
    metadata = {
        "train_size": len(train_set),
        "split_seed": config.split_seed,
        "includes_default_class": not args.no_default,
    }
    if args.classifier == "nn":
        save_nn(ExemplarMemory.from_encoded(train_set), out_path, metadata)
    elif args.classifier == "gcm":
        if args.scale is None:
            raise ConfigError("gcm training requires --scale")
        params = GcmParams(s=args.scale, p=args.kernel_p)
        save_gcm(ExemplarMemory.from_encoded(train_set), params, out_path, metadata)
    else:
        model = mlp_train(
            train_set, args.hidden, args.epochs, args.seed, args.rate, args.momentum
        )
        save_mlp(model, out_path, metadata)
    print(f"saved {args.classifier} model ({len(train_set)} training items) -> {out_path}")
    return 0


def _decide(saved, vectors):
    if saved.kind == "nn":
        return nn_decide_batch(saved.model, vectors)[0]
    if saved.kind == "gcm":
        return gcm_decide_batch(saved.model, saved.params, vectors)[0]
    return mlp_decide_batch(saved.model, vectors)[0]


def _cmd_evaluate(args) -> int:
    saved = load_model(args.model)
    config = _merged_config(args)
    table = _load_table(config)
    model_width = saved.model.input_dim if saved.kind == "mlp" else saved.model.dim
    width = config.slots * table.feature_count
    if model_width != width:
        raise ModelFormatError(
            f"model {args.model} takes {model_width} features but the lexicon encodes to "
            f"{width} ({config.slots} slots x {table.feature_count} features)"
        )
    *_, non_compound = _lexicon_stages(config, table)
    data = split_lexicon(config, table, non_compound)
    eval_set = data.test
    vectors = [n.vector for n in eval_set]
    if args.hybrid_t is not None:
        try:
            hconfig = HybridConfig(
                base=saved.kind,
                t=args.hybrid_t,
                default_class=data.default_class,
                gcm_params=saved.params,
            )
        except ValueError as exc:
            raise ConfigError(f"--hybrid-t {args.hybrid_t:g} on a {saved.kind} model: {exc}") from exc
        decisions = hybrid_decide_batch(hconfig, saved.model, vectors)
    else:
        decisions = _decide(saved, vectors)
    accuracy, confusion = score(decisions, [n.label for n in eval_set])
    outdir = _outdir(config)
    names = [str(c) for c in confusion.classes]
    conf_rows = ([names[i]] + [int(v) for v in confusion.counts[i]] for i in range(len(names)))
    (outdir / "evaluation_confusion.csv").write_bytes(
        _csv_bytes(["class"] + names, conf_rows)
    )
    result = {
        "model": str(args.model),
        "kind": saved.kind,
        "hybrid_t": args.hybrid_t,
        "test_size": len(eval_set),
        "accuracy": accuracy,
    }
    (outdir / "evaluation.json").write_bytes(
        (json.dumps(result, indent=2, sort_keys=True) + "\n").encode("utf-8")
    )
    print(f"accuracy: {accuracy:.4f} ({saved.kind}, n={len(eval_set)})")
    return 0


def _cmd_sweep(args) -> int:
    config = _merged_config(args)
    config = ExperimentConfig.from_dict(
        dict(config.normalized(), classifiers=[args.base], output_dir=config.output_dir)
    )
    report = run_experiment(config)
    section = report.payload["classifiers"][args.base]
    hybrid = section["hybrid"]
    print(f"simple accuracy: {section['simple_accuracy']:.4f}")
    best_bits = [f"t={hybrid['best_t']:g}"]
    if "best_s" in hybrid:
        best_bits.append(f"s={hybrid['best_s']:g}")
    print(f"best hybrid: {hybrid['best_accuracy']:.4f} ({', '.join(best_bits)})")
    print(f"curve: {Path(config.output_dir) / hybrid['curve_csv']}")
    return 0


def _cmd_synth(args) -> int:
    preset = language_1 if args.language == 1 else language_2
    spec = preset(seed=args.seed, points_per_class=args.points)
    sample = generate_language(spec)
    t_grid = expand_grid({"start": 0.0, "stop": args.t_max, "step": args.t_step})
    simple_acc, curve, verdict = compare_simple_vs_hybrid(sample, args.split_seed, t_grid)
    best_t, best_acc = curve.best()

    outdir = Path(
        args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or "out"
    )
    outdir.mkdir(parents=True, exist_ok=True)
    sample_rows = (
        [format(x, "g"), format(y, "g"), int(lab)]
        for (x, y), lab in zip(sample.coords, sample.labels)
    )
    (outdir / f"language{args.language}_sample.csv").write_bytes(
        _csv_bytes(["x", "y", "class"], sample_rows)
    )
    result = {
        "language": args.language,
        "seed": args.seed,
        "split_seed": args.split_seed,
        "points_per_class": args.points,
        "simple_accuracy": simple_acc,
        "hybrid_best_t": best_t,
        "hybrid_best_accuracy": best_acc,
        "verdict": verdict,
    }
    (outdir / f"language{args.language}_verdict.json").write_bytes(
        (json.dumps(result, indent=2, sort_keys=True) + "\n").encode("utf-8")
    )
    print(
        f"language {args.language}: simple={simple_acc:.4f} "
        f"hybrid={best_acc:.4f} (t={best_t:g}) -> {verdict}"
    )
    return 0


def _cmd_report(args) -> int:
    config = _merged_config(args)
    report = run_experiment(config)
    for row in report.payload["summary"]:
        simple = "NA" if row["simple"] is None else f"{row['simple']:.4f}"
        hybrid = "NA" if row["hybrid"] is None else f"{row['hybrid']:.4f}"
        print(f"{row['classifier']}: simple={simple} hybrid={hybrid}")
    print(f"report: {Path(config.output_dir) / 'report.json'}")
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors, out-of-range flag values included, are configuration
    errors: main reports them with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def _at_least(kind, low, strict=False):
    """argparse type: ``kind(text)`` that is > low if strict, else >= low."""

    def parse(text):
        value = kind(text)
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(f"must be {'>' if strict else '>='} {low}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


_POSITIVE = _at_least(float, 0, strict=True)
_NON_NEGATIVE = _at_least(float, 0)
_COUNT = _at_least(int, 1)
_SEED = _at_least(int, 0)


def _add_pipeline_flags(p: argparse.ArgumentParser, lexicon_flag: bool = False) -> None:
    if lexicon_flag:
        p.add_argument("--lexicon", help="lexicon TSV (overrides config)")
    else:
        p.add_argument("lexicon", nargs="?", default=None, help="lexicon TSV")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--feature-table", help="feature table TSV (default: bundled)")
    p.add_argument("--exclusions", help="exclusion list, one orthography per line")
    p.add_argument("--slots", type=int, help="phoneme slots per word")
    p.add_argument("--min-fraction", type=float, help="type-frequency floor")
    p.add_argument(
        "--compound-matching", choices=["phonemes", "orthography", "off"],
        help="compound-removal matching mode",
    )
    p.add_argument("--fraction", type=float, help="training split fraction")
    p.add_argument("--split-seed", type=int, help="train/test split seed")
    p.add_argument("--default-class", help="default (fallback) class name")
    p.add_argument("--output-dir", help=f"output directory (or ${OUTPUT_DIR_ENV})")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="pluralbench",
        description="Associative and hybrid rule-associative plural-class classifiers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="run the lexicon pipeline and emit counts")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("encode", help="write feature vectors for the pipeline output")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("train", help="train one classifier and save its model")
    _add_pipeline_flags(p)
    p.add_argument("--classifier", choices=["nn", "gcm", "mlp"], required=True)
    p.add_argument("--model-out", required=True, help="model file to write")
    p.add_argument(
        "--no-default", action="store_true",
        help="train without the default class (for hybrid use)",
    )
    p.add_argument("--scale", type=_POSITIVE, help="gcm kernel scale s")
    p.add_argument("--kernel-p", type=int, default=2, choices=[1, 2])
    p.add_argument("--hidden", type=_COUNT, default=50, help="mlp hidden units")
    p.add_argument("--epochs", type=_COUNT, default=40, help="mlp training epochs")
    p.add_argument("--seed", type=_SEED, default=1, help="mlp weight/shuffle seed")
    p.add_argument("--rate", type=_POSITIVE, default=0.25, help="mlp learning rate")
    p.add_argument("--momentum", type=_NON_NEGATIVE, default=0.9, help="mlp momentum")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="score a saved model on the test split")
    p.add_argument("model", help="model file written by 'train'")
    _add_pipeline_flags(p, lexicon_flag=True)
    p.add_argument(
        "--hybrid-t", type=_NON_NEGATIVE, default=None,
        help="evaluate as a hybrid with this threshold",
    )
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="hybrid threshold sweep for one classifier")
    _add_pipeline_flags(p)
    p.add_argument("--base", choices=["nn", "gcm", "mlp"], required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("synth", help="pseudolanguage comparison presets")
    p.add_argument("--language", type=int, choices=[1, 2], required=True)
    p.add_argument("--seed", type=_SEED, default=0, help="sampling seed")
    p.add_argument("--split-seed", type=_SEED, default=0, help="train/test split seed")
    p.add_argument("--points", type=_COUNT, default=200, help="points per class")
    p.add_argument("--t-max", type=float, default=5.0, help="threshold grid upper end")
    p.add_argument("--t-step", type=float, default=0.05, help="threshold grid step")
    p.add_argument("--output-dir", help=f"output directory (or ${OUTPUT_DIR_ENV})")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("report", help="run the full experiment from a config")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.__cause__
        if isinstance(cause, ConfigError):
            return 1
        if isinstance(cause, _DATA_ERRORS):
            return 2
        return 3
    except PluralbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - map anything else to exit 3
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
