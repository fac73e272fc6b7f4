"""The benchmark's workloads: inputs from a seed, one operation, its results.

Every workload runs in a working directory that holds its inputs
(``lexicon.tsv``) and receives its outputs (``out/``, ``models/``), and
every path it hands to pluralbench is relative to that directory, so the
report's config digest and the model files do not depend on where the
checkout lives.  An operation returns the results the correctness check
compares with the values pinned in ``expected.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path

import lexicon

# Seeds are reduced modulo VARIANTS, so every input a seed can select has
# pinned expected results.
VARIANTS = 10

LEXICON = "lexicon.tsv"
OUT = "out"

DATASET_KEYS = (
    "ingested", "after_frequency_filter", "discarded_classes", "non_compound",
    "train", "test", "train_no_default", "default_class",
)
SECTION_KEYS = ("simple_accuracy", "simple_s", "best_hidden", "best_epochs", "best_seed")
HYBRID_KEYS = ("best_s", "best_t", "best_accuracy")

SYNTH_SEEDS = 20
SYNTH_POINTS = 1000
SYNTH_T_GRID = {"start": 0.0, "stop": 5.0, "step": 0.05}  # the synth CLI's default grid

# train then evaluate each model as a hybrid; thresholds are fixed
# distances (nn) and scores (gcm, mlp)
CLI_MODELS = (
    ("nn", [], 3.0),
    ("gcm", ["--scale", "1.45"], 0.5),
    ("mlp", ["--hidden", "20", "--epochs", "3"], 0.5),
)


def input_key(seed: int) -> int:
    return seed % VARIANTS


def _report_results(payload: dict) -> dict:
    """The report values pinned by the correctness check."""
    dataset = payload["dataset"]
    loo = payload["leave_one_out"]
    out = {
        "dataset": {k: dataset[k] for k in DATASET_KEYS},
        "leave_one_out": None if loo is None else loo["accuracy"],
        "classifiers": {},
    }
    for name, section in payload["classifiers"].items():
        row = {k: section[k] for k in SECTION_KEYS if k in section}
        row["hybrid"] = {k: section["hybrid"][k] for k in HYBRID_KEYS if k in section["hybrid"]}
        out["classifiers"][name] = row
    return out


def _run_report(pb, key: int, classifiers=None) -> dict:
    raw = {"lexicon": LEXICON, "output_dir": OUT}
    if classifiers is None:
        raw["split_seed"] = key
    else:
        raw["classifiers"] = classifiers
    report = pb.run_experiment(pb.ExperimentConfig.from_dict(raw))
    return _report_results(report.payload)


class ReportToy:
    name = "report-toy"
    why = ("run_experiment on the bundled toy lexicon, default config (nn, gcm, mlp): "
           "the README quick start, where the MLP sweep dominates")

    def prepare(self, key: int, workdir: Path, src: Path) -> dict:
        shutil.copyfile(src / "pluralbench" / "data" / "toy_lexicon.tsv", workdir / LEXICON)
        return {"lexicon": "bundled toy_lexicon.tsv", "split_seed": key}

    def op(self, pb, key: int) -> dict:
        return _run_report(pb, key)


class ReportPaperMemory:
    name = "report-paper-memory"
    why = ("run_experiment with nn and gcm on a generated 24,640-entry lexicon: "
           "distances, leave-one-out, GCM grids and threshold loops, no MLP")

    def prepare(self, key: int, workdir: Path, src: Path) -> dict:
        n = lexicon.write_lexicon(workdir / LEXICON, key)
        return {"lexicon": f"generated, seed {key}", "entries": n}

    def op(self, pb, key: int) -> dict:
        return _run_report(pb, key, classifiers=["nn", "gcm"])


class SynthSeeds:
    name = "synth-seeds"
    why = ("20 seeds x both presets at 1000 points per class: nn and thresholds on "
           "2-D points, where the per-row tie-break and the taxonomy matrix dominate")

    def prepare(self, key: int, workdir: Path, src: Path) -> dict:
        first = key * SYNTH_SEEDS
        return {"seeds": [first, first + SYNTH_SEEDS - 1], "points_per_class": SYNTH_POINTS}

    def op(self, pb, key: int) -> dict:
        t_grid = pb.expand_grid(SYNTH_T_GRID)
        rows = []
        for seed in range(key * SYNTH_SEEDS, (key + 1) * SYNTH_SEEDS):
            for number, preset in ((1, pb.language_1), (2, pb.language_2)):
                sample = pb.generate_language(preset(seed=seed, points_per_class=SYNTH_POINTS))
                simple, curve, verdict = pb.compare_simple_vs_hybrid(sample, 0, t_grid)
                best_t, best_acc = curve.best()
                interfacial, isolated = pb.regular_taxonomy(sample)
                rows.append({
                    "language": number, "seed": seed, "simple_accuracy": simple,
                    "hybrid_best_t": best_t, "hybrid_best_accuracy": best_acc,
                    "verdict": verdict, "interfacial": interfacial, "isolated": isolated,
                })
        return {"languages": rows}


class CliModels:
    name = "cli-models"
    why = ("CLI train (nn, gcm, short mlp, no default) then evaluate --hybrid-t on the "
           "generated lexicon: the only workload that writes and reads model files")

    def prepare(self, key: int, workdir: Path, src: Path) -> dict:
        n = lexicon.write_lexicon(workdir / LEXICON, key)
        return {"lexicon": f"generated, seed {key}", "entries": n}

    def op(self, pb, key: int) -> dict:
        Path("models").mkdir(exist_ok=True)
        results = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for kind, flags, t in CLI_MODELS:
                model = f"models/{kind}.json"
                self._cli(pb, ["train", LEXICON, "--classifier", kind, "--no-default",
                               "--model-out", model, "--output-dir", OUT, *flags])
                self._cli(pb, ["evaluate", model, "--lexicon", LEXICON, "--hybrid-t", str(t),
                               "--output-dir", f"{OUT}/{kind}"])
        for kind, _, _ in CLI_MODELS:
            evaluation = json.loads(Path(OUT, kind, "evaluation.json").read_text("utf-8"))
            results[kind] = {k: evaluation[k] for k in ("hybrid_t", "test_size", "accuracy")}
        return results

    @staticmethod
    def _cli(pb, argv):
        code = pb.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"pluralbench {' '.join(argv)} exited with {code}")


WORKLOADS = {w.name: w for w in (ReportToy(), ReportPaperMemory(), SynthSeeds(), CliModels())}


def clear_outputs(workdir: Path) -> None:
    """Remove the previous operation's outputs, so each operation writes new
    files: on ext4, truncating a file that holds data waits for its blocks
    to reach the disk, which would time the disk instead of the program."""
    for top in (OUT, "models"):
        shutil.rmtree(workdir / top, ignore_errors=True)


def artifacts(workdir: Path) -> dict[str, tuple[int, str]]:
    """Output files of the last operation: relative path -> (bytes, sha256)."""
    out = {}
    for top in (OUT, "models"):
        root = workdir / top
        if not root.is_dir():
            continue
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            data = path.read_bytes()
            out[path.relative_to(workdir).as_posix()] = (len(data), hashlib.sha256(data).hexdigest())
    return out


def mismatches(actual, expected, where="results") -> list[str]:
    """Where ``actual`` differs from the pinned ``expected`` value."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"
                    f" != {sorted(expected)}"]
        return [m for k in expected for m in mismatches(actual[k], expected[k], f"{where}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: {actual!r} != {expected!r}"]
        return [m for i, (a, e) in enumerate(zip(actual, expected))
                for m in mismatches(a, e, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)) \
            and not isinstance(actual, bool):
        if abs(actual - expected) <= 1e-9 * max(1.0, abs(expected)):
            return []
        return [f"{where}: {actual!r} != {expected!r}"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def normalized(results) -> object:
    """Results as JSON would round-trip them (tuples become lists)."""
    return json.loads(json.dumps(results, ensure_ascii=False))
