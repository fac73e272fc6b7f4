"""Experiment configuration, report assembly, and the full pipeline run."""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from pluralbench.dataset import ingest, remove_compounds, split
from pluralbench.errors import ConfigError, ExperimentError, LexiconFormatError
from pluralbench.harness import (
    DEFAULT_GCM,
    DEFAULT_MLP,
    DEFAULT_NN,
    ExperimentConfig,
    Report,
    _csv_bytes,
    _expand_int_grid,
    _selection_sets,
    emit_frequency_table,
    emit_summary,
    expand_grid,
    load_config,
    run_experiment,
)
from pluralbench.phonology import bundled_data_path, default_feature_table

TOY = str(bundled_data_path("toy_lexicon.tsv"))

SMALL_SECTIONS = {
    "nn": {"t_grid": {"start": 0.0, "stop": 6.0, "step": 0.5}},
    "gcm": {
        "s_grid": [1.0, 2.0],
        "hybrid_s_grid": [1.0, 2.0],
        "t_grid": {"start": 0.0, "stop": 1.0, "step": 0.1},
    },
    "mlp": {"hidden": [8], "epochs": [3, 6], "seeds": [1]},
}


def _small_config(tmp_path, **overrides):
    raw = dict(
        {"lexicon": TOY, "output_dir": str(tmp_path / "out"), "split_seed": 7},
        **SMALL_SECTIONS,
    )
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


# --------------------------------------------------------------------------
# Grids and config
# --------------------------------------------------------------------------


def test_expand_grid_forms():
    assert expand_grid([1, 2.5, 3]) == [1.0, 2.5, 3.0]
    assert expand_grid({"start": 0.0, "stop": 1.0, "step": 0.25}) == [
        0.0, 0.25, 0.5, 0.75, 1.0,
    ]
    assert expand_grid({"start": 5, "stop": 5, "step": 1}) == [5.0]
    assert _expand_int_grid({"start": 5, "stop": 50, "step": 5}) == list(range(5, 51, 5))
    # a range never passes stop
    assert expand_grid({"start": 0, "stop": 1, "step": 0.6}) == [0.0, 0.6]
    assert expand_grid({"start": 0.0, "stop": 0.35, "step": 0.1}) == [
        0.0, 0.1, 0.2, 0.30000000000000004,
    ]


def test_default_grids_keep_their_values():
    def points(start, step, n):
        return [start + i * step for i in range(n)]

    assert expand_grid(DEFAULT_NN["t_grid"]) == points(0.0, 0.05, 201)
    assert expand_grid(DEFAULT_NN["t_grid"])[3] == 0.15000000000000002
    assert expand_grid(DEFAULT_GCM["s_grid"]) == points(1.4, 0.01, 11)
    assert expand_grid(DEFAULT_GCM["hybrid_s_grid"]) == points(1.4, 0.01, 11)
    assert expand_grid(DEFAULT_GCM["t_grid"]) == points(0.0, 0.01, 101)
    assert expand_grid(DEFAULT_MLP["t_grid"]) == points(0.0, 0.01, 101)
    assert _expand_int_grid(DEFAULT_MLP["epochs"]) == list(range(5, 51, 5))
    # the synth command's default threshold grid
    assert expand_grid({"start": 0.0, "stop": 5.0, "step": 0.05}) == points(0.0, 0.05, 101)


@pytest.mark.parametrize(
    "spec",
    [[], {"start": 0.0, "stop": 1.0}, {"start": 0, "stop": 1, "step": 0},
     {"start": 2, "stop": 1, "step": 1}, "0:1:0.1",
     {"start": False, "stop": 1, "step": 0.5}, {"start": 0, "stop": True, "step": 0.5},
     {"start": 0, "stop": 1, "step": True}, {"start": "0", "stop": 1, "step": 0.5}],
)
def test_expand_grid_rejects(spec):
    with pytest.raises(ConfigError):
        expand_grid(spec)


def test_config_defaults_and_sections():
    config = ExperimentConfig.from_dict({"lexicon": TOY})
    assert config.slots == 16
    assert config.split_fraction == 0.5
    assert config.classifiers == ("nn", "gcm", "mlp")
    assert config.nn == DEFAULT_NN
    assert config.gcm == DEFAULT_GCM
    assert config.mlp == DEFAULT_MLP
    partial = ExperimentConfig.from_dict({"lexicon": TOY, "mlp": {"hidden": [5]}})
    assert partial.mlp["hidden"] == [5]
    assert partial.mlp["seeds"] == DEFAULT_MLP["seeds"]  # untouched defaults remain


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"lexicon": TOY, "lexicon_path": "x"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"lexicon": TOY, "gcm": {"sigma": 1.0}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({})


@pytest.mark.parametrize(
    "overrides",
    [
        {"compound_matching": "fuzzy"},
        {"selection": "oracle"},
        {"split_fraction": 1.0},
        {"validation_fraction": 0.0},
        {"slots": 0},
        {"filter_min_fraction": 1.5},
        {"classifiers": ["nn", "tree"]},
        {"classifiers": []},
    ],
)
def test_config_validate_rejects(overrides):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"lexicon": TOY, **overrides})


def test_digest_ignores_output_dir():
    a = ExperimentConfig.from_dict({"lexicon": TOY, "output_dir": "one"})
    b = ExperimentConfig.from_dict({"lexicon": TOY, "output_dir": "two"})
    c = ExperimentConfig.from_dict({"lexicon": TOY, "split_seed": 9})
    assert "output_dir" not in a.normalized()
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_load_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"lexicon": TOY, "split_seed": 3}), encoding="utf-8")
    config = load_config(path)
    assert config.split_seed == 3
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("{broken", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


# --------------------------------------------------------------------------
# Tables
# --------------------------------------------------------------------------


def test_frequency_table_on_toy_lexicon():
    entries = ingest(TOY, default_feature_table())
    rows = emit_frequency_table(entries)
    assert rows[0] == ("+ən", 62, pytest.approx(100 * 62 / 212))
    assert [r[0] for r in rows[:5]] == ["+ən", "Identity", "+n", "+ə", "+s"]
    assert sum(r[1] for r in rows) == 212
    assert sum(r[2] for r in rows) == pytest.approx(100.0)
    counts = [r[1] for r in rows]
    assert counts == sorted(counts, reverse=True)


def test_emit_summary_orders_and_merges():
    first = Report(payload={"classifiers": {"mlp": {"simple_accuracy": 0.8}}})
    second = {
        "classifiers": {
            "nn": {"simple_accuracy": 0.7, "hybrid": {"best_accuracy": 0.65}},
            "zzz": {"simple_accuracy": 0.5},
        }
    }
    rows = emit_summary([first, second])
    assert rows == [
        ("nn", 0.7, 0.65),
        ("mlp", 0.8, None),   # hybrid cell missing: explicit None, not dropped
        ("zzz", 0.5, None),
    ]


def test_csv_bytes_format():
    data = _csv_bytes(["a", "b"], [[1, None], ["x,y", 2.5]])
    assert data == b'a,b\n1,NA\n"x,y",2.5\n'


# --------------------------------------------------------------------------
# Full pipeline
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def toy_report(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("run")
    config = _small_config(tmp_path)
    return config, run_experiment(config), tmp_path


def test_run_experiment_dataset_counts(toy_report):
    _, report, _ = toy_report
    dataset = report.payload["dataset"]
    assert dataset["ingested"] == 212
    assert dataset["excluded"] == 0
    assert dataset["after_frequency_filter"] == 212
    assert dataset["discarded_classes"] == []
    assert dataset["non_compound"] == 207
    assert dataset["train"] + dataset["test"] == 207
    assert dataset["default_class"] == "+s"
    assert dataset["train_no_default"] <= dataset["train"]


def test_run_experiment_sections_and_summary_agree(toy_report):
    _, report, _ = toy_report
    payload = report.payload
    assert set(payload["classifiers"]) == {"nn", "gcm", "mlp"}
    by_name = {row["classifier"]: row for row in payload["summary"]}
    for name, section in payload["classifiers"].items():
        assert by_name[name]["simple"] == section["simple_accuracy"]
        assert by_name[name]["hybrid"] == section["hybrid"]["best_accuracy"]
    loo = payload["leave_one_out"]
    assert loo["size"] == 212 and 0.0 <= loo["accuracy"] <= 1.0
    assert payload["provenance"]["split_seed"] == 7
    gcm = payload["classifiers"]["gcm"]
    assert gcm["simple_s"] in (1.0, 2.0)
    assert gcm["hybrid"]["best_s"] in (1.0, 2.0)


def test_run_experiment_artifacts(toy_report):
    config, report, tmp_path = toy_report
    outdir = tmp_path / "out"
    expected = {
        "frequency_table.csv", "summary.csv", "report.json",
        "nn_confusion.csv", "gcm_confusion.csv", "mlp_confusion.csv",
        "nn_hybrid_curve.csv", "nn_hybrid_curve.json",
        "gcm_hybrid_curve.csv", "gcm_hybrid_curve.json",
        "mlp_hybrid_curve.csv", "mlp_hybrid_curve.json",
        "mlp_sweep.csv",
    }
    assert {p.name for p in outdir.iterdir()} == expected
    text = (outdir / "report.json").read_text(encoding="utf-8")
    assert str(tmp_path) not in text  # no absolute paths embedded
    assert json.loads(text)["provenance"]["config_sha256"] == config.digest()
    sweep = (outdir / "mlp_sweep.csv").read_text(encoding="utf-8").splitlines()
    assert sweep[0] == "hidden,epochs,seed,test_accuracy"
    assert len(sweep) == 1 + 2  # one hidden count x two epoch marks x one seed


def test_run_experiment_matches_golden_toy_digests(tmp_path, monkeypatch):
    """The small toy config at split seed 7 reproduces the recorded
    artifact bytes.  Relative paths keep the config digest, and so
    report.json, independent of where the test runs."""
    golden = json.loads(
        (Path(__file__).parent / "golden" / "toy_digests.json").read_text(encoding="utf-8")
    )
    shutil.copy(TOY, tmp_path / "toy_lexicon.tsv")
    monkeypatch.chdir(tmp_path)
    run_experiment(ExperimentConfig.from_dict(
        {"lexicon": "toy_lexicon.tsv", "output_dir": "out", "split_seed": 7, **SMALL_SECTIONS}
    ))
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in Path("out").iterdir()
    }
    differing = sorted(
        name for name in set(golden) | set(digests) if golden.get(name) != digests.get(name)
    )
    assert not differing, f"artifacts differing from tests/golden/toy_digests.json: {differing}"


def test_run_experiment_subset_of_classifiers(tmp_path):
    config = _small_config(tmp_path, classifiers=["nn"])
    report = run_experiment(config)
    assert set(report.payload["classifiers"]) == {"nn"}
    assert [row["classifier"] for row in report.payload["summary"]] == ["nn"]


def test_run_experiment_validation_selection(tmp_path):
    config = _small_config(tmp_path, classifiers=["gcm"], selection="validation")
    report = run_experiment(config)
    assert report.payload["provenance"]["selection"] == "validation"
    assert report.payload["classifiers"]["gcm"]["simple_s"] in (1.0, 2.0)


def test_validation_selection_partitions_the_training_half(tmp_path):
    config = _small_config(tmp_path, selection="validation", validation_fraction=0.25)
    table = default_feature_table()
    data = split(remove_compounds(ingest(TOY, table)), table, seed=config.split_seed)
    memory, validation = _selection_sets(config, data)
    memory_ids = {n.source_id for n in memory}
    validation_ids = {n.source_id for n in validation}
    assert len(validation) == round(0.25 * len(data.train))
    assert not memory_ids & validation_ids
    assert memory_ids | validation_ids == {n.source_id for n in data.train}
    assert len(memory) + len(validation) == len(data.train)


def test_run_experiment_config_errors(tmp_path):
    config = _small_config(tmp_path, lexicon=str(tmp_path / "absent.tsv"))
    with pytest.raises(ConfigError):
        run_experiment(config)
    config = _small_config(tmp_path, default_class="+qq")
    with pytest.raises(ConfigError):
        run_experiment(config)


def test_run_experiment_wraps_data_errors(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("Hund\th ʊ n t\n", encoding="utf-8")  # two columns
    config = _small_config(tmp_path, lexicon=str(bad))
    with pytest.raises(ExperimentError) as err:
        run_experiment(config)
    assert err.value.stage == "ingest"
    assert isinstance(err.value.__cause__, LexiconFormatError)
