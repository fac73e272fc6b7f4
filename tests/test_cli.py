"""End-to-end command-line behaviour and exit-code mapping."""

import json
from pathlib import Path

import pytest

from pluralbench.cli import OUTPUT_DIR_ENV, main
from pluralbench.dataset import filter_by_type_frequency, ingest, remove_compounds, split
from pluralbench.phonology import bundled_data_path, default_feature_table

TOY = str(bundled_data_path("toy_lexicon.tsv"))
FEATURE_TABLE = bundled_data_path("feature_table.tsv")

SMALL_CONFIG = {
    "lexicon": TOY,
    "nn": {"t_grid": {"start": 0.0, "stop": 6.0, "step": 0.5}},
    "gcm": {
        "s_grid": [1.0, 2.0],
        "hybrid_s_grid": [1.0, 2.0],
        "t_grid": {"start": 0.0, "stop": 1.0, "step": 0.1},
    },
    "mlp": {"hidden": [8], "epochs": [3], "seeds": [1]},
}


def _write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**SMALL_CONFIG, **overrides}), encoding="utf-8")
    return str(path)


def test_ingest(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["ingest", TOY, "--output-dir", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "ingested: 212" in printed
    assert "non_compound: 207" in printed
    summary = json.loads((out / "ingest_summary.json").read_text(encoding="utf-8"))
    assert summary == {
        "ingested": 212,
        "after_exclusions": 212,
        "after_frequency_filter": 212,
        "discarded_entries": 0,
        "non_compound": 207,
        "classes": 15,
    }
    table = (out / "frequency_table.csv").read_text(encoding="utf-8").splitlines()
    assert table[0] == "class,count,percent"
    assert table[1].startswith("+ən,62,")


def test_encode(tmp_path):
    out = tmp_path / "out"
    assert main(["encode", TOY, "--output-dir", str(out)]) == 0
    lines = (out / "encoded.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 207
    header = lines[0].split(",")
    assert header[:2] == ["source_id", "class"]
    assert len(header) == 2 + 240


def test_train_and_evaluate_each_kind(tmp_path, capsys):
    out = tmp_path / "out"
    cases = [
        (["--classifier", "nn"], "nn.json"),
        (["--classifier", "gcm", "--scale", "1.5"], "gcm.json"),
        (["--classifier", "mlp", "--hidden", "6", "--epochs", "2", "--seed", "1"], "mlp.json"),
    ]
    for extra, name in cases:
        model = tmp_path / name
        assert main(["train", TOY, "--model-out", str(model), *extra]) == 0
        assert model.exists()
        code = main(["evaluate", str(model), "--lexicon", TOY, "--output-dir", str(out)])
        assert code == 0
        result = json.loads((out / "evaluation.json").read_text(encoding="utf-8"))
        assert result["kind"] == name.removesuffix(".json")
        assert 0.0 <= result["accuracy"] <= 1.0
        assert result["test_size"] == 103
        assert (out / "evaluation_confusion.csv").exists()
    assert "accuracy:" in capsys.readouterr().out


def test_evaluate_hybrid_threshold(tmp_path):
    model = tmp_path / "nn.json"
    out = tmp_path / "out"
    assert main(["train", TOY, "--model-out", str(model), "--classifier", "nn",
                 "--no-default"]) == 0
    assert main(["evaluate", str(model), "--lexicon", TOY, "--output-dir", str(out),
                 "--hybrid-t", "0.0"]) == 0
    result = json.loads((out / "evaluation.json").read_text(encoding="utf-8"))
    assert result["hybrid_t"] == 0.0
    # t = 0 sends every item to the default rule: accuracy is the +s share
    table = default_feature_table()
    kept, _ = filter_by_type_frequency(ingest(TOY, table))
    data = split(remove_compounds(kept), table, fraction=0.5, seed=0)
    share = sum(n.label == data.default_class for n in data.test) / len(data.test)
    assert result["accuracy"] == pytest.approx(share)


def test_sweep(tmp_path, capsys):
    out = tmp_path / "out"
    config = _write_config(tmp_path)
    code = main(["sweep", "--config", config, "--base", "nn", "--output-dir", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "simple accuracy:" in printed and "best hybrid:" in printed
    assert (out / "nn_hybrid_curve.csv").exists()


def test_synth(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["synth", "--language", "2", "--output-dir", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "hybrid-wins" in printed
    verdict = json.loads((out / "language2_verdict.json").read_text(encoding="utf-8"))
    assert verdict["verdict"] == "hybrid-wins"
    assert verdict["hybrid_best_accuracy"] > verdict["simple_accuracy"]
    sample = (out / "language2_sample.csv").read_text(encoding="utf-8").splitlines()
    assert len(sample) == 1 + 5 * 200
    assert sample[0] == "x,y,class"


def test_report_with_flag_override(tmp_path, capsys):
    out = tmp_path / "out"
    config = _write_config(tmp_path, split_seed=3)
    code = main(["report", "--config", config, "--split-seed", "5",
                 "--output-dir", str(out)])
    assert code == 0
    payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert payload["provenance"]["split_seed"] == 5  # flag beats config file
    printed = capsys.readouterr().out
    assert "nn: simple=" in printed and "report:" in printed


def test_output_dir_environment_variable(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_dir))
    assert main(["ingest", TOY]) == 0
    assert (env_dir / "ingest_summary.json").exists()
    flag_dir = tmp_path / "from_flag"
    assert main(["ingest", TOY, "--output-dir", str(flag_dir)]) == 0
    assert (flag_dir / "ingest_summary.json").exists()


def test_exit_code_1_config_errors(tmp_path, capsys):
    assert main(["ingest", str(tmp_path / "absent.tsv"), "--output-dir",
                 str(tmp_path / "out")]) == 1
    assert "error:" in capsys.readouterr().err
    model = tmp_path / "gcm.json"
    assert main(["train", TOY, "--model-out", str(model), "--classifier", "gcm"]) == 1
    assert "--scale" in capsys.readouterr().err
    assert main(["ingest"]) == 1  # no lexicon from flag or config


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"mlp": {**SMALL_CONFIG["mlp"], "rate": 0}}, "mlp.rate"),
        ({"mlp": {**SMALL_CONFIG["mlp"], "momentum": -0.5}}, "mlp.momentum"),
        ({"gcm": {**SMALL_CONFIG["gcm"], "kernel_p": 3}}, "kernel_p"),
        ({"split_seed": -1}, "split_seed"),
        ({"slots": 2.5}, "slots"),
        ({"slots": "5"}, "slots"),
        ({"classifiers": "nn"}, "classifiers must be a list"),
        ({"mlp": {**SMALL_CONFIG["mlp"], "hidden": [8, 0]}}, "mlp.hidden"),
        ({"mlp": {**SMALL_CONFIG["mlp"], "epochs": [0]}}, "mlp.epochs"),
        ({"gcm": {**SMALL_CONFIG["gcm"], "s_grid": [0]}}, "gcm.s_grid"),
        ({"gcm": {**SMALL_CONFIG["gcm"], "hybrid_s_grid": [1.0, -2.0]}}, "gcm.hybrid_s_grid"),
        ({"selection": "validation", "validation_seed": -1}, "validation_seed"),
        ({"nn": {"t_grid": [-1]}}, "nn.t_grid"),
        ({"gcm": {**SMALL_CONFIG["gcm"], "t_grid": [2]}}, "gcm.t_grid"),
        ({"mlp": {**SMALL_CONFIG["mlp"], "t_grid": [0.5, 1.5]}}, "mlp.t_grid"),
        ({"mlp": {**SMALL_CONFIG["mlp"], "seeds": [-1]}}, "mlp.seeds"),
        ({"mlp": {**SMALL_CONFIG["mlp"], "seeds": [1.5]}}, "mlp.seeds"),
        ({"mlp": {**SMALL_CONFIG["mlp"], "seeds": [True]}}, "mlp.seeds"),
        ({"mlp": {**SMALL_CONFIG["mlp"], "seeds": []}}, "mlp.seeds"),
    ],
)
def test_exit_code_1_invalid_config_values(tmp_path, capsys, overrides, message):
    config = _write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main(["report", "--config", config, "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert not (out / "report.json").exists()


def test_exit_code_2_data_errors(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("Hund\th ʊ n t\n", encoding="utf-8")
    assert main(["ingest", str(bad), "--output-dir", str(tmp_path / "out")]) == 2
    assert "line 1" in capsys.readouterr().err
    corrupt = tmp_path / "model.json"
    corrupt.write_text("{}", encoding="utf-8")
    assert main(["evaluate", str(corrupt), "--lexicon", TOY,
                 "--output-dir", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("command", ["ingest", "encode", "report"])
@pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
def test_exit_code_2_empty_lexicon(tmp_path, capsys, command, text):
    lexicon = tmp_path / "empty.tsv"
    lexicon.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, str(lexicon), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(lexicon) in err and "no entries" in err and "internal error" not in err
    assert not (out / "report.json").exists()


def test_exit_code_1_filter_leaves_no_entries(tmp_path, capsys):
    # no toy class reaches half of the lexicon
    out = tmp_path / "out"
    assert main(["report", TOY, "--min-fraction", "0.5", "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "type-frequency filter left no entries" in err and "--min-fraction" in err
    assert not (out / "report.json").exists()


@pytest.fixture(scope="module")
def toy_models(tmp_path_factory):
    """Toy nn and gcm models trained without the default class."""
    root = tmp_path_factory.mktemp("models")
    models = {}
    for kind, extra in (("nn", []), ("gcm", ["--scale", "1.5"])):
        models[kind] = str(root / f"{kind}.json")
        argv = ["train", TOY, "--model-out", models[kind], "--classifier", kind, "--no-default"]
        assert main(argv + extra) == 0
    return models


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", TOY, "--classifier", "gcm", "--scale", "0"], "--scale"),
        (["train", TOY, "--classifier", "mlp", "--hidden", "0"], "--hidden"),
        (["synth", "--language", "1", "--points", "0"], "--points"),
        (["evaluate", "{nn}", "--lexicon", TOY, "--hybrid-t", "-1"], "--hybrid-t"),
        (["evaluate", "{gcm}", "--lexicon", TOY, "--hybrid-t", "2"], "--hybrid-t"),
    ],
)
def test_exit_code_1_out_of_range_flags(tmp_path, capsys, toy_models, argv, message):
    argv = [a.format(**toy_models) for a in argv]
    if argv[0] == "train":
        argv += ["--model-out", str(tmp_path / "model.json")]
    out = tmp_path / "out"
    assert main(argv + ["--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and message in err and "internal error" not in err
    assert not out.exists() and not (tmp_path / "model.json").exists()


def test_exit_code_1_missing_model_out_directory(tmp_path, capsys):
    model = tmp_path / "absent" / "m.json"
    assert main(["train", TOY, "--model-out", str(model), "--classifier", "nn"]) == 1
    err = capsys.readouterr().err
    assert "--model-out" in err and "internal error" not in err
    assert not model.parent.exists()


@pytest.mark.parametrize("kind", ["nn", "gcm"])
def test_exit_code_2_model_width_mismatch(tmp_path, capsys, toy_models, kind):
    # the toy models were trained at the default 16 slots: 240 features
    out = tmp_path / "out"
    argv = ["evaluate", toy_models[kind], "--lexicon", TOY, "--slots", "12"]
    assert main(argv + ["--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "240" in err and "180" in err and "internal error" not in err
    assert not out.exists()


def test_exit_code_2_invalid_utf8_lexicon(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    # line 3 spells "Tür" in Latin-1, which is not UTF-8
    bad.write_bytes("Frau\tf r aʊ\tf r aʊ ə n\n# note\n".encode("utf-8")
                    + "Tür\tt yː r\tt yː r ə n\n".encode("latin-1", errors="replace"))
    assert main(["ingest", str(bad), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "UTF-8" in err and "internal error" not in err


@pytest.mark.parametrize("command", ["ingest", "report"])
def test_exit_code_2_invalid_utf8_exclusion_list(tmp_path, capsys, command):
    exclusions = tmp_path / "exclusions.txt"
    # line 3 spells "Tür" in Latin-1, which is not UTF-8
    exclusions.write_bytes(b"Hund\n# note\n" + "Tür\n".encode("latin-1"))
    argv = [command, TOY, "--exclusions", str(exclusions), "--output-dir", str(tmp_path / "out")]
    if command == "report":
        argv += ["--config", _write_config(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "UTF-8" in err and "internal error" not in err


def test_exit_code_2_invalid_utf8_feature_table(tmp_path, capsys):
    table = tmp_path / "table.tsv"
    # line 2 is a comment ending in a Latin-1 byte, which is not UTF-8
    table.write_bytes(b"# table\n# caf\xe9\n" + FEATURE_TABLE.read_bytes())
    argv = ["ingest", TOY, "--feature-table", str(table), "--output-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "UTF-8" in err and "internal error" not in err


def test_exit_code_2_invalid_utf8_model_file(tmp_path, capsys, toy_models):
    model = tmp_path / "model.json"
    model.write_bytes(Path(toy_models["nn"]).read_bytes() + b"\xff")
    out = tmp_path / "out"
    assert main(["evaluate", str(model), "--lexicon", TOY, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "UTF-8" in err and "internal error" not in err
    assert not out.exists()


def test_utf8_bom_inputs_read_as_without_it(tmp_path):
    bom = b"\xef\xbb\xbf"
    lexicon, table, exclusions = tmp_path / "lex.tsv", tmp_path / "table.tsv", tmp_path / "ex.txt"
    lexicon.write_bytes(bom + Path(TOY).read_bytes())
    table.write_bytes(bom + FEATURE_TABLE.read_bytes())
    exclusions.write_bytes(bom + b"Frau\n")  # the toy lexicon's first entry
    outputs = {}
    for name, files in (("plain", (TOY, FEATURE_TABLE)), ("bom", (lexicon, table))):
        out = tmp_path / name
        argv = ["encode", str(files[0]), "--feature-table", str(files[1])]
        assert main(argv + ["--exclusions", str(exclusions), "--output-dir", str(out)]) == 0
        outputs[name] = (out / "encoded.csv").read_bytes()
    assert outputs["bom"] == outputs["plain"]
    assert b"\nFrau," not in outputs["plain"]


def test_exit_code_1_invalid_utf8_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(json.dumps(SMALL_CONFIG).encode("utf-8")[:-1] + b', "x": "\xff"}')
    assert main(["report", "--config", str(config), "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "UTF-8" in err and "internal error" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "{dir}"],
        ["report", "{dir}", "--config", "{config}"],
        ["ingest", TOY, "--feature-table", "{dir}"],
        ["ingest", TOY, "--exclusions", "{dir}"],
        ["report", TOY, "--exclusions", "{dir}", "--config", "{config}"],
        ["report", "--config", "{dir}"],
    ],
)
def test_exit_code_1_directory_as_input_file(tmp_path, capsys, argv):
    directory = tmp_path / "inputs"
    directory.mkdir()
    argv = [a.format(dir=directory, config=_write_config(tmp_path)) for a in argv]
    out = tmp_path / "out"
    assert main(argv + ["--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "not a file" in err and "internal error" not in err
    assert not (out / "report.json").exists()


def test_exit_code_3_internal_errors(tmp_path, capsys, monkeypatch):
    # an unexpected failure inside a stage is neither a config nor a data error
    def fail(*args, **kwargs):
        raise ValueError("unexpected")

    monkeypatch.setattr("pluralbench.harness.gcm_optimize_scale", fail)
    config = _write_config(tmp_path, classifiers=["gcm"])
    code = main(["report", "--config", config, "--output-dir", str(tmp_path / "out")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("pluralbench ")
