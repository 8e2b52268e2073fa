"""End-to-end command-line tests on a miniature world: every subcommand,
config layering, output artifacts, idempotence, and stable exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gradedit
from gradedit.cli import main
from gradedit.mlp import forward, init_mlp, load_model, save_model
from gradedit.ndops import make_rng

WORLD_CFG = {
    "num_entities": 6,
    "num_relations": 2,
    "num_classes": 5,
    "feature_dim": 12,
    "paraphrases_per_fact": 3,
    "pretrain_per_fact": 20,
    "records_per_fact": 2,
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data -> pretrain -> train-editor, shared by the tests below."""
    root = tmp_path_factory.mktemp("cli")
    world_cfg = root / "world.json"
    world_cfg.write_text(json.dumps(WORLD_CFG))
    assert main(["gen-data", "--config", str(world_cfg), "--out-dir", str(root)]) == 0

    pretrain_cfg = root / "pretrain.json"
    pretrain_cfg.write_text(json.dumps({"hidden_dims": [16], "epochs": 60}))
    assert main([
        "pretrain", "--config", str(pretrain_cfg),
        "--dataset", str(root / "dataset.jsonl"), "--out-dir", str(root),
    ]) == 0

    train_cfg = root / "train.json"
    train_cfg.write_text(json.dumps({"max_steps": 5, "batch_size": 2, "eval_every": 0}))
    assert main([
        "train-editor", "--config", str(train_cfg),
        "--dataset", str(root / "dataset.jsonl"),
        "--model", str(root / "model.json"), "--out-dir", str(root),
    ]) == 0
    return root


def test_gen_data_outputs(pipeline):
    assert (pipeline / "dataset.jsonl").exists()
    summary = json.loads((pipeline / "dataset_summary.json").read_text())
    assert summary["num_facts"] == 12
    assert summary["edit_train_records"] + summary["edit_test_records"] == 24
    snap = json.loads((pipeline / "gen_data_config.json").read_text())
    assert snap["num_entities"] == 6


def test_gen_data_is_idempotent(pipeline, tmp_path):
    cfg = tmp_path / "world.json"
    cfg.write_text(json.dumps(WORLD_CFG))
    assert main(["gen-data", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    assert (
        (tmp_path / "dataset.jsonl").read_bytes()
        == (pipeline / "dataset.jsonl").read_bytes()
    )


def test_pretrain_outputs(pipeline):
    assert (pipeline / "model.json").exists()
    summary = json.loads((pipeline / "pretrain_summary.json").read_text())
    assert summary["accuracy"] > 0.8


def test_train_editor_outputs(pipeline):
    assert (pipeline / "editor.json").exists()
    log_lines = (pipeline / "train_log.jsonl").read_text().splitlines()
    assert len(log_lines) == 5
    entry = json.loads(log_lines[0])
    assert {"step", "l_e", "l_loc", "l_total"} <= set(entry)
    snap = json.loads((pipeline / "train_editor_config.json").read_text())
    assert snap["variant"] == "full"
    assert snap["max_steps"] == 5


def test_edit_command(pipeline, tmp_path):
    dataset = (pipeline / "dataset.jsonl").read_text().splitlines()
    record = next(
        json.loads(line) for line in dataset[1:]
        if json.loads(line)["split"] == "edit_test"
    )
    edit_input = tmp_path / "edit.json"
    edit_input.write_text(json.dumps({"edits": [{"x": record["x"], "y": record["y"]}]}))
    assert main([
        "edit", "--model", str(pipeline / "model.json"),
        "--editor", str(pipeline / "editor.json"),
        "--edit-input", str(edit_input), "--out-dir", str(tmp_path),
    ]) == 0
    assert (tmp_path / "edited_model.json").exists()
    preds = json.loads((tmp_path / "edit_predictions.json").read_text())
    assert preds[0]["target"] == record["y"]
    assert {"argmax_pre", "argmax_post"} <= set(preds[0])


def test_eval_command_with_baselines(pipeline, tmp_path):
    assert main([
        "eval", "--dataset", str(pipeline / "dataset.jsonl"),
        "--model", str(pipeline / "model.json"),
        "--editor", str(pipeline / "editor.json"),
        "--k-edits", "1,2", "--baselines", "--out-dir", str(tmp_path),
    ]) == 0
    lines = (tmp_path / "report.csv").read_text().splitlines()
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == [
        "learned@k=1", "learned@k=2",
        "ft@k=1", "ft_kl@k=1", "ft@k=2", "ft_kl@k=2",
    ]
    payload = json.loads((tmp_path / "report.json").read_text())
    assert len(payload["reports"]) == 6
    timing = json.loads((tmp_path / "report_timing.json").read_text())
    assert set(timing) == set(names)


def test_eval_baselines_without_train_records_exit_code(pipeline, tmp_path):
    # FT+KL draws its locality inputs from the train records
    def drop_train(lines):
        lines[1:] = [obj for obj in lines[1:] if obj["split"] != "edit_train"]

    dataset = _rewritten_dataset(pipeline, tmp_path, drop_train)
    assert main([
        "eval", "--dataset", str(dataset), "--model", str(pipeline / "model.json"),
        "--editor", str(pipeline / "editor.json"),
        "--k-edits", "1", "--baselines", "--out-dir", str(tmp_path),
    ]) == 3
    assert not (tmp_path / "report.csv").exists()


def test_eval_reports_are_deterministic(pipeline, tmp_path_factory):
    out_a = tmp_path_factory.mktemp("eval_a")
    out_b = tmp_path_factory.mktemp("eval_b")
    for out in (out_a, out_b):
        assert main([
            "eval", "--dataset", str(pipeline / "dataset.jsonl"),
            "--model", str(pipeline / "model.json"),
            "--editor", str(pipeline / "editor.json"),
            "--k-edits", "2", "--out-dir", str(out),
        ]) == 0
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


def test_ablate_command(pipeline, tmp_path):
    assert main([
        "ablate", "--dataset", str(pipeline / "dataset.jsonl"),
        "--model", str(pipeline / "model.json"),
        "--steps", "2", "--out-dir", str(tmp_path),
    ]) == 0
    lines = (tmp_path / "ablation_report.csv").read_text().splitlines()
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == [
        "full", "no_sharing", "no_norm", "no_id_init",
        "only_u", "only_delta", "only_smaller",
    ]


def test_config_error_exit_code(tmp_path):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"not_a_real_key": 1}))
    assert main(["gen-data", "--config", str(bad_cfg), "--out-dir", str(tmp_path)]) == 2
    bad_cfg.write_text("{broken json")
    assert main(["gen-data", "--config", str(bad_cfg), "--out-dir", str(tmp_path)]) == 2
    # a JSON value other than an object, and bytes that are not UTF-8 text
    for text in (b"5", b'\xff{"seed": 1}'):
        bad_cfg.write_bytes(text)
        assert main(["gen-data", "--config", str(bad_cfg), "--out-dir", str(tmp_path)]) == 2
    # missing required input is a config error too
    assert main(["pretrain", "--out-dir", str(tmp_path)]) == 2


def test_edit_and_eval_take_no_config_or_seed(pipeline, tmp_path):
    # neither subcommand reads a config value, so argparse rejects both
    # options with the config-error code rather than ignoring them
    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps({"not_a_real_key": 1}))
    runs = [
        ["eval", "--config", str(cfg), "--dataset", str(pipeline / "dataset.jsonl"),
         "--model", str(pipeline / "model.json"), "--editor", str(pipeline / "editor.json"),
         "--k-edits", "1"],
        ["edit", "--seed", "1", "--model", str(pipeline / "model.json"),
         "--editor", str(pipeline / "editor.json"),
         "--edit-input", str(_edit_input(pipeline, tmp_path))],
    ]
    for args in runs:
        with pytest.raises(SystemExit) as exit_:
            main([*args, "--out-dir", str(tmp_path)])
        assert exit_.value.code == 2
    assert not (tmp_path / "report.csv").exists()
    assert not (tmp_path / "edited_model.json").exists()


@pytest.mark.parametrize("bad", [
    {"pretrain_per_fact": 0}, {"num_entities": 0}, {"num_relations": 0},
    {"records_per_fact": 1.5}, {"records_per_fact": True}, {"seed": -1}, {"noise_scale": "x"},
    # one fact leaves no other fact to draw a locality input from
    {"num_entities": 1, "num_relations": 1},
])
def test_gen_data_bad_count_exit_code(tmp_path, bad):
    cfg = tmp_path / "world.json"
    cfg.write_text(json.dumps({**WORLD_CFG, **bad}))
    assert main(["gen-data", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "dataset.jsonl").exists()


@pytest.mark.parametrize("bad", [{"epochs": "40"}, {"lr": float("inf")}, {"hidden_dims": [0]}])
def test_pretrain_bad_config_value_exit_code(pipeline, tmp_path, bad):
    cfg = tmp_path / "pretrain.json"
    cfg.write_text(json.dumps(bad))
    assert main(["pretrain", "--config", str(cfg), "--dataset", str(pipeline / "dataset.jsonl"),
                 "--out-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "model.json").exists()


def test_pretrain_without_pretrain_examples_exit_code(pipeline, tmp_path):
    lines = (pipeline / "dataset.jsonl").read_text().splitlines()
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("\n".join(l for l in lines if json.loads(l).get("split") != "pretrain"))
    assert main(["pretrain", "--dataset", str(dataset), "--out-dir", str(tmp_path)]) == 3
    assert not (tmp_path / "model.json").exists()


def test_data_error_exit_code(pipeline, tmp_path):
    missing = tmp_path / "nope.jsonl"
    assert main([
        "pretrain", "--dataset", str(missing), "--out-dir", str(tmp_path)
    ]) == 3
    corrupt = tmp_path / "corrupt.jsonl"
    corrupt.write_text("not json at all\n")
    assert main([
        "pretrain", "--dataset", str(corrupt), "--out-dir", str(tmp_path)
    ]) == 3


def _edit_input(pipeline, tmp_path, y=None):
    dataset = (pipeline / "dataset.jsonl").read_text().splitlines()
    record = next(
        json.loads(line) for line in dataset[1:]
        if json.loads(line)["split"] == "edit_test"
    )
    path = tmp_path / "edit.json"
    path.write_text(json.dumps({"x": record["x"], "y": record["y"] if y is None else y}))
    return path


def test_edit_label_outside_classes_exit_code(pipeline, tmp_path):
    for y in (99, -1):
        assert main([
            "edit", "--model", str(pipeline / "model.json"),
            "--editor", str(pipeline / "editor.json"),
            "--edit-input", str(_edit_input(pipeline, tmp_path, y)),
            "--out-dir", str(tmp_path),
        ]) == 3
    assert not (tmp_path / "edited_model.json").exists()


@pytest.mark.parametrize("y", [2.7, 2.0, "3", True], ids=["float", "whole_float", "string", "bool"])
def test_edit_non_integer_label_exit_code(pipeline, tmp_path, y):
    # int() would edit toward label 2 for 2.7, and accept "3" and true
    assert main([
        "edit", "--model", str(pipeline / "model.json"),
        "--editor", str(pipeline / "editor.json"),
        "--edit-input", str(_edit_input(pipeline, tmp_path, y)),
        "--out-dir", str(tmp_path),
    ]) == 3
    assert not (tmp_path / "edited_model.json").exists()


def test_edit_bad_bias_shape_exit_code(pipeline, tmp_path):
    # a defective checkpoint file is a data error, wrong shapes included
    payload = json.loads((pipeline / "model.json").read_text())
    payload["biases"][0] = [0.0]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    assert main([
        "edit", "--model", str(model),
        "--editor", str(pipeline / "editor.json"),
        "--edit-input", str(_edit_input(pipeline, tmp_path)),
        "--out-dir", str(tmp_path),
    ]) == 3
    assert not (tmp_path / "edited_model.json").exists()


def _model_without_last_layer(pipeline, tmp_path):
    """A model whose layers match the pipeline editor's first editable layer
    but which lacks its last one."""
    dims = json.loads((pipeline / "model.json").read_text())["layer_dims"]
    path = tmp_path / "short_model.json"
    save_model(init_mlp(dims[:-1], make_rng(0)), path)
    return path


def test_edit_editor_layer_missing_from_model_exit_code(pipeline, tmp_path):
    assert main([
        "edit", "--model", str(_model_without_last_layer(pipeline, tmp_path)),
        "--editor", str(pipeline / "editor.json"),
        "--edit-input", str(_edit_input(pipeline, tmp_path)),
        "--out-dir", str(tmp_path),
    ]) == 4
    assert not (tmp_path / "edited_model.json").exists()


def test_bad_k_edits_exit_code(pipeline, tmp_path):
    assert main([
        "eval", "--dataset", str(pipeline / "dataset.jsonl"),
        "--model", str(pipeline / "model.json"),
        "--editor", str(pipeline / "editor.json"),
        "--k-edits", "zero", "--out-dir", str(tmp_path),
    ]) == 2


def test_unknown_variant_exit_code(pipeline, tmp_path):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"variant": "bogus", "max_steps": 1}))
    assert main([
        "train-editor", "--config", str(cfg),
        "--dataset", str(pipeline / "dataset.jsonl"),
        "--model", str(pipeline / "model.json"), "--out-dir", str(tmp_path),
    ]) == 2


def _child_env():
    """The environment for a child `python -m gradedit.cli`: it imports the
    same package as this process, installed or not."""
    src = str(Path(gradedit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_module_entry_point(tmp_path):
    cfg = tmp_path / "world.json"
    cfg.write_text(json.dumps(WORLD_CFG))
    proc = subprocess.run(
        [sys.executable, "-m", "gradedit.cli", "gen-data",
         "--config", str(cfg), "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "dataset.jsonl" in proc.stdout


def test_exit_codes_survive_python_O(pipeline, tmp_path):
    # `python -O` strips asserts: every exit code below comes from an
    # explicit raise
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"c_e": -1, "max_steps": 1}))
    short_model = _model_without_last_layer(pipeline, tmp_path)
    (tmp_path / "label").mkdir()
    (tmp_path / "float_label").mkdir()
    payload = json.loads((pipeline / "editor.json").read_text())
    next(iter(payload["normalizer"]["var_u"].values()))[0] = 0.0
    zero_var = tmp_path / "zero_var_editor.json"
    zero_var.write_text(json.dumps(payload))
    # every number in an input file must be a JSON number that fits a float
    model = json.loads((pipeline / "model.json").read_text())
    model["weights"][0][0][0] = 10**400
    huge_weight = tmp_path / "huge_weight_model.json"
    huge_weight.write_text(json.dumps(model))
    # finite weights whose logits overflow
    model = json.loads((pipeline / "model.json").read_text())
    model["weights"][0][0] = [1e308] * len(model["weights"][0][0])
    overflowing = tmp_path / "overflowing_model.json"
    overflowing.write_text(json.dumps(model))
    edit = json.loads(_edit_input(pipeline, tmp_path).read_text())
    edit["x"][0] = "0.5"
    string_x = tmp_path / "string_x_edit.json"
    string_x.write_text(json.dumps(edit))
    payload = json.loads((pipeline / "editor.json").read_text())
    payload["values"]["l:0:s1"][0] = True
    bool_tensor = tmp_path / "bool_tensor_editor.json"
    bool_tensor.write_text(json.dumps(payload))
    lines = (pipeline / "dataset.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    header["fact_labels"] = [True] * len(header["fact_labels"])
    bool_labels = tmp_path / "bool_labels.jsonl"
    bool_labels.write_text("\n".join([json.dumps(header)] + lines[1:]))
    # a paraphrase labelled with another valid class than its edit's
    relabelled = [json.loads(line) for line in lines]
    rec = next(obj for obj in relabelled[1:] if obj["split"] == "edit_train")
    rec["neighborhood"][1]["y"] = (rec["y"] + 1) % WORLD_CFG["num_classes"]
    (tmp_path / "relabelled").mkdir()
    relabelled_path = tmp_path / "relabelled" / "dataset.jsonl"
    relabelled_path.write_text("".join(json.dumps(obj) + "\n" for obj in relabelled))
    # worlds too large to hold: as a config, and as a header with no lines
    huge_dim, huge_classes = tmp_path / "huge_dim.json", tmp_path / "huge_classes.json"
    huge_dim.write_text(json.dumps({"feature_dim": 10**30}))
    huge_classes.write_text(json.dumps({"num_classes": 10**30}))
    header = json.loads(lines[0])
    header["config"]["feature_dim"] = 10**30
    huge_header = tmp_path / "huge_header.jsonl"
    huge_header.write_text(json.dumps(header) + "\n")
    runs = [
        (2, ["train-editor", "--config", str(cfg), "--dataset", str(pipeline / "dataset.jsonl"),
             "--model", str(pipeline / "model.json")]),
        (3, ["edit", "--model", str(pipeline / "model.json"),
             "--editor", str(pipeline / "editor.json"),
             "--edit-input", str(_edit_input(pipeline, tmp_path / "label", 99))]),
        (3, ["edit", "--model", str(pipeline / "model.json"),
             "--editor", str(pipeline / "editor.json"),
             "--edit-input", str(_edit_input(pipeline, tmp_path / "float_label", 1.5))]),
        (3, ["edit", "--model", str(pipeline / "model.json"), "--editor", str(zero_var),
             "--edit-input", str(_edit_input(pipeline, tmp_path))]),
        (4, ["edit", "--model", str(short_model), "--editor", str(pipeline / "editor.json"),
             "--edit-input", str(_edit_input(pipeline, tmp_path))]),
        (3, ["edit", "--model", str(huge_weight), "--editor", str(pipeline / "editor.json"),
             "--edit-input", str(_edit_input(pipeline, tmp_path))]),
        (3, ["edit", "--model", str(overflowing), "--editor", str(pipeline / "editor.json"),
             "--edit-input", str(_edit_input(pipeline, tmp_path))]),
        (3, ["eval", "--dataset", str(pipeline / "dataset.jsonl"), "--model", str(overflowing),
             "--editor", str(pipeline / "editor.json"), "--k-edits", "1"]),
        (3, ["edit", "--model", str(pipeline / "model.json"),
             "--editor", str(pipeline / "editor.json"), "--edit-input", str(string_x)]),
        (3, ["edit", "--model", str(pipeline / "model.json"), "--editor", str(bool_tensor),
             "--edit-input", str(_edit_input(pipeline, tmp_path))]),
        (3, ["eval", "--dataset", str(bool_labels), "--model", str(pipeline / "model.json"),
             "--editor", str(pipeline / "editor.json"), "--k-edits", "1"]),
        (3, ["train-editor", "--dataset", str(relabelled_path),
             "--model", str(pipeline / "model.json")]),
        (2, ["gen-data", "--config", str(huge_dim)]),
        (2, ["gen-data", "--config", str(huge_classes)]),
        (3, ["pretrain", "--dataset", str(huge_header)]),
    ]
    for code, args in runs:
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "gradedit.cli", *args, "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == code, (args[0], proc.stderr)
        assert "Traceback" not in proc.stderr
    assert not (tmp_path / "editor.json").exists()
    assert not (tmp_path / "edited_model.json").exists()
    assert not (tmp_path / "dataset.jsonl").exists()
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("bad", [{"c_e": -1}, {"batch_size": 0}, {"patience": 0},
                                 {"c_e": float("inf")}, {"meta_lr": float("inf")}])
def test_train_editor_bad_config_value_exit_code(pipeline, tmp_path, bad):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"max_steps": 3, "eval_every": 1, **bad}))
    assert main([
        "train-editor", "--config", str(cfg),
        "--dataset", str(pipeline / "dataset.jsonl"),
        "--model", str(pipeline / "model.json"), "--out-dir", str(tmp_path),
    ]) == 2
    assert not (tmp_path / "editor.json").exists()


def test_train_editor_k_above_validation_set_exit_code(pipeline, tmp_path):
    # the miniature world holds out one validation record; groups of two
    # cannot be cut from it
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"edits_per_step": 2, "max_steps": 3, "eval_every": 1}))
    assert main([
        "train-editor", "--config", str(cfg),
        "--dataset", str(pipeline / "dataset.jsonl"),
        "--model", str(pipeline / "model.json"), "--out-dir", str(tmp_path),
    ]) == 2
    assert not (tmp_path / "editor.json").exists()


def test_train_editor_k_above_train_facts_exit_code(tmp_path):
    # four train facts cannot fill a group of five distinct facts: a data
    # error, whether or not the run would also validate
    world_cfg = tmp_path / "world.json"
    world_cfg.write_text(json.dumps({**WORLD_CFG, "num_entities": 4, "records_per_fact": 4}))
    assert main(["gen-data", "--config", str(world_cfg), "--out-dir", str(tmp_path)]) == 0
    dims = [WORLD_CFG["feature_dim"], 16, WORLD_CFG["num_classes"]]
    save_model(init_mlp(dims, make_rng(0)), tmp_path / "model.json")
    cfg = tmp_path / "train.json"
    for eval_every in (0, 1):
        cfg.write_text(json.dumps({"edits_per_step": 5, "max_steps": 3,
                                   "eval_every": eval_every}))
        assert main([
            "train-editor", "--config", str(cfg),
            "--dataset", str(tmp_path / "dataset.jsonl"),
            "--model", str(tmp_path / "model.json"), "--out-dir", str(tmp_path),
        ]) == 3, eval_every
    assert not (tmp_path / "editor.json").exists()


@pytest.mark.parametrize("corrupt",
                         ["missing", "short", "nan", "inf_normalizer_stat", "no_layers"])
def test_edit_bad_editor_tensor_exit_code(pipeline, tmp_path, corrupt):
    payload = json.loads((pipeline / "editor.json").read_text())
    if corrupt == "missing":
        del payload["values"]["l:0:alpha"]
    elif corrupt == "short":
        payload["values"]["l:0:s1"] = payload["values"]["l:0:s1"][:-1]
    elif corrupt == "nan":
        payload["values"]["l:0:s1"][0] = float("nan")
    elif corrupt == "inf_normalizer_stat":
        next(iter(payload["normalizer"]["var_u"].values()))[0] = float("inf")
    else:
        for key in ("editable_layers", "layer_group", "group_dims", "values"):
            payload[key] = type(payload[key])()
        payload["normalizer"].update({stat: {} for stat in ("mean_u", "var_u", "mean_d", "var_d")})
    editor = tmp_path / "editor.json"
    editor.write_text(json.dumps(payload))
    assert main([
        "edit", "--model", str(pipeline / "model.json"), "--editor", str(editor),
        "--edit-input", str(_edit_input(pipeline, tmp_path)), "--out-dir", str(tmp_path),
    ]) == 3
    assert main([
        "eval", "--dataset", str(pipeline / "dataset.jsonl"), "--model", str(pipeline / "model.json"),
        "--editor", str(editor), "--k-edits", "1", "--out-dir", str(tmp_path),
    ]) == 3
    assert not (tmp_path / "edited_model.json").exists()
    assert not (tmp_path / "report.csv").exists()


def test_edit_ragged_inputs_exit_code(pipeline, tmp_path):
    x = json.loads(_edit_input(pipeline, tmp_path).read_text())["x"]
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps({"edits": [{"x": x, "y": 1}, {"x": x[:-1], "y": 2}]}))
    assert main([
        "edit", "--model", str(pipeline / "model.json"),
        "--editor", str(pipeline / "editor.json"),
        "--edit-input", str(path), "--out-dir", str(tmp_path),
    ]) == 3
    assert not (tmp_path / "edited_model.json").exists()


def test_edit_batch_predictions(pipeline, tmp_path):
    dataset = [json.loads(line) for line in (pipeline / "dataset.jsonl").read_text().splitlines()]
    records = [obj for obj in dataset[1:] if obj["split"] == "edit_test"][:3:2]
    path = tmp_path / "edits.json"
    path.write_text(json.dumps({"edits": [{"x": r["x"], "y": r["y"]} for r in records]}))
    assert main([
        "edit", "--model", str(pipeline / "model.json"),
        "--editor", str(pipeline / "editor.json"),
        "--edit-input", str(path), "--out-dir", str(tmp_path),
    ]) == 0
    preds = json.loads((tmp_path / "edit_predictions.json").read_text())
    model = load_model(pipeline / "model.json")
    edited = load_model(tmp_path / "edited_model.json")
    for rec, pred in zip(records, preds, strict=True):
        assert pred["target"] == rec["y"]
        assert pred["argmax_pre"] == int(np.argmax(forward(model, np.array(rec["x"]))[0]))
        assert pred["argmax_post"] == int(np.argmax(forward(edited, np.array(rec["x"]))[0]))


def _rewritten_dataset(pipeline, tmp_path, edit):
    lines = [json.loads(line) for line in (pipeline / "dataset.jsonl").read_text().splitlines()]
    edit(lines)
    path = tmp_path / "dataset.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    return path


def test_dataset_unknown_config_key_exit_code(pipeline, tmp_path):
    dataset = _rewritten_dataset(
        pipeline, tmp_path, lambda lines: lines[0]["config"].__setitem__("bogus", 1))
    assert main(["pretrain", "--dataset", str(dataset), "--out-dir", str(tmp_path)]) == 3
    assert not (tmp_path / "model.json").exists()


def test_dataset_label_outside_classes_exit_code(pipeline, tmp_path):
    def edit(lines):
        rec = next(obj for obj in lines[1:] if obj["split"] == "edit_test")
        rec["y"] = rec["neighborhood"][0]["y"] = 99

    dataset = _rewritten_dataset(pipeline, tmp_path, edit)
    assert main([
        "eval", "--dataset", str(dataset), "--model", str(pipeline / "model.json"),
        "--editor", str(pipeline / "editor.json"), "--k-edits", "1",
        "--out-dir", str(tmp_path),
    ]) == 3
    assert not (tmp_path / "report.csv").exists()


def test_dataset_non_integer_label_exit_code(pipeline, tmp_path):
    def edit(lines):
        next(obj for obj in lines[1:] if obj["split"] == "pretrain")["y"] += 0.7

    dataset = _rewritten_dataset(pipeline, tmp_path, edit)
    assert main(["pretrain", "--dataset", str(dataset), "--out-dir", str(tmp_path)]) == 3
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("spoil", [str, lambda rank: rank + 0.9], ids=["string", "float"])
def test_edit_non_integer_editor_rank_exit_code(pipeline, tmp_path, spoil):
    payload = json.loads((pipeline / "editor.json").read_text())
    payload["rank"] = spoil(payload["rank"])
    editor = tmp_path / "editor.json"
    editor.write_text(json.dumps(payload))
    assert main([
        "edit", "--model", str(pipeline / "model.json"), "--editor", str(editor),
        "--edit-input", str(_edit_input(pipeline, tmp_path)), "--out-dir", str(tmp_path),
    ]) == 3
    assert not (tmp_path / "edited_model.json").exists()


def test_edit_non_finite_input_exit_code(pipeline, tmp_path):
    path = _edit_input(pipeline, tmp_path)
    payload = json.loads(path.read_text())
    payload["x"][0] = float("nan")
    path.write_text(json.dumps(payload))
    assert main([
        "edit", "--model", str(pipeline / "model.json"),
        "--editor", str(pipeline / "editor.json"),
        "--edit-input", str(path), "--out-dir", str(tmp_path),
    ]) == 3
    assert not (tmp_path / "edited_model.json").exists()


def _nan_x_loc(lines):
    next(obj for obj in lines[1:] if obj["split"] == "edit_test")["x_loc"][0] = float("nan")


def _nan_pretrain_x(lines):
    next(obj for obj in lines[1:] if obj["split"] == "pretrain")["x"][0] = float("nan")


@pytest.mark.parametrize("edit", [_nan_x_loc, _nan_pretrain_x], ids=["x_loc", "pretrain_x"])
def test_dataset_non_finite_input_exit_code(pipeline, tmp_path, edit):
    dataset = _rewritten_dataset(pipeline, tmp_path, edit)
    assert main(["pretrain", "--dataset", str(dataset), "--out-dir", str(tmp_path)]) == 3
    assert not (tmp_path / "model.json").exists()


def _nan_weight(payload):
    payload["weights"][0][0][0] = float("nan")
    return payload


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("model.json", _nan_weight),
        ("model.json", lambda p: p.pop("weights") and p),
        ("model.json", lambda p: []),
        ("editor.json", lambda p: []),
    ],
    ids=["model_nan_weight", "model_without_weights", "model_list", "editor_list"],
)
def test_edit_malformed_checkpoint_exit_code(pipeline, tmp_path, name, corrupt):
    path = tmp_path / name
    path.write_text(json.dumps(corrupt(json.loads((pipeline / name).read_text()))))
    files = {"model.json": pipeline / "model.json", "editor.json": pipeline / "editor.json"}
    files[name] = path
    assert main([
        "edit", "--model", str(files["model.json"]), "--editor", str(files["editor.json"]),
        "--edit-input", str(_edit_input(pipeline, tmp_path)), "--out-dir", str(tmp_path),
    ]) == 3
    assert not (tmp_path / "edited_model.json").exists()



@pytest.mark.parametrize("command, cfg", [
    ("pretrain", {"hidden_dims": [16], "epochs": 2, "lr": 1e300}),
    ("train-editor", {"max_steps": 3, "eval_every": 0, "meta_lr": 1e300}),
])
def test_diverging_training_is_not_a_data_error(pipeline, tmp_path, command, cfg):
    # a learning rate above training.MAX_LR is a config error (exit 2) before
    # any step, so a rate of 1e300 never reaches an overflow in the logits
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    model = ["--model", str(pipeline / "model.json")] if command == "train-editor" else []
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "gradedit.cli", command, "--config", str(path),
         "--dataset", str(pipeline / "dataset.jsonl"), *model, "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 2, proc.stderr
    assert "must be <= 1.0, got 1e+300" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert sorted(tmp_path.iterdir()) == [path]
