"""Metric and harness tests: edit success and drawdown on hand-built cases,
batched evaluation grouping, the model-mutation guard, and report files."""

import json

import numpy as np
import pytest

from gradedit.bench import WorldConfig, generate_world
from gradedit.editor import VariantConfig, fit_normalizer, init_editor
from gradedit.errors import ConfigError, ContractError
from gradedit.evaluation import (
    ABLATION_VARIANTS,
    EditReport,
    FtEditor,
    FtKlEditor,
    LearnedEditor,
    drawdown,
    edit_success,
    evaluate_editor,
    reports_to_csv,
    reports_to_json,
    run_ablations,
    write_timing,
)
from gradedit.mlp import Mlp, clone_with_weights, forward
from gradedit.ndops import make_rng
from gradedit.training import TrainConfig, pretrain_model


class IdentityEditor:
    """Protocol-conforming editor that changes nothing."""

    name = "identity"

    def edit(self, model, pairs):
        return clone_with_weights(model, {})

    def param_count(self):
        return 0


def _constant_model(dim, num_classes, winner):
    # logits are x-independent; argmax is always `winner`
    w = np.zeros((num_classes, dim))
    b = np.zeros(num_classes)
    b[winner] = 10.0
    return Mlp([w], [b])


def test_edit_success_counts_neighborhood(small_world):
    rec = small_world.edit_train[0]
    dim = rec.x_e.shape[0]
    always_right = _constant_model(dim, small_world.config.num_classes, rec.y_e)
    wrong_label = (rec.y_e + 1) % small_world.config.num_classes
    always_wrong = _constant_model(dim, small_world.config.num_classes, wrong_label)
    assert edit_success(always_right, rec) == 1.0
    assert edit_success(always_wrong, rec) == 0.0


def test_drawdown_identical_models_is_zero(small_model, small_world):
    rec = small_world.edit_test[0]
    dd_acc, dd_kl = drawdown(small_model, small_model, rec.x_loc, rec.y_loc)
    assert dd_acc == 0.0
    assert dd_kl == pytest.approx(0.0, abs=1e-12)


def test_drawdown_detects_accuracy_loss(small_world):
    cfg = small_world.config
    rec = small_world.edit_test[0]
    right = _constant_model(cfg.feature_dim, cfg.num_classes, rec.y_loc)
    wrong = _constant_model(
        cfg.feature_dim, cfg.num_classes, (rec.y_loc + 1) % cfg.num_classes
    )
    dd_acc, dd_kl = drawdown(right, wrong, rec.x_loc, rec.y_loc)
    assert dd_acc == 1.0
    assert dd_kl > 0.0


def test_evaluate_editor_identity_editor(small_world, small_model):
    records = small_world.edit_test[:20]
    report = evaluate_editor(IdentityEditor(), small_model, records, k_edits=1)
    assert report.num_records == 20
    assert report.dd_acc == 0.0
    assert report.dd_kl == pytest.approx(0.0, abs=1e-12)
    # an un-edited accurate model almost never predicts the new labels
    assert report.es < 0.5
    assert len(report.rows) == 20
    assert {"fact_id", "es", "group", "group_dd_acc", "group_dd_kl"} <= set(
        report.rows[0]
    )


def test_evaluate_editor_grouping_and_leftovers(small_world, small_model):
    records = small_world.edit_test[:10]
    report = evaluate_editor(IdentityEditor(), small_model, records, k_edits=3)
    assert report.k_edits == 3
    assert report.num_records == 9  # the leftover record is dropped
    groups = {row["group"] for row in report.rows}
    assert groups == {0, 1, 2}


def test_evaluate_editor_groups_cover_distinct_facts(small_world, small_model):
    # 12 records = 3 facts with 4 records each; every group of 3 must then
    # target 3 different facts
    records = small_world.edit_test[:12]
    report = evaluate_editor(IdentityEditor(), small_model, records, k_edits=3)
    for g in range(4):
        facts = [row["fact_id"] for row in report.rows if row["group"] == g]
        assert len(set(facts)) == len(facts) == 3


def test_evaluate_editor_validates_k(small_world, small_model):
    with pytest.raises(ConfigError):
        evaluate_editor(IdentityEditor(), small_model, small_world.edit_test, 0)
    with pytest.raises(ConfigError):
        evaluate_editor(IdentityEditor(), small_model, small_world.edit_test[:3], 4)


class MutatingEditor(IdentityEditor):
    """Breaks the protocol: writes into the model it was asked to edit."""

    name = "mutating"

    def edit(self, model, pairs):
        model.weights[0][0, 0] += 1.0
        return clone_with_weights(model, {})


def test_evaluate_editor_rejects_a_mutated_model(small_world, small_model):
    model = clone_with_weights(small_model, {})  # the fixture must stay pristine
    with pytest.raises(ContractError, match="mutating"):
        evaluate_editor(MutatingEditor(), model, small_world.edit_test[:2])


def test_learned_editor_protocol(small_world, small_model):
    params = init_editor(
        small_model, list(range(small_model.num_layers)), 2, VariantConfig(), make_rng(0)
    )
    norm = fit_normalizer(small_model, small_world.edit_train[:10], params)
    editor = LearnedEditor(params, norm)
    assert editor.param_count() == params.num_parameters()
    rec = small_world.edit_test[0]
    edited = editor.edit(small_model, [(rec.x_e, rec.y_e)])
    assert edited is not small_model


def test_ft_editor_achieves_the_edit(small_world, small_model):
    rec = small_world.edit_test[0]
    edited = FtEditor().edit(small_model, [(rec.x_e, rec.y_e)])
    logits, _ = forward(edited, rec.x_e)
    assert int(np.argmax(logits[0])) == rec.y_e
    assert FtEditor().param_count() == 0


def test_ft_kl_editor_achieves_the_edit(small_world, small_model):
    rec = small_world.edit_test[0]
    pool = [r.x_loc for r in small_world.edit_train[:10]]
    edited = FtKlEditor(pool).edit(small_model, [(rec.x_e, rec.y_e)])
    logits, _ = forward(edited, rec.x_e)
    assert int(np.argmax(logits[0])) == rec.y_e


def test_ablation_table_has_all_variants():
    assert set(ABLATION_VARIANTS) == {
        "full",
        "no_sharing",
        "no_norm",
        "no_id_init",
        "only_u",
        "only_delta",
        "only_smaller",
    }
    assert ABLATION_VARIANTS["no_norm"].normalize is False
    assert ABLATION_VARIANTS["no_id_init"].identity_init is False
    assert ABLATION_VARIANTS["no_sharing"].share_params is False


def test_run_ablations_smoke(small_world, small_model):
    cfg = TrainConfig(max_steps=2, batch_size=1, eval_every=0)
    reports = run_ablations(small_world, small_model, cfg)
    assert [r.name for r in reports] == list(ABLATION_VARIANTS)
    for r in reports:
        assert 0.0 <= r.es <= 1.0
        assert r.param_count > 0


def _fake_reports():
    return [
        EditReport(
            name="a", k_edits=1, num_records=4, es=0.5, dd_acc=0.125,
            dd_kl=0.0625, param_count=10, wall_time_s=1.23,
            rows=[{"fact_id": 0, "es": 0.5, "group": 0,
                   "group_dd_acc": 0.125, "group_dd_kl": 0.0625}],
        ),
        EditReport(
            name="b", k_edits=5, num_records=5, es=1.0 / 3.0, dd_acc=0.0,
            dd_kl=0.1, param_count=0, wall_time_s=4.56,
        ),
    ]


def test_report_csv_round_trips_floats(tmp_path):
    path = tmp_path / "report.csv"
    reports_to_csv(_fake_reports(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "name,k_edits,num_records,es,dd_acc,dd_kl,params"
    fields = lines[2].split(",")
    assert float(fields[3]) == 1.0 / 3.0  # repr round-trip, no precision loss
    # wall time is intentionally absent from the canonical file
    assert "1.23" not in path.read_text()


def test_report_json_and_timing_sidecar(tmp_path):
    reports = _fake_reports()
    jpath = tmp_path / "report.json"
    tpath = tmp_path / "timing.json"
    reports_to_json(reports, jpath)
    write_timing(reports, tpath)
    payload = json.loads(jpath.read_text())
    assert payload["format_version"] == 1
    assert [r["name"] for r in payload["reports"]] == ["a", "b"]
    assert payload["reports"][1]["es"] == 1.0 / 3.0
    assert "wall_time" not in jpath.read_text()
    timing = json.loads(tpath.read_text())
    assert timing == {"a": 1.23, "b": 4.56}
