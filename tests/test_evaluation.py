"""Metric and harness tests: edit success and drawdown on hand-built cases,
batched evaluation grouping, the model-mutation guard, and report files."""

import json
import sys
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest

from gradedit import evaluation as evaluation_mod
from gradedit import mlp as mlp_mod
from gradedit.bench import fact_groups, holdout_split
from gradedit.editor import VariantConfig, init_editor
from gradedit.errors import ConfigError, ContractError, DataError, ShapeError
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
from gradedit.mlp import Mlp, clone_with_weights, forward, init_mlp
from gradedit.ndops import kl_divergence, make_rng
from gradedit.training import FT_MAX_STEPS, TrainConfig, finetune_kl_edit, train_editor


class IdentityEditor:
    """Protocol-conforming editor that changes nothing."""

    name = "identity"

    def edit(self, model, pairs):
        return clone_with_weights(model, {})

    def param_count(self):
        return 0


def _logits_with_argmax(winners, num_classes=4):
    logits = np.zeros((len(winners), num_classes))
    logits[np.arange(len(winners)), winners] = 5.0
    return logits


def test_edit_success_counts_neighborhood():
    # three records with neighborhoods of 1, 3 and 2 rows, all labelled 2
    logits = _logits_with_argmax([2, 2, 0, 2, 1, 1])
    es = edit_success(logits, np.full(6, 2), [1, 3, 2])
    assert es.tolist() == [1.0, 2.0 / 3.0, 0.0]


def test_edit_success_rejects_sizes_that_do_not_split_the_rows(small_world):
    logits = _logits_with_argmax([2, 2, 0])
    for counts in ([0, 3], [1, 1], [2, 2]):
        with pytest.raises(ShapeError):
            edit_success(logits, np.full(3, 2), counts)
    # a record with an empty neighborhood never reaches evaluate_editor: it
    # is rejected when it is built
    with pytest.raises(DataError):
        replace(small_world.edit_test[0], neighborhood=[])


def test_drawdown_identical_models_is_zero(small_model, small_world):
    x_loc = np.stack([r.x_loc for r in small_world.edit_test[:3]])
    y_loc = np.array([r.y_loc for r in small_world.edit_test[:3]])
    logits, _ = forward(small_model, x_loc)
    dd_acc, dd_kl = drawdown(logits, logits, y_loc)
    assert dd_acc == 0.0
    assert dd_kl == pytest.approx(0.0, abs=1e-12)


def test_drawdown_detects_accuracy_loss():
    labels = np.array([1, 3])
    dd_acc, dd_kl = drawdown(_logits_with_argmax([1, 3]), _logits_with_argmax([0, 3]), labels)
    assert dd_acc == 0.5
    assert dd_kl > 0.0


def test_drawdown_gives_one_pair_per_group():
    pre = _logits_with_argmax([1, 3, 0, 2]).reshape(2, 2, 4)
    post = _logits_with_argmax([1, 3, 1, 1]).reshape(2, 2, 4)
    labels = np.array([[1, 3], [0, 2]])
    dd_acc, dd_kl = drawdown(pre, post, labels)
    assert dd_acc.tolist() == [0.0, 1.0]
    assert dd_kl[0] == 0.0 and dd_kl[1] > 0.0
    for g in range(2):
        assert drawdown(pre[g], post[g], labels[g]) == (dd_acc[g], dd_kl[g])


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


class BiasMutatingEditor(IdentityEditor):
    """Breaks the protocol in a bias of the model it was asked to edit."""

    name = "bias-mutating"

    def edit(self, model, pairs):
        model.biases[0][0] += 1.0
        return clone_with_weights(model, {})


def test_evaluate_editor_rejects_a_mutated_model(small_world, small_model):
    model = clone_with_weights(small_model, {})  # the fixture must stay pristine
    with pytest.raises(ContractError, match="mutating"):
        evaluate_editor(MutatingEditor(), model, small_world.edit_test[:2])


def test_evaluate_editor_rejects_mutated_biases(small_world, small_model):
    model = clone_with_weights(small_model, {})
    with pytest.raises(ContractError, match="bias-mutating"):
        evaluate_editor(BiasMutatingEditor(), model, small_world.edit_test[:2])


def _reference_rows(editor, model, records, k, dense=False):
    """The per-record scoring loop that `evaluate_editor` batches: one
    forward per neighborhood, and a pristine and an edited forward at each
    group's locality inputs. With `dense`, each edited model is forwarded as
    a dense model over its formed weights, not in the factored form in which
    a learned edit comes back."""
    rows = []
    for g, group in enumerate(fact_groups(records, k)):
        edited = editor.edit(model, [(r.x_e, r.y_e) for r in group])
        if dense:
            edited = Mlp(list(edited.weights), list(edited.biases))
        loc_x = np.stack([r.x_loc for r in group])
        loc_y = np.array([r.y_loc for r in group])
        pre, post = forward(model, loc_x)[0], forward(edited, loc_x)[0]
        dd_acc = (float(np.mean(np.argmax(pre, axis=1) == loc_y))
                  - float(np.mean(np.argmax(post, axis=1) == loc_y)))
        dd_kl = float(np.mean(kl_divergence(pre, post)))
        for r in group:
            xs = np.stack([x for x, _ in r.neighborhood])
            ys = np.array([y for _, y in r.neighborhood])
            es = float(np.mean(np.argmax(forward(edited, xs)[0], axis=1) == ys))
            rows.append({"fact_id": r.fact_id, "es": es, "group": g,
                         "group_dd_acc": dd_acc, "group_dd_kl": dd_kl})
    return rows


@pytest.fixture(scope="module")
def trained_editor(small_world, small_model):
    cfg = TrainConfig(max_steps=30, batch_size=2, eval_every=0)
    params, norm, _ = train_editor(small_model, *holdout_split(small_world.edit_train), cfg)
    return LearnedEditor(params, norm)


def _ragged(records):
    """The records with neighborhoods cut to 1, 2, 3, ... rows in turn."""
    return [replace(r, neighborhood=r.neighborhood[: 1 + i % len(r.neighborhood)])
            for i, r in enumerate(records)]


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("which", ["learned", "ft", "learned_ragged"])
def test_evaluate_editor_matches_the_per_record_loop(small_world, small_model, trained_editor,
                                                     k, which):
    records = small_world.edit_test[:18]
    editor = FtEditor() if which == "ft" else trained_editor
    if which.endswith("ragged"):
        records = _ragged(records)
        assert len({len(r.neighborhood) for r in records}) > 1
    report = evaluate_editor(editor, small_model, records, k)
    assert 0.0 < report.es < 1.0  # some edits fail and some succeed
    for dense in (False, True):
        ref = _reference_rows(editor, small_model, records, k, dense)
        assert len(report.rows) == len(ref) == 18 // k * k
        for row, want in zip(report.rows, ref):
            assert {key: row[key] for key in ("fact_id", "es", "group", "group_dd_acc")} == {
                key: want[key] for key in ("fact_id", "es", "group", "group_dd_acc")}
            assert row["group_dd_kl"] == pytest.approx(want["group_dd_kl"], rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("k", [1, 5])
def test_learned_evaluation_forms_no_edited_weights(small_world, small_model, trained_editor, k,
                                                    monkeypatch):
    # a spy on every binding of mlp.outer_sum in the package: a learned edit
    # is scored in factored form, so no W~ = W - alpha D~^T U~ is formed
    calls = []
    original = mlp_mod.outer_sum

    def spy(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("gradedit") and getattr(module, "outer_sum", None) is original:
            monkeypatch.setattr(module, "outer_sum", spy)
    report = evaluate_editor(trained_editor, small_model, small_world.edit_test, k)
    assert report.num_records == len(small_world.edit_test) // k * k
    assert calls == []


def test_learned_editor_protocol(small_world, small_model, table_normalizer):
    params = init_editor(
        small_model, list(range(small_model.num_layers)), 2, VariantConfig(), make_rng(0)
    )
    norm = table_normalizer(small_model, small_world.edit_train[:10], params)
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


def test_ft_kl_editor_draws_as_a_fresh_generator_per_edit(small_world, small_model):
    # the editor draws its inputs once, when built; each edit must see the
    # inputs that a generator seeded afresh for that edit would give
    pool = [r.x_loc for r in small_world.edit_train[:10]]
    editor = FtKlEditor(pool, seed=3)
    rng = make_rng(3)
    want_inputs = [pool[int(rng.integers(len(pool)))] for _ in range(FT_MAX_STEPS)]
    assert len(editor.loc_inputs) == len(want_inputs)
    for got_x, want_x in zip(editor.loc_inputs, want_inputs):
        assert got_x is want_x
    for rec in small_world.edit_test[:4] * 2:
        want, steps = finetune_kl_edit(small_model, rec.x_e, rec.y_e, want_inputs)
        assert steps >= 2
        got = editor.edit(small_model, [(rec.x_e, rec.y_e)])
        for a, b in zip(got.weights, want.weights):
            assert np.array_equal(a, b)


def test_ft_kl_editor_forwards_each_locality_input_once_per_model(small_world, small_model):
    # the pristine softmax at loc_inputs[s] is computed by the first edit that
    # reaches step s, and again only for another model object
    editor = FtKlEditor([r.x_loc for r in small_world.edit_train[:10]], seed=3)
    twin = clone_with_weights(small_model, {})
    pristine = []

    def spy(model, batch):
        if any(batch is x for x in editor.loc_inputs):
            pristine.append(model)
        return forward(model, batch)

    recs = small_world.edit_test[:12]
    for model in (small_model, twin, small_model):
        pristine.clear()
        with patch("gradedit.training.forward", spy):
            got = [editor.edit(model, [(r.x_e, r.y_e)]) for r in recs]
        steps = []
        for rec, edited in zip(recs, got):
            want, n = finetune_kl_edit(model, rec.x_e, rec.y_e, editor.loc_inputs)
            steps.append(n)
            for a, b in zip(edited.weights + edited.biases, want.weights + want.biases):
                assert np.array_equal(a, b)
        assert sum(n - 1 for n in steps if n > 1) > max(steps) - 1 >= 2
        assert len(pristine) == max(steps) - 1
        assert all(m is model for m in pristine)


def test_ft_kl_editor_rejects_an_empty_locality_pool():
    # before any edit: drawing from an empty pool would fail inside numpy
    with pytest.raises(DataError):
        FtKlEditor([])


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
        assert r.k_edits == 1  # the ablation scores single edits
        assert 0.0 <= r.es <= 1.0
        assert r.param_count > 0


def test_run_ablations_trains_each_distinct_editor_once(small_world, small_model, monkeypatch):
    # on small_model, whose two layers differ in shape, no_sharing builds the
    # same editor as full; the other five differ from both and each other
    cfg = TrainConfig(max_steps=6, batch_size=2, eval_every=3)
    trained = []

    def spy(model, train_recs, val_recs, config, variant):
        trained.append(variant)
        return train_editor(model, train_recs, val_recs, config, variant)

    monkeypatch.setattr(evaluation_mod, "train_editor", spy)
    reports = run_ablations(small_world, small_model, cfg)
    assert len(trained) == 6
    assert ABLATION_VARIANTS["no_sharing"] not in trained
    train_recs, val_recs = holdout_split(small_world.edit_train)
    for got, (name, variant) in zip(reports, ABLATION_VARIANTS.items()):
        params, normalizer, _ = train_editor(small_model, train_recs, val_recs, cfg, variant)
        want = evaluate_editor(LearnedEditor(params, normalizer, name=name), small_model,
                               small_world.edit_test, 1)
        assert replace(got, wall_time_s=0.0) == replace(want, wall_time_s=0.0)
    # the reused report keeps the time its editor took to train and score
    assert reports[1].wall_time_s == reports[0].wall_time_s > 0.0


def test_run_ablations_trains_every_variant_of_a_shared_shape_model(small_world, monkeypatch):
    # hidden layers 1 and 2 are both 24x24: sharing gives them one editor
    model = init_mlp([small_world.config.feature_dim, 24, 24, 24,
                      small_world.config.num_classes], make_rng(1))
    trained = []

    def spy(model, train_recs, val_recs, config, variant):
        trained.append(variant)
        return train_editor(model, train_recs, val_recs, config, variant)

    monkeypatch.setattr(evaluation_mod, "train_editor", spy)
    reports = run_ablations(small_world, model, TrainConfig(max_steps=1, eval_every=0))
    assert trained == list(ABLATION_VARIANTS.values())
    assert [r.name for r in reports] == list(ABLATION_VARIANTS)


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
    # format version 1 carries an empty "config" in every report
    assert [r["config"] for r in payload["reports"]] == [{}, {}]
    assert "wall_time" not in jpath.read_text()
    timing = json.loads(tpath.read_text())
    assert timing == {"a": 1.23, "b": 4.56}
