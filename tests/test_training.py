"""Training-loop tests: loss composition, the structural meta-gradient
against finite differences, the factored meta-step against the dense one it
replaced, the grouped meta-step and validation against the per-group loops
they replaced, determinism, early stopping, and the fine-tuning baselines."""

import dataclasses
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest

from gradedit.bench import EditRecord, WorldConfig, fact_groups, generate_world
from gradedit.editor import (
    VariantConfig,
    _editor_backward,
    apply_edit_with_tape,
    backprop_edit,
    edited_forward,
    fit_normalizer,
    init_editor,
    zero_grads,
)
from gradedit.errors import ConfigError, DataError
from gradedit.evaluation import ABLATION_VARIANTS
from gradedit.mlp import backward, backward_nll, clone_with_weights, forward, init_mlp
from gradedit.ndops import finite_diff_grad, kl_divergence, log_softmax, make_rng, softmax
from gradedit.training import (
    ACCURACY_BLOCK_ROWS,
    TableGroups,
    TrainConfig,
    build_factor_table,
    accuracy,
    finetune_edit,
    finetune_kl_edit,
    group_losses_and_grads,
    pretrain_model,
    train_editor,
    validation_loss,
)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(c_e=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(edits_per_step=0)
    assert TrainConfig().c_e == 0.1  # default edit-loss weight


@pytest.mark.parametrize("bad", [
    {"c_e": float("nan")}, {"batch_size": 0},
    {"meta_lr": 0.0}, {"meta_lr": -1e-3}, {"max_steps": -1}, {"eval_every": -1},
    {"patience": 0}, {"rank": 0}, {"batch_size": 2.5}, {"max_steps": "10"},
    {"patience": True}, {"editable_layers": []}, {"editable_layers": "0"},
    {"editable_layers": [0.0]},
])
def test_train_config_rejects_every_bad_field(bad):
    with pytest.raises(ConfigError):
        TrainConfig(**bad)


def test_train_config_accepts_its_bounds():
    TrainConfig(c_e=0, max_steps=0, eval_every=0, edits_per_step=1, batch_size=1,
                patience=1, rank=1, meta_lr=1, editable_layers=[0])


def _fresh_editor(model, records, variant=None, seed=0):
    variant = variant or VariantConfig()
    params = init_editor(
        model, list(range(model.num_layers)), 2, variant, make_rng(seed)
    )
    norm = fit_normalizer(model, records, params) if variant.normalize else None
    return params, norm


def test_loss_composition_is_weighted_sum(small_world, small_model):
    params, norm = _fresh_editor(small_model, small_world.edit_train[:20])
    rec = small_world.edit_train[0]
    for c_e in (0.1, 0.7):
        losses, _ = group_losses_and_grads(
            small_model, params, norm, [rec], c_e, make_rng(0), want_grads=False
        )
        assert losses.l_total == pytest.approx(
            c_e * losses.l_e + losses.l_loc, abs=1e-15
        )


def test_group_losses_average_over_records(small_world, small_model):
    params, norm = _fresh_editor(small_model, small_world.edit_train[:20])
    group = [small_world.edit_train[0], small_world.edit_train[10]]
    losses, _ = group_losses_and_grads(
        small_model, params, norm, group, 0.1, make_rng(0), want_grads=False
    )
    assert np.isfinite(losses.l_e) and np.isfinite(losses.l_loc)
    assert losses.l_loc >= 0.0  # exact KL is non-negative


def test_meta_gradient_matches_finite_differences(small_world, small_model):
    # checked at randomly perturbed editor parameters: at the exact identity
    # init the pre-activations sit on the relu kink, where the one-sided
    # subgradient and the central difference legitimately disagree
    rng = make_rng(5)
    params, norm = _fresh_editor(small_model, small_world.edit_train[:30])
    params.values = {
        k: np.asarray(np.asarray(v) + 0.05 * rng.standard_normal(np.shape(v)))
        for k, v in params.values.items()
    }
    group = small_world.edit_train[:3]

    def loss_of(values):
        p = params.copy()
        p.values = {k: np.asarray(v, dtype=np.float64) for k, v in values.items()}
        losses, _ = group_losses_and_grads(
            small_model, p, norm, group, 0.1, make_rng(7), want_grads=False
        )
        return losses.l_total

    _, grads = group_losses_and_grads(
        small_model, params, norm, group, 0.1, make_rng(7)
    )
    fd = finite_diff_grad(loss_of, params.values)
    for key in grads:
        denom = max(np.max(np.abs(fd[key])), np.max(np.abs(grads[key])), 1e-4)
        rel = np.max(np.abs(grads[key] - fd[key])) / denom
        assert rel < 1e-4, f"{key}: rel err {rel}"


def _dense_group_losses_and_grads(model, params, normalizer, records, c_e, rng):
    """The dense meta-step that the factored one replaced: materialize W~,
    backprop the two losses through it into dense dL/dW~, then chain those
    through W~ = W - alpha * D~^T U~ into the editor."""
    k = len(records)
    eq_pairs = [rec.neighborhood[int(rng.integers(len(rec.neighborhood)))] for rec in records]
    tape = apply_edit_with_tape(model, params, normalizer, [(r.x_e, r.y_e) for r in records])
    pgs = {l: tape.pseudo_d[l].T @ tape.pseudo_u[l] for l in tape.alpha}
    edited = clone_with_weights(
        model, {l: model.weights[l] - tape.alpha[l] * pg for l, pg in pgs.items()})

    xs_eq = np.stack([x for x, _ in eq_pairs])
    ys_eq = np.array([y for _, y in eq_pairs], dtype=np.int64)
    logits_e, trace_e = forward(edited, xs_eq)
    logp = log_softmax(logits_e)
    l_e = -float(np.mean(logp[np.arange(k), ys_eq]))
    dlogits_e = np.exp(logp)
    dlogits_e[np.arange(k), ys_eq] -= 1.0
    xs_loc = np.stack([rec.x_loc for rec in records])
    pre_logits, _ = forward(model, xs_loc)
    post_logits, trace_loc = forward(edited, xs_loc)
    l_loc = float(np.mean(kl_divergence(pre_logits, post_logits)))
    dlogits_loc = softmax(post_logits) - softmax(pre_logits)
    _, wgrads_e, _ = backward(edited, trace_e, (c_e / k) * dlogits_e)
    _, wgrads_loc, _ = backward(edited, trace_loc, dlogits_loc / k)

    grads = zero_grads(params)
    for l, pg in pgs.items():
        G = wgrads_e[l] + wgrads_loc[l]
        grads[f"l:{l}:alpha"] += np.array(-float(np.sum(G * pg)))
        d_pg = -tape.alpha[l] * G
        g_d = tape.pseudo_u[l] @ d_pg.T
        g_u = tape.pseudo_d[l] @ d_pg
        _editor_backward(params, l, tape.editor_tapes[l], g_u, g_d, grads)
    return {"l_e": l_e, "l_loc": l_loc, **grads}


def _assert_close(got, want, tol=5e-14):
    """Every loss and gradient of `got` within `tol` of `want`, relative to
    the largest entry of each. Observed <= 7e-15; tight enough that a 1e-13
    relative change fails."""
    assert set(got) == set(want)
    for key in want:
        # the KL of two nearly equal distributions keeps the absolute rounding
        # error of its O(1) logits, so losses are compared on a scale of at
        # least one nat
        floor = 1.0 if key.startswith(("l_", "val")) else 1e-300
        scale = max(float(np.max(np.abs(want[key]))), floor)
        rel = float(np.max(np.abs(np.asarray(got[key]) - want[key]))) / scale
        assert rel <= tol, (key, rel)


@pytest.mark.parametrize("name", sorted(ABLATION_VARIANTS))
@pytest.mark.parametrize("layers", [[0, 1, 2], [1], [0, 2], [2]])
def test_factored_meta_step_matches_dense_reference(small_world, name, layers):
    # layers 1 and 2 share the 6x6 shape, layer 0 (16 -> 6) has its own
    variant = ABLATION_VARIANTS[name]
    model = init_mlp([16, 6, 6, 6], make_rng(2))
    rng = make_rng(3)
    params = init_editor(model, layers, 2, variant, rng)
    # move off the identity init so every editor block is exercised
    params.values = {
        k: v + 0.3 * np.asarray(rng.standard_normal(v.shape)) for k, v in params.values.items()
    }
    records = (small_world.edit_train + small_world.edit_test)[:40]
    norm = fit_normalizer(model, records, params) if variant.normalize else None
    for k in (1, 5, 25):
        group = records[-k:]
        losses, grads = group_losses_and_grads(model, params, norm, group, 0.1, make_rng(k))
        got = {"l_e": losses.l_e, "l_loc": losses.l_loc, **grads}
        want = _dense_group_losses_and_grads(model, params, norm, group, 0.1, make_rng(k))
        _assert_close(got, want)


def _reference_batched_grads(model, params, normalizer, groups, c_e, rng):
    """The per-group loop that the grouped step replaced: one
    `group_losses_and_grads` call per group, averaged over the groups."""
    total = zero_grads(params)
    le = lloc = 0.0
    for group in groups:
        losses, grads = group_losses_and_grads(model, params, normalizer, group, c_e, rng)
        le += losses.l_e
        lloc += losses.l_loc
        for key in total:
            total[key] += grads[key]
    b = len(groups)
    return {"l_e": le / b, "l_loc": lloc / b, "l_total": (c_e * le + lloc) / b,
            **{key: v / b for key, v in total.items()}}


def _reference_validation_loss(model, params, normalizer, records, c_e, seed, k):
    """The per-group sum that the one-pass `validation_loss` replaced."""
    groups = fact_groups(records, k)
    rng = make_rng(seed)
    total = sum(
        group_losses_and_grads(model, params, normalizer, g, c_e, rng, want_grads=False)[0].l_total
        for g in groups
    )
    return total / len(groups)


@pytest.mark.parametrize("name", sorted(ABLATION_VARIANTS))
def test_grouped_meta_step_matches_per_group_loop(small_world, name):
    variant = ABLATION_VARIANTS[name]
    model = init_mlp([16, 6, 6, 6], make_rng(2))
    rng = make_rng(3)
    params = init_editor(model, [0, 1, 2], 2, variant, rng)
    params.values = {
        k: v + 0.3 * np.asarray(rng.standard_normal(v.shape)) for k, v in params.values.items()
    }
    records = small_world.edit_train + small_world.edit_test
    norm = fit_normalizer(model, records, params) if variant.normalize else None
    for k in (1, 5, 25):
        for n_groups in (1, 3, 10):
            groups = [[records[i] for i in rng.choice(len(records), size=k, replace=False)]
                      for _ in range(n_groups)]
            rng_got, rng_want = make_rng(k + n_groups), make_rng(k + n_groups)
            losses, grads = group_losses_and_grads(model, params, norm, groups, 0.1, rng_got)
            got = {"l_e": losses.l_e, "l_loc": losses.l_loc, "l_total": losses.l_total, **grads}
            want = _reference_batched_grads(model, params, norm, groups, 0.1, rng_want)
            _assert_close(got, want)
            # the paraphrases are drawn group by group, record by record
            assert rng_got.bit_generator.state == rng_want.bit_generator.state
        val = validation_loss(model, params, norm, records, 0.1, seed=k, edits_per_step=k)
        want = _reference_validation_loss(model, params, norm, records, 0.1, k, k)
        _assert_close({"val": val}, {"val": want})


def _reference_record_step(model, params, normalizer, records, c_e, rng):
    """The record path that the table path replaced: each call checks its
    records, takes their factors on the base model through
    `apply_edit_with_tape` and forwards the base model at their locality
    inputs."""
    groups = [records] if records and isinstance(records[0], EditRecord) else records
    flat = [rec for g in groups for rec in g]
    for rec in flat:
        if rec.x_e is None or not rec.neighborhood or rec.x_loc is None:
            raise DataError("record must carry an edit pair, a neighborhood, and x_loc")
    eq_pairs = [rec.neighborhood[int(rng.integers(len(rec.neighborhood)))] for rec in flat]
    tape = apply_edit_with_tape(model, params, normalizer, [(rec.x_e, rec.y_e) for rec in flat])
    n = len(flat)
    n_groups, k = len(groups), n // len(groups)
    xs_eq = np.stack([x for x, _ in eq_pairs])
    ys_eq = np.array([y for _, y in eq_pairs], dtype=np.int64)
    xs_loc = np.stack([rec.x_loc for rec in flat])
    logits, trace = edited_forward(tape, np.concatenate(
        [xs_eq.reshape(n_groups, k, -1), xs_loc.reshape(n_groups, k, -1)], axis=1))
    logp = log_softmax(logits[:, :k].reshape(n, -1))
    l_e = -float(np.mean(logp[np.arange(n), ys_eq]))
    post_logits = logits[:, k:].reshape(n, -1)
    pre_logits, _ = forward(model, xs_loc)
    l_loc = float(np.mean(kl_divergence(pre_logits, post_logits)))
    dlogits_e = np.exp(logp)
    dlogits_e[np.arange(n), ys_eq] -= 1.0
    dlogits_loc = softmax(post_logits) - softmax(pre_logits)
    dlogits = np.concatenate([((c_e / n) * dlogits_e).reshape(n_groups, k, -1),
                              (dlogits_loc / n).reshape(n_groups, k, -1)], axis=1)
    return {"l_e": l_e, "l_loc": l_loc, "l_total": c_e * l_e + l_loc,
            **backprop_edit(params, trace, dlogits)}


@pytest.mark.parametrize("name", sorted(ABLATION_VARIANTS))
def test_table_step_matches_record_path(small_world, name):
    # one table over every record, as `train_editor` builds it; each group
    # is a row of indices into it
    variant = ABLATION_VARIANTS[name]
    model = init_mlp([16, 6, 6, 6], make_rng(2))
    rng = make_rng(3)
    params = init_editor(model, [0, 1, 2], 2, variant, rng)
    params.values = {
        k: v + 0.3 * np.asarray(rng.standard_normal(v.shape)) for k, v in params.values.items()
    }
    records = small_world.edit_train + small_world.edit_test
    norm = fit_normalizer(model, records, params) if variant.normalize else None
    table = build_factor_table(model, params.editable_layers, records)
    for k in (1, 5, 25):
        for n_groups in (1, 3, 10):
            rows = np.array([rng.choice(len(records), size=k, replace=False)
                             for _ in range(n_groups)])
            groups = [[records[i] for i in row] for row in rows]
            rng_got, rng_want = make_rng(k + n_groups), make_rng(k + n_groups)
            losses, grads = group_losses_and_grads(
                model, params, norm, TableGroups(table, rows), 0.1, rng_got)
            got = {"l_e": losses.l_e, "l_loc": losses.l_loc, "l_total": losses.l_total, **grads}
            want = _reference_record_step(model, params, norm, groups, 0.1, rng_want)
            _assert_close(got, want)
            # one neighborhood draw per record, in the record path's order
            assert rng_got.bit_generator.state == rng_want.bit_generator.state


@pytest.mark.parametrize("k", [1, 5])
def test_train_time_validation_equals_validation_loss(small_world, small_model, k):
    # train_editor validates through a table over its validation groups;
    # record every validation it makes and recompute it from the records
    val = small_world.edit_train[-12:]
    seen = []
    real = validation_loss

    def spy(model, params, normalizer, records, c_e, seed, edits_per_step):
        out = real(model, params, normalizer, records, c_e, seed, edits_per_step)
        seen.append((params.copy(), normalizer, out))
        return out

    cfg = TrainConfig(max_steps=6, batch_size=2, eval_every=3, edits_per_step=k)
    with patch("gradedit.training.validation_loss", side_effect=spy):
        _, _, log = train_editor(small_model, small_world.edit_train[:-12], val, cfg)
    assert [e["val_l_total"] for e in log if "val_l_total" in e] == [v for _, _, v in seen]
    assert len(seen) == 2
    for params, norm, got in seen:
        assert got == validation_loss(small_model, params, norm, val, cfg.c_e, cfg.seed + 1, k)


@pytest.mark.parametrize("defect", [{"x_loc": None}, {"neighborhood": []}, {"y_e": 99}],
                         ids=["x_loc", "neighborhood", "label"])
def test_train_editor_rejects_bad_record_before_any_step(small_world, small_model, defect):
    # the table checks every train record, not only those a step draws
    recs = list(small_world.edit_train)
    recs[len(recs) // 2] = dataclasses.replace(recs[len(recs) // 2], **defect)
    calls = []
    with patch("gradedit.training.group_losses_and_grads",
               side_effect=lambda *a, **kw: calls.append(a)):
        with pytest.raises(DataError):
            train_editor(small_model, recs, [], TrainConfig(max_steps=5, batch_size=1))
    assert calls == []


def test_group_losses_reject_unequal_groups(small_world, small_model):
    params, norm = _fresh_editor(small_model, small_world.edit_train[:20])
    groups = [small_world.edit_train[:2], small_world.edit_train[2:5]]
    with pytest.raises(ConfigError):
        group_losses_and_grads(small_model, params, norm, groups, 0.1, make_rng(0))


def test_train_editor_zero_steps_returns_fresh_editor(small_world, small_model):
    cfg = TrainConfig(max_steps=0)
    params, norm, log = train_editor(
        small_model, small_world.edit_train, [], cfg
    )
    fresh = init_editor(
        small_model, list(range(small_model.num_layers)), cfg.rank,
        VariantConfig(), make_rng(cfg.seed), cfg.alpha_init,
    )
    assert log == []
    for k in fresh.values:
        assert np.array_equal(np.asarray(params.values[k]), np.asarray(fresh.values[k]))
    assert norm is not None


def test_train_editor_is_deterministic(small_world, small_model):
    cfg = TrainConfig(max_steps=8, batch_size=2, eval_every=0)
    recs = small_world.edit_train
    a, _, log_a = train_editor(small_model, recs, [], cfg)
    b, _, log_b = train_editor(small_model, recs, [], cfg)
    assert log_a == log_b
    for k in a.values:
        assert np.array_equal(np.asarray(a.values[k]), np.asarray(b.values[k]))


def test_editor_values_stay_views_into_one_buffer(small_world, small_model):
    fresh = init_editor(small_model, [0, 1], 2, VariantConfig(), make_rng(0))
    assert all(np.shares_memory(v, fresh.values.flat) for v in fresh.values.values())
    cfg = TrainConfig(max_steps=10, batch_size=2, eval_every=0)
    params, _, log = train_editor(small_model, small_world.edit_train, [], cfg)
    assert len(log) == 10
    assert params.values.flat.size == params.num_parameters()
    for key, v in params.values.items():
        assert np.shares_memory(v, params.values.flat), key
    # the steps moved the editor through its buffer
    assert not np.array_equal(params.values.flat, init_editor(
        small_model, [0, 1], cfg.rank, VariantConfig(), make_rng(cfg.seed), cfg.alpha_init
    ).values.flat)


def test_best_snapshot_is_not_changed_by_later_steps(small_world, small_model):
    # the first validation is the best one; the steps after it must not
    # reach the snapshot taken there
    snapshots = []

    def fake_validation(model, params, *args):
        snapshots.append(params.copy())
        return float(len(snapshots))

    cfg = TrainConfig(max_steps=12, batch_size=2, eval_every=3, patience=10)
    with patch("gradedit.training.validation_loss", side_effect=fake_validation):
        best, _, log = train_editor(
            small_model, small_world.edit_train[:-8], small_world.edit_train[-8:], cfg
        )
    assert len(snapshots) == 4 and len(log) == 12
    assert np.array_equal(best.values.flat, snapshots[0].values.flat)
    assert not np.array_equal(best.values.flat, snapshots[-1].values.flat)


def test_train_editor_does_not_mutate_model(small_world, small_model):
    before_w = [w.copy() for w in small_model.weights]
    before_b = [b.copy() for b in small_model.biases]
    train_editor(
        small_model, small_world.edit_train, [], TrainConfig(max_steps=5, batch_size=2)
    )
    for w0, w1 in zip(before_w, small_model.weights):
        assert np.array_equal(w0, w1)
    for b0, b1 in zip(before_b, small_model.biases):
        assert np.array_equal(b0, b1)


def test_train_editor_empty_train_set():
    world = generate_world(
        WorldConfig(num_entities=4, num_relations=1, num_classes=3,
                    feature_dim=8, pretrain_per_fact=2, records_per_fact=1)
    )
    model, _ = pretrain_model(world, hidden_dims=(8,), epochs=2)
    with pytest.raises(DataError):
        train_editor(model, [], [], TrainConfig(max_steps=1))


def test_train_editor_rejects_k_above_fact_count(small_world, small_model):
    n_facts = len({r.fact_id for r in small_world.edit_train})
    cfg = TrainConfig(max_steps=1, edits_per_step=n_facts + 1, batch_size=1)
    with pytest.raises(DataError):
        train_editor(small_model, small_world.edit_train, [], cfg)


def test_train_editor_early_stops_and_logs_validation(small_world, small_model):
    cfg = TrainConfig(max_steps=200, batch_size=2, eval_every=5, patience=2)
    _, _, log = train_editor(
        small_model, small_world.edit_train[:-8], small_world.edit_train[-8:], cfg
    )
    val_entries = [e for e in log if "val_l_total" in e]
    assert val_entries, "validation losses should be logged"
    assert len(log) <= 200


def test_validation_loss_is_deterministic(small_world, small_model):
    params, norm = _fresh_editor(small_model, small_world.edit_train[:20])
    recs = small_world.edit_train[:12]
    a = validation_loss(small_model, params, norm, recs, 0.1, seed=3)
    b = validation_loss(small_model, params, norm, recs, 0.1, seed=3)
    assert a == b


def test_validation_loss_rejects_k_above_records(small_world, small_model):
    params, norm = _fresh_editor(small_model, small_world.edit_train[:20])
    recs = small_world.edit_train[:3]
    with pytest.raises(ConfigError):
        validation_loss(small_model, params, norm, recs, 0.1, seed=3, edits_per_step=4)


def test_train_editor_rejects_k_above_validation_set_before_any_step(small_world, small_model):
    val = small_world.edit_train[-3:]
    cfg = TrainConfig(max_steps=200, edits_per_step=4, batch_size=1, eval_every=50)
    calls = []
    with patch("gradedit.training.group_losses_and_grads",
               side_effect=lambda *a, **kw: calls.append(a)):
        with pytest.raises(ConfigError):
            train_editor(small_model, small_world.edit_train[:-3], val, cfg)
    assert calls == []


def _reference_finetune(model, xs, ys, editable, lr=0.1, max_steps=100):
    """The separate plain fine-tuning loop that `finetune_edit` replaced."""
    current = model
    for step in range(max_steps):
        logits, trace = forward(current, xs)
        if np.all(np.argmax(logits, axis=1) == ys):
            return current, step
        _, _, wgrads, _ = backward_nll(current, trace, ys)
        replacements = {l: current.weights[l] - (lr / len(ys)) * wgrads[l] for l in editable}
        current = clone_with_weights(current, replacements)
    return current, max_steps


def _reference_finetune_kl(model, xs, ys, loc_sampler, c_edit, editable, lr=0.1, max_steps=100):
    """The fine-tuning + KL loop as it stood beside `_reference_finetune`."""
    current = model
    for step in range(max_steps):
        logits, trace = forward(current, xs)
        if np.all(np.argmax(logits, axis=1) == ys):
            return current, step
        _, _, wgrads_e, _ = backward_nll(current, trace, ys)
        x_loc = loc_sampler()
        pre_logits, _ = forward(model, x_loc)
        cur_logits, trace_loc = forward(current, x_loc)
        dlogits = softmax(cur_logits[0]) - softmax(pre_logits[0])
        _, wgrads_kl, _ = backward(current, trace_loc, dlogits[None, :])
        replacements = {
            l: current.weights[l] - lr * ((c_edit / len(ys)) * wgrads_e[l] + wgrads_kl[l])
            for l in editable
        }
        current = clone_with_weights(current, replacements)
    return current, max_steps


@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("editable", [[0, 1], [1]])
def test_finetune_loops_match_reference_loops(small_world, small_model, batch, editable):
    recs = small_world.edit_test[: 4 * batch : 4]
    xs = np.stack([r.x_e for r in recs])
    ys = np.array([r.y_e for r in recs])
    pool = [r.x_loc for r in small_world.edit_train[:20]]

    def sampler(seed):
        rng = make_rng(seed)
        return lambda: pool[int(rng.integers(len(pool)))]

    x_arg, y_arg = (xs[0], int(ys[0])) if batch == 1 else (xs, ys)
    runs = [
        (finetune_edit(small_model, x_arg, y_arg, editable),
         _reference_finetune(small_model, xs, ys, editable)),
        (finetune_kl_edit(small_model, x_arg, y_arg, sampler(4), 0.5, editable),
         _reference_finetune_kl(small_model, xs, ys, sampler(4), 0.5, editable)),
    ]
    # one edit repeats the reference arithmetic to the last bit; a batch
    # scales the gradient before lr, which moves the weights by a few ulps
    for (got, steps), (want, want_steps) in runs:
        assert steps == want_steps > 0
        for a, b in zip(got.weights, want.weights):
            if batch == 1:
                assert np.array_equal(a, b)
            else:
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_finetune_edit_flips_argmax(small_world, small_model):
    rec = small_world.edit_test[0]
    edited, steps = finetune_edit(small_model, rec.x_e, rec.y_e)
    logits, _ = forward(edited, rec.x_e)
    assert int(np.argmax(logits[0])) == rec.y_e
    assert steps < 100
    # base model untouched
    logits_pre, _ = forward(small_model, rec.x_e)
    assert int(np.argmax(logits_pre[0])) != rec.y_e


def test_finetune_edit_respects_editable_layers(small_world, small_model):
    rec = small_world.edit_test[1]
    edited, _ = finetune_edit(small_model, rec.x_e, rec.y_e, editable_layers=[1])
    assert np.array_equal(edited.weights[0], small_model.weights[0])
    assert not np.array_equal(edited.weights[1], small_model.weights[1])


def test_finetune_edit_already_satisfied_is_identity(small_world, small_model):
    rec = small_world.edit_test[0]
    logits, _ = forward(small_model, rec.x_e)
    y_current = int(np.argmax(logits[0]))
    edited, steps = finetune_edit(small_model, rec.x_e, y_current)
    assert steps == 0
    for a, b in zip(edited.weights, small_model.weights):
        assert np.array_equal(a, b)


def test_finetune_edit_batch_of_edits(small_world, small_model):
    recs = [small_world.edit_test[i] for i in (0, 4)]
    xs = np.stack([r.x_e for r in recs])
    ys = [r.y_e for r in recs]
    edited, _ = finetune_edit(small_model, xs, ys)
    logits, _ = forward(edited, xs)
    assert np.array_equal(np.argmax(logits, axis=1), ys)


def test_finetune_kl_edit_flips_argmax_with_less_drift(small_world, small_model):
    rec = small_world.edit_test[2]
    pool = [r.x_loc for r in small_world.edit_train[:20]]
    sampler_rng = make_rng(0)
    edited, _ = finetune_kl_edit(
        small_model, rec.x_e, rec.y_e,
        lambda: pool[int(sampler_rng.integers(len(pool)))],
    )
    logits, _ = forward(edited, rec.x_e)
    assert int(np.argmax(logits[0])) == rec.y_e


def test_finetune_kl_edit_zero_edit_weight_changes_little(small_world, small_model):
    rec = small_world.edit_test[3]
    edited, steps = finetune_kl_edit(
        small_model, rec.x_e, rec.y_e, lambda: rec.x_loc, c_edit=0.0, max_steps=20
    )
    assert steps == 20  # the argmax never flips without an edit term
    for a, b in zip(edited.weights, small_model.weights):
        assert np.allclose(a, b, atol=1e-6)


def test_pretrain_model_fits_world(small_world):
    model, acc = pretrain_model(small_world, hidden_dims=(24,), epochs=40)
    assert acc >= 0.9
    assert accuracy(model, small_world.pretrain_x, small_world.pretrain_y) == acc


def test_accuracy_in_blocks_equals_one_forward(small_model):
    rng = make_rng(8)
    n = 2 * ACCURACY_BLOCK_ROWS + 37
    xs = rng.standard_normal((n, small_model.input_dim))
    logits, _ = forward(small_model, xs)
    # about half of the labels are the model's own predictions
    ys = np.where(rng.random(n) < 0.5, np.argmax(logits, axis=1),
                  rng.integers(small_model.num_classes, size=n))
    assert accuracy(small_model, xs, ys) == float(np.mean(np.argmax(logits, axis=1) == ys))


def test_accuracy_holds_one_block_of_activations():
    model = init_mlp([32, 512, 512, 8], make_rng(0))
    rng = make_rng(1)
    xs, ys = rng.standard_normal((5120, 32)), rng.integers(8, size=5120)
    tracemalloc.start()
    try:
        accuracy(model, xs, ys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
