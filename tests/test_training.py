"""Training-loop tests: loss composition, the structural meta-gradient
against finite differences, determinism, early stopping, and the
fine-tuning baselines."""

import numpy as np
import pytest

from gradedit.bench import WorldConfig, generate_world
from gradedit.editor import VariantConfig, fit_normalizer, init_editor
from gradedit.errors import ConfigError, DataError
from gradedit.mlp import backward, backward_nll, clone_with_weights, forward
from gradedit.ndops import softmax
from gradedit.ndops import finite_diff_grad, make_rng
from gradedit.training import (
    TrainConfig,
    accuracy,
    finetune_edit,
    finetune_kl_edit,
    group_losses_and_grads,
    pretrain_model,
    train_editor,
    validation_loss,
)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(c_e=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(edits_per_step=0)
    assert TrainConfig().c_e == 0.1  # default edit-loss weight


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
