"""Training-loop tests: loss composition, the structural meta-gradient
against finite differences, the factored meta-step against the dense one it
replaced, the grouped meta-step and validation against the per-group loops
they replaced, the group sampler against the `choice` sampler's stream,
determinism, early stopping, and the fine-tuning baselines."""

import dataclasses
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest

from gradedit import editor as editor_mod
from gradedit import mlp as mlp_mod
from gradedit import training as training_mod
from gradedit.bench import WorldConfig, fact_groups, generate_world
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
from gradedit.errors import ConfigError, DataError, ShapeError
from gradedit.evaluation import ABLATION_VARIANTS
from gradedit.mlp import (
    backward,
    backward_factors,
    backward_nll,
    clone_with_weights,
    forward,
    init_mlp,
    outer_sum,
)
from gradedit.ndops import ADAM_BLOCK, kl_divergence, log_softmax, make_rng, softmax
from gradedit.training import (
    ACCURACY_BLOCK_ROWS,
    FT_MAX_STEPS,
    TableGroups,
    TrainConfig,
    _tabulate,
    build_factor_table,
    accuracy,
    finetune_edit,
    finetune_kl_edit,
    group_losses_and_grads,
    pretrain_model,
    train_editor,
    validation_loss,
)

from oracles import finite_diff_grad, reference_pretrain


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
    {"editable_layers": [0.0]}, {"editable_layers": [True]}, {"editable_layers": [-1]},
    {"c_e": float("inf")}, {"meta_lr": float("inf")}, {"c_e": 10**400}, {"c_e": "0.1"},
    {"alpha_init": "x"}, {"alpha_init": float("nan")}, {"seed": -1}, {"seed": 1.0},
    {"meta_lr": 1.0 + 1e-9}, {"meta_lr": 1e300},
])
def test_train_config_rejects_every_bad_field(bad):
    with pytest.raises(ConfigError):
        TrainConfig(**bad)


@pytest.mark.parametrize("bad", [
    {"epochs": "x"}, {"epochs": -1}, {"batch_size": 0}, {"lr": "x"}, {"lr": 0.0},
    {"lr": float("inf")}, {"seed": -1}, {"hidden_dims": 5}, {"hidden_dims": [0]},
    {"hidden_dims": [8.0]}, {"lr": 1.0 + 1e-9}, {"lr": 1e300},
])
def test_pretrain_model_rejects_every_bad_argument(small_world, bad):
    with pytest.raises(ConfigError):
        pretrain_model(small_world, **bad)


def test_train_config_accepts_its_bounds():
    TrainConfig(c_e=0, max_steps=0, eval_every=0, edits_per_step=1, batch_size=1,
                patience=1, rank=1, meta_lr=1, editable_layers=[0])


def test_pretrain_model_accepts_its_largest_lr(small_world):
    pretrain_model(small_world, hidden_dims=(4,), epochs=0, lr=1.0)


def _fresh_editor(fit, model, records, variant=None, seed=0):
    variant = variant or VariantConfig()
    params = init_editor(
        model, list(range(model.num_layers)), 2, variant, make_rng(seed)
    )
    norm = fit(model, records, params) if variant.normalize else None
    return params, norm


def test_loss_composition_is_weighted_sum(small_world, small_model, table_normalizer):
    params, norm = _fresh_editor(table_normalizer, small_model, small_world.edit_train[:20])
    rec = small_world.edit_train[0]
    for c_e in (0.1, 0.7):
        losses, _ = group_losses_and_grads(
            small_model, params, norm, [rec], c_e, make_rng(0), want_grads=False
        )
        assert losses.l_total == pytest.approx(
            c_e * losses.l_e + losses.l_loc, abs=1e-15
        )


def test_group_losses_average_over_records(small_world, small_model, table_normalizer):
    params, norm = _fresh_editor(table_normalizer, small_model, small_world.edit_train[:20])
    group = [small_world.edit_train[0], small_world.edit_train[10]]
    losses, _ = group_losses_and_grads(
        small_model, params, norm, group, 0.1, make_rng(0), want_grads=False
    )
    assert np.isfinite(losses.l_e) and np.isfinite(losses.l_loc)
    assert losses.l_loc >= 0.0  # exact KL is non-negative


def test_meta_gradient_matches_finite_differences(small_world, small_model, table_normalizer):
    # checked at randomly perturbed editor parameters: at the exact identity
    # init the pre-activations sit on the relu kink, where the one-sided
    # subgradient and the central difference legitimately disagree
    rng = make_rng(5)
    params, norm = _fresh_editor(table_normalizer, small_model, small_world.edit_train[:30])
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
    edits = tape.model.edits  # layer -> (alpha, U~, D~)
    pgs = {l: pseudo_d.T @ pseudo_u for l, (_, pseudo_u, pseudo_d) in edits.items()}
    edited = clone_with_weights(
        model, {l: model.weights[l] - edits[l][0] * pg for l, pg in pgs.items()})

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
    _, wgrads_e = backward(trace_e, (c_e / k) * dlogits_e)
    _, wgrads_loc = backward(trace_loc, dlogits_loc / k)

    grads = zero_grads(params)
    for l, pg in pgs.items():
        G = wgrads_e[l] + wgrads_loc[l]
        grads[f"l:{l}:alpha"] += np.array(-float(np.sum(G * pg)))
        alpha, pseudo_u, pseudo_d = edits[l]
        d_pg = -alpha * G
        g_d = pseudo_u @ d_pg.T
        g_u = pseudo_d @ d_pg
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
def test_factored_meta_step_matches_dense_reference(small_world, name, layers, table_normalizer):
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
    norm = table_normalizer(model, records, params) if variant.normalize else None
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
def test_grouped_meta_step_matches_per_group_loop(small_world, name, table_normalizer):
    variant = ABLATION_VARIANTS[name]
    model = init_mlp([16, 6, 6, 6], make_rng(2))
    rng = make_rng(3)
    params = init_editor(model, [0, 1, 2], 2, variant, rng)
    params.values = {
        k: v + 0.3 * np.asarray(rng.standard_normal(v.shape)) for k, v in params.values.items()
    }
    records = small_world.edit_train + small_world.edit_test
    norm = table_normalizer(model, records, params) if variant.normalize else None
    for k in (1, 5, 25):
        for n_groups in (1, 3, 10):
            groups = [[records[i] for i in rng.choice(len(records), size=k, replace=False)]
                      for _ in range(n_groups)]
            rng_got, rng_want = make_rng(k + n_groups), make_rng(k + n_groups)
            tabled = _tabulate(model, params.editable_layers, groups)
            losses, grads = group_losses_and_grads(model, params, norm, tabled, 0.1, rng_got)
            got = {"l_e": losses.l_e, "l_loc": losses.l_loc, "l_total": losses.l_total, **grads}
            want = _reference_batched_grads(model, params, norm, groups, 0.1, rng_want)
            _assert_close(got, want)
            # the paraphrases are drawn group by group, record by record
            assert rng_got.bit_generator.state == rng_want.bit_generator.state
        val = validation_loss(model, params, norm, records, 0.1, seed=k, edits_per_step=k)
        want = _reference_validation_loss(model, params, norm, records, 0.1, k, k)
        _assert_close({"val": val}, {"val": want})


def _reference_record_step(model, params, normalizer, groups, c_e, rng):
    """The record path that the table path replaced: each call checks the
    records of its equal-size groups, takes their factors on the base model
    through `apply_edit_with_tape` and forwards the base model at their
    locality inputs."""
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
            **backprop_edit(trace, dlogits)}


@pytest.mark.parametrize("name", sorted(ABLATION_VARIANTS))
def test_table_step_matches_record_path(small_world, name, table_normalizer):
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
    norm = table_normalizer(model, records, params) if variant.normalize else None
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
    recs = list(small_world.edit_train)
    mid = recs[len(recs) // 2]
    if "y_e" not in defect:
        # a record without x_loc or a neighborhood cannot be built at all
        with pytest.raises(DataError):
            dataclasses.replace(mid, **defect)
        return
    # a label outside the model's classes builds, on the edit pair and on
    # every paraphrase, but the table rejects it: every train record is
    # checked, not only those a step draws
    recs[len(recs) // 2] = dataclasses.replace(
        mid, neighborhood=[(x, 99) for x, _ in mid.neighborhood], **defect)
    calls = []
    with patch("gradedit.training.group_losses_and_grads",
               side_effect=lambda *a, **kw: calls.append(a)):
        with pytest.raises(DataError):
            train_editor(small_model, recs, [], TrainConfig(max_steps=5, batch_size=1))
    assert calls == []


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


@pytest.mark.parametrize("pop", [1, 3, 28, 56, 120])
def test_integers_draws_the_stream_of_choice_of_one(pop):
    # the k=1 sampler's fact draw: numpy's no-replacement path for one item
    # makes one bounded draw, none for a population of 1
    a, b = make_rng(pop), make_rng(pop)
    for i in range(2000):
        assert int(a.choice(pop, size=1, replace=False)[0]) == int(b.integers(pop))
        assert int(a.integers(1 + i % 17)) == int(b.integers(1 + i % 17))
    assert a.bit_generator.state == b.bit_generator.state


def test_array_bounds_draw_the_stream_of_scalar_calls():
    # a step's paraphrase picks: one call with the neighborhood sizes as
    # bounds, bounds of 1 included
    for seed in range(300):
        bounds = make_rng([seed, 1]).integers(1, 40, size=1 + seed % 30)
        bounds[::4] = 1
        a, b = make_rng(seed), make_rng(seed)
        want = [int(a.integers(bound)) for bound in bounds.tolist()]
        assert b.integers(bounds).tolist() == want
        assert a.bit_generator.state == b.bit_generator.state


def _reference_sampler(model, records, cfg):
    """The groups of table rows that the `choice`-per-group sampler drew,
    step by step, with the generator state after each step's paraphrase
    draws (one scalar `integers` call per record)."""
    rng = make_rng(cfg.seed)
    init_editor(model, list(range(model.num_layers)), cfg.rank, VariantConfig(), rng,
                cfg.alpha_init)
    buckets = {}
    for row, rec in enumerate(records):
        buckets.setdefault(rec.fact_id, []).append(row)
    ids = sorted(buckets)
    steps = []
    for _ in range(cfg.max_steps):
        groups = []
        for _ in range(cfg.batch_size):
            picked = rng.choice(len(ids), size=cfg.edits_per_step, replace=False)
            groups.append([buckets[ids[f]][int(rng.integers(len(buckets[ids[f]])))]
                           for f in picked])
        for row in (row for group in groups for row in group):
            rng.integers(len(records[row].neighborhood))
        steps.append((groups, rng.bit_generator.state))
    return steps


@pytest.mark.parametrize("k", [1, 3])
def test_sampler_draws_the_choice_sampler_stream(small_world, small_model, monkeypatch, k):
    # equal buckets take one array-bounds draw per step at k=1; without the
    # last record, one fact has a record fewer and the loop draws instead
    cfg = TrainConfig(max_steps=6, batch_size=4, eval_every=0, edits_per_step=k)
    seen = []

    def recording(model, params, normalizer, groups, c_e, rng, **kw):
        out = group_losses_and_grads(model, params, normalizer, groups, c_e, rng, **kw)
        seen.append((groups.rows.tolist(), rng.bit_generator.state))
        return out

    monkeypatch.setattr(training_mod, "group_losses_and_grads", recording)
    for records in (small_world.edit_train, small_world.edit_train[:-1]):
        seen.clear()
        train_editor(small_model, records, [], cfg)
        assert seen == _reference_sampler(small_model, records, cfg)


@pytest.mark.parametrize("steps", [0, 3])
def test_train_editor_forwards_the_train_edit_pairs_once(
    small_world, small_model, monkeypatch, steps
):
    # one factor pass, `mlp.nll_factors`, feeds both the factor table and
    # the normalizer
    records = small_world.edit_train
    x_e = np.stack([rec.x_e for rec in records])
    passes = []
    for module in (training_mod, editor_mod, mlp_mod):
        def counting(model, batch, orig=module.forward, name=module.__name__):
            if model is small_model and np.array_equal(batch, x_e):
                passes.append(name)
            return orig(model, batch)
        monkeypatch.setattr(module, "forward", counting)
    _, norm, _ = train_editor(small_model, records, [], TrainConfig(max_steps=steps))
    assert norm is not None
    assert len(passes) == 1


@pytest.mark.parametrize("normalize", [True, False])
def test_train_editor_without_steps_runs_only_the_normalizer_pass(
    small_world, small_model, monkeypatch, normalize
):
    # no table: no locality forward and no neighborhood arrays, and no pass
    # at all when the variant does not normalize; the factor pass forwards
    # in `mlp.nll_factors`
    records, variant = small_world.edit_train, VariantConfig(normalize=normalize)
    batches = []
    for module in (training_mod, mlp_mod):
        def spy(model, batch, orig=module.forward):
            batches.append(np.array(batch))
            return orig(model, batch)
        monkeypatch.setattr(module, "forward", spy)
    params, norm, log = train_editor(small_model, records, [], TrainConfig(max_steps=0), variant)
    monkeypatch.undo()
    fresh = init_editor(small_model, list(range(small_model.num_layers)), 4, variant,
                        make_rng(0), 1e-2)
    assert log == [] and np.array_equal(params.values.flat, fresh.values.flat)
    if not normalize:
        assert batches == [] and norm is None
        return
    assert len(batches) == 1 and np.array_equal(batches[0], [rec.x_e for rec in records])
    table = build_factor_table(small_model, params.editable_layers, records)
    want = fit_normalizer(params, table.u, table.delta)
    for name in ("mean_u", "var_u", "mean_d", "var_d"):
        got, ref = getattr(norm, name), getattr(want, name)
        assert list(got) == list(ref)
        assert all(np.array_equal(got[key], ref[key]) for key in ref), name


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


def test_validation_loss_is_deterministic(small_world, small_model, table_normalizer):
    params, norm = _fresh_editor(table_normalizer, small_model, small_world.edit_train[:20])
    recs = small_world.edit_train[:12]
    a = validation_loss(small_model, params, norm, recs, 0.1, seed=3)
    b = validation_loss(small_model, params, norm, recs, 0.1, seed=3)
    assert a == b


def test_validation_loss_rejects_k_above_records(small_world, small_model, table_normalizer):
    params, norm = _fresh_editor(table_normalizer, small_model, small_world.edit_train[:20])
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


def _close_to_reference(a, b):
    """Whether `a` matches the reference `b` within 1e-12 of b's largest entry."""
    return np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def _separate_finetune(model, xs, ys, editable, lr=0.1, max_steps=100):
    """The separate plain fine-tuning loop that `finetune_edit` replaced."""
    current = model
    for step in range(max_steps):
        logits, trace = forward(current, xs)
        if np.all(np.argmax(logits, axis=1) == ys):
            return current, step
        _, _, wgrads = backward_nll(trace, ys)
        replacements = {l: current.weights[l] - (lr / len(ys)) * wgrads[l] for l in editable}
        current = clone_with_weights(current, replacements)
    return current, max_steps


def _separate_finetune_kl(model, xs, ys, loc_sampler, c_edit, editable, lr=0.1, max_steps=100):
    """The fine-tuning + KL loop as it stood beside `_separate_finetune`."""
    current = model
    for step in range(max_steps):
        logits, trace = forward(current, xs)
        if np.all(np.argmax(logits, axis=1) == ys):
            return current, step
        _, _, wgrads_e = backward_nll(trace, ys)
        x_loc = loc_sampler()
        pre_logits, _ = forward(model, x_loc)
        cur_logits, trace_loc = forward(current, x_loc)
        dlogits = softmax(cur_logits[0]) - softmax(pre_logits[0])
        _, wgrads_kl = backward(trace_loc, dlogits[None, :])
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
    loc_inputs = _loc_draws([r.x_loc for r in small_world.edit_train[:20]], 4)
    x_arg, y_arg = (xs[0], int(ys[0])) if batch == 1 else (xs, ys)
    runs = [
        (False, finetune_edit(small_model, x_arg, y_arg, editable),
         _separate_finetune(small_model, xs, ys, editable)),
        (True, finetune_kl_edit(small_model, x_arg, y_arg, loc_inputs, 0.5, editable),
         _separate_finetune_kl(small_model, xs, ys, iter(loc_inputs).__next__, 0.5, editable)),
    ]
    # one FT edit repeats the reference arithmetic to the last bit; a batch
    # scales the gradient before lr, and FT+KL sums its edit and KL rows in
    # one reverse pass, which moves the weights by a few ulps
    for kl, (got, steps), (want, want_steps) in runs:
        assert steps == want_steps > 0
        for a, b in zip(got.weights, want.weights):
            if batch == 1 and not kl:
                assert np.array_equal(a, b)
            else:
                assert _close_to_reference(a, b)


def _reference_finetune(model, x_e, y_e, loc_sampler, c_edit=0.5, editable_layers=None,
                        lr=0.1, max_steps=100):
    """`finetune_kl_edit` as it stood before it skipped the KL pass at step 0:
    a KL forward pair and backward on every step."""
    editable = list(dict.fromkeys(editable_layers if editable_layers is not None
                                  else range(model.num_layers)))
    xs = np.atleast_2d(np.asarray(x_e, dtype=np.float64))
    ys = np.atleast_1d(np.asarray(y_e, dtype=np.int64))
    current = model
    for step in range(max_steps):
        logits, trace = forward(current, xs)
        if np.all(np.argmax(logits, axis=1) == ys):
            return current, step
        _, _, wgrads = backward_nll(trace, ys)
        grads = {l: np.multiply(c_edit / len(ys), wgrads[l], out=wgrads[l]) for l in editable}
        if loc_sampler is not None:
            x_loc = loc_sampler()
            pre_logits, _ = forward(model, x_loc)
            cur_logits, trace_loc = forward(current, x_loc)
            dlogits = softmax(cur_logits[0]) - softmax(pre_logits[0])
            _, wgrads_kl = backward(trace_loc, dlogits[None, :])
            for l in editable:
                grads[l] += wgrads_kl[l]
        for l, g in grads.items():
            np.subtract(current.weights[l], np.multiply(lr, g, out=g), out=g)
        current = clone_with_weights(current, grads)
    return current, max_steps


def _loc_draws(pool, seed):
    """`FT_MAX_STEPS` locality inputs from `pool`, one `integers` call each on
    a generator seeded with `seed`."""
    rng = make_rng(seed)
    return [pool[int(rng.integers(len(pool)))] for _ in range(FT_MAX_STEPS)]


# at k=1 the outer products of the wide model's (256, 300) layer are formed by
# einsum; at lr 0.1 it takes one step at k=1, so it never reaches the KL pass
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("kl", [True, False], ids=["ft_kl", "ft"])
@pytest.mark.parametrize("model_name, layers, lr", [("small_model", None, 0.1),
                                                    ("small_model", [1], 0.1),
                                                    ("wide_model", None, 0.03)],
                         ids=["all_layers", "layer_1", "wide"])
def test_finetune_kl_edit_matches_parent_loop(request, small_world, model_name, k, kl, layers,
                                              lr):
    model = request.getfixturevalue(model_name)
    pool = [r.x_loc for r in small_world.edit_train[:20]]
    most_steps = 0
    for seed in range(3):
        recs = small_world.edit_test[seed : seed + 4 * k : 4]
        xs, ys = np.stack([r.x_e for r in recs]), [r.y_e for r in recs]
        c_edit = 0.5 if kl else 1.0
        loc_inputs = _loc_draws(pool, seed) if kl else None
        got, steps = finetune_kl_edit(model, xs, ys, loc_inputs, c_edit, layers, lr)
        want, want_steps = _reference_finetune(model, xs, ys,
                                               iter(loc_inputs).__next__ if kl else None,
                                               c_edit, layers, lr)
        # FT repeats the parent's arithmetic to the last bit; FT+KL sums its
        # edit and KL rows in one reverse pass, a few ulps from the parent's two
        assert steps == want_steps
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert _close_to_reference(a, b) if kl else np.array_equal(a, b)
        if kl:  # step 0 reads no locality input: a NaN one changes nothing
            nan_first = [np.full_like(loc_inputs[0], np.nan)] + loc_inputs[1:]
            again, _ = finetune_kl_edit(model, xs, ys, nan_first, c_edit, layers, lr)
            for a, b in zip(again.weights + again.biases, got.weights + got.biases):
                assert np.array_equal(a, b)
        most_steps = max(most_steps, steps)
    assert most_steps >= 2


def test_finetune_kl_edit_runs_no_kl_pass_at_step_0(small_world, small_model):
    rec = small_world.edit_test[0]
    loc_inputs = _loc_draws([r.x_loc for r in small_world.edit_train[:20]], 0)
    counts = {}
    for name, fn, target, locs in [
        ("new", finetune_kl_edit, "gradedit.training.forward", loc_inputs),
        ("parent", _reference_finetune, f"{__name__}.forward", iter(loc_inputs).__next__),
    ]:
        with patch(target, side_effect=forward) as spy:
            _, steps = fn(small_model, rec.x_e, rec.y_e, locs, lr=1.0)
        assert steps == 1
        counts[name] = spy.call_count
    # one forward at the edit input per step and a final check; the parent
    # added a pristine and a current forward at x_loc on step 0
    assert counts == {"new": 2, "parent": 4}


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("kl", [True, False], ids=["ft_kl", "ft"])
def test_finetune_passes_per_step(small_world, small_model, k, kl):
    # a step with a KL term forwards the current model once over the B edit
    # rows and the locality row, forwards the pristine model at that row,
    # and makes one `backward` pass over all B+1 rows; a step without one
    # (every FT step, FT+KL's step 0) makes one backward_nll call over the B
    # rows
    recs = small_world.edit_test[2 : 2 + 4 * k : 4]
    xs, ys = np.stack([r.x_e for r in recs]), [r.y_e for r in recs]
    loc_inputs = _loc_draws([r.x_loc for r in small_world.edit_train[:20]], 0) if kl else None
    calls = []

    def spy(name, fn, rows=lambda a: len(np.atleast_2d(a))):
        # rows of the argument after the model or trace: the input batch,
        # logit gradient or labels; a reverse pass reads its model from the
        # trace it takes first
        def call(first, *args):
            model = first if name == "forward" else first.model
            calls.append((name, "pre" if model is small_model else "current", rows(args[0])))
            return fn(first, *args)
        return call

    with patch("gradedit.training.forward", spy("forward", forward)), \
            patch("gradedit.training.backward", spy("backward", backward)), \
            patch("gradedit.training.backward_nll", spy("backward_nll", backward_nll, len)):
        _, steps = finetune_kl_edit(small_model, xs, ys, loc_inputs, 0.5 if kl else 1.0)
    assert steps >= 2
    b = len(ys)
    later = ([("forward", "current", b + 1), ("forward", "pre", 1),
              ("backward", "current", b + 1)]
             if kl else [("forward", "current", b), ("backward_nll", "current", b)])
    final = ("forward", "current", b + 1 if kl else b)
    assert calls == [("forward", "pre", b), ("backward_nll", "pre", b),
                     *later * (steps - 1), final]


@pytest.mark.parametrize("kl, least", [(True, 3), (False, 2)], ids=["ft_kl", "ft"])
def test_finetune_copies_the_model_once(small_world, small_model, kl, least):
    # step 0 copies the model; later steps write into that copy in place
    loc_inputs = _loc_draws([r.x_loc for r in small_world.edit_train[:20]], 0) if kl else None
    for rec in small_world.edit_test:
        with patch("gradedit.training.clone_with_weights",
                   side_effect=clone_with_weights) as spy:
            out, steps = finetune_kl_edit(small_model, rec.x_e, rec.y_e, loc_inputs,
                                          0.5 if kl else 1.0, lr=0.03)
        if steps >= least:
            break
    assert steps >= least
    assert spy.call_count == 1
    for a in out.weights + out.biases:
        assert not any(np.may_share_memory(a, b)
                       for b in small_model.weights + small_model.biases)


def test_finetune_kl_step_forms_only_editable_gradients(small_world, small_model):
    # every FT+KL step, its step 0's `backward_nll` pass too, forms the
    # weight gradients of the editable layers only, through `mlp.backward`
    rec = small_world.edit_test[2]
    loc_inputs = _loc_draws([r.x_loc for r in small_world.edit_train[:20]], 0)
    shapes = []

    def spy(delta, u):
        shapes.append((delta.shape[1], u.shape[1]))
        return outer_sum(delta, u)

    with patch("gradedit.mlp.outer_sum", spy):
        _, steps = finetune_kl_edit(small_model, rec.x_e, rec.y_e, loc_inputs,
                                    editable_layers=[1], lr=0.03)
    assert steps >= 3
    assert shapes == [small_model.weights[1].shape] * steps


@pytest.mark.parametrize("kl", [True, False], ids=["ft_kl", "ft"])
def test_finetune_kl_step_walks_down_to_the_lowest_editable_layer(kl):
    # every reverse pass of fine-tuning, FT's steps and FT+KL's step 0 too,
    # stops at the lowest editable layer, 2: it forms no delta below it and
    # only layer 2's (4, 64) weight gradient. The weights and step count are
    # those of a pass down to layer 0
    rng = make_rng(6)
    model = init_mlp([16, 64, 64, 4], rng)
    xs = rng.standard_normal((3, 16))
    ys = (np.argmax(forward(model, xs)[0], axis=1) + 1) % 4
    loc_inputs = list(rng.standard_normal((FT_MAX_STEPS, 16))) if kl else None
    runs = {}
    for name, walk in (("lowest", backward_factors),
                       ("full", lambda trace, dlogits, lowest=0: backward_factors(trace, dlogits))):
        walked, products = [], []

        def spy(*args, walk=walk, walked=walked):
            walked.append(walk(*args))
            return walked[-1]

        def product(delta, u, products=products):
            products.append((delta.shape[1], u.shape[1]))
            return outer_sum(delta, u)

        with patch("gradedit.mlp.backward_factors", spy), patch("gradedit.mlp.outer_sum", product):
            edited, steps = finetune_kl_edit(model, xs, ys, loc_inputs, 0.5 if kl else 1.0, [2])
        runs[name] = edited, steps, walked, products
    (edited, steps, walked, products), (want, want_steps, full, _) = runs["lowest"], runs["full"]
    assert steps == want_steps >= 3
    assert len(walked) == len(full) == steps  # one pass per step
    assert all(d[0] is None and d[1] is None and d[2] is not None for d in walked)
    assert all(d[0] is not None for d in full)
    assert products == [(4, 64)] * steps
    for a, b in zip(edited.weights + edited.biases, want.weights + want.biases, strict=True):
        assert np.array_equal(a, b)


def test_finetune_kl_edit_fills_and_reads_pre_probs(small_world, small_model):
    # a filled slot is read, an empty one filled, with equal results
    loc_inputs = _loc_draws([r.x_loc for r in small_world.edit_train[:20]], 0)
    slots = [None] * len(loc_inputs)
    for rec in small_world.edit_test[:8]:
        want, want_steps = finetune_kl_edit(small_model, rec.x_e, rec.y_e, loc_inputs)
        got, steps = finetune_kl_edit(small_model, rec.x_e, rec.y_e, loc_inputs,
                                      pre_probs=slots)
        assert steps == want_steps
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.array_equal(a, b)
        filled = [s for s, p in enumerate(slots) if p is not None]
        assert filled == list(range(1, max(filled, default=0) + 1))
        for s in filled:
            assert np.array_equal(slots[s], softmax(forward(small_model, loc_inputs[s])[0]))
    assert len(filled) >= 2
    with pytest.raises(ShapeError):
        finetune_kl_edit(small_model, rec.x_e, rec.y_e, loc_inputs, pre_probs=slots[:-1])
    with pytest.raises(ShapeError):
        finetune_kl_edit(small_model, rec.x_e, rec.y_e, None, pre_probs=slots)


@pytest.mark.parametrize("kl", [True, False], ids=["ft_kl", "ft"])
@pytest.mark.parametrize("max_steps", [100, 0])
def test_finetune_zero_steps_returns_a_copy(small_world, small_model, kl, max_steps):
    rec = small_world.edit_test[0]
    y_now = int(np.argmax(forward(small_model, rec.x_e)[0][0]))
    loc_inputs = [rec.x_loc] * max_steps if kl else None
    out, steps = finetune_kl_edit(small_model, rec.x_e, y_now, loc_inputs, max_steps=max_steps)
    assert steps == 0
    assert out is not small_model
    for a, b in zip(out.weights + out.biases, small_model.weights + small_model.biases):
        assert np.array_equal(a, b)
        assert not np.may_share_memory(a, b)


@pytest.mark.parametrize("layers", [[5], [-1], [], [0.0], [True], ["0"]],
                         ids=["above", "negative", "empty", "float", "bool", "string"])
def test_finetune_kl_edit_rejects_impossible_layers(small_world, small_model, layers):
    rec = small_world.edit_test[0]
    with patch("gradedit.training.forward", side_effect=forward) as spy:
        with pytest.raises(ConfigError):
            finetune_kl_edit(small_model, rec.x_e, rec.y_e, [rec.x_loc] * FT_MAX_STEPS,
                             editable_layers=layers)
        with pytest.raises(ConfigError):
            finetune_edit(small_model, rec.x_e, rec.y_e, editable_layers=layers)
    assert spy.call_count == 0


@pytest.mark.parametrize("max_steps", [1, FT_MAX_STEPS])
def test_finetune_kl_edit_rejects_too_few_locality_inputs(small_world, small_model, max_steps):
    rec = small_world.edit_test[0]
    with patch("gradedit.training.forward", side_effect=forward) as spy:
        with pytest.raises(ShapeError):
            finetune_kl_edit(small_model, rec.x_e, rec.y_e, [rec.x_loc] * (max_steps - 1),
                             max_steps=max_steps)
    assert spy.call_count == 0


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
    loc_inputs = _loc_draws([r.x_loc for r in small_world.edit_train[:20]], 0)
    edited, _ = finetune_kl_edit(small_model, rec.x_e, rec.y_e, loc_inputs)
    logits, _ = forward(edited, rec.x_e)
    assert int(np.argmax(logits[0])) == rec.y_e


def test_finetune_kl_edit_zero_edit_weight_changes_little(small_world, small_model):
    rec = small_world.edit_test[3]
    edited, steps = finetune_kl_edit(
        small_model, rec.x_e, rec.y_e, [rec.x_loc] * 20, c_edit=0.0, max_steps=20
    )
    assert steps == 20  # the argmax never flips without an edit term
    for a, b in zip(edited.weights, small_model.weights):
        assert np.allclose(a, b, atol=1e-6)


def test_pretrain_model_fits_world(small_world):
    model, acc = pretrain_model(small_world, hidden_dims=(24,), epochs=40)
    assert acc >= 0.9
    assert accuracy(model, small_world.pretrain_x, small_world.pretrain_y) == acc


@pytest.mark.parametrize("batch_size", [57, 32])
def test_pretrain_model_matches_the_per_tensor_loop(small_world, batch_size):
    # 400 rows: seven batches of 57 and a last of one row, or twelve of 32
    # and a last of 16; (300, 256) hidden layers hold 83,698 parameters,
    # several Adam blocks
    assert len(small_world.pretrain_x) == 400
    model, acc = pretrain_model(small_world, hidden_dims=(300, 256), epochs=3,
                                batch_size=batch_size)
    want, want_acc = reference_pretrain(small_world, (300, 256), 3, batch_size)
    assert sum(w.size + b.size for w, b in zip(model.weights, model.biases)) > 2 * ADAM_BLOCK
    for got, ref in zip(model.weights + model.biases, want.weights + want.biases):
        assert np.array_equal(got, ref)
    assert acc == want_acc


def test_pretrain_batch_forms_no_weight_sized_gradient(small_world, monkeypatch):
    # each batch writes its gradients into the flat gradient vector, so the
    # peak is the run's four flat vectors (parameters, gradients and Adam's
    # two moments) and Adam's block-sized scratch, plus a batch's
    # activations: less than one 256x256 weight more. The final accuracy,
    # whose forward holds all 400 rows, is not what this measures.
    monkeypatch.setattr(training_mod, "accuracy", lambda *args: 1.0)
    dims = [small_world.config.feature_dim, 256, 256, small_world.config.num_classes]
    flat_bytes = 8 * sum(n * m + n for m, n in zip(dims, dims[1:]))
    tracemalloc.start()
    try:
        pretrain_model(small_world, hidden_dims=(256, 256), epochs=1, batch_size=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * flat_bytes + 2 * 8 * ADAM_BLOCK + 256 * 256 * 8


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


def test_finetune_step_peak_memory_is_its_dense_gradients():
    # one FT step writes the new weights into the dense gradients that
    # backward_nll returns, and allocates no other weight-sized array
    model = init_mlp([16, 256, 256, 4], make_rng(2))
    x = make_rng(5).standard_normal(16)
    y = (int(np.argmax(forward(model, x)[0][0])) + 1) % 4
    finetune_kl_edit(model, x, y, None, 1.0, max_steps=1)
    tracemalloc.start()
    try:
        edited, steps = finetune_kl_edit(model, x, y, None, 1.0, max_steps=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert steps == 1
    out_bytes = sum(a.nbytes for a in edited.weights + edited.biases)
    assert peak < out_bytes + 256 * 256 * 8
