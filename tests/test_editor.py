"""Editor-network tests: identity initialization, variant switches, shape
sharing, normalization statistics, the outer-product edit rule, the factored
edited model against its formed dense weights, the factored edited forward
against the materialized edit, the hand-rolled reverse pass
against the finite-difference oracle, the row-batched edit path against a
per-row reference loop, and a batch of groups against separate groups."""

import json
import tracemalloc
from dataclasses import make_dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from gradedit import mlp as mlp_mod
from gradedit.editor import (
    EditorParams,
    Normalizer,
    VariantConfig,
    _editor_apply,
    apply_edit,
    apply_edit_with_tape,
    backprop_edit,
    edited_forward,
    fit_normalizer,
    init_editor,
    load_editor,
    save_editor,
    training_key,
    zero_grads,
)
from gradedit.errors import ConfigError, DataError, ShapeError
from gradedit.evaluation import ABLATION_VARIANTS
from gradedit.mlp import Mlp, backward, backward_factors, backward_nll, forward, init_mlp
from gradedit.ndops import make_rng, relu, relu_grad

from oracles import dense_edit_weight, editor_forward, finite_diff_grad


def _editor_for(model, rank=2, variant=None, alpha=1e-2, seed=0, layers=None):
    layers = layers if layers is not None else list(range(model.num_layers))
    return init_editor(model, layers, rank, variant or VariantConfig(), make_rng(seed), alpha)


def test_training_key_tells_apart_what_training_depends_on():
    # layer shapes (m, n): 0 is 16x24, 1 and 2 are 24x24, 3 is 24x6
    model = init_mlp([16, 24, 24, 24, 6], make_rng(0))

    def key(layers, variant=None, **kw):
        return training_key(_editor_for(model, variant=variant or VariantConfig(**kw),
                                        layers=layers))

    # sharing matters only where two layers have one shape
    assert key([0, 3], share_params=False) == key([0, 3])
    assert key([1, 2], share_params=False) != key([1, 2])
    assert key([0, 3], normalize=False) != key([0, 3])
    assert key([0, 3], identity_init=False) != key([0, 3])
    assert key([0]) != key([3])
    # m < n on layer 0: only_smaller maps u, as only_u does
    on_0 = {t: key([0], transform=t) for t in ("both", "only_u", "only_delta", "only_smaller")}
    assert on_0["only_smaller"] == on_0["only_u"] and len(set(on_0.values())) == 3
    # a square layer: only_u and only_delta have one shape but differ
    assert key([1], transform="only_u") != key([1], transform="only_delta")
    # a field added to the variant enters the key as it is
    extended = make_dataclass("Extended", [("scale", float, 1.0)], bases=(VariantConfig,))
    assert key([0], extended(scale=2.0)) != key([0], extended())


# ---------------------------------------------------------------- variants


def test_variant_rejects_unknown_transform():
    with pytest.raises(ConfigError):
        VariantConfig(transform="everything")


@pytest.mark.parametrize("name", ["share_params", "normalize", "identity_init"])
def test_variant_switches_must_be_bools(name):
    # "" or 0 would silently turn a switch off, "no" would turn it on
    for bad in ("", "no", 0, 1, None):
        with pytest.raises(ConfigError, match=name):
            VariantConfig(**{name: bad})


def test_transformed_parts_and_width():
    v = VariantConfig()
    assert v.transformed_parts(8, 4) == ("u", "delta")
    assert v.editor_width(8, 4) == 12
    assert VariantConfig(transform="only_u").editor_width(8, 4) == 8
    assert VariantConfig(transform="only_delta").editor_width(8, 4) == 4
    smaller = VariantConfig(transform="only_smaller")
    assert smaller.transformed_parts(8, 4) == ("delta",)
    assert smaller.transformed_parts(4, 8) == ("u",)
    assert smaller.transformed_parts(5, 5) == ("u",)  # tie goes to u


# ------------------------------------------------------- init and sharing


def test_init_editor_validates_layers_and_rank():
    model = init_mlp([6, 5, 4], make_rng(0))
    with pytest.raises(ConfigError):
        init_editor(model, [], 2, VariantConfig(), make_rng(0))
    with pytest.raises(ConfigError):
        init_editor(model, [7], 2, VariantConfig(), make_rng(0))
    # a float index or a bool is not a layer: [True] would name tensors "l:True:s1"
    for layers in ([1.0], [True], [-1], "0"):
        with pytest.raises(ConfigError):
            init_editor(model, layers, 2, VariantConfig(), make_rng(0))
    with pytest.raises(ConfigError):
        init_editor(model, [0], 0, VariantConfig(), make_rng(0))
    with pytest.raises(ConfigError):
        init_editor(model, [0], 999, VariantConfig(), make_rng(0))


def test_parameter_count_by_hand():
    # one 8->4 layer, rank 2, width 12:
    #   shared block: V1,V2 (2x12 each) + U1,U2 (12x2 each) + b1 (12) = 108
    #   per-layer: s1,o1,s2,o2 (12 each) + alpha = 49
    model = init_mlp([8, 4], make_rng(0))
    params = _editor_for(model, rank=2)
    assert params.num_parameters() == 108 + 49


def test_shape_sharing_reuses_one_block():
    # dims [8, 8, 8]: both layers are 8x8, so sharing keeps one shared block
    model = init_mlp([8, 8, 8], make_rng(0))
    shared = _editor_for(model, rank=2)
    separate = _editor_for(model, rank=2, variant=VariantConfig(share_params=False))
    group_keys = {k for k in shared.values if k.startswith("g:")}
    assert len({shared.layer_group[l] for l in (0, 1)}) == 1
    assert len({separate.layer_group[l] for l in (0, 1)}) == 2
    # width 16, rank 2: shared block = 2*(2*16) + 2*(16*2) + 16 = 144
    assert separate.num_parameters() - shared.num_parameters() == 144
    assert len(group_keys) == 5


def test_editor_params_copy_is_deep():
    model = init_mlp([6, 4], make_rng(0))
    params = _editor_for(model)
    cp = params.copy()
    key = next(iter(cp.values))
    cp.values[key] += 1.0  # in place, into the copy's own buffer
    assert not np.array_equal(cp.values[key], params.values[key])
    assert not np.shares_memory(cp.values.flat, params.values.flat)
    assert all(np.shares_memory(v, cp.values.flat) for v in cp.values.values())


# ------------------------------------------------------------ normalizer


def test_normalizer_hand_statistics():
    norm = Normalizer(
        eps=1e-6,
        mean_u={"k": np.array([1.0])},
        var_u={"k": np.array([1.0])},
        mean_d={"k": np.array([0.0])},
        var_d={"k": np.array([4.0])},
    )
    assert np.allclose(norm.norm_u("k", np.array([0.0])), [-1.0])
    assert np.allclose(norm.norm_u("k", np.array([2.0])), [1.0])
    assert np.allclose(norm.norm_d("k", np.array([6.0])), [3.0])


def _per_record_normalizer_stats(model, records, params, eps=1e-6):
    """The per-record factor loop that `fit_normalizer` replaced."""
    pools_u = {k: [] for k in params.group_dims}
    pools_d = {k: [] for k in params.group_dims}
    for rec in records:
        _, trace = forward(model, rec.x_e)
        _, deltas, _ = backward_nll(trace, np.array([rec.y_e]))
        for l in params.editable_layers:
            pools_u[params.layer_group[l]].append(trace.inputs[l][0])
            pools_d[params.layer_group[l]].append(deltas[l][0])
    stats = {}
    for key in params.group_dims:
        us, ds = np.stack(pools_u[key]), np.stack(pools_d[key])
        stats[key] = (us.mean(axis=0), np.maximum(us.var(axis=0), eps),
                      ds.mean(axis=0), np.maximum(ds.var(axis=0), eps))
    return stats


def _factor_record(x, y):
    """A record with the fields a factor table reads: its edit pair is also
    its neighborhood and its locality input."""
    return SimpleNamespace(x_e=x, y_e=y, neighborhood=[(x, y)], x_loc=x)


def _assert_normalizer_matches_loop(fit, model, records, params):
    norm = fit(model, records, params)
    want = _per_record_normalizer_stats(model, records, params)
    assert set(norm.mean_u) == set(want)
    for key, stats in want.items():
        got = (norm.mean_u[key], norm.var_u[key], norm.mean_d[key], norm.var_d[key])
        for g, w in zip(got, stats):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-12 * max(np.max(np.abs(w)), 1e-300), key


def test_fit_normalizer_matches_manual_stats(small_world, small_model, table_normalizer):
    for variant in (VariantConfig(), VariantConfig(share_params=False)):
        params = _editor_for(small_model, variant=variant)
        _assert_normalizer_matches_loop(table_normalizer, small_model,
                                        small_world.edit_train[:20], params)
    # layers 0 and 1 are both 6x6 and share one editor group, whose stats
    # pool the factor rows of both layers
    model = init_mlp([6, 6, 6, 4], make_rng(3))
    rng = make_rng(4)
    records = [_factor_record(rng.standard_normal(6), int(rng.integers(4))) for _ in range(25)]
    params = _editor_for(model)
    assert params.layer_group[0] == params.layer_group[1] != params.layer_group[2]
    _assert_normalizer_matches_loop(table_normalizer, model, records, params)
    _assert_normalizer_matches_loop(table_normalizer, model, records,
                                    _editor_for(model, layers=[1, 2]))


def test_fit_normalizer_rejects_empty():
    model = init_mlp([4, 3], make_rng(0))
    with pytest.raises(DataError):
        fit_normalizer(_editor_for(model), {0: np.zeros((0, 4))}, {0: np.zeros((0, 3))})


# ------------------------------------------------- identity at initialization


def test_fresh_editor_is_exact_identity():
    model = init_mlp([7, 5], make_rng(0))
    params = _editor_for(model, variant=VariantConfig(normalize=False))
    rng = make_rng(99)
    worst = 0.0
    for _ in range(1000):
        u = rng.standard_normal(7)
        d = rng.standard_normal(5)
        u_t, d_t = editor_forward(params, 0, u, d)
        worst = max(worst, np.max(np.abs(u_t - u)), np.max(np.abs(d_t - d)))
    assert worst <= 1e-12


def test_fresh_editor_edit_equals_sgd_step():
    # with normalize=False and alpha = lr, the one-shot edit is exactly one
    # SGD step on the edit batch
    model = init_mlp([6, 5, 4], make_rng(1))
    lr = 0.05
    params = _editor_for(model, variant=VariantConfig(normalize=False), alpha=lr)
    rng = make_rng(2)
    pairs = [(rng.standard_normal(6), int(rng.integers(4))) for _ in range(3)]
    edited = apply_edit(model, params, None, pairs)
    xs = np.stack([x for x, _ in pairs])
    ys = np.array([y for _, y in pairs])
    _, trace = forward(model, xs)
    _, _, wgrads = backward_nll(trace, ys)
    for l in range(model.num_layers):
        want = model.weights[l] - lr * wgrads[l]
        assert np.max(np.abs(edited.weights[l] - want)) <= 1e-12


def test_non_identity_init_is_not_identity():
    model = init_mlp([7, 5], make_rng(0))
    params = _editor_for(
        model, variant=VariantConfig(normalize=False, identity_init=False)
    )
    u = make_rng(3).standard_normal(7)
    d = make_rng(4).standard_normal(5)
    u_t, d_t = editor_forward(params, 0, u, d)
    assert not np.allclose(u_t, u, atol=1e-6) or not np.allclose(d_t, d, atol=1e-6)


def test_only_u_leaves_delta_untouched():
    model = init_mlp([7, 5], make_rng(0))
    rng = make_rng(5)
    u = rng.standard_normal(7)
    d = rng.standard_normal(5)
    for mode, same in (("only_u", "delta"), ("only_delta", "u")):
        params = _editor_for(
            model, variant=VariantConfig(normalize=False, identity_init=False, transform=mode)
        )
        u_t, d_t = editor_forward(params, 0, u, d)
        if same == "delta":
            assert np.array_equal(d_t, d)
        else:
            assert np.array_equal(u_t, u)


# ----------------------------------------------------------- edit mechanics


def test_apply_edit_rule_and_isolation():
    model = init_mlp([6, 5, 4], make_rng(1))
    params = _editor_for(model, variant=VariantConfig(normalize=False))
    before = [w.copy() for w in model.weights]
    rng = make_rng(6)
    pairs = [(rng.standard_normal(6), 2)]
    edited = apply_edit(model, params, None, pairs)
    # the edit is exactly W - alpha * sum_i outer(delta~_i, u~_i), with each
    # row mapped by editor_forward; biases untouched
    for l in params.editable_layers:
        _, trace = forward(model, pairs[0][0])
        _, deltas, _ = backward_nll(trace, np.array([2]))
        rows = [editor_forward(params, l, u, d) for u, d in zip(trace.inputs[l], deltas[l])]
        pg = sum(np.outer(d_t, u_t) for u_t, d_t in rows)
        alpha = float(params.values[f"l:{l}:alpha"])
        assert np.allclose(edited.weights[l], model.weights[l] - alpha * pg, atol=1e-12)
        assert np.array_equal(edited.biases[l], model.biases[l])
    for w0, w1 in zip(before, model.weights):
        assert np.array_equal(w0, w1)


# at k=1 the outer product of the wide model's (256, 300) layer is formed by
# einsum
@pytest.mark.parametrize("model_name, k", [pytest.param("small_model", 1, id="1"),
                                           pytest.param("small_model", 5, id="5"),
                                           pytest.param("wide_model", 1, id="wide-1"),
                                           pytest.param("wide_model", 5, id="wide-5")])
def test_apply_edit_is_bitwise_the_dense_rule(request, small_world, model_name, k,
                                              table_normalizer):
    model = request.getfixturevalue(model_name)
    params = _editor_for(model, seed=3)
    rng = make_rng(k)
    # move off the identity init so the pseudo-factors differ from the raw ones
    params.values = {name: v + 0.3 * np.asarray(rng.standard_normal(v.shape))
                     for name, v in params.values.items()}
    normalizer = table_normalizer(model, small_world.edit_train, params)
    pairs = [(r.x_e, r.y_e) for r in small_world.edit_test[:k]]
    edited = apply_edit(model, params, normalizer, pairs)
    tape = apply_edit_with_tape(model, params, normalizer, pairs)
    for l, (alpha, pseudo_u, pseudo_d) in tape.model.edits.items():
        want = model.weights[l] - alpha * (pseudo_d.T @ pseudo_u)
        assert np.array_equal(edited.weights[l], want), l
    base = model.weights + model.biases
    for a in edited.weights + edited.biases:
        assert not any(np.shares_memory(a, b) for b in base)


@pytest.mark.parametrize("model_name, layers", [("small_model", None), ("wide_model", None),
                                                  ("wide_model", [1, 2])],
                         ids=["small", "wide", "wide-subset"])
@pytest.mark.parametrize("k", [1, 5, 25])
def test_factored_edit_is_its_dense_weights(request, small_world, table_normalizer, model_name,
                                            layers, k, monkeypatch):
    model = request.getfixturevalue(model_name)
    before = [a.copy() for a in model.weights + model.biases]
    params = _editor_for(model, seed=4, layers=layers)
    rng = make_rng(k)
    params.values = {name: v + 0.3 * np.asarray(rng.standard_normal(v.shape))
                     for name, v in params.values.items()}
    normalizer = table_normalizer(model, small_world.edit_train, params)
    records = small_world.edit_test + small_world.edit_train
    pairs = [(r.x_e, r.y_e) for r in records[:k]]
    xs = np.stack([x for r in records for x, _ in r.neighborhood])

    formed = []
    monkeypatch.setattr(mlp_mod, "edited_weight",
                        lambda *a: formed.append(a) or dense_edit_weight(*a))
    edited = apply_edit(model, params, normalizer, pairs)
    shapes = (edited.num_layers, edited.input_dim, edited.num_classes,
              [edited.layer_shape(l) for l in range(edited.num_layers)])
    got = forward(edited, xs)[0]
    assert formed == [] and edited.edits is not None  # nothing above formed a W~
    assert shapes == (model.num_layers, model.input_dim, model.num_classes,
                      [model.layer_shape(l) for l in range(model.num_layers)])

    tape = apply_edit_with_tape(model, params, normalizer, pairs)
    weights = list(edited.weights)
    assert len(formed) == len(params.editable_layers) and edited.edits is None
    for l, w in enumerate(weights):
        want = (dense_edit_weight(model.weights[l], *tape.model.edits[l])
                if l in tape.model.edits else model.weights[l])
        assert np.array_equal(w, want), l
    # formed once: a second read returns the same arrays and forms nothing
    assert all(a is b for a, b in zip(edited.weights, weights))
    assert len(formed) == len(params.editable_layers)

    want = forward(Mlp(weights, list(edited.biases)), xs)[0]
    assert np.array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))
    # an entry near 0 cancels large terms, so its error is bounded by the scale
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    base = model.weights + model.biases
    for a in edited.weights + edited.biases:
        assert not any(np.shares_memory(a, b) for b in base)
    for a, b in zip(before, base):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("layers", [None, [1]], ids=["all", "layer_1"])
def test_factored_edit_owns_its_biases_once_its_weights_are_read(small_world, small_model,
                                                                 layers):
    # one ownership rule for every array of a factored model: until its
    # weights are read it holds read-only views of the base model's weights
    # and biases, and that read gives it copies of them all
    params = _editor_for(small_model, seed=5, layers=layers,
                         variant=VariantConfig(normalize=False))
    pairs = [(r.x_e, r.y_e) for r in small_world.edit_test[:3]]
    edited = apply_edit(small_model, params, None, pairs)
    for a, b in zip(edited.biases, small_model.biases, strict=True):
        assert not a.flags.writeable and np.shares_memory(a, b)
        with pytest.raises(ValueError):
            a[0] = 0.0
    forward(edited, small_world.edit_test[0].x_e)  # scoring reads the views
    assert all(np.shares_memory(a, b) for a, b in zip(edited.biases, small_model.biases))
    weights = edited.weights
    assert all(np.array_equal(a, b) for a, b in zip(edited.biases, small_model.biases))
    for a, b in zip(weights + edited.biases, small_model.weights + small_model.biases):
        assert a.flags.writeable and not np.shares_memory(a, b)


@pytest.mark.parametrize("model_name", ["small_model", "wide_model"])
@pytest.mark.parametrize("k", [1, 5])
def test_backward_factors_walks_a_factored_edit_without_forming_it(
        request, small_world, table_normalizer, model_name, k, monkeypatch):
    # delta leaves an edited layer through the rank-k transpose, not W~
    model = request.getfixturevalue(model_name)
    params = _editor_for(model, seed=4)
    rng = make_rng(k)
    params.values = {name: v + 0.3 * np.asarray(rng.standard_normal(v.shape))
                     for name, v in params.values.items()}
    normalizer = table_normalizer(model, small_world.edit_train, params)
    records = small_world.edit_test + small_world.edit_train
    pairs = [(r.x_e, r.y_e) for r in records[:k]]
    xs = np.stack([x for r in records[:40] for x, _ in r.neighborhood])

    formed = []
    monkeypatch.setattr(mlp_mod, "edited_weight",
                        lambda *a: formed.append(a) or dense_edit_weight(*a))
    edited = apply_edit(model, params, normalizer, pairs)
    logits, trace = forward(edited, xs)
    R = rng.standard_normal(logits.shape)
    got = backward_factors(trace, R)
    assert formed == [] and edited.edits is not None  # nothing above formed a W~

    want = backward_factors(forward(Mlp(list(edited.weights), list(edited.biases)), xs)[1], R)
    for g, w in zip(got, want, strict=True):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.max(np.abs(w)))


def test_factored_edit_never_writes_its_base():
    model = init_mlp([6, 5, 4], make_rng(1))
    params = _editor_for(model, variant=VariantConfig(normalize=False), layers=[1])
    edited = apply_edit(model, params, None, [(make_rng(7).standard_normal(6), 1)])
    with pytest.raises(ValueError, match="read-only"):
        edited._weights[0][0, 0] = 1.0
    edited.weights[0][0, 0] = 1.0  # a formed model owns its arrays
    assert model.weights[0][0, 0] != 1.0


def test_factored_model_rejects_factors_of_the_wrong_shape():
    model = init_mlp([6, 5, 4], make_rng(1))
    w, b = model.weights, model.biases
    for l, u, d in ((2, np.ones((1, 5)), np.ones((1, 4))), (1, np.ones((1, 4)), np.ones((1, 4))),
                    (1, np.ones((2, 5)), np.ones((1, 4))), (1, np.ones(5), np.ones(4))):
        with pytest.raises(ShapeError):
            Mlp(w, b, {l: (0.1, u, d)})


def test_apply_edit_peak_memory_is_the_edited_model_plus_one_matrix():
    # the factored edit defers its W~ to the first read of its weights, so
    # the bound covers both
    model = init_mlp([16, 256, 256, 4], make_rng(2))
    params = _editor_for(model, variant=VariantConfig(normalize=False))
    pairs = [(make_rng(5).standard_normal(16), 1)]
    apply_edit(model, params, None, pairs).weights
    tracemalloc.start()
    try:
        edited = apply_edit(model, params, None, pairs)
        edited.weights
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out_bytes = sum(a.nbytes for a in edited.weights + edited.biases)
    assert peak <= out_bytes + 256 * 256 * 8


def test_apply_edit_rejects_editor_layers_the_model_lacks():
    params = _editor_for(init_mlp([64, 24, 16, 16], make_rng(1)),
                         variant=VariantConfig(normalize=False))
    for dims in ([64, 24, 16], [64, 24, 16, 8]):  # no layer 2, or one of another shape
        with pytest.raises(ShapeError):
            apply_edit(init_mlp(dims, make_rng(1)), params, None, [(np.zeros(64), 0)])


def test_apply_edit_partial_layers():
    model = init_mlp([6, 5, 4], make_rng(1))
    params = _editor_for(model, variant=VariantConfig(normalize=False), layers=[1])
    pairs = [(make_rng(7).standard_normal(6), 1)]
    edited = apply_edit(model, params, None, pairs)
    assert np.array_equal(edited.weights[0], model.weights[0])
    assert not np.array_equal(edited.weights[1], model.weights[1])


def test_apply_edit_rejects_empty_batch():
    model = init_mlp([6, 5], make_rng(1))
    params = _editor_for(model, variant=VariantConfig(normalize=False))
    with pytest.raises(DataError):
        apply_edit(model, params, None, [])


def test_normalize_requires_normalizer():
    model = init_mlp([6, 5], make_rng(1))
    params = _editor_for(model)  # normalize=True
    with pytest.raises(ConfigError):
        apply_edit(model, params, None, [(np.zeros(6), 0)])


def test_editor_forward_shape_check():
    model = init_mlp([6, 5], make_rng(1))
    params = _editor_for(model, variant=VariantConfig(normalize=False))
    with pytest.raises(ShapeError):
        _editor_apply(params, 0, np.zeros((1, 4)), np.zeros((1, 5)), None)


# -------------------------------------------------------------- reverse pass


def test_backprop_edit_matches_finite_differences():
    # loss = <R, logits of the edited model at xs> has dL/dlogits = R exactly,
    # isolating the editor reverse pass from any model loss; the loss is
    # taken on the materialized W~ of `apply_edit`, so the factored forward
    # is checked too
    model = init_mlp([5, 4, 3], make_rng(2))
    variant = VariantConfig(normalize=False, identity_init=False)
    params = _editor_for(model, variant=variant, seed=3)
    rng = make_rng(8)
    pairs = [(rng.standard_normal(5), int(rng.integers(3))) for _ in range(2)]
    xs = rng.standard_normal((4, 5))
    R = rng.standard_normal((4, 3))

    def loss_of(values):
        p = params.copy()
        p.values = {k: np.asarray(v, dtype=np.float64) for k, v in values.items()}
        edited = apply_edit(model, p, None, pairs)
        return float(np.sum(R * forward(edited, xs)[0]))

    _, trace = edited_forward(apply_edit_with_tape(model, params, None, pairs), xs[None])
    grads = backprop_edit(trace, R[None])
    fd = finite_diff_grad(loss_of, params.values)
    for key in grads:
        denom = max(np.max(np.abs(fd[key])), np.max(np.abs(grads[key])), 1e-4)
        assert np.max(np.abs(grads[key] - fd[key])) / denom < 1e-6, key


def test_edited_forward_matches_materialized_edit():
    model = init_mlp([5, 4, 4, 3], make_rng(2))
    params = _editor_for(model, variant=VariantConfig(normalize=False, identity_init=False),
                         layers=[0, 2])
    rng = make_rng(8)
    pairs = [(rng.standard_normal(5), int(rng.integers(3))) for _ in range(3)]
    xs = rng.standard_normal((6, 5))
    got, _ = edited_forward(apply_edit_with_tape(model, params, None, pairs), xs[None])
    want, _ = forward(apply_edit(model, params, None, pairs), xs)
    assert np.max(np.abs(got[0] - want)) <= 1e-12 * np.max(np.abs(want))
    with pytest.raises(ShapeError):
        edited_forward(apply_edit_with_tape(model, params, None, pairs), xs[None, :, :4])


def test_backprop_edit_into_out_equals_a_fresh_call(table_normalizer):
    model = init_mlp([5, 4, 3], make_rng(2))
    params = _editor_for(model, seed=3)
    rng = make_rng(4)
    params.values = {k: v + 0.3 * np.asarray(rng.standard_normal(v.shape))
                     for k, v in params.values.items()}
    records = [_factor_record(rng.standard_normal(5), int(rng.integers(3))) for _ in range(6)]
    normalizer = table_normalizer(model, records, params)
    tape = apply_edit_with_tape(model, params, normalizer, [(r.x_e, r.y_e) for r in records[:4]])
    _, trace = edited_forward(tape, rng.standard_normal((2, 3, 5)))
    out = zero_grads(params)
    out.flat.fill(7.0)  # stale values from an earlier step
    for R in (rng.standard_normal((2, 3, 3)), rng.standard_normal((2, 3, 3))):
        want = backprop_edit(trace, R)
        got = backprop_edit(trace, R, out=out)
        assert got is out
        assert np.array_equal(got.flat, want.flat)
    with pytest.raises(ShapeError):
        backprop_edit(trace, R, out=zero_grads(_editor_for(model, layers=[1])))


def test_backprop_edit_shape_check():
    model = init_mlp([5, 4], make_rng(2))
    params = _editor_for(model, variant=VariantConfig(normalize=False))
    tape = apply_edit_with_tape(model, params, None, [(np.zeros(5), 0), (np.ones(5), 1)])
    _, trace = edited_forward(tape, np.zeros((1, 3, 5)))
    with pytest.raises(ShapeError):
        backprop_edit(trace, np.zeros((1, 2, 4)))
    # logits of two groups are (2, 3, 4); their flattened rows are not
    _, trace = edited_forward(tape, np.zeros((2, 3, 5)))
    with pytest.raises(ShapeError):
        backprop_edit(trace, np.zeros((6, 4)))


@pytest.mark.parametrize("name", sorted(ABLATION_VARIANTS))
def test_grouped_edit_matches_separate_groups(name, table_normalizer):
    # group g of a (G, B, d) batch under the tape's rows g*k:(g+1)*k equals
    # an edit of that group's k pairs alone; gradients sum over the groups
    model = init_mlp([5, 4, 4, 3], make_rng(2))
    variant = ABLATION_VARIANTS[name]
    params = _editor_for(model, variant=variant, seed=3, layers=[0, 2])
    rng = make_rng(8)
    params.values = {
        k: v + 0.3 * np.asarray(rng.standard_normal(v.shape)) for k, v in params.values.items()
    }
    records = [_factor_record(rng.standard_normal(5), int(rng.integers(3))) for _ in range(12)]
    normalizer = table_normalizer(model, records, params) if variant.normalize else None
    n_groups, k = 3, 2
    pairs = [(rng.standard_normal(5), int(rng.integers(3))) for _ in range(n_groups * k)]
    xs = rng.standard_normal((n_groups, 4, 5))
    R = rng.standard_normal((n_groups, 4, 3))
    logits, trace = edited_forward(apply_edit_with_tape(model, params, normalizer, pairs), xs)
    got = {"logits": logits, **backprop_edit(trace, R)}
    want = {"logits": np.zeros_like(logits), **zero_grads(params)}
    for g in range(n_groups):
        tape = apply_edit_with_tape(model, params, normalizer, pairs[g * k : (g + 1) * k])
        logits_g, trace = edited_forward(tape, xs[g][None])
        want["logits"][g] = logits_g[0]
        for key, v in backprop_edit(trace, R[g][None]).items():
            want[key] += v
    for key in want:
        scale = max(float(np.max(np.abs(want[key]))), 1e-300)
        assert float(np.max(np.abs(got[key] - want[key]))) <= 1e-13 * scale, key


# ------------------------------------- row-batched path vs per-row reference


def _ref_editor_row(params, layer, u, delta, normalizer):
    """One (m,) / (n,) factor pair through `layer`'s editor, one matrix-vector
    product at a time; returns (u~, delta~, intermediates)."""
    key = params.layer_group[layer]
    m, n = params.group_dims[key]
    v = params.values
    if params.variant.normalize:
        nu, nd = normalizer.norm_u(key, u), normalizer.norm_d(key, delta)
    else:
        nu, nd = u, delta
    parts = params.variant.transformed_parts(m, n)
    z = np.concatenate([nu if p == "u" else nd for p in parts])
    v1z = v[f"g:{key}:V1"] @ z
    a1 = v[f"g:{key}:U1"] @ v1z + v[f"g:{key}:b1"]
    pre1 = v[f"l:{layer}:s1"] * a1 + v[f"l:{layer}:o1"]
    h = z + relu(pre1)
    v2h = v[f"g:{key}:V2"] @ h
    a2 = v[f"g:{key}:U2"] @ v2h
    g = h + v[f"l:{layer}:s2"] * a2 + v[f"l:{layer}:o2"]
    out = {"u": u, "delta": delta}
    off = 0
    for p in parts:
        width = m if p == "u" else n
        out[p] = g[off : off + width]
        off += width
    return out["u"], out["delta"], (z, v1z, a1, pre1, h, v2h, a2)


def _ref_row_backward(params, layer, inter, g_u, g_d, grads):
    """Accumulate one row's editor-parameter gradients into `grads`."""
    key = params.layer_group[layer]
    m, n = params.group_dims[key]
    v = params.values
    z, v1z, a1, pre1, h, v2h, a2 = inter
    parts = params.variant.transformed_parts(m, n)
    g_g = np.concatenate([g_u if p == "u" else g_d for p in parts])
    grads[f"l:{layer}:o2"] += g_g
    grads[f"l:{layer}:s2"] += g_g * a2
    d_a2 = g_g * v[f"l:{layer}:s2"]
    grads[f"g:{key}:U2"] += np.outer(d_a2, v2h)
    d_v2h = v[f"g:{key}:U2"].T @ d_a2
    grads[f"g:{key}:V2"] += np.outer(d_v2h, h)
    d_h = g_g + v[f"g:{key}:V2"].T @ d_v2h
    d_pre1 = d_h * relu_grad(pre1)
    grads[f"l:{layer}:o1"] += d_pre1
    grads[f"l:{layer}:s1"] += d_pre1 * a1
    d_a1 = d_pre1 * v[f"l:{layer}:s1"]
    grads[f"g:{key}:b1"] += d_a1
    grads[f"g:{key}:U1"] += np.outer(d_a1, v1z)
    d_v1z = v[f"g:{key}:U1"].T @ d_a1
    grads[f"g:{key}:V1"] += np.outer(d_v1z, z)


def _ref_edit(model, params, normalizer, pairs, weight_grads):
    """Edited weights and editor gradients from a loop over the edit rows."""
    xs = np.stack([x for x, _ in pairs])
    _, trace = forward(model, xs)
    _, deltas, _ = backward_nll(trace, np.array([y for _, y in pairs]))
    weights, grads = {}, zero_grads(params)
    for l in params.editable_layers:
        rows = [
            _ref_editor_row(params, l, u, d, normalizer)
            for u, d in zip(trace.inputs[l], deltas[l])
        ]
        pg = np.zeros(model.weights[l].shape)
        for u_t, d_t, _ in rows:
            pg += np.outer(d_t, u_t)
        alpha = float(params.values[f"l:{l}:alpha"])
        weights[l] = model.weights[l] - alpha * pg
        G = weight_grads[l]
        grads[f"l:{l}:alpha"] += np.array(-float(np.sum(G * pg)))
        d_pg = -alpha * G
        for u_t, d_t, inter in rows:
            _ref_row_backward(params, l, inter, d_pg.T @ d_t, d_pg @ u_t, grads)
    return weights, grads


@pytest.mark.parametrize("name", sorted(ABLATION_VARIANTS))
def test_row_batched_edit_matches_per_row_loop(name):
    # layers 0 and 1 share the 5x5 shape; layer 2 (5 -> 4) has its own
    variant = ABLATION_VARIANTS[name]
    model = init_mlp([5, 5, 5, 4], make_rng(3))
    params = _editor_for(model, variant=variant, seed=4)
    rng = make_rng(9)
    # move off the identity init so every editor block is exercised
    params.values = {
        k: v + 0.3 * np.asarray(rng.standard_normal(v.shape)) for k, v in params.values.items()
    }
    normalizer = None
    if variant.normalize:
        dims = params.group_dims
        normalizer = Normalizer(
            1e-6,
            {k: rng.standard_normal(m) for k, (m, n) in dims.items()},
            {k: rng.uniform(0.5, 2.0, m) for k, (m, n) in dims.items()},
            {k: rng.standard_normal(n) for k, (m, n) in dims.items()},
            {k: rng.uniform(0.5, 2.0, n) for k, (m, n) in dims.items()},
        )
    xs = rng.standard_normal((7, 5))
    R = rng.standard_normal((7, 4))
    for batch in (1, 5, 25):
        pairs = [(rng.standard_normal(5), int(rng.integers(4))) for _ in range(batch)]
        edited = apply_edit(model, params, normalizer, pairs)
        got = {f"W{l}": edited.weights[l] for l in params.editable_layers}
        _, trace = edited_forward(apply_edit_with_tape(model, params, normalizer, pairs), xs[None])
        got.update(backprop_edit(trace, R[None]))
        # the per-row reference takes dL/dW~ from a dense backward through W~
        _, dense_trace = forward(edited, xs)
        _, G = backward(dense_trace, R)
        ref_weights, want = _ref_edit(model, params, normalizer, pairs, G)
        want.update({f"W{l}": w for l, w in ref_weights.items()})
        assert set(got) == set(want)
        for key in want:
            if batch == 1 and key.startswith("W"):
                assert np.array_equal(got[key], want[key]), key
            else:
                scale = max(float(np.max(np.abs(want[key]))), 1e-300)
                rel = float(np.max(np.abs(got[key] - want[key]))) / scale
                assert rel <= 1e-12, (batch, key, rel)


def test_zero_grads_mirrors_params():
    model = init_mlp([5, 4], make_rng(2))
    params = _editor_for(model)
    grads = zero_grads(params)
    assert set(grads) == set(params.values)
    assert all(not g.any() for g in grads.values())
    # one gradient buffer, laid out like the parameters
    assert grads.flat.shape == params.values.flat.shape
    assert all(np.shares_memory(g, grads.flat) for g in grads.values())


# ------------------------------------------------------------- persistence


@pytest.mark.parametrize("variant", ABLATION_VARIANTS.values(), ids=ABLATION_VARIANTS.keys())
def test_editor_checkpoint_round_trip(tmp_path, small_world, small_model, table_normalizer,
                                      variant):
    params = _editor_for(small_model, variant=variant, seed=11)
    norm = (table_normalizer(small_model, small_world.edit_train[:10], params)
            if variant.normalize else None)
    path = tmp_path / "editor.json"
    save_editor(params, norm, path)
    loaded, loaded_norm = load_editor(path)
    # the layer list and the variant are read back from what was written, so
    # saving the loaded editor writes the same bytes
    save_editor(loaded, loaded_norm, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    assert loaded.rank == params.rank
    assert loaded.variant == params.variant
    assert loaded.editable_layers == params.editable_layers
    assert set(loaded.values) == set(params.values)
    for k in params.values:
        assert np.array_equal(np.asarray(loaded.values[k]), np.asarray(params.values[k])), k
        assert np.shares_memory(loaded.values[k], loaded.values.flat), k
    rec = small_world.edit_train[0]
    a = apply_edit(small_model, params, norm, [(rec.x_e, rec.y_e)])
    b = apply_edit(small_model, loaded, loaded_norm, [(rec.x_e, rec.y_e)])
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_editor_checkpoint_without_normalizer(tmp_path):
    model = init_mlp([5, 4], make_rng(2))
    params = _editor_for(model, variant=VariantConfig(normalize=False))
    path = tmp_path / "editor.json"
    save_editor(params, None, path)
    loaded, norm = load_editor(path)
    assert norm is None
    assert loaded.variant.normalize is False


def test_load_editor_rejects_garbage(tmp_path):
    path = tmp_path / "editor.json"
    for text in ("nope", "[]"):
        path.write_text(text)
        with pytest.raises(DataError):
            load_editor(path)


def _first_stat(payload, stat):
    return next(iter(payload["normalizer"][stat].values()))


def _drop_every_layer(payload):
    """Empty every per-layer and per-group section of a checkpoint."""
    for key in ("editable_layers", "layer_group", "group_dims", "values"):
        payload[key] = type(payload[key])()
    for stat in ("mean_u", "var_u", "mean_d", "var_d"):
        payload["normalizer"][stat] = {}


def _corrupt_checkpoint(fit, tmp_path, small_world, small_model, corrupt):
    params = _editor_for(small_model)
    norm = fit(small_model, small_world.edit_train[:10], params)
    path = tmp_path / "editor.json"
    save_editor(params, norm, path)
    payload = json.loads(path.read_text())
    corrupt(payload)
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda p: p["values"].pop("l:0:alpha"),
        lambda p: p["values"].__setitem__("g:extra:b1", [0.0]),
        lambda p: p["values"].__setitem__("l:0:s1", p["values"]["l:0:s1"][:-1]),
        lambda p: p["values"].__setitem__("l:1:alpha", [0.01]),
        lambda p: p["values"].__setitem__("l:1:o2", ["x"] * len(p["values"]["l:1:o2"])),
        lambda p: p.__setitem__("rank", p["rank"] + 1),
        lambda p: p.__setitem__("editable_layers", [0]),
        lambda p: p.pop("group_dims"),
        lambda p: p["variant"].__setitem__("transform", "everything"),
        lambda p: p["normalizer"]["var_d"].popitem(),
        lambda p: p["normalizer"]["mean_u"].__setitem__(
            next(iter(p["normalizer"]["mean_u"])), [0.0]),
        lambda p: p.__setitem__("normalizer", None),
        lambda p: p["values"]["l:0:s1"].__setitem__(0, float("nan")),
        lambda p: p["normalizer"]["var_u"][next(iter(p["normalizer"]["var_u"]))]
        .__setitem__(0, float("inf")),
        lambda p: p["normalizer"].__setitem__("eps", float("nan")),
        # integer fields: int() would truncate 4.9 to 4 and accept "4" and true
        lambda p: p.__setitem__("rank", str(p["rank"])),
        lambda p: p.__setitem__("rank", p["rank"] + 0.9),
        lambda p: p.__setitem__("rank", True),
        lambda p: p.__setitem__("editable_layers", [float(l) for l in p["editable_layers"]]),
        lambda p: p["group_dims"].__setitem__(
            next(iter(p["group_dims"])), [float(d) for d in next(iter(p["group_dims"].values()))]),
        # a variance of 0 or below would divide by zero or take a negative root
        lambda p: _first_stat(p, "var_u").__setitem__(0, 0.0),
        lambda p: _first_stat(p, "var_u").__setitem__(0, -1.0),
        lambda p: _first_stat(p, "var_d").__setitem__(-1, -1e-300),
        lambda p: p["normalizer"].__setitem__("eps", "1e-6"),
        lambda p: p["normalizer"].__setitem__("eps", True),
        lambda p: p["normalizer"].__setitem__("eps", 0),
        lambda p: p["normalizer"].__setitem__("eps", -1e-6),
        lambda p: p["normalizer"].__setitem__("eps", float("inf")),
        lambda p: p["normalizer"].__setitem__("eps", 10**400),
        lambda p: p["normalizer"].__setitem__("eps", [1e-6]),
        # every tensor entry is a JSON number that fits a float, and every
        # variant switch a bool
        lambda p: p["values"]["l:0:s1"].__setitem__(0, True),
        lambda p: p["values"]["l:0:s1"].__setitem__(0, "2.0"),
        lambda p: p["values"]["l:0:s1"].__setitem__(0, 10**400),
        lambda p: p["values"].__setitem__("l:0:alpha", None),
        lambda p: _first_stat(p, "mean_d").__setitem__(0, False),
        lambda p: p["variant"].__setitem__("normalize", ""),
        # an editor edits at least one layer, each named once by index
        _drop_every_layer,
        lambda p: p.__setitem__("editable_layers", [-1]),
        lambda p: p.__setitem__("editable_layers", [True]),
    ],
    ids=[
        "missing_tensor", "extra_tensor", "short_tensor", "alpha_not_scalar",
        "non_numeric", "rank_mismatch", "layer_list_mismatch", "missing_header_key",
        "bad_variant", "missing_normalizer_group", "short_normalizer_stat",
        "normalizer_dropped", "nan_tensor", "inf_normalizer_stat", "nan_eps",
        "string_rank", "float_rank", "bool_rank", "float_layers", "float_group_dims",
        "zero_var_u", "negative_var_u", "negative_var_d", "string_eps", "bool_eps",
        "zero_eps", "negative_eps", "inf_eps", "huge_int_eps", "list_eps",
        "bool_tensor_entry", "string_tensor_entry", "huge_int_tensor_entry", "null_alpha",
        "bool_normalizer_stat", "string_variant_switch", "no_layers", "negative_layer",
        "bool_layer",
    ],
)
def test_load_editor_checks_tensor_names_and_shapes(
    tmp_path, small_world, small_model, corrupt, table_normalizer
):
    path = _corrupt_checkpoint(table_normalizer, tmp_path, small_world, small_model, corrupt)
    with pytest.raises(DataError):
        load_editor(path)


def test_load_editor_accepts_an_integer_eps(tmp_path, small_world, small_model, table_normalizer):
    path = _corrupt_checkpoint(table_normalizer, tmp_path, small_world, small_model,
                               lambda p: p["normalizer"].__setitem__("eps", 1))
    _, norm = load_editor(path)
    assert norm.eps == 1.0 and type(norm.eps) is float
    key = next(iter(norm.var_u))
    assert np.array_equal(norm.std_u[key], np.sqrt(norm.var_u[key]))
