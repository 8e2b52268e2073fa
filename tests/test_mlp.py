"""Classifier forward/backward tests: dense gradients against finite
differences, rank-1 factorization identities, and checkpoint round-trips."""

import json

import numpy as np
import pytest

from gradedit.errors import ContractError, DataError, ShapeError
from gradedit.mlp import (
    OUTER_EINSUM_MIN,
    Mlp,
    backward,
    backward_factors,
    backward_nll,
    clone_with_weights,
    forward,
    init_mlp,
    load_model,
    nll_grad,
    outer_sum,
    save_model,
)
from gradedit.ndops import make_rng, relu, softmax

from oracles import finite_diff_grad, reconstruct_gradient


def _nll_of_params(model, xs, ys):
    def f(tree):
        m = Mlp(
            [tree[f"W{l}"] for l in range(model.num_layers)],
            [tree[f"b{l}"] for l in range(model.num_layers)],
        )
        _, trace = forward(m, xs)
        loss, _, _, _ = backward_nll(trace, ys)
        return loss

    tree = {}
    for l in range(model.num_layers):
        tree[f"W{l}"] = model.weights[l]
        tree[f"b{l}"] = model.biases[l]
    return f, tree


def test_forward_matches_manual_two_layer(rng):
    model = init_mlp([3, 4, 2], make_rng(0))
    x = rng.standard_normal((5, 3))
    logits, _ = forward(model, x)
    hidden = relu(x @ model.weights[0].T + model.biases[0])
    want = hidden @ model.weights[1].T + model.biases[1]
    assert np.allclose(logits, want, atol=1e-12)


def test_forward_accepts_single_example(rng):
    model = init_mlp([3, 4, 2], make_rng(0))
    x = rng.standard_normal(3)
    single, _ = forward(model, x)
    batch, _ = forward(model, x[None, :])
    assert single.shape == (1, 2)
    assert np.array_equal(single, batch)


def test_forward_rejects_wrong_input_dim(rng):
    model = init_mlp([3, 4, 2], make_rng(0))
    with pytest.raises(ShapeError):
        forward(model, rng.standard_normal((2, 5)))


def test_forward_rejects_groups_that_do_not_divide_the_edit_rows():
    # group g of a (G, B, d) batch is edited by rows g*R/G:(g+1)*R/G of the
    # model's R edit rows
    rng = make_rng(2)
    model = init_mlp([5, 4], rng)
    edited = Mlp(model.weights, model.biases,
                 {0: (0.1, rng.standard_normal((3, 5)), rng.standard_normal((3, 4)))})
    for groups in (2, 0):
        with pytest.raises(ShapeError):
            forward(edited, np.zeros((groups, 4, 5)))
    with pytest.raises(ShapeError):
        forward(edited, np.zeros((1, 3, 4, 5)))
    for groups in (1, 3):
        assert forward(edited, np.zeros((groups, 4, 5)))[0].shape == (groups, 4, 4)


def test_backward_factors_checks_the_logit_shape_and_stops_at_lowest(rng):
    model = init_mlp([4, 5, 5, 3], make_rng(3))
    logits, trace = forward(model, rng.standard_normal((4, 4)))
    for bad in (logits[:3], logits[None], logits.reshape(-1)):
        with pytest.raises(ShapeError):
            backward_factors(trace, bad)
    full = backward_factors(trace, logits)
    part = backward_factors(trace, logits, 1)
    assert part[0] is None
    for got, want in zip(part[1:], full[1:]):
        assert np.array_equal(got, want)


def test_mlp_rejects_mismatched_layers(rng):
    with pytest.raises(ShapeError):
        Mlp(
            [rng.standard_normal((4, 3)), rng.standard_normal((2, 5))],
            [np.zeros(4), np.zeros(2)],
        )


def test_mlp_rejects_bad_biases(rng):
    weights = [rng.standard_normal((4, 3)), rng.standard_normal((2, 4))]
    with pytest.raises(ShapeError):
        Mlp(weights, [np.zeros(4)])  # one bias for two layers
    with pytest.raises(ShapeError):
        Mlp(weights, [np.zeros(1), np.zeros(2)])  # would broadcast silently
    with pytest.raises(ShapeError):
        Mlp(weights, [np.zeros(4), np.zeros((2, 1))])


def test_dense_gradients_match_finite_differences(rng):
    model = init_mlp([4, 6, 3], make_rng(1))
    xs = rng.standard_normal((5, 4))
    ys = rng.integers(3, size=5)
    _, trace = forward(model, xs)
    _, _, wgrads, bgrads = backward_nll(trace, ys)
    f, tree = _nll_of_params(model, xs, ys)
    fd = finite_diff_grad(f, tree)
    for l in range(model.num_layers):
        # dense grads are the batch sum; the loss is the batch mean
        assert np.allclose(wgrads[l] / 5, fd[f"W{l}"], atol=1e-7)
        assert np.allclose(bgrads[l] / 5, fd[f"b{l}"], atol=1e-7)


def test_rank1_factors_reconstruct_dense_gradient(rng):
    model = init_mlp([5, 8, 4], make_rng(2))
    xs = rng.standard_normal((6, 5))
    ys = rng.integers(4, size=6)
    _, trace = forward(model, xs)
    _, deltas, wgrads, _ = backward_nll(trace, ys)
    for l in range(model.num_layers):
        recon = reconstruct_gradient(deltas[l], trace.inputs[l])
        assert np.allclose(recon, wgrads[l], atol=1e-12)
        # also check the per-example outer-product sum explicitly
        manual = sum(
            np.outer(deltas[l][i], trace.inputs[l][i]) for i in range(6)
        )
        assert np.allclose(recon, manual, atol=1e-12)


def test_per_example_factor_is_that_examples_gradient(rng):
    # the i-th outer product must equal the dense gradient of example i alone
    model = init_mlp([4, 5, 3], make_rng(3))
    xs = rng.standard_normal((4, 4))
    ys = rng.integers(3, size=4)
    _, trace = forward(model, xs)
    _, deltas, _, _ = backward_nll(trace, ys)
    for i in range(4):
        _, trace_i = forward(model, xs[i : i + 1])
        _, _, wgrads_i, _ = backward_nll(trace_i, ys[i : i + 1])
        for l in range(model.num_layers):
            got = np.outer(deltas[l][i], trace.inputs[l][i])
            assert np.allclose(got, wgrads_i[l], atol=1e-12)


def test_factor_pass_matches_dense_backward(rng):
    # the factor-only pass forms no dense gradient but yields the same delta
    # rows; `backward` returns (deltas, wgrads, bgrads) in that order, and
    # perf_harness's tracer reads the dense weight gradients at position 1
    model = init_mlp([4, 5, 5, 3], make_rng(3))
    xs = rng.standard_normal((4, 4))
    ys = rng.integers(3, size=4)
    logits, trace = forward(model, xs)
    loss, deltas, _, _ = backward_nll(trace, ys)
    got_loss, dlogits = nll_grad(logits, ys)
    assert got_loss == loss
    got = backward_factors(trace, dlogits)
    for l, (d, want) in enumerate(zip(got, deltas, strict=True)):
        assert d.shape == (4, model.weights[l].shape[0]) and np.array_equal(d, want)
    d_rows, wgrads, bgrads = backward(trace, dlogits)
    for l in range(model.num_layers):
        assert np.array_equal(d_rows[l], deltas[l])
        assert np.array_equal(wgrads[l], outer_sum(deltas[l], trace.inputs[l]))
        assert np.array_equal(bgrads[l], deltas[l].sum(axis=0))


def test_backward_nll_label_validation(rng):
    model = init_mlp([3, 4], make_rng(0))
    logits, trace = forward(model, rng.standard_normal((2, 3)))
    for labels, error in (([0, 4], DataError), ([-1, 0], DataError), ([0], ShapeError)):
        with pytest.raises(error):
            backward_nll(trace, np.array(labels))
        with pytest.raises(error):
            nll_grad(logits, np.array(labels))
    # the class count comes from the logits alone: 6 columns admit label 5
    wide = rng.standard_normal((2, 6))
    loss, dlogits = nll_grad(wide, np.array([5, 0]))
    assert np.isfinite(loss) and dlogits.shape == (2, 6)
    with pytest.raises(DataError):
        nll_grad(wide, np.array([6, 0]))


def test_backward_nll_loss_value(rng):
    model = init_mlp([3, 4], make_rng(0))
    xs = rng.standard_normal((3, 3))
    ys = np.array([0, 1, 3])
    logits, trace = forward(model, xs)
    loss, _, _, _ = backward_nll(trace, ys)
    probs = softmax(logits)
    want = -np.mean(np.log(probs[np.arange(3), ys]))
    assert loss == pytest.approx(want, abs=1e-12)


def test_clone_with_weights_is_isolated(rng):
    model = init_mlp([3, 4, 2], make_rng(0))
    new_w0 = rng.standard_normal((4, 3))
    clone = clone_with_weights(model, {0: new_w0})
    assert clone.weights[0] is new_w0  # taken over, not copied
    assert np.array_equal(clone.weights[1], model.weights[1])
    for a in clone.weights + clone.biases:
        assert not any(np.shares_memory(a, b) for b in model.weights + model.biases)
    clone.weights[1][0, 0] += 100.0
    clone.biases[0][0] += 100.0
    assert clone.weights[1][0, 0] != model.weights[1][0, 0]
    assert clone.biases[0][0] != model.biases[0][0]


# one row at 256x300 is above the einsum gate
@pytest.mark.parametrize("rows, n, m", [pytest.param(1, 48, 64, id="1"),
                                        pytest.param(2, 48, 64, id="2"),
                                        pytest.param(5, 48, 64, id="5"),
                                        pytest.param(1, 256, 300, id="1-einsum")])
def test_outer_sum_is_bitwise_the_matmul(rows, n, m):
    rng = make_rng(rows)
    d, u = rng.standard_normal((rows, n)), rng.standard_normal((rows, m))
    got = outer_sum(d, u)
    assert got.shape == (n, m) and got.flags.c_contiguous
    assert np.array_equal(got, d.T @ u)
    if rows == 1:
        assert np.array_equal(got, np.outer(d[0], u[0]))
        assert (n * m >= OUTER_EINSUM_MIN) == (n == 256)


def test_clone_with_weights_validates(rng):
    model = init_mlp([3, 4, 2], make_rng(0))
    with pytest.raises(ShapeError):
        clone_with_weights(model, {5: np.zeros((4, 3))})
    with pytest.raises(ShapeError):
        clone_with_weights(model, {0: np.zeros((2, 2))})
    # a replacement the model could still write to, or of another dtype
    for bad in (model.weights[0], model.weights[0][:, ::-1], model.weights[0].astype(np.float32)):
        with pytest.raises(ContractError):
            clone_with_weights(model, {0: bad})


def test_model_checkpoint_round_trip(tmp_path, rng):
    model = init_mlp([3, 5, 2], make_rng(4))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    for a, b in zip(model.weights, loaded.weights):
        assert np.array_equal(a, b)
    for a, b in zip(model.biases, loaded.biases):
        assert np.array_equal(a, b)
    xs = rng.standard_normal((4, 3))
    assert np.array_equal(forward(model, xs)[0], forward(loaded, xs)[0])


def test_load_model_rejects_garbage(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    with pytest.raises(DataError):
        load_model(path)
    path.write_text('{"format_version": 99}')
    with pytest.raises(DataError):
        load_model(path)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda p: [p],
        lambda p: p.pop("weights") and p,
        lambda p: p.update(extra=1) or p,
        lambda p: p.update(layer_dims=[3, 0, 2]) or p,
        lambda p: p["weights"][1][0].__setitem__(0, "x") or p,
        lambda p: p["weights"][0][1].__setitem__(2, float("nan")) or p,
        lambda p: p["biases"][1].__setitem__(0, float("inf")) or p,
        lambda p: p.update(layer_dims=[3, 5, 3]) or p,
        lambda p: p["weights"].__setitem__(1, p["weights"][1][0]) or p,
        lambda p: p["biases"].pop() and p,
    ],
    ids=[
        "not_an_object", "missing_key", "extra_key", "bad_layer_dims", "non_numeric",
        "nan_weight", "inf_bias", "dims_mismatch", "one_dim_weight", "missing_bias",
    ],
)
def test_load_model_checks_keys_shapes_and_values(tmp_path, corrupt):
    # any defect in the file, wrong array shapes included, is a data error
    path = tmp_path / "model.json"
    save_model(init_mlp([3, 5, 2], make_rng(4)), path)
    path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    with pytest.raises(DataError):
        load_model(path)
