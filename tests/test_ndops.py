"""Numerical-core tests: every routine is checked against an independent
oracle (scipy-free closed forms, per-row loops, or finite differences)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedit.errors import ShapeError
from gradedit.ndops import (
    ADAM_BLOCK,
    AdamState,
    FlatTree,
    adam_step,
    check_finite,
    flatten,
    kl_divergence,
    log_softmax,
    make_rng,
    relu,
    relu_grad,
    softmax,
    xavier_uniform,
)

from oracles import finite_diff_grad, reference_adam_tree


def test_make_rng_is_deterministic():
    a = make_rng(7).standard_normal(100)
    b = make_rng(7).standard_normal(100)
    c = make_rng(8).standard_normal(100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_xavier_uniform_bounds_and_spread():
    rng = make_rng(0)
    rows, cols = 30, 50
    bound = np.sqrt(6.0 / (rows + cols))
    w = xavier_uniform(rows, cols, rng)
    assert w.shape == (rows, cols)
    assert np.all(np.abs(w) <= bound)
    # uniform on [-a, a]: mean 0, variance a^2/3
    assert abs(w.mean()) < bound / 10
    assert abs(w.var() - bound**2 / 3) < bound**2 / 10


def test_relu_and_subgradient():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.array_equal(relu(x), [0.0, 0.0, 0.0, 0.5, 2.0])
    # subgradient at exactly 0 is defined as 1 (keeps zero-initialized
    # pre-activations trainable)
    assert np.array_equal(relu_grad(x), [0.0, 0.0, 1.0, 1.0, 1.0])


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
def test_softmax_is_a_distribution(vals):
    p = softmax(np.array(vals))
    assert np.all(p >= 0)
    assert abs(p.sum() - 1.0) < 1e-12


def test_softmax_shift_invariance(rng):
    z = rng.standard_normal(9)
    assert np.allclose(softmax(z), softmax(z + 123.0), atol=1e-12)


def test_log_softmax_matches_naive(rng):
    z = rng.standard_normal(6)
    naive = np.log(np.exp(z) / np.exp(z).sum())
    assert np.allclose(log_softmax(z), naive, atol=1e-12)


def test_kl_divergence_properties(rng):
    p = rng.standard_normal(7)
    q = rng.standard_normal(7)
    assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)
    assert kl_divergence(p, q) > 0.0
    # shift invariance in both arguments
    assert kl_divergence(p + 3.0, q - 2.0) == pytest.approx(
        kl_divergence(p, q), abs=1e-10
    )
    with pytest.raises(ShapeError):
        kl_divergence(p, rng.standard_normal(6))


def test_kl_divergence_is_row_wise(rng):
    for shape in ((7, 6), (3, 300)):
        p = rng.standard_normal(shape)
        q = rng.standard_normal(shape)
        rows = kl_divergence(p, q)
        assert rows.shape == (shape[0],)
        assert np.array_equal(rows, [kl_divergence(a, b) for a, b in zip(p, q)])


def test_kl_divergence_closed_form():
    # two-class case with known probabilities
    p_logits = np.array([np.log(0.8), np.log(0.2)])
    q_logits = np.array([np.log(0.5), np.log(0.5)])
    want = 0.8 * np.log(0.8 / 0.5) + 0.2 * np.log(0.2 / 0.5)
    assert kl_divergence(p_logits, q_logits) == pytest.approx(want, abs=1e-12)


def test_adam_first_step_moves_by_lr():
    # with a constant gradient, the bias-corrected first step is exactly
    # -lr * sign(g) up to eps
    params = np.array([1.0, -2.0])
    grads = np.array([0.5, -0.25])
    state = AdamState(lr=0.1)
    adam_step(params, grads, state)
    assert np.allclose(params, [1.0, -2.0] - 0.1 * np.sign(grads), atol=1e-6)
    assert state.t == 1


def test_adam_converges_on_quadratic():
    params = np.array([5.0, -3.0])
    state = AdamState(lr=0.1)
    for _ in range(500):
        adam_step(params, 2.0 * params, state)
    assert np.all(np.abs(params) < 1e-3)


def test_adam_key_and_shape_checks():
    # the moments belong to one flat layout: another vector's grads, a
    # non-flat vector, or a state reused on another vector are rejected
    with pytest.raises(ShapeError):
        adam_step(np.zeros(2), np.zeros(3), AdamState())
    with pytest.raises(ShapeError):
        adam_step(np.zeros((2, 2)), np.zeros((2, 2)), AdamState())
    state = AdamState()
    adam_step(np.zeros(2), np.ones(2), state)
    with pytest.raises(ShapeError):
        adam_step(np.zeros(3), np.ones(3), state)


def test_adam_step_allocates_no_vector():
    params, grads = np.ones(10**6), np.full(10**6, 0.5)
    state = AdamState()
    adam_step(params, grads, state)  # allocates the moments and the scratch
    tracemalloc.start()
    try:
        for _ in range(10):
            adam_step(params, grads, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < params.nbytes


def _flat_and_per_tensor_adam(shapes, steps, seed):
    """`adam_step` on a flat tree and the per-tensor loop, side by side on
    the same random parameters and gradients; asserts that the parameters,
    still views into the flat vector, and the moments are bitwise equal."""
    rng = make_rng(seed)
    want = {k: rng.standard_normal(s) for k, s in shapes.items()}
    tree = flatten(want)
    ref_state, state = AdamState(lr=3e-2), AdamState(lr=3e-2)
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    for _ in range(steps):
        grads = {k: rng.standard_normal(s) ** 3 for k, s in shapes.items()}
        want = reference_adam_tree(want, grads, ref_state, m, v)
        adam_step(tree.flat, flatten(grads).flat, state)
    for k in shapes:
        assert np.array_equal(tree[k], want[k]), k
        assert np.shares_memory(tree[k], tree.flat)
    assert np.array_equal(state.m, flatten(m).flat) and np.array_equal(state.v, flatten(v).flat)
    return tree, state


def test_flat_adam_is_bitwise_the_per_tensor_loop():
    _flat_and_per_tensor_adam({"w": (3, 5), "alpha": (), "b": (5,), "s": (1, 7)}, 50, 4)


@pytest.mark.parametrize("size", [5 * ADAM_BLOCK // 2 + 3, ADAM_BLOCK, ADAM_BLOCK - 7],
                         ids=["ragged", "one_block", "under_one_block"])
def test_blocked_adam_is_bitwise_the_per_tensor_loop(size):
    # a ragged last block, exactly one block and less than one block
    tree, state = _flat_and_per_tensor_adam({"w": (size - 8, 1), "alpha": (), "b": (7,)}, 20, size)
    assert tree.flat.size == size
    assert state.scratch.shape == (2, min(size, ADAM_BLOCK))


def test_flatten_lays_out_views_in_order():
    tree = flatten({"a": np.arange(6.0).reshape(2, 3), "z": np.array(7.0), "b": np.ones(2)})
    assert list(tree) == ["a", "z", "b"]
    assert np.array_equal(tree.flat, [0, 1, 2, 3, 4, 5, 7, 1, 1])
    assert tree["z"].shape == () and tree["a"].shape == (2, 3)
    tree.flat *= 2.0
    assert float(tree["z"]) == 14.0 and tree["a"][1, 2] == 10.0
    with pytest.raises(ShapeError):
        FlatTree(np.zeros(5), {"a": (2, 3)})


def test_finite_diff_grad_on_known_function():
    # f = sum(x^2) + 3*y, gradient is (2x, 3)
    def f(t):
        return float(np.sum(t["x"] ** 2) + 3.0 * t["y"])

    x = np.array([1.0, -2.0, 0.5])
    y = np.array(4.0)  # 0-d parameters must work (per-layer step sizes)
    g = finite_diff_grad(f, {"x": x, "y": y})
    assert np.allclose(g["x"], 2 * x, atol=1e-8)
    assert g["y"] == pytest.approx(3.0, abs=1e-8)


def test_finite_diff_grad_rejects_bad_h():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda t: 0.0, {"x": np.zeros(1)}, h=0.0)


def test_check_finite():
    check_finite(np.array([1.0, 2.0]))
    with pytest.raises(FloatingPointError):
        check_finite(np.array([1.0, np.nan]))
    with pytest.raises(FloatingPointError):
        check_finite(np.array([np.inf]))
