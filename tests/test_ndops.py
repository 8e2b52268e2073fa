"""Numerical-core tests: every routine is checked against an independent
oracle (scipy-free closed forms, per-row loops, or finite differences)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedit.errors import ShapeError
from gradedit.ndops import (
    AdamState,
    adam_step,
    check_finite,
    finite_diff_grad,
    kl_divergence,
    log_softmax,
    make_rng,
    relu,
    relu_grad,
    softmax,
    xavier_uniform,
)


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
    params = {"w": np.array([1.0, -2.0])}
    grads = {"w": np.array([0.5, -0.25])}
    state = AdamState(lr=0.1)
    out = adam_step(params, grads, state)
    assert np.allclose(out["w"], params["w"] - 0.1 * np.sign(grads["w"]), atol=1e-6)
    assert state.t == 1


def test_adam_converges_on_quadratic():
    params = {"w": np.array([5.0, -3.0])}
    state = AdamState(lr=0.1)
    for _ in range(500):
        grads = {"w": 2.0 * params["w"]}
        params = adam_step(params, grads, state)
    assert np.all(np.abs(params["w"]) < 1e-3)


def test_adam_key_and_shape_checks():
    state = AdamState()
    with pytest.raises(ShapeError):
        adam_step({"a": np.zeros(2)}, {"b": np.zeros(2)}, state)
    with pytest.raises(ShapeError):
        adam_step({"a": np.zeros(2)}, {"a": np.zeros(3)}, AdamState())


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
