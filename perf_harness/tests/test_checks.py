"""Each output check passes on a right input and fails on a deliberately
wrong one."""

import numpy as np
import pytest

import checks


@pytest.fixture()
def model():
    rng = np.random.default_rng(0)
    weights = [rng.standard_normal((6, 5)), rng.standard_normal((3, 6))]
    biases = [rng.standard_normal(6), rng.standard_normal(3)]
    return weights, biases


def rank1_edit(model, scale=1e-2, seed=1):
    rng = np.random.default_rng(seed)
    weights = [w - scale * np.outer(rng.standard_normal(w.shape[0]), rng.standard_normal(w.shape[1]))
               for w in model[0]]
    return weights, [b.copy() for b in model[1]]


def test_low_rank_accepts_rank_k_change(model):
    assert checks.check_low_rank(model, rank1_edit(model), editable=[0, 1], k=1) == []


def test_low_rank_rejects_full_rank_change(model):
    rng = np.random.default_rng(2)
    post = ([w + 1e-3 * rng.standard_normal(w.shape) for w in model[0]], model[1])
    problems = checks.check_low_rank(model, post, editable=[0, 1], k=1)
    assert len(problems) == 2 and "singular value 2" in problems[0]


def test_low_rank_rejects_bias_and_non_editable_changes(model):
    post = rank1_edit(model)
    post[1][0] += 1.0
    problems = checks.check_low_rank(model, post, editable=[0], k=1)
    assert any("bias changed" in p for p in problems)
    assert any("non-editable" in p for p in problems)


def group_inputs(model, post, rng):
    xs = [rng.standard_normal((4, 5)) for _ in range(2)]
    labels = [np.argmax(checks.ref_logits(*post, x), axis=1) for x in xs]
    labels[1][:2] = (labels[1][:2] + 1) % 3  # ES 0.5 on the second record
    loc_x = rng.standard_normal((2, 5))
    loc_y = np.argmax(checks.ref_logits(*model, loc_x), axis=1)
    return list(zip(xs, labels)), loc_x, loc_y


def test_group_metrics_accept_exact_values(model):
    post = rank1_edit(model, scale=0.5)
    neighborhoods, loc_x, loc_y = group_inputs(model, post, np.random.default_rng(3))
    pre_l, post_l = checks.ref_logits(*model, loc_x), checks.ref_logits(*post, loc_x)
    dd_acc = 1.0 - float(np.mean(np.argmax(post_l, axis=1) == loc_y))
    p = np.exp(pre_l - pre_l.max(1, keepdims=True)); p /= p.sum(1, keepdims=True)
    q = np.exp(post_l - post_l.max(1, keepdims=True)); q /= q.sum(1, keepdims=True)
    dd_kl = float(np.mean(np.sum(p * np.log(p / q), axis=1)))
    assert checks.check_group_metrics(model, post, neighborhoods, loc_x, loc_y,
                                      [1.0, 0.5], dd_acc, dd_kl) == []


def test_group_metrics_reject_perturbed_es(model):
    post = rank1_edit(model, scale=0.5)
    neighborhoods, loc_x, loc_y = group_inputs(model, post, np.random.default_rng(3))
    kl = float(np.mean(checks.ref_kl_rows(checks.ref_logits(*model, loc_x),
                                          checks.ref_logits(*post, loc_x))))
    dd_acc = 1.0 - float(np.mean(np.argmax(checks.ref_logits(*post, loc_x), axis=1) == loc_y))
    problems = checks.check_group_metrics(model, post, neighborhoods, loc_x, loc_y,
                                          [1.0, 0.75], dd_acc, kl)
    assert problems == ["record 1: reported ES 0.75, reference 0.5"]
    problems = checks.check_group_metrics(model, post, neighborhoods, loc_x, loc_y,
                                          [1.0, 0.5], dd_acc, kl * 1.01)
    assert len(problems) == 1 and problems[0].startswith("dd_kl")


def test_identical_rejects_mutated_input(model):
    before = ([w.copy() for w in model[0]], [b.copy() for b in model[1]])
    assert checks.check_identical(before, model) == []
    model[0][1][0, 0] = np.nextafter(model[0][1][0, 0], np.inf)
    assert checks.check_identical(before, model) == ["input model weights 1 changed"]


def test_edit_inputs_es_must_rise():
    assert checks.check_edit_inputs_es(0.0, 0.25) == []
    assert checks.check_edit_inputs_es(0.25, 0.25) != []


def quadratic(theta):
    return float(np.sum(np.arange(1, theta.size + 1) * theta**2) + np.sum(np.sin(theta)))


def quadratic_grad(theta):
    return 2 * np.arange(1, theta.size + 1) * theta + np.cos(theta)


def directional_check(grad_sign: float, orthogonal: bool = False) -> list[str]:
    rng = np.random.default_rng(4)
    theta, v = rng.standard_normal(7), rng.standard_normal(7)
    g = quadratic_grad(theta)
    if orthogonal:
        v -= (v @ g) / (g @ g) * g
    v /= np.linalg.norm(v)
    h = 1e-5
    return checks.check_directional_derivative(
        quadratic(theta + h * v), quadratic(theta - h * v), h,
        float(grad_sign * g @ v), float(np.linalg.norm(g)))


def test_directional_derivative_accepts_structural_gradient():
    assert directional_check(1.0) == []


def test_directional_derivative_rejects_wrong_sign_gradient():
    assert len(directional_check(-1.0)) == 1


def test_directional_derivative_tolerates_near_orthogonal_direction():
    # <g, v> is ~1e-16 here, so a gap relative to it alone would explode
    assert directional_check(1.0, orthogonal=True) == []


def test_training_check():
    log = [{"step": i, "l_total": 1.0 / (i + 1)} for i in range(3)]
    assert checks.check_training(0.1, 0.2, log, 3) == []
    assert checks.check_training(0.1, None, log, 3) == []
    assert len(checks.check_training(0.3, 0.2, log, 3)) == 1
    assert len(checks.check_training(0.1, 0.2, log[:2], 3)) == 1
    assert len(checks.check_training(0.1, 0.2, log + [{"l_total": float("nan")}], 4)) == 1


def test_cli_check(model):
    xs = np.random.default_rng(5).standard_normal((2, 5))
    argmax = np.argmax(checks.ref_logits(*model, xs), axis=1).tolist()
    assert checks.check_cli_edit(0, model, model, argmax, xs) == []
    assert checks.check_cli_edit(3, model, model, argmax, xs) == ["gradedit edit exited 3"]
    off = ([model[0][0] * (1 + 1e-15), model[0][1]], model[1])
    assert len(checks.check_cli_edit(0, off, model, argmax, xs)) == 1
    assert len(checks.check_cli_edit(0, model, model, [(a + 1) % 3 for a in argmax], xs)) == 1
