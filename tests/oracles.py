"""Reference helpers that only the tests use: a central-difference gradient,
the dense gradient rebuilt from its rank-1 factors, the dense edit rule, one
factor pair mapped through an editor, and per-tensor Adam and pretraining
loops. Import them
with `from oracles import ...`."""

from typing import Callable, Mapping

import numpy as np

from gradedit.bench import World
from gradedit.editor import EditorParams, Normalizer, _editor_apply
from gradedit.errors import ShapeError
from gradedit.mlp import Mlp, backward_nll, forward, init_mlp, outer_sum
from gradedit.ndops import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, make_rng
from gradedit.training import accuracy

ParamTree = dict[str, np.ndarray]


def finite_diff_grad(
    f: Callable[[ParamTree], float], params: Mapping[str, np.ndarray], h: float = 1e-5
) -> ParamTree:
    """Central-difference gradient estimate of a scalar function of a
    parameter tree; the test oracle used throughout the suite."""
    if h <= 0:
        raise ValueError("h must be positive")
    base = {k: np.array(v, dtype=np.float64, copy=True) for k, v in params.items()}
    grads: ParamTree = {}
    for k, p in base.items():
        g = np.zeros_like(p)
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            f_plus = f(base)
            flat_p[i] = orig - h
            f_minus = f(base)
            flat_p[i] = orig
            flat_g[i] = (f_plus - f_minus) / (2.0 * h)
        grads[k] = g
    return grads


def reconstruct_gradient(delta: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sum of the per-example outer products of a layer's (B, n) delta rows
    and (B, m) u rows; equals the dense weight gradient."""
    if u.shape[0] == 0:
        raise ShapeError("empty factors")
    return outer_sum(delta, u)


def dense_edit_weight(w: np.ndarray, alpha: float, u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """W - alpha * outer_sum(D~, U~) for (k, m) rows U~ and (k, n) rows D~: the
    edit rule as `apply_edit` applied it when it returned dense weights."""
    return w - alpha * outer_sum(d, u)


def editor_forward(
    params: EditorParams,
    layer: int,
    u: np.ndarray,
    delta: np.ndarray,
    normalizer: Normalizer | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Map one (m,) u / (n,) delta factor pair through `layer`'s editor."""
    u_t, d_t, _ = _editor_apply(params, layer, u[None, :], delta[None, :], normalizer)
    return u_t[0], d_t[0]


def reference_adam_tree(params, grads, state: AdamState, m, v) -> ParamTree:
    """The per-tensor Adam loop that the flat update replaced: one step over
    name -> array trees; updates the moment trees `m` and `v` and `state.t`,
    and returns the new parameters."""
    state.t += 1
    out = {}
    for k, p in params.items():
        g = grads[k]
        m[k] = ADAM_BETA1 * m[k] + (1.0 - ADAM_BETA1) * g
        v[k] = ADAM_BETA2 * v[k] + (1.0 - ADAM_BETA2) * g * g
        m_hat = m[k] / (1.0 - ADAM_BETA1**state.t)
        v_hat = v[k] / (1.0 - ADAM_BETA2**state.t)
        out[k] = p - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return out


def reference_pretrain(
    world: World, hidden_dims, epochs: int, batch_size: int, lr: float = 1e-3, seed: int = 0
) -> tuple[Mlp, float]:
    """`training.pretrain_model` as a per-tensor loop: per batch one forward,
    `backward_nll`'s dense weight gradients, its delta rows' sums as bias
    gradients, a divide per tensor and per-tensor Adam, with the same draws
    from the same generator."""
    rng = make_rng(seed)
    model = init_mlp([world.config.feature_dim, *hidden_dims, world.config.num_classes], rng)
    names = [f"W{l}" for l in range(model.num_layers)] + [f"b{l}" for l in range(model.num_layers)]
    params = dict(zip(names, model.weights + model.biases))
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    state = AdamState(lr=lr)
    n = world.pretrain_x.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            _, trace = forward(model, world.pretrain_x[idx])
            _, deltas, wgrads = backward_nll(trace, world.pretrain_y[idx])
            bgrads = [d.sum(axis=0) for d in deltas]
            grads = {k: g / len(idx) for k, g in zip(names, wgrads + bgrads)}
            params = reference_adam_tree(params, grads, state, m, v)
            model = Mlp([params[f"W{l}"] for l in range(model.num_layers)],
                        [params[f"b{l}"] for l in range(model.num_layers)])
    return model, accuracy(model, world.pretrain_x, world.pretrain_y)
