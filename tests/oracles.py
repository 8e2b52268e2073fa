"""Reference helpers that only the tests use: a central-difference gradient,
the dense gradient rebuilt from its rank-1 factors, and one factor pair
mapped through an editor. Import them with `from oracles import ...`."""

from typing import Callable, Mapping

import numpy as np

from gradedit.editor import EditorParams, Normalizer, _editor_apply
from gradedit.errors import ShapeError
from gradedit.mlp import outer_sum

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
