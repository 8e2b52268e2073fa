"""Deterministic numerical core: seeded RNG, activations, softmax,
KL divergence, Adam, and a finite-difference gradient oracle.

All arrays are float64 numpy arrays. Every public operation asserts finite
outputs. All randomness flows through explicitly passed numpy Generators
seeded with PCG64, so identical seeds give identical draws on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import ShapeError

Array = np.ndarray
ParamTree = dict[str, np.ndarray]


def make_rng(seed: int) -> np.random.Generator:
    """Seeded counter-based generator (PCG64); the package's only RNG."""
    return np.random.Generator(np.random.PCG64(seed))


def check_finite(x: Array, what: str = "array") -> Array:
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"non-finite values in {what}")
    return x


def xavier_uniform(rows: int, cols: int, rng: np.random.Generator) -> Array:
    """Uniform on [-a, a] with a = sqrt(6 / (rows + cols))."""
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def relu(x: Array) -> Array:
    return np.maximum(x, 0.0)


def relu_grad(x: Array) -> Array:
    """Subgradient of relu; defined as 1 at exactly 0 so that zero-initialized
    pre-activations (identity-initialized editors) remain trainable."""
    return (x >= 0.0).astype(np.float64)


def softmax(logits: Array) -> Array:
    """Stable softmax along the last axis."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / np.sum(exps, axis=-1, keepdims=True)


def log_softmax(logits: Array) -> Array:
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def kl_divergence(p_logits: Array, q_logits: Array) -> Array:
    """Exact KL(softmax(p) || softmax(q)) over the class simplex (the last
    axis): one value per row, a scalar for 1-D logits."""
    if p_logits.shape != q_logits.shape:
        raise ShapeError(f"kl: shapes differ {p_logits.shape} vs {q_logits.shape}")
    logp = log_softmax(p_logits)
    logq = log_softmax(q_logits)
    return np.sum(np.exp(logp) * (logp - logq), axis=-1)


@dataclass
class AdamState:
    """Adam accumulators for a tree of named parameters."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: ParamTree = field(default_factory=dict)
    v: ParamTree = field(default_factory=dict)


def adam_step(params: ParamTree, grads: ParamTree, state: AdamState) -> ParamTree:
    """One bias-corrected Adam update. Returns new params; mutates `state`."""
    if set(params) != set(grads):
        raise ShapeError("adam_step: params and grads have different keys")
    if not state.m:
        state.m = {k: np.zeros_like(p) for k, p in params.items()}
        state.v = {k: np.zeros_like(p) for k, p in params.items()}
    state.t += 1
    out: ParamTree = {}
    for k, p in params.items():
        g = grads[k]
        if g.shape != p.shape:
            raise ShapeError(f"adam_step: grad shape {g.shape} != param shape {p.shape} for {k}")
        state.m[k] = state.beta1 * state.m[k] + (1.0 - state.beta1) * g
        state.v[k] = state.beta2 * state.v[k] + (1.0 - state.beta2) * g * g
        m_hat = state.m[k] / (1.0 - state.beta1**state.t)
        v_hat = state.v[k] / (1.0 - state.beta2**state.t)
        out[k] = p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return out


def finite_diff_grad(
    f: Callable[[ParamTree], float], params: Mapping[str, Array], h: float = 1e-5
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
