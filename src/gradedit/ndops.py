"""Deterministic numerical core: seeded RNG, activations, softmax,
KL divergence, flat parameter trees, Adam, and a finite-difference gradient
oracle.

All arrays are float64 numpy arrays. Every public operation asserts finite
outputs. All randomness flows through explicitly passed numpy Generators
seeded with PCG64, so identical seeds give identical draws on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


class FlatTree(dict):
    """A name -> array tree whose arrays are views, in order, into one
    contiguous float64 vector `flat`, so that one elementwise operation on
    `flat` updates every array. Rebinding an entry detaches it from `flat`."""

    def __init__(self, flat: Array, shapes: Mapping[str, tuple[int, ...]]) -> None:
        super().__init__()
        sizes = [math.prod(shape) for shape in shapes.values()]
        if flat.shape != (sum(sizes),):
            raise ShapeError(f"flat vector of shape {flat.shape} does not hold {sum(sizes)} values")
        off = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            self[name] = flat[off : off + size].reshape(shape)
            off += size
        self.flat = flat


def flatten(tree: Mapping[str, Array]) -> FlatTree:
    """A copy of `tree` laid out, in its order, in one float64 vector."""
    flat = np.concatenate([np.ravel(v) for v in tree.values()], dtype=np.float64)
    return FlatTree(flat, {k: np.shape(v) for k, v in tree.items()})


@dataclass
class AdamState:
    """Adam accumulators for one flat parameter vector, and two scratch
    vectors of its size for the update."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: Array | None = None
    v: Array | None = None
    scratch: tuple[Array, Array] | None = None


def adam_step(params: Array, grads: Array, state: AdamState) -> None:
    """One bias-corrected Adam update of the flat float64 vector `params`,
    in place, so that every view into it (a `FlatTree`) sees the update;
    mutates `state`. Each element gets the same IEEE arithmetic as a
    per-tensor update would give it. The moments are updated in place and
    every intermediate goes to the state's two scratch vectors, so a step
    allocates no vector."""
    if params.ndim != 1 or grads.shape != params.shape:
        raise ShapeError(f"adam_step: grad shape {grads.shape} != flat param shape {params.shape}")
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
        state.scratch = (np.empty_like(params), np.empty_like(params))
    elif state.m.shape != params.shape:
        raise ShapeError(f"adam_step: the state's moments have shape {state.m.shape}, "
                         f"not {params.shape}")
    state.t += 1
    m, v, (a, b) = state.m, state.v, state.scratch
    # m = beta1 * m + (1 - beta1) * g
    np.multiply(state.beta1, m, out=m)
    np.add(m, np.multiply(1.0 - state.beta1, grads, out=a), out=m)
    # v = beta2 * v + (1 - beta2) * g * g
    np.multiply(state.beta2, v, out=v)
    np.multiply(np.multiply(1.0 - state.beta2, grads, out=a), grads, out=a)
    np.add(v, a, out=v)
    # params -= lr * (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps)
    np.multiply(state.lr, np.divide(m, 1.0 - state.beta1**state.t, out=a), out=a)
    np.sqrt(np.divide(v, 1.0 - state.beta2**state.t, out=b), out=b)
    np.add(b, state.eps, out=b)
    np.subtract(params, np.divide(a, b, out=a), out=params)


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
