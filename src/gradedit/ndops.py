"""Deterministic numerical core: seeded RNG, activations, softmax,
KL divergence, flat parameter trees and a cache-blocked Adam.

All arrays are float64 numpy arrays. `check_finite` raises on a non-finite
array; the model and edited-model forward passes call it on their logits.
Reductions call ndarray methods: the same ufunc reductions as the `np.max`
and `np.sum` wrappers, without the wrappers' per-call dispatch.
All randomness flows through explicitly passed numpy Generators seeded with
PCG64, so identical seeds give identical draws on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ShapeError

Array = np.ndarray


def make_rng(seed: int) -> np.random.Generator:
    """Seeded counter-based generator (PCG64); the package's only RNG."""
    return np.random.Generator(np.random.PCG64(seed))


def check_finite(x: Array, what: str = "array") -> Array:
    if not np.isfinite(x).all():
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
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


def log_softmax(logits: Array) -> Array:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def kl_divergence(p_logits: Array, q_logits: Array) -> Array:
    """Exact KL(softmax(p) || softmax(q)) over the class simplex (the last
    axis): one value per row, a scalar for 1-D logits."""
    if p_logits.shape != q_logits.shape:
        raise ShapeError(f"kl: shapes differ {p_logits.shape} vs {q_logits.shape}")
    return kl_log_probs(log_softmax(p_logits), log_softmax(q_logits))


def kl_log_probs(logp: Array, logq: Array) -> Array:
    """`kl_divergence` from log-probabilities: sum of exp(logp) * (logp - logq)
    over the last axis, for callers that keep logp of a fixed distribution."""
    return (np.exp(logp) * (logp - logq)).sum(axis=-1)


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


# Adam's moment decay rates and denominator floor.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Elements per `adam_step` block: its slices of six vectors fill 1.5 MB of L2.
ADAM_BLOCK = 1 << 15


@dataclass
class AdamState:
    """Adam accumulators for one flat parameter vector, and a (2, block)
    scratch array for the update, one block of at most `ADAM_BLOCK`."""

    lr: float = 1e-3
    t: int = 0
    m: Array | None = None
    v: Array | None = None
    scratch: Array | None = None


def adam_step(params: Array, grads: Array, state: AdamState) -> None:
    """One bias-corrected Adam update of the flat float64 vector `params`,
    in place, so that every view into it (a `FlatTree`) sees the update;
    mutates `state`. Each element gets the same IEEE arithmetic as a
    per-tensor update would give it. It runs over blocks of `ADAM_BLOCK`
    elements, so that a block's passes stay in cache. The moments are
    updated in place and every intermediate goes to the state's two scratch
    rows, so a step allocates no vector."""
    if params.ndim != 1 or grads.shape != params.shape:
        raise ShapeError(f"adam_step: grad shape {grads.shape} != flat param shape {params.shape}")
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
        state.scratch = np.empty((2, min(params.size, ADAM_BLOCK)))
    elif state.m.shape != params.shape:
        raise ShapeError(f"adam_step: the state's moments have shape {state.m.shape}, "
                         f"not {params.shape}")
    state.t += 1
    for start in range(0, params.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        p, g, m, v = params[block], grads[block], state.m[block], state.v[block]
        a, b = state.scratch[:, : p.size]
        # m = beta1 * m + (1 - beta1) * g
        np.multiply(ADAM_BETA1, m, out=m)
        np.add(m, np.multiply(1.0 - ADAM_BETA1, g, out=a), out=m)
        # v = beta2 * v + (1 - beta2) * g * g
        np.multiply(ADAM_BETA2, v, out=v)
        np.multiply(np.multiply(1.0 - ADAM_BETA2, g, out=a), g, out=a)
        np.add(v, a, out=v)
        # params -= lr * (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps)
        np.multiply(state.lr, np.divide(m, 1.0 - ADAM_BETA1**state.t, out=a), out=a)
        np.sqrt(np.divide(v, 1.0 - ADAM_BETA2**state.t, out=b), out=b)
        np.add(b, ADAM_EPS, out=b)
        np.subtract(p, np.divide(a, b, out=a), out=p)
