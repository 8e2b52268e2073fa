"""Fully-connected classifier models whose backward pass exposes, per
example, the rank-1 gradient factors (layer input u, pre-activation
gradient delta) for every layer.

Layer l computes z_{l+1} = W_l u_l + b_l with relu between layers and raw
logits at the output. The per-example gradient of the loss w.r.t. W_l is
outer(delta_{l+1}, u_l); summing those outer products over the batch
recovers the dense gradient exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, DataError, ShapeError
from .ndops import Array, check_finite, log_softmax, relu, relu_grad, xavier_uniform

MODEL_FORMAT_VERSION = 1
_MODEL_KEYS = {"format_version", "layer_dims", "weights", "biases"}


@dataclass
class Mlp:
    """Stack of affine layers with relu activations (identity on the last)."""

    weights: list[Array]  # weights[l] has shape (n_l, m_l)
    biases: list[Array]  # biases[l] has shape (n_l,)

    def __post_init__(self) -> None:
        if len(self.biases) != len(self.weights):
            raise ShapeError(f"{len(self.biases)} biases for {len(self.weights)} layers")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if b.shape != (w.shape[0],):
                raise ShapeError(f"layer {l} bias shape {b.shape} != ({w.shape[0]},)")
        for l in range(len(self.weights) - 1):
            if self.weights[l + 1].shape[1] != self.weights[l].shape[0]:
                raise ShapeError(
                    f"layer {l} output dim {self.weights[l].shape[0]} != "
                    f"layer {l + 1} input dim {self.weights[l + 1].shape[1]}"
                )

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[0]

    def layer_shape(self, layer: int) -> tuple[int, int]:
        """(m, n) = (input dim, output dim) of `layer`'s weight matrix."""
        n, m = self.weights[layer].shape
        return m, n


def init_mlp(layer_dims: list[int], rng: np.random.Generator) -> Mlp:
    """Random model with dims [input, hidden..., num_classes]."""
    weights = [
        xavier_uniform(layer_dims[l + 1], layer_dims[l], rng)
        for l in range(len(layer_dims) - 1)
    ]
    biases = [np.zeros(layer_dims[l + 1]) for l in range(len(layer_dims) - 1)]
    return Mlp(weights, biases)


@dataclass
class ForwardTrace:
    """Cached per-layer inputs and pre-activations from one forward call."""

    model: Mlp
    inputs: list[Array]  # inputs[l]: (B, m_l)
    preacts: list[Array]  # preacts[l]: (B, n_l)
    logits: Array  # (B, C)


@dataclass
class GradFactors:
    """Per-example rank-1 factors of one layer's weight gradient."""

    layer: int
    u: Array  # (B, m)
    delta: Array  # (B, n)

    @property
    def batch_size(self) -> int:
        return self.u.shape[0]


def forward(model: Mlp, batch: Array) -> tuple[Array, ForwardTrace]:
    """Forward pass over a (B, input_dim) batch; returns logits and trace."""
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if batch.shape[1] != model.input_dim:
        raise ShapeError(f"input dim {batch.shape[1]} != model input dim {model.input_dim}")
    inputs, preacts = [], []
    act = batch
    for l in range(model.num_layers):
        inputs.append(act)
        z = act @ model.weights[l].T + model.biases[l]
        preacts.append(z)
        act = z if l == model.num_layers - 1 else relu(z)
    check_finite(act, "logits")
    return act, ForwardTrace(model, inputs, preacts, act)


def backward_factors(model: Mlp, trace: ForwardTrace, dlogits: Array) -> list[GradFactors]:
    """Backprop arbitrary per-example logit gradients through the trace and
    return every layer's per-example factors; no dense gradient is formed."""
    if trace.model is not model:
        raise ContractError("trace was produced by a different model")
    factors: list[GradFactors] = [None] * model.num_layers  # type: ignore[list-item]
    delta = np.asarray(dlogits, dtype=np.float64)
    for l in range(model.num_layers - 1, -1, -1):
        factors[l] = GradFactors(l, trace.inputs[l], delta)
        if l > 0:
            delta = (delta @ model.weights[l]) * relu_grad(trace.preacts[l - 1])
    return factors


def backward(
    model: Mlp, trace: ForwardTrace, dlogits: Array
) -> tuple[list[GradFactors], list[Array], list[Array]]:
    """`backward_factors` plus the dense gradients.

    Returns (factors per layer, dense weight grads, dense bias grads); the
    dense grads are the unaveraged sum over the batch, i.e. gradients of the
    summed per-example loss, matching the factor sum exactly.
    """
    factors = backward_factors(model, trace, dlogits)
    wgrads = [outer_sum(f.delta, f.u) for f in factors]
    bgrads = [f.delta.sum(axis=0) for f in factors]
    return factors, wgrads, bgrads


def nll_grad(model: Mlp, trace: ForwardTrace, labels: np.ndarray) -> tuple[float, Array]:
    """Mean NLL loss of the trace's logits and the per-example logit gradient
    of the *summed* NLL."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    logits = trace.logits
    if labels.shape[0] != logits.shape[0]:
        raise ShapeError("one label per example required")
    if labels.min() < 0 or labels.max() >= model.num_classes:
        raise DataError(f"labels must lie in [0, {model.num_classes}), got "
                        f"{labels.min()}..{labels.max()}")
    logp = log_softmax(logits)
    loss = -float(np.mean(logp[np.arange(labels.size), labels]))
    dlogits = np.exp(logp)
    dlogits[np.arange(labels.size), labels] -= 1.0
    return loss, dlogits


def backward_nll(
    model: Mlp, trace: ForwardTrace, labels: np.ndarray
) -> tuple[float, list[GradFactors], list[Array], list[Array]]:
    """Mean NLL loss and its per-example factorized / dense gradients.

    Factors and dense grads correspond to the *summed* per-example NLL; the
    caller divides by B where a mean-loss gradient is wanted.
    """
    loss, dlogits = nll_grad(model, trace, labels)
    factors, wgrads, bgrads = backward(model, trace, dlogits)
    return loss, factors, wgrads, bgrads


def outer_sum(delta: Array, u: Array) -> Array:
    """D^T U for (B, n) delta rows and (B, m) u rows: the sum over the rows of
    outer(delta_i, u_i), as a fresh (n, m) array.

    With one row each entry is a single product, so np.dot and `@` agree bit
    for bit, and np.dot is faster: at 512x512 with one BLAS thread `@` took
    0.51-0.75 ms and np.dot 0.33-0.35 ms. With more rows `@` is faster
    (B = 2/5/25/64: 0.17/0.20/0.37/0.71 ms against 0.23/0.27/0.45/0.85 ms),
    so it stays there."""
    if delta.shape[0] == 1:
        return np.dot(delta.T, u)
    return delta.T @ u


def reconstruct_gradient(factors: GradFactors) -> Array:
    """Sum of per-example outer products; equals the dense weight gradient."""
    if factors.batch_size == 0:
        raise ShapeError("empty factors")
    return outer_sum(factors.delta, factors.u)


def clone_with_weights(model: Mlp, replacements: dict[int, Array]) -> Mlp:
    """A copy of `model` with some weight matrices replaced, sharing no memory
    with `model`.

    The copy takes over each replacement array itself, without copying it,
    so the caller must not write to that array afterwards; only the weights
    it keeps from `model`, and the biases, are copied. A replacement must
    be a float64 array of its layer's shape that shares no memory with any
    of `model`'s arrays: a wrong layer or shape raises ShapeError, and a
    wrong dtype or shared memory raises ContractError."""
    owned = model.weights + model.biases
    for l, w in replacements.items():
        if not isinstance(w, np.ndarray) or w.dtype != np.float64:
            raise ContractError(f"replacement for layer {l} must be a float64 array")
        if not 0 <= l < model.num_layers:
            raise ShapeError(f"unknown layer id {l}")
        if w.shape != model.weights[l].shape:
            raise ShapeError(
                f"replacement for layer {l} has shape {w.shape}, "
                f"expected {model.weights[l].shape}"
            )
        if any(np.may_share_memory(w, a) for a in owned):
            raise ContractError(f"replacement for layer {l} may share memory with the model")
    weights = [
        replacements[l] if l in replacements else np.array(w, dtype=np.float64, copy=True)
        for l, w in enumerate(model.weights)
    ]
    biases = [np.array(b, copy=True) for b in model.biases]
    return Mlp(weights, biases)


def save_model(model: Mlp, path: str | Path) -> None:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "layer_dims": [model.input_dim] + [w.shape[0] for w in model.weights],
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }
    Path(path).write_text(json.dumps(payload))


def load_model(path: str | Path) -> Mlp:
    """Read a `save_model` checkpoint. Any defect in the file raises
    DataError: malformed JSON or keys, arrays whose shapes disagree with the
    checkpoint's `layer_dims`, or a non-finite value."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise DataError(f"malformed model checkpoint {path}: {e}") from e
    if not isinstance(payload, dict):
        raise DataError(f"model checkpoint {path} must hold a JSON object")
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise DataError(
            f"model checkpoint version {payload.get('format_version')} "
            f"unsupported (want {MODEL_FORMAT_VERSION})"
        )
    if set(payload) != _MODEL_KEYS:
        raise DataError(
            f"model checkpoint {path}: missing keys {sorted(_MODEL_KEYS - set(payload))}, "
            f"unexpected keys {sorted(set(payload) - _MODEL_KEYS)}"
        )
    dims = payload["layer_dims"]
    if not (isinstance(dims, list) and len(dims) >= 2
            and all(type(d) is int and d >= 1 for d in dims)):
        raise DataError(f"model checkpoint {path}: bad layer_dims {dims!r}")
    try:
        weights = [np.array(w, dtype=np.float64) for w in payload["weights"]]
        biases = [np.array(b, dtype=np.float64) for b in payload["biases"]]
    except (TypeError, ValueError) as e:
        raise DataError(f"malformed model checkpoint {path}: {e!r}") from e
    want_w = [(n, m) for m, n in zip(dims, dims[1:])]
    got_w, got_b = [w.shape for w in weights], [b.shape for b in biases]
    if got_w != want_w or got_b != [(n,) for n, _ in want_w]:
        raise DataError(
            f"model checkpoint {path}: weight shapes {got_w} and bias shapes {got_b} "
            f"do not match layer_dims {dims}"
        )
    if not all(np.isfinite(a).all() for a in weights + biases):
        raise DataError(f"model checkpoint {path} holds non-finite values")
    return Mlp(weights, biases)
