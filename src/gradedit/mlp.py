"""Fully-connected classifier models whose backward pass exposes, per
example, the rank-1 gradient factors (layer input u, pre-activation
gradient delta) for every layer.

Layer l computes z_{l+1} = W_l u_l + b_l with relu between layers and raw
logits at the output. The per-example gradient of the loss w.r.t. W_l is
outer(delta_{l+1}, u_l); summing those outer products over the batch
recovers the dense gradient exactly. A model that `editor.apply_edit` returns
keeps its edited layers in factored form until its weights are read (`Mlp`).
`forward` and `backward_factors` are the one layer walk each way, for dense
and factored models and for a (G, B, d) batch of G groups under G edits;
`nll_factors` is the NLL's factor pass, and `backward` the one routine that
forms dense weight gradients, for the layers it is given.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (ContractError, DataError, ShapeError, integral, json_file, json_floats,
                     json_int)
from .ndops import Array, check_finite, log_softmax, relu, relu_grad, xavier_uniform

MODEL_FORMAT_VERSION = 1
_MODEL_KEYS = {"format_version", "layer_dims", "weights", "biases"}


class Mlp:
    """Stack of affine layers with relu activations (identity on the last);
    `weights[l]` has shape (n_l, m_l) and `biases[l]` (n_l,).

    A model can also be an edit of another one in factored form, as
    `editor.apply_edit` makes it: `edits` maps each edited layer l to
    (alpha_l, U~_l, D~_l), with (k, m_l) rows U~_l and (k, n_l) rows D~_l, for
    W~_l = W_l - alpha_l D~_l^T U~_l, and the model holds read-only views of
    the base model's arrays beside them. `forward` computes an edited layer
    as x W^T + b - alpha (x U~^T) D~, `backward_factors` carries delta
    through it as delta W - alpha (delta D~^T) U~, and the shape properties
    read the base shapes, so none of them forms W~. The k rows may stack G
    groups' edits: group g of a (G, B, d) batch is scored under rows
    g*k/G:(g+1)*k/G (`edit_factors`). The first read of `weights` forms every
    W~_l (`edited_weight`) and copies the other weights and the biases; the
    model is dense from then on and shares no memory with its base. Until
    then the base must not be changed in place."""

    def __init__(self, weights: list[Array], biases: list[Array],
                 edits: dict[int, tuple[float, Array, Array]] | None = None) -> None:
        if edits is not None:
            weights, biases = [_read_only(w) for w in weights], [_read_only(b) for b in biases]
        self._weights, self.biases, self.edits = weights, biases, edits
        if len(biases) != len(weights):
            raise ShapeError(f"{len(biases)} biases for {len(weights)} layers")
        for l, (w, b) in enumerate(zip(weights, biases)):
            if b.shape != (w.shape[0],):
                raise ShapeError(f"layer {l} bias shape {b.shape} != ({w.shape[0]},)")
        for l in range(len(weights) - 1):
            if weights[l + 1].shape[1] != weights[l].shape[0]:
                raise ShapeError(
                    f"layer {l} output dim {weights[l].shape[0]} != "
                    f"layer {l + 1} input dim {weights[l + 1].shape[1]}"
                )
        for l, (_, u, d) in (edits or {}).items():
            if not 0 <= l < len(weights):
                raise ShapeError(f"edit of unknown layer {l}")
            n, m = weights[l].shape
            if u.shape != (len(u), m) or d.shape != (len(u), n):
                raise ShapeError(f"layer {l} edit factors {u.shape}/{d.shape} do not fit "
                                 f"its ({n}, {m}) weights")

    @property
    def weights(self) -> list[Array]:
        if self.edits is not None:
            self._weights = [
                edited_weight(w, *self.edits[l]) if l in self.edits
                else np.array(w, dtype=np.float64, copy=True)
                for l, w in enumerate(self._weights)
            ]
            self.biases = [np.array(b, copy=True) for b in self.biases]
            self.edits = None
        return self._weights

    @property
    def num_layers(self) -> int:
        return len(self._weights)

    @property
    def input_dim(self) -> int:
        return self._weights[0].shape[1]

    @property
    def num_classes(self) -> int:
        return self._weights[-1].shape[0]

    def layer_shape(self, layer: int) -> tuple[int, int]:
        """(m, n) = (input dim, output dim) of `layer`'s weight matrix."""
        n, m = self._weights[layer].shape
        return m, n


def _read_only(a: Array) -> Array:
    view = a.view()
    view.flags.writeable = False
    return view


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
    inputs: list[Array]  # inputs[l]: (rows, m_l), every row of the batch
    preacts: list[Array]  # preacts[l]: (rows, n_l)
    logits: Array  # (B, C) or (G, B, C), the batch's leading shape
    proj: dict[int, Array]  # edited layer -> P = x U~^T, (B, k) or (G, B, k)


def edit_factors(model: Mlp, layer: int, shape: tuple[int, ...]) -> tuple[float, Array, Array]:
    """(alpha, U~, D~) of the factored model's edited `layer`, as a forward
    of a batch or logits of `shape` applies them. Every row of a (B, d) batch
    is edited by all R rows, (R, m) U~ and (R, n) D~; for a (G, B, d) batch
    they are (G, R/G, m) and (G, R/G, n) stacks, and group g is edited by
    rows g*R/G:(g+1)*R/G."""
    alpha, u, d = model.edits[layer]
    if len(shape) == 3:
        u, d = u.reshape(shape[0], -1, u.shape[1]), d.reshape(shape[0], -1, d.shape[1])
    return alpha, u, d


def forward(model: Mlp, batch: Array) -> tuple[Array, ForwardTrace]:
    """Forward pass over a (B, input_dim) batch, or a (G, B, input_dim) batch
    of G groups; returns logits of the batch's leading shape and the trace.
    The base product runs over all rows at once. A factored model's edited
    layers go through `subtract_rank_k`, group by group as `edit_factors`
    splits the edit rows; G must divide them."""
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    dim, edits, stacked = model.input_dim, model.edits or {}, batch.ndim == 3
    if batch.ndim > 3 or batch.shape[-1] != dim:
        raise ShapeError(f"batch shape {batch.shape} is not (B, {dim}) or (G, B, {dim})")
    if stacked and (not len(batch) or any(len(u) % len(batch) for _, u, _ in edits.values())):
        raise ShapeError(f"{len(batch)} groups do not divide the model's edit rows")
    inputs, preacts, proj = [], [], {}
    act = batch.reshape(-1, dim) if stacked else batch
    for l in range(model.num_layers):
        inputs.append(act)
        z = act @ model._weights[l].T + model.biases[l]
        if l in edits:
            x = act.reshape(*batch.shape[:-1], act.shape[1]) if stacked else act
            proj[l] = subtract_rank_k(z, x, *edit_factors(model, l, batch.shape))
        preacts.append(z)
        act = z if l == model.num_layers - 1 else relu(z)
    check_finite(act, "logits")
    logits = act.reshape(*batch.shape[:-1], act.shape[1]) if stacked else act
    return logits, ForwardTrace(model, inputs, preacts, logits, proj)


def backward_factors(trace: ForwardTrace, dlogits: Array, lowest: int = 0) -> list[Array | None]:
    """Backprop arbitrary per-example logit gradients, shaped like the trace's
    logits, through the trace's model, from the top layer down to `lowest`,
    and return each of those layers' (rows, n_l) delta rows; the entries below
    `lowest` are None, and no dense gradient is formed. Layer l's rank-1
    factors are these rows and its u rows, `trace.inputs[l]`.

    Delta leaves an edited layer of a factored model through W~ by the
    rank-k transpose, Delta W - alpha (Delta D~^T) U~, group by group as the
    forward applied the edit, so W~ is never formed."""
    model = trace.model
    delta = np.asarray(dlogits, dtype=np.float64)
    if delta.shape != trace.logits.shape:
        raise ShapeError(f"logit grad shape {delta.shape} != logits shape {trace.logits.shape}")
    if delta.ndim == 3:
        delta = delta.reshape(-1, delta.shape[2])
    edits = model.edits or {}
    deltas: list[Array | None] = [None] * model.num_layers
    for l in range(model.num_layers - 1, lowest - 1, -1):
        deltas[l] = delta
        if l == lowest:
            break
        d_x = delta @ model._weights[l]
        if l in edits:
            alpha, u, d = edit_factors(model, l, trace.logits.shape)
            q = delta.reshape(*trace.logits.shape[:-1], -1) @ d.swapaxes(-1, -2)
            d_x -= alpha * (q @ u).reshape(d_x.shape)
        delta = d_x * relu_grad(trace.preacts[l - 1])
    return deltas


def backward(trace: ForwardTrace, dlogits: Array,
             layers: list[int] | None = None) -> tuple[list[Array | None], list[Array]]:
    """(delta rows, dense weight gradients): `backward_factors` down to the
    lowest of `layers` (default every layer), and for each l of `layers`, in
    its order, outer_sum(deltas[l], trace.inputs[l]), the gradient of the
    summed per-example loss. The one routine that forms dense gradients; it
    forms no bias gradient, layer l's being deltas[l].sum(0)."""
    if layers is None:
        layers = range(trace.model.num_layers)
    deltas = backward_factors(trace, dlogits, min(layers))
    return deltas, [outer_sum(deltas[l], trace.inputs[l]) for l in layers]


def input_rows(rows, dim: int | None, what: str) -> Array:
    """`rows` as a float64 (N, dim) array, of any width when `dim` is None;
    a ragged list or any other shape raises ShapeError. An array of that
    shape and dtype comes back as it is."""
    try:
        array = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise ShapeError(f"{what} must be rows of numbers of one shape") from e
    if array.ndim != 2 or dim is not None and array.shape[1] != dim:
        raise ShapeError(f"{what} must be rows of shape ({dim},), got an array of shape "
                         f"{array.shape}")
    return array


def edit_rows(model: Mlp, pairs) -> tuple[Array, Array]:
    """The one reader of an edit: a non-empty list of (x, y) pairs, as
    (B, input_dim) float64 inputs and (B,) int64 labels. Every x must have
    shape (input_dim,), else ShapeError. Every y must be `errors.integral`
    and in [0, num_classes); it is never rounded. A bool, float or string
    label, an empty edit or a pair that is not two items raises DataError."""
    if not isinstance(pairs, (list, tuple)) or not pairs:
        raise DataError(f"an edit must be a non-empty list of (x, y) pairs, got {pairs!r:.60}")
    try:
        inputs, labels = zip(*pairs, strict=True)
    except (TypeError, ValueError) as e:
        raise DataError("an edit must be a list of (x, y) pairs") from e
    classes = model.num_classes
    if not all(integral(y) and 0 <= y < classes for y in labels):
        raise DataError(f"edit labels must be integers in [0, {classes}), "
                        f"got {list(labels)!r:.80}")
    return input_rows(inputs, model.input_dim, "edit inputs"), np.array(labels, dtype=np.int64)


def nll_grad(logits: Array, labels: np.ndarray) -> tuple[float, Array]:
    """Mean NLL loss of (B, C) logits and the per-example logit gradient
    of the *summed* NLL, softmax - onehot: the one place that forms it."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if labels.shape[0] != logits.shape[0]:
        raise ShapeError("one label per example required")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise DataError(f"labels must lie in [0, {logits.shape[1]}), got "
                        f"{labels.min()}..{labels.max()}")
    logp = log_softmax(logits)
    # sum / n is np.mean's arithmetic, without its per-call set-up
    loss = -float(logp[np.arange(labels.size), labels].sum()) / labels.size
    dlogits = np.exp(logp)
    dlogits[np.arange(labels.size), labels] -= 1.0
    return loss, dlogits


def backward_nll(trace: ForwardTrace, labels: np.ndarray, layers: list[int] | None = None
                 ) -> tuple[float, list[Array | None], list[Array]]:
    """Mean NLL loss and `backward`'s delta rows and dense weight gradients
    of `layers` for it.

    Delta rows and dense grads correspond to the *summed* per-example NLL;
    the caller divides by B where a mean-loss gradient is wanted.
    """
    loss, dlogits = nll_grad(trace.logits, labels)
    return (loss, *backward(trace, dlogits, layers))


def nll_factors(model: Mlp, xs: Array, ys) -> tuple[list[Array], list[Array]]:
    """Every layer's u rows and delta rows for the summed NLL of labels `ys`
    at the rows `xs`: one forward and one factor pass; the trace is freed."""
    logits, trace = forward(model, xs)
    return trace.inputs, backward_factors(trace, nll_grad(logits, ys)[1])


# Entries n*m at or above which one row's outer product is formed by einsum.
OUTER_EINSUM_MIN = 1 << 16


def outer_sum(delta: Array, u: Array) -> Array:
    """D^T U for (B, n) delta rows and (B, m) u rows: the sum over the rows of
    outer(delta_i, u_i), as a fresh (n, m) array.

    With one row each entry is a single product, so np.dot, `@` and
    einsum("i,j->ij") agree bit for bit, and the size picks the fastest.
    On a 2-core Xeon with one OpenBLAS thread, np.dot against einsum took
    258 against 140 us at 512x512, but 17.7 against 19.8 us at 512x64, 5.4
    against 6.5 us at 128x64 and 1.2 against 3.0 us at 16x128: below
    `OUTER_EINSUM_MIN` entries einsum's fixed cost outweighs its faster
    writes, so np.dot stays there. `@` is slower than np.dot on one row
    (0.51-0.75 against 0.33-0.35 ms at 512x512) but faster on more (B =
    2/5/25/64: 0.17/0.20/0.37/0.71 ms against 0.23/0.27/0.45/0.85 ms), so
    it forms every product of more than one row."""
    if delta.shape[0] == 1:
        if delta.shape[1] * u.shape[1] >= OUTER_EINSUM_MIN:
            return np.einsum("i,j->ij", delta[0], u[0])
        return np.dot(delta.T, u)
    return delta.T @ u


def edited_weight(w: Array, alpha: float, u: Array, d: Array) -> Array:
    """W~ = W - alpha D~^T U~ for (k, m) rows U~ and (k, n) rows D~, formed in
    the buffer of its fresh `outer_sum`: the one place that forms an edited
    weight matrix."""
    out = outer_sum(d, u)
    np.multiply(alpha, out, out=out)
    return np.subtract(w, out, out=out)


def subtract_rank_k(z: Array, x: Array, alpha: float, u: Array, d: Array) -> Array:
    """z -= alpha (x U~^T) D~ in place: the rank-k term of an edited layer,
    without forming W~. Either x holds (B, m) input rows under one edit with
    (k, m) rows U~ and (k, n) rows D~, or x, U~ and D~ are stacks of G such
    groups, (G, B, m), (G, k, m) and (G, k, n); z holds the G*B rows of
    x W^T + b, as a (G*B, n) array. Returns P = x U~^T, (B, k) or (G, B, k),
    which the reverse pass reuses."""
    proj = x @ u.swapaxes(-1, -2)
    z -= alpha * (proj @ d).reshape(z.shape)
    return proj


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
    checkpoint's `layer_dims`, or a value that is not a finite JSON number."""
    what = f"model checkpoint {path}"
    payload = json_file(path, what, MODEL_FORMAT_VERSION)
    if set(payload) != _MODEL_KEYS:
        raise DataError(
            f"{what}: missing keys {sorted(_MODEL_KEYS - set(payload))}, "
            f"unexpected keys {sorted(set(payload) - _MODEL_KEYS)}"
        )
    dims, weights, biases = payload["layer_dims"], payload["weights"], payload["biases"]
    if not (isinstance(dims, list) and len(dims) >= 2):
        raise DataError(f"{what}: bad layer_dims {dims!r}")
    dims = [json_int(d, f"{what}: a layer dim", 1) for d in dims]
    if not (isinstance(weights, list) and isinstance(biases, list)
            and len(weights) == len(biases) == len(dims) - 1):
        raise DataError(f"{what}: {len(dims) - 1} layers need as many weights and biases")
    weights = [json_floats(w, (n, m), f"{what}: weight {l}")
               for l, (w, m, n) in enumerate(zip(weights, dims, dims[1:]))]
    biases = [json_floats(b, (n,), f"{what}: bias {l}")
              for l, (b, n) in enumerate(zip(biases, dims[1:]))]
    return Mlp(weights, biases)
