"""Learned gradient-transform editor networks.

One small two-block residual MLP per unique weight-matrix shape maps the
normalized rank-1 gradient factors (u, delta) of an edited layer to
pseudo-factors (u~, delta~). Their summed outer product is the pseudo-gradient
used as the edit direction: W~ = W - alpha * pseudograd. The blocks use
low-rank weights (U V factorizations) and are initialized to the exact
identity (U1 = U2 = 0, b1 = 0), so a fresh editor reproduces plain
fine-tuning up to input normalization. Per-layer FiLM scale/shift vectors and
a per-layer scalar step size allow specialization under shape sharing.
Each layer's editor maps all B edits of a batch at once, as row-wise matrix
products over the (B, m) u rows and (B, n) delta rows.

An edit of k examples has rank <= k, so meta-training keeps each edited layer
as its factors (W, alpha, U~, D~) in an `EditTape`: `edited_forward` computes
x W^T + b - alpha (x U~^T) D~, and `backprop_edit` chains logit gradients
through those products and the editor blocks into the editor parameters,
treating the raw factors as constants (no higher-order gradients). Neither
forms an (n, m) matrix; only `apply_edit` materializes W~.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .mlp import Mlp, backward_factors, clone_with_weights, forward, nll_grad, outer_sum
from .ndops import Array, FlatTree, check_finite, flatten, relu, relu_grad, xavier_uniform

EDITOR_FORMAT_VERSION = 1

TRANSFORM_MODES = ("both", "only_u", "only_delta", "only_smaller")


@dataclass
class VariantConfig:
    """Ablation switches; the defaults are the full editor."""

    share_params: bool = True
    normalize: bool = True
    identity_init: bool = True
    transform: str = "both"

    def __post_init__(self) -> None:
        if self.transform not in TRANSFORM_MODES:
            raise ConfigError(f"unknown transform mode {self.transform!r}")

    def transformed_parts(self, m: int, n: int) -> tuple[str, ...]:
        """Which of the u (dim m) / delta (dim n) halves the editor maps."""
        if self.transform == "both":
            return ("u", "delta")
        if self.transform == "only_u":
            return ("u",)
        if self.transform == "only_delta":
            return ("delta",)
        return ("u",) if m <= n else ("delta",)

    def editor_width(self, m: int, n: int) -> int:
        return sum(m if p == "u" else n for p in self.transformed_parts(m, n))


@dataclass
class EditorParams:
    """All trainable editor state, stored as a flat name -> array tree.

    Group tensors (shared across same-shape layers) live under
    "g:<key>:{U1,V1,b1,U2,V2}"; per-layer tensors under
    "l:<layer>:{s1,o1,s2,o2,alpha}". `init_editor`, `load_editor` and
    `copy` lay the tree out as a `FlatTree`, views into one vector
    `values.flat`, so that Adam updates the whole editor in one operation.
    """

    rank: int
    variant: VariantConfig
    editable_layers: list[int]
    layer_group: dict[int, str]
    group_dims: dict[str, tuple[int, int]]  # group key -> (m, n)
    values: dict[str, Array] = field(default_factory=dict)

    def num_parameters(self) -> int:
        return sum(int(v.size) for v in self.values.values())

    def copy(self) -> "EditorParams":
        return EditorParams(
            rank=self.rank,
            variant=self.variant,
            editable_layers=list(self.editable_layers),
            layer_group=dict(self.layer_group),
            group_dims=dict(self.group_dims),
            values=flatten(self.values),
        )


_NORM_STATS = ("mean_u", "var_u", "mean_d", "var_d")


@dataclass
class Normalizer:
    """Per-group input statistics (population mean/variance, floored)."""

    eps: float
    mean_u: dict[str, Array]
    var_u: dict[str, Array]
    mean_d: dict[str, Array]
    var_d: dict[str, Array]

    def norm_u(self, key: str, u: Array) -> Array:
        return (u - self.mean_u[key]) / np.sqrt(self.var_u[key])

    def norm_d(self, key: str, d: Array) -> Array:
        return (d - self.mean_d[key]) / np.sqrt(self.var_d[key])


def _group_key(model: Mlp, layer: int, variant: VariantConfig) -> str:
    m, n = model.layer_shape(layer)
    return f"{m}x{n}" if variant.share_params else f"layer{layer}"


def _tensor_shapes(
    rank: int, variant: VariantConfig, layer_group: dict[int, str], group_dims: dict
) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every tensor that `init_editor` makes; `load_editor`
    checks a checkpoint against it."""
    shapes: dict[str, tuple[int, ...]] = {}
    for key, (m, n) in group_dims.items():
        w = variant.editor_width(m, n)
        if not 1 <= rank <= w:
            raise ConfigError(f"rank {rank} invalid for editor width {w}")
        shapes.update({f"g:{key}:V1": (rank, w), f"g:{key}:V2": (rank, w),
                       f"g:{key}:U1": (w, rank), f"g:{key}:U2": (w, rank), f"g:{key}:b1": (w,)})
    for l, key in layer_group.items():
        w = variant.editor_width(*group_dims[key])
        shapes.update({f"l:{l}:{part}": (w,) for part in ("s1", "o1", "s2", "o2")})
        shapes[f"l:{l}:alpha"] = ()
    return shapes


def init_editor(
    model: Mlp,
    editable_layers: Sequence[int],
    rank: int,
    variant: VariantConfig,
    rng: np.random.Generator,
    alpha_init: float = 1e-2,
) -> EditorParams:
    """Build editor parameters for `editable_layers` of `model`."""
    layers = list(editable_layers)
    if not layers:
        raise ConfigError("editable layer set is empty")
    for l in layers:
        if not 0 <= l < model.num_layers:
            raise ConfigError(f"layer {l} not in model")
    layer_group = {l: _group_key(model, l, variant) for l in layers}
    group_dims = {layer_group[l]: model.layer_shape(l) for l in layers}

    values: dict[str, Array] = {}
    for key, (m, n) in group_dims.items():
        width = variant.editor_width(m, n)
        if not 1 <= rank <= width:
            raise ConfigError(f"rank {rank} invalid for editor width {width}")
        values[f"g:{key}:V1"] = xavier_uniform(rank, width, rng)
        values[f"g:{key}:V2"] = xavier_uniform(rank, width, rng)
        if variant.identity_init:
            values[f"g:{key}:U1"] = np.zeros((width, rank))
            values[f"g:{key}:U2"] = np.zeros((width, rank))
        else:
            values[f"g:{key}:U1"] = xavier_uniform(width, rank, rng)
            values[f"g:{key}:U2"] = xavier_uniform(width, rank, rng)
        values[f"g:{key}:b1"] = np.zeros(width)
    for l in layers:
        width = variant.editor_width(*model.layer_shape(l))
        values[f"l:{l}:s1"] = np.ones(width)
        values[f"l:{l}:o1"] = np.zeros(width)
        values[f"l:{l}:s2"] = np.ones(width)
        values[f"l:{l}:o2"] = np.zeros(width)
        values[f"l:{l}:alpha"] = np.array(float(alpha_init))
    return EditorParams(rank, variant, layers, layer_group, group_dims, flatten(values))


def fit_normalizer(
    model: Mlp, edit_records: Iterable, params: EditorParams, eps: float = 1e-6
) -> Normalizer:
    """One factor pass over the stacked edit train set with the un-edited
    model, pooling the per-dimension stats of u and delta over all member
    layers of a group."""
    records = list(edit_records)
    if not records:
        raise DataError("cannot fit normalizer on an empty edit set")
    _, trace = forward(model, np.stack([rec.x_e for rec in records]))
    _, dlogits = nll_grad(model, trace, [rec.y_e for rec in records])
    factors = backward_factors(model, trace, dlogits)
    mean_u, var_u, mean_d, var_d = {}, {}, {}, {}
    for key in params.group_dims:
        members = [l for l in params.editable_layers if params.layer_group[l] == key]
        us = np.concatenate([factors[l].u for l in members])
        ds = np.concatenate([factors[l].delta for l in members])
        mean_u[key] = us.mean(axis=0)
        var_u[key] = np.maximum(us.var(axis=0), eps)
        mean_d[key] = ds.mean(axis=0)
        var_d[key] = np.maximum(ds.var(axis=0), eps)
    return Normalizer(eps, mean_u, var_u, mean_d, var_d)


@dataclass
class _EditorTape:
    """Intermediates of one layer's editor pass, one row per edit, kept for
    the reverse pass."""

    z: Array
    v1z: Array
    a1: Array
    pre1: Array
    h: Array
    v2h: Array
    a2: Array


def _editor_apply(
    params: EditorParams, layer: int, u: Array, delta: Array, normalizer: Normalizer | None
) -> tuple[Array, Array, _EditorTape]:
    """Forward a layer's (B, m) u rows and (B, n) delta rows through its
    editor; returns (u~ rows, delta~ rows, tape)."""
    key = params.layer_group[layer]
    m, n = params.group_dims[key]
    if u.ndim != 2 or u.shape[1] != m or delta.shape != (u.shape[0], n):
        raise ShapeError(f"factor dims {u.shape}/{delta.shape} do not match layer ({m},{n})")
    variant = params.variant
    if variant.normalize:
        if normalizer is None:
            raise ConfigError("normalize=True requires a fitted normalizer")
        nu = normalizer.norm_u(key, u)
        nd = normalizer.norm_d(key, delta)
    else:
        nu, nd = u, delta
    parts = variant.transformed_parts(m, n)
    z = np.concatenate([nu if p == "u" else nd for p in parts], axis=1)

    v = params.values
    V1, U1, b1 = v[f"g:{key}:V1"], v[f"g:{key}:U1"], v[f"g:{key}:b1"]
    V2, U2 = v[f"g:{key}:V2"], v[f"g:{key}:U2"]
    s1, o1 = v[f"l:{layer}:s1"], v[f"l:{layer}:o1"]
    s2, o2 = v[f"l:{layer}:s2"], v[f"l:{layer}:o2"]

    v1z = z @ V1.T
    a1 = v1z @ U1.T + b1
    pre1 = s1 * a1 + o1
    h = z + relu(pre1)
    v2h = h @ V2.T
    a2 = v2h @ U2.T
    g = h + s2 * a2 + o2

    # Split g back into the transformed halves; untransformed factors pass
    # through raw (gradient units), not normalized.
    out_u, out_d = u, delta
    off = 0
    for p in parts:
        width = m if p == "u" else n
        seg = g[:, off : off + width]
        if p == "u":
            out_u = seg
        else:
            out_d = seg
        off += width
    return out_u, out_d, _EditorTape(z, v1z, a1, pre1, h, v2h, a2)


def editor_forward(
    params: EditorParams,
    layer: int,
    u: Array,
    delta: Array,
    normalizer: Normalizer | None = None,
) -> tuple[Array, Array]:
    """Map one (m,) u / (n,) delta factor pair through `layer`'s editor."""
    u_t, d_t, _ = _editor_apply(params, layer, u[None, :], delta[None, :], normalizer)
    return u_t[0], d_t[0]


def _editor_backward(
    params: EditorParams,
    layer: int,
    tape: _EditorTape,
    g_u: Array,
    g_d: Array,
    grads: dict[str, Array],
) -> None:
    """Accumulate d(loss)/d(editor params), summed over the tape's rows, into
    `grads`, given (B, m) / (B, n) gradients w.r.t. the editor outputs
    (u~, delta~)."""
    key = params.layer_group[layer]
    m, n = params.group_dims[key]
    parts = params.variant.transformed_parts(m, n)
    g_g = np.concatenate([g_u if p == "u" else g_d for p in parts], axis=1)

    v = params.values
    U1, U2, V2 = v[f"g:{key}:U1"], v[f"g:{key}:U2"], v[f"g:{key}:V2"]
    s1, s2 = v[f"l:{layer}:s1"], v[f"l:{layer}:s2"]

    # g = h + s2 * a2 + o2, a2 = U2 (V2 h)
    grads[f"l:{layer}:o2"] += g_g.sum(axis=0)
    grads[f"l:{layer}:s2"] += (g_g * tape.a2).sum(axis=0)
    d_a2 = g_g * s2
    grads[f"g:{key}:U2"] += d_a2.T @ tape.v2h
    d_v2h = d_a2 @ U2
    grads[f"g:{key}:V2"] += d_v2h.T @ tape.h
    d_h = g_g + d_v2h @ V2
    # h = z + relu(s1 * a1 + o1), a1 = U1 (V1 z) + b1; z is a constant
    d_pre1 = d_h * relu_grad(tape.pre1)
    grads[f"l:{layer}:o1"] += d_pre1.sum(axis=0)
    grads[f"l:{layer}:s1"] += (d_pre1 * tape.a1).sum(axis=0)
    d_a1 = d_pre1 * s1
    grads[f"g:{key}:b1"] += d_a1.sum(axis=0)
    grads[f"g:{key}:U1"] += d_a1.T @ tape.v1z
    d_v1z = d_a1 @ U1
    grads[f"g:{key}:V1"] += d_v1z.T @ tape.z


@dataclass
class EditTape:
    """An edited model in factored form, W~_l = W_l - alpha_l * D~_l^T U~_l
    at each editable layer, with what the reverse pass needs."""

    model: Mlp
    alpha: dict[int, float]
    pseudo_u: dict[int, Array]  # layer -> (k, m) rows u~
    pseudo_d: dict[int, Array]  # layer -> (k, n) rows delta~
    editor_tapes: dict[int, _EditorTape]


def tape_from_factors(
    model: Mlp,
    params: EditorParams,
    normalizer: Normalizer | None,
    u: Mapping[int, Array],
    delta: Mapping[int, Array],
) -> EditTape:
    """Transform each editable layer's raw (B, m) u rows and (B, n) delta
    rows, taken on the un-edited `model`, into the edited model's factors
    plus the reverse-pass tape: the one editor path of editing and
    meta-training. Every editable layer must exist in `model` with its
    group's (m, n), else ShapeError."""
    tape = EditTape(model, {}, {}, {}, {})
    for l in params.editable_layers:
        mn = params.group_dims[params.layer_group[l]]
        if not 0 <= l < model.num_layers or model.layer_shape(l) != mn:
            shapes = [model.layer_shape(i) for i in range(model.num_layers)]
            raise ShapeError(f"editor layer {l} of shape (m, n) = {mn} does not fit the "
                             f"model's layer shapes {shapes}")
        tape.alpha[l] = float(params.values[f"l:{l}:alpha"])
        tape.pseudo_u[l], tape.pseudo_d[l], tape.editor_tapes[l] = _editor_apply(
            params, l, u[l], delta[l], normalizer
        )
    return tape


def apply_edit_with_tape(
    model: Mlp,
    params: EditorParams,
    normalizer: Normalizer | None,
    edit_batch: Sequence[tuple[Array, int]],
) -> EditTape:
    """Compute factors on the un-edited model over the whole edit batch and
    transform them; returns the edited model as factors plus the reverse-pass
    tape. No (n, m) matrix is formed."""
    if not edit_batch:
        raise DataError("edit batch is empty")
    xs = np.stack([np.asarray(x, dtype=np.float64) for x, _ in edit_batch])
    ys = np.array([y for _, y in edit_batch], dtype=np.int64)
    _, trace = forward(model, xs)
    _, dlogits = nll_grad(model, trace, ys)
    factors = backward_factors(model, trace, dlogits)
    return tape_from_factors(model, params, normalizer, {f.layer: f.u for f in factors},
                             {f.layer: f.delta for f in factors})


def apply_edit(
    model: Mlp,
    params: EditorParams,
    normalizer: Normalizer | None,
    edit_batch: Sequence[tuple[Array, int]],
) -> Mlp:
    """One-shot edit: W~_l = W_l - alpha_l * pseudograd_l for each editable
    layer, with pseudograd_l = sum_i outer(delta~_i, u~_i). Biases and
    non-editable layers are untouched; `model` is not modified, and the
    edited model shares no memory with it. The only place where the edited
    weights are formed: each in the buffer of its fresh pseudograd."""
    tape = apply_edit_with_tape(model, params, normalizer, edit_batch)
    edited = {}
    for l, a in tape.alpha.items():
        w = outer_sum(tape.pseudo_d[l], tape.pseudo_u[l])
        np.multiply(a, w, out=w)
        edited[l] = np.subtract(model.weights[l], w, out=w)
    return clone_with_weights(model, edited)


@dataclass
class EditedTrace:
    """Cached rows of one `edited_forward` call, kept for `backprop_edit`."""

    tape: EditTape
    logits_shape: tuple[int, ...]  # (B, C), or (G, B, C) for G groups
    inputs: list[Array]  # inputs[l]: (G*B, m_l)
    preacts: list[Array]  # preacts[l]: (G*B, n_l)
    proj: dict[int, Array]  # editable layer -> P = x U~^T, (G, B, k)


def _group_factors(tape: EditTape, layer: int, groups: int) -> tuple[Array, Array]:
    """`layer`'s U~ and D~ as (G, k, m) / (G, k, n) stacks: group g holds
    tape rows g*k:(g+1)*k."""
    u, d = tape.pseudo_u[layer], tape.pseudo_d[layer]
    return u.reshape(groups, -1, u.shape[1]), d.reshape(groups, -1, d.shape[1])


def edited_forward(tape: EditTape, batch: Array) -> tuple[Array, EditedTrace]:
    """Forward a (B, input_dim) batch through the edited model without forming
    W~: z = x W^T + b - alpha * (x U~^T) D~ at each editable layer.

    A (G, B, input_dim) batch holds G groups, each under its own edit: with
    the tape's G*k rows, group g is edited by rows g*k:(g+1)*k. The base
    product runs over all G*B rows at once; only the rank-k term is stacked
    per group."""
    model = tape.model
    batch = np.asarray(batch, dtype=np.float64)
    stacked = batch if batch.ndim == 3 else np.atleast_2d(batch)[None]
    if stacked.ndim != 3 or stacked.shape[2] != model.input_dim:
        raise ShapeError(f"batch shape {batch.shape} does not end in input dim {model.input_dim}")
    groups, rows = stacked.shape[0], tape.pseudo_u[min(tape.alpha)].shape[0]
    if groups == 0 or rows % groups:
        raise ShapeError(f"{groups} groups do not divide the tape's {rows} edit rows")
    width = stacked.shape[1]
    inputs, preacts, proj = [], [], {}
    act = stacked.reshape(groups * width, model.input_dim)
    for l in range(model.num_layers):
        inputs.append(act)
        z = act @ model.weights[l].T + model.biases[l]
        if l in tape.alpha:
            u, d = _group_factors(tape, l, groups)
            proj[l] = act.reshape(groups, width, act.shape[1]) @ u.transpose(0, 2, 1)
            z -= tape.alpha[l] * (proj[l] @ d).reshape(z.shape)
        preacts.append(z)
        act = z if l == model.num_layers - 1 else relu(z)
    check_finite(act, "logits")
    logits = act.reshape(groups, width, act.shape[1]) if batch.ndim == 3 else act
    return logits, EditedTrace(tape, logits.shape, inputs, preacts, proj)


def zero_grads(params: EditorParams) -> FlatTree:
    """Zero gradients for `params`, as views into one vector laid out like
    `params.values`."""
    shapes = {k: np.shape(v) for k, v in params.values.items()}
    return FlatTree(np.zeros(params.num_parameters()), shapes)


def backprop_edit(params: EditorParams, trace: EditedTrace, dlogits: Array) -> dict[str, Array]:
    """Chain per-example logit gradients of an `edited_forward` batch into
    editor-parameter gradients, summed over all rows and groups, in one pass
    down to the lowest editable layer.

    Per group, with X the layer's input rows, Delta = dL/dz, P = X U~^T and
    Q = Delta D~^T: dL/dalpha = -sum(P * Q), dL/dD~ = -alpha P^T Delta and
    dL/dU~ = -alpha Q^T X, which then flow through the editor blocks, once
    over all G*k tape rows; Delta moves down through W~ as
    Delta W - alpha Q U~. Raw factors are constants, so nothing propagates
    into the base model.
    """
    tape = trace.tape
    model = tape.model
    delta = np.asarray(dlogits, dtype=np.float64)
    if delta.shape != trace.logits_shape:
        raise ShapeError(f"logit grad shape {delta.shape} != logits shape {trace.logits_shape}")
    delta = delta.reshape(trace.preacts[-1].shape)
    grads = zero_grads(params)
    lowest = min(tape.alpha)
    for l in range(model.num_layers - 1, lowest - 1, -1):
        edited = l in tape.alpha
        if edited:
            alpha, P = tape.alpha[l], trace.proj[l]
            groups, width, _ = P.shape
            u, d = _group_factors(tape, l, groups)
            stacked = delta.reshape(groups, width, delta.shape[1])
            Q = stacked @ d.transpose(0, 2, 1)
            grads[f"l:{l}:alpha"] += np.array(-float(np.sum(P * Q)))
            g_d = -alpha * (P.transpose(0, 2, 1) @ stacked)
            x = trace.inputs[l]
            g_u = -alpha * (Q.transpose(0, 2, 1) @ x.reshape(groups, width, x.shape[1]))
            _editor_backward(params, l, tape.editor_tapes[l],
                             g_u.reshape(tape.pseudo_u[l].shape),
                             g_d.reshape(tape.pseudo_d[l].shape), grads)
        if l == lowest:
            break
        d_x = delta @ model.weights[l]
        if edited:
            d_x -= alpha * (Q @ u).reshape(d_x.shape)
        delta = d_x * relu_grad(trace.preacts[l - 1])
    return grads


def save_editor(
    params: EditorParams, normalizer: Normalizer | None, path: str | Path
) -> None:
    payload = {
        "format_version": EDITOR_FORMAT_VERSION,
        "rank": params.rank,
        "variant": {
            "share_params": params.variant.share_params,
            "normalize": params.variant.normalize,
            "identity_init": params.variant.identity_init,
            "transform": params.variant.transform,
        },
        "editable_layers": params.editable_layers,
        "layer_group": {str(k): v for k, v in params.layer_group.items()},
        "group_dims": {k: list(v) for k, v in params.group_dims.items()},
        "values": {k: v.tolist() for k, v in params.values.items()},
        "normalizer": None
        if normalizer is None
        else {
            "eps": normalizer.eps,
            **{
                stat: {k: v.tolist() for k, v in getattr(normalizer, stat).items()}
                for stat in _NORM_STATS
            },
        },
    }
    Path(path).write_text(json.dumps(payload))


def _check_tensors(tensors: dict[str, Array], shapes: dict, what: str) -> None:
    missing, extra = sorted(set(shapes) - set(tensors)), sorted(set(tensors) - set(shapes))
    if missing or extra:
        raise DataError(f"{what}: missing tensors {missing}, unexpected tensors {extra}")
    for name, shape in shapes.items():
        if tensors[name].shape != shape:
            raise DataError(f"{what}: tensor {name} has shape {tensors[name].shape}, want {shape}")


def load_editor(path: str | Path) -> tuple[EditorParams, Normalizer | None]:
    """Read a `save_editor` checkpoint; the tensor names and shapes must be
    those its header (rank, variant, layers, group dims) implies, and every
    tensor and normalizer value must be finite."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise DataError(f"malformed editor checkpoint {path}: {e}") from e
    if not isinstance(payload, dict):
        raise DataError(f"editor checkpoint {path} must hold a JSON object")
    if payload.get("format_version") != EDITOR_FORMAT_VERSION:
        raise DataError(
            f"editor checkpoint version {payload.get('format_version')} "
            f"unsupported (want {EDITOR_FORMAT_VERSION})"
        )
    try:
        layers = [int(l) for l in payload["editable_layers"]]
        params = EditorParams(
            rank=int(payload["rank"]),
            variant=VariantConfig(**payload["variant"]),
            editable_layers=layers,
            layer_group={l: payload["layer_group"][str(l)] for l in layers},
            group_dims={k: (int(m), int(n)) for k, (m, n) in payload["group_dims"].items()},
            values=flatten({k: np.array(v, dtype=np.float64)
                            for k, v in payload["values"].items()}),
        )
        shapes = _tensor_shapes(params.rank, params.variant, params.layer_group, params.group_dims)
        nz = payload["normalizer"]
        norm = None if nz is None else Normalizer(
            eps=float(nz["eps"]),
            **{stat: {k: np.array(v, dtype=np.float64) for k, v in nz[stat].items()}
               for stat in _NORM_STATS},
        )
    except (KeyError, TypeError, ValueError, AttributeError, ConfigError) as e:
        raise DataError(f"malformed editor checkpoint {path}: {e!r}") from e
    what = f"editor checkpoint {path}"
    _check_tensors(params.values, shapes, what)
    if norm is not None:
        for stat in _NORM_STATS:
            dim = 0 if stat.endswith("_u") else 1
            shapes = {k: (mn[dim],) for k, mn in params.group_dims.items()}
            _check_tensors(getattr(norm, stat), shapes, f"{what}, normalizer {stat}")
    elif params.variant.normalize:
        raise DataError(f"{what}: a normalizing editor needs its normalizer")
    arrays = list(params.values.values())
    if norm is not None:
        arrays += [np.array(norm.eps)] + [a for stat in _NORM_STATS
                                          for a in getattr(norm, stat).values()]
    if not all(np.isfinite(a).all() for a in arrays):
        raise DataError(f"{what} holds non-finite values")
    return params, norm
