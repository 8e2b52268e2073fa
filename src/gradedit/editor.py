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
forms an (n, m) matrix, and neither does `apply_edit`: it returns the edited
model in factored form, which `mlp.forward` scores by the same rank-k term,
and W~ is formed only when the edited model's weights are read.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    ShapeError,
    json_bool,
    json_file,
    json_floats,
    json_int,
    json_number,
    layer_indices,
)
from .mlp import Mlp, backward_factors, forward, nll_grad, subtract_rank_k
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
        for name in ("share_params", "normalize", "identity_init"):
            json_bool(getattr(self, name), name, ConfigError)
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
    `layer_group` maps each editable layer to its group key; its keys, in
    their order, are the editable layers.
    """

    rank: int
    variant: VariantConfig
    layer_group: dict[int, str]
    group_dims: dict[str, tuple[int, int]]  # group key -> (m, n)
    values: dict[str, Array] = field(default_factory=dict)

    @property
    def editable_layers(self) -> list[int]:
        return list(self.layer_group)

    def num_parameters(self) -> int:
        return sum(int(v.size) for v in self.values.values())

    def copy(self) -> "EditorParams":
        return replace(self, layer_group=dict(self.layer_group),
                       group_dims=dict(self.group_dims), values=flatten(self.values))


_NORM_STATS = ("mean_u", "var_u", "mean_d", "var_d")


@dataclass
class Normalizer:
    """Per-group input statistics (population mean/variance, floored). The
    standard deviations are taken once, when the normalizer is made, not on
    every editor pass."""

    eps: float
    mean_u: dict[str, Array]
    var_u: dict[str, Array]
    mean_d: dict[str, Array]
    var_d: dict[str, Array]
    std_u: dict[str, Array] = field(init=False, repr=False)
    std_d: dict[str, Array] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.std_u = {k: np.sqrt(v) for k, v in self.var_u.items()}
        self.std_d = {k: np.sqrt(v) for k, v in self.var_d.items()}

    def norm_u(self, key: str, u: Array) -> Array:
        return (u - self.mean_u[key]) / self.std_u[key]

    def norm_d(self, key: str, d: Array) -> Array:
        return (d - self.mean_d[key]) / self.std_d[key]


def _group_key(model: Mlp, layer: int, variant: VariantConfig) -> str:
    m, n = model.layer_shape(layer)
    return f"{m}x{n}" if variant.share_params else f"layer{layer}"


def _tensor_shapes(
    rank: int, variant: VariantConfig, layer_group: dict[int, str], group_dims: dict
) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every editor tensor, in the order of the flat tree:
    `init_editor` builds the tree from it, `load_editor` reads a checkpoint
    against it. The tensors' draws from the init RNG follow this order."""
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
    """Build editor parameters for `editable_layers` of `model`: the
    `_tensor_shapes` tree, with xavier-uniform V (and U, unless
    `variant.identity_init`), unit FiLM scales, zero biases and shifts, and
    `alpha_init` as every layer's step size."""
    layers = layer_indices(editable_layers, model.num_layers)
    layer_group = {l: _group_key(model, l, variant) for l in layers}
    group_dims = {layer_group[l]: model.layer_shape(l) for l in layers}
    drawn = {"V1", "V2"} if variant.identity_init else {"V1", "V2", "U1", "U2"}
    values: dict[str, Array] = {}
    for name, shape in _tensor_shapes(rank, variant, layer_group, group_dims).items():
        part = name.rsplit(":", 1)[1]
        if part in drawn:
            values[name] = xavier_uniform(*shape, rng)
        elif part == "alpha":
            values[name] = np.array(float(alpha_init))
        else:
            values[name] = np.ones(shape) if part in ("s1", "s2") else np.zeros(shape)
    return EditorParams(rank, variant, layer_group, group_dims, flatten(values))


def training_key(params: EditorParams) -> tuple:
    """What training takes from `params.variant`: editors with equal keys when
    built train alike. `share_params` and `transform` enter by what they decide
    (shapes, layer groups, transformed parts); other fields enter as they are."""
    variant, groups = params.variant, list(params.group_dims)
    rest = [(k, v) for k, v in asdict(variant).items() if k not in ("share_params", "transform")]
    return (tuple(a.shape for a in params.values.values()), tuple(rest),
            tuple((l, groups.index(key), variant.transformed_parts(*params.group_dims[key]))
                  for l, key in params.layer_group.items()))


# The floor of every normalizer variance.
NORM_EPS = 1e-6


def fit_normalizer(
    params: EditorParams, u_rows: Mapping[int, Array], delta_rows: Mapping[int, Array]
) -> Normalizer:
    """Per-dimension stats of the raw factor rows, u_rows[l] (N, m) and
    delta_rows[l] (N, n) for each editable layer l, pooled over all member
    layers of a group. The rows are those of one factor pass over the edit
    train set on the un-edited model: `train_editor` passes its
    `training.FactorTable`'s, so one pass feeds both."""
    if any(len(u_rows[l]) == 0 or len(delta_rows[l]) == 0 for l in params.editable_layers):
        raise DataError("cannot fit normalizer on an empty edit set")
    mean_u, var_u, mean_d, var_d = {}, {}, {}, {}
    for key in params.group_dims:
        members = [l for l in params.editable_layers if params.layer_group[l] == key]
        us = np.concatenate([u_rows[l] for l in members])
        ds = np.concatenate([delta_rows[l] for l in members])
        mean_u[key] = us.mean(axis=0)
        var_u[key] = np.maximum(us.var(axis=0), NORM_EPS)
        mean_d[key] = ds.mean(axis=0)
        var_d[key] = np.maximum(ds.var(axis=0), NORM_EPS)
    return Normalizer(NORM_EPS, mean_u, var_u, mean_d, var_d)


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

    # Split g back into the transformed halves (u before delta); untransformed
    # factors pass through raw (gradient units), not normalized.
    out_u = g[:, :m] if "u" in parts else u
    out_d = g[:, -n:] if "delta" in parts else delta
    return out_u, out_d, _EditorTape(z, v1z, a1, pre1, h, v2h, a2)


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
    at each editable layer, with its editor and what the reverse pass needs."""

    model: Mlp
    params: EditorParams
    alpha: dict[int, float]
    pseudo_u: dict[int, Array]  # layer -> (k, m) rows u~
    pseudo_d: dict[int, Array]  # layer -> (k, n) rows delta~
    editor_tapes: dict[int, _EditorTape]


def tape_from_factors(
    model: Mlp,
    params: EditorParams,
    normalizer: Normalizer | None,
    u: Mapping[int, Array] | Sequence[Array],
    delta: Mapping[int, Array] | Sequence[Array],
) -> EditTape:
    """Transform each editable layer l's raw (B, m) u rows u[l] and (B, n)
    delta rows delta[l], taken on the un-edited `model`, into the edited
    model's factors plus the reverse-pass tape: the one editor path of
    editing and meta-training. Every editable layer must exist in `model`
    with its group's (m, n), else ShapeError."""
    tape = EditTape(model, params, {}, {}, {}, {})
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
    logits, trace = forward(model, xs)
    deltas = backward_factors(trace, nll_grad(logits, ys)[1])
    return tape_from_factors(model, params, normalizer, trace.inputs, deltas)


def apply_edit(
    model: Mlp,
    params: EditorParams,
    normalizer: Normalizer | None,
    edit_batch: Sequence[tuple[Array, int]],
) -> Mlp:
    """One-shot edit: W~_l = W_l - alpha_l * pseudograd_l for each editable
    layer, with pseudograd_l = sum_i outer(delta~_i, u~_i) = D~_l^T U~_l.

    The edited model comes back in factored form (see `Mlp`): each editable
    layer keeps (alpha_l, U~_l, D~_l) beside a read-only view of `model`'s
    W_l, the biases are copies, and no (n, m) array is formed. `forward`
    scores it through the rank-k term; the first read of its `weights` forms
    each W~_l (`mlp.edited_weight`) in the buffer of its fresh pseudograd.
    Until that read the edited model reads `model`'s weight arrays, so
    `model` must not be changed in place meanwhile; `model` itself is not
    modified, and a dense edited model shares no memory with it."""
    tape = apply_edit_with_tape(model, params, normalizer, edit_batch)
    edits = {l: (a, tape.pseudo_u[l], tape.pseudo_d[l]) for l, a in tape.alpha.items()}
    return Mlp(model.weights, [np.array(b, copy=True) for b in model.biases], edits)


@dataclass
class EditedTrace:
    """Cached rows of one `edited_forward` call, kept for `backprop_edit`."""

    tape: EditTape
    logits_shape: tuple[int, int, int]  # (G, B, C)
    inputs: list[Array]  # inputs[l]: (G*B, m_l)
    preacts: list[Array]  # preacts[l]: (G*B, n_l)
    proj: dict[int, Array]  # editable layer -> P = x U~^T, (G, B, k)


def _group_factors(tape: EditTape, layer: int, groups: int) -> tuple[Array, Array]:
    """`layer`'s U~ and D~ as (G, k, m) / (G, k, n) stacks: group g holds
    tape rows g*k:(g+1)*k."""
    u, d = tape.pseudo_u[layer], tape.pseudo_d[layer]
    return u.reshape(groups, -1, u.shape[1]), d.reshape(groups, -1, d.shape[1])


def edited_forward(tape: EditTape, batch: Array) -> tuple[Array, EditedTrace]:
    """Forward a (G, B, input_dim) batch through the edited model without
    forming W~: z = x W^T + b - alpha * (x U~^T) D~ at each editable layer,
    by `mlp.subtract_rank_k`, as `mlp.forward` scores a factored model.

    The batch holds G groups, each under its own edit: with the tape's G*k
    rows, group g is edited by rows g*k:(g+1)*k. The base product runs over
    all G*B rows at once; only the rank-k term is stacked per group."""
    model = tape.model
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3 or batch.shape[2] != model.input_dim:
        raise ShapeError(f"batch shape {batch.shape} is not (G, B, {model.input_dim})")
    groups, rows = batch.shape[0], tape.pseudo_u[min(tape.alpha)].shape[0]
    if groups == 0 or rows % groups:
        raise ShapeError(f"{groups} groups do not divide the tape's {rows} edit rows")
    width = batch.shape[1]
    inputs, preacts, proj = [], [], {}
    act = batch.reshape(groups * width, model.input_dim)
    for l in range(model.num_layers):
        inputs.append(act)
        z = act @ model.weights[l].T + model.biases[l]
        if l in tape.alpha:
            u, d = _group_factors(tape, l, groups)
            proj[l] = subtract_rank_k(z, act.reshape(groups, width, act.shape[1]),
                                      tape.alpha[l], u, d)
        preacts.append(z)
        act = z if l == model.num_layers - 1 else relu(z)
    check_finite(act, "logits")
    logits = act.reshape(groups, width, act.shape[1])
    return logits, EditedTrace(tape, logits.shape, inputs, preacts, proj)


def zero_grads(params: EditorParams) -> FlatTree:
    """Zero gradients for `params`, as views into one vector laid out like
    `params.values`."""
    shapes = {k: np.shape(v) for k, v in params.values.items()}
    return FlatTree(np.zeros(params.num_parameters()), shapes)


def backprop_edit(trace: EditedTrace, dlogits: Array, out: FlatTree | None = None) -> FlatTree:
    """Chain per-example logit gradients of an `edited_forward` batch into
    editor-parameter gradients, summed over all rows and groups, in one pass
    down to the lowest editable layer. The gradients go into `out`, a
    `zero_grads(trace.tape.params)` tree that is zeroed first, or into a
    fresh one.

    Per group, with X the layer's input rows, Delta = dL/dz, P = X U~^T and
    Q = Delta D~^T: dL/dalpha = -sum(P * Q), dL/dD~ = -alpha P^T Delta and
    dL/dU~ = -alpha Q^T X, which then flow through the editor blocks, once
    over all G*k tape rows; Delta moves down through W~ as
    Delta W - alpha Q U~. Raw factors are constants, so nothing propagates
    into the base model.
    """
    tape = trace.tape
    model, params = tape.model, tape.params
    delta = np.asarray(dlogits, dtype=np.float64)
    if delta.shape != trace.logits_shape:
        raise ShapeError(f"logit grad shape {delta.shape} != logits shape {trace.logits_shape}")
    delta = delta.reshape(trace.preacts[-1].shape)
    if out is None:
        grads = zero_grads(params)
    elif out.keys() != params.values.keys():
        raise ShapeError("backprop_edit: `out` is not laid out like the editor's parameters")
    else:
        grads = out
        grads.flat.fill(0.0)
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
        "variant": asdict(params.variant),
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


def _read_tensors(section: object, shapes: dict, what: str) -> dict[str, Array]:
    """The arrays of a checkpoint section, a JSON object that must name
    exactly the tensors of `shapes`, each nested lists of finite numbers of
    its shape; in the order of `shapes`."""
    if not isinstance(section, dict) or section.keys() != shapes.keys():
        names = set(section) if isinstance(section, dict) else set()
        raise DataError(f"{what}: missing tensors {sorted(set(shapes) - names)}, "
                        f"unexpected tensors {sorted(names - set(shapes))}")
    return {name: json_floats(section[name], shape, f"{what}: tensor {name}")
            for name, shape in shapes.items()}


def load_editor(path: str | Path) -> tuple[EditorParams, Normalizer | None]:
    """Read a `save_editor` checkpoint; the tensor names and shapes must be
    those its header (rank, variant, layers, group dims) implies, every
    tensor and normalizer value a finite JSON number, every normalizer
    variance above 0, and the normalizer's `eps` a finite number above 0."""
    what = f"editor checkpoint {path}"
    payload = json_file(path, what, EDITOR_FORMAT_VERSION)
    try:
        layers = layer_indices(payload["editable_layers"], None)
        rank = json_int(payload["rank"], f"{what}: rank")
        variant = VariantConfig(**payload["variant"])
        layer_group = {l: payload["layer_group"][str(l)] for l in layers}
        group_dims = {k: (json_int(m, f"{what}: a width of group {k}", 1),
                          json_int(n, f"{what}: a width of group {k}", 1))
                      for k, (m, n) in payload["group_dims"].items()}
        shapes = _tensor_shapes(rank, variant, layer_group, group_dims)
        values, nz = payload["values"], payload["normalizer"]
        if nz is not None:
            eps = json_number(nz["eps"], f"{what}: normalizer eps", 0, strict=True)
    except (KeyError, TypeError, ValueError, AttributeError, ConfigError) as e:
        raise DataError(f"malformed editor checkpoint {path}: {e!r}") from e
    params = EditorParams(rank, variant, layer_group, group_dims,
                          flatten(_read_tensors(values, shapes, what)))
    if nz is None:
        if variant.normalize:
            raise DataError(f"{what}: a normalizing editor needs its normalizer")
        return params, None
    stats = {}
    for stat in _NORM_STATS:
        dim = 0 if stat.endswith("_u") else 1
        stats[stat] = _read_tensors(nz.get(stat), {k: (mn[dim],) for k, mn in group_dims.items()},
                                    f"{what}, normalizer {stat}")
    # a variance of 0 or below divides by zero or takes a root of a negative
    if not all((v > 0).all() for stat in ("var_u", "var_d") for v in stats[stat].values()):
        raise DataError(f"{what}: every normalizer variance must be above 0")
    return params, Normalizer(eps, **stats)
