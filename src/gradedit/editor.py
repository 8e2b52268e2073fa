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

An edit of k examples has rank <= k, so an `EditTape` keeps the edited model
in factored form, each edited layer as (W, alpha, U~, D~) (see `mlp.Mlp`).
`edited_forward` is `mlp.forward` of that model, and `backprop_edit` takes
the delta rows of one `mlp.backward_factors` pass and chains them through
the rank-k products and the editor blocks into the editor parameters,
treating the raw factors as constants (no higher-order gradients). Neither
forms an (n, m) matrix, and neither does `apply_edit`, which returns the
tape's model: W~ is formed only when the edited model's weights are read.
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
from .mlp import Mlp, ForwardTrace, backward_factors, edit_factors, edit_rows, forward, nll_factors
from .ndops import Array, FlatTree, flatten, relu, relu_grad, xavier_uniform

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
    editable_layers: Sequence[int] | None,
    rank: int,
    variant: VariantConfig,
    rng: np.random.Generator,
    alpha_init: float = 1e-2,
) -> EditorParams:
    """Build editor parameters for `editable_layers` of `model`, every layer
    when None: the `_tensor_shapes` tree, with xavier-uniform V (and U,
    unless `variant.identity_init`), unit FiLM scales, zero biases and
    shifts, and `alpha_init` as every layer's step size."""
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
    `training.FactorTable`'s, so one pass feeds both. Rows that do not fit
    their group's (m, n), or unequal row counts, raise ShapeError."""
    for l in params.editable_layers:
        m, n = params.group_dims[params.layer_group[l]]
        u, d = u_rows[l], delta_rows[l]
        if np.shape(u) != (len(u), m) or np.shape(d) != (len(u), n):
            raise ShapeError(f"layer {l} factor rows {np.shape(u)}/{np.shape(d)} do not fit "
                             f"its group's (m, n) = ({m}, {n})")
        if not len(u):
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
    """An edited model in factored form (see `mlp.Mlp`), W~_l = W_l - alpha_l
    * D~_l^T U~_l at each editable layer, with its editor and the editor
    passes' intermediates, which the reverse pass needs."""

    model: Mlp
    params: EditorParams
    editor_tapes: dict[int, _EditorTape]


def tape_from_factors(
    model: Mlp,
    params: EditorParams,
    normalizer: Normalizer | None,
    u: Mapping[int, Array] | Sequence[Array],
    delta: Mapping[int, Array] | Sequence[Array],
) -> EditTape:
    """Transform each editable layer l's raw (B, m) u rows u[l] and (B, n)
    delta rows delta[l], taken on the un-edited `model`, into the factored
    edited model plus the reverse-pass tape: the one editor path of editing
    and meta-training. The edited model reads `model`'s weight and bias
    arrays. Every editable layer must exist in `model` with its group's
    (m, n), else ShapeError."""
    edits, editor_tapes = {}, {}
    for l in params.editable_layers:
        mn = params.group_dims[params.layer_group[l]]
        if not 0 <= l < model.num_layers or model.layer_shape(l) != mn:
            raise ShapeError(f"editor layer {l} of shape (m, n) = {mn} does not fit the "
                             f"model's {model.num_layers} layers")
        pseudo_u, pseudo_d, editor_tapes[l] = _editor_apply(params, l, u[l], delta[l], normalizer)
        edits[l] = (float(params.values[f"l:{l}:alpha"]), pseudo_u, pseudo_d)
    return EditTape(Mlp(model.weights, model.biases, edits), params, editor_tapes)


def apply_edit_with_tape(
    model: Mlp,
    params: EditorParams,
    normalizer: Normalizer | None,
    edit_batch: Sequence[tuple[Array, int]],
) -> EditTape:
    """Compute factors on the un-edited model over the whole edit batch and
    transform them; returns the edited model as factors plus the reverse-pass
    tape. No (n, m) matrix is formed."""
    xs, ys = edit_rows(model, edit_batch)
    return tape_from_factors(model, params, normalizer, *nll_factors(model, xs, ys))


def apply_edit(
    model: Mlp,
    params: EditorParams,
    normalizer: Normalizer | None,
    edit_batch: Sequence[tuple[Array, int]],
) -> Mlp:
    """One-shot edit: W~_l = W_l - alpha_l * pseudograd_l for each editable
    layer, with pseudograd_l = sum_i outer(delta~_i, u~_i) = D~_l^T U~_l.
    `edit_batch` is a non-empty list of (x, y) pairs, the form fine-tuning
    takes too; `mlp.edit_rows` reads it, and raises ShapeError or DataError
    for anything else.

    The edited model, `apply_edit_with_tape`'s, comes back in factored form
    (see `Mlp`): each editable layer keeps (alpha_l, U~_l, D~_l) beside
    read-only views of `model`'s weights and biases, and no (n, m) array is
    formed. `forward` scores it through the rank-k term; the first read of
    its `weights` forms each W~_l (`mlp.edited_weight`) in the buffer of its
    fresh pseudograd and copies the other arrays. Until that read `model`
    must not be changed in place; `model` itself is not modified, and a
    dense edited model shares no memory with it."""
    return apply_edit_with_tape(model, params, normalizer, edit_batch).model


@dataclass
class EditedTrace:
    """One `edited_forward` call's trace with the tape whose model made it,
    kept for `backprop_edit`."""

    tape: EditTape
    trace: ForwardTrace


def edited_forward(tape: EditTape, batch: Array) -> tuple[Array, EditedTrace]:
    """`mlp.forward` of the tape's factored model: a (G, B, input_dim) batch
    holds G groups, and with the tape's G*k edit rows group g is edited by
    rows g*k:(g+1)*k."""
    logits, trace = forward(tape.model, batch)
    return logits, EditedTrace(tape, trace)


def zero_grads(params: EditorParams) -> FlatTree:
    """Zero gradients for `params`, as views into one vector laid out like
    `params.values`."""
    shapes = {k: np.shape(v) for k, v in params.values.items()}
    return FlatTree(np.zeros(params.num_parameters()), shapes)


def backprop_edit(trace: EditedTrace, dlogits: Array, out: FlatTree | None = None) -> FlatTree:
    """Chain per-example logit gradients of an `edited_forward` batch into
    editor-parameter gradients, summed over all rows and groups. One
    `mlp.backward_factors` pass down to the lowest editable layer gives each
    edited layer's Delta = dL/dz. The gradients go into `out`, a
    `zero_grads(trace.tape.params)` tree that is zeroed first, or into a
    fresh one.

    Per group, with X the layer's input rows, P = X U~^T and
    Q = Delta D~^T: dL/dalpha = -sum(P * Q), dL/dD~ = -alpha P^T Delta and
    dL/dU~ = -alpha Q^T X, which then flow through the editor blocks, once
    over all G*k tape rows. The layers go top down, the order in which shared
    group tensors accumulate. Raw factors are constants, so nothing
    propagates into the base model.
    """
    tape, fwd = trace.tape, trace.trace
    params = tape.params
    deltas = backward_factors(fwd, dlogits, min(params.editable_layers))
    if out is None:
        grads = zero_grads(params)
    elif out.keys() != params.values.keys():
        raise ShapeError("backprop_edit: `out` is not laid out like the editor's parameters")
    else:
        grads = out
        grads.flat.fill(0.0)
    lead = fwd.logits.shape[:-1]
    for l in sorted(params.editable_layers, reverse=True):
        alpha, u, d = edit_factors(tape.model, l, fwd.logits.shape)
        P, delta = fwd.proj[l], deltas[l].reshape(*lead, -1)
        Q = delta @ d.swapaxes(-1, -2)
        grads[f"l:{l}:alpha"] += np.array(-float(np.sum(P * Q)))
        g_d = -alpha * (P.swapaxes(-1, -2) @ delta)
        g_u = -alpha * (Q.swapaxes(-1, -2) @ fwd.inputs[l].reshape(*lead, -1))
        _editor_backward(params, l, tape.editor_tapes[l], g_u.reshape(-1, u.shape[-1]),
                         g_d.reshape(-1, d.shape[-1]), grads)
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
