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

The reverse pass needed for meta-training is implemented structurally in
`backprop_edit`: gradients w.r.t. the edited weights are chained through the
outer-product sum and the editor blocks into the editor parameters, treating
the raw factors as constants (no higher-order gradients).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .mlp import Mlp, backward_nll, clone_with_weights, forward
from .ndops import Array, relu, relu_grad, xavier_uniform

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
    "l:<layer>:{s1,o1,s2,o2,alpha}". Keeping one flat tree makes Adam and
    finite-difference checking over the whole editor trivial.
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
            values={k: v.copy() for k, v in self.values.items()},
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
    return EditorParams(rank, variant, layers, layer_group, group_dims, values)


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
    _, factors, _, _ = backward_nll(model, trace, np.array([rec.y_e for rec in records]))
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
    """Everything needed to push dL/dW~ back into the editor parameters."""

    edited: Mlp
    pseudo_u: dict[int, Array]  # layer -> (B, m) rows u~
    pseudo_d: dict[int, Array]  # layer -> (B, n) rows delta~
    editor_tapes: dict[int, _EditorTape]
    pseudograds: dict[int, Array]  # layer -> (n, m) sum_i outer(delta~_i, u~_i)


def apply_edit_with_tape(
    model: Mlp,
    params: EditorParams,
    normalizer: Normalizer | None,
    edit_batch: Sequence[tuple[Array, int]],
) -> EditTape:
    """Compute factors on the un-edited model over the whole edit batch,
    transform them, and return the edited model plus the reverse-pass tape."""
    if not edit_batch:
        raise DataError("edit batch is empty")
    xs = np.stack([np.asarray(x, dtype=np.float64) for x, _ in edit_batch])
    ys = np.array([y for _, y in edit_batch], dtype=np.int64)
    _, trace = forward(model, xs)
    _, factors, _, _ = backward_nll(model, trace, ys)

    replacements: dict[int, Array] = {}
    pseudo_u: dict[int, Array] = {}
    pseudo_d: dict[int, Array] = {}
    tapes: dict[int, _EditorTape] = {}
    pgs: dict[int, Array] = {}
    for l in params.editable_layers:
        pseudo_u[l], pseudo_d[l], tapes[l] = _editor_apply(
            params, l, factors[l].u, factors[l].delta, normalizer
        )
        pgs[l] = pseudo_d[l].T @ pseudo_u[l]
        alpha = float(params.values[f"l:{l}:alpha"])
        replacements[l] = model.weights[l] - alpha * pgs[l]
    edited = clone_with_weights(model, replacements)
    return EditTape(edited, pseudo_u, pseudo_d, tapes, pgs)


def apply_edit(
    model: Mlp,
    params: EditorParams,
    normalizer: Normalizer | None,
    edit_batch: Sequence[tuple[Array, int]],
) -> Mlp:
    """One-shot edit: W~_l = W_l - alpha_l * pseudograd_l for each editable
    layer. Biases and non-editable layers are untouched; `model` is not
    modified."""
    return apply_edit_with_tape(model, params, normalizer, edit_batch).edited


def zero_grads(params: EditorParams) -> dict[str, Array]:
    return {k: np.zeros_like(v) for k, v in params.values.items()}


def backprop_edit(
    params: EditorParams, tape: EditTape, weight_grads: dict[int, Array]
) -> dict[str, Array]:
    """Chain dL/dW~ (per editable layer) into editor-parameter gradients.

    W~ = W - alpha * pg with pg = D~^T U~ (rows u~_i, delta~_i), so
    dL/dalpha = -<dL/dW~, pg> and, with dL/dpg = -alpha * dL/dW~, the output
    gradients are dL/dD~ = U~ (dL/dpg)^T and dL/dU~ = D~ (dL/dpg); they then
    flow through the editor blocks. Raw factors are constants, so nothing
    propagates into the base model.
    """
    grads = zero_grads(params)
    for l in params.editable_layers:
        G = weight_grads[l]
        pg = tape.pseudograds[l]
        if G.shape != pg.shape:
            raise ShapeError(f"weight grad shape {G.shape} != pseudograd shape {pg.shape}")
        alpha = float(params.values[f"l:{l}:alpha"])
        grads[f"l:{l}:alpha"] += np.array(-float(np.sum(G * pg)))
        d_pg = -alpha * G
        g_d = tape.pseudo_u[l] @ d_pg.T
        g_u = tape.pseudo_d[l] @ d_pg
        _editor_backward(params, l, tape.editor_tapes[l], g_u, g_d, grads)
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
    those its header (rank, variant, layers, group dims) implies."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise DataError(f"malformed editor checkpoint {path}: {e}") from e
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
            values={k: np.array(v, dtype=np.float64) for k, v in payload["values"].items()},
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
    return params, norm
