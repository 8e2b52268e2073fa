"""Editor training loop and fine-tuning baselines.

A training step edits the base model, separately for each of its groups of
records, with the group's edit pairs in one update, scores each edited model
on a sampled paraphrase per record (edit loss) and on the records' locality
inputs (exact KL against the pre-edit model), and pushes the gradient of
c_e * L_e + L_loc into the editor parameters only. The raw gradient factors
are treated as constants, so no higher-order gradients of the base model are
ever formed, and the base model itself is never updated. The edited model
stays in factored form, and `mlp.forward` and `mlp.backward_factors`, the
one layer walk each way, score it and carry gradients down through it (see
`editor.edited_forward`), so a step forms no (n, m) weight or gradient.

Since the base model is frozen, a record's raw factors at its edit pair and
the pre-edit distribution at its locality input never change: `train_editor`
builds one `FactorTable` over its train records and one over its validation
records before the first step. The train table's factor rows also give the
normalizer its statistics, so one factor pass over the train records serves
both. A step, and a validation, only gathers table rows, runs the editor on
them and makes one edited forward and one reverse pass over all its groups;
it does no base-model work. The editor's parameters, gradients and Adam
moments are each one flat vector (see `ndops.FlatTree`), and the gradient
vector is allocated once per run, so an update is one elementwise Adam step.

The group sampler picks k distinct facts per group, then one record of
each. At k=1 it draws the fact with one bounded `integers` call: numpy's
`choice(n, size=1, replace=False)` draws exactly that integer, so the
stream is the same without `choice`'s per-call set-up. When every fact has
as many records, one `integers` call draws a step with the scalar calls' bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bench import EditRecord, World, fact_groups
from .editor import (
    EditorParams,
    Normalizer,
    VariantConfig,
    backprop_edit,
    edited_forward,
    fit_normalizer,
    init_editor,
    tape_from_factors,
    zero_grads,
)
from .errors import ConfigError, DataError, ShapeError, json_int, json_number, layer_indices
from .mlp import (
    Mlp,
    backward,
    backward_nll,
    clone_with_weights,
    edit_rows,
    forward,
    init_mlp,
    input_rows,
    nll_factors,
    nll_grad,
)
from .ndops import (
    AdamState,
    Array,
    FlatTree,
    adam_step,
    flatten,
    kl_log_probs,
    log_softmax,
    make_rng,
    softmax,
)


# The largest learning rate of meta-training and pretraining: Adam moves each
# parameter by about lr per step, and every shipped config uses 1e-3.
MAX_LR = 1.0


@dataclass
class TrainConfig:
    c_e: float = 0.1
    meta_lr: float = 1e-3
    max_steps: int = 2000
    eval_every: int = 50
    patience: int = 8
    batch_size: int = 10
    edits_per_step: int = 1  # k simultaneous edits per model update
    seed: int = 0
    rank: int = 4
    alpha_init: float = 1e-2
    editable_layers: list[int] | None = None

    def __post_init__(self) -> None:
        for name, low in (("max_steps", 0), ("eval_every", 0), ("edits_per_step", 1),
                          ("batch_size", 1), ("patience", 1), ("rank", 1), ("seed", 0)):
            json_int(getattr(self, name), name, low, ConfigError)
        json_number(self.c_e, "c_e", 0, error=ConfigError)
        json_number(self.meta_lr, "meta_lr", 0, strict=True, error=ConfigError, high=MAX_LR)
        json_number(self.alpha_init, "alpha_init", None, error=ConfigError)
        if self.editable_layers is not None:
            layer_indices(self.editable_layers, None)


@dataclass
class StepLosses:
    l_e: float
    l_loc: float
    l_total: float


@dataclass
class FactorTable:
    """The frozen base model's state for meta-training, one row per record:
    raw factors and label at x_e, log-probabilities and probabilities at
    x_loc, and paraphrase inputs zero-padded to the longest neighborhood."""

    u: dict[int, Array]  # editable layer -> (N, m) raw u rows at x_e
    delta: dict[int, Array]  # editable layer -> (N, n) raw delta rows at x_e
    x_loc: Array  # (N, d)
    pre_logp: Array  # (N, C) base-model log_softmax at x_loc
    pre_p: Array  # (N, C) base-model softmax at x_loc
    nb_x: Array  # (N, max neighborhood, d)
    y_e: Array  # (N,) int64 edit labels, every paraphrase's label too
    nb_count: Array  # (N,) int64 neighborhood sizes


@dataclass
class TableGroups:
    """Equal-size groups of records, given as rows of a `FactorTable`."""

    table: FactorTable
    rows: Array  # (G, k) row indices


def build_factor_table(
    model: Mlp, layers: Sequence[int], records: Sequence[EditRecord]
) -> FactorTable:
    """One factor pass over the records' edit pairs and one forward over
    their locality inputs, on the base model; raw factors are kept for
    `layers`."""
    if not records:
        raise DataError("edit batch is empty")
    # the locality forward's trace is freed at once, and the factor pass's
    # before the neighborhood arrays are made: no two traces are held at once
    x_loc = np.stack([rec.x_loc for rec in records])
    pre_logits = forward(model, x_loc)[0]
    y_e = np.array([rec.y_e for rec in records], dtype=np.int64)
    inputs, deltas = nll_factors(model, np.stack([rec.x_e for rec in records]), y_e)
    u, delta = {l: inputs[l] for l in layers}, {l: deltas[l] for l in layers}
    counts = np.array([len(rec.neighborhood) for rec in records], dtype=np.int64)
    slots = np.arange(counts.max()) < counts[:, None]  # (N, max neighborhood)
    nb_x = np.zeros((*slots.shape, model.input_dim))
    nb_x[slots] = [x for rec in records for x, _ in rec.neighborhood]  # record by record
    return FactorTable(u, delta, x_loc, log_softmax(pre_logits), softmax(pre_logits),
                       nb_x, y_e, counts)


def _tabulate(
    model: Mlp, layers: Sequence[int], groups: Sequence[Sequence[EditRecord]]
) -> TableGroups:
    """Equal-size groups of records as rows of a table over their records."""
    flat = [rec for g in groups for rec in g]
    table = build_factor_table(model, layers, flat)
    return TableGroups(table, np.arange(len(flat)).reshape(len(groups), -1))


def group_losses_and_grads(
    model: Mlp,
    params: EditorParams,
    normalizer: Normalizer | None,
    records: Sequence[EditRecord] | TableGroups,
    c_e: float,
    rng: np.random.Generator,
    want_grads: bool = True,
    out: FlatTree | None = None,
) -> tuple[StepLosses, FlatTree | None]:
    """Apply each group's edit pairs in one model update of its own, then
    score the edited model: L_e is the mean NLL of one paraphrase sampled per
    record (the neighborhood includes the edit pair itself) and L_loc the
    mean exact KL against the pre-edit model at the records' locality inputs.

    `records` is one group, which is first tabulated, or `TableGroups`. All
    G groups of k records run as one pass over the table's rows: one editor
    apply over the G*k rows of raw factors, one edited forward over a
    (G, 2k, d) batch and one reverse pass.
    Paraphrases are drawn record by record, in one `integers` call with the
    records' neighborhood sizes as bounds (the stream of G*k scalar calls).
    Losses and gradients are means over all G*k records, i.e. over the
    groups' own means; the gradients go into `out` as in `backprop_edit`."""
    if not isinstance(records, TableGroups):
        records = _tabulate(model, params.editable_layers, [records])
    table, rows = records.table, records.rows
    n_groups, k = rows.shape
    idx = rows.reshape(-1)
    n = idx.size
    picks = rng.integers(table.nb_count[idx])
    ys_eq = table.y_e[idx]
    tape = tape_from_factors(model, params, normalizer, {l: u[idx] for l, u in table.u.items()},
                             {l: d[idx] for l, d in table.delta.items()})
    # one edited forward: group g's k paraphrases, then its k locality inputs
    logits, trace = edited_forward(tape, np.concatenate(
        [table.nb_x[idx, picks].reshape(n_groups, k, -1),
         table.x_loc[idx].reshape(n_groups, k, -1)], axis=1))
    l_e, dlogits_e = nll_grad(logits[:, :k].reshape(n, -1), ys_eq)
    post_logits = logits[:, k:].reshape(n, -1)
    l_loc = float(kl_log_probs(table.pre_logp[idx], log_softmax(post_logits)).sum()) / n
    losses = StepLosses(l_e, l_loc, c_e * l_e + l_loc)
    if not want_grads:
        return losses, None

    dlogits_loc = softmax(post_logits) - table.pre_p[idx]
    dlogits = np.concatenate([((c_e / n) * dlogits_e).reshape(n_groups, k, -1),
                              (dlogits_loc / n).reshape(n_groups, k, -1)], axis=1)
    return losses, backprop_edit(trace, dlogits, out)


def validation_loss(
    model: Mlp,
    params: EditorParams,
    normalizer: Normalizer | None,
    records: Sequence[EditRecord] | TableGroups,
    c_e: float,
    seed: int,
    edits_per_step: int = 1,
) -> float:
    """Mean L_total over the `fact_groups` of `records`, in one pass; or
    over the groups of a `TableGroups` as they stand."""
    if not isinstance(records, TableGroups):
        records = _tabulate(model, params.editable_layers, fact_groups(records, edits_per_step))
    losses, _ = group_losses_and_grads(
        model, params, normalizer, records, c_e, make_rng(seed), want_grads=False
    )
    return losses.l_total


def train_editor(
    model: Mlp,
    train_records: Sequence[EditRecord],
    val_records: Sequence[EditRecord],
    config: TrainConfig,
    variant: VariantConfig | None = None,
) -> tuple[EditorParams, Normalizer | None, list[dict]]:
    """Meta-train an editor; returns (best-validation params, normalizer,
    training log). The base model is never modified."""
    if not train_records:
        raise DataError("empty edit train set")
    k = config.edits_per_step
    # bucket table rows by fact so a sampled group edits k distinct facts
    # (two conflicting rewrites of one fact in a single update are ill-posed)
    fact_buckets: dict[int, list[int]] = {}
    for row, rec in enumerate(train_records):
        fact_buckets.setdefault(rec.fact_id, []).append(row)
    buckets = [fact_buckets[f] for f in sorted(fact_buckets)]
    n_facts = len(buckets)
    # checked before the validation groups are cut, whatever eval_every is
    if k > n_facts:
        raise DataError(f"edits_per_step={k} exceeds the {n_facts} distinct train facts")
    validates = bool(val_records) and 0 < config.eval_every <= config.max_steps
    if validates:
        val_groups = fact_groups(val_records, k)  # raises ConfigError before any step runs
    variant = variant or VariantConfig()
    rng = make_rng(config.seed)
    params = init_editor(model, config.editable_layers, config.rank, variant, rng,
                         config.alpha_init)
    # the base model's state for every record, built once before the first
    # step; the train table's factor rows are also the normalizer's input.
    # A run of no steps makes only the factor pass that the normalizer reads.
    if config.max_steps:
        train_table = build_factor_table(model, params.editable_layers, train_records)
        factors = train_table.u, train_table.delta
    elif variant.normalize:
        factors = nll_factors(model, np.stack([rec.x_e for rec in train_records]),
                              [rec.y_e for rec in train_records])
    if validates:
        val_table = _tabulate(model, params.editable_layers, val_groups)
    normalizer = fit_normalizer(params, *factors) if variant.normalize else None
    grads = zero_grads(params)  # rewritten by every step
    adam_state = AdamState(lr=config.meta_lr)
    log: list[dict] = []
    best = params  # the live params, until a validation improves on them
    best_val = float("inf")
    evals_since_best = 0
    one_call = k == 1 and len({len(bucket) for bucket in buckets}) == 1
    bucket_rows = np.array(buckets) if one_call else None  # (n_facts, L)
    bounds = np.tile(bucket_rows.shape, config.batch_size) if one_call else None
    for step in range(config.max_steps):
        if one_call:
            drawn = rng.integers(bounds)
            groups = bucket_rows[drawn[0::2], drawn[1::2]].reshape(-1, 1)
        else:
            groups = []
            for _ in range(config.batch_size):
                # at k=1, choice(n_facts, size=1, replace=False) draws just this
                picked = (rng.integers(n_facts),) if k == 1 else rng.choice(
                    n_facts, size=k, replace=False)
                groups.append([buckets[f][int(rng.integers(len(buckets[f])))] for f in picked])
        losses, _ = group_losses_and_grads(
            model, params, normalizer, TableGroups(train_table, np.array(groups)),
            config.c_e, rng, out=grads,
        )
        adam_step(params.values.flat, grads.flat, adam_state)
        entry = {
            "step": step,
            "l_e": losses.l_e,
            "l_loc": losses.l_loc,
            "l_total": losses.l_total,
        }
        if validates and (step + 1) % config.eval_every == 0:
            val = validation_loss(
                model, params, normalizer, val_table, config.c_e, config.seed + 1, k
            )
            entry["val_l_total"] = val
            if val < best_val:
                best_val = val
                best = params.copy()
                evals_since_best = 0
            else:
                evals_since_best += 1
        log.append(entry)
        if evals_since_best >= config.patience:
            break
    return best, normalizer, log


# The step cap of both fine-tuning baselines, and the number of locality
# inputs `evaluation.FtKlEditor` draws.
FT_MAX_STEPS = 100


def finetune_edit(
    model: Mlp,
    pairs: Sequence[tuple[Array, int]],
    editable_layers: Sequence[int] | None = None,
) -> tuple[Mlp, int]:
    """Plain fine-tuning baseline: `finetune_kl_edit` of the edit `pairs`
    without the locality term, at its learning rate and step cap."""
    return finetune_kl_edit(model, pairs, None, 1.0, editable_layers)


def finetune_kl_edit(
    model: Mlp,
    pairs: Sequence[tuple[Array, int]],
    loc_inputs: Sequence[Array] | Array | None,
    c_edit: float = 0.5,
    editable_layers: Sequence[int] | None = None,
    lr: float = 0.1,
    max_steps: int = FT_MAX_STEPS,
    pre_probs: list[Array | None] | None = None,
) -> tuple[Mlp, int]:
    """Fine-tuning on an edit, the (x, y) pairs that `apply_edit` takes
    (read by `mlp.edit_rows`), over the editable weight matrices, every
    layer when `editable_layers` is None: step s descends
    c_edit * NLL(edit pairs) + KL(pre || current) at the locality input
    `loc_inputs[s]` (no KL term when `loc_inputs` is None), stopping once
    every edit label is the argmax prediction; capped at `max_steps`.
    `loc_inputs` must hold at least `max_steps` rows of shape (input_dim,),
    else ShapeError before any forward; a float64 (S, input_dim) array is
    checked without a copy. Returns a fresh model, even after zero steps,
    and the number of steps taken: step 0 copies the model, and later steps
    update the copy.

    At step 0 the current model is the pre-edit model itself, so the KL
    term's logit gradient softmax(current) - softmax(pre) is exactly zero and
    its weight gradient adds only zeros: that step reads no locality input.
    A later step forwards its locality input stacked under the B edit rows
    and makes one `mlp.backward` pass over the (B+1)-row logit gradient:
    rows (c_edit / B) * (softmax - onehot), then the KL row; a step without
    one makes a `backward_nll` pass over the B edit rows. Either pass stops
    at the lowest editable layer and forms the editable layers' gradients.

    `pre_probs`, one slot per locality input, caches softmax(pre) across
    edits of one model: a KL step at step s reads slot s, or fills it when it
    is None. Without it, every KL step forwards the pre-edit model."""
    # each layer once: its gradient buffer is updated in place
    editable = layer_indices(editable_layers, model.num_layers)
    xs, ys = edit_rows(model, pairs)
    if loc_inputs is not None and max_steps:  # zero steps read none: [] has no width
        loc_inputs = input_rows(loc_inputs, model.input_dim, "locality inputs")
    if loc_inputs is not None and len(loc_inputs) < max_steps:
        raise ShapeError(f"{max_steps} fine-tuning steps need as many locality inputs, "
                         f"got {len(loc_inputs)}")
    if pre_probs is not None and (loc_inputs is None or len(pre_probs) != len(loc_inputs)):
        raise ShapeError("pre_probs needs one slot per locality input")
    slots = [None] * max_steps if pre_probs is None else pre_probs
    # W - lr * g, written into the fresh gradient g of (c_edit / B) * NLL +
    # KL, or at later steps into W. The scale falls on the edit rows' logit
    # gradient, or on g when a step has no KL term; there FT's scale of
    # exactly 1.0 is skipped, as x * 1.0 == x bit for bit.
    b = len(ys)
    scale = c_edit / b
    current, steps = model, max_steps
    for step in range(max_steps):
        kl = loc_inputs is not None and current is not model
        logits, trace = forward(current, np.vstack([xs, loc_inputs[step]]) if kl else xs)
        if (logits[:b].argmax(axis=1) == ys).all():
            steps = step
            break
        if kl:
            if slots[step] is None:
                slots[step] = softmax(forward(model, loc_inputs[step])[0])
            dlogits = np.concatenate([nll_grad(logits[:b], ys)[1],
                                      softmax(logits[b:]) - slots[step]])
            dlogits[:b] *= scale
            wgrads = backward(trace, dlogits, editable)[1]
        else:
            wgrads = backward_nll(trace, ys, editable)[2]
            if scale != 1.0:
                for g in wgrads:
                    g *= scale
        grads = dict(zip(editable, wgrads))
        for l, g in grads.items():
            w = current.weights[l]
            np.subtract(w, np.multiply(lr, g, out=g), out=g if current is model else w)
        if current is model:
            current = clone_with_weights(model, grads)
    return (clone_with_weights(model, {}) if current is model else current), steps


# Rows per forward in `block_logits`: a forward keeps every layer's input and
# pre-activation rows, which over the 5120 pretrain rows of a 512-wide
# model is ~84 MB at once; 512-row blocks hold a tenth of that.
ACCURACY_BLOCK_ROWS = 512


def block_logits(model: Mlp, xs: Array) -> Array:
    """The model's logits at the rows of `xs`, forwarded in blocks of
    `ACCURACY_BLOCK_ROWS`; each block's trace is freed before the next."""
    return np.concatenate([forward(model, xs[start : start + ACCURACY_BLOCK_ROWS])[0]
                           for start in range(0, len(xs), ACCURACY_BLOCK_ROWS)])


def accuracy(model: Mlp, xs: Array, ys: Array) -> float:
    """Fraction of rows whose argmax logit is the label."""
    return int(np.count_nonzero(np.argmax(block_logits(model, xs), axis=1) == ys)) / len(xs)


def pretrain_model(
    world: World,
    hidden_dims: Sequence[int] = (128,),
    epochs: int = 40,
    batch_size: int = 32,
    lr: float = 1e-3,
    seed: int = 0,
) -> tuple[Mlp, float]:
    """Fit a base classifier on the pretrain split with Adam; returns the
    model and its final pretrain accuracy. Each batch writes its gradients
    straight into one flat vector laid out like the parameters, so it forms
    no (n, m) array of its own."""
    for name, value, low in (("epochs", epochs, 0), ("batch_size", batch_size, 1),
                             ("seed", seed, 0)):
        json_int(value, name, low, ConfigError)
    json_number(lr, "lr", 0, strict=True, error=ConfigError, high=MAX_LR)
    if not isinstance(hidden_dims, (list, tuple)):
        raise ConfigError(f"hidden_dims must be a list of layer widths, got {hidden_dims!r}")
    for width in hidden_dims:
        json_int(width, "a hidden layer width", 1, ConfigError)
    cfg = world.config
    if len(world.pretrain_x) == 0:
        raise DataError("the world has no pretrain examples")
    rng = make_rng(seed)
    dims = [cfg.feature_dim, *hidden_dims, cfg.num_classes]
    model = init_mlp(dims, rng)
    # the weights and biases become views into one vector that Adam updates
    tree = flatten({**{f"W{l}": w for l, w in enumerate(model.weights)},
                    **{f"b{l}": b for l, b in enumerate(model.biases)}})
    model = Mlp([tree[f"W{l}"] for l in range(model.num_layers)],
                [tree[f"b{l}"] for l in range(model.num_layers)])
    # one gradient vector laid out like the parameters, rewritten every batch
    grads = FlatTree(np.empty_like(tree.flat), {k: v.shape for k, v in tree.items()})
    state = AdamState(lr=lr)
    n = world.pretrain_x.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            xs, ys = world.pretrain_x[idx], world.pretrain_y[idx]
            for l, (u, d) in enumerate(zip(*nll_factors(model, xs, ys))):
                # outer_sum's bits: its `@` for B > 1, one product per entry for B = 1
                np.matmul(d.T, u, out=grads[f"W{l}"])
                d.sum(axis=0, out=grads[f"b{l}"])
            np.divide(grads.flat, len(idx), out=grads.flat)
            adam_step(tree.flat, grads.flat, state)
    return model, accuracy(model, world.pretrain_x, world.pretrain_y)
