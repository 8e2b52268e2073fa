"""Editor training loop and fine-tuning baselines.

A training step edits the base model, separately for each of its groups of
records, with the group's edit pairs in one update, scores each edited model
on a sampled paraphrase per record (edit loss) and on the records' locality
inputs (exact KL against the pre-edit model), and pushes the gradient of
c_e * L_e + L_loc into the editor parameters only. The raw gradient factors
are treated as constants, so no higher-order gradients of the base model are
ever formed, and the base model itself is never updated. The edited model
stays in factored form (see `editor.edited_forward`), so a step forms no
(n, m) weight or gradient.

Since the base model is frozen, a record's raw factors at its edit pair and
the pre-edit logits at its locality input never change: `train_editor`
builds one `FactorTable` over its train records and one over its validation
records before the first step. A step, and a validation, only gathers table
rows, runs the editor on them and makes one edited forward and one reverse
pass over all its groups; it does no base-model work. The editor's
parameters, gradients and Adam moments are each one flat vector (see
`ndops.FlatTree`), so its update is one elementwise Adam step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

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
)
from .errors import ConfigError, DataError
from .mlp import (
    Mlp,
    backward,
    backward_factors,
    backward_nll,
    clone_with_weights,
    forward,
    init_mlp,
    nll_grad,
)
from .ndops import (
    AdamState,
    Array,
    FlatTree,
    adam_step,
    flatten,
    kl_divergence,
    log_softmax,
    make_rng,
    softmax,
)


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
        # (field, lowest allowed value, whether the field counts steps or items)
        bounds = [("c_e", 0, False), ("max_steps", 0, True), ("eval_every", 0, True),
                  ("edits_per_step", 1, True), ("batch_size", 1, True),
                  ("patience", 1, True), ("rank", 1, True)]
        for name, low, integral in bounds:
            value = getattr(self, name)
            kinds = (int,) if integral else (int, float)
            if isinstance(value, bool) or not isinstance(value, kinds) or not value >= low:
                kind = "an integer" if integral else "a number"
                raise ConfigError(f"{name} must be {kind} >= {low}, got {value!r}")
        lr = self.meta_lr
        if isinstance(lr, bool) or not isinstance(lr, (int, float)) or not lr > 0:
            raise ConfigError(f"meta_lr must be a number > 0, got {lr!r}")
        layers = self.editable_layers
        if layers is not None and not (isinstance(layers, (list, tuple)) and layers
                                       and all(type(l) is int for l in layers)):
            raise ConfigError(f"editable_layers must be null (every layer) or a non-empty "
                              f"list of layer indices, got {layers!r}")


@dataclass
class StepLosses:
    l_e: float
    l_loc: float
    l_total: float


@dataclass
class FactorTable:
    """The frozen base model's state for meta-training, one row per record:
    its raw factors at the edit pair, its logits at the locality input, and
    the record's paraphrase neighborhood, zero-padded to the longest one."""

    u: dict[int, Array]  # editable layer -> (N, m) raw u rows at x_e
    delta: dict[int, Array]  # editable layer -> (N, n) raw delta rows at x_e
    x_loc: Array  # (N, d)
    pre_logits: Array  # (N, C) base-model logits at x_loc
    nb_x: Array  # (N, max neighborhood, d)
    nb_y: Array  # (N, max neighborhood)
    nb_count: list[int]  # neighborhood sizes


@dataclass
class TableGroups:
    """Equal-size groups of records, given as rows of a `FactorTable`."""

    table: FactorTable
    rows: Array  # (G, k) row indices


def _check_record(record: EditRecord) -> None:
    if record.x_e is None or not record.neighborhood or record.x_loc is None:
        raise DataError("record must carry an edit pair, a neighborhood, and x_loc")


def build_factor_table(
    model: Mlp, layers: Sequence[int], records: Sequence[EditRecord]
) -> FactorTable:
    """One factor pass over the records' edit pairs and one forward over
    their locality inputs, on the base model; raw factors are kept for
    `layers`."""
    if not records:
        raise DataError("edit batch is empty")
    for rec in records:
        _check_record(rec)
    _, trace = forward(model, np.stack([rec.x_e for rec in records]))
    _, dlogits = nll_grad(model, trace, [rec.y_e for rec in records])
    factors = backward_factors(model, trace, dlogits)
    x_loc = np.stack([rec.x_loc for rec in records])
    pre_logits, _ = forward(model, x_loc)
    counts = [len(rec.neighborhood) for rec in records]
    nb_x = np.zeros((len(records), max(counts), model.input_dim))
    nb_y = np.zeros((len(records), max(counts)), dtype=np.int64)
    for i, rec in enumerate(records):
        nb_x[i, : counts[i]] = [x for x, _ in rec.neighborhood]
        nb_y[i, : counts[i]] = [y for _, y in rec.neighborhood]
    return FactorTable({l: factors[l].u for l in layers}, {l: factors[l].delta for l in layers},
                       x_loc, pre_logits, nb_x, nb_y, counts)


def _tabulate(
    model: Mlp,
    layers: Sequence[int],
    records: Sequence[EditRecord] | Sequence[Sequence[EditRecord]],
) -> TableGroups:
    """One group or a list of equal-size groups as rows of a table over
    their records."""
    groups = [records] if records and isinstance(records[0], EditRecord) else records
    sizes = sorted({len(g) for g in groups})
    if len(sizes) > 1:
        raise ConfigError(f"groups must all have one size, got sizes {sizes}")
    flat = [rec for g in groups for rec in g]
    table = build_factor_table(model, layers, flat)
    return TableGroups(table, np.arange(len(flat)).reshape(len(groups), -1))


def group_losses_and_grads(
    model: Mlp,
    params: EditorParams,
    normalizer: Normalizer | None,
    records: Sequence[EditRecord] | Sequence[Sequence[EditRecord]] | TableGroups,
    c_e: float,
    rng: np.random.Generator,
    want_grads: bool = True,
) -> tuple[StepLosses, dict[str, Array] | None]:
    """Apply each group's edit pairs in one model update of its own, then
    score the edited model: L_e is the mean NLL of one paraphrase sampled per
    record (the neighborhood includes the edit pair itself) and L_loc the
    mean exact KL against the pre-edit model at the records' locality inputs.

    `records` is one group, a list of equal-size groups, or `TableGroups`;
    records are first tabulated. All G groups of k records run as one pass
    over the table's rows: one editor apply over the G*k rows of raw
    factors, one edited forward over a (G, 2k, d) batch and one reverse pass.
    Paraphrases are drawn record by record. Losses and gradients are means
    over all G*k records, i.e. over the groups' own means."""
    if not isinstance(records, TableGroups):
        records = _tabulate(model, params.editable_layers, records)
    table, rows = records.table, records.rows
    n_groups, k = rows.shape
    idx = rows.reshape(-1)
    n = idx.size
    picks = [int(rng.integers(table.nb_count[i])) for i in idx.tolist()]
    ys_eq = table.nb_y[idx, picks]
    tape = tape_from_factors(model, params, normalizer, {l: u[idx] for l, u in table.u.items()},
                             {l: d[idx] for l, d in table.delta.items()})
    # one edited forward: group g's k paraphrases, then its k locality inputs
    logits, trace = edited_forward(tape, np.concatenate(
        [table.nb_x[idx, picks].reshape(n_groups, k, -1),
         table.x_loc[idx].reshape(n_groups, k, -1)], axis=1))
    logp = log_softmax(logits[:, :k].reshape(n, -1))
    l_e = -float(np.mean(logp[np.arange(n), ys_eq]))

    post_logits = logits[:, k:].reshape(n, -1)
    pre_logits = table.pre_logits[idx]
    l_loc = float(np.mean(kl_divergence(pre_logits, post_logits)))
    losses = StepLosses(l_e, l_loc, c_e * l_e + l_loc)
    if not want_grads:
        return losses, None

    dlogits_e = np.exp(logp)
    dlogits_e[np.arange(n), ys_eq] -= 1.0
    dlogits_loc = softmax(post_logits) - softmax(pre_logits)
    dlogits = np.concatenate([((c_e / n) * dlogits_e).reshape(n_groups, k, -1),
                              (dlogits_loc / n).reshape(n_groups, k, -1)], axis=1)
    return losses, backprop_edit(params, trace, dlogits)


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
    groups = records if isinstance(records, TableGroups) else fact_groups(records, edits_per_step)
    losses, _ = group_losses_and_grads(
        model, params, normalizer, groups, c_e, make_rng(seed), want_grads=False
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
    validates = bool(val_records) and 0 < config.eval_every <= config.max_steps
    if validates:
        val_groups = fact_groups(val_records, k)  # raises ConfigError before any step runs
    variant = variant or VariantConfig()
    rng = make_rng(config.seed)
    editable = config.editable_layers
    if editable is None:
        editable = list(range(model.num_layers))
    params = init_editor(model, editable, config.rank, variant, rng, config.alpha_init)
    # the base model's state for every record, built once before the first step
    if config.max_steps:
        train_table = build_factor_table(model, params.editable_layers, train_records)
    if validates:
        val_table = _tabulate(model, params.editable_layers, val_groups)
    normalizer = (
        fit_normalizer(model, train_records, params) if variant.normalize else None
    )
    adam_state = AdamState(lr=config.meta_lr)
    log: list[dict] = []
    best = params.copy()
    best_val = float("inf")
    evals_since_best = 0
    # bucket table rows by fact so a sampled group edits k distinct facts
    # (two conflicting rewrites of one fact in a single update are ill-posed)
    fact_buckets: dict[int, list[int]] = {}
    for row, rec in enumerate(train_records):
        fact_buckets.setdefault(rec.fact_id, []).append(row)
    fact_ids = sorted(fact_buckets)
    if k > len(fact_ids):
        raise DataError(
            f"edits_per_step={k} exceeds the {len(fact_ids)} distinct train facts"
        )
    for step in range(config.max_steps):
        groups = []
        for _ in range(config.batch_size):
            picked = rng.choice(len(fact_ids), size=k, replace=False)
            group = []
            for fi in picked:
                bucket = fact_buckets[fact_ids[fi]]
                group.append(bucket[int(rng.integers(len(bucket)))])
            groups.append(group)
        losses, grads = group_losses_and_grads(
            model, params, normalizer, TableGroups(train_table, np.array(groups)),
            config.c_e, rng,
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
    if best_val == float("inf"):
        best = params
    return best, normalizer, log


def finetune_edit(
    model: Mlp,
    x_e,
    y_e,
    editable_layers: Sequence[int] | None = None,
    lr: float = 0.1,
    max_steps: int = 100,
) -> tuple[Mlp, int]:
    """Plain fine-tuning baseline: `finetune_kl_edit` without the locality
    term."""
    return finetune_kl_edit(model, x_e, y_e, None, 1.0, editable_layers, lr, max_steps)


def finetune_kl_edit(
    model: Mlp,
    x_e,
    y_e,
    loc_sampler: Callable[[], Array] | None,
    c_edit: float = 0.5,
    editable_layers: Sequence[int] | None = None,
    lr: float = 0.1,
    max_steps: int = 100,
) -> tuple[Mlp, int]:
    """Fine-tuning on the edit example(s) over the editable weight matrices:
    each step descends c_edit * NLL(edit examples) + KL(pre || current) at
    one fresh locality input from `loc_sampler` (no KL term when it is None),
    stopping once every edit label is the argmax prediction; capped at
    `max_steps` (100 per convention)."""
    # each layer once: its gradient buffer is updated in place
    editable = list(dict.fromkeys(editable_layers if editable_layers is not None
                                  else range(model.num_layers)))
    xs = np.atleast_2d(np.asarray(x_e, dtype=np.float64))
    ys = np.atleast_1d(np.asarray(y_e, dtype=np.int64))
    current = model
    for step in range(max_steps):
        logits, trace = forward(current, xs)
        if np.all(np.argmax(logits, axis=1) == ys):
            return current, step
        _, _, wgrads, _ = backward_nll(current, trace, ys)
        # W - lr * ((c_edit / B) * g + g_KL), written into the fresh g
        grads = {l: np.multiply(c_edit / len(ys), wgrads[l], out=wgrads[l]) for l in editable}
        if loc_sampler is not None:
            x_loc = loc_sampler()
            pre_logits, _ = forward(model, x_loc)
            cur_logits, trace_loc = forward(current, x_loc)
            dlogits = softmax(cur_logits[0]) - softmax(pre_logits[0])
            _, wgrads_kl, _ = backward(current, trace_loc, dlogits[None, :])
            for l in editable:
                grads[l] += wgrads_kl[l]
        for l, g in grads.items():
            np.subtract(current.weights[l], np.multiply(lr, g, out=g), out=g)
        current = clone_with_weights(current, grads)
    return current, max_steps


# Rows per forward in `accuracy`: a forward keeps every layer's input and
# pre-activation rows, which over the 5120 pretrain rows of a 512-wide
# model is ~84 MB at once; 512-row blocks hold a tenth of that.
ACCURACY_BLOCK_ROWS = 512


def accuracy(model: Mlp, xs: Array, ys: Array) -> float:
    """Fraction of rows whose argmax logit is the label, forwarded in blocks
    of `ACCURACY_BLOCK_ROWS`."""
    hits = 0
    for start in range(0, len(xs), ACCURACY_BLOCK_ROWS):
        block = slice(start, start + ACCURACY_BLOCK_ROWS)
        logits = forward(model, xs[block])[0]  # the block's trace is freed here
        hits += int(np.count_nonzero(np.argmax(logits, axis=1) == ys[block]))
    return hits / len(xs)


def pretrain_model(
    world: World,
    hidden_dims: Sequence[int] = (128,),
    epochs: int = 40,
    batch_size: int = 32,
    lr: float = 1e-3,
    seed: int = 0,
) -> tuple[Mlp, float]:
    """Fit a base classifier on the pretrain split with Adam; returns the
    model and its final pretrain accuracy."""
    cfg = world.config
    rng = make_rng(seed)
    dims = [cfg.feature_dim, *hidden_dims, cfg.num_classes]
    model = init_mlp(dims, rng)
    # the weights and biases become views into one vector that Adam updates
    tree = flatten({**{f"W{l}": w for l, w in enumerate(model.weights)},
                    **{f"b{l}": b for l, b in enumerate(model.biases)}})
    model.weights = [tree[f"W{l}"] for l in range(model.num_layers)]
    model.biases = [tree[f"b{l}"] for l in range(model.num_layers)]
    # one gradient vector laid out like the parameters, rewritten every batch
    grads = FlatTree(np.empty_like(tree.flat), {k: v.shape for k, v in tree.items()})
    state = AdamState(lr=lr)
    n = world.pretrain_x.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            xs, ys = world.pretrain_x[idx], world.pretrain_y[idx]
            logits, trace = forward(model, xs)
            _, _, wgrads, bgrads = backward_nll(model, trace, ys)
            for g, out in zip(wgrads + bgrads, grads.values()):
                np.divide(g, len(idx), out=out)
            adam_step(tree.flat, grads.flat, state)
    return model, accuracy(model, world.pretrain_x, world.pretrain_y)
