"""Editor training loop and fine-tuning baselines.

A training step edits the base model with a group of records' edit pairs in
one update, scores the edited model on a sampled paraphrase per record (edit
loss) and on the records' locality inputs (exact KL against the pre-edit
model), and pushes the gradient of c_e * L_e + L_loc into the editor
parameters only. The raw gradient factors are treated as constants, so no
higher-order gradients of the base model are ever formed, and the base model
itself is never updated.
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
    apply_edit_with_tape,
    backprop_edit,
    fit_normalizer,
    init_editor,
    zero_grads,
)
from .errors import DataError
from .mlp import Mlp, backward, backward_nll, clone_with_weights, forward, init_mlp
from .ndops import (
    AdamState,
    Array,
    adam_step,
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
        if self.c_e < 0:
            raise ValueError("c_e must be >= 0")
        if self.edits_per_step < 1:
            raise ValueError("edits_per_step must be >= 1")


@dataclass
class StepLosses:
    l_e: float
    l_loc: float
    l_total: float


def _check_record(record: EditRecord) -> None:
    if record.x_e is None or not record.neighborhood or record.x_loc is None:
        raise DataError("record must carry an edit pair, a neighborhood, and x_loc")


def group_losses_and_grads(
    model: Mlp,
    params: EditorParams,
    normalizer: Normalizer | None,
    records: Sequence[EditRecord],
    c_e: float,
    rng: np.random.Generator,
    want_grads: bool = True,
) -> tuple[StepLosses, dict[str, Array] | None]:
    """Apply all records' edit pairs in one model update, then score the
    edited model: L_e is the mean NLL of one paraphrase sampled per record
    (the neighborhood includes the edit pair itself) and L_loc the mean exact
    KL against the pre-edit model at the records' locality inputs."""
    for rec in records:
        _check_record(rec)
    k = len(records)
    eq_pairs = [
        rec.neighborhood[int(rng.integers(len(rec.neighborhood)))] for rec in records
    ]
    tape = apply_edit_with_tape(
        model, params, normalizer, [(rec.x_e, rec.y_e) for rec in records]
    )
    edited = tape.edited

    xs_eq = np.stack([x for x, _ in eq_pairs])
    ys_eq = np.array([y for _, y in eq_pairs], dtype=np.int64)
    logits_e, trace_e = forward(edited, xs_eq)
    logp = log_softmax(logits_e)
    l_e = -float(np.mean(logp[np.arange(k), ys_eq]))
    dlogits_e = np.exp(logp)
    dlogits_e[np.arange(k), ys_eq] -= 1.0

    xs_loc = np.stack([rec.x_loc for rec in records])
    pre_logits, _ = forward(model, xs_loc)
    post_logits, trace_loc = forward(edited, xs_loc)
    l_loc = float(np.mean(kl_divergence(pre_logits, post_logits)))
    losses = StepLosses(l_e, l_loc, c_e * l_e + l_loc)
    if not want_grads:
        return losses, None

    dlogits_loc = softmax(post_logits) - softmax(pre_logits)
    _, wgrads_e, _ = backward(edited, trace_e, (c_e / k) * dlogits_e)
    _, wgrads_loc, _ = backward(edited, trace_loc, dlogits_loc / k)
    weight_grads = {l: wgrads_e[l] + wgrads_loc[l] for l in params.editable_layers}
    grads = backprop_edit(params, tape, weight_grads)
    return losses, grads


def _batched_grads(
    model: Mlp,
    params: EditorParams,
    normalizer: Normalizer | None,
    groups: Sequence[Sequence[EditRecord]],
    c_e: float,
    rng: np.random.Generator,
) -> tuple[StepLosses, dict[str, Array]]:
    total = zero_grads(params)
    le = lloc = 0.0
    for group in groups:
        losses, grads = group_losses_and_grads(model, params, normalizer, group, c_e, rng)
        le += losses.l_e
        lloc += losses.l_loc
        for k in total:
            total[k] += grads[k]
    b = len(groups)
    for k in total:
        total[k] /= b
    return StepLosses(le / b, lloc / b, (c_e * le + lloc) / b), total


def validation_loss(
    model: Mlp,
    params: EditorParams,
    normalizer: Normalizer | None,
    records: Sequence[EditRecord],
    c_e: float,
    seed: int,
    edits_per_step: int = 1,
) -> float:
    groups = fact_groups(records, edits_per_step)
    rng = make_rng(seed)
    total = sum(
        group_losses_and_grads(model, params, normalizer, g, c_e, rng, want_grads=False)[0].l_total
        for g in groups
    )
    return total / len(groups)


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
    variant = variant or VariantConfig()
    rng = make_rng(config.seed)
    editable = config.editable_layers or list(range(model.num_layers))
    params = init_editor(model, editable, config.rank, variant, rng, config.alpha_init)
    normalizer = (
        fit_normalizer(model, train_records, params) if variant.normalize else None
    )
    adam_state = AdamState(lr=config.meta_lr)
    log: list[dict] = []
    best = params.copy()
    best_val = float("inf")
    evals_since_best = 0
    k = config.edits_per_step
    # bucket records by fact so a sampled group edits k distinct facts
    # (two conflicting rewrites of one fact in a single update are ill-posed)
    fact_buckets: dict[int, list[EditRecord]] = {}
    for rec in train_records:
        fact_buckets.setdefault(rec.fact_id, []).append(rec)
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
        losses, grads = _batched_grads(model, params, normalizer, groups, config.c_e, rng)
        params.values = adam_step(params.values, grads, adam_state)
        entry = {
            "step": step,
            "l_e": losses.l_e,
            "l_loc": losses.l_loc,
            "l_total": losses.l_total,
        }
        if val_records and config.eval_every > 0 and (step + 1) % config.eval_every == 0:
            val = validation_loss(
                model, params, normalizer, val_records, config.c_e, config.seed + 1, k
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
    editable = list(editable_layers) if editable_layers is not None else list(range(model.num_layers))
    xs = np.atleast_2d(np.asarray(x_e, dtype=np.float64))
    ys = np.atleast_1d(np.asarray(y_e, dtype=np.int64))
    current = model
    for step in range(max_steps):
        logits, trace = forward(current, xs)
        if np.all(np.argmax(logits, axis=1) == ys):
            return current, step
        _, _, wgrads, _ = backward_nll(current, trace, ys)
        grads = {l: (c_edit / len(ys)) * wgrads[l] for l in editable}
        if loc_sampler is not None:
            x_loc = loc_sampler()
            pre_logits, _ = forward(model, x_loc)
            cur_logits, trace_loc = forward(current, x_loc)
            dlogits = softmax(cur_logits[0]) - softmax(pre_logits[0])
            _, wgrads_kl, _ = backward(current, trace_loc, dlogits[None, :])
            for l in editable:
                grads[l] += wgrads_kl[l]
        replacements = {l: current.weights[l] - lr * grads[l] for l in editable}
        current = clone_with_weights(current, replacements)
    return current, max_steps


def accuracy(model: Mlp, xs: Array, ys: Array) -> float:
    logits, _ = forward(model, xs)
    return float(np.mean(np.argmax(logits, axis=1) == ys))


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
    tree = {}
    for l in range(model.num_layers):
        tree[f"W{l}"] = model.weights[l]
        tree[f"b{l}"] = model.biases[l]
    state = AdamState(lr=lr)
    n = world.pretrain_x.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            xs, ys = world.pretrain_x[idx], world.pretrain_y[idx]
            logits, trace = forward(model, xs)
            _, _, wgrads, bgrads = backward_nll(model, trace, ys)
            grads = {}
            for l in range(model.num_layers):
                grads[f"W{l}"] = wgrads[l] / len(idx)
                grads[f"b{l}"] = bgrads[l] / len(idx)
            tree = adam_step(tree, grads, state)
            for l in range(model.num_layers):
                model.weights[l] = tree[f"W{l}"]
                model.biases[l] = tree[f"b{l}"]
    return model, accuracy(model, world.pretrain_x, world.pretrain_y)
