"""Edit-success and drawdown metrics, batched-edit evaluation, and the
ablation harness.

Editors share one interface: `edit(model, pairs)` returns an edited copy of
the model given k edit pairs applied in a single update. Between groups the
evaluation always goes back to the pristine pre-edit model (simultaneous
edits, never sequential chains).

`evaluate_editor` computes the pristine model's logits at every locality
input once per call, makes one edited forward per group over the group's
neighborhood rows and locality inputs, and scores all groups at the end:
`edit_success` and `drawdown` take logits and labels, not models.

Report files are deterministic given seeds; wall-clock timings go to a
separate sidecar so the canonical CSV/JSON reproduce byte-for-byte.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .bench import EditRecord, World, fact_groups, holdout_split
from .editor import EditorParams, Normalizer, VariantConfig, apply_edit, init_editor, training_key
from .errors import ContractError, DataError, ShapeError
from .mlp import Mlp, forward
from .ndops import Array, kl_divergence, make_rng
from .training import (
    FT_MAX_STEPS,
    TrainConfig,
    block_logits,
    finetune_edit,
    finetune_kl_edit,
    train_editor,
)

REPORT_FORMAT_VERSION = 1


class Editor(Protocol):
    name: str

    def edit(self, model: Mlp, pairs: list[tuple[Array, int]]) -> Mlp: ...

    def param_count(self) -> int: ...


@dataclass
class LearnedEditor:
    params: EditorParams
    normalizer: Normalizer | None
    name: str = "learned"

    def edit(self, model: Mlp, pairs: list[tuple[Array, int]]) -> Mlp:
        return apply_edit(model, self.params, self.normalizer, pairs)

    def param_count(self) -> int:
        return self.params.num_parameters()


@dataclass
class FtEditor:
    editable_layers: list[int] | None = None
    name: str = "ft"

    def edit(self, model: Mlp, pairs: list[tuple[Array, int]]) -> Mlp:
        xs, ys = zip(*pairs)
        return finetune_edit(model, xs, ys, self.editable_layers)[0]

    def param_count(self) -> int:
        return 0


@dataclass
class FtKlEditor:
    """FT+KL over `loc_pool`: when built, it draws `FT_MAX_STEPS` pool
    indices in one `integers` call from a generator seeded with `seed`, and
    every edit fine-tunes against those same locality inputs. It caches the
    pre-edit softmax at each input for the model it last edited, and assumes
    that this model is not changed in place between edits."""

    loc_pool: list[Array]
    editable_layers: list[int] | None = None
    seed: int = 0
    name: str = "ft_kl"
    loc_inputs: tuple[Array, ...] = field(init=False, repr=False, compare=False)
    _model: Mlp | None = field(default=None, init=False, repr=False, compare=False)
    _pre_probs: list[Array | None] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.loc_pool) == 0:
            raise DataError("FT+KL needs a non-empty pool of locality inputs")
        rng = make_rng(self.seed)
        picks = rng.integers(len(self.loc_pool), size=FT_MAX_STEPS)
        self.loc_inputs = tuple(self.loc_pool[i] for i in picks.tolist())

    def edit(self, model: Mlp, pairs: list[tuple[Array, int]]) -> Mlp:
        if model is not self._model:  # the held reference keeps its id unique
            self._model, self._pre_probs = model, [None] * len(self.loc_inputs)
        xs, ys = zip(*pairs)
        return finetune_kl_edit(model, xs, ys, self.loc_inputs,
                                editable_layers=self.editable_layers,
                                pre_probs=self._pre_probs)[0]

    def param_count(self) -> int:
        return 0


@dataclass
class EditReport:
    name: str
    k_edits: int
    num_records: int
    es: float
    dd_acc: float
    dd_kl: float
    param_count: int
    wall_time_s: float
    rows: list[dict] = field(default_factory=list)


def edit_success(logits: Array, labels: Array, counts: Sequence[int]) -> Array:
    """Per record, the fraction of its equivalence neighborhood (edit pair
    included once, as its first element) predicted as the new label.

    `logits` (R, C) and `labels` (R,) hold the records' neighborhood rows one
    record after another, `counts[i]` rows for record i."""
    counts = np.asarray(counts)
    if counts.min() < 1 or counts.sum() != len(labels):
        raise ShapeError(f"neighborhood sizes must be >= 1 and sum to the {len(labels)} rows")
    hits = (np.argmax(logits, axis=1) == labels).astype(np.float64)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.add.reduceat(hits, starts) / counts


def drawdown(
    pre_logits: Array, post_logits: Array, labels: Array
) -> tuple[Array, Array]:
    """(accuracy decrease, mean exact KL) of the post-edit logits vs the
    pre-edit ones at locality inputs with `labels`.

    Logits of shape (..., k, C) with labels (..., k) give one pair per
    leading index: a single group's (k, C) logits give two scalars, and
    (G, k, C) logits one value per group."""
    acc_pre = np.mean(np.argmax(pre_logits, axis=-1) == labels, axis=-1)
    acc_post = np.mean(np.argmax(post_logits, axis=-1) == labels, axis=-1)
    return acc_pre - acc_post, np.mean(kl_divergence(pre_logits, post_logits), axis=-1)


def evaluate_editor(
    editor: Editor,
    model: Mlp,
    records: Sequence[EditRecord],
    k_edits: int = 1,
) -> EditReport:
    """Apply the editor to groups of k records at once, scoring per-record
    edit success and per-group drawdown against the pristine model.

    Records are interleaved by fact id before grouping, so a group of k
    simultaneous edits targets k distinct facts instead of asking for
    contradictory rewrites of the same fact.

    Each group's rows are stacked once: its records' neighborhoods, then its
    k locality inputs. The pristine model's logits at every locality input
    are computed once per call; a group then costs one edit and one forward
    of the edited model over its rows, and everything is scored after the
    last group."""
    groups = fact_groups(records, k_edits)
    flat = [r for group in groups for r in group]
    pristine = [a.copy() for a in model.weights + model.biases]
    start = time.perf_counter()
    pairs: list[tuple[Array, int]] = []
    ends = []  # one past each group's last row
    for group in groups:
        pairs.extend(p for r in group for p in r.neighborhood)
        pairs.extend((r.x_loc, r.y_loc) for r in group)
        ends.append(len(pairs))
    xs, ys = np.stack([x for x, _ in pairs]), np.array([y for _, y in pairs])
    loc = np.array(ends)[:, None] + np.arange(-k_edits, 0)  # (G, k) locality rows
    in_nb = np.ones(len(xs), dtype=bool)
    in_nb[loc] = False
    pre_logits = block_logits(model, xs[loc.reshape(-1)]).reshape(*loc.shape, -1)
    logits = np.empty((len(xs), model.num_classes))
    for group, begin, end in zip(groups, [0] + ends, ends):
        edited = editor.edit(model, [(r.x_e, r.y_e) for r in group])
        logits[begin:end] = forward(edited, xs[begin:end])[0]
    es = edit_success(logits[in_nb], ys[in_nb], [len(r.neighborhood) for r in flat])
    dd_acc, dd_kl = drawdown(pre_logits, logits[loc], ys[loc])
    wall = time.perf_counter() - start
    for before, after in zip(pristine, model.weights + model.biases):
        if not np.array_equal(before, after):
            raise ContractError(f"editor {editor.name!r} mutated the model's weights or biases")
    rows = [
        {"fact_id": r.fact_id, "es": e, "group": i // k_edits,
         "group_dd_acc": dd_acc.item(i // k_edits), "group_dd_kl": dd_kl.item(i // k_edits)}
        for i, (r, e) in enumerate(zip(flat, es.tolist()))
    ]
    return EditReport(
        name=editor.name,
        k_edits=k_edits,
        num_records=len(flat),
        es=float(np.mean(es)),
        dd_acc=float(np.mean(dd_acc)),
        dd_kl=float(np.mean(dd_kl)),
        param_count=editor.param_count(),
        wall_time_s=wall,
        rows=rows,
    )


ABLATION_VARIANTS: dict[str, VariantConfig] = {
    "full": VariantConfig(),
    "no_sharing": VariantConfig(share_params=False),
    "no_norm": VariantConfig(normalize=False),
    "no_id_init": VariantConfig(identity_init=False),
    "only_u": VariantConfig(transform="only_u"),
    "only_delta": VariantConfig(transform="only_delta"),
    "only_smaller": VariantConfig(transform="only_smaller"),
}


def run_ablations(world: World, model: Mlp, config: TrainConfig) -> list[EditReport]:
    """Train and evaluate every ablation variant under identical seeds, step
    budgets, and data; one report per variant, scored on single edits. A variant
    with an earlier one's `training_key` reuses its report, `wall_time_s` too."""
    train_recs, val_recs = holdout_split(world.edit_train)
    layers = config.editable_layers or range(model.num_layers)  # never [], as TrainConfig checks
    reports, trained = [], {}
    for name, variant in ABLATION_VARIANTS.items():
        key = training_key(init_editor(model, layers, config.rank, variant, make_rng(0)))
        if key not in trained:
            t0 = time.perf_counter()
            params, normalizer, _ = train_editor(model, train_recs, val_recs, config, variant)
            editor = LearnedEditor(params, normalizer, name=name)
            trained[key] = evaluate_editor(editor, model, world.edit_test, 1)
            trained[key].wall_time_s = time.perf_counter() - t0
        reports.append(replace(trained[key], name=name))
    return reports


def reports_to_csv(reports: Sequence[EditReport], path: str | Path) -> None:
    """Canonical CSV, deterministic given seeds (no timing column; see
    `write_timing`)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "k_edits", "num_records", "es", "dd_acc", "dd_kl", "params"])
        for r in reports:
            writer.writerow(
                [r.name, r.k_edits, r.num_records, repr(r.es), repr(r.dd_acc), repr(r.dd_kl), r.param_count]
            )


def reports_to_json(reports: Sequence[EditReport], path: str | Path) -> None:
    """JSON mirror with per-record rows; deterministic given seeds."""
    payload = {
        "format_version": REPORT_FORMAT_VERSION,
        "reports": [
            {
                "name": r.name,
                "k_edits": r.k_edits,
                "num_records": r.num_records,
                "es": r.es,
                "dd_acc": r.dd_acc,
                "dd_kl": r.dd_kl,
                "params": r.param_count,
                "rows": r.rows,
                "config": {},  # a key of report format version 1; always empty
            }
            for r in reports
        ],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True))


def write_timing(reports: Sequence[EditReport], path: str | Path) -> None:
    """Wall-clock sidecar; intentionally outside the deterministic files."""
    Path(path).write_text(
        json.dumps({r.name: r.wall_time_s for r in reports}, sort_keys=True)
    )
