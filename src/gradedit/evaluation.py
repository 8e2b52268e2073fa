"""Edit-success and drawdown metrics, batched-edit evaluation, and the
ablation harness.

Editors share one interface: `edit(model, pairs)` returns an edited copy of
the model given k edit pairs applied in a single update. Between groups the
evaluation always goes back to the pristine pre-edit model (simultaneous
edits, never sequential chains).

Report files are deterministic given seeds; wall-clock timings go to a
separate sidecar so the canonical CSV/JSON reproduce byte-for-byte.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .bench import EditRecord, World, fact_groups, holdout_split
from .editor import EditorParams, Normalizer, VariantConfig, apply_edit
from .errors import ContractError
from .mlp import Mlp, forward
from .ndops import Array, kl_divergence, make_rng
from .training import TrainConfig, finetune_edit, finetune_kl_edit, train_editor

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
    lr: float = 0.1
    max_steps: int = 100
    name: str = "ft"

    def edit(self, model: Mlp, pairs: list[tuple[Array, int]]) -> Mlp:
        xs, ys = zip(*pairs)
        return finetune_edit(model, xs, ys, self.editable_layers, self.lr, self.max_steps)[0]

    def param_count(self) -> int:
        return 0


@dataclass
class FtKlEditor:
    loc_pool: list[Array]
    c_edit: float = 0.5
    editable_layers: list[int] | None = None
    lr: float = 0.1
    max_steps: int = 100
    seed: int = 0
    name: str = "ft_kl"

    def edit(self, model: Mlp, pairs: list[tuple[Array, int]]) -> Mlp:
        rng = make_rng(self.seed)
        sampler = lambda: self.loc_pool[int(rng.integers(len(self.loc_pool)))]
        xs, ys = zip(*pairs)
        return finetune_kl_edit(
            model, xs, ys, sampler, self.c_edit, self.editable_layers, self.lr, self.max_steps
        )[0]

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
    config: dict = field(default_factory=dict)


def edit_success(model: Mlp, record: EditRecord) -> float:
    """Fraction of the equivalence neighborhood (edit pair included once, as
    its first element) predicted as the new label."""
    xs = np.stack([x for x, _ in record.neighborhood])
    ys = np.array([y for _, y in record.neighborhood])
    logits, _ = forward(model, xs)
    return float(np.mean(np.argmax(logits, axis=1) == ys))


def drawdown(
    pre: Mlp, post: Mlp, loc_x: Array, loc_y: Array
) -> tuple[float, float]:
    """(accuracy decrease, mean exact KL) of `post` vs `pre` on the locality
    set."""
    loc_x = np.atleast_2d(loc_x)
    loc_y = np.asarray(loc_y).reshape(-1)
    pre_logits, _ = forward(pre, loc_x)
    post_logits, _ = forward(post, loc_x)
    acc_pre = float(np.mean(np.argmax(pre_logits, axis=1) == loc_y))
    acc_post = float(np.mean(np.argmax(post_logits, axis=1) == loc_y))
    kl = float(np.mean(kl_divergence(pre_logits, post_logits)))
    return acc_pre - acc_post, kl


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
    contradictory rewrites of the same fact."""
    groups = fact_groups(records, k_edits)
    pristine = [w.copy() for w in model.weights]
    start = time.perf_counter()
    rows: list[dict] = []
    drawdowns: list[tuple[float, float]] = []
    for g, group in enumerate(groups):
        edited = editor.edit(model, [(r.x_e, r.y_e) for r in group])
        loc_x = np.stack([r.x_loc for r in group])
        loc_y = np.array([r.y_loc for r in group])
        dd_acc, dd_kl = drawdown(model, edited, loc_x, loc_y)
        drawdowns.append((dd_acc, dd_kl))
        rows.extend(
            {
                "fact_id": r.fact_id,
                "es": edit_success(edited, r),
                "group": g,
                "group_dd_acc": dd_acc,
                "group_dd_kl": dd_kl,
            }
            for r in group
        )
    wall = time.perf_counter() - start
    for w_before, w_after in zip(pristine, model.weights):
        if not np.array_equal(w_before, w_after):
            raise ContractError(f"editor {editor.name!r} mutated the model's weights")
    return EditReport(
        name=editor.name,
        k_edits=k_edits,
        num_records=len(groups) * k_edits,
        es=float(np.mean([row["es"] for row in rows])),
        dd_acc=float(np.mean([acc for acc, _ in drawdowns])),
        dd_kl=float(np.mean([kl for _, kl in drawdowns])),
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


def run_ablations(
    world: World,
    model: Mlp,
    config: TrainConfig,
    k_edits: int = 1,
) -> list[EditReport]:
    """Train and evaluate every ablation variant under identical seeds, step
    budgets, and data; one report per variant."""
    train_recs, val_recs = holdout_split(world.edit_train)
    reports = []
    for name, variant in ABLATION_VARIANTS.items():
        t0 = time.perf_counter()
        params, normalizer, _ = train_editor(model, train_recs, val_recs, config, variant)
        editor = LearnedEditor(params, normalizer, name=name)
        report = evaluate_editor(editor, model, world.edit_test, k_edits)
        report.wall_time_s = time.perf_counter() - t0
        reports.append(report)
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
                "config": r.config,
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
