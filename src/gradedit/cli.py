"""Command-line entry point for reproducible experiments.

Subcommands: gen-data, pretrain, train-editor, edit, eval, ablate. All state
lives on disk; every run writes its fully resolved config snapshot next to
its outputs. Exit codes are stable: 0 success, 2 config error, 3 data error,
4 contract violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .bench import WorldConfig, generate_world, holdout_split, load_dataset, save_dataset
from .editor import VariantConfig, load_editor, save_editor
from .errors import ConfigError, ContractError, DataError, ShapeError
from .evaluation import (
    ABLATION_VARIANTS,
    FtEditor,
    FtKlEditor,
    LearnedEditor,
    evaluate_editor,
    reports_to_csv,
    reports_to_json,
    run_ablations,
    write_timing,
)
from .mlp import Mlp, forward, load_model, save_model
from .training import TrainConfig, pretrain_model, train_editor


def _out_dir(args) -> Path:
    out = args.out_dir or os.environ.get("GRADEDIT_OUT_DIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _resolve(args, defaults: dict, overrides: dict) -> dict:
    """defaults <- config file <- explicit flags; unknown file keys rejected."""
    cfg = dict(defaults)
    if args.config:
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except FileNotFoundError as e:
            raise ConfigError(f"config file not found: {args.config}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from e
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    return cfg


def _snapshot(cfg: dict, out: Path, command: str) -> None:
    (out / f"{command}_config.json").write_text(json.dumps(cfg, sort_keys=True))


def _require_file(path: str | None, what: str) -> Path:
    if not path:
        raise ConfigError(f"--{what} is required")
    p = Path(path)
    if not p.exists():
        raise DataError(f"{what} file not found: {path}")
    return p


def _load_world(args):
    return load_dataset(_require_file(args.dataset, "dataset"))


def cmd_gen_data(args) -> int:
    defaults = dataclasses.asdict(WorldConfig())
    cfg = _resolve(args, defaults, {"seed": args.seed})
    out = _out_dir(args)
    world = generate_world(WorldConfig(**cfg))
    save_dataset(world, out / "dataset.jsonl")
    summary = {
        "num_facts": world.config.num_facts,
        "pretrain_examples": int(world.pretrain_x.shape[0]),
        "edit_train_records": len(world.edit_train),
        "edit_test_records": len(world.edit_test),
        "pretrain_class_histogram": np.bincount(
            world.pretrain_y, minlength=world.config.num_classes
        ).tolist(),
    }
    (out / "dataset_summary.json").write_text(json.dumps(summary, sort_keys=True))
    _snapshot(cfg, out, "gen_data")
    print(f"wrote {out / 'dataset.jsonl'} ({summary['pretrain_examples']} pretrain, "
          f"{summary['edit_train_records']}+{summary['edit_test_records']} edit records)")
    return 0


def cmd_pretrain(args) -> int:
    defaults = {"hidden_dims": [128], "epochs": 40, "batch_size": 32, "lr": 1e-3, "seed": 0}
    cfg = _resolve(args, defaults, {"seed": args.seed})
    world = _load_world(args)
    out = _out_dir(args)
    model, acc = pretrain_model(world, **cfg)
    save_model(model, out / "model.json")
    (out / "pretrain_summary.json").write_text(
        json.dumps({"accuracy": acc}, sort_keys=True)
    )
    _snapshot(cfg, out, "pretrain")
    print(f"pretrain accuracy: {acc:.4f}")
    return 0


def cmd_train_editor(args) -> int:
    defaults = dataclasses.asdict(TrainConfig())
    defaults["variant"] = "full"
    overrides = {"seed": args.seed, "max_steps": args.steps, "variant": args.variant}
    cfg = _resolve(args, defaults, overrides)
    variant_name = cfg.pop("variant")
    if variant_name not in ABLATION_VARIANTS:
        raise ConfigError(f"unknown variant {variant_name!r}")
    world = _load_world(args)
    model = load_model(_require_file(args.model, "model"))
    out = _out_dir(args)
    config = TrainConfig(**cfg)
    train_recs, val_recs = holdout_split(world.edit_train)
    params, normalizer, log = train_editor(
        model, train_recs, val_recs, config, ABLATION_VARIANTS[variant_name]
    )
    save_editor(params, normalizer, out / "editor.json")
    with open(out / "train_log.jsonl", "w") as fh:
        for entry in log:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    cfg["variant"] = variant_name
    _snapshot(cfg, out, "train_editor")
    final = log[-1]["l_total"] if log else float("nan")
    print(f"trained {variant_name} editor for {len(log)} steps; final L_total {final:.4f}")
    return 0


def _load_edit_inputs(path: Path, model: Mlp) -> tuple[np.ndarray, np.ndarray]:
    """The (B, input_dim) edit inputs and (B,) labels of an edit input file."""
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise DataError(f"malformed edit input file {path}: {e}") from e
    items = payload["edits"] if isinstance(payload, dict) and "edits" in payload else [payload]
    try:
        xs = [np.array(it["x"], dtype=np.float64) for it in items]
        ys = np.array([int(it["y"]) for it in items], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"edit input file {path} must carry numeric 'x' and 'y' fields") from e
    if not xs:
        raise DataError(f"edit input file {path} lists no edits")
    if any(x.shape != (model.input_dim,) for x in xs):
        raise DataError(f"every edit input 'x' must be a list of {model.input_dim} numbers")
    bad = ys[(ys < 0) | (ys >= model.num_classes)]
    if bad.size:
        raise DataError(f"edit label {bad[0]} is outside the model's {model.num_classes} classes")
    return np.stack(xs), ys


def cmd_edit(args) -> int:
    model = load_model(_require_file(args.model, "model"))
    params, normalizer = load_editor(_require_file(args.editor, "editor"))
    xs, ys = _load_edit_inputs(_require_file(args.edit_input, "edit-input"), model)
    out = _out_dir(args)
    edited = LearnedEditor(params, normalizer).edit(model, list(zip(xs, ys.tolist())))
    save_model(edited, out / "edited_model.json")
    argmax_pre = np.argmax(forward(model, xs)[0], axis=1)
    argmax_post = np.argmax(forward(edited, xs)[0], axis=1)
    preds = [
        {"target": y, "argmax_pre": int(pre), "argmax_post": int(post)}
        for y, pre, post in zip(ys.tolist(), argmax_pre, argmax_post)
    ]
    (out / "edit_predictions.json").write_text(json.dumps(preds, sort_keys=True))
    _snapshot({"model": args.model, "editor": args.editor, "edit_input": args.edit_input},
              out, "edit")
    print(json.dumps(preds))
    return 0


def _parse_k_list(text: str) -> list[int]:
    try:
        ks = [int(t) for t in text.split(",") if t.strip()]
    except ValueError as e:
        raise ConfigError(f"bad --k-edits value {text!r}") from e
    if not ks or any(k < 1 for k in ks):
        raise ConfigError("--k-edits must list positive integers")
    return ks


def cmd_eval(args) -> int:
    world = _load_world(args)
    model = load_model(_require_file(args.model, "model"))
    params, normalizer = load_editor(_require_file(args.editor, "editor"))
    ks = _parse_k_list(args.k_edits or "1,5,25")
    out = _out_dir(args)
    reports = []
    for k in ks:
        editor = LearnedEditor(params, normalizer, name=f"learned@k={k}")
        reports.append(evaluate_editor(editor, model, world.edit_test, k))
    if args.baselines:
        loc_pool = [r.x_loc for r in world.edit_train]
        for k in ks:
            ft = FtEditor(editable_layers=params.editable_layers, name=f"ft@k={k}")
            reports.append(evaluate_editor(ft, model, world.edit_test, k))
            ft_kl = FtKlEditor(
                loc_pool, editable_layers=params.editable_layers, name=f"ft_kl@k={k}"
            )
            reports.append(evaluate_editor(ft_kl, model, world.edit_test, k))
    reports_to_csv(reports, out / "report.csv")
    reports_to_json(reports, out / "report.json")
    write_timing(reports, out / "report_timing.json")
    _snapshot({"k_edits": ks, "baselines": bool(args.baselines)}, out, "eval")
    for r in reports:
        print(f"{r.name}: ES={r.es:.3f} DD_acc={r.dd_acc:.3f} DD_kl={r.dd_kl:.4f}")
    return 0


def cmd_ablate(args) -> int:
    defaults = dataclasses.asdict(TrainConfig())
    # an equal fixed step budget for every variant: no early stopping
    defaults["max_steps"] = 5000
    defaults["eval_every"] = 0
    cfg = _resolve(args, defaults, {"seed": args.seed, "max_steps": args.steps})
    world = _load_world(args)
    model = load_model(_require_file(args.model, "model"))
    out = _out_dir(args)
    reports = run_ablations(world, model, TrainConfig(**cfg))
    reports_to_csv(reports, out / "ablation_report.csv")
    reports_to_json(reports, out / "ablation_report.json")
    write_timing(reports, out / "ablation_timing.json")
    _snapshot(cfg, out, "ablate")
    for r in reports:
        print(f"{r.name}: ES={r.es:.3f} DD_acc={r.dd_acc:.3f} params={r.param_count}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gradedit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", default=None, help="default: $GRADEDIT_OUT_DIR or .")

    p = sub.add_parser("gen-data", help="generate the synthetic edit benchmark")
    common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="train the base classifier")
    common(p)
    p.add_argument("--dataset")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train-editor", help="meta-train a gradient editor")
    common(p)
    p.add_argument("--dataset")
    p.add_argument("--model")
    p.add_argument("--variant", choices=sorted(ABLATION_VARIANTS))
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(func=cmd_train_editor)

    p = sub.add_parser("edit", help="apply a trained editor to one edit input")
    common(p)
    p.add_argument("--model")
    p.add_argument("--editor")
    p.add_argument("--edit-input")
    p.set_defaults(func=cmd_edit)

    p = sub.add_parser("eval", help="evaluate an editor (optionally batched edits)")
    common(p)
    p.add_argument("--dataset")
    p.add_argument("--model")
    p.add_argument("--editor")
    p.add_argument("--k-edits", default=None, help="comma list, default 1,5,25")
    p.add_argument("--baselines", action="store_true", help="also run ft and ft_kl")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train and evaluate all ablation variants")
    common(p)
    p.add_argument("--dataset")
    p.add_argument("--model")
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except (ShapeError, ContractError) as e:
        print(f"contract violation: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
