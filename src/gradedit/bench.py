"""Synthetic "fact lookup" edit benchmark.

A world has E entities and R relations; every (entity, relation) fact has a
ground-truth class. Inputs encode the fact as two one-hot blocks plus seeded
Gaussian noise, so paraphrases of a fact are simply fresh noise draws. Edit
records assign a wrong-but-plausible new label and carry an equivalence
neighborhood of paraphrases plus an independent locality example from a
different fact. Everything is deterministic given the config seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .ndops import Array, make_rng

DATASET_FORMAT_VERSION = 1


@dataclass
class WorldConfig:
    num_entities: int = 32
    num_relations: int = 4
    num_classes: int = 16
    feature_dim: int = 64
    paraphrases_per_fact: int = 4
    noise_scale: float = 0.1
    seed: int = 0
    # generator knobs beyond the core world shape
    pretrain_per_fact: int = 40
    records_per_fact: int = 16
    train_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if self.paraphrases_per_fact < 1:
            raise ConfigError("paraphrases_per_fact must be >= 1")
        if self.feature_dim < self.num_entities + self.num_relations:
            raise ConfigError(
                "feature_dim must be >= num_entities + num_relations "
                "(one-hot fact encoding must be injective)"
            )
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must be in (0, 1)")

    @property
    def num_facts(self) -> int:
        return self.num_entities * self.num_relations


@dataclass
class EditRecord:
    """One benchmark tuple: edit pair, paraphrase neighborhood, locality pair.

    The neighborhood always lists the edit pair itself first and every
    neighborhood label equals y_e; x_loc comes from a different fact.
    """

    x_e: Array
    y_e: int
    neighborhood: list[tuple[Array, int]]
    x_loc: Array
    y_loc: int
    fact_id: int


@dataclass
class World:
    config: WorldConfig
    fact_labels: Array  # (num_facts,) ground-truth class per fact
    pretrain_x: Array  # (N, d)
    pretrain_y: Array  # (N,)
    edit_train: list[EditRecord] = field(default_factory=list)
    edit_test: list[EditRecord] = field(default_factory=list)


def _encode_fact(cfg: WorldConfig, fact_id: int, rng: np.random.Generator) -> Array:
    e, r = divmod(fact_id, cfg.num_relations)
    x = cfg.noise_scale * rng.standard_normal(cfg.feature_dim)
    x[e] += 1.0
    x[cfg.num_entities + r] += 1.0
    return x


def _make_record(
    cfg: WorldConfig, fact_labels: Array, fact_id: int, rng: np.random.Generator
) -> EditRecord:
    gt = int(fact_labels[fact_id])
    # wrong-but-plausible new label: uniform over the other classes
    y_e = int(rng.integers(cfg.num_classes - 1))
    if y_e >= gt:
        y_e += 1
    x_e = _encode_fact(cfg, fact_id, rng)
    neighborhood = [(x_e, y_e)]
    for _ in range(cfg.paraphrases_per_fact - 1):
        neighborhood.append((_encode_fact(cfg, fact_id, rng), y_e))
    loc_fact = int(rng.integers(cfg.num_facts - 1))
    if loc_fact >= fact_id:
        loc_fact += 1
    x_loc = _encode_fact(cfg, loc_fact, rng)
    return EditRecord(x_e, y_e, neighborhood, x_loc, int(fact_labels[loc_fact]), fact_id)


def generate_world(cfg: WorldConfig) -> World:
    """Deterministically build (pretrain set, edit train split, edit test
    split); the edit splits are disjoint by fact id."""
    rng = make_rng(cfg.seed)
    fact_labels = make_rng(cfg.seed ^ 0x5EED).integers(cfg.num_classes, size=cfg.num_facts)

    xs, ys = [], []
    for fact_id in range(cfg.num_facts):
        for _ in range(cfg.pretrain_per_fact):
            xs.append(_encode_fact(cfg, fact_id, rng))
            ys.append(int(fact_labels[fact_id]))
    pretrain_x = np.stack(xs)
    pretrain_y = np.array(ys, dtype=np.int64)

    order = rng.permutation(cfg.num_facts)
    n_train = int(round(cfg.num_facts * cfg.train_fraction))
    train_facts, test_facts = order[:n_train], order[n_train:]

    edit_train = [
        _make_record(cfg, fact_labels, int(f), rng)
        for f in train_facts
        for _ in range(cfg.records_per_fact)
    ]
    edit_test = [
        _make_record(cfg, fact_labels, int(f), rng)
        for f in test_facts
        for _ in range(cfg.records_per_fact)
    ]
    return World(cfg, fact_labels, pretrain_x, pretrain_y, edit_train, edit_test)


def _record_to_json(split: str, rec: EditRecord) -> dict:
    return {
        "split": split,
        "fact_id": rec.fact_id,
        "x": rec.x_e.tolist(),
        "y": rec.y_e,
        "neighborhood": [{"x": x.tolist(), "y": y} for x, y in rec.neighborhood],
        "x_loc": rec.x_loc.tolist(),
        "y_loc": rec.y_loc,
    }


def save_dataset(world: World, path: str | Path) -> None:
    """Line-delimited JSON with a version header line."""
    cfg = world.config
    with open(path, "w") as fh:
        header = {
            "format_version": DATASET_FORMAT_VERSION,
            "kind": "editbench",
            "config": vars(cfg).copy(),
            "fact_labels": world.fact_labels.tolist(),
        }
        fh.write(json.dumps(header) + "\n")
        for x, y in zip(world.pretrain_x, world.pretrain_y):
            fh.write(json.dumps({"split": "pretrain", "x": x.tolist(), "y": int(y)}) + "\n")
        for split, recs in (("edit_train", world.edit_train), ("edit_test", world.edit_test)):
            for rec in recs:
                fh.write(json.dumps(_record_to_json(split, rec)) + "\n")


def _example(
    cfg: WorldConfig, obj: dict, lineno: int, x: str = "x", y: str = "y"
) -> tuple[Array, int]:
    """The (input, label) pair under keys `x`, `y` of a dataset line, checked
    against the world's feature dim and classes."""
    try:
        pair = np.array(obj[x], dtype=np.float64), int(obj[y])
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"line {lineno}: missing or malformed field: {e!r}") from e
    if pair[0].shape != (cfg.feature_dim,):
        raise DataError(f"line {lineno}: input shape {pair[0].shape} != ({cfg.feature_dim},)")
    if not 0 <= pair[1] < cfg.num_classes:
        raise DataError(f"line {lineno}: label {pair[1]} is outside the {cfg.num_classes} classes")
    return pair


def _parse_record(cfg: WorldConfig, obj: dict, lineno: int) -> EditRecord:
    x_e, y_e = _example(cfg, obj, lineno)
    x_loc, y_loc = _example(cfg, obj, lineno, "x_loc", "y_loc")
    try:
        neighborhood = [_example(cfg, p, lineno) for p in obj["neighborhood"]]
        fact_id = int(obj["fact_id"])
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"line {lineno}: missing or malformed field: {e!r}") from e
    if not neighborhood or not np.array_equal(neighborhood[0][0], x_e):
        raise DataError(f"line {lineno}: neighborhood must start with the edit pair")
    return EditRecord(x_e, y_e, neighborhood, x_loc, y_loc, fact_id)


def load_dataset(path: str | Path) -> World:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataError(f"{path}: empty dataset file")

    def parse_line(i: int) -> dict:
        try:
            return json.loads(lines[i])
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: parse error on line {i + 1}: {e}") from e

    header = parse_line(0)
    if header.get("format_version") != DATASET_FORMAT_VERSION:
        raise DataError(
            f"{path}: dataset version {header.get('format_version')} "
            f"unsupported (want {DATASET_FORMAT_VERSION})"
        )
    try:
        cfg = WorldConfig(**header["config"])
    except (KeyError, TypeError, ConfigError) as e:
        raise DataError(f"{path}: bad world config in the header: {e}") from e
    world = World(
        cfg,
        np.array(header["fact_labels"], dtype=np.int64),
        pretrain_x=np.zeros((0, cfg.feature_dim)),
        pretrain_y=np.zeros(0, dtype=np.int64),
    )
    xs, ys = [], []
    for i in range(1, len(lines)):
        obj = parse_line(i)
        split = obj.get("split")
        if split == "pretrain":
            x, y = _example(cfg, obj, i + 1)
            xs.append(x)
            ys.append(y)
        elif split == "edit_train":
            world.edit_train.append(_parse_record(cfg, obj, i + 1))
        elif split == "edit_test":
            world.edit_test.append(_parse_record(cfg, obj, i + 1))
        else:
            raise DataError(f"{path}: line {i + 1}: unknown split {split!r}")
    world.pretrain_x = np.stack(xs) if xs else np.zeros((0, cfg.feature_dim))
    world.pretrain_y = np.array(ys, dtype=np.int64)
    return world


def interleave_by_fact(records: Sequence[EditRecord]) -> list[EditRecord]:
    """Reorder records round-robin over fact ids (stable within a fact).

    Consecutive records then cover distinct facts, so grouping a batch of k
    simultaneous edits from a prefix never asks for two conflicting edits of
    the same fact (as long as k does not exceed the number of facts present).
    """
    buckets: dict[int, list[EditRecord]] = {}
    for rec in records:
        buckets.setdefault(rec.fact_id, []).append(rec)
    out: list[EditRecord] = []
    depth = 0
    while len(out) < len(records):
        for fact_id in buckets:
            if depth < len(buckets[fact_id]):
                out.append(buckets[fact_id][depth])
        depth += 1
    return out


def fact_groups(records: Sequence[EditRecord], k: int) -> list[list[EditRecord]]:
    """Consecutive groups of k records after `interleave_by_fact`; the
    remainder that does not fill a group is dropped."""
    if not 1 <= k <= len(records):
        raise ConfigError(f"groups of k={k} edits need 1 <= k <= {len(records)} records")
    records = interleave_by_fact(records)
    return [records[i : i + k] for i in range(0, len(records) - k + 1, k)]


def holdout_split(records: Sequence[EditRecord]) -> tuple[Sequence, Sequence]:
    """(train, validation): the last tenth of `records`, at least one."""
    n_val = max(1, len(records) // 10)
    return records[:-n_val], records[-n_val:]
