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


def _parse_record(obj: dict, lineno: int) -> EditRecord:
    try:
        neighborhood = [
            (np.array(p["x"], dtype=np.float64), int(p["y"])) for p in obj["neighborhood"]
        ]
        rec = EditRecord(
            x_e=np.array(obj["x"], dtype=np.float64),
            y_e=int(obj["y"]),
            neighborhood=neighborhood,
            x_loc=np.array(obj["x_loc"], dtype=np.float64),
            y_loc=int(obj["y_loc"]),
            fact_id=int(obj["fact_id"]),
        )
    except KeyError as e:
        raise DataError(f"line {lineno}: missing field {e}") from e
    if not rec.neighborhood or not np.array_equal(rec.neighborhood[0][0], rec.x_e):
        raise DataError(f"line {lineno}: neighborhood must start with the edit pair")
    return rec


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
    cfg = WorldConfig(**header["config"])
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
            xs.append(np.array(obj["x"], dtype=np.float64))
            ys.append(int(obj["y"]))
        elif split == "edit_train":
            world.edit_train.append(_parse_record(obj, i + 1))
        elif split == "edit_test":
            world.edit_test.append(_parse_record(obj, i + 1))
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
