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

from .errors import ConfigError, DataError, json_example, json_int, json_number, json_object
from .ndops import Array, make_rng

DATASET_FORMAT_VERSION = 1

# A world's inputs (the pretrain inputs, and each record's neighborhood and
# x_loc) fit in 2 GiB of float64, and its classes in a 2**16-wide output layer.
MAX_WORLD_FLOATS, MAX_CLASSES = 2**28, 2**16


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
        # (integer field, lowest allowed value)
        bounds = [("num_entities", 1), ("num_relations", 1), ("num_classes", 2),
                  ("feature_dim", 1), ("paraphrases_per_fact", 1),
                  ("pretrain_per_fact", 1), ("records_per_fact", 1), ("seed", 0)]
        for name, low in bounds:
            json_int(getattr(self, name), name, low, ConfigError)
        json_number(self.noise_scale, "noise_scale", 0, error=ConfigError)
        json_number(self.train_fraction, "train_fraction", 0, strict=True, error=ConfigError)
        if self.num_facts < 2:
            raise ConfigError("a world needs at least 2 facts: a locality input comes from another")
        if self.feature_dim < self.num_entities + self.num_relations:
            raise ConfigError(
                "feature_dim must be >= num_entities + num_relations "
                "(one-hot fact encoding must be injective)"
            )
        if self.train_fraction >= 1.0:
            raise ConfigError("train_fraction must be in (0, 1)")
        if self.num_classes > MAX_CLASSES:
            raise ConfigError(f"num_classes must be <= {MAX_CLASSES}, got {self.num_classes}")
        floats = self.num_facts * self.feature_dim * (
            self.pretrain_per_fact + self.records_per_fact * (self.paraphrases_per_fact + 1))
        if floats > MAX_WORLD_FLOATS:
            raise ConfigError(f"the world's inputs would hold {floats} floats, "
                              f"above the {MAX_WORLD_FLOATS} allowed")

    @property
    def num_facts(self) -> int:
        return self.num_entities * self.num_relations


@dataclass
class EditRecord:
    """One benchmark tuple: edit pair, paraphrase neighborhood, locality pair.

    Checked when built, else DataError: x_e and x_loc are present, the
    neighborhood lists the edit pair itself first and every neighborhood
    label equals y_e. x_loc comes from a different fact.
    """

    x_e: Array
    y_e: int
    neighborhood: list[tuple[Array, int]]
    x_loc: Array
    y_loc: int
    fact_id: int

    def __post_init__(self) -> None:
        if self.x_e is None or self.x_loc is None or not self.neighborhood:
            raise DataError("a record needs an edit input, a locality input and a neighborhood")
        if not np.array_equal(self.neighborhood[0][0], self.x_e):
            raise DataError("the neighborhood must start with the edit pair")
        if any(y != self.y_e for _, y in self.neighborhood):
            raise DataError(f"every neighborhood label must equal y_e={self.y_e}")


@dataclass
class World:
    config: WorldConfig
    fact_labels: Array  # (num_facts,) ground-truth class per fact
    pretrain_x: Array  # (N, d)
    pretrain_y: Array  # (N,)
    edit_train: list[EditRecord] = field(default_factory=list)
    edit_test: list[EditRecord] = field(default_factory=list)


def _encode_facts(cfg: WorldConfig, fact_ids: Array, rng: np.random.Generator) -> Array:
    """One noisy input row per fact id: the noise of all rows comes from one
    draw, which yields the same stream as one draw per row."""
    e, r = np.divmod(fact_ids, cfg.num_relations)
    xs = cfg.noise_scale * rng.standard_normal((len(fact_ids), cfg.feature_dim))
    rows = np.arange(len(fact_ids))
    xs[rows, e] += 1.0
    xs[rows, cfg.num_entities + r] += 1.0
    return xs


def _make_record(
    cfg: WorldConfig, fact_labels: Array, fact_id: int, rng: np.random.Generator
) -> EditRecord:
    gt = int(fact_labels[fact_id])
    # wrong-but-plausible new label: uniform over the other classes
    y_e = int(rng.integers(cfg.num_classes - 1))
    if y_e >= gt:
        y_e += 1
    neighborhood = [(x, y_e) for x in
                    _encode_facts(cfg, np.full(cfg.paraphrases_per_fact, fact_id), rng)]
    loc_fact = int(rng.integers(cfg.num_facts - 1))
    if loc_fact >= fact_id:
        loc_fact += 1
    x_loc = _encode_facts(cfg, np.array([loc_fact]), rng)[0]
    return EditRecord(neighborhood[0][0], y_e, neighborhood, x_loc,
                      int(fact_labels[loc_fact]), fact_id)


def generate_world(cfg: WorldConfig) -> World:
    """Deterministically build (pretrain set, edit train split, edit test
    split); the edit splits are disjoint by fact id."""
    rng = make_rng(cfg.seed)
    fact_labels = make_rng(cfg.seed ^ 0x5EED).integers(cfg.num_classes, size=cfg.num_facts)

    pretrain_facts = np.repeat(np.arange(cfg.num_facts), cfg.pretrain_per_fact)
    pretrain_x = _encode_facts(cfg, pretrain_facts, rng)
    pretrain_y = fact_labels[pretrain_facts].astype(np.int64)

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
    cfg: WorldConfig, obj: object, what: str, x: str = "x", y: str = "y"
) -> tuple[Array, int]:
    """`json_example` of a dataset example, against the world's dims."""
    return json_example(obj, cfg.feature_dim, cfg.num_classes, what, x, y)


def _parse_record(cfg: WorldConfig, obj: dict) -> EditRecord:
    x_e, y_e = _example(cfg, obj, "the edit pair")
    x_loc, y_loc = _example(cfg, obj, "the locality pair", "x_loc", "y_loc")
    neighborhood = [_example(cfg, p, "a paraphrase") for p in obj["neighborhood"]]
    return EditRecord(x_e, y_e, neighborhood, x_loc, y_loc, json_int(obj["fact_id"], "'fact_id'"))


def load_dataset(path: str | Path) -> World:
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: the dataset is not UTF-8 text: {e}") from e
    if not lines:
        raise DataError(f"{path}: empty dataset file")
    header = json_object(lines[0], f"{path}: line 1", DATASET_FORMAT_VERSION)
    try:
        cfg = WorldConfig(**header["config"])
        fact_labels = [json_int(v, f"{path}: a fact label", 0) for v in header["fact_labels"]]
    except (KeyError, TypeError, ConfigError) as e:
        raise DataError(f"{path}: bad world config or fact labels in the header: {e!r}") from e
    if len(fact_labels) != cfg.num_facts or max(fact_labels) >= cfg.num_classes:
        raise DataError(f"{path}: the header needs one integer label in "
                        f"[0, {cfg.num_classes}) per fact for {cfg.num_facts} facts")
    pretrain, edits = [], {"edit_train": [], "edit_test": []}
    for i in range(1, len(lines)):
        obj = json_object(lines[i], f"{path}: line {i + 1}")
        split = obj.get("split")
        # the line of every error below is named here, the record's own checks' too
        try:
            if split == "pretrain":
                pretrain.append(_example(cfg, obj, "the example"))
            elif split in ("edit_train", "edit_test"):
                edits[split].append(_parse_record(cfg, obj))
            else:
                raise DataError(f"unknown split {split!r}")
        except (KeyError, TypeError) as e:
            raise DataError(f"{path}: line {i + 1}: missing or malformed field: {e!r}") from e
        except DataError as e:
            raise DataError(f"{path}: line {i + 1}: {e}") from e
    xs = np.stack([x for x, _ in pretrain]) if pretrain else np.zeros((0, cfg.feature_dim))
    ys = np.array([y for _, y in pretrain], dtype=np.int64)
    return World(cfg, np.array(fact_labels, dtype=np.int64), xs, ys, **edits)


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
