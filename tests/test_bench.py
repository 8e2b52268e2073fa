"""Benchmark generator tests: encoding structure, record invariants, fact
splits, interleaving, and the dataset file format."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedit.bench import (
    EditRecord,
    WorldConfig,
    fact_groups,
    generate_world,
    holdout_split,
    interleave_by_fact,
    load_dataset,
    save_dataset,
)
from gradedit.errors import ConfigError, DataError


def _tiny_cfg(**kw):
    base = dict(
        num_entities=6,
        num_relations=2,
        num_classes=5,
        feature_dim=12,
        pretrain_per_fact=3,
        records_per_fact=2,
    )
    base.update(kw)
    return WorldConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        _tiny_cfg(num_classes=1)
    with pytest.raises(ConfigError):
        _tiny_cfg(paraphrases_per_fact=0)
    with pytest.raises(ConfigError):
        _tiny_cfg(feature_dim=7)  # < entities + relations
    with pytest.raises(ConfigError):
        _tiny_cfg(train_fraction=1.0)


def test_generation_is_deterministic():
    a = generate_world(_tiny_cfg())
    b = generate_world(_tiny_cfg())
    assert np.array_equal(a.fact_labels, b.fact_labels)
    assert np.array_equal(a.pretrain_x, b.pretrain_x)
    for ra, rb in zip(a.edit_train + a.edit_test, b.edit_train + b.edit_test):
        assert np.array_equal(ra.x_e, rb.x_e)
        assert ra.y_e == rb.y_e
        assert np.array_equal(ra.x_loc, rb.x_loc)
    c = generate_world(_tiny_cfg(seed=1))
    assert not np.array_equal(a.pretrain_x, c.pretrain_x)


def test_encoding_has_one_hot_blocks():
    cfg = _tiny_cfg(noise_scale=0.01)
    world = generate_world(cfg)
    for rec in world.edit_train[:10]:
        e, r = divmod(rec.fact_id, cfg.num_relations)
        # the entity and relation slots should dominate
        assert rec.x_e[e] > 0.9
        assert rec.x_e[cfg.num_entities + r] > 0.9
        others = np.delete(rec.x_e, [e, cfg.num_entities + r])
        assert np.max(np.abs(others)) < 0.1


def test_record_invariants():
    cfg = _tiny_cfg()
    world = generate_world(cfg)
    for rec in world.edit_train + world.edit_test:
        gt = int(world.fact_labels[rec.fact_id])
        assert rec.y_e != gt  # the edit label is a *new* label
        assert 0 <= rec.y_e < cfg.num_classes
        assert len(rec.neighborhood) == cfg.paraphrases_per_fact
        assert np.array_equal(rec.neighborhood[0][0], rec.x_e)
        assert all(y == rec.y_e for _, y in rec.neighborhood)
        # paraphrases are fresh noise draws of the same fact, not copies
        for x, _ in rec.neighborhood[1:]:
            assert not np.array_equal(x, rec.x_e)
        # the locality example comes from a different fact and keeps its
        # ground-truth label
        loc_slots = np.argsort(rec.x_loc)[::-1][:2]
        e, r = divmod(rec.fact_id, cfg.num_relations)
        assert set(loc_slots) != {e, cfg.num_entities + r}
        assert 0 <= rec.y_loc < cfg.num_classes


def test_splits_are_disjoint_by_fact():
    world = generate_world(_tiny_cfg())
    train_facts = {r.fact_id for r in world.edit_train}
    test_facts = {r.fact_id for r in world.edit_test}
    assert train_facts and test_facts
    assert not (train_facts & test_facts)
    assert len(train_facts | test_facts) == world.config.num_facts


def test_pretrain_set_covers_all_facts():
    cfg = _tiny_cfg()
    world = generate_world(cfg)
    assert world.pretrain_x.shape == (cfg.num_facts * cfg.pretrain_per_fact, cfg.feature_dim)
    assert set(world.pretrain_y) <= set(range(cfg.num_classes))


def test_interleave_by_fact_prefix_distinct():
    world = generate_world(_tiny_cfg(records_per_fact=4))
    records = world.edit_train
    mixed = interleave_by_fact(records)
    assert len(mixed) == len(records)
    num_facts = len({r.fact_id for r in records})
    # any window of up to num_facts consecutive records hits distinct facts
    for start in range(0, len(mixed) - num_facts, num_facts):
        window = mixed[start : start + num_facts]
        assert len({r.fact_id for r in window}) == len(window)
    # same multiset of records
    assert sorted(id(r) for r in mixed) == sorted(id(r) for r in records)


def test_interleave_by_fact_empty():
    assert interleave_by_fact([]) == []


def test_fact_groups_cut_the_interleaved_order():
    world = generate_world(_tiny_cfg(records_per_fact=3))
    records = world.edit_test
    order = interleave_by_fact(records)
    for k in (1, 2, 5, len(records)):
        groups = fact_groups(records, k)
        assert len(groups) == len(records) // k
        assert [r for g in groups for r in g] == order[: len(groups) * k]
        assert all(len(g) == k for g in groups)
    for k in (0, len(records) + 1):
        with pytest.raises(ConfigError):
            fact_groups(records, k)


def test_holdout_split_keeps_the_last_tenth():
    records = list(range(25))
    assert holdout_split(records) == (records[:-2], records[-2:])
    assert holdout_split(records[:5]) == (records[:4], records[4:5])


def test_dataset_round_trip(tmp_path):
    world = generate_world(_tiny_cfg())
    path = tmp_path / "dataset.jsonl"
    save_dataset(world, path)
    loaded = load_dataset(path)
    assert loaded.config == world.config
    assert np.array_equal(loaded.fact_labels, world.fact_labels)
    assert np.array_equal(loaded.pretrain_x, world.pretrain_x)
    assert np.array_equal(loaded.pretrain_y, world.pretrain_y)
    assert len(loaded.edit_train) == len(world.edit_train)
    assert len(loaded.edit_test) == len(world.edit_test)
    records = world.edit_train + world.edit_test
    for ra, rb in zip(records, loaded.edit_train + loaded.edit_test):
        assert np.array_equal(ra.x_e, rb.x_e)
        assert ra.y_e == rb.y_e
        assert ra.fact_id == rb.fact_id
        assert np.array_equal(ra.x_loc, rb.x_loc)
        for (xa, ya), (xb, yb) in zip(ra.neighborhood, rb.neighborhood):
            assert np.array_equal(xa, xb) and ya == yb


def test_load_dataset_error_messages_name_lines(tmp_path):
    world = generate_world(_tiny_cfg())
    path = tmp_path / "dataset.jsonl"
    save_dataset(world, path)
    lines = path.read_text().splitlines()
    lines[3] = "{broken"
    path.write_text("\n".join(lines))
    with pytest.raises(DataError, match="line 4"):
        load_dataset(path)


def test_load_dataset_rejects_empty_and_bad_version(tmp_path):
    path = tmp_path / "dataset.jsonl"
    path.write_text("")
    with pytest.raises(DataError):
        load_dataset(path)
    path.write_text('{"format_version": 42}\n')
    with pytest.raises(DataError):
        load_dataset(path)


def test_load_dataset_rejects_unknown_split(tmp_path):
    world = generate_world(_tiny_cfg())
    path = tmp_path / "dataset.jsonl"
    save_dataset(world, path)
    with open(path, "a") as fh:
        fh.write('{"split": "mystery", "x": [0], "y": 0}\n')
    with pytest.raises(DataError, match="unknown split"):
        load_dataset(path)


def _rewrite_dataset(tmp_path, edit):
    world = generate_world(_tiny_cfg())
    path = tmp_path / "dataset.jsonl"
    save_dataset(world, path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    edit(lines)
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    return path


def _first(split):
    return lambda lines: next(obj for obj in lines[1:] if obj["split"] == split)


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: lines[0]["config"].__setitem__("bogus", 1),
        lambda lines: lines[0]["config"].__setitem__("num_classes", 1),
        lambda lines: lines[0].pop("config"),
        lambda lines: _first("pretrain")(lines).__setitem__("y", 5),
        lambda lines: _first("pretrain")(lines).__setitem__("x", [0.0]),
        lambda lines: _first("pretrain")(lines).pop("x"),
        lambda lines: _first("edit_test")(lines).__setitem__("y", 99),
        lambda lines: _first("edit_train")(lines).__setitem__("y_loc", -1),
        lambda lines: _first("edit_train")(lines)["neighborhood"][1].__setitem__("y", 5),
        lambda lines: _first("edit_test")(lines).__setitem__("x_loc", [0.0, 1.0]),
        lambda lines: _first("edit_test")(lines).__setitem__("fact_id", "one"),
    ],
    ids=[
        "unknown_config_key", "invalid_config", "missing_config", "pretrain_label",
        "pretrain_shape", "pretrain_missing_x", "edit_label", "locality_label",
        "neighborhood_label", "locality_shape", "bad_fact_id",
    ],
)
def test_load_dataset_rejects_bad_config_labels_and_shapes(tmp_path, edit):
    with pytest.raises(DataError):
        load_dataset(_rewrite_dataset(tmp_path, edit))


@settings(max_examples=15, deadline=None)
@given(
    entities=st.integers(2, 10),
    relations=st.integers(1, 4),
    classes=st.integers(2, 8),
    seed=st.integers(0, 1000),
)
def test_world_shape_properties(entities, relations, classes, seed):
    cfg = WorldConfig(
        num_entities=entities,
        num_relations=relations,
        num_classes=classes,
        feature_dim=entities + relations + 2,
        pretrain_per_fact=2,
        records_per_fact=1,
        seed=seed,
    )
    world = generate_world(cfg)
    assert len(world.fact_labels) == entities * relations
    n_train_facts = int(round(cfg.num_facts * cfg.train_fraction))
    assert len(world.edit_train) == n_train_facts
    assert len(world.edit_test) == cfg.num_facts - n_train_facts
    for rec in world.edit_train + world.edit_test:
        assert rec.x_e.shape == (cfg.feature_dim,)
