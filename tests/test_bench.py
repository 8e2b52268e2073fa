"""Benchmark generator tests: encoding structure, record invariants, fact
splits, interleaving, and the dataset file format."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedit.bench import (
    MAX_CLASSES,
    MAX_WORLD_FLOATS,
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
    # a locality input comes from another fact, so a world needs two
    with pytest.raises(ConfigError, match="2 facts"):
        _tiny_cfg(num_entities=1, num_relations=1)
    _tiny_cfg(num_entities=2, num_relations=1)
    for name in ("num_entities", "num_relations", "num_classes", "feature_dim",
                 "paraphrases_per_fact", "pretrain_per_fact", "records_per_fact", "seed"):
        for bad in (-1, 2.0, True, "3", None):
            with pytest.raises(ConfigError, match=name):
                _tiny_cfg(**{name: bad})
    for name in ("noise_scale", "train_fraction"):
        for bad in (-1.0, float("nan"), float("inf"), True, "0.5", None):
            with pytest.raises(ConfigError, match=name):
                _tiny_cfg(**{name: bad})


def test_config_bounds_the_world_size():
    # 2**12 facts of 2**14 inputs, 1 pretrain example and 1 record of 2
    # paraphrases each: 4 inputs per fact, exactly the bound
    at_bound = dict(num_entities=2**12, num_relations=1, feature_dim=2**14,
                    paraphrases_per_fact=2, pretrain_per_fact=1, records_per_fact=1)
    assert 2**12 * 2**14 * (1 + 1 * (2 + 1)) == MAX_WORLD_FLOATS
    WorldConfig(**at_bound)
    WorldConfig(num_classes=MAX_CLASSES)
    for bad in ({**at_bound, "feature_dim": 2**14 + 1}, {"feature_dim": 10**30},
                {"num_entities": 10**8, "num_relations": 1, "feature_dim": 10**8 + 1},
                {"records_per_fact": 10**30}, {"num_classes": MAX_CLASSES + 1},
                {"num_classes": 10**30}):
        with pytest.raises(ConfigError):
            WorldConfig(**bad)


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


def _encode_fact(cfg, fact_id, rng):
    """One fact's input, one noise draw per row: the encoder that the
    many-row `bench._encode_facts` replaced."""
    e, r = divmod(fact_id, cfg.num_relations)
    x = cfg.noise_scale * rng.standard_normal(cfg.feature_dim)
    x[e] += 1.0
    x[cfg.num_entities + r] += 1.0
    return x


def _reference_world(cfg):
    """`generate_world`'s arrays and records as its per-row loops built them:
    (pretrain_x, pretrain_y, [(x_e, y_e, neighborhood xs, x_loc, y_loc,
    fact_id) per edit_train then edit_test record])."""
    rng = np.random.default_rng(cfg.seed)
    labels = np.random.default_rng(cfg.seed ^ 0x5EED).integers(cfg.num_classes,
                                                               size=cfg.num_facts)
    xs = [_encode_fact(cfg, f, rng) for f in range(cfg.num_facts)
          for _ in range(cfg.pretrain_per_fact)]
    ys = [int(labels[f]) for f in range(cfg.num_facts) for _ in range(cfg.pretrain_per_fact)]
    order = rng.permutation(cfg.num_facts)
    records = []
    for f in order.tolist():
        for _ in range(cfg.records_per_fact):
            gt = int(labels[f])
            y_e = int(rng.integers(cfg.num_classes - 1))
            y_e += y_e >= gt
            nb = [_encode_fact(cfg, f, rng) for _ in range(cfg.paraphrases_per_fact)]
            loc = int(rng.integers(cfg.num_facts - 1))
            loc += loc >= f
            records.append((nb[0], y_e, nb, _encode_fact(cfg, loc, rng), int(labels[loc]), f))
    return np.stack(xs), np.array(ys), records


@pytest.mark.parametrize("cfg", [_tiny_cfg(), WorldConfig(records_per_fact=3, seed=4),
                                 _tiny_cfg(paraphrases_per_fact=1, noise_scale=0.0)],
                         ids=["tiny", "default_shape", "one_paraphrase_no_noise"])
def test_world_matches_per_row_reference(cfg):
    world = generate_world(cfg)
    ref_x, ref_y, ref_records = _reference_world(cfg)
    assert np.array_equal(world.pretrain_x, ref_x)
    assert np.array_equal(world.pretrain_y, ref_y)
    got = world.edit_train + world.edit_test
    assert len(got) == len(ref_records)
    for rec, (x_e, y_e, nb, x_loc, y_loc, fact_id) in zip(got, ref_records):
        assert (rec.y_e, rec.y_loc, rec.fact_id) == (y_e, y_loc, fact_id)
        assert np.array_equal(rec.x_e, x_e) and np.array_equal(rec.x_loc, x_loc)
        assert len(rec.neighborhood) == len(nb)
        for (x, _), want in zip(rec.neighborhood, nb):
            assert np.array_equal(x, want)


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


@pytest.mark.parametrize(
    "defect",
    [
        lambda rec: {"neighborhood": []},
        lambda rec: {"neighborhood": rec.neighborhood[1:]},
        lambda rec: {"neighborhood": [rec.neighborhood[0],
                                      (rec.neighborhood[1][0], (rec.y_e + 1) % 5),
                                      *rec.neighborhood[2:]]},
        lambda rec: {"x_loc": None},
        lambda rec: {"x_e": None},
    ],
    ids=["empty_neighborhood", "first_pair_not_edit_pair", "paraphrase_label_other_class",
         "no_x_loc", "no_x_e"],
)
def test_edit_record_checks_its_invariant_when_built(defect):
    # the paraphrase's other label is a valid class of the 5: only the
    # record's own check rejects it
    rec = generate_world(_tiny_cfg()).edit_train[0]
    dataclasses.replace(rec)  # the record as generated builds
    with pytest.raises(DataError):
        dataclasses.replace(rec, **defect(rec))


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


def test_load_dataset_names_the_line_of_a_record_that_breaks_its_invariant(tmp_path):
    path = _rewrite_dataset(tmp_path, _relabel_paraphrase)
    lines = path.read_text().splitlines()
    lineno = 1 + next(i for i, line in enumerate(lines) if '"edit_train"' in line)
    with pytest.raises(DataError, match=f"line {lineno}: every neighborhood label"):
        load_dataset(path)


def test_load_dataset_rejects_empty_and_bad_version(tmp_path):
    path = tmp_path / "dataset.jsonl"
    path.write_text("")
    with pytest.raises(DataError):
        load_dataset(path)
    path.write_text('{"format_version": 42}\n')
    with pytest.raises(DataError):
        load_dataset(path)
    path.write_bytes(b'\xff{"format_version": 1}\n')  # not UTF-8
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


def _huge_feature_dim_header_only(lines):
    """A header whose inputs would not fit in memory, and no lines to read:
    only the world-size bound rejects it."""
    lines[0]["config"]["feature_dim"] = 10**30
    del lines[1:]


def _relabel_paraphrase(lines):
    """Give the first train record's second paraphrase another valid class."""
    rec = _first("edit_train")(lines)
    rec["neighborhood"][1]["y"] = (rec["y"] + 1) % lines[0]["config"]["num_classes"]


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
        _relabel_paraphrase,
        lambda lines: _first("edit_test")(lines)["neighborhood"].pop(0),
        lambda lines: _first("edit_test")(lines).__setitem__("x_loc", [0.0, 1.0]),
        lambda lines: _first("edit_test")(lines).__setitem__("fact_id", "one"),
        lambda lines: _first("edit_test")(lines).__setitem__("y", float("inf")),
        lambda lines: lines[0]["config"].__setitem__("records_per_fact", 1.5),
        _huge_feature_dim_header_only,
        lambda lines: lines[0]["config"].__setitem__("num_classes", 10**30),
        lambda lines: lines[0]["fact_labels"].pop(),
        lambda lines: lines[0]["fact_labels"].__setitem__(0, 5),
        lambda lines: lines[0]["fact_labels"].__setitem__(0, float("nan")),
        lambda lines: lines[0]["fact_labels"].__setitem__(0, 1.5),
        lambda lines: lines.__setitem__(1, [lines[1]]),
        # integer fields: int() would truncate 2.7 to 2 and accept "1" and true
        lambda lines: _first("pretrain")(lines).__setitem__("y", 2.7),
        lambda lines: _first("pretrain")(lines).__setitem__("y", "1"),
        lambda lines: _first("edit_test")(lines).__setitem__("y", True),
        lambda lines: _first("edit_train")(lines).__setitem__("y_loc", 1.0),
        lambda lines: _first("edit_train")(lines)["neighborhood"][1].__setitem__("y", 2.0),
        lambda lines: _first("edit_test")(lines).__setitem__("fact_id", 3.0),
        # every number is a JSON number: np.array would read true as 1 and
        # "1" as 1.0, and a 400-digit integer overflows a float
        lambda lines: lines[0]["fact_labels"].__setitem__(0, True),
        lambda lines: lines[0].__setitem__("format_version", True),
        lambda lines: _first("pretrain")(lines)["x"].__setitem__(0, "1"),
        lambda lines: _first("pretrain")(lines)["x"].__setitem__(0, True),
        lambda lines: _first("edit_train")(lines)["x_loc"].__setitem__(0, None),
        lambda lines: _first("edit_test")(lines)["x"].__setitem__(0, 10**400),
    ],
    ids=[
        "unknown_config_key", "invalid_config", "missing_config", "pretrain_label",
        "pretrain_shape", "pretrain_missing_x", "edit_label", "locality_label",
        "neighborhood_label", "neighborhood_label_other_class",
        "neighborhood_without_edit_pair", "locality_shape", "bad_fact_id", "infinite_label",
        "fractional_count", "huge_feature_dim", "huge_class_count", "short_fact_labels",
        "fact_label_outside_classes",
        "nan_fact_label", "fractional_fact_label", "line_not_an_object",
        "float_label", "string_label", "bool_label", "whole_float_locality_label",
        "whole_float_neighborhood_label", "float_fact_id", "bool_fact_label",
        "bool_format_version", "string_input_entry", "bool_input_entry",
        "null_locality_entry", "huge_input_entry",
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
