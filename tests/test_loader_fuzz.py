"""Fuzz tests of the four file readers: a valid dataset, model, editor or
edit input file with one corruption (a type swap, a NaN or an infinity, an
integer too large for a float, a dropped or an extra key, a list grown or
cut short, or the text truncated) either loads or raises a `GradeditError`;
any other exception is a defect of the reader. A string, bool or null in
place of any number of a valid file, or an integer too large for a float in
place of a float, always raises DataError."""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gradedit.bench import WorldConfig, generate_world, load_dataset, save_dataset
from gradedit.cli import _load_edit_inputs
from gradedit.editor import VariantConfig, init_editor, load_editor, save_editor
from gradedit.errors import DataError, GradeditError
from gradedit.mlp import init_mlp, load_model, save_model
from gradedit.ndops import make_rng

EXAMPLES = 200

# Values swapped in for any node of a payload.
ODD_VALUES = st.sampled_from([
    None, True, False, 0, -1, 3, 1.5, 10**30, 10**400, float("nan"), float("inf"),
    float("-inf"),
    "", "x", "1", [], [None], [[1.0]], {}, {"x": 1},
])


# Values that are not JSON numbers, swapped in for a number; and an integer
# too large for a float, swapped in only for a float.
HUGE = 10**400
NON_NUMBERS = st.sampled_from([None, True, False, "", "1", "0.5", HUGE])


def _place(data, node):
    """A drawn place below the top of a JSON value, as a tuple of keys and
    indices. The walk goes down one drawn child at a time and stops at a
    level with n children with chance 1/(n+1), so a header field is drawn
    about as often as a whole weight matrix, not 1/size as often."""
    path = ()
    while isinstance(node, (dict, list)) and node:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        i = data.draw(st.integers(-1 if path else 0, len(keys) - 1))
        if i < 0:
            break
        path, node = path + (keys[i],), node[keys[i]]
    return path


def _corrupt(data, payload):
    """A copy of the JSON value `payload` with one corruption at a drawn
    place."""
    root = [copy.deepcopy(payload)]
    path = (0,) + _place(data, payload)
    parent = root
    for key in path[:-1]:
        parent = parent[key]
    key, node = path[-1], parent[path[-1]]
    op = data.draw(st.sampled_from(["swap", "drop", "extra", "shape"]))
    if op == "swap" or (op == "drop" and parent is root):
        parent[key] = data.draw(ODD_VALUES)
    elif op == "drop":
        del parent[key]
    elif op == "extra" and isinstance(node, dict):
        node["extra"] = data.draw(ODD_VALUES)
    elif op == "extra" and isinstance(node, list):
        node.append(copy.deepcopy(node[-1]) if node else data.draw(ODD_VALUES))
    elif op == "shape" and isinstance(node, list) and node:
        del node[data.draw(st.integers(0, len(node) - 1)):]
    else:
        parent[key] = [node, node]  # a scalar or an object where a list may be wanted
    return root[0]


def _text(data, lines):
    """The JSON lines of `lines`, cut short one time in eight."""
    text = "\n".join(json.dumps(line) for line in lines)
    if data.draw(st.integers(0, 7)) == 0:
        text = text[: data.draw(st.integers(0, len(text)))]
    return text


def _number_places(node, types, path=()):
    """The places of every value of one of `types` below a JSON value."""
    if isinstance(node, (dict, list)):
        children = node.items() if isinstance(node, dict) else enumerate(node)
        return [p for key, child in children
                for p in _number_places(child, types, path + (key,))]
    return [path] if type(node) in types else []


def _load_edit_input(path):
    """`gradedit edit`'s reader of edit inputs, for the fuzzed files' model."""
    return _load_edit_inputs(path, init_mlp([6, 4, 3], make_rng(0)))


LOADERS = {"dataset.jsonl": load_dataset, "model.json": load_model,
           "editor.json": load_editor, "edit.json": _load_edit_input}


def _survives(load, path):
    try:
        load(path)
    except GradeditError:
        pass


FUZZ = settings(max_examples=EXAMPLES, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@pytest.fixture(scope="module")
def files(tmp_path_factory, table_normalizer):
    """Valid files, each parsed to its JSON lines, and a scratch file path."""
    root = tmp_path_factory.mktemp("fuzz")
    world = generate_world(WorldConfig(
        num_entities=3, num_relations=2, num_classes=3, feature_dim=6,
        paraphrases_per_fact=2, pretrain_per_fact=1, records_per_fact=1,
    ))
    model = init_mlp([6, 4, 3], make_rng(0))
    params = init_editor(model, [0, 1], 2, VariantConfig(), make_rng(1))
    save_dataset(world, root / "dataset.jsonl")
    save_model(model, root / "model.json")
    save_editor(params, table_normalizer(model, world.edit_train, params), root / "editor.json")
    (root / "edit.json").write_text(json.dumps(
        {"edits": [{"x": rec.x_e.tolist(), "y": rec.y_e} for rec in world.edit_test[:2]]}))
    lines = {name: [json.loads(line) for line in (root / name).read_text().splitlines()]
             for name in LOADERS}
    return lines, root / "corrupt"


def test_valid_files_load(files):
    lines, path = files
    for name, load in LOADERS.items():
        path.write_text("\n".join(json.dumps(line) for line in lines[name]))
        load(path)


def test_text_that_is_not_utf8_is_data_error(files):
    _, path = files
    path.write_bytes(b"\xff\xfe{}")
    for load in LOADERS.values():
        with pytest.raises(DataError):
            load(path)


@FUZZ
@given(data=st.data())
def test_load_dataset_survives_corruption(files, data):
    lines, path = files
    lines = list(lines["dataset.jsonl"])
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i] = _corrupt(data, lines[i])
    path.write_text(_text(data, lines))
    _survives(load_dataset, path)


@FUZZ
@given(data=st.data())
def test_load_model_survives_corruption(files, data):
    lines, path = files
    path.write_text(_text(data, [_corrupt(data, lines["model.json"][0])]))
    _survives(load_model, path)


@FUZZ
@given(data=st.data())
def test_load_editor_survives_corruption(files, data):
    lines, path = files
    path.write_text(_text(data, [_corrupt(data, lines["editor.json"][0])]))
    _survives(load_editor, path)



@FUZZ
@given(data=st.data())
def test_load_edit_inputs_survives_corruption(files, data):
    lines, path = files
    path.write_text(_text(data, [_corrupt(data, lines["edit.json"][0])]))
    _survives(_load_edit_input, path)


@pytest.mark.parametrize("name", list(LOADERS))
@FUZZ
@given(data=st.data())
def test_non_number_in_place_of_a_number_is_data_error(files, name, data):
    lines, path = files
    lines = copy.deepcopy(lines[name])
    line = lines[data.draw(st.integers(0, len(lines) - 1))]
    value = data.draw(NON_NUMBERS)
    place = data.draw(st.sampled_from(
        _number_places(line, (float,) if value is HUGE else (int, float))))
    parent = line
    for key in place[:-1]:
        parent = parent[key]
    parent[place[-1]] = value
    path.write_text("\n".join(json.dumps(line) for line in lines))
    with pytest.raises(DataError):
        LOADERS[name](path)
