"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "gradedit").glob("*.py"))
# the package runs on the standard library and numpy alone; `random` is left
# out, since every draw must come from a seeded `ndops.make_rng` generator
ALLOWED_MODULES = (sys.stdlib_module_names - {"random"}) | {"numpy"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_package_has_no_assert_statements(path):
    # `python -O` strips asserts, so an invariant resting on one vanishes
    # there; every check must raise an error of its own
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_package_imports_only_the_standard_library_and_numpy(path):
    outside = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not `from .x`
            modules = [node.module]
        else:
            continue
        outside += [(m, node.lineno) for m in modules if m.split(".")[0] not in ALLOWED_MODULES]
    assert outside == [], f"{path.name} imports {outside}"


def _dotted(node):
    """`a.b.c` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_package_builds_generators_only_in_make_rng(path):
    # a generator built or drawn from anywhere else (np.random.default_rng,
    # np.random.rand, ...) would escape the seeded, byte-deterministic stream
    tree = _tree(path)
    numpy_names = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "numpy"}
    random_prefixes = {f"{name}.random." for name in numpy_names}
    in_make_rng = set()
    if path.name == "ndops.py":
        make_rng = next(node for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name == "make_rng")
        in_make_rng = {id(node) for node in ast.walk(make_rng)}
    found, allowed = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.random"):
            found.append((node.module, node.lineno))
        elif isinstance(node, ast.Import):
            found += [(a.name, node.lineno) for a in node.names
                      if a.name.startswith("numpy.random")]
        elif isinstance(node, ast.Call):
            name = _dotted(node.func) or ""
            if any(name.startswith(prefix) for prefix in random_prefixes):
                (allowed if id(node) in in_make_rng else found).append((name, node.lineno))
    assert found == [], f"{path.name} builds or draws from a generator at {found}"
    if path.name == "ndops.py":  # the check sees make_rng's own generator
        assert [name for name, _ in allowed] == ["np.random.Generator", "np.random.PCG64"]


def _subtracts_one_from_a_subscript(node):
    """`x[...] -= 1`: the one-hot subtraction of the NLL logit gradient."""
    return (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub)
            and isinstance(node.target, ast.Subscript)
            and isinstance(node.value, ast.Constant) and node.value.value == 1)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_package_forms_the_nll_gradient_only_in_nll_grad(path):
    # softmax - onehot is formed once, by mlp.nll_grad; every edit loss and
    # fine-tuning step takes it from there rather than keeping a copy
    tree = _tree(path)
    in_nll_grad = set()
    if path.name == "mlp.py":
        nll_grad = next(node for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name == "nll_grad")
        in_nll_grad = {id(node) for node in ast.walk(nll_grad)}
    found, allowed = [], []
    for node in ast.walk(tree):
        if _subtracts_one_from_a_subscript(node):
            (allowed if id(node) in in_nll_grad else found).append(node.lineno)
    assert found == [], f"{path.name} subtracts a one-hot on lines {found}"
    if path.name == "mlp.py":  # the check sees nll_grad's own subtraction
        assert len(allowed) == 1


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_package_reverse_passes_read_their_producer_from_the_trace(path):
    # a trace holds the model (and an edited trace the editor) that made it,
    # so a function that takes a trace and a model or editor besides could
    # be handed a pair that do not match
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            names = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
            if "trace" in names and names & {"model", "params"}:
                found.append((node.name, node.lineno))
    assert found == [], f"{path.name} takes a trace with its producer in {found}"


def test_sources_are_found():
    assert "cli.py" in {p.name for p in SOURCES}


def _functions_where(predicate):
    """(file, innermost function) of every node of the package that matches
    `predicate`; a method counts as `Class.method`."""
    found = []

    def visit(node, where, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if isinstance(node, ast.ClassDef) else child.name
                visit(child, inner, path)
            else:
                if predicate(child):
                    found.append((path.name, where))
                visit(child, where, path)

    for path in SOURCES:
        visit(_tree(path), None, path)
    return found


def _calls(name):
    return lambda node: (isinstance(node, ast.Call)
                         and (_dotted(node.func) or "").rsplit(".", 1)[-1] == name)


def test_package_forms_an_edited_weight_only_in_edited_weight():
    # a dense outer product D^T U is a dense gradient in `backward`, the one
    # routine that forms them, fine-tuning's too, or W~ = W - alpha D~^T U~ in
    # `mlp.edited_weight`, which only the first read of a factored model's
    # weights calls: editing and evaluation never form W~ themselves
    assert sorted(set(_functions_where(_calls("outer_sum")))) == [
        ("mlp.py", "backward"), ("mlp.py", "edited_weight")]
    assert _functions_where(_calls("edited_weight")) == [("mlp.py", "Mlp.weights")]


def test_package_starts_a_reverse_pass_only_in_mlp_and_backprop_edit():
    # every NLL factor pass is `mlp.nll_factors`, every dense gradient comes
    # from `mlp.backward`, and meta-training's pass adds the editor's
    # gradients: no module writes a reverse pass of its own
    assert sorted(_functions_where(_calls("backward_factors"))) == [
        ("editor.py", "backprop_edit"), ("mlp.py", "backward"), ("mlp.py", "nll_factors")]


def _subtracts_a_scaled_product(node):
    """`z -= a * (p @ q)` or `z - a * (p @ q)`, reshaped or not: the form of an
    edited layer's rank-k term alpha (x U~^T) D~."""
    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub):
        term = node.value
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        term = node.right
    else:
        return False
    return (isinstance(term, ast.BinOp) and isinstance(term.op, ast.Mult)
            and any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult)
                    for n in ast.walk(term)))


def test_package_forms_the_rank_k_term_only_in_subtract_rank_k():
    # `forward` scores every factored model, meta-training's stacked edits
    # too, by one formula; `backward_factors` takes its transpose
    assert sorted(_functions_where(_subtracts_a_scaled_product)) == [
        ("mlp.py", "backward_factors"), ("mlp.py", "subtract_rank_k")]
    assert _functions_where(_calls("subtract_rank_k")) == [("mlp.py", "forward")]


def _loops_over_layers(node):
    """A `for` loop or comprehension over `range(...num_layers...)`."""
    if not isinstance(node, (ast.For, ast.comprehension)):
        return False
    it = node.iter
    return (isinstance(it, ast.Call) and _dotted(it.func) == "range"
            and any((_dotted(n) or "").endswith("num_layers")
                    for arg in it.args for n in ast.walk(arg)))


def test_package_walks_a_models_layers_only_in_forward_and_backward_factors():
    # one layer walk each way carries the dense, factored and stacked-edit
    # models alike; pretraining's walk only lays out its parameter tree
    assert sorted(_functions_where(_loops_over_layers)) == [
        ("mlp.py", "backward_factors"), ("mlp.py", "forward"),
        ("training.py", "pretrain_model"), ("training.py", "pretrain_model")]
