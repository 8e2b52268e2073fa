"""Malformed input through the library API: every export that takes arrays
or records rejects a malformed call with a `GradeditError` subclass, never
with numpy's own error or a silent result.

The table runs under pytest and, as `python -O tests/test_inputs.py`, in a
child process whose asserts are stripped: it exits 0 only if every case
raised its error there too.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gradedit
from gradedit import (
    EditRecord,
    FtKlEditor,
    Mlp,
    VariantConfig,
    apply_edit,
    backward_nll,
    clone_with_weights,
    drawdown,
    edit_success,
    finetune_edit,
    finetune_kl_edit,
    fit_normalizer,
    forward,
    init_editor,
    init_mlp,
)
from gradedit.errors import ContractError, DataError, GradeditError, ShapeError
from gradedit.ndops import make_rng

D, H, C = 6, 5, 4  # input width, hidden width, classes


def cases() -> list[tuple[str, object, type[GradeditError]]]:
    """(id, call, the error it must raise) for each malformed call."""
    model = init_mlp([D, H, C], make_rng(0))
    params = init_editor(model, None, 2, VariantConfig(), make_rng(1))
    x = np.linspace(-1.0, 1.0, D)
    loc = [x] * 100
    u, d = {0: np.ones((3, D)), 1: np.ones((3, H))}, {0: np.ones((3, H)), 1: np.ones((3, C))}
    logits, labels = np.zeros((2, C)), np.array([0, 1])
    trace = forward(model, np.stack([x, x]))[1]

    def record(**fields):
        values = dict(x_e=x, y_e=1, neighborhood=[(x, 1)], x_loc=x, y_loc=2, fact_id=0)
        values.update(fields)
        return lambda: EditRecord(**values)

    edit_cases = [
        ("2d_input", [(np.stack([x, x]), 1)], ShapeError),
        ("ragged_inputs", [(x, 1), (x[:-1], 1)], ShapeError),
        ("label_1.7", [(x, 1.7)], DataError),
        ("label_True", [(x, True)], DataError),
        ("label_2.5", [(x, 2.5)], DataError),
        ("bool_among_ints", [(x, 1), (x, True)], DataError),
        ("string_label", [(x, "1")], DataError),
        ("label_above_classes", [(x, C)], DataError),
        ("negative_label", [(x, -1)], DataError),
        ("empty", [], DataError),
        ("bare_pair", (x, 1), DataError),
        ("three_items", [(x, 1, 2)], DataError),
    ]
    editors = {
        "apply_edit": lambda pairs: apply_edit(model, params, None, pairs),
        "finetune_edit": lambda pairs: finetune_edit(model, pairs),
        "finetune_kl_edit": lambda pairs: finetune_kl_edit(model, pairs, loc),
    }
    table = [(f"{name}-{case}", lambda e=edit, p=pairs: e(p), error)
             for name, edit in editors.items() for case, pairs, error in edit_cases]
    table += [
        ("finetune_kl_edit-narrow_locality_inputs",
         lambda: finetune_kl_edit(model, [(x, 1)], [x[:-1]] * 100), ShapeError),
        ("finetune_kl_edit-ragged_locality_inputs",
         lambda: finetune_kl_edit(model, [(x, 1)], [x] * 99 + [x[:-1]]), ShapeError),
        ("FtKlEditor-ragged_pool", lambda: FtKlEditor([x, x[:-1]]), ShapeError),
        ("fit_normalizer-narrow_u", lambda: fit_normalizer(params, {**u, 0: u[0][:, 1:]}, d),
         ShapeError),
        ("fit_normalizer-narrow_delta", lambda: fit_normalizer(params, u, {**d, 1: d[1][:, 1:]}),
         ShapeError),
        ("fit_normalizer-unequal_rows", lambda: fit_normalizer(params, {**u, 1: u[1][:2]}, d),
         ShapeError),
        ("drawdown-pre_post_shapes",
         lambda: drawdown(logits, np.zeros((3, C)), labels), ShapeError),
        ("drawdown-label_shape", lambda: drawdown(logits, logits, np.array([0, 1, 2])),
         ShapeError),
        ("edit_success-counts", lambda: edit_success(logits, labels, [1, 2]), ShapeError),
        ("edit_success-label_shape",
         lambda: edit_success(logits[:1], labels, [2]), ShapeError),
        ("forward-narrow_batch", lambda: forward(model, np.ones((2, D - 1))), ShapeError),
        ("forward-4d_batch", lambda: forward(model, np.ones((1, 1, 2, D))), ShapeError),
        ("backward_nll-label_count", lambda: backward_nll(trace, [0]), ShapeError),
        ("backward_nll-label_above_classes", lambda: backward_nll(trace, [0, C]), DataError),
        ("clone_with_weights-shape",
         lambda: clone_with_weights(model, {0: np.ones((H, D + 1))}), ShapeError),
        ("clone_with_weights-layer", lambda: clone_with_weights(model, {2: np.ones((C, H))}),
         ShapeError),
        ("clone_with_weights-float32",
         lambda: clone_with_weights(model, {0: np.ones((H, D), dtype=np.float32)}),
         ContractError),
        ("Mlp-bias_shape", lambda: Mlp([np.ones((H, D))], [np.ones(D)]), ShapeError),
        ("Mlp-layer_dims", lambda: Mlp([np.ones((H, D)), np.ones((C, D))],
                                       [np.ones(H), np.ones(C)]), ShapeError),
        ("EditRecord-y_e_1.7", record(y_e=1.7, neighborhood=[(x, 1.7)]), DataError),
        ("EditRecord-y_e_True", record(y_e=True, neighborhood=[(x, True)]), DataError),
        ("EditRecord-y_loc_float", record(y_loc=2.0), DataError),
        ("EditRecord-fact_id_float", record(fact_id=0.0), DataError),
        ("EditRecord-fact_id_bool", record(fact_id=False), DataError),
    ]
    return table


CASES = cases()


@pytest.mark.parametrize("call, error", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_malformed_call_raises_its_error(call, error):
    with pytest.raises(error):
        call()


def test_the_table_covers_every_array_export_and_survives_python_O():
    covered = {case_id.split("-")[0] for case_id, _, _ in CASES}
    assert covered >= {"apply_edit", "finetune_edit", "finetune_kl_edit", "fit_normalizer",
                       "drawdown", "edit_success", "forward", "backward_nll",
                       "clone_with_weights", "Mlp", "EditRecord"}
    assert covered <= set(dir(gradedit))
    src = str(Path(gradedit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", __file__], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split() == ["asserts_stripped", f"{len(CASES)}_raised"]


def main() -> int:
    """Run every case; print one line per case that did not raise its error."""
    failed = 0
    for case_id, call, error in CASES:
        try:
            call()
        except error:
            continue
        except Exception as e:  # a bare numpy or Python error is a failure too
            print(f"{case_id}: raised {e!r}, want {error.__name__}")
        else:
            print(f"{case_id}: raised nothing, want {error.__name__}")
        failed += 1
    print("asserts_stripped" if not __debug__ else "asserts_kept")
    print(f"{len(CASES) - failed}_raised")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
