"""Output checks computed independently of the program under test.

Everything here works on plain numpy arrays (weight lists, logits, losses)
and imports nothing from `gradedit`, so a change to the package cannot change
what the checks consider correct. Each check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

Weights = Sequence[np.ndarray]


def ref_logits(weights: Weights, biases: Weights, x: np.ndarray) -> np.ndarray:
    """Relu MLP on raw weight arrays: z = h W^T + b, relu between layers."""
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    for l, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w.T + b
        if l < len(weights) - 1:
            h = np.maximum(h, 0.0)
    return h


def ref_kl_rows(p_logits: np.ndarray, q_logits: np.ndarray) -> np.ndarray:
    """Exact KL(softmax(p) || softmax(q)) per row."""

    def log_softmax(z: np.ndarray) -> np.ndarray:
        m = z.max(axis=1, keepdims=True)
        return z - (m + np.log(np.exp(z - m).sum(axis=1, keepdims=True)))

    lp, lq = log_softmax(p_logits), log_softmax(q_logits)
    return (np.exp(lp) * (lp - lq)).sum(axis=1)


def _close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def check_group_metrics(
    pre: tuple[Weights, Weights],
    post: tuple[Weights, Weights],
    neighborhoods: Sequence[tuple[np.ndarray, np.ndarray]],
    loc_x: np.ndarray,
    loc_y: np.ndarray,
    reported_es: Sequence[float],
    reported_dd_acc: float,
    reported_dd_kl: float,
) -> list[str]:
    """Recompute one group's per-record ES and its drawdown (accuracy drop and
    mean exact KL at the locality inputs) and compare with the reported ones."""
    problems = []
    if len(reported_es) != len(neighborhoods):
        return [f"{len(reported_es)} ES values for {len(neighborhoods)} records"]
    for i, ((xs, ys), es) in enumerate(zip(neighborhoods, reported_es)):
        ref = float(np.mean(np.argmax(ref_logits(*post, xs), axis=1) == ys))
        if not _close(ref, es):
            problems.append(f"record {i}: reported ES {es!r}, reference {ref!r}")
    pre_logits = ref_logits(*pre, loc_x)
    post_logits = ref_logits(*post, loc_x)
    acc_pre = float(np.mean(np.argmax(pre_logits, axis=1) == loc_y))
    acc_post = float(np.mean(np.argmax(post_logits, axis=1) == loc_y))
    if not _close(acc_pre - acc_post, reported_dd_acc):
        problems.append(f"dd_acc {reported_dd_acc!r}, reference {acc_pre - acc_post!r}")
    kl = float(np.mean(ref_kl_rows(pre_logits, post_logits)))
    if not _close(kl, reported_dd_kl):
        problems.append(f"dd_kl {reported_dd_kl!r}, reference {kl!r}")
    return problems


def check_low_rank(
    pre: tuple[Weights, Weights],
    post: tuple[Weights, Weights],
    editable: Sequence[int],
    k: int,
    tol: float = 1e-9,
) -> list[str]:
    """An edit of k pairs changes each editable weight matrix by rank <= k
    (singular values beyond the k-th at most `tol` of the largest) and changes
    no bias and no other layer."""
    problems = []
    (w0, b0), (w1, b1) = pre, post
    for l in range(len(w0)):
        if not np.array_equal(b0[l], b1[l]):
            problems.append(f"layer {l}: bias changed")
        if l not in editable:
            if not np.array_equal(w0[l], w1[l]):
                problems.append(f"layer {l}: non-editable weights changed")
            continue
        s = np.linalg.svd(w1[l] - w0[l], compute_uv=False)
        if s.size > k and s[0] > 0 and s[k] > tol * s[0]:
            problems.append(
                f"layer {l}: singular value {k + 1} is {s[k] / s[0]:.3g} of the largest"
            )
    return problems


def check_identical(
    before: tuple[Weights, Weights], after: tuple[Weights, Weights]
) -> list[str]:
    """The input model is bit-identical after an edit."""
    return [
        f"input model {kind} {l} changed"
        for kind, xs, ys in (("weights", before[0], after[0]), ("bias", before[1], after[1]))
        for l, (x, y) in enumerate(zip(xs, ys))
        if not np.array_equal(x, y)
    ]


def check_edit_inputs_es(pre_es: float, post_es: float) -> list[str]:
    """Edits make the edit inputs more often predicted as their new labels."""
    if post_es > pre_es:
        return []
    return [f"post-edit ES {post_es!r} does not exceed pre-edit ES {pre_es!r} at the edit inputs"]


def check_directional_derivative(
    loss_plus: float, loss_minus: float, h: float, analytic: float, scale: float,
    tol: float = 1e-5,
) -> list[str]:
    """The central difference (L(θ+hv) - L(θ-hv)) / 2h matches the analytic
    directional derivative <∇L, v> to `tol` relative to `scale` = |∇L|·|v|.

    Relative to |<∇L, v>| alone the check would be ill-conditioned: along a
    random direction in many dimensions <∇L, v> can be close to zero."""
    fd = (loss_plus - loss_minus) / (2.0 * h)
    err = abs(fd - analytic) / max(abs(fd), scale, 1e-300)
    if err <= tol:
        return []
    return [f"directional derivative: finite difference {fd!r}, structural {analytic!r} (rel {err:.3g})"]


def check_training(
    val_trained: float, val_untrained: float | None, log: Sequence[dict], steps: int
) -> list[str]:
    """Meta-training beats the identity-init editor on held-out records
    (skipped when `val_untrained` is None), and the log has one finite entry
    per requested step."""
    problems = []
    if val_untrained is not None and not val_trained < val_untrained:
        problems.append(f"val_loss {val_trained!r} not below untrained {val_untrained!r}")
    if len(log) != steps:
        problems.append(f"train log has {len(log)} entries, expected {steps}")
    for entry in log:
        if not all(np.isfinite(v) for v in entry.values()):
            problems.append(f"non-finite train log entry {entry}")
            break
    return problems


def check_cli_edit(
    exit_code: int,
    saved: tuple[Weights, Weights],
    expected: tuple[Weights, Weights],
    argmax_post: Sequence[int],
    edit_xs: np.ndarray,
) -> list[str]:
    """`gradedit edit` exits 0, saves exactly the in-process edit, and reports
    argmax predictions that the reference forward reproduces."""
    if exit_code != 0:
        return [f"gradedit edit exited {exit_code}"]
    problems = [
        f"saved edited {kind} {l} differs from the in-process edit"
        for kind, xs, ys in (("weights", saved[0], expected[0]), ("bias", saved[1], expected[1]))
        for l, (x, y) in enumerate(zip(xs, ys))
        if x.shape != y.shape or not np.array_equal(x, y)
    ]
    ref = np.argmax(ref_logits(*expected, edit_xs), axis=1).tolist()
    if list(argmax_post) != ref:
        problems.append(f"argmax_post {list(argmax_post)} != reference {ref}")
    return problems
