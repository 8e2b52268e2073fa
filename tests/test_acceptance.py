"""Acceptance suite: one test per release criterion, each printing a single
PASS line (failures surface as pytest FAILED lines).

The heavyweight experiment pipeline (benchmark world, base model, trained
editors, baseline comparison, ablation table) runs once per invocation via a
module fixture; the determinism criterion re-runs it from scratch and
compares the generated report files byte for byte.
"""

import json
import time

import numpy as np
import pytest

from gradedit.bench import WorldConfig, generate_world, interleave_by_fact
from gradedit.editor import (
    VariantConfig,
    apply_edit,
    init_editor,
)
from gradedit.evaluation import (
    FtEditor,
    FtKlEditor,
    LearnedEditor,
    drawdown,
    evaluate_editor,
    reports_to_csv,
    reports_to_json,
    run_ablations,
)
from gradedit.mlp import backward_nll, forward, init_mlp
from gradedit.ndops import make_rng
from gradedit.training import (
    TrainConfig,
    group_losses_and_grads,
    pretrain_model,
    train_editor,
)

from oracles import editor_forward, finite_diff_grad, reconstruct_gradient


def _ok(criterion: str) -> None:
    print(f"\n[acceptance] {criterion}: PASS")


# --------------------------------------------------------------------------
# criteria 1-4: exact numerical properties
# --------------------------------------------------------------------------


def test_criterion_1_rank1_factors_equal_dense_gradients():
    """50 random instances: factor outer-product sums reconstruct the dense
    gradient to 1e-9 relative, and dense gradients match central finite
    differences to 1e-5 relative. Must finish in under 30 s."""
    rng = make_rng(101)
    start = time.perf_counter()
    for _ in range(50):
        dims = [int(d) for d in rng.integers(2, 65, size=int(rng.integers(2, 4)))]
        model = init_mlp(dims, rng)
        batch = int(rng.integers(1, 17))
        xs = rng.standard_normal((batch, dims[0]))
        ys = rng.integers(dims[-1], size=batch)
        _, trace = forward(model, xs)
        _, deltas, wgrads = backward_nll(trace, ys)
        for l in range(model.num_layers):
            dense = wgrads[l]
            recon = reconstruct_gradient(deltas[l], trace.inputs[l])
            rel = np.max(np.abs(recon - dense)) / max(np.max(np.abs(dense)), 1e-12)
            assert rel <= 1e-9

        # finite-difference spot check of the dense gradient (mean loss) on
        # random coordinates of a random layer
        l = int(rng.integers(model.num_layers))
        for _ in range(5):
            i = int(rng.integers(model.weights[l].shape[0]))
            j = int(rng.integers(model.weights[l].shape[1]))
            h = 1e-6

            def loss_with(delta):
                w = model.weights[l][i, j]
                model.weights[l][i, j] = w + delta
                _, t = forward(model, xs)
                loss, _, _ = backward_nll(t, ys)
                model.weights[l][i, j] = w
                return loss

            fd = (loss_with(h) - loss_with(-h)) / (2 * h)
            an = wgrads[l][i, j] / batch
            assert abs(fd - an) / max(abs(fd), abs(an), 1e-5) <= 1e-5
    assert time.perf_counter() - start < 30.0
    _ok("criterion 1 (rank-1 gradient identity)")


def test_criterion_2_identity_initialization():
    """Fresh editors are the exact identity on 1000 random inputs, and with
    normalization off and step size equal to the learning rate the one-shot
    edit equals a single SGD step to 1e-12 per weight."""
    model = init_mlp([9, 6, 5], make_rng(7))
    variant = VariantConfig(normalize=False)
    params = init_editor(
        model, list(range(model.num_layers)), 3, variant, make_rng(8)
    )
    rng = make_rng(9)
    worst = 0.0
    for _ in range(1000):
        l = int(rng.integers(model.num_layers))
        m, n = model.layer_shape(l)
        u = rng.standard_normal(m)
        d = rng.standard_normal(n)
        u_t, d_t = editor_forward(params, l, u, d)
        worst = max(worst, np.max(np.abs(u_t - u)), np.max(np.abs(d_t - d)))
    assert worst <= 1e-12

    lr = 0.07
    params = init_editor(
        model, list(range(model.num_layers)), 3, variant, make_rng(8), alpha_init=lr
    )
    pairs = [(rng.standard_normal(9), int(rng.integers(5))) for _ in range(4)]
    edited = apply_edit(model, params, None, pairs)
    xs = np.stack([x for x, _ in pairs])
    ys = np.array([y for _, y in pairs])
    _, trace = forward(model, xs)
    _, _, wgrads = backward_nll(trace, ys)
    for l in range(model.num_layers):
        want = model.weights[l] - lr * wgrads[l]
        assert np.max(np.abs(edited.weights[l] - want)) <= 1e-12
    _ok("criterion 2 (identity initialization / fine-tuning prior)")


def test_criterion_3_meta_gradient_matches_finite_differences(table_normalizer):
    """Structural editor-parameter gradients agree with central finite
    differences to 1e-4 relative on a <=200-parameter editor over 20 random
    edit records, in under 60 s.

    Checked at randomly perturbed parameters: at the exact identity init the
    editor pre-activations sit on the relu kink, where a one-sided
    subgradient and a central difference legitimately disagree."""
    start = time.perf_counter()
    world = generate_world(
        WorldConfig(
            num_entities=4,
            num_relations=2,
            num_classes=3,
            feature_dim=6,
            pretrain_per_fact=10,
            records_per_fact=3,
        )
    )
    model, _ = pretrain_model(world, hidden_dims=(4,), epochs=10)
    rng = make_rng(31)
    params = init_editor(
        model, list(range(model.num_layers)), 1, VariantConfig(), rng
    )
    assert params.num_parameters() <= 200, params.num_parameters()
    params.values = {
        k: np.asarray(np.asarray(v) + 0.05 * rng.standard_normal(np.shape(v)))
        for k, v in params.values.items()
    }
    normalizer = table_normalizer(model, world.edit_train, params)
    records = (world.edit_train + world.edit_test)[:20]
    assert len(records) == 20

    def loss_of(values):
        p = params.copy()
        p.values = {k: np.asarray(v, dtype=np.float64) for k, v in values.items()}
        losses, _ = group_losses_and_grads(
            model, p, normalizer, records, 0.1, make_rng(77), want_grads=False
        )
        return losses.l_total

    _, grads = group_losses_and_grads(
        model, params, normalizer, records, 0.1, make_rng(77)
    )
    fd = finite_diff_grad(loss_of, params.values)
    for key in grads:
        denom = max(np.max(np.abs(fd[key])), np.max(np.abs(grads[key])), 1e-4)
        rel = np.max(np.abs(grads[key] - fd[key])) / denom
        assert rel <= 1e-4, f"{key}: rel err {rel}"
    assert time.perf_counter() - start < 60.0
    _ok("criterion 3 (meta-gradient vs finite differences)")


def test_criterion_4_loss_composition(small_world, small_model, table_normalizer):
    """Under the default config the training objective is exactly
    0.1 * edit loss + locality loss."""
    cfg = TrainConfig()
    assert cfg.c_e == 0.1
    params = init_editor(
        small_model, list(range(small_model.num_layers)), 2, VariantConfig(), make_rng(0)
    )
    normalizer = table_normalizer(small_model, small_world.edit_train[:30], params)
    for rec in small_world.edit_train[:5]:
        losses, _ = group_losses_and_grads(
            small_model, params, normalizer, [rec], cfg.c_e, make_rng(1),
            want_grads=False,
        )
        assert abs(losses.l_total - (0.1 * losses.l_e + losses.l_loc)) <= 1e-12
    _ok("criterion 4 (loss composition, c_e = 0.1)")


# --------------------------------------------------------------------------
# criteria 5-8: toy-scale experiment pipeline (shared fixture)
# --------------------------------------------------------------------------

K5_CONFIG = TrainConfig(
    edits_per_step=5, batch_size=4, max_steps=1000, eval_every=25, patience=8
)
K25_CONFIG = TrainConfig(
    edits_per_step=25, batch_size=1, max_steps=600, eval_every=25, patience=8
)
ABLATION_CONFIG = TrainConfig(max_steps=5000, eval_every=0)
BASELINE_RECORDS = 400


def _per_record_baseline(editor, model, records):
    """Per-record (argmax flipped on x_e, locality KL) pairs at k=1."""
    flipped, kls = [], []
    for rec in records:
        edited = editor.edit(model, [(rec.x_e, rec.y_e)])
        logits, _ = forward(edited, rec.x_e)
        flipped.append(int(np.argmax(logits[0])) == rec.y_e)
        pre, post = forward(model, rec.x_loc)[0], forward(edited, rec.x_loc)[0]
        _, dd_kl = drawdown(pre, post, np.array([rec.y_loc]))
        kls.append(dd_kl)
    return np.array(flipped), np.array(kls)


def _run_pipeline(out_dir):
    """The full toy-scale experiment; everything summarized in `out_dir`'s
    report files plus the returned measurements."""
    world = generate_world(WorldConfig())
    model, base_acc = pretrain_model(world)
    n_val = len(world.edit_train) // 10
    train_recs = world.edit_train[:-n_val]
    val_recs = world.edit_train[-n_val:]

    t0 = time.perf_counter()
    params1, norm1, _ = train_editor(model, train_recs, val_recs, TrainConfig())
    report_k1 = evaluate_editor(
        LearnedEditor(params1, norm1, name="learned@k=1"), model, world.edit_test, 1
    )
    k1_runtime = time.perf_counter() - t0

    reports = [report_k1]
    for cfg, k in ((K5_CONFIG, 5), (K25_CONFIG, 25)):
        pk, nk, _ = train_editor(model, train_recs, val_recs, cfg)
        reports.append(
            evaluate_editor(
                LearnedEditor(pk, nk, name=f"learned@k={k}"), model, world.edit_test, k
            )
        )

    baseline_recs = interleave_by_fact(world.edit_test)[:BASELINE_RECORDS]
    loc_pool = [r.x_loc for r in world.edit_train]
    baselines = {}
    for editor in (
        LearnedEditor(params1, norm1),
        FtEditor(),
        FtKlEditor(loc_pool),
    ):
        flipped, kls = _per_record_baseline(editor, model, baseline_recs)
        baselines[editor.name] = {
            "flipped": int(flipped.sum()),
            "dd_kl_at_matched_reliability": float(np.mean(kls[flipped])),
        }

    ablation_reports = run_ablations(world, model, ABLATION_CONFIG)

    reports_to_csv(reports, out_dir / "report.csv")
    reports_to_json(reports, out_dir / "report.json")
    reports_to_csv(ablation_reports, out_dir / "ablation_report.csv")
    reports_to_json(ablation_reports, out_dir / "ablation_report.json")
    (out_dir / "baseline_report.json").write_text(
        json.dumps(baselines, sort_keys=True)
    )
    return {
        "base_acc": base_acc,
        "reports": {r.name: r for r in reports},
        "k1_runtime": k1_runtime,
        "baselines": baselines,
        "ablations": {r.name: r for r in ablation_reports},
        "files": sorted(p.name for p in out_dir.iterdir()),
        "out_dir": out_dir,
    }


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return _run_pipeline(tmp_path_factory.mktemp("run_a"))


def test_criterion_5_single_edit_effectiveness(pipeline):
    """On the default benchmark world the learned editor at k=1 reaches edit
    success >= 0.90 with accuracy drawdown <= 0.05, trained well within the
    step and 10-minute budgets."""
    report = pipeline["reports"]["learned@k=1"]
    assert pipeline["base_acc"] >= 0.99
    assert report.es >= 0.90, report.es
    assert report.dd_acc <= 0.05, report.dd_acc
    assert pipeline["k1_runtime"] < 600.0
    _ok(
        "criterion 5 (k=1 effectiveness: "
        f"ES={report.es:.3f}, DD_acc={report.dd_acc:.3f})"
    )


def test_criterion_6_baseline_locality_ordering(pipeline):
    """Among edits that flip the argmax on x_e (>= 200 records each), plain
    fine-tuning disturbs locality at least as much as the learned editor,
    and KL-regularized fine-tuning at most as much as plain fine-tuning."""
    b = pipeline["baselines"]
    for name in ("learned", "ft", "ft_kl"):
        assert b[name]["flipped"] >= 200, (name, b[name]["flipped"])
    learned = b["learned"]["dd_kl_at_matched_reliability"]
    ft = b["ft"]["dd_kl_at_matched_reliability"]
    ft_kl = b["ft_kl"]["dd_kl_at_matched_reliability"]
    assert ft >= learned, (ft, learned)
    assert ft_kl <= ft, (ft_kl, ft)
    _ok(
        "criterion 6 (locality ordering: "
        f"learned={learned:.4f} <= ft={ft:.4f}, ft_kl={ft_kl:.4f} <= ft)"
    )


def test_criterion_7_batched_edits(pipeline):
    """Editors trained at k simultaneous edits degrade monotonically in k,
    with edit success at k=5 still at least 0.6."""
    es = {k: pipeline["reports"][f"learned@k={k}"].es for k in (1, 5, 25)}
    assert es[1] >= es[5] >= es[25], es
    assert es[5] >= 0.6, es
    _ok(
        "criterion 7 (batched edits: "
        f"ES k=1 {es[1]:.3f} >= k=5 {es[5]:.3f} >= k=25 {es[25]:.3f})"
    )


def test_criterion_8_ablations(pipeline):
    """Under an equal 5000-step budget and shared seeds the full editor's
    edit success is at least that of the no-normalization and
    no-identity-init variants, and parameter counts order as
    only_smaller < min(only_u, only_delta) < full."""
    ab = pipeline["ablations"]
    assert ab["full"].es >= ab["no_norm"].es, (ab["full"].es, ab["no_norm"].es)
    assert ab["full"].es >= ab["no_id_init"].es, (ab["full"].es, ab["no_id_init"].es)
    smaller = ab["only_smaller"].param_count
    one_sided = min(ab["only_u"].param_count, ab["only_delta"].param_count)
    assert smaller < one_sided < ab["full"].param_count
    _ok(
        "criterion 8 (ablations: full ES "
        f"{ab['full'].es:.3f} >= no_norm {ab['no_norm'].es:.3f}, "
        f"no_id_init {ab['no_id_init'].es:.3f}; params "
        f"{smaller} < {one_sided} < {ab['full'].param_count})"
    )


def test_criterion_9_determinism(pipeline, tmp_path_factory):
    """Repeating the whole pipeline with the same seeds reproduces every
    report file byte for byte."""
    dir_a = pipeline["out_dir"]
    dir_b = tmp_path_factory.mktemp("run_b")
    second = _run_pipeline(dir_b)
    assert pipeline["files"] == second["files"]
    for name in pipeline["files"]:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
    _ok(f"criterion 9 (determinism across reruns: {len(pipeline['files'])} files)")
