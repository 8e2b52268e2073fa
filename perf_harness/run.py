"""Performance and quality benchmark for gradedit: one workload per process.

    python3 perf_harness/run.py --workload narrow_k1 --seed 0 --seconds 45 --trace 0

Run from the repository root; `gradedit` is imported from `src/` next to this
directory and driven only through its public functions. A run sets up
(generate the world, pretrain the base model, write the CLI input files)
three times, then repeats whole rounds of timed phases until `--seconds` have
passed. A round is a closed loop with one caller: meta-train an editor, evaluate
the learned, FT and FT+KL editors, and apply a few edit groups through the
`gradedit edit` CLI in-process. Output checks against independent numpy
computations (checks.py) run after the rounds, outside every timed region.

`--trace 0` reports the end-to-end metrics. `--trace 1` times one untraced
round, then sets up and runs one round again with every public function
wrapped (tracer.py) and reports the per-layer metrics plus the tracing
overhead. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; a fuller record, with the
environment, goes to perf_harness/out/.
"""

import os

# Pinned before numpy is imported: one BLAS thread (no more than nproc).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Seed of the world, the base model, the validation facts and meta-training.
# Across meta-training seeds the trained editor's val_loss, es and dd_kl
# spread by 11-25% (IQR / median over 8 seeds), wider than any useful bound,
# so --seed varies the edit requests and leaves the editor fixed.
FIXTURE_SEED = 0
SETUP_REPEATS = 3
GRAD_CHECK_GROUPS = 2
GRAD_CHECK_H = 1e-5

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_edits_per_s": "edits/s",
    "val_loss": "nats",
    "edit_ms_p50": "ms",
    "edit_ms_p90": "ms",
    "eval_records_per_s": "records/s",
    "es": "fraction",
    "dd_kl": "nats",
    "ft_edit_ms_p50": "ms",
    "ft_kl_edit_ms_p50": "ms",
    "cli_edit_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


def import_gradedit() -> None:
    """Import the package from this checkout's src/, never an installed copy."""
    init = SRC / "gradedit" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from a gradedit checkout")
    sys.path.insert(0, str(SRC))
    import gradedit

    if Path(gradedit.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported gradedit from {gradedit.__file__}, not {init}")


import_gradedit()
import numpy as np  # noqa: E402

from gradedit import bench, cli, editor, evaluation, mlp, training  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, tiny  # noqa: E402


# -- set-up ---------------------------------------------------------------
@dataclass
class Setup:
    model: object
    pristine: tuple[list, list]  # copies of the base model's arrays
    train: list
    val: list
    eval: list  # edited by the learned editor
    ft_eval: list  # edited by FT and FT+KL
    workdir: Path
    cli_groups: list[list[tuple[np.ndarray, int]]]


def by_fact(records) -> dict[int, list]:
    out: dict[int, list] = {}
    for rec in records:
        out.setdefault(rec.fact_id, []).append(rec)
    return out


def setup(w: Workload, seed: int, workdir: Path) -> Setup:
    """The workload's fixture (world, base model, validation facts), the
    seeded edit requests, and the CLI input files."""
    cfg = bench.WorldConfig(seed=FIXTURE_SEED, records_per_fact=w.records_per_fact, **dict(w.world))
    world = bench.generate_world(cfg)
    model, _ = training.pretrain_model(
        world, hidden_dims=w.hidden_dims, epochs=w.pretrain_epochs,
        batch_size=w.pretrain_batch, seed=FIXTURE_SEED,
    )
    train_facts = by_fact(world.edit_train)
    fixture_rng = np.random.default_rng(FIXTURE_SEED)
    val_ids = set(fixture_rng.choice(sorted(train_facts), size=w.val_facts, replace=False).tolist())
    val = [r for f, rs in train_facts.items() if f in val_ids for r in rs[: w.val_records_per_fact]]
    train = [r for f, rs in train_facts.items() if f not in val_ids for r in rs]

    # Edit requests: the learned editor edits every test record, FT and FT+KL
    # the first `ft_records_per_fact` of each fact. The seed orders each
    # fact's records, which sets the make-up of the groups of k (at k=1 it
    # only picks FT's records, so es and dd_kl are the same for every seed).
    rng = np.random.default_rng([seed, 1])
    test_facts = {f: [rs[i] for i in rng.permutation(len(rs))] for f, rs in by_fact(world.edit_test).items()}
    eval_recs = [r for rs in test_facts.values() for r in rs]
    ft_recs = [r for rs in test_facts.values() for r in rs[: w.ft_records_per_fact]]
    facts = sorted(test_facts)
    cli_groups = []
    for i in range(w.cli_calls):
        picked = rng.choice(len(facts), size=w.k, replace=False)
        group = [test_facts[facts[j]][int(rng.integers(w.records_per_fact))] for j in picked]
        cli_groups.append([(r.x_e, r.y_e) for r in group])
        payload = {"edits": [{"x": x.tolist(), "y": y} for x, y in cli_groups[-1]]}
        (workdir / f"edit_{i}.json").write_text(json.dumps(payload))
    mlp.save_model(model, workdir / "model.json")
    pristine = ([a.copy() for a in model.weights], [b.copy() for b in model.biases])
    return Setup(model, pristine, train, val, eval_recs, ft_recs, workdir, cli_groups)


# -- one round of timed phases ---------------------------------------------
class TimedEditor:
    """Satisfies `evaluation.Editor`; times every edit call and keeps its pairs."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.ms: list[float] = []
        self.pairs: list[list] = []

    def edit(self, model, pairs):
        t0 = time.perf_counter()
        out = self.inner.edit(model, pairs)
        self.ms.append((time.perf_counter() - t0) * 1e3)
        self.pairs.append(pairs)
        return out

    def param_count(self) -> int:
        return self.inner.param_count()


@dataclass
class Round:
    config: object = None
    train_s: float = 0.0
    params: object = None
    normalizer: object = None
    log: list = field(default_factory=list)
    val_loss: float = float("nan")
    shims: dict = field(default_factory=dict)  # editor name -> TimedEditor
    reports: dict = field(default_factory=dict)  # editor name -> EditReport
    eval_s: dict = field(default_factory=dict)
    cli_ms: list = field(default_factory=list)
    cli_rc: list = field(default_factory=list)
    timed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def same_results(self, other: "Round") -> bool:
        return (
            self.log == other.log and self.val_loss == other.val_loss
            and all(self.reports[n].rows == other.reports[n].rows for n in self.reports)
        )

    def release(self) -> None:
        """Drop what only the checks need, so that memory, and so
        `peak_rss_mb`, does not grow with the number of rounds."""
        self.params = self.normalizer = None
        self.log = []
        for shim in self.shims.values():
            shim.pairs = []
        self.reports = {n: dataclasses.replace(rep, rows=[]) for n, rep in self.reports.items()}


def train_config(w: Workload, steps: int):
    # patience above the number of validations: training never stops early
    return training.TrainConfig(
        max_steps=steps, eval_every=w.eval_every, patience=steps + 1,
        batch_size=w.groups_per_step, edits_per_step=w.k, seed=FIXTURE_SEED,
    )


def run_round(w: Workload, seed: int, s: Setup) -> Round:
    r = Round(config=train_config(w, w.meta_steps))
    n_groups = {"learned": len(s.eval) // w.k, "ft": len(s.ft_eval) // w.k}
    n_groups["ft_kl"] = n_groups["ft"]
    r.attempted = 1 + sum(n_groups.values()) + w.cli_calls
    gc.collect()
    t0 = time.perf_counter()
    try:
        r.params, r.normalizer, r.log = training.train_editor(s.model, s.train, s.val, r.config)
    except Exception as e:  # the round cannot go on without an editor
        r.failed, r.errors = r.attempted, [f"train: {e!r}"]
        return r
    r.train_s = time.perf_counter() - t0
    r.timed_s += r.train_s
    r.val_loss = training.validation_loss(
        s.model, r.params, r.normalizer, s.val, r.config.c_e, r.config.seed + 1, w.k
    )
    editor_json = s.workdir / "editor.json"
    editor.save_editor(r.params, r.normalizer, editor_json)

    layers = r.params.editable_layers
    editors = [
        evaluation.LearnedEditor(r.params, r.normalizer),
        evaluation.FtEditor(editable_layers=layers),
        evaluation.FtKlEditor([rec.x_loc for rec in s.train], editable_layers=layers, seed=seed),
    ]
    for inner in editors:
        shim = TimedEditor(inner)
        r.shims[shim.name] = shim
        gc.collect()
        t0 = time.perf_counter()
        try:
            recs = s.eval if shim.name == "learned" else s.ft_eval
            r.reports[shim.name] = evaluation.evaluate_editor(shim, s.model, recs, w.k)
        except Exception as e:
            r.failed += n_groups[shim.name]
            r.errors.append(f"eval {shim.name}: {e!r}")
        r.eval_s[shim.name] = time.perf_counter() - t0
        r.timed_s += r.eval_s[shim.name]

    gc.collect()
    for i in range(w.cli_calls):
        argv = [
            "edit", "--model", str(s.workdir / "model.json"), "--editor", str(editor_json),
            "--edit-input", str(s.workdir / f"edit_{i}.json"),
            "--out-dir", str(s.workdir / f"cli_{i}"),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as e:
                rc = None
                r.errors.append(f"cli {i}: {e!r}")
            dt = time.perf_counter() - t0
        r.cli_ms.append(dt * 1e3)
        r.timed_s += dt
        r.cli_rc.append(rc)
        r.failed += rc != 0
    return r


# -- output checks (untimed) ----------------------------------------------
def arrays(model) -> tuple[list, list]:
    return list(model.weights), list(model.biases)


def sample_groups(n: int, want: int, rng) -> list[int]:
    return sorted(rng.choice(n, size=min(want, n), replace=False).tolist())


def distinct_fact_groups(records, k: int, count: int, rng) -> list[list]:
    facts = by_fact(records)
    ids = sorted(facts)
    groups = []
    for _ in range(count):
        picked = rng.choice(len(ids), size=k, replace=False)
        groups.append([facts[ids[j]][int(rng.integers(len(facts[ids[j]])))] for j in picked])
    return groups


def grad_check(s: Setup, r: Round, group, seed: int) -> list[str]:
    """Central difference of `group_losses_and_grads` along a seeded random
    unit direction at the trained editor, against its structural gradient."""
    c_e = r.config.c_e

    def loss(values) -> float:
        p = r.params.copy()
        p.values = values
        out, _ = training.group_losses_and_grads(
            s.model, p, r.normalizer, group, c_e, np.random.default_rng(seed), want_grads=False
        )
        return out.l_total

    _, grads = training.group_losses_and_grads(
        s.model, r.params, r.normalizer, group, c_e, np.random.default_rng(seed)
    )
    rng = np.random.default_rng([seed, 3])
    direction = {key: rng.standard_normal(v.shape) for key, v in r.params.values.items()}
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
    direction = {key: d / norm for key, d in direction.items()}
    analytic = sum(float(np.sum(grads[key] * d)) for key, d in direction.items())
    grad_norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    h = GRAD_CHECK_H
    plus = {key: v + h * direction[key] for key, v in r.params.values.items()}
    minus = {key: v - h * direction[key] for key, v in r.params.values.items()}
    return checks.check_directional_derivative(loss(plus), loss(minus), h, analytic, grad_norm)


def run_checks(w: Workload, seed: int, s: Setup, r: Round, cli_rc: list) -> list[tuple[str, list[str]]]:
    """Checks on round `r`, with the exit codes of the last round's CLI calls,
    whose outputs are on disk. Every check is one operation: (name, problems);
    no problems means passed."""
    results: list[tuple[str, list[str]]] = []
    rng = np.random.default_rng([seed, 2])

    # meta-training beats the untrained identity-init editor
    val0 = None
    if w.check_val_beats_untrained:
        p0, n0, _ = training.train_editor(s.model, s.train, s.val, train_config(w, 0))
        val0 = training.validation_loss(
            s.model, p0, n0, s.val, r.config.c_e, r.config.seed + 1, w.k)
    results.append(("training", checks.check_training(r.val_loss, val0, r.log, w.meta_steps)))

    for i, group in enumerate(distinct_fact_groups(s.val, w.k, GRAD_CHECK_GROUPS, rng)):
        results.append((f"grad[{i}]", grad_check(s, r, group, seed + i)))

    rec_of = {id(rec.x_e): rec for rec in s.eval}  # ft_eval is a subset
    editable = r.params.editable_layers
    for name, shim in r.shims.items():
        report = r.reports.get(name)
        if report is None:
            continue
        rows = {}
        for row in report.rows:
            rows.setdefault(row["group"], []).append(row)
        pre_hits = post_hits = n_inputs = 0
        for g in sample_groups(len(shim.pairs), w.check_groups, rng):
            pairs = shim.pairs[g]
            recs = [rec_of[id(x)] for x, _ in pairs]
            edited = shim.inner.edit(s.model, pairs)
            post = arrays(edited)
            neighborhoods = [
                (np.stack([x for x, _ in rec.neighborhood]), np.array([y for _, y in rec.neighborhood]))
                for rec in recs
            ]
            results.append((f"{name}[{g}].metrics", checks.check_group_metrics(
                s.pristine, post, neighborhoods,
                np.stack([rec.x_loc for rec in recs]), np.array([rec.y_loc for rec in recs]),
                [row["es"] for row in rows[g]], rows[g][0]["group_dd_acc"], rows[g][0]["group_dd_kl"],
            )))
            results.append((f"{name}[{g}].input_unchanged", checks.check_identical(s.pristine, arrays(s.model))))
            if name == "learned":
                results.append((f"{name}[{g}].low_rank", checks.check_low_rank(s.pristine, post, editable, w.k)))
            xs = np.stack([x for x, _ in pairs])
            ys = np.array([y for _, y in pairs])
            pre_hits += int(np.sum(np.argmax(checks.ref_logits(*s.pristine, xs), axis=1) == ys))
            post_hits += int(np.sum(np.argmax(checks.ref_logits(*post, xs), axis=1) == ys))
            n_inputs += len(pairs)
        results.append((f"{name}.edit_inputs_es", checks.check_edit_inputs_es(
            pre_hits / n_inputs, post_hits / n_inputs)))

    learned = evaluation.LearnedEditor(r.params, r.normalizer)
    for i, pairs in enumerate(s.cli_groups):
        out = s.workdir / f"cli_{i}"
        try:
            saved = json.loads((out / "edited_model.json").read_text())
            preds = json.loads((out / "edit_predictions.json").read_text())
        except (OSError, ValueError) as e:
            results.append((f"cli[{i}]", [f"cli output unreadable: {e!r}"]))
            continue
        saved_arrays = ([np.array(a) for a in saved["weights"]], [np.array(b) for b in saved["biases"]])
        expected = arrays(learned.edit(s.model, pairs))
        results.append((f"cli[{i}]", checks.check_cli_edit(
            cli_rc[i], saved_arrays, expected, [p["argmax_post"] for p in preds],
            np.stack([x for x, _ in pairs]),
        )))
    return results


# -- metrics and reporting ---------------------------------------------------
def per_round(rounds: list[Round], w: Workload) -> dict[str, list[float]]:
    """Each timed end-to-end metric, once per round."""

    def p50(xs):
        return statistics.median(xs)

    def p90(xs):
        return statistics.quantiles(xs, n=10, method="inclusive")[-1]

    return {
        "train_edits_per_s": [w.meta_steps * w.edits_per_step / r.train_s for r in rounds],
        "edit_ms_p50": [p50(r.shims["learned"].ms) for r in rounds],
        "edit_ms_p90": [p90(r.shims["learned"].ms) for r in rounds],
        "eval_records_per_s": [r.reports["learned"].num_records / r.eval_s["learned"] for r in rounds],
        "ft_edit_ms_p50": [p50(r.shims["ft"].ms) for r in rounds],
        "ft_kl_edit_ms_p50": [p50(r.shims["ft_kl"].ms) for r in rounds],
        "cli_edit_ms_p50": [p50(r.cli_ms) for r in rounds],
    }


def end_to_end(setup_s: list[float], timed: dict[str, list[float]], first: Round) -> dict[str, float]:
    """Timed metrics are means over rounds: the host's speed drifts over
    seconds, and a median over rounds or calls jumps between its fast and
    slow states where a mean moves smoothly."""
    values = {name: statistics.fmean(xs) for name, xs in timed.items()}
    return {
        "setup_s": statistics.median(setup_s),
        "train_edits_per_s": values["train_edits_per_s"],
        "val_loss": first.val_loss,
        "edit_ms_p50": values["edit_ms_p50"],
        "edit_ms_p90": values["edit_ms_p90"],
        "eval_records_per_s": values["eval_records_per_s"],
        "es": first.reports["learned"].es,
        "dd_kl": first.reports["learned"].dd_kl,
        "ft_edit_ms_p50": values["ft_edit_ms_p50"],
        "ft_kl_edit_ms_p50": values["ft_kl_edit_ms_p50"],
        "cli_edit_ms_p50": values["cli_edit_ms_p50"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke run for the benchmark's tests")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.size == "tiny":
        w = tiny(w)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    record: dict = {"environment": environment(args), "workload": dataclasses.asdict(w)}
    try:
        determinism: list[tuple[str, list[str]]] = []
        if args.trace:
            s = setup(w, args.seed, workdir)
            untraced = run_round(w, args.seed, s)
            untraced.release()
            tracer = Tracer()
            tracer.install()
            try:
                tracer.phase = "setup"
                s = setup(w, args.seed, workdir)
                tracer.base_model = s.model
                tracer.phase = "round"
                rounds = [run_round(w, args.seed, s)]
            finally:
                tracer.uninstall()
            overhead = (rounds[0].timed_s / untraced.timed_s - 1.0) * 100.0
            metrics, absent = tracer.metrics(overhead)
            record["absent_metrics"] = absent
            record["round_s"] = {"untraced": untraced.timed_s, "traced": rounds[0].timed_s}
            (OUT / f"{args.workload}-seed{args.seed}-trace1-spans.json").write_text(
                json.dumps(tracer.span_table()))
        else:
            setup_s = []
            for _ in range(SETUP_REPEATS):
                gc.collect()
                t0 = time.perf_counter()
                s = setup(w, args.seed, workdir)
                setup_s.append(time.perf_counter() - t0)
            start = time.perf_counter()
            rounds = [run_round(w, args.seed, s)]
            while not rounds[-1].errors and time.perf_counter() - start < args.seconds:
                r = run_round(w, args.seed, s)
                if not r.errors:
                    # every round reproduces the first one's training and quality exactly
                    same = r.same_results(rounds[0])
                    determinism.append((f"round[{len(rounds)}].deterministic",
                                        [] if same else ["round differs from round 0"]))
                r.release()
                rounds.append(r)
            record["setup_s"] = setup_s
            record["round_s"] = [r.timed_s for r in rounds]

        attempted = sum(r.attempted for r in rounds)
        failed = sum(r.failed for r in rounds)
        record["errors"] = [e for r in rounds for e in r.errors]
        good = [r for r in rounds if not r.errors]
        check_results = determinism
        if not rounds[0].errors:
            check_results += run_checks(w, args.seed, s, rounds[0], rounds[-1].cli_rc)
        attempted += len(check_results)
        bad_checks = {name: p for name, p in check_results if p}
        failed += len(bad_checks)
        record["checks"] = {"run": len(check_results), "failed": bad_checks}
        if not args.trace:
            if not good:
                print(f"error: no round completed: {record['errors']}", file=sys.stderr)
                return 1
            timed = per_round(good, w)
            record["per_round"] = timed
            metrics = {
                name: {"value": value, "unit": END_TO_END_UNITS[name]}
                for name, value in end_to_end(setup_s, timed, good[0]).items()
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": not bad_checks, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    for name, problems in bad_checks.items():
        print(f"check failed: {name}: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
