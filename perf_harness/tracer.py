"""Span tracer for the traced run: wraps public `gradedit` functions from the
outside and aggregates per-layer metrics named `<module>.<function>.<stat>`.

Each listed function is replaced in every `gradedit` module namespace that
binds it, so calls between the package's own modules are recorded as well as
the benchmark's calls. Spans (name, start, end, parent) stay in memory until
the run ends. A span's self time is its duration minus the durations of its
direct children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable

import numpy as np

PACKAGE = "gradedit"

# function -> stats reported for it
TRACED: dict[str, tuple[str, ...]] = {
    "mlp.forward": ("calls", "rows", "base_rows", "self_ms"),
    "mlp.backward": ("calls", "self_ms", "dense_grad_bytes"),
    "mlp.backward_nll": ("calls", "self_ms"),
    "mlp.clone_with_weights": ("calls", "bytes", "self_ms"),
    "mlp.save_model": ("self_ms",),
    "mlp.load_model": ("self_ms",),
    "editor.apply_edit_with_tape": ("calls", "rows", "self_ms"),
    "editor.apply_edit": ("calls", "self_ms"),
    "editor.backprop_edit": ("calls", "self_ms"),
    "editor.fit_normalizer": ("self_ms",),
    "editor.save_editor": ("self_ms",),
    "editor.load_editor": ("self_ms",),
    "ndops.adam_step": ("calls", "self_ms"),
    "ndops.kl_divergence": ("calls", "self_ms"),
    "training.train_editor": ("self_ms",),
    "training.group_losses_and_grads": ("calls", "self_ms"),
    "training.validation_loss": ("calls", "self_ms"),
    "training.finetune_edit": ("calls", "steps", "self_ms"),
    "training.finetune_kl_edit": ("calls", "steps", "self_ms"),
    "training.pretrain_model": ("self_ms",),
    "evaluation.evaluate_editor": ("self_ms",),
    "evaluation.edit_success": ("calls", "self_ms"),
    "evaluation.drawdown": ("calls", "self_ms"),
    "bench.generate_world": ("self_ms",),
    "bench.interleave_by_fact": ("calls", "self_ms"),
    "cli.main": ("self_ms",),
}
# Set-up functions: reported from the traced set-up; every other metric comes
# from the traced round alone, so pretraining's many small calls stay out.
SETUP_FUNCTIONS = ("bench.generate_world", "training.pretrain_model")
UNIQUE_RATIO = "editor.factor_rows_unique_ratio"
OVERHEAD = "trace.overhead_pct"

UNITS = {
    "calls": "count",
    "rows": "count",
    "base_rows": "count",
    "steps": "count",
    "self_ms": "ms",
    "bytes": "bytes.computed",
    "dense_grad_bytes": "bytes.computed",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{fn}.{stat}": UNITS[stat] for fn, stats in TRACED.items() for stat in stats}
    units[UNIQUE_RATIO] = "ratio"
    units[OVERHEAD] = "%"
    return units


def _nbytes(arrays) -> int:
    return sum(int(a.size) * a.itemsize for a in arrays)


class Tracer:
    """Install with `install()`, run the traced work, then `uninstall()`.

    `base_model` is the pristine model object of the run: rows forwarded
    through it count as `mlp.forward.base_rows`, and edit inputs whose factors
    are extracted on it feed `editor.factor_rows_unique_ratio`."""

    def __init__(self) -> None:
        self.base_model: Any = None
        self.phase = "round"  # "setup" or "round"
        self.spans: list[list] = []  # [name, start, end, parent index, phase]
        self.counts: dict[str, dict[str, float]] = {"setup": {}, "round": {}}
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Callable]] = []
        self._factor_rows = 0
        self._factor_inputs: set[bytes] = set()

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for qual in TRACED:
            mod_name, fn_name = qual.split(".")
            try:
                mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                continue  # reported as absent by `metrics`
            orig = getattr(mod, fn_name, None)
            if not callable(orig):
                continue
            wrapper = self._wrap(qual, orig)
            for name, m in list(sys.modules.items()):
                if name == PACKAGE or name.startswith(PACKAGE + "."):
                    if getattr(m, fn_name, None) is orig:
                        self._patched.append((m, fn_name, orig))
                        setattr(m, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._patched):
            setattr(mod, name, orig)
        self._patched.clear()

    def _wrap(self, qual: str, orig: Callable) -> Callable:
        count = self._counter(qual)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [qual, 0.0, 0.0, stack[-1] if stack else -1, self.phase]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            count(args, kwargs, out)
            return out

        return traced

    def _add(self, key: str, value: float) -> None:
        counts = self.counts[self.phase]
        counts[key] = counts.get(key, 0) + value

    def _counter(self, qual: str) -> Callable:
        """The per-call counting hook for `qual` (calls plus its own stats)."""
        add = self._add

        def arg(args, kwargs, i, name):
            return args[i] if len(args) > i else kwargs[name]

        if qual == "mlp.forward":
            def count(args, kwargs, out):
                model, batch = arg(args, kwargs, 0, "model"), arg(args, kwargs, 1, "batch")
                rows = np.atleast_2d(np.asarray(batch)).shape[0]
                add("mlp.forward.calls", 1)
                add("mlp.forward.rows", rows)
                if model is self.base_model:
                    add("mlp.forward.base_rows", rows)
        elif qual == "mlp.backward":
            def count(args, kwargs, out):
                add("mlp.backward.calls", 1)
                add("mlp.backward.dense_grad_bytes", _nbytes(out[1]))
        elif qual == "mlp.clone_with_weights":
            def count(args, kwargs, out):
                add("mlp.clone_with_weights.calls", 1)
                add("mlp.clone_with_weights.bytes", _nbytes(out.weights) + _nbytes(out.biases))
        elif qual == "editor.apply_edit_with_tape":
            def count(args, kwargs, out):
                model, batch = arg(args, kwargs, 0, "model"), arg(args, kwargs, 3, "edit_batch")
                add("editor.apply_edit_with_tape.calls", 1)
                add("editor.apply_edit_with_tape.rows", len(batch))
                if model is self.base_model and self.phase == "round":
                    self._factor_rows += len(batch)
                    self._factor_inputs.update(
                        np.asarray(x, dtype=np.float64).tobytes() for x, _ in batch
                    )
        elif qual in ("training.finetune_edit", "training.finetune_kl_edit"):
            def count(args, kwargs, out):
                add(f"{qual}.calls", 1)
                add(f"{qual}.steps", out[1])
        else:
            def count(args, kwargs, out):
                add(f"{qual}.calls", 1)
        return count

    # -- aggregation ----------------------------------------------------
    def self_ms(self, phase: str) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, ph), c in zip(self.spans, child):
            if ph == phase:
                out[name] = out.get(name, 0.0) + (end - start - c) * 1e3
        return out

    def metrics(self, overhead_pct: float) -> tuple[dict[str, dict], list[str]]:
        """(metrics that were measured, names of metrics that are absent).

        A metric is absent when its function no longer exists or was never
        called, so that it is listed rather than reported as zero."""
        values: dict[str, float] = {}
        for phase in ("setup", "round"):
            keep = lambda qual: (qual in SETUP_FUNCTIONS) == (phase == "setup")
            values.update(
                (key, v) for key, v in self.counts[phase].items() if keep(key.rsplit(".", 1)[0])
            )
            values.update(
                (f"{qual}.self_ms", ms) for qual, ms in self.self_ms(phase).items() if keep(qual)
            )
        if self._factor_rows:
            values[UNIQUE_RATIO] = len(self._factor_inputs) / self._factor_rows
        values[OVERHEAD] = overhead_pct
        metrics, absent = {}, []
        for name, unit in metric_units().items():
            if values.get(name):
                metrics[name] = {"value": values[name], "unit": unit}
            else:
                absent.append(name)
        return metrics, absent

    def span_table(self) -> dict[str, list]:
        """Spans as columns, for the spans file written at the end of a run."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "name": [index[s[0]] for s in self.spans],
            "start": [s[1] for s in self.spans],
            "end": [s[2] for s in self.spans],
            "parent": [s[3] for s in self.spans],
            "phase": [s[4] for s in self.spans],
        }
