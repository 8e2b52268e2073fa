"""Alternating parent/change pairs of the benchmark, judged metric by metric.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR [--workload narrow_k1] [--pairs 10]
        [--first-seed 1000]

Each of PARENT_DIR and CHANGE_DIR is a checkout of the repository. The script
runs the given workload, or without `--workload` every workload that
CHANGE_DIR's BENCHMARK.json lists, one after another. Pair i of a workload
runs that file's benchmark command once in each checkout, both with seed
`first_seed + i` and for the file's `run_seconds`; the parent runs first in
even pairs and the change first in odd ones. The script stops at the first
run that reports `correct: false` or any failed operation.

For each workload it prints one table. For every end-to-end metric the table
gives each side's median and quartiles, how many pairs the change won (ties
count for neither side) and two flags: `claim`, set when there are at least
`MIN_PAIRS` pairs, the change won at least nine tenths of them and its median
differs from the parent's by more than the parent's interquartile range;
`over_bound`, set when the change's median is worse than the parent's by more
than the metric's relative bound; and `moved`, set when each side reads one
value in every pair but the two values differ, a move in the last digits of
a deterministic metric that a relative bound would hide. Only the standard
library is used, and the script itself writes no file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# the fewest pairs on which a gain can be claimed
MIN_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between ranks."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The verdict on one metric from paired runs: parent[i] and change[i]
    come from pair i. `better` is "lower" or "higher"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("one parent and one change value per pair, at least one pair")
    if better not in ("lower", "higher"):
        raise ValueError(f"unknown direction {better!r}")
    sign = 1.0 if better == "higher" else -1.0  # a positive gain is better
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = sign * (cm - pm)
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "wins": wins,
        "pairs": len(parent),
        "claim": (len(parent) >= MIN_PAIRS and 10 * wins >= 9 * len(parent)
                  and gain > p3 - p1),
        "over_bound": -gain > bound * abs(pm),
        "moved": len(set(parent)) == 1 and len(set(change)) == 1 and parent[0] != change[0],
    }


def workload_names(bench: dict, chosen: str | None) -> list[str]:
    """The workloads to run: `chosen` alone, or, when it is None, every
    workload of the parsed BENCHMARK.json `bench`, in its order."""
    return [chosen] if chosen is not None else [w["name"] for w in bench["workloads"]]


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run in `checkout`; its last line of output, parsed."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exit {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def print_verdicts(workload: str, metrics: list[dict], runs: dict[str, list[dict]]) -> None:
    """One workload's table: a line per end-to-end metric of BENCHMARK.json."""
    print(f"{workload}\n{'metric':<20} {'parent q1/med/q3':>30} {'change q1/med/q3':>30}  "
          "wins  claim  over_bound  moved")
    for metric in metrics:
        name = metric["name"]
        verdict = summarize([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                            metric["better"], metric["bound"])
        p, c = ("/".join(f"{v:.4g}" for v in verdict[side]) for side in ("parent", "change"))
        print(f"{name:<20} {p:>30} {c:>30}  {verdict['wins']:>2}/{verdict['pairs']:<2} "
              f"{verdict['claim']!s:>5}  {verdict['over_bound']!s:>10}  {verdict['moved']!s:>5}",
              flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    for workload in workload_names(bench, args.workload):
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(getattr(args, side), bench["command"], workload, seed,
                                  bench["run_seconds"])
                values = {k: v["value"] for k, v in result["metrics"].items()}
                print(json.dumps({"workload": workload, "pair": i, "side": side, "seed": seed,
                                  "metrics": values}), flush=True)
                if not result["correct"] or result["failed"] > 0:
                    print(f"stopped: the {side} run of pair {i} on {workload} reported "
                          f"correct={result['correct']}, failed={result['failed']}",
                          file=sys.stderr)
                    return 1
                runs[side].append(values)
        print_verdicts(workload, bench["end_to_end"], runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
