"""Paired benchmark of a parent checkout against a change checkout, written to `BENCH_<PR>.json`.

    python3 tools/bench.py --parent ../parent --change . --pr 34 --seed 3401

For each workload that `BENCHMARK.json` lists, it runs `perfbench/run.py` (`--trace 0`, `--seconds` as
`BENCHMARK.json`'s `run_seconds`) in both checkouts, in `PAIRS` pairs. Both sides of pair i run seed `--seed` + i, and
the side that runs first alternates from pair to pair. Each checkout measures its own `src/`. The file, written in the
current directory, holds the two commits, the host, every end-to-end metric of each pair and, per workload and
metric, the two medians, the parent's interquartile range, the metric's bound, the pairs where the change reads lower
and higher, and the verdict of `RULE`. It needs only the standard library, and writes nothing in either checkout but
perfbench's own `.perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RULE = (
    "unresolved: the parent's interquartile range (statistics.quantiles, n=4, exclusive) exceeds the metric's bound "
    "times the parent's median, unless every change run is better than every parent run; regression: otherwise, the "
    "change's median is worse than the parent's by more than the bound times the parent's median; gain: otherwise, "
    "the change is better in at least nine tenths of the pairs (ties count for neither) and its median differs from "
    "the parent's by more than the parent's interquartile range; loss: the same with worse; otherwise no change"
)
PAIRS = 10
SHARE = 0.9


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, the parent's IQR, the bound, the pairs where the change reads lower and higher, and `RULE`'s verdict."""
    lower = sum(c < p for p, c in zip(parent, change))
    higher = sum(c > p for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    median_p, median_c = statistics.median(parent), statistics.median(change)
    gained = median_p - median_c if better == "lower" else median_c - median_p  # > 0 when the change is better
    wins, losses = (lower, higher) if better == "lower" else (higher, lower)
    apart = max(change) < min(parent) if better == "lower" else min(change) > max(parent)  # every change run better
    if q3 - q1 > bound * abs(median_p) and not apart:
        outcome = "unresolved"
    elif -gained > bound * abs(median_p):
        outcome = "regression"
    elif gained > q3 - q1 and wins >= SHARE * len(parent):
        outcome = "gain"
    elif -gained > q3 - q1 and losses >= SHARE * len(parent):
        outcome = "loss"
    else:
        outcome = "no change"
    return {
        "better": better,
        "bound": bound,
        "parent_median": median_p,
        "change_median": median_c,
        "parent_iqr": q3 - q1,
        "change_lower": lower,
        "change_higher": higher,
        "verdict": outcome,
    }


def commit(checkout: Path) -> str:
    """The checkout's HEAD, marked `-dirty` when its tracked files differ from it."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True).stdout.strip()

    head = git("rev-parse", "HEAD")
    if not head:
        raise SystemExit(f"error: {checkout} is no git checkout")
    return head + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def run_side(checkout: Path, workload: str, seed: int, seconds: float, metrics: list[str]) -> dict:
    """One `perfbench/run.py` run in `checkout`: its end-to-end metrics, and its attempted and failed operations."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    run = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if run.returncode != 0:
        raise SystemExit(f"error: {checkout}: {' '.join(argv[1:])} exited {run.returncode}:\n{run.stderr}")
    result = json.loads(run.stdout.splitlines()[-1])
    return {
        **{name: result["metrics"][name]["value"] for name in metrics},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def bench(parent: Path, change: Path, seed: int) -> dict:
    spec = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    names = [m["name"] for m in spec["end_to_end"]]
    sides = {"parent": parent, "change": change}
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        rows = []
        for i in range(PAIRS):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            row = {"seed": seed + i, "first": order[0]}
            for side in order:
                row[side] = run_side(sides[side], workload, seed + i, seconds, names)
                print(f"{workload} pair {i + 1}/{PAIRS} {side}: {row[side]}", file=sys.stderr, flush=True)
            rows.append(row)
        workloads[workload] = {
            "pairs": rows,
            "metrics": {
                m["name"]: verdict(
                    [r["parent"][m["name"]] for r in rows], [r["change"][m["name"]] for r in rows],
                    m["better"], m["bound"],
                )
                for m in spec["end_to_end"]
            },
        }
    return {
        "rule": RULE,
        "parent_commit": commit(parent),
        "change_commit": commit(change),
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        },
        "seconds": seconds,
        "workloads": workloads,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pr", type=int, required=True, help="the number in the file name BENCH_<PR>.json")
    parser.add_argument("--seed", type=int, required=True, help="the seed of the first pair")
    args = parser.parse_args()
    result = {"pr": args.pr, **bench(args.parent.resolve(), args.change.resolve(), args.seed)}
    path = Path(f"BENCH_{args.pr}.json")
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for workload, summary in result["workloads"].items():
        for name, m in summary["metrics"].items():
            print(
                f"{workload} {name}: {m['parent_median']:.6g} -> {m['change_median']:.6g} "
                f"(parent IQR {m['parent_iqr']:.3g}; change lower in {m['change_lower']}/{PAIRS}): {m['verdict']}"
            )
    print(f"# wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
