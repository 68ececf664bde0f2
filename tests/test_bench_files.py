"""Each `BENCH_<PR>.json` at the repository root, as `tools/bench.py` writes it, holds every end-to-end metric that
`BENCHMARK.json` names for each of ten pairs of parent and change runs of `BENCHMARK.json`'s run length, and each
summary and verdict follows from those numbers by the rule: unresolved when the parent's interquartile range exceeds
the metric's bound times the parent's median, unless every change run is better than every parent run; else a
regression when the change's median is worse than the parent's by more than that; else a gain (or a loss) when the
change is better (worse) in at least nine tenths of the pairs, ties counting for neither, and its median is better
(worse) than the parent's by more than the parent's interquartile range; otherwise no change."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: (m["better"], m["bound"]) for m in SPEC["end_to_end"]}


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_tool", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _expected(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1 if better == "lower" else -1  # sign * (parent - change) > 0 when the change is better
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    moved = sign * (statistics.median(parent) - statistics.median(change))
    allowed = bound * abs(statistics.median(parent))
    apart = all(sign * (p - c) > 0 for p in parent for c in change)
    if q3 - q1 > allowed and not apart:
        verdict = "unresolved"
    elif -moved > allowed:
        verdict = "regression"
    elif moved > q3 - q1 and wins >= 0.9 * len(parent):
        verdict = "gain"
    elif -moved > q3 - q1 and losses >= 0.9 * len(parent):
        verdict = "loss"
    else:
        verdict = "no change"
    return {
        "better": better,
        "bound": bound,
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "parent_iqr": q3 - q1,
        "change_lower": sum(c < p for p, c in zip(parent, change)),
        "change_higher": sum(c > p for p, c in zip(parent, change)),
        "verdict": verdict,
    }


def _is_number(value) -> bool:
    return type(value) in (int, float)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_every_bench_file_follows_its_schema_and_its_verdicts_follow_from_its_numbers(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert set(bench) == {"pr", "rule", "parent_commit", "change_commit", "host", "seconds", "workloads"}
    assert path.name == f"BENCH_{bench['pr']}.json" and type(bench["pr"]) is int
    assert bench["rule"] == _load_tool().RULE
    assert all(type(bench[side]) is str for side in ("parent_commit", "change_commit"))
    host = bench["host"]
    assert set(host) == {"nproc", "python", "machine", "PYTHONDONTWRITEBYTECODE"} and type(host["nproc"]) is int
    assert bench["seconds"] == SPEC["run_seconds"]
    assert set(bench["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for workload, summary in bench["workloads"].items():
        assert set(summary) == {"pairs", "metrics"}, workload
        pairs = summary["pairs"]
        assert len(pairs) == 10, workload
        for i, pair in enumerate(pairs):
            assert set(pair) == {"seed", "first", "parent", "change"}, (workload, i)
            assert pair["first"] == ("parent", "change")[i % 2] and pair["seed"] == pairs[0]["seed"] + i
            for side in ("parent", "change"):
                run = pair[side]
                assert set(run) == {*END_TO_END, "correct", "attempted", "failed"}, (workload, i, side)
                assert all(_is_number(run[name]) for name in END_TO_END), (workload, i, side)
                assert run["correct"] is (run["failed"] == 0) and 0 <= run["failed"] <= run["attempted"]
        assert set(summary["metrics"]) == set(END_TO_END), workload
        for name, (better, bound) in END_TO_END.items():
            parent = [pair["parent"][name] for pair in pairs]
            change = [pair["change"][name] for pair in pairs]
            assert summary["metrics"][name] == _expected(parent, change, better, bound), (workload, name)


# (parent, change, better, bound, verdict): the tool's own rule on made-up pairs, one case for each way out of it.
_CASES = [
    ([10, 11, 12, 13, 14], [6, 7, 8, 9, 10], "lower", 0.5, "gain"),
    ([10, 11, 12, 13, 14], [14, 15, 16, 17, 18], "lower", 0.5, "loss"),
    ([10, 11, 12, 13, 14], [6, 7, 8, 9, 15], "lower", 0.5, "no change"),  # lower in 4 of 5 pairs only
    ([10, 11, 12, 13, 14], [9.5, 10.5, 11.5, 12.5, 13.5], "lower", 0.5, "no change"),  # median inside the IQR
    ([1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0], "higher", 0.01, "no change"),
    ([10, 11, 12, 13, 14], [14, 15, 16, 17, 18], "higher", 0.5, "gain"),
    # 30% worse in the median but in 8 of 10 pairs only: a regression past a bound of 25%, not a loss
    ([10] * 10, [13] * 8 + [10] * 2, "lower", 0.25, "regression"),
    ([10, 11, 12, 13, 14], [14, 15, 16, 17, 18], "lower", 0.25, "regression"),
    ([1.0] * 10, [0.98] * 10, "higher", 0.01, "regression"),
    # the parent's spread (IQR 15 on a median of 15) is wider than the bound allows: nothing can be told
    ([5, 10, 15, 20, 25], [6, 7, 8, 9, 10], "lower", 0.25, "unresolved"),
    # ... unless every change run is better than every parent run; then the gain test decides
    ([5, 10, 15, 20, 25], [1, 2, 3, 4, 4.5], "lower", 0.25, "no change"),  # medians closer than the IQR
    ([100, 100, 100, 160, 200], [10, 11, 12, 13, 14], "lower", 0.25, "gain"),
]


@pytest.mark.parametrize("parent, change, better, bound, verdict", _CASES)
def test_the_tool_gives_the_verdict_of_the_rule(parent, change, better, bound, verdict):
    summary = _load_tool().verdict(parent, change, better, bound)
    assert summary == _expected(parent, change, better, bound)
    assert summary["verdict"] == verdict
