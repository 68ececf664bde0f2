"""Benchmark of the taxarch CLI on three workloads.

    python3 perfbench/run.py --workload report-100k --seed 1 --seconds 30 --trace 0

With --trace 0 it is a closed loop with one client: each operation is a
fresh `python -m taxarch.cli` child importing `taxarch` from this
checkout's `src/`, started after the previous one exits, and timed from
spawn to exit. With --trace 1 the same operation runs in this process,
alternately untraced and traced (see tracer.py), for the per-layer
figures. Either way every operation's output is checked against an
independent reference (reference.py), and the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Provenance, per-operation records and spans go to
.perfbench/results/<workload>-s<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs
import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}
SETUP_ROUNDS = 3
CAL_RECORDS = 60_000
# Seconds one calibration takes on the reference host (2-vCPU shared VM,
# CPython 3.11): setup_s is given in seconds at that host's speed.
CAL_REFERENCE_S = 0.1
GEN_FLAGS = {"components": 10_000, "teams": 300, "unresolved_rate": 0.3, "density": 10.0}


class RefuseToRun(Exception):
    pass


@dataclass
class Prepared:
    """One workload's inputs on disk, its CLI arguments and its output check."""

    argv: list[str]
    outputs: list[Path]
    check: Callable[[], list[str]]
    input_sha256: dict[str, str] = field(default_factory=dict)

    def clear_outputs(self) -> None:
        for path in self.outputs:
            path.unlink(missing_ok=True)


def _write(path: Path, data: bytes) -> str:
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def prepare_report(work: Path, seed: int) -> Prepared:
    data, snapshot = inputs.report_input(seed)
    bundle, out = work / "report-100k.json", work / "out"
    digest = _write(bundle, data)
    expected = reference.expected_report(snapshot)
    return Prepared(
        argv=["report", str(bundle), "--out-dir", str(out)],
        outputs=[out / name for name in ("view.dot", "view.csv", "registers.csv", "report.json")],
        check=lambda: reference.check_report(out, expected),
        input_sha256={bundle.name: digest},
    )


def prepare_diff(work: Path, seed: int) -> Prepared:
    data_a, data_b, snap_a, snap_b, ledger = inputs.churn_inputs(seed)
    path_a, path_b, delta = work / "churn-a.json", work / "churn-b.json", work / "delta.json"
    digests = {path_a.name: _write(path_a, data_a), path_b.name: _write(path_b, data_b)}
    expected = reference.expected_delta(snap_a, snap_b, ledger)
    return Prepared(
        argv=["diff", str(path_a), str(path_b), "--out", str(delta)],
        outputs=[delta],
        check=lambda: reference.check_delta(delta, expected),
        input_sha256=digests,
    )


def prepare_gen(work: Path, seed: int) -> Prepared:
    out = work / "generated.json"
    g = GEN_FLAGS
    return Prepared(
        argv=[
            "gen",
            "--components", str(g["components"]),
            "--teams", str(g["teams"]),
            "--unresolved-rate", str(g["unresolved_rate"]),
            "--density", str(g["density"]),
            "--seed", str(seed),
            "--out", str(out),
        ],
        outputs=[out],
        check=lambda: reference.check_gen(out, **g),
    )


# Why each workload exists, and the layers it loads and bypasses, is in
# README.md and BENCHMARK.json.
WORKLOADS = {"report-100k": prepare_report, "diff-churn": prepare_diff, "gen-100k": prepare_gen}


def spawn(args: list[str], stdout: Path, stderr: Path) -> tuple[float, float, int, int]:
    """Run `python <args>` to completion: (wall s, user+system CPU s, max RSS KiB, exit code)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], CHILD_ENV, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, os.waitstatus_to_exitcode(status)


def check_pinned(work: Path) -> str:
    """Refuse to run unless a child imports taxarch from this checkout."""
    out, err = work / "pin.out", work / "pin.err"
    _, _, _, code = spawn(["-c", "import taxarch, sys; sys.stdout.write(taxarch.__file__)"], out, err)
    found = out.read_text(encoding="utf-8", errors="replace")
    want = SRC / "taxarch" / "__init__.py"
    if code != 0 or Path(found).resolve() != want.resolve():
        raise RefuseToRun(f"child imports taxarch from {found or '(nothing)'}, not {want}")
    return found


def sanity_check(work: Path) -> list[str]:
    """The reference aggregator must reproduce `taxarch report --fixture devnullsoft`'s flow table."""
    d = work / "devnullsoft"
    d.mkdir(exist_ok=True)
    problems = []
    for args in (["fixture", "devnullsoft", "--out", str(d / "bundle.json")],
                 ["report", "--fixture", "devnullsoft", "--out-dir", str(d / "report")]):
        _, _, _, code = spawn(["-m", "taxarch.cli", *args], d / "stdout", d / "stderr")
        if code != 0:
            problems.append(f"taxarch {args[0]} exited {code}")
    if problems:
        return problems
    try:
        snapshot = reference.snapshot_of_bundle(json.loads((d / "bundle.json").read_bytes()))
        table = (d / "report" / "view.csv").read_text(encoding="utf-8")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"devnullsoft outputs unreadable: {exc!r}"]
    if table != reference.flow_table_csv(reference.flow_counts(snapshot)):
        problems.append("devnullsoft flow table differs from the reference aggregator")
    return problems


class Ledger:
    """Attempted and failed operations of one run, with each failure's reasons."""

    def __init__(self, prepared: Prepared):
        self.prepared = prepared
        self.attempted = 0
        self.failures: list[dict] = []
        self._first: str | None = None
        self._checked: dict[str, list[str]] = {}

    def record(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failures.append({"operation": self.attempted, "what": what, "problems": problems})

    def judge(self, code, stdout: bytes, stderr: str, what: str) -> None:
        """Check one operation: exit code, stderr, output check and identity with the first."""
        problems = [] if code == 0 else [f"exit code {code}"]
        if "Traceback" in stderr:
            problems.append("traceback on stderr")
        h = hashlib.sha256(stdout)
        for path in self.prepared.outputs:
            h.update(path.name.encode() + b"\0" + (path.read_bytes() if path.is_file() else b"<missing>"))
        digest = h.hexdigest()
        if digest not in self._checked:
            self._checked[digest] = self.prepared.check()
        problems += self._checked[digest]
        if self._first is None:
            self._first = digest
        elif digest != self._first:
            problems.append("output bytes differ from the run's first operation")
        self.record(problems, what)


def calibration_input() -> bytes:
    """The fixed input of `calibrate`: the same bytes on every run and every tree."""
    rng = random.Random(0)
    return json.dumps([
        {"src": f"c{rng.randrange(5000)}", "dst": f"c{rng.randrange(5000)}", "n": rng.randrange(9)}
        for _ in range(CAL_RECORDS)
    ]).encode()


def calibrate(data: bytes) -> tuple[float, float]:
    """Time one pass of a fixed stdlib workload in this process: (wall s, CPU s).

    It parses JSON, builds a dict of lists and serializes it again, as the
    taxarch commands do, but never touches taxarch, so it measures how fast
    the host runs at the moment and nothing else.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    index: dict[str, list[str]] = {}
    for record in json.loads(data):
        index.setdefault(record["src"], []).append(record["dst"])
    json.dumps(sorted(index.items()))
    return time.perf_counter() - wall, time.process_time() - cpu


def measure_children(
    ledger: Ledger, work: Path, ops: list[dict], until: float, cal_input: bytes, before: tuple[float, float]
) -> None:
    """Run operations, appending each to `ops`, until their wall times sum to `until` seconds.

    Each operation is bracketed by two calibrations, so that it can be
    related to the host's speed just before and just after it; `before` is
    the calibration that precedes the first.
    """
    out, err = work / "op.stdout", work / "op.stderr"
    argv = ["-m", "taxarch.cli", *ledger.prepared.argv]
    while sum(o["wall_s"] for o in ops) < until:
        ledger.prepared.clear_outputs()
        wall, cpu, rss_kib, code = spawn(argv, out, err)
        after = calibrate(cal_input)
        ledger.judge(code, out.read_bytes(), err.read_text(encoding="utf-8", errors="replace"), "child")
        ops.append({
            "wall_s": wall,
            "cpu_s": cpu,
            "max_rss_kib": rss_kib,
            "exit": code,
            "cal_wall_s": (before[0] + after[0]) / 2,
            "cal_cpu_s": (before[1] + after[1]) / 2,
        })
        before = after


def _in_process(ledger: Ledger, call, what: str):
    stdout, stderr = io.StringIO(), io.StringIO()
    ledger.prepared.clear_outputs()
    result = None
    with contextlib.redirect_stdout(stdout):
        try:
            result = call()
            code = result[1] if isinstance(result, tuple) else result
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the program crashed: count the operation as failed
            code = None
            stderr.write(traceback.format_exc())
    ledger.judge(code, stdout.getvalue().encode("utf-8"), stderr.getvalue(), what)
    return result


def measure_traced(prepared: Prepared, ledger: Ledger, seconds: float) -> tuple[dict, list, list]:
    """Alternate untraced and traced in-process operations, swapping their order each pair."""
    from taxarch import cli
    from tracer import Tracer

    tracer = Tracer()
    plain, traced = [], []

    def plain_op():
        gc.collect()
        start = time.perf_counter()
        _in_process(ledger, lambda: cli.main(prepared.argv), "in-process")
        plain.append(time.perf_counter() - start)

    def traced_op():
        gc.collect()
        result = _in_process(ledger, lambda: tracer.run(prepared.argv), "traced")
        if result is not None:
            wall, _, layers = result
            traced.append((wall, layers))

    _in_process(ledger, lambda: cli.main(prepared.argv), "in-process warm-up")
    deadline = time.perf_counter() + seconds
    while True:
        for op in (plain_op, traced_op) if len(plain) % 2 == 0 else (traced_op, plain_op):
            op()
        if time.perf_counter() >= deadline:
            break
    if not traced:
        raise RuntimeError("no traced operation completed")
    wall, layers = sorted(traced, key=lambda t: t[0])[len(traced) // 2]
    metrics = {
        **layers,
        "cli.op_s": wall,
        "cli.trace_overhead_s": statistics.median(t[0] for t in traced) - statistics.median(plain),
    }
    return metrics, plain, tracer.spans


def unit_of(name: str) -> str:
    if name.endswith("_cal"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_per_owner")):
        return "ratio"
    if name.endswith("_mb"):
        return "MiB"
    return "count"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() or None


def run(args) -> dict:
    work = STATE / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> dict:
    prepare = WORKLOADS[args.workload]
    sanity = sanity_check(work)
    # A measured run sets up again before each share of its operations, so
    # that the set-up times sample the host across the whole run, as the
    # operations do. A traced run reports no set-up time and sets up once.
    rounds = 1 if args.trace else SETUP_ROUNDS
    setup_times, setup_cals, digests, ops = [], [], set(), []
    ledger = None
    # The calibrations and the children run on one core, so that they meet
    # the same neighbours.
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cores)})
    cal_input = calibration_input()
    calibrate(cal_input)  # warm-up
    for i in range(rounds):
        before = calibrate(cal_input)
        start = time.perf_counter()
        pinned = check_pinned(work)
        prepared = prepare(work, args.seed)
        setup_times.append(time.perf_counter() - start)
        after = calibrate(cal_input)
        setup_cals.append((before[0] + after[0]) / 2)
        digests.add(json.dumps(prepared.input_sha256, sort_keys=True))
        if len(digests) != 1:
            raise RuntimeError("the same seed built different inputs")
        if ledger is None:
            ledger = Ledger(prepared)
            ledger.record(sanity, "devnullsoft sanity check")
        if not args.trace:
            measure_children(ledger, work, ops, args.seconds * (i + 1) / rounds, cal_input, after)

    record = {"setup_s_each": setup_times, "setup_cal_wall_s_each": setup_cals}
    if args.trace:
        sys.path.insert(0, str(SRC))
        import taxarch

        if Path(taxarch.__file__).resolve() != (SRC / "taxarch" / "__init__.py").resolve():
            raise RefuseToRun(f"this process imports taxarch from {taxarch.__file__}")
        metrics, record["untraced_wall_s"], record["spans"] = measure_traced(prepared, ledger, args.seconds)
    else:
        record["operations"] = ops
        # Times are reported relative to the calibration measured around each
        # operation or set-up: on a host shared with other tenants the cores
        # run up to half again slower for seconds to minutes at a time, and
        # that slows both alike (README.md).
        metrics = {
            "wall_cal": statistics.median(o["wall_s"] / o["cal_wall_s"] for o in ops),
            "cpu_cal": statistics.median(o["cpu_s"] / o["cal_cpu_s"] for o in ops),
            "peak_rss_mb": max(o["max_rss_kib"] for o in ops) / 1024,
            "ok_ratio": 1 - len(ledger.failures) / ledger.attempted,
            "setup_s": statistics.median(t / c for t, c in zip(setup_times, setup_cals)) * CAL_REFERENCE_S,
        }
        record["seconds_medians"] = {
            key: statistics.median(o[key] for o in ops) for key in ("wall_s", "cpu_s", "cal_wall_s", "cal_cpu_s")
        }
        record["seconds_medians"]["setup_s"] = statistics.median(setup_times)

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "python": sys.version.split()[0],
        "nproc": len(cores),
        "taxarch": pinned,
        "argv": ["python", "-m", "taxarch.cli", *prepared.argv],
        "input_sha256": prepared.input_sha256,
    }
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in sorted(metrics.items())},
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**provenance, **record, "failures": ledger.failures, **result}, indent=1) + "\n")

    for key, value in provenance.items():
        print(f"# {key}: {value}")
    for failure in ledger.failures:
        print(f"# FAILED operation {failure['operation']} ({failure['what']}): {'; '.join(failure['problems'])}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, value in record.get("seconds_medians", {}).items():
        print(f"# median {name}: {value:.6g}")
    print(f"# details: {path.relative_to(ROOT)}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "taxarch" / "cli.py").is_file():
        print(f"error: no taxarch source at {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except RefuseToRun as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
