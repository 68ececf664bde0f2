"""Spans around the calls into each taxarch layer, recorded from outside.

The program is not edited: while a traced operation runs, the public
functions bound in `taxarch.cli` and `taxarch.diff`, plus
`ArchitectureSnapshot.owner_of` and `SnapshotDelta.to_json`, are replaced
by wrappers that record a span (name, start, end, parent, operation id)
and then count the call's work from its arguments and result. No
reference to them is kept, so memory is freed where the program frees it.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

# span name ("<owner>.<attribute>" of the wrapped callable) -> layer self-time metric
LAYER_OF_SPAN = {
    "cli.parse_bundle": "ingest.parse_s",
    "cli.serialize_bundle": "ingest.serialize_s",
    "cli.validate_snapshot": "model.validate_s",
    "ArchitectureSnapshot.owner_of": "model.owner_of_s",
    "cli.apply_scope_filter": "classify.scope_s",
    "diff.apply_scope_filter": "classify.scope_s",
    "cli.resolve_jurisdictions": "resolve.resolve_s",
    "diff.resolve_jurisdictions": "resolve.resolve_s",
    "cli.resolution_summary": "resolve.resolve_s",
    "cli.aggregate": "classify.aggregate_s",
    "diff.aggregate": "classify.aggregate_s",
    "cli.compute_stats": "classify.stats_s",
    "cli.build_registers": "views.emit_s",
    "cli.emit_registers": "views.emit_s",
    "cli.emit_graph": "views.emit_s",
    "cli.emit_table": "views.emit_s",
    "cli.emit_report": "views.emit_s",
    "cli.diff_snapshots": "diff.diff_s",
    "SnapshotDelta.to_json": "diff.diff_s",
    "cli.generate": "generate.generate_s",
    "cli.main": "cli.self_s",
}
TIME_METRICS = sorted(set(LAYER_OF_SPAN.values()))
COUNT_METRICS = (
    "ingest.parse_records",
    "ingest.parse_bytes",
    "ingest.serialize_bytes",
    "model.validate_findings",
    "model.owner_of_calls",
    "resolve.calls",
    "resolve.owners_attempted",
    "resolve.decided_ratio",
    "resolve.passes_per_owner",
    "classify.scope_excluded_edges",
    "classify.aggregate_edges",
    "views.emitted_bytes",
    "diff.delta_entries",
    "generate.edges",
)


class Tracer:
    """Records spans of traced operations; one instance per benchmark run."""

    def __init__(self):
        from taxarch import cli, diff, model

        self._owners = {
            "cli": cli,
            "diff": diff,
            "ArchitectureSnapshot": model.ArchitectureSnapshot,
            "SnapshotDelta": diff.SnapshotDelta,
        }
        self.spans: list[tuple] = []  # (name, start, end, parent index, operation id)
        self._counts: dict[str, float] = {}
        self._input_owners = self._decided = 0
        self._stack: list[int] = []
        self._op = 0

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self._op)
            self._count(name.split(".")[1], args, result)
            return result

        return traced

    @contextlib.contextmanager
    def _installed(self):
        targets = [(self._owners[name.split(".")[0]], name.split(".")[1], name) for name in LAYER_OF_SPAN]
        originals = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
        try:
            for obj, attr, name in targets:
                setattr(obj, attr, self._wrap(name, getattr(obj, attr)))
            yield
        finally:
            for obj, attr, fn in originals:
                setattr(obj, attr, fn)

    def run(self, argv) -> tuple[float, int, dict]:
        """Run `taxarch.cli.main(argv)` traced; return (wall seconds, exit code, layer metrics)."""
        self._op += 1
        first = len(self.spans)
        self._counts = dict.fromkeys(COUNT_METRICS, 0)
        self._input_owners = self._decided = 0
        with self._installed():
            code = self._owners["cli"].main(argv)
        ops = self.spans[first:]
        wall = ops[0][2] - ops[0][1]  # cli.main is the root span
        c = self._counts
        attempted = c["resolve.owners_attempted"]
        c["resolve.decided_ratio"] = self._decided / attempted if attempted else 0.0
        c["resolve.passes_per_owner"] = attempted / self._input_owners if self._input_owners else 0.0
        return wall, code, {**self._self_times(ops, first), **c}

    @staticmethod
    def _self_times(spans, first: int) -> dict[str, float]:
        child_time = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        times = dict.fromkeys(TIME_METRICS, 0.0)
        for i, (name, start, end, _, _) in enumerate(spans, start=first):
            times[LAYER_OF_SPAN[name]] += (end - start) - child_time[i]
        return times

    def _count(self, attr: str, args, result) -> None:
        c = self._counts
        if attr == "parse_bundle":
            c["ingest.parse_bytes"] += len(args[0])
            c["ingest.parse_records"] += sum(
                len(x) for x in (result.components, result.dependencies, result.owners, result.ownership)
            ) + sum(len(o.location_evidence) for o in result.owners)
            self._input_owners += len(result.owners)
        elif attr == "serialize_bundle":
            c["ingest.serialize_bytes"] += len(result)
        elif attr == "validate_snapshot":
            c["model.validate_findings"] += len(result.findings)
        elif attr == "owner_of":
            c["model.owner_of_calls"] += 1
        elif attr == "apply_scope_filter":
            c["classify.scope_excluded_edges"] += result[1].excluded_edges
        elif attr == "resolve_jurisdictions":
            c["resolve.calls"] += 1
            c["resolve.owners_attempted"] += len(result)
            self._decided += sum(1 for a in result if a.resolved)
        elif attr == "aggregate":
            c["classify.aggregate_edges"] += len(args[0].dependencies)
        elif attr in ("emit_graph", "emit_table", "emit_registers", "emit_report"):
            texts = result if isinstance(result, tuple) else (result,)
            c["views.emitted_bytes"] += sum(len(t.encode("utf-8")) for t in texts)
        elif attr == "diff_snapshots":
            c["diff.delta_entries"] += sum(
                len(getattr(result, f))
                for f in (
                    "components_added",
                    "components_removed",
                    "edges_added",
                    "edges_removed",
                    "multiplicity_changes",
                    "ownership_changes",
                    "jurisdiction_changes",
                    "matrix_delta",
                )
            )
        elif attr == "generate":
            c["generate.edges"] += len(result.dependencies)
