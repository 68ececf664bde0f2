"""Renderers for the architecture view: DOT graph, flow table, registers,
bucketed variants, and the machine-readable report.

All emitters are deterministic: equal inputs yield byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .classify import ComplianceStats, EdgeClass, JurisdictionFlowMatrix, classify_cell
from .model import UNKNOWN, Component
from .resolve import JurisdictionAssignment

NA_LABEL = "N/A"

DEFAULT_BUCKETS = (10, 100)


class BucketSchemeError(ValueError):
    pass


@dataclass(frozen=True)
class BucketScheme:
    """Half-open count buckets [1,b1), [b1,b2), ..., [b_last,inf)."""

    boundaries: tuple[int, ...] = DEFAULT_BUCKETS

    def __post_init__(self):
        b = self.boundaries
        if not b or any(x < 2 for x in b) or any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise BucketSchemeError(f"boundaries must be strictly ascending and >= 2, got {b}")

    def label(self, count: int) -> str:
        """Bucket label for a cell count; zero maps to the empty label."""
        if count == 0:
            return ""
        edges = (1,) + self.boundaries
        for lo, hi in zip(edges, edges[1:]):
            if lo <= count < hi:
                return f"[{lo},{hi})"
        return f"[{edges[-1]},∞)"


def bucketize(matrix: JurisdictionFlowMatrix, scheme: BucketScheme = BucketScheme()) -> dict[tuple[str, str], str]:
    """Map every nonzero cell to its bucket label."""
    return {pair: scheme.label(count) for pair, count in matrix.cells}


def emit_graph(
    matrix: JurisdictionFlowMatrix,
    scheme: BucketScheme | None = None,
    include_domestic: bool = True,
) -> str:
    """Render the known-jurisdiction flow graph as a DOT document.

    Unresolved flows cannot be drawn between countries; the header
    comment states how many uses were omitted for that reason.
    """
    omitted = 0
    edges = []
    for (user_j, used_j), count in matrix.cells:
        edge_class = classify_cell(user_j, used_j)
        if edge_class is EdgeClass.UNRESOLVED:
            omitted += count
        elif include_domestic or edge_class is EdgeClass.CROSS_BORDER:
            edges.append((user_j, used_j, count))
    edges.sort()
    nodes = sorted({j for user_j, used_j, _ in edges for j in (user_j, used_j)})

    lines = ["digraph jurisdiction_flows {"]
    lines.append(f"  // unresolved uses omitted: {omitted}")
    lines.append("  rankdir=LR;")
    for node in nodes:
        lines.append(f'  "{node}";')
    for user_j, used_j, count in edges:
        label = scheme.label(count) if scheme is not None else str(count)
        lines.append(f'  "{user_j}" -> "{used_j}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _table_rows(matrix: JurisdictionFlowMatrix, scheme: BucketScheme | None) -> list[list[str]]:
    known = list(matrix.known_codes)
    labels = known + [NA_LABEL]
    codes = known + [UNKNOWN]
    counts = matrix.as_dict()
    rows = [["user"] + labels]
    for row_label, row_code in zip(labels, codes):
        cells = []
        for col_code in codes:
            count = counts.get((row_code, col_code), 0)
            cells.append(scheme.label(count) if scheme is not None else str(count))
        rows.append([row_label] + cells)
    return rows


def emit_table(
    matrix: JurisdictionFlowMatrix,
    format: str = "csv",
    scheme: BucketScheme | None = None,
) -> str:
    """Render the flow table (rows: component user, columns: component owner).

    The N/A row and column are always present, even when empty.
    """
    return _render(_table_rows(matrix, scheme), format, "table")


def _render(rows: list[list[str]], format: str, what: str) -> str:
    if format == "csv":
        return _render_csv(rows)
    if format == "markdown":
        return _render_markdown(rows)
    raise ValueError(f"unknown {what} format {format!r}")


def _csv_field(value: str) -> str:
    if any(ch in value for ch in ',"\n\r'):
        return '"' + value.replace('"', '""') + '"'
    return value


def _render_csv(rows: list[list[str]]) -> str:
    return "".join(",".join(_csv_field(f) for f in row) + "\n" for row in rows)


def _render_markdown(rows: list[list[str]]) -> str:
    header, body = rows[0], rows[1:]
    out = ["| " + " | ".join(header) + " |"]
    out.append("|" + "|".join([" --- "] * len(header)) + "|")
    for row in body:
        out.append("| " + " | ".join(row) + " |")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class RegisterTables:
    components: tuple[tuple[str, str], ...]  # (component, owner)
    owners: tuple[tuple[str, str, str], ...]  # (owner, jurisdiction, provenance)


def build_registers(
    components: tuple[Component, ...], owner_of: dict[str, str], assignments: tuple[JurisdictionAssignment, ...]
) -> RegisterTables:
    component_rows = tuple((c.id, owner_of.get(c.id, "")) for c in sorted(components, key=lambda c: c.id))
    owner_rows = tuple(
        (a.owner, NA_LABEL if a.jurisdiction == UNKNOWN else a.jurisdiction, a.provenance)
        for a in sorted(assignments, key=lambda a: a.owner)
    )
    return RegisterTables(component_rows, owner_rows)


def emit_registers(registers: RegisterTables, format: str = "csv") -> tuple[str, str]:
    """Render (component register, owner register) documents."""
    component_rows = [["component", "owner"]] + [list(r) for r in registers.components]
    owner_rows = [["owner", "jurisdiction", "provenance"]] + [list(r) for r in registers.owners]
    return _render(component_rows, format, "register"), _render(owner_rows, format, "register")


class ConsistencyError(ValueError):
    pass


def emit_report(
    stats: ComplianceStats,
    matrix: JurisdictionFlowMatrix,
    registers: RegisterTables,
    metadata: dict,
) -> str:
    """Assemble the full machine-readable compliance report.

    One document answers structure (matrix and graph source), licensing
    entities (registers), and locations (owner register jurisdictions),
    plus the configuration needed to reproduce the run.
    """
    if stats.snapshot_id is not None and matrix.snapshot_id is not None and stats.snapshot_id != matrix.snapshot_id:
        raise ConsistencyError(
            f"stats are for snapshot {stats.snapshot_id!r} but matrix is for {matrix.snapshot_id!r}"
        )
    doc = {
        "snapshot_id": matrix.snapshot_id or stats.snapshot_id,
        "metadata": {k: metadata[k] for k in sorted(metadata)},
        "stats": stats.to_dict(),
        "matrix": {
            "codes": list(matrix.codes),
            "cells": [
                {"user": user_j, "owner": used_j, "count": count}
                for (user_j, used_j), count in matrix.cells
            ],
        },
        "graph_dot": emit_graph(matrix),
        "component_register": [
            {"component": c, "owner": o} for c, o in registers.components
        ],
        "owner_register": [
            {"owner": o, "jurisdiction": j, "provenance": p} for o, j, p in registers.owners
        ],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=False) + "\n"
