"""Renderers for the architecture view: DOT graph, flow table, registers,
bucketed variants, and the machine-readable report.

All emitters are deterministic: equal inputs yield byte-identical output.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat

from .classify import EdgeClass, JurisdictionFlowMatrix, classify_cell
from .diff import PipelineRun
from .jsontext import array, quote, strings, value
from .model import UNKNOWN

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
    rows = _table_rows(matrix, scheme)
    if format == "csv":
        return _render_csv(rows)
    if format == "markdown":
        return _render_markdown(rows)
    raise ValueError(f"unknown table format {format!r}")


# A field holding a comma, a quote or a line break is quoted.
_NEEDS_QUOTES = re.compile('[,"\n\r]').search


def _csv_field(value: str) -> str:
    if _NEEDS_QUOTES(value):
        return '"' + value.replace('"', '""') + '"'
    return value


def _render_csv(rows: Sequence[Sequence[str]]) -> str:
    """The CSV document of `rows`; one quoting test over all its fields, each field tested only when one needs it."""
    if _NEEDS_QUOTES("".join(chain.from_iterable(rows))):
        return "".join(",".join(map(_csv_field, row)) + "\n" for row in rows)
    return "\n".join(map(",".join, rows)) + "\n" if rows else ""


def _render_markdown(rows: list[list[str]]) -> str:
    header, body = rows[0], rows[1:]
    out = ["| " + " | ".join(header) + " |"]
    out.append("|" + "|".join([" --- "] * len(header)) + "|")
    for row in body:
        out.append("| " + " | ".join(row) + " |")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class RegisterTables:
    """The component register's and owner register's rows of one run, as `build_registers` reads them."""

    components: tuple[tuple[str, str], ...]  # (component, owner)
    owners: tuple[tuple[str, str, str], ...]  # (owner, jurisdiction, provenance)


def build_registers(run: PipelineRun) -> RegisterTables:
    """The run's registers: its components by id, read from the component ids column, and its owners by id."""
    ids = sorted(run.components.ids)
    component_rows = tuple(zip(ids, map(run.owner_of.get, ids, repeat(""))))
    owner_rows = tuple(
        (a.owner, NA_LABEL if a.jurisdiction == UNKNOWN else a.jurisdiction, a.provenance)
        for a in sorted(run.assignments, key=lambda a: a.owner)
    )
    return RegisterTables(component_rows, owner_rows)


def emit_registers(registers: RegisterTables) -> tuple[str, str]:
    """Render the (component register, owner register) CSV documents."""
    return (
        _render_csv((("component", "owner"), *registers.components)),
        _render_csv((("owner", "jurisdiction", "provenance"), *registers.owners)),
    )


def emit_report(run: PipelineRun, registers: RegisterTables, metadata: dict) -> str:
    """Assemble the full machine-readable compliance report of one pipeline run.

    One document answers structure (matrix and graph source), licensing
    entities (registers), and locations (owner register jurisdictions),
    plus the configuration needed to reproduce the run. `registers` is
    the run's `build_registers(run)`, passed in so a caller that also
    renders it builds it once; `metadata` holds what the run cannot know.

    The bytes are those of `json.dumps(doc, indent=2, ensure_ascii=False)`
    plus a newline, formatted by the report's fixed schema: each cell and
    register row is one f-string, and only the small parts whose schema is
    not fixed (`snapshot_id`, which may be null, `metadata` and `stats`) go
    through `json.dumps`.
    """
    matrix = run.matrix
    cells = [
        f'      {{\n        "user": {quote(user_j)},\n        "owner": {quote(used_j)},\n'
        f'        "count": {int.__repr__(count)}\n      }}'
        for (user_j, used_j), count in matrix.cells
    ]
    components = [
        f'    {{\n      "component": {quote(c)},\n      "owner": {quote(o)}\n    }}' for c, o in registers.components
    ]
    owners = [
        f'    {{\n      "owner": {quote(o)},\n      "jurisdiction": {quote(j)},\n      "provenance": {quote(p)}\n    }}'
        for o, j, p in registers.owners
    ]
    return (
        f'{{\n  "snapshot_id": {value(matrix.snapshot_id, "  ")},\n'
        f'  "metadata": {value({k: metadata[k] for k in sorted(metadata)}, "  ")},\n'
        f'  "stats": {value(run.stats.to_dict(), "  ")},\n'
        f'  "matrix": {{\n    "codes": {strings(matrix.codes, "    ")},\n    "cells": {array(cells, "    ")}\n  }},\n'
        f'  "graph_dot": {quote(emit_graph(matrix))},\n'
        f'  "component_register": {array(components, "  ")},\n'
        f'  "owner_register": {array(owners, "  ")}\n}}\n'
    )
