"""The fixed-schema writers of `report.json` and the CSV views write the
bytes of the generic rules they replaced: `json.dumps(doc, indent=2,
ensure_ascii=False)` plus a newline of the document the old `emit_report`
built, and a CSV field quoted when it holds a comma, a quote or a line
break. (`delta.json` has no such writer: `SnapshotDelta.to_json` is that
`json.dumps` call of `to_dict()`, and `test_golden.py` pins its bytes.)"""

import json
from datetime import date

from hypothesis import given, settings
from hypothesis import strategies as st

from taxarch.classify import ExclusionReport, JurisdictionFlowMatrix, compute_stats
from taxarch.diff import PipelineRun
from taxarch.model import UNKNOWN, Component, ComponentKind, ComponentStatus
from taxarch.resolve import JurisdictionAssignment, resolution_summary
from taxarch.views import _render_csv, build_registers, emit_graph, emit_report

# Text that JSON must escape (quote, backslash, control characters), text it writes as is although
# JavaScript would not (U+2028), non-ASCII text, and CSV's special characters.
odd_texts = st.text(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\r", "\t", ",", " ", "é", "中", "😀", "a", " "])
    | st.characters(exclude_categories=("Cs",)),
    max_size=8,
)
codes = st.sampled_from(["SWE", "DEU", UNKNOWN]) | odd_texts
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | odd_texts,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(odd_texts, children, max_size=3),
    max_leaves=8,
)


def reference_report(run, registers, metadata) -> str:
    """`report.json` as the generic writer made it: the document as a dict, handed to json.dumps."""
    matrix = run.matrix
    doc = {
        "snapshot_id": matrix.snapshot_id,
        "metadata": {k: metadata[k] for k in sorted(metadata)},
        "stats": run.stats.to_dict(),
        "matrix": {
            "codes": list(matrix.codes),
            "cells": [{"user": user_j, "owner": used_j, "count": count} for (user_j, used_j), count in matrix.cells],
        },
        "graph_dot": emit_graph(matrix),
        "component_register": [{"component": c, "owner": o} for c, o in registers.components],
        "owner_register": [{"owner": o, "jurisdiction": j, "provenance": p} for o, j, p in registers.owners],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


@st.composite
def pipeline_runs(draw):
    """A run whose ids and codes hold odd text: matrix-only (empty registers), or with exclusions and resolution."""
    counts = draw(st.dictionaries(st.tuples(codes, codes), st.integers(min_value=0, max_value=10**9), max_size=6))
    matrix = JurisdictionFlowMatrix.from_counts(counts, draw(st.none() | odd_texts))
    if draw(st.booleans()):
        return PipelineRun(matrix, compute_stats(matrix))
    excluded = draw(st.lists(st.tuples(odd_texts, st.sampled_from(["non_production", "individual_owner"])), max_size=3))
    exclusions = ExclusionReport(
        tuple(excluded),
        excluded_edges=draw(st.integers(min_value=0, max_value=10**6)),
        component_total=draw(st.integers(min_value=0, max_value=10**6)),
        edge_total=draw(st.integers(min_value=0, max_value=10**6)),
    )
    resolvers = st.none() | st.sampled_from(["explicit_assignment", "member_majority(0.75)"]) | odd_texts
    owners = draw(st.lists(odd_texts, unique=True, max_size=5))
    assignments = tuple(JurisdictionAssignment(o, draw(codes), draw(resolvers)) for o in owners)
    component_ids = draw(st.lists(odd_texts, unique=True, max_size=5))
    components = tuple(Component(c, c, ComponentKind.LIBRARY, ComponentStatus.PRODUCTION) for c in component_ids)
    owned_by = st.sampled_from(owners) | odd_texts if owners else odd_texts
    owner_of = {c: draw(owned_by) for c in component_ids if draw(st.booleans())}  # a component may have no owner
    stats = compute_stats(matrix, exclusions, resolution_summary(list(assignments)))
    return PipelineRun(matrix, stats, date(2023, 6, 30), components, owner_of, assignments)


@settings(max_examples=100, deadline=None)
@given(pipeline_runs(), st.dictionaries(odd_texts, json_values, max_size=4))
def test_report_writer_writes_the_bytes_of_json_dumps(run, metadata):
    registers = build_registers(run)
    assert emit_report(run, registers, metadata) == reference_report(run, registers, metadata)


def reference_csv_field(value: str) -> str:
    if any(ch in value for ch in ',"\n\r'):
        return '"' + value.replace('"', '""') + '"'
    return value


# Plain fields beside odd ones, so that documents with no field to quote, and with only one, are drawn too.
csv_fields = st.text("abc019-_. ", max_size=6) | odd_texts


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(csv_fields, min_size=1, max_size=4), max_size=4))
def test_csv_fields_are_quoted_as_the_character_rule_quotes_them(rows):
    assert _render_csv(rows) == "".join(",".join(map(reference_csv_field, row)) + "\n" for row in rows)
