import json

import pytest

from taxarch.classify import JurisdictionFlowMatrix, compute_stats
from taxarch.generate import fixture
from taxarch.resolve import resolve_jurisdictions, resolution_summary
from taxarch.views import (
    BucketScheme,
    BucketSchemeError,
    ConsistencyError,
    bucketize,
    build_registers,
    emit_graph,
    emit_registers,
    emit_report,
    emit_table,
)

from test_classify import devnullsoft_matrix


def dot_edges(dot: str) -> dict[tuple[str, str], str]:
    edges = {}
    for line in dot.splitlines():
        line = line.strip()
        if "->" in line:
            left, right = line.split("->")
            target, label_part = right.split("[label=")
            label = label_part.split('"')[1]
            edges[(left.strip().strip('"'), target.strip().strip('"'))] = label
    return edges


def test_graph_case_study_has_22_edges_over_5_nodes():
    matrix = fixture("casestudy_matrix")
    dot = emit_graph(matrix)
    edges = dot_edges(dot)
    assert len(edges) == 22
    nodes = [line.strip() for line in dot.splitlines() if line.strip().endswith('";')]
    assert len(nodes) == 5
    assert edges[("USA", "FRA")] == "1130"
    assert edges[("FRA", "FRA")] == "4069"
    assert "UNKNOWN" not in dot and "N/A" not in dot


def test_graph_edges_match_table_cells_exactly():
    matrix = fixture("casestudy_matrix")
    edges = dot_edges(emit_graph(matrix))
    expected = {
        (u, o): str(count)
        for (u, o), count in matrix.cells
        if "UNKNOWN" not in (u, o)
    }
    assert edges == expected


def test_graph_omitted_count_comment():
    dot = emit_graph(fixture("casestudy_matrix"))
    assert "// unresolved uses omitted: 8097" in dot


def test_graph_without_domestic_self_loops():
    edges = dot_edges(emit_graph(fixture("casestudy_matrix"), include_domestic=False))
    assert len(edges) == 17
    assert all(u != o for u, o in edges)


def test_zero_matrix_gives_empty_graph():
    dot = emit_graph(JurisdictionFlowMatrix.from_counts({}))
    assert dot_edges(dot) == {}
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")


def test_graph_is_deterministic():
    matrix = fixture("casestudy_matrix")
    assert emit_graph(matrix) == emit_graph(matrix)


def test_bucketed_graph_labels():
    edges = dot_edges(emit_graph(fixture("casestudy_matrix"), scheme=BucketScheme()))
    assert edges[("USA", "FRA")] == "[100,∞)"
    assert edges[("DEU", "GBR")] == "[1,10)"
    assert set(edges.values()) <= {"[1,10)", "[10,100)", "[100,∞)"}


def test_bucketize_boundaries():
    scheme = BucketScheme()
    assert scheme.label(1130) == "[100,∞)"
    assert scheme.label(10) == "[10,100)"
    assert scheme.label(100) == "[100,∞)"
    assert scheme.label(9) == "[1,10)"
    assert scheme.label(1) == "[1,10)"
    assert scheme.label(0) == ""


def test_bucketize_exhaustive_and_exclusive():
    scheme = BucketScheme((5, 50, 500))
    labels = {f"[1,5)", "[5,50)", "[50,500)", "[500,∞)"}
    for n in range(1, 2000):
        assert scheme.label(n) in labels


def test_bucketize_matrix():
    labels = bucketize(devnullsoft_matrix())
    assert labels[("DEU", "GBR")] == "[1,10)"


def test_invalid_bucket_scheme_rejected():
    for bad in [(), (1,), (100, 10), (10, 10)]:
        with pytest.raises(BucketSchemeError):
            BucketScheme(bad)


def table_cells(csv_text: str) -> dict[tuple[str, str], int]:
    lines = [line.split(",") for line in csv_text.strip().splitlines()]
    header = lines[0][1:]
    cells = {}
    for row in lines[1:]:
        for col, value in zip(header, row[1:]):
            cells[(row[0], col)] = int(value)
    return cells


def test_table_case_study_equals_published_cells():
    cells = table_cells(emit_table(fixture("casestudy_matrix")))
    assert len(cells) == 36
    assert sum(cells.values()) == 16533
    published = {
        "DEU": {"DEU": 2, "GBR": 2, "NLD": 0, "FRA": 0, "USA": 0, "N/A": 4},
        "GBR": {"DEU": 15, "GBR": 164, "NLD": 2, "FRA": 261, "USA": 43, "N/A": 141},
        "NLD": {"DEU": 3, "GBR": 6, "NLD": 19, "FRA": 11, "USA": 5, "N/A": 8},
        "FRA": {"DEU": 24, "GBR": 108, "NLD": 21, "FRA": 4069, "USA": 850, "N/A": 1767},
        "USA": {"DEU": 14, "GBR": 24, "NLD": 15, "FRA": 1130, "USA": 1648, "N/A": 642},
        "N/A": {"DEU": 27, "GBR": 70, "NLD": 14, "FRA": 2283, "USA": 970, "N/A": 2171},
    }
    for user, row in published.items():
        for owner, count in row.items():
            assert cells[(user, owner)] == count, (user, owner)


def test_table_devnullsoft_has_na_row_and_column():
    cells = table_cells(emit_table(devnullsoft_matrix()))
    labels = {u for u, _ in cells}
    assert labels == {"DEU", "GBR", "SWE", "N/A"}
    assert all(cells[("N/A", c)] == 0 for c in labels)
    assert all(cells[(c, "N/A")] == 0 for c in labels)
    assert cells[("DEU", "GBR")] == 5


def test_empty_matrix_table_is_na_only():
    text = emit_table(JurisdictionFlowMatrix.from_counts({}))
    assert text == "user,N/A\nN/A,0\n"


def test_markdown_table():
    text = emit_table(devnullsoft_matrix(), "markdown")
    assert text.splitlines()[0].startswith("| user |")
    assert "| DEU |" in text


def test_registers_devnullsoft():
    snapshot = fixture("devnullsoft")
    assignments = resolve_jurisdictions(list(snapshot.owners))
    components_csv, owners_csv = emit_registers(build_registers(snapshot.components, snapshot.owner_of(), assignments))
    assert len(components_csv.strip().splitlines()) == 19  # header + 18
    assert len(owners_csv.strip().splitlines()) == 7  # header + 6
    assert owners_csv.splitlines()[0] == "owner,jurisdiction,provenance"
    assert "team-ab-apps,SWE,explicit_assignment" in owners_csv


def test_registers_provenance_echoes_configuration():
    from taxarch.model import EvidenceSource, LocationEvidence
    from conftest import TODAY, make_owner, make_component, make_snapshot

    owner = make_owner(
        "t",
        evidence=[LocationEvidence(EvidenceSource.MEMBER_LOCATIONS, ("SWE",) * 4, TODAY)],
    )
    snapshot = make_snapshot([make_component("a")], [], [owner], [("a", "t")])
    assignments = resolve_jurisdictions([owner])
    _, owners_csv = emit_registers(build_registers(snapshot.components, snapshot.owner_of(), assignments))
    assert "t,SWE,member_majority(0.75)" in owners_csv


def test_registers_empty_snapshot_header_only():
    components_csv, owners_csv = emit_registers(build_registers((), {}, []))
    assert components_csv == "component,owner\n"
    assert owners_csv == "owner,jurisdiction,provenance\n"


def report_inputs():
    snapshot = fixture("devnullsoft")
    assignments = resolve_jurisdictions(list(snapshot.owners))
    matrix = devnullsoft_matrix()
    stats = compute_stats(matrix, resolution=resolution_summary(assignments))
    registers = build_registers(snapshot.components, snapshot.owner_of(), assignments)
    return stats, matrix, registers


def test_report_devnullsoft_totals():
    stats, matrix, registers = report_inputs()
    doc = json.loads(emit_report(stats, matrix, registers, {"tool_version": "x"}))
    assert doc["stats"]["total_uses"] == 17
    assert doc["stats"]["cross_border"] == 9
    assert len(doc["component_register"]) == 18
    assert doc["snapshot_id"] == "devnullsoft-2023Q2"


def test_report_is_byte_identical_across_runs():
    stats, matrix, registers = report_inputs()
    metadata = {"tool_version": "x", "cascade": ["explicit_assignment"]}
    assert emit_report(stats, matrix, registers, metadata) == emit_report(stats, matrix, registers, metadata)


def test_report_mismatched_snapshot_ids_rejected():
    stats, _, registers = report_inputs()
    other = fixture("casestudy_matrix")
    with pytest.raises(ConsistencyError):
        emit_report(stats, other, registers, {})
