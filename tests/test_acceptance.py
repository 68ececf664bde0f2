"""Acceptance gate: one test per release criterion, each printing a
PASS line (run with -s or -v to see them)."""

import json
import time
from collections import Counter

import pytest

from taxarch.classify import EdgeClass, aggregate, apply_scope_filter, classify_edge, compute_stats
from taxarch.diff import diff_snapshots
from taxarch.generate import GeneratorParams, fixture, generate
from taxarch.ingest import parse_bundle, serialize_bundle
from taxarch.model import ArchitectureSnapshot, validate_snapshot
from taxarch.resolve import resolve_jurisdictions
from taxarch.views import BucketScheme, emit_graph, emit_table

TABLE2 = {
    "DEU": {"DEU": 2, "GBR": 2, "NLD": 0, "FRA": 0, "USA": 0, "N/A": 4},
    "GBR": {"DEU": 15, "GBR": 164, "NLD": 2, "FRA": 261, "USA": 43, "N/A": 141},
    "NLD": {"DEU": 3, "GBR": 6, "NLD": 19, "FRA": 11, "USA": 5, "N/A": 8},
    "FRA": {"DEU": 24, "GBR": 108, "NLD": 21, "FRA": 4069, "USA": 850, "N/A": 1767},
    "USA": {"DEU": 14, "GBR": 24, "NLD": 15, "FRA": 1130, "USA": 1648, "N/A": 642},
    "N/A": {"DEU": 27, "GBR": 70, "NLD": 14, "FRA": 2283, "USA": 970, "N/A": 2171},
}


def parse_table(csv_text):
    lines = [line.split(",") for line in csv_text.strip().splitlines()]
    header = lines[0][1:]
    return {(row[0], col): int(v) for row in lines[1:] for col, v in zip(header, row[1:])}


def parse_dot_edges(dot):
    edges = {}
    for line in dot.splitlines():
        if "->" in line:
            left, right = line.strip().split("->")
            target = right.split("[")[0].strip().strip('"').strip()
            label = line.split('label="')[1].split('"')[0]
            edges[(left.strip().strip('"'), target)] = label
    return edges


def test_criterion_1_table2_golden():
    start = time.perf_counter()
    cells = parse_table(emit_table(fixture("casestudy_matrix")))
    elapsed = time.perf_counter() - start
    assert len(cells) == 36
    for user, row in TABLE2.items():
        for owner, count in row.items():
            assert cells[(user, owner)] == count, (user, owner)
    assert sum(cells.values()) == 16533
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: all 36 published table cells exact, sum 16533 ({elapsed:.3f}s)")


def test_criterion_2_graph_consistency():
    start = time.perf_counter()
    edges = parse_dot_edges(emit_graph(fixture("casestudy_matrix")))
    elapsed = time.perf_counter() - start
    assert len(edges) == 22
    assert len({j for pair in edges for j in pair}) == 5
    for (user, owner), label in edges.items():
        assert int(label) == TABLE2[user][owner], (user, owner)
    assert elapsed < 1.0
    print(f"\nPASS criterion 2: DOT graph has 22 edges over 5 jurisdictions, weights exact ({elapsed:.3f}s)")


def test_criterion_3_stats_decomposition():
    stats = compute_stats(fixture("casestudy_matrix"))
    assert stats.domestic_count == 5902
    assert stats.cross_border_count == 2534
    assert stats.unresolved_count == 8097
    assert stats.domestic_count + stats.cross_border_count + stats.unresolved_count == 16533
    print("\nPASS criterion 3: decomposition 5902 domestic / 2534 cross-border / 8097 unresolved")


def test_criterion_4_devnullsoft_fixture():
    start = time.perf_counter()
    snapshot = fixture("devnullsoft")
    assert validate_snapshot(snapshot).status == "ok"
    owner_of = snapshot.owner_of()
    assignments = resolve_jurisdictions(list(snapshot.owners))
    jurisdiction_of = {a.owner: a.jurisdiction for a in assignments}
    classes = Counter(classify_edge(e, owner_of, jurisdiction_of) for e in snapshot.dependencies)
    assert classes[EdgeClass.CROSS_BORDER] == 9
    assert classes[EdgeClass.DOMESTIC] == 8
    matrix = aggregate(snapshot, owner_of, assignments)
    assert matrix.as_dict() == {
        ("SWE", "SWE"): 4,
        ("SWE", "DEU"): 2,
        ("DEU", "DEU"): 3,
        ("DEU", "SWE"): 2,
        ("DEU", "GBR"): 5,
        ("GBR", "GBR"): 1,
    }
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 4: worked-example fixture validates, 9/8 split, matrix exact ({elapsed:.3f}s)")


def _pipeline(snapshot):
    scoped, _ = apply_scope_filter(snapshot, snapshot.owner_of())
    assignments = resolve_jurisdictions(list(scoped.owners))
    return scoped, aggregate(scoped, snapshot.owner_of(), assignments)


def _shuffle(snapshot, rng):
    return ArchitectureSnapshot(
        id=snapshot.id,
        taken_at=snapshot.taken_at,
        components=tuple(rng.sample(snapshot.components, len(snapshot.components))),
        dependencies=tuple(rng.sample(snapshot.dependencies, len(snapshot.dependencies))),
        owners=tuple(rng.sample(snapshot.owners, len(snapshot.owners))),
        ownership=tuple(rng.sample(snapshot.ownership, len(snapshot.ownership))),
    )


def _relabeled_union(a, b):
    def c(x):
        return "u-" + x

    from taxarch.model import Owner

    b2 = ArchitectureSnapshot(
        id="u",
        taken_at=b.taken_at,
        components=tuple(type(x)(c(x.id), x.name, x.kind, x.status) for x in b.components),
        dependencies=tuple(type(e)(c(e.user), c(e.owner_component), e.kind, e.multiplicity) for e in b.dependencies),
        owners=tuple(Owner(c(o.id), o.name, o.kind, o.location_evidence) for o in b.owners),
        ownership=tuple(type(x)(c(x.component), c(x.owner)) for x in b.ownership),
    )
    union = ArchitectureSnapshot(
        id="union",
        taken_at=a.taken_at,
        components=a.components + b2.components,
        dependencies=a.dependencies + b2.dependencies,
        owners=a.owners + b2.owners,
        ownership=a.ownership + b2.ownership,
    )
    return b2, union


def test_criterion_5_property_suite():
    import random

    start = time.perf_counter()
    cases = 200
    scheme = BucketScheme()
    for seed in range(cases):
        rng = random.Random(seed * 7919)
        params = GeneratorParams(
            component_count=5 + seed % 25,
            team_count=1 + seed % 7,
            unresolved_rate=(seed % 11) / 10,
            dependency_density=(seed % 4) * 0.6,
            seed=seed,
        )
        snapshot = generate(params)

        # Conservation and partition.
        scoped, matrix = _pipeline(snapshot)
        stats = compute_stats(matrix)
        assert matrix.total() == sum(e.multiplicity for e in scoped.dependencies)
        assert stats.domestic_count + stats.cross_border_count + stats.unresolved_count == stats.total_uses

        # Permutation invariance.
        _, matrix_shuffled = _pipeline(_shuffle(snapshot, rng))
        assert matrix_shuffled.cells == matrix.cells

        # Disjoint-union additivity.
        other = generate(GeneratorParams(component_count=4 + seed % 9, team_count=1 + seed % 3, seed=seed + 1))
        other2, union = _relabeled_union(snapshot, other)
        _, m_other = _pipeline(other2)
        _, m_union = _pipeline(union)
        expected = Counter(dict(matrix.cells)) + Counter(dict(m_other.cells))
        assert m_union.as_dict() == {k: v for k, v in expected.items() if v}

        # Diff antisymmetry and matrix-delta consistency.
        ab = diff_snapshots(snapshot, other2)
        ba = diff_snapshots(other2, snapshot)
        assert ab.components_added == ba.components_removed
        assert ab.edges_added == ba.edges_removed
        assert dict(ba.matrix_delta) == {cell: -d for cell, d in ab.matrix_delta}
        expected_delta = {
            cell: m_other.as_dict().get(cell, 0) - matrix.as_dict().get(cell, 0)
            for cell in set(matrix.as_dict()) | set(m_other.as_dict())
        }
        assert dict(ab.matrix_delta) == {k: v for k, v in expected_delta.items() if v}

        # Bucketization exhaustiveness/exclusivity over observed counts.
        for _, count in matrix.cells:
            label = scheme.label(count)
            assert label in ("[1,10)", "[10,100)", "[100,∞)")

        # Serialize/parse round trip.
        data = serialize_bundle(snapshot)
        assert serialize_bundle(parse_bundle(data)) == data

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nPASS criterion 5: {cases} randomized cases per property ({elapsed:.1f}s)")


def test_criterion_6_scale(tmp_path):
    from taxarch.cli import main

    snapshot = generate(
        GeneratorParams(component_count=10_000, team_count=300, unresolved_rate=0.3, dependency_density=10.0, seed=1)
    )
    assert len(snapshot.dependencies) == 100_000
    bundle = tmp_path / "big.json"
    bundle.write_bytes(serialize_bundle(snapshot))

    start = time.perf_counter()
    assert main(["report", str(bundle), "--out-dir", str(tmp_path / "out")]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0

    report = json.loads((tmp_path / "out" / "report.json").read_text())
    stats = report["stats"]
    assert stats["total_uses"] == 100_000
    assert stats["domestic"] + stats["cross_border"] + stats["unresolved"] == stats["total_uses"]
    print(f"\nPASS criterion 6: 10k components / 100k edges reported in {elapsed:.2f}s, conserved")


def test_criterion_7_documented_ratios():
    # Ratios recomputed from the published raw counts. The source text
    # states 41.16%, 48.94%, and "almost 70%", which do not match the
    # arithmetic below; the raw counts are authoritative here and the
    # stated percentages are recorded as known discrepancies, not targets.
    assert 140 / 336 == pytest.approx(0.4167, abs=5e-5)
    assert 8097 / 16533 == pytest.approx(0.4897, abs=5e-5)
    assert 2534 / 16533 == pytest.approx(0.1533, abs=5e-5)
    assert (2534 + 8097) / 16533 == pytest.approx(0.6430, abs=5e-5)
    stats = compute_stats(fixture("casestudy_matrix"))
    assert stats.unresolved_ratio == pytest.approx(8097 / 16533)
    assert stats.cross_border_ratio == pytest.approx(2534 / 16533)
    print("\nPASS criterion 7: computed ratios 41.67% / 48.97% / 15.33% / 64.30% asserted as computed")
