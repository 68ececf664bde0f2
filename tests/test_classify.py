from collections import Counter

import pytest

from taxarch.classify import (
    EdgeClass,
    IntegrityError,
    JurisdictionFlowMatrix,
    ScopePolicy,
    aggregate,
    apply_scope_filter,
    classify_edge,
    compute_stats,
)
from taxarch.generate import fixture
from taxarch.model import ComponentStatus, DependencyEdge, OwnerKind, validate_snapshot
from taxarch.diff import run_pipeline
from taxarch.resolve import DEFAULT_CASCADE, resolve_jurisdictions

from conftest import make_component, make_owner, make_snapshot

# Independent tally of the worked example's 17 arrows by subsidiary,
# transcribed by hand (user country -> owner country per arrow).
DEVNULLSOFT_ARROWS = [
    ("DEU", "GBR"),
    ("DEU", "SWE"),
    ("SWE", "DEU"),
    ("DEU", "SWE"),
    ("DEU", "DEU"),
    ("SWE", "SWE"),
    ("SWE", "SWE"),
    ("SWE", "DEU"),
    ("SWE", "SWE"),
    ("SWE", "SWE"),
    ("DEU", "GBR"),
    ("DEU", "GBR"),
    ("DEU", "GBR"),
    ("DEU", "GBR"),
    ("GBR", "GBR"),
    ("DEU", "DEU"),
    ("DEU", "DEU"),
]


def devnullsoft_matrix():
    snapshot = fixture("devnullsoft")
    assignments = resolve_jurisdictions(list(snapshot.owners))
    return aggregate(snapshot, snapshot.owner_of(), assignments)


def test_devnullsoft_matrix_matches_manual_tally():
    expected = dict(Counter(DEVNULLSOFT_ARROWS))
    assert devnullsoft_matrix().as_dict() == expected
    assert expected == {
        ("SWE", "SWE"): 4,
        ("SWE", "DEU"): 2,
        ("DEU", "DEU"): 3,
        ("DEU", "SWE"): 2,
        ("DEU", "GBR"): 5,
        ("GBR", "GBR"): 1,
    }


def test_devnullsoft_classification_counts():
    snapshot = fixture("devnullsoft")
    owner_of = snapshot.owner_of()
    assignments = resolve_jurisdictions(list(snapshot.owners))
    jurisdiction_of = {a.owner: a.jurisdiction for a in assignments}
    classes = Counter(
        classify_edge(e, owner_of, jurisdiction_of) for e in snapshot.dependencies
    )
    assert classes[EdgeClass.CROSS_BORDER] == 9
    assert classes[EdgeClass.DOMESTIC] == 8
    assert classes[EdgeClass.UNRESOLVED] == 0


def test_classify_same_unknown_owner_is_unresolved():
    edge = DependencyEdge("a", "b")
    assert classify_edge(edge, {"a": "t", "b": "t"}, {"t": "UNKNOWN"}) is EdgeClass.UNRESOLVED


def test_classify_unknown_endpoint_is_unresolved():
    edge = DependencyEdge("a", "b")
    assert classify_edge(edge, {"a": "t1", "b": "t2"}, {"t1": "SWE", "t2": "UNKNOWN"}) is EdgeClass.UNRESOLVED


def test_classify_cross_border():
    edge = DependencyEdge("a", "b")
    assert classify_edge(edge, {"a": "t1", "b": "t2"}, {"t1": "DEU", "t2": "GBR"}) is EdgeClass.CROSS_BORDER


def test_classify_unowned_endpoint_raises():
    with pytest.raises(IntegrityError):
        classify_edge(DependencyEdge("a", "b"), {"a": "t1"}, {"t1": "DEU"})
    # Both rules, per edge and per matrix, refuse the same edge of devnullsoft with svc-01's owner taken away.
    snapshot = fixture("devnullsoft")
    owner_of = snapshot.owner_of()
    del owner_of["svc-01"]
    assignments = resolve_jurisdictions(list(snapshot.owners), DEFAULT_CASCADE)
    jurisdiction_of = {a.owner: a.jurisdiction for a in assignments}
    message = "dependency 'svc-02'->'svc-01' has an unowned endpoint"
    with pytest.raises(IntegrityError) as exc:
        classify_edge(DependencyEdge("svc-02", "svc-01"), owner_of, jurisdiction_of)
    assert str(exc.value) == message
    with pytest.raises(IntegrityError) as exc:
        aggregate(snapshot, owner_of, assignments)
    assert str(exc.value) == message


def test_scope_filter_excludes_non_production():
    snapshot = make_snapshot(
        components=[
            make_component("a"),
            make_component("b", status=ComponentStatus.EXPERIMENTAL),
            make_component("c", status=ComponentStatus.DEPRECATED),
        ],
        edges=[("a", "b"), ("c", "a")],
        owners=[make_owner("t1", "SWE")],
        ownership=[("a", "t1"), ("b", "t1"), ("c", "t1")],
    )
    scoped, report = apply_scope_filter(snapshot, snapshot.owner_of())
    assert [c.id for c in scoped.components] == ["a"]
    assert scoped.dependencies == ()
    assert report.excluded_components == (("b", "non_production"), ("c", "non_production"))
    assert report.excluded_edges == 2
    assert validate_snapshot(scoped).status == "ok"


def test_scope_filter_excludes_individual_owners():
    snapshot = make_snapshot(
        components=[make_component("a"), make_component("b")],
        edges=[("a", "b")],
        owners=[make_owner("t1", "SWE"), make_owner("p1", "SWE", kind=OwnerKind.INDIVIDUAL)],
        ownership=[("a", "t1"), ("b", "p1")],
    )
    scoped, report = apply_scope_filter(snapshot, snapshot.owner_of())
    assert [c.id for c in scoped.components] == ["a"]
    assert ("b", "individual_owner") in report.excluded_components
    assert report.component_ratio == pytest.approx(0.5)


def test_scope_filter_ratio_matches_case_scale():
    # 42 of 2560 individually owned components: exclusion ratio 1.64%.
    assert 42 / 2560 == pytest.approx(0.0164, abs=5e-5)


def test_permissive_policy_is_identity(small_snapshot):
    policy = ScopePolicy(
        include_statuses=frozenset(ComponentStatus),
        exclude_individual_owners=False,
    )
    scoped, report = apply_scope_filter(small_snapshot, small_snapshot.owner_of(), policy)
    assert scoped == small_snapshot
    assert report.excluded_components == ()
    assert report.excluded_edges == 0


def test_empty_policy_rejected():
    with pytest.raises(ValueError):
        ScopePolicy(include_statuses=frozenset())


def test_aggregate_empty_snapshot_is_zero_matrix():
    snapshot = make_snapshot([], [], [], [])
    matrix = aggregate(snapshot, {}, [])
    assert matrix.cells == ()
    assert matrix.total() == 0


def test_aggregate_weights_by_multiplicity(small_snapshot):
    snapshot = make_snapshot(
        small_snapshot.components,
        [DependencyEdge("a", "c", multiplicity=5)],
        small_snapshot.owners,
        small_snapshot.ownership,
    )
    matrix = aggregate(snapshot, snapshot.owner_of(), resolve_jurisdictions(list(snapshot.owners)))
    assert matrix.as_dict().get(("SWE", "DEU")) == 5
    assert matrix.total() == 5


def test_matrix_code_ordering_puts_unknown_last():
    matrix = JurisdictionFlowMatrix.from_counts(
        {("UNKNOWN", "SWE"): 1, ("DEU", "UNKNOWN"): 2, ("GBR", "DEU"): 3}
    )
    assert matrix.codes == ("DEU", "GBR", "SWE", "UNKNOWN")
    assert matrix.known_codes == ("DEU", "GBR", "SWE")


def test_case_study_matrix_decomposition():
    matrix = fixture("casestudy_matrix")
    stats = compute_stats(matrix)
    assert stats.total_uses == 16533
    assert stats.unresolved_count == 8097
    assert stats.domestic_count == 5902
    assert stats.cross_border_count == 2534
    assert stats.domestic_count + stats.cross_border_count + stats.unresolved_count == 16533


def test_case_study_decomposition_against_table_resummation():
    # Oracle: re-sum the published table directly, independent of
    # compute_stats' traversal.
    matrix = fixture("casestudy_matrix")
    known = [c for c in matrix.codes if c != "UNKNOWN"]
    counts = matrix.as_dict()
    diagonal = sum(counts.get((c, c), 0) for c in known)
    off_diagonal = sum(
        counts.get((a, b), 0) for a in known for b in known if a != b
    )
    unknown = matrix.total() - diagonal - off_diagonal
    stats = compute_stats(matrix)
    assert stats.domestic_count == diagonal == 2 + 164 + 19 + 4069 + 1648
    assert stats.cross_border_count == off_diagonal
    assert stats.unresolved_count == unknown


def test_stats_partition_devnullsoft():
    stats = compute_stats(devnullsoft_matrix())
    assert (stats.total_uses, stats.domestic_count, stats.cross_border_count, stats.unresolved_count) == (
        17,
        8,
        9,
        0,
    )
    assert stats.domestic_ratio + stats.cross_border_ratio + stats.unresolved_ratio == pytest.approx(1.0)


def test_stats_embeds_resolution_and_exclusions(small_snapshot):
    stats = run_pipeline(small_snapshot, DEFAULT_CASCADE, ScopePolicy()).stats
    assert stats.resolution.total == 2
    assert stats.exclusions.component_total == 3


def test_inbound_outbound_totals():
    stats = compute_stats(devnullsoft_matrix())
    assert dict(stats.outbound) == {"SWE": 6, "DEU": 10, "GBR": 1}
    assert dict(stats.inbound) == {"SWE": 6, "DEU": 5, "GBR": 6}
    assert sum(dict(stats.inbound).values()) == stats.total_uses
