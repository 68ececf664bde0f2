import json

import taxarch.diff
from taxarch.classify import aggregate, apply_scope_filter
from taxarch.diff import diff_snapshots
from taxarch.generate import fixture
from taxarch.model import (
    ArchitectureSnapshot,
    ComponentStatus,
    DependencyEdge,
    OwnershipAssignment,
)
from taxarch.resolve import DEFAULT_CASCADE, resolve_jurisdictions

from conftest import make_component, make_owner, make_snapshot


def test_diff_identity_is_empty():
    snapshot = fixture("devnullsoft")
    delta = diff_snapshots(snapshot, snapshot)
    assert delta.empty
    assert delta.matrix_delta == ()
    assert delta.coupled_change_count == 0


def test_diff_added_component_and_edge():
    a = fixture("devnullsoft")
    new_component = make_component("svc-new")
    b = ArchitectureSnapshot(
        id="devnullsoft-next",
        taken_at=a.taken_at,
        components=a.components + (new_component,),
        dependencies=a.dependencies + (DependencyEdge("svc-70", "svc-new"),),
        owners=a.owners + (make_owner("team-gmbh-new", "DEU"),),
        ownership=a.ownership + (OwnershipAssignment("svc-new", "team-gmbh-new"),),
    )
    delta = diff_snapshots(a, b)
    assert delta.components_added == ("svc-new",)
    assert delta.components_removed == ()
    assert delta.edges_added == (("svc-70", "svc-new", "use"),)
    # svc-70 is GBR-owned, the new component DEU-owned.
    assert dict(delta.matrix_delta) == {("GBR", "DEU"): 1}


def test_diff_jurisdiction_change_matches_incident_uses():
    a = fixture("devnullsoft")
    # Move the UK team's explicit evidence away entirely: unresolved.
    owners = tuple(
        make_owner(o.id, None) if o.id == "team-ltd-commerce" else o for o in a.owners
    )
    b = ArchitectureSnapshot("b", a.taken_at, a.components, a.dependencies, owners, a.ownership)
    delta = diff_snapshots(a, b)
    assert delta.jurisdiction_changes == (("team-ltd-commerce", "GBR", "UNKNOWN"),)

    def stats_of(s):
        from taxarch.classify import compute_stats

        scoped, _ = apply_scope_filter(s, s.owner_of())
        return compute_stats(aggregate(scoped, s.owner_of(), resolve_jurisdictions(list(scoped.owners))))

    # Incident uses of the UK team: 5 inbound from DEU plus its internal edge.
    assert stats_of(b).unresolved_count - stats_of(a).unresolved_count == 6


def test_diff_multiplicity_change_reported_as_delta():
    a = fixture("devnullsoft")
    deps = tuple(
        DependencyEdge(e.user, e.owner_component, e.kind, 3)
        if (e.user, e.owner_component) == ("svc-41", "svc-71")
        else e
        for e in a.dependencies
    )
    b = ArchitectureSnapshot("b", a.taken_at, a.components, deps, a.owners, a.ownership)
    delta = diff_snapshots(a, b)
    assert delta.multiplicity_changes == ((("svc-41", "svc-71", "use"), 2),)
    assert dict(delta.matrix_delta) == {("DEU", "GBR"): 2}


def test_diff_antisymmetry():
    a = fixture("devnullsoft")
    b = ArchitectureSnapshot(
        id="b",
        taken_at=a.taken_at,
        components=a.components[:-1],
        dependencies=tuple(e for e in a.dependencies if "svc-72" not in (e.user, e.owner_component)),
        owners=a.owners,
        ownership=tuple(o for o in a.ownership if o.component != "svc-72"),
    )
    ab = diff_snapshots(a, b)
    ba = diff_snapshots(b, a)
    assert ab.components_added == ba.components_removed
    assert ab.components_removed == ba.components_added
    assert ab.edges_added == ba.edges_removed
    assert ab.edges_removed == ba.edges_added
    assert dict(ba.matrix_delta) == {cell: -d for cell, d in ab.matrix_delta}


def test_diff_matrix_delta_consistency():
    a = fixture("devnullsoft")
    b = ArchitectureSnapshot(
        id="b",
        taken_at=a.taken_at,
        components=a.components,
        dependencies=a.dependencies[:-2],
        owners=a.owners,
        ownership=a.ownership,
    )
    delta = diff_snapshots(a, b)

    def matrix_of(s):
        scoped, _ = apply_scope_filter(s, s.owner_of())
        return aggregate(scoped, s.owner_of(), resolve_jurisdictions(list(scoped.owners)))

    ma, mb = matrix_of(a).as_dict(), matrix_of(b).as_dict()
    expected = {
        cell: mb.get(cell, 0) - ma.get(cell, 0)
        for cell in set(ma) | set(mb)
        if mb.get(cell, 0) != ma.get(cell, 0)
    }
    assert dict(delta.matrix_delta) == expected


def test_diff_permutation_invariant():
    a = fixture("devnullsoft")
    shuffled = ArchitectureSnapshot(
        id=a.id,
        taken_at=a.taken_at,
        components=tuple(reversed(a.components)),
        dependencies=tuple(reversed(a.dependencies)),
        owners=tuple(reversed(a.owners)),
        ownership=tuple(reversed(a.ownership)),
    )
    b = make_snapshot([], [], [], [], snapshot_id=a.id)
    assert diff_snapshots(a, b) == diff_snapshots(shuffled, b)


def test_coupled_change_count():
    a = fixture("devnullsoft")
    # Reassign svc-00 to another team and change its edge set.
    ownership = tuple(
        OwnershipAssignment("svc-00", "team-ab-apps") if o.component == "svc-00" else o
        for o in a.ownership
    )
    deps = a.dependencies + (DependencyEdge("svc-00", "svc-30"),)
    b = ArchitectureSnapshot("b", a.taken_at, a.components, deps, a.owners, ownership)
    delta = diff_snapshots(a, b)
    assert delta.ownership_changes == (("svc-00", "team-ab-platform", "team-ab-apps"),)
    assert delta.coupled_change_count == 1


def test_delta_json_round_trip_and_determinism():
    a = fixture("devnullsoft")
    b = make_snapshot([], [], [], [], snapshot_id="empty")
    delta = diff_snapshots(a, b)
    text = delta.to_json()
    assert text == diff_snapshots(a, b).to_json()
    doc = json.loads(text)
    assert doc["snapshot_a"] == a.id
    assert doc["components_removed"] == sorted(c.id for c in a.components)


def test_diff_resolves_each_snapshot_once(monkeypatch):
    calls = []

    def counting(owners, cascade=DEFAULT_CASCADE):
        calls.append(len(owners))
        return resolve_jurisdictions(owners, cascade)

    monkeypatch.setattr(taxarch.diff, "resolve_jurisdictions", counting)
    snapshot = fixture("devnullsoft")
    diff_snapshots(snapshot, snapshot)
    assert calls == [len(snapshot.owners)] * 2


def test_diff_reports_jurisdiction_change_of_out_of_scope_owner():
    a = make_snapshot(
        components=[make_component("x"), make_component("y"), make_component("z", ComponentStatus.EXPERIMENTAL)],
        edges=[("x", "y")],
        owners=[make_owner("t1", "SWE"), make_owner("t2", "DEU")],
        ownership=[("x", "t1"), ("y", "t1"), ("z", "t2")],
    )
    owners = (a.owners[0], make_owner("t2", "FRA"))
    b = ArchitectureSnapshot("b", a.taken_at, a.components, a.dependencies, owners, a.ownership)
    delta = diff_snapshots(a, b)
    assert delta.jurisdiction_changes == (("t2", "DEU", "FRA"),)
    assert delta.matrix_delta == ()
