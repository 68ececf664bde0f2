"""The pre-change `diff_snapshots`, kept as the reference the change-sized
comparison of `taxarch.diff` is compared against: it builds full key sets and
sorts every common key before picking the changed ones."""

from taxarch.classify import ScopePolicy
from taxarch.diff import SnapshotDelta, run_pipeline
from taxarch.model import ArchitectureSnapshot
from taxarch.resolve import DEFAULT_CASCADE, Resolver


def _edge_map(snapshot: ArchitectureSnapshot) -> dict[tuple[str, str, str], int]:
    return {(e.user, e.owner_component, e.kind.value): e.multiplicity for e in snapshot.dependencies}


def _changed(a: dict, b: dict) -> tuple[tuple, ...]:
    """(key, old, new) for each key of both mappings whose value differs, sorted by key."""
    return tuple((k, a[k], b[k]) for k in sorted(a.keys() & b.keys()) if a[k] != b[k])


def reference_diff_snapshots(
    a: ArchitectureSnapshot,
    b: ArchitectureSnapshot,
    cascade: tuple[Resolver, ...] = DEFAULT_CASCADE,
    policy: ScopePolicy = ScopePolicy(),
) -> SnapshotDelta:
    """Compare two snapshots under one cascade and scope policy."""
    a_components = {c.id for c in a.components}
    b_components = {c.id for c in b.components}

    a_edges = _edge_map(a)
    b_edges = _edge_map(b)
    edges_added = sorted(set(b_edges) - set(a_edges))
    edges_removed = sorted(set(a_edges) - set(b_edges))
    multiplicity_changes = tuple((edge, new - old) for edge, old, new in _changed(a_edges, b_edges))

    run_a, run_b = (run_pipeline(s, cascade, policy) for s in (a, b))
    ownership_changes = _changed(run_a.owner_of, run_b.owner_of)
    jurisdiction_changes = _changed(*({x.owner: x.jurisdiction for x in r.assignments} for r in (run_a, run_b)))
    cell_deltas = run_b.matrix.as_dict()
    for cell, count in run_a.matrix.cells:
        cell_deltas[cell] = cell_deltas.get(cell, 0) - count
    matrix_delta = tuple(sorted((cell, d) for cell, d in cell_deltas.items() if d))

    # A component counts as a coupled change when its owner changed and
    # its incident edge set changed between the two snapshots.
    touched: set[str] = set()
    for user, owner_component, _ in list(edges_added) + list(edges_removed):
        touched.update((user, owner_component))
    for (user, owner_component, _), _delta in multiplicity_changes:
        touched.update((user, owner_component))
    reassigned = {cid for cid, _, _ in ownership_changes}
    coupled = len(reassigned & touched)

    return SnapshotDelta(
        snapshot_a=a.id,
        snapshot_b=b.id,
        components_added=tuple(sorted(b_components - a_components)),
        components_removed=tuple(sorted(a_components - b_components)),
        edges_added=tuple(edges_added),
        edges_removed=tuple(edges_removed),
        multiplicity_changes=multiplicity_changes,
        ownership_changes=ownership_changes,
        jurisdiction_changes=jurisdiction_changes,
        matrix_delta=matrix_delta,
        coupled_change_count=coupled,
    )

