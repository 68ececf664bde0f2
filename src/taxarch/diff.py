"""The per-snapshot pipeline pass, and the comparison of two snapshots.

`run_pipeline` is the one scope -> resolve -> aggregate -> stats pass
that `report`, `stats` and `diff` share. Regular snapshotting turns the
dated view into a series; the delta shows what moved between two
reporting dates, including cell-wise changes in the jurisdiction flow
matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date

from .classify import ComplianceStats, JurisdictionFlowMatrix, ScopePolicy, aggregate, apply_scope_filter, compute_stats
from .model import ArchitectureSnapshot, Component
from .resolve import DEFAULT_CASCADE, JurisdictionAssignment, Resolver, resolution_summary, resolve_jurisdictions


@dataclass(frozen=True)
class PipelineRun:
    """One input through scope -> resolve -> aggregate -> stats: in-scope components, the input's owner map.

    A matrix-only input is a run with no components or assignments, so its registers are empty.
    """

    matrix: JurisdictionFlowMatrix
    stats: ComplianceStats
    taken_at: date | None = None
    components: tuple[Component, ...] = ()
    owner_of: dict[str, str] = field(default_factory=dict)
    assignments: tuple[JurisdictionAssignment, ...] = ()


def run_pipeline(snapshot: ArchitectureSnapshot, cascade: tuple[Resolver, ...], policy: ScopePolicy) -> PipelineRun:
    """Build `owner_of` once, then scope, resolve every owner (scoping keeps them all) and aggregate."""
    owner_of = snapshot.owner_of()
    scoped, exclusions = apply_scope_filter(snapshot, owner_of, policy)
    assignments = resolve_jurisdictions(list(snapshot.owners), cascade)
    matrix = aggregate(scoped, owner_of, assignments)
    stats = compute_stats(matrix, exclusions, resolution_summary(assignments))
    return PipelineRun(matrix, stats, snapshot.taken_at, scoped.components, owner_of, tuple(assignments))


@dataclass(frozen=True)
class SnapshotDelta:
    snapshot_a: str
    snapshot_b: str
    components_added: tuple[str, ...]
    components_removed: tuple[str, ...]
    edges_added: tuple[tuple[str, str, str], ...]
    edges_removed: tuple[tuple[str, str, str], ...]
    multiplicity_changes: tuple[tuple[tuple[str, str, str], int], ...]  # edge -> signed delta
    ownership_changes: tuple[tuple[str, str, str], ...]  # (component, old owner, new owner)
    jurisdiction_changes: tuple[tuple[str, str, str], ...]  # (owner, old, new)
    matrix_delta: tuple[tuple[tuple[str, str], int], ...]  # cell -> signed delta
    coupled_change_count: int

    @property
    def empty(self) -> bool:
        return not (
            self.components_added
            or self.components_removed
            or self.edges_added
            or self.edges_removed
            or self.multiplicity_changes
            or self.ownership_changes
            or self.jurisdiction_changes
            or self.matrix_delta
        )

    def to_dict(self) -> dict:
        return {
            "snapshot_a": self.snapshot_a,
            "snapshot_b": self.snapshot_b,
            "components_added": list(self.components_added),
            "components_removed": list(self.components_removed),
            "edges_added": [list(e) for e in self.edges_added],
            "edges_removed": [list(e) for e in self.edges_removed],
            "multiplicity_changes": [
                {"edge": list(edge), "delta": delta} for edge, delta in self.multiplicity_changes
            ],
            "ownership_changes": [
                {"component": c, "old_owner": old, "new_owner": new}
                for c, old, new in self.ownership_changes
            ],
            "jurisdiction_changes": [
                {"owner": o, "old": old, "new": new} for o, old, new in self.jurisdiction_changes
            ],
            "matrix_delta": [
                {"user": user_j, "owner": used_j, "delta": delta}
                for (user_j, used_j), delta in self.matrix_delta
            ],
            "coupled_change_count": self.coupled_change_count,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, ensure_ascii=False) + "\n"


def _edge_map(snapshot: ArchitectureSnapshot) -> dict[tuple[str, str, str], int]:
    return {(e.user, e.owner_component, e.kind.value): e.multiplicity for e in snapshot.dependencies}


def _changed(a: dict, b: dict) -> tuple[tuple, ...]:
    """(key, old, new) for each key of both mappings whose value differs, sorted by key."""
    return tuple((k, a[k], b[k]) for k in sorted(a.keys() & b.keys()) if a[k] != b[k])


def diff_snapshots(
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

