"""The per-snapshot pipeline pass, and the comparison of two snapshots.

`run_pipeline` is the one scope -> resolve -> aggregate -> stats pass
that `report`, `stats` and `diff` share. Regular snapshotting turns the
dated view into a series; the delta shows what moved between two
reporting dates, including cell-wise changes in the jurisdiction flow
matrix.

The comparison works in proportion to the churn where it can. It builds
one set of edge rows, A's: B's rows are tested against it and then
removed from it, so only the rows that differ are keyed, whatever order
either table lists its rows in. Each snapshot is resolved as of its own
date, from its owners without the evidence dated after it. B re-resolves
only its owners whose record in that view is new or differs from A's under
the same id; every other owner of B keeps A's assignment.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from datetime import date
from itertools import filterfalse
from operator import attrgetter

from .classify import ComplianceStats, JurisdictionFlowMatrix, ScopePolicy, aggregate, apply_scope_filter, compute_stats
from .model import ArchitectureSnapshot, Component, ComponentTable, Owner, as_table, owners_as_of
from .resolve import DEFAULT_CASCADE, JurisdictionAssignment, Resolver, resolution_summary, resolve_jurisdictions


_ID = attrgetter("id")


@dataclass(frozen=True)
class PipelineRun:
    """One input through scope -> resolve -> aggregate -> stats: in-scope components, the input's owner map.

    `owners` is the owner view the run resolved, `owners_as_of` of the snapshot, in the order of `assignments`.
    A matrix-only input is a run with no components, owners or assignments, so its registers are empty. The
    components are stored by the snapshot's rule, `as_table`, as the `ComponentTable` whose columns `build_registers`
    reads.
    """

    matrix: JurisdictionFlowMatrix
    stats: ComplianceStats
    taken_at: date | None = None
    components: tuple[Component, ...] = ()
    owner_of: dict[str, str] = field(default_factory=dict)
    assignments: tuple[JurisdictionAssignment, ...] = ()
    owners: tuple[Owner, ...] = ()

    def __post_init__(self):
        components = as_table(self.components, ComponentTable, "PipelineRun has ", "components")
        object.__setattr__(self, "components", components)


def run_pipeline(
    snapshot: ArchitectureSnapshot,
    cascade: tuple[Resolver, ...],
    policy: ScopePolicy,
    earlier: Mapping[str, tuple[Owner, JurisdictionAssignment]] | None = None,
) -> PipelineRun:
    """Build `owner_of` once, then scope, resolve every owner (scoping keeps them all) and aggregate.

    Owners are resolved as of the snapshot's `taken_at`, from `owners_as_of(snapshot)`: evidence dated later
    decides nothing here, as `validate_snapshot` judges conflicts in the same view. `earlier` is an earlier
    snapshot's resolution under the same cascade: owner id -> (its `Owner` record in that snapshot's view, its
    assignment). An owner whose record in this view equals the one held there under its id takes that assignment;
    only the rest, the owners whose records changed or are new, go to `resolve_jurisdictions`, in one call.
    Expects a snapshot that `validate_snapshot` accepts; any other may raise or be miscounted.
    """
    owner_of = snapshot.owner_of()
    scoped, exclusions = apply_scope_filter(snapshot, owner_of, policy)
    owners = tuple(sorted(owners_as_of(snapshot), key=_ID))
    earlier = earlier or {}
    kept = [prior[1] if (prior := earlier.get(o.id)) is not None and prior[0] == o else None for o in owners]
    fresh = iter(resolve_jurisdictions([o for o, x in zip(owners, kept) if x is None], cascade))
    assignments = [x if x is not None else next(fresh) for x in kept]
    matrix = aggregate(scoped, owner_of, assignments)
    stats = compute_stats(matrix, exclusions, resolution_summary(assignments))
    return PipelineRun(matrix, stats, snapshot.taken_at, scoped.components, owner_of, tuple(assignments), owners)


@dataclass(frozen=True)
class SnapshotDelta:
    """What changed between two snapshots: components, edges, ownership, owner jurisdictions and matrix cells."""

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
        """`delta.json`: `to_dict()`, the one schema of the delta, as `json.dumps(indent=2, ensure_ascii=False)`
        writes it, plus a newline."""
        return json.dumps(self.to_dict(), indent=2, ensure_ascii=False) + "\n"


def _edge_rows(snapshot: ArchitectureSnapshot) -> Iterator[tuple]:
    """The (user, used, kind, multiplicity) rows of the snapshot's edge table, zipped from its columns."""
    edges = snapshot.dependencies
    return zip(edges.users, edges.used, edges.kinds, edges.multiplicities)


def _edge_map(rows: Iterable[tuple]) -> dict[tuple[str, str, str], int]:
    """(user, used, kind value) -> multiplicity of some differing rows; `_value_` is the member's plain attribute."""
    return {(user, used, kind._value_): m for user, used, kind, m in rows}


_ABSENT = object()


def _delta(a: dict, b: dict) -> tuple[tuple, tuple, tuple]:
    """The one comparison of two keyed maps: (added keys, removed keys, (key, old, new) rows), each sorted by key.

    One pass over each map hashes each key once against the other; only differing keys and rows are sorted."""
    removed, changed = [], []
    for k, old in a.items():
        new = b.get(k, _ABSENT)
        if new is _ABSENT:
            removed.append(k)
        elif new != old:
            changed.append((k, old, new))
    added = [k for k in b if k not in a]
    return tuple(sorted(added)), tuple(sorted(removed)), tuple(sorted(changed))


def diff_snapshots(
    a: ArchitectureSnapshot,
    b: ArchitectureSnapshot,
    cascade: tuple[Resolver, ...] = DEFAULT_CASCADE,
    policy: ScopePolicy = ScopePolicy(),
) -> SnapshotDelta:
    """Compare two snapshots under one cascade and scope policy.

    Each snapshot is resolved as of its own `taken_at`. A's owners are all resolved; B's owners are resolved only
    where their records as of B's date are new or differ from A's as of A's date. So an owner whose record is
    unchanged but holds evidence dated after A's date and not after B's is resolved again.
    Expects two snapshots that `validate_snapshot` accepts; any other may raise or be miscounted.
    """
    components_added, components_removed, _ = _delta(*(dict.fromkeys(s.components.ids) for s in (a, b)))
    # One row set, A's: B's rows not in it are B's only-rows, and removing B's rows from it leaves A's only-rows.
    # Only those rows are keyed: a snapshot holds each (user, used, kind) once, so a key among both sides'
    # only-rows is a re-weighted edge, and a key on one side alone an added or removed one.
    rows_a = set(_edge_rows(a))
    only_b = _edge_map(filterfalse(rows_a.__contains__, _edge_rows(b)))
    rows_a.difference_update(_edge_rows(b))
    edges_added, edges_removed, reweighted = _delta(_edge_map(rows_a), only_b)
    multiplicity_changes = tuple((edge, new - old) for edge, old, new in reweighted)

    run_a = run_pipeline(a, cascade, policy)
    run_b = run_pipeline(b, cascade, policy, {o.id: (o, x) for o, x in zip(run_a.owners, run_a.assignments)})
    ownership_changes = _delta(run_a.owner_of, run_b.owner_of)[2]
    jurisdiction_changes = _delta(*({x.owner: x.jurisdiction for x in r.assignments} for r in (run_a, run_b)))[2]
    cell_deltas = run_b.matrix.as_dict()
    for cell, count in run_a.matrix.cells:
        cell_deltas[cell] = cell_deltas.get(cell, 0) - count
    matrix_delta = tuple(sorted((cell, d) for cell, d in cell_deltas.items() if d))

    # A component counts as a coupled change when its owner changed and
    # its incident edge set changed between the two snapshots.
    touched: set[str] = set()
    for user, owner_component, _ in (*edges_added, *edges_removed, *(edge for edge, _, _ in reweighted)):
        touched.update((user, owner_component))
    reassigned = {cid for cid, _, _ in ownership_changes}
    coupled = len(reassigned & touched)

    return SnapshotDelta(
        snapshot_a=a.id,
        snapshot_b=b.id,
        components_added=components_added,
        components_removed=components_removed,
        edges_added=edges_added,
        edges_removed=edges_removed,
        multiplicity_changes=multiplicity_changes,
        ownership_changes=ownership_changes,
        jurisdiction_changes=jurisdiction_changes,
        matrix_delta=matrix_delta,
        coupled_change_count=coupled,
    )

