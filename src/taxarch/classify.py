"""Scope filtering, edge classification, and jurisdiction flow aggregation.

The flow matrix counts use relationships by (user jurisdiction, owner
jurisdiction), multiplicity-weighted, with UNKNOWN as a reportable
row/column. Cross-border cells are the taxable licensing flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import (
    UNKNOWN,
    ArchitectureSnapshot,
    DependencyEdge,
    OwnerKind,
    ComponentStatus,
)
from .resolve import JurisdictionAssignment, ResolutionSummary


class EdgeClass(str, Enum):
    DOMESTIC = "domestic"
    CROSS_BORDER = "cross_border"
    UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class ScopePolicy:
    include_statuses: frozenset[ComponentStatus] = frozenset({ComponentStatus.PRODUCTION})
    exclude_individual_owners: bool = True

    def __post_init__(self):
        if not self.include_statuses:
            raise ValueError("include_statuses must not be empty")

    def to_dict(self) -> dict:
        return {
            "include_statuses": sorted(s.value for s in self.include_statuses),
            "exclude_individual_owners": self.exclude_individual_owners,
        }


@dataclass(frozen=True)
class ExclusionReport:
    excluded_components: tuple[tuple[str, str], ...]  # (component id, reason)
    excluded_edges: int
    component_total: int
    edge_total: int

    @property
    def component_ratio(self) -> float:
        return len(self.excluded_components) / self.component_total if self.component_total else 0.0

    @property
    def edge_ratio(self) -> float:
        return self.excluded_edges / self.edge_total if self.edge_total else 0.0

    def to_dict(self) -> dict:
        return {
            "excluded_components": [list(x) for x in self.excluded_components],
            "excluded_component_count": len(self.excluded_components),
            "component_total": self.component_total,
            "component_ratio": self.component_ratio,
            "excluded_edges": self.excluded_edges,
            "edge_total": self.edge_total,
            "edge_ratio": self.edge_ratio,
        }


def apply_scope_filter(
    snapshot: ArchitectureSnapshot, owner_of: dict[str, str], policy: ScopePolicy = ScopePolicy()
) -> tuple[ArchitectureSnapshot, ExclusionReport]:
    """Drop out-of-scope components and their incident edges.

    `owner_of` is the snapshot's `owner_of()`, built once by the caller.
    Every exclusion is recorded with its reason; nothing is silent.
    """
    owner_index = snapshot.owner_index()

    excluded: list[tuple[str, str]] = []
    for c in snapshot.components:
        if c.status not in policy.include_statuses:
            excluded.append((c.id, "non_production"))
            continue
        if policy.exclude_individual_owners:
            owner = owner_index.get(owner_of.get(c.id, ""))
            if owner is not None and owner.kind is OwnerKind.INDIVIDUAL:
                excluded.append((c.id, "individual_owner"))
    excluded_ids = {cid for cid, _ in excluded}

    kept_components = tuple(c for c in snapshot.components if c.id not in excluded_ids)
    kept_edges = tuple(
        e for e in snapshot.dependencies if e.user not in excluded_ids and e.owner_component not in excluded_ids
    )
    kept_ownership = tuple(a for a in snapshot.ownership if a.component not in excluded_ids)

    scoped = ArchitectureSnapshot(
        id=snapshot.id,
        taken_at=snapshot.taken_at,
        components=kept_components,
        dependencies=kept_edges,
        owners=snapshot.owners,
        ownership=kept_ownership,
    )
    report = ExclusionReport(
        excluded_components=tuple(sorted(excluded)),
        excluded_edges=len(snapshot.dependencies) - len(kept_edges),
        component_total=len(snapshot.components),
        edge_total=len(snapshot.dependencies),
    )
    return scoped, report


class IntegrityError(ValueError):
    pass


def classify_cell(user_j: str, owner_j: str) -> EdgeClass:
    """The one rule for a (user, owner) jurisdiction cell: UNKNOWN on either side is unresolved."""
    if user_j == UNKNOWN or owner_j == UNKNOWN:
        return EdgeClass.UNRESOLVED
    return EdgeClass.DOMESTIC if user_j == owner_j else EdgeClass.CROSS_BORDER


def classify_edge(
    edge: DependencyEdge,
    owner_of: dict[str, str],
    jurisdiction_of: dict[str, str],
) -> EdgeClass:
    """Classify a single dependency by the cell of its two owners' jurisdictions.

    This is the matrix rule, so an edge within one owner whose
    jurisdiction is UNKNOWN is unresolved, as its (N/A, N/A) cell is.
    """
    user_owner = owner_of.get(edge.user)
    used_owner = owner_of.get(edge.owner_component)
    if user_owner is None or used_owner is None:
        raise IntegrityError(f"dependency {edge.user!r}->{edge.owner_component!r} has an unowned endpoint")
    return classify_cell(jurisdiction_of.get(user_owner, UNKNOWN), jurisdiction_of.get(used_owner, UNKNOWN))


@dataclass(frozen=True)
class JurisdictionFlowMatrix:
    """Counts of use relationships by (user jurisdiction, owner jurisdiction)."""

    cells: tuple[tuple[tuple[str, str], int], ...]  # sorted, nonzero only
    snapshot_id: str | None = None

    @classmethod
    def from_counts(cls, counts: dict[tuple[str, str], int], snapshot_id: str | None = None) -> "JurisdictionFlowMatrix":
        nonzero = {k: v for k, v in counts.items() if v}
        return cls(tuple(sorted(nonzero.items(), key=lambda kv: _cell_key(kv[0]))), snapshot_id)

    def as_dict(self) -> dict[tuple[str, str], int]:
        return dict(self.cells)

    @property
    def codes(self) -> tuple[str, ...]:
        """Jurisdictions present, known codes sorted, UNKNOWN last."""
        present = {c for pair, _ in self.cells for c in pair}
        known = sorted(present - {UNKNOWN})
        return tuple(known + ([UNKNOWN] if UNKNOWN in present else []))

    @property
    def known_codes(self) -> tuple[str, ...]:
        return tuple(c for c in self.codes if c != UNKNOWN)

    def total(self) -> int:
        return sum(v for _, v in self.cells)


def _cell_key(pair: tuple[str, str]) -> tuple[tuple[int, str], tuple[int, str]]:
    return tuple((1, "") if c == UNKNOWN else (0, c) for c in pair)


def aggregate(
    snapshot: ArchitectureSnapshot, owner_of: dict[str, str], assignments: list[JurisdictionAssignment]
) -> JurisdictionFlowMatrix:
    """Fold the scoped dependency edges into the jurisdiction flow matrix.

    `owner_of` may be the unscoped snapshot's: scoping keeps every
    ownership of a kept component.
    """
    jurisdiction_of = {a.owner: a.jurisdiction for a in assignments}
    counts: dict[tuple[str, str], int] = {}
    for e in snapshot.dependencies:
        user_owner = owner_of.get(e.user)
        used_owner = owner_of.get(e.owner_component)
        if user_owner is None or used_owner is None:
            raise IntegrityError(f"dependency {e.user!r}->{e.owner_component!r} has an unowned endpoint")
        user_j = jurisdiction_of.get(user_owner, UNKNOWN)
        used_j = jurisdiction_of.get(used_owner, UNKNOWN)
        key = (user_j, used_j)
        counts[key] = counts.get(key, 0) + e.multiplicity
    matrix = JurisdictionFlowMatrix.from_counts(counts, snapshot.id)
    if matrix.total() != sum(e.multiplicity for e in snapshot.dependencies):
        raise IntegrityError(f"flow matrix of snapshot {snapshot.id!r} does not conserve its use count")
    return matrix


@dataclass(frozen=True)
class ComplianceStats:
    total_uses: int
    domestic_count: int
    cross_border_count: int
    unresolved_count: int
    inbound: tuple[tuple[str, int], ...]  # owner-side totals per jurisdiction
    outbound: tuple[tuple[str, int], ...]  # user-side totals per jurisdiction
    resolution: ResolutionSummary | None = None
    exclusions: ExclusionReport | None = None
    snapshot_id: str | None = None

    @property
    def domestic_ratio(self) -> float:
        return self.domestic_count / self.total_uses if self.total_uses else 0.0

    @property
    def cross_border_ratio(self) -> float:
        return self.cross_border_count / self.total_uses if self.total_uses else 0.0

    @property
    def unresolved_ratio(self) -> float:
        return self.unresolved_count / self.total_uses if self.total_uses else 0.0

    def to_dict(self) -> dict:
        doc = {
            "total_uses": self.total_uses,
            "domestic": self.domestic_count,
            "cross_border": self.cross_border_count,
            "unresolved": self.unresolved_count,
            "domestic_ratio": self.domestic_ratio,
            "cross_border_ratio": self.cross_border_ratio,
            "unresolved_ratio": self.unresolved_ratio,
            "inbound": dict(self.inbound),
            "outbound": dict(self.outbound),
        }
        if self.resolution is not None:
            doc["owner_resolution"] = self.resolution.to_dict()
        if self.exclusions is not None:
            doc["exclusions"] = self.exclusions.to_dict()
        return doc


def compute_stats(
    matrix: JurisdictionFlowMatrix,
    exclusions: ExclusionReport | None = None,
    resolution: ResolutionSummary | None = None,
) -> ComplianceStats:
    """Decompose the matrix into domestic / cross-border / unresolved counts."""
    by_class = dict.fromkeys(EdgeClass, 0)
    inbound: dict[str, int] = {}
    outbound: dict[str, int] = {}
    for (user_j, used_j), count in matrix.cells:
        outbound[user_j] = outbound.get(user_j, 0) + count
        inbound[used_j] = inbound.get(used_j, 0) + count
        by_class[classify_cell(user_j, used_j)] += count
    return ComplianceStats(
        total_uses=matrix.total(),
        domestic_count=by_class[EdgeClass.DOMESTIC],
        cross_border_count=by_class[EdgeClass.CROSS_BORDER],
        unresolved_count=by_class[EdgeClass.UNRESOLVED],
        inbound=tuple(sorted(inbound.items())),
        outbound=tuple(sorted(outbound.items())),
        resolution=resolution,
        exclusions=exclusions,
        snapshot_id=matrix.snapshot_id,
    )
