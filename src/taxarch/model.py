"""Domain model for jurisdiction-aware architecture snapshots.

A snapshot captures the dated state of a distributed software system:
its components, the use-dependencies between them, the owning teams,
and the component-to-owner assignment. All types are immutable values;
validation is a pure function producing a report, never an exception.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date
from enum import Enum

UNKNOWN = "UNKNOWN"

_ALPHA3_RE = re.compile(r"^[A-Z]{3}$")


def is_valid_jurisdiction(code: str) -> bool:
    """ISO 3166-1 alpha-3 code, or the distinguished UNKNOWN value."""
    return code == UNKNOWN or bool(_ALPHA3_RE.match(code))


class ComponentKind(str, Enum):
    MICROSERVICE = "microservice"
    LIBRARY = "library"
    MODULE = "module"
    APPLICATION = "application"
    OTHER = "other"


class ComponentStatus(str, Enum):
    PRODUCTION = "production"
    EXPERIMENTAL = "experimental"
    DEPRECATED = "deprecated"


class DependencyKind(str, Enum):
    USE = "use"
    OTHER = "other"


class OwnerKind(str, Enum):
    TEAM = "team"
    INDIVIDUAL = "individual"
    UNIT = "unit"


class EvidenceSource(str, Enum):
    EXPLICIT_ASSIGNMENT = "explicit_assignment"
    MEMBER_LOCATIONS = "member_locations"
    MANAGER_LOCATION = "manager_location"
    QUESTIONNAIRE = "questionnaire"


# Resolver name -> the evidence sources it reads, in default cascade order.
# Questionnaire answers are direct statements by the owner and count as
# explicit assignments.
RESOLVER_SOURCES = {
    "explicit_assignment": (EvidenceSource.EXPLICIT_ASSIGNMENT, EvidenceSource.QUESTIONNAIRE),
    "member_majority": (EvidenceSource.MEMBER_LOCATIONS,),
    "manager_location": (EvidenceSource.MANAGER_LOCATION,),
}


class ConflictingEvidenceError(ValueError):
    """Same-dated records name different codes; picking one would hide the conflict from an audit trail."""


def latest_evidence(owner: Owner, sources: tuple[EvidenceSource, ...]) -> list[LocationEvidence]:
    """The owner's latest-dated records from `sources`; single codes among them must agree, else ConflictingEvidenceError."""
    candidates = [ev for ev in owner.location_evidence if ev.source in sources]
    if len(candidates) < 2:
        return candidates
    decided_at = max(ev.recorded_at for ev in candidates)
    latest = [ev for ev in candidates if ev.recorded_at == decided_at]
    if len({ev.payload for ev in latest if isinstance(ev.payload, str)}) > 1:
        raise ConflictingEvidenceError(
            f"owner {owner.id!r}: conflicting {latest[0].source.value} evidence dated {decided_at.isoformat()}"
        )
    return latest


@dataclass(frozen=True)
class Component:
    id: str
    name: str
    kind: ComponentKind
    status: ComponentStatus


@dataclass(frozen=True)
class DependencyEdge:
    user: str
    owner_component: str
    kind: DependencyKind = DependencyKind.USE
    multiplicity: int = 1


@dataclass(frozen=True)
class LocationEvidence:
    """One piece of evidence for an owner's jurisdiction.

    For member_locations the payload is a multiset of jurisdiction
    codes (stored sorted, one entry per member); for every other source
    it is a single jurisdiction code.
    """

    source: EvidenceSource
    payload: str | tuple[str, ...]
    recorded_at: date

    def __post_init__(self):
        if self.source is EvidenceSource.MEMBER_LOCATIONS:
            object.__setattr__(self, "payload", tuple(sorted(self.payload)))


@dataclass(frozen=True)
class Owner:
    id: str
    name: str
    kind: OwnerKind
    location_evidence: tuple[LocationEvidence, ...] = ()


@dataclass(frozen=True)
class OwnershipAssignment:
    component: str
    owner: str


@dataclass(frozen=True)
class ArchitectureSnapshot:
    id: str
    taken_at: date
    components: tuple[Component, ...]
    dependencies: tuple[DependencyEdge, ...]
    owners: tuple[Owner, ...]
    ownership: tuple[OwnershipAssignment, ...]

    def owner_index(self) -> dict[str, Owner]:
        return {o.id: o for o in self.owners}

    def owner_of(self) -> dict[str, str]:
        """Component id -> owner id (first assignment wins on duplicates)."""
        mapping: dict[str, str] = {}
        for a in self.ownership:
            mapping.setdefault(a.component, a.owner)
        return mapping


@dataclass(frozen=True, order=True)
class Finding:
    """A violated invariant; every finding fails validation."""

    code: str
    message: str
    offending_ids: tuple[str, ...]


@dataclass(frozen=True)
class ValidationReport:
    status: str  # "ok" | "failed"
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def codes(self) -> list[str]:
        return [f.code for f in self.findings]


def _finding(code: str, message: str, *ids: str) -> Finding:
    return Finding(code, message, tuple(ids))


def validate_snapshot(snapshot: ArchitectureSnapshot) -> ValidationReport:
    """Check the structural invariants of a snapshot.

    Violations become findings; the function never raises. Findings are
    sorted so the report is independent of collection order.
    """
    findings: list[Finding] = []

    for what, nodes in (("component", snapshot.components), ("owner", snapshot.owners)):
        seen: set[str] = set()
        for node in nodes:
            if not node.id:
                findings.append(_finding("empty-id", f"{what} with empty id", node.name))
            elif node.id in seen:
                findings.append(_finding("duplicate-id", f"duplicate {what} id {node.id!r}", node.id))
            else:
                seen.add(node.id)

    for o in snapshot.owners:
        for ev in o.location_evidence:
            codes = ev.payload if ev.source is EvidenceSource.MEMBER_LOCATIONS else (ev.payload,)
            if type(codes) is not tuple or not all(type(code) is str for code in codes):
                findings.append(
                    _finding(
                        "evidence-shape",
                        f"evidence payload shape does not match source {ev.source.value!r}",
                        o.id,
                    )
                )
                continue
            for code in codes:
                if not is_valid_jurisdiction(code):
                    findings.append(
                        _finding(
                            "malformed-jurisdiction",
                            f"malformed jurisdiction code {code!r} in evidence of owner {o.id!r}",
                            o.id,
                        )
                    )
        for sources in RESOLVER_SOURCES.values():
            try:
                latest_evidence(o, sources)
            except ConflictingEvidenceError as exc:
                findings.append(_finding("conflicting-evidence", str(exc), o.id))

    component_ids = {c.id for c in snapshot.components}
    owner_ids = {o.id for o in snapshot.owners}

    seen_triples: set[tuple[str, str, DependencyKind]] = set()
    for e in snapshot.dependencies:
        if e.user == e.owner_component:
            findings.append(
                _finding("self-dependency", f"component {e.user!r} depends on itself", e.user)
            )
        for endpoint in (e.user, e.owner_component):
            if endpoint not in component_ids:
                findings.append(
                    _finding(
                        "dangling-reference",
                        f"dependency endpoint {endpoint!r} is not a component",
                        endpoint,
                    )
                )
        if e.multiplicity < 1:
            findings.append(
                _finding(
                    "invalid-multiplicity",
                    f"dependency {e.user!r}->{e.owner_component!r} has multiplicity {e.multiplicity}",
                    e.user,
                    e.owner_component,
                )
            )
        triple = (e.user, e.owner_component, e.kind)
        if triple in seen_triples:
            findings.append(
                _finding(
                    "duplicate-edge",
                    f"duplicate dependency {e.user!r}->{e.owner_component!r}; use multiplicity",
                    e.user,
                    e.owner_component,
                )
            )
        seen_triples.add(triple)

    owners_per_component: dict[str, list[str]] = {}
    for a in snapshot.ownership:
        owners_per_component.setdefault(a.component, []).append(a.owner)
        if a.component not in component_ids:
            findings.append(
                _finding(
                    "dangling-reference",
                    f"ownership references unknown component {a.component!r}",
                    a.component,
                )
            )
        if a.owner not in owner_ids:
            findings.append(
                _finding(
                    "dangling-reference",
                    f"ownership references unknown owner {a.owner!r}",
                    a.owner,
                )
            )
    for cid in sorted(component_ids):
        assigned = owners_per_component.get(cid, [])
        if not assigned:
            findings.append(_finding("missing-owner", f"component {cid!r} has no owner", cid))
        elif len(assigned) > 1:
            findings.append(
                _finding(
                    "multiple-owners",
                    f"component {cid!r} has {len(assigned)} owners",
                    cid,
                    *sorted(assigned),
                )
            )

    findings.sort()
    return ValidationReport("failed" if findings else "ok", tuple(findings))
