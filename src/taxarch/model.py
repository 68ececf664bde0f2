"""Domain model for jurisdiction-aware architecture snapshots.

A snapshot captures the dated state of a distributed software system:
its components, the use-dependencies between them, the owning teams,
and the component-to-owner assignment. All types are immutable values;
validation is a pure function producing a report, never an exception.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from datetime import date
from enum import Enum

UNKNOWN = "UNKNOWN"

_ALPHA3_RE = re.compile(r"[A-Z]{3}")


def is_valid_jurisdiction(code: str) -> bool:
    """ISO 3166-1 alpha-3 code, or the distinguished UNKNOWN value."""
    return code == UNKNOWN or bool(_ALPHA3_RE.fullmatch(code))


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


# Evidence source -> the name of the resolver that reads it.
_RESOLVER_OF = {source: name for name, sources in RESOLVER_SOURCES.items() for source in sources}


def latest_evidence(owner: Owner) -> dict[str, list[LocationEvidence]]:
    """Each resolver's records of `owner` dated its latest day, in record order, keyed by RESOLVER_SOURCES name.

    The one selection of evidence, made in one pass; `validate_snapshot` and `resolve_jurisdictions` both read it.
    A resolver with no records has no key. Dates of one resolver that cannot be ordered raise TypeError.
    """
    latest: dict[str, list[LocationEvidence]] = {}
    for ev in owner.location_evidence:
        name = _RESOLVER_OF.get(ev.source)
        if name is None:
            continue
        records = latest.get(name)
        if records is None or ev.recorded_at > records[0].recorded_at:
            latest[name] = [ev]
        elif ev.recorded_at == records[0].recorded_at:
            records.append(ev)
    return latest


def conflict(owner: Owner, records: list[LocationEvidence]) -> str | None:
    """The one conflict rule: the message when single codes among one resolver's latest records differ, else None.

    `validate_snapshot` reports it as a finding; a resolver the cascade reaches raises ConflictingEvidenceError.
    """
    if len(records) < 2 or len({ev.payload for ev in records if isinstance(ev.payload, str)}) < 2:
        return None
    first = records[0]
    return f"owner {owner.id!r}: conflicting {first.source.value} evidence dated {first.recorded_at.isoformat()}"


@dataclass(frozen=True, slots=True)
class Component:
    id: str
    name: str
    kind: ComponentKind
    status: ComponentStatus


@dataclass(frozen=True, slots=True)
class DependencyEdge:
    user: str
    owner_component: str
    kind: DependencyKind = DependencyKind.USE
    multiplicity: int = 1


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Owner:
    id: str
    name: str
    kind: OwnerKind
    location_evidence: tuple[LocationEvidence, ...] = ()


@dataclass(frozen=True, slots=True)
class OwnershipAssignment:
    component: str
    owner: str


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True, order=True)
class Finding:
    """A violated invariant; every finding fails validation."""

    code: str
    message: str
    offending_ids: tuple[str, ...]


@dataclass(frozen=True, slots=True)
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

    The id, dependency and ownership checks are first asked as set algebra
    over the whole snapshot; only a group that fails has its records
    walked to word the findings. The evidence is walked, not gated, with
    the `latest_evidence` and `conflict` that the resolver cascade uses.
    A clean snapshot never formats a message.
    """
    findings: list[Finding] = []
    component_ids = {c.id for c in snapshot.components}
    owner_ids = {o.id for o in snapshot.owners}

    for what, nodes, ids in (
        ("component", snapshot.components, component_ids),
        ("owner", snapshot.owners, owner_ids),
    ):
        if len(ids) == len(nodes) and all(ids):
            continue
        seen: set[str] = set()
        for node in nodes:
            if not node.id:
                findings.append(_finding("empty-id", f"{what} with empty id", node.name))
            elif node.id in seen:
                findings.append(_finding("duplicate-id", f"duplicate {what} id {node.id!r}", node.id))
            else:
                seen.add(node.id)

    findings += _evidence_findings(snapshot.owners)
    findings += _dependency_findings(snapshot.dependencies, component_ids)
    findings += _ownership_findings(snapshot.ownership, component_ids, owner_ids)
    findings.sort()
    return ValidationReport("failed" if findings else "ok", tuple(findings))


def _evidence_findings(owners: tuple[Owner, ...]) -> list[Finding]:
    """One walk over the evidence: each payload's shape, each distinct code once, and each owner's selection."""
    members = EvidenceSource.MEMBER_LOCATIONS  # a local: the class attribute costs ten times as much
    only_str = {str}  # only_str.issuperset(map(type, codes)) checks each code's exact type in C
    valid: set[str] = set()  # codes already found valid
    findings = []
    for o in owners:
        for ev in o.location_evidence:
            codes = ev.payload if ev.source is members else (ev.payload,)
            if type(codes) is not tuple or not only_str.issuperset(map(type, codes)):
                findings.append(
                    _finding(
                        "evidence-shape",
                        f"evidence payload shape does not match source {ev.source.value!r}",
                        o.id,
                    )
                )
                continue
            if valid.issuperset(codes):
                continue
            for code in codes:
                if is_valid_jurisdiction(code):
                    valid.add(code)
                else:
                    findings.append(
                        _finding(
                            "malformed-jurisdiction",
                            f"malformed jurisdiction code {code!r} in evidence of owner {o.id!r}",
                            o.id,
                        )
                    )
        if len(o.location_evidence) < 2:
            continue
        try:
            latest = latest_evidence(o)
        except TypeError:
            findings.append(
                _finding("evidence-shape", f"recorded_at values in evidence of owner {o.id!r} cannot be ordered", o.id)
            )
            continue
        for records in latest.values():
            message = conflict(o, records)
            if message is not None:
                findings.append(_finding("conflicting-evidence", message, o.id))
    return findings


def _dependency_findings(dependencies: tuple[DependencyEdge, ...], component_ids: set[str]) -> list[Finding]:
    users = [e.user for e in dependencies]
    used = [e.owner_component for e in dependencies]
    kinds = [e.kind for e in dependencies]
    # Equal triples hash alike, so as many distinct triple hashes as edges
    # means no duplicate edge; a hash collision only sends the check to the
    # loop below. A set of hashes is about half the cost of a set of triples.
    if (
        component_ids.issuperset(users)
        and component_ids.issuperset(used)
        and not any(map(operator.eq, users, used))
        and min((e.multiplicity for e in dependencies), default=1) >= 1
        and len(set(map(hash, zip(users, used, kinds)))) == len(dependencies)
    ):
        return []
    findings = []
    seen_triples: set[tuple[str, str, DependencyKind]] = set()
    for e in dependencies:
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
    return findings


def _ownership_findings(
    ownership: tuple[OwnershipAssignment, ...], component_ids: set[str], owner_ids: set[str]
) -> list[Finding]:
    components = [a.component for a in ownership]
    if (
        len(components) == len(set(components)) == len(component_ids)
        and component_ids.issuperset(components)
        and owner_ids.issuperset(a.owner for a in ownership)
    ):
        return []
    findings = []
    owners_per_component: dict[str, list[str]] = {}
    for a in ownership:
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
    return findings
