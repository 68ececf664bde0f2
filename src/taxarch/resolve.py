"""Owner-to-jurisdiction resolution via an ordered resolver cascade.

Every owner receives exactly one jurisdiction. Each decision carries
provenance (which resolver decided, on what evidence) so the assignment
can be defended in an audit. Owners no resolver can decide are UNKNOWN.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from datetime import date

from .model import RESOLVER_SOURCES, UNKNOWN, ConflictingEvidenceError, LocationEvidence, Owner, conflict, latest_evidence

DEFAULT_MAJORITY_THRESHOLD = 0.75


class CascadeConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Resolver:
    name: str  # a key of RESOLVER_SOURCES
    threshold: float | None = None

    def __post_init__(self):
        if self.name not in RESOLVER_SOURCES:
            raise CascadeConfigError(f"unknown resolver {self.name!r}")
        if self.name == "member_majority":
            threshold = DEFAULT_MAJORITY_THRESHOLD if self.threshold is None else self.threshold
            if not 0.5 < threshold <= 1.0:
                raise CascadeConfigError(f"member_majority threshold must be in (0.5, 1], got {threshold}")
            object.__setattr__(self, "threshold", threshold)
        elif self.threshold is not None:
            raise CascadeConfigError(f"resolver {self.name!r} takes no threshold")

    def describe(self) -> str:
        if self.name == "member_majority":
            # The shortest text that parses back to the same float, so a recorded cascade re-runs exactly.
            return f"member_majority({repr(float(self.threshold)).removesuffix('.0')})"
        return self.name


DEFAULT_CASCADE = tuple(Resolver(name) for name in RESOLVER_SOURCES)


def parse_cascade(text: str) -> tuple[Resolver, ...]:
    """Parse a cascade like 'explicit_assignment,member_majority(0.75)'."""
    resolvers = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part.endswith(")") and "(" in part:
            name, arg = part[:-1].split("(", 1)
            try:
                threshold = float(arg)
            except ValueError:
                raise CascadeConfigError(f"bad resolver parameter in {part!r}") from None
            resolvers.append(Resolver(name, threshold))
        else:
            resolvers.append(Resolver(part))
    if not resolvers:
        raise CascadeConfigError("cascade must name at least one resolver")
    return tuple(resolvers)


@dataclass(frozen=True)
class JurisdictionAssignment:
    owner: str
    jurisdiction: str
    resolver: str | None  # resolver description, None when unresolved
    evidence: str = ""
    decided_at: date | None = None

    @property
    def resolved(self) -> bool:
        return self.resolver is not None

    @property
    def provenance(self) -> str:
        return self.resolver if self.resolver is not None else "unresolved"


def _try_resolver(resolver: Resolver, owner: Owner, latest: list[LocationEvidence]) -> JurisdictionAssignment | None:
    """Decide from the resolver's records of the latest date, or decline; ConflictingEvidenceError on a conflict."""
    message = conflict(owner, latest)
    if message is not None:
        raise ConflictingEvidenceError(message)
    if resolver.name == "member_majority":
        # A jurisdiction is decisive when its share of member locations
        # reaches the threshold.
        members = Counter(code for ev in latest for code in ev.payload)
        total = sum(members.values())
        for code, count in sorted(members.items()):
            if code != UNKNOWN and count / total >= resolver.threshold:
                evidence = f"{count}/{total} members"
                return JurisdictionAssignment(owner.id, code, resolver.describe(), evidence, latest[0].recorded_at)
        return None

    if not latest or latest[0].payload == UNKNOWN:
        return None
    ev = latest[0]
    return JurisdictionAssignment(owner.id, ev.payload, resolver.describe(), ev.source.value, ev.recorded_at)


def resolve_jurisdictions(owners: list[Owner], cascade: tuple[Resolver, ...] = DEFAULT_CASCADE) -> list[JurisdictionAssignment]:
    """Assign one jurisdiction per owner; first decisive resolver wins."""
    if not cascade:
        raise CascadeConfigError("cascade must not be empty")
    assignments = []
    for owner in sorted(owners, key=lambda o: o.id):
        latest = latest_evidence(owner)
        decided = None
        for resolver in cascade:
            decided = _try_resolver(resolver, owner, latest.get(resolver.name, []))
            if decided is not None:
                break
        assignments.append(decided if decided is not None else JurisdictionAssignment(owner.id, UNKNOWN, None))
    return assignments


@dataclass(frozen=True)
class ResolutionSummary:
    total: int
    resolved_count: int
    unresolved_count: int
    unresolved_ratio: float
    per_resolver: tuple[tuple[str, int], ...]

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "resolved": self.resolved_count,
            "unresolved": self.unresolved_count,
            "unresolved_ratio": self.unresolved_ratio,
            "per_resolver": dict(self.per_resolver),
        }


def resolution_summary(assignments: list[JurisdictionAssignment]) -> ResolutionSummary:
    total = len(assignments)
    unresolved = sum(1 for a in assignments if not a.resolved)
    counts = Counter(a.resolver for a in assignments if a.resolved)
    return ResolutionSummary(
        total=total,
        resolved_count=total - unresolved,
        unresolved_count=unresolved,
        unresolved_ratio=unresolved / total if total else 0.0,
        per_resolver=tuple(sorted(counts.items())),
    )
