"""Owner-to-jurisdiction resolution via an ordered resolver cascade.

Every owner receives exactly one jurisdiction. Each decision carries
provenance (which resolver decided, on what evidence) so the assignment
can be defended in an audit. Owners no resolver can decide are UNKNOWN.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from datetime import date
from itertools import chain
from operator import attrgetter

from .model import RESOLVER_SOURCES, UNKNOWN, ConflictingEvidenceError, Owner, conflict, latest_evidence

DEFAULT_MAJORITY_THRESHOLD = 0.75


class CascadeConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Resolver:
    """One step of the cascade: a RESOLVER_SOURCES name, with the share that `member_majority` needs."""

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


@dataclass(frozen=True, slots=True)
class JurisdictionAssignment:
    """One owner's jurisdiction, with the resolver, evidence and date that decided it, or UNKNOWN and no resolver."""

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


def resolve_jurisdictions(owners: list[Owner], cascade: tuple[Resolver, ...] = DEFAULT_CASCADE) -> list[JurisdictionAssignment]:
    """Assign one jurisdiction per owner; first decisive resolver wins.

    Each resolver decides from its records of the latest date or declines; one with no records declines at once.
    Every record given counts, whatever its date: `run_pipeline` gives a snapshot's owners as of its `taken_at`.
    A resolver the cascade reaches raises ConflictingEvidenceError when those records conflict.

    Expects the owners of a snapshot that `validate_snapshot` accepts. Their constructors refuse a source, a date or
    a payload of the wrong type or shape, so an owner list it has not judged fails here only on conflicting evidence,
    as above; a malformed jurisdiction code is assigned as it stands.
    """
    if not cascade:
        raise CascadeConfigError("cascade must not be empty")
    described = [(resolver, resolver.describe()) for resolver in cascade]
    assignments = []
    for owner in sorted(owners, key=attrgetter("id")):
        latest = latest_evidence(owner)
        decided = None
        for resolver, description in described:
            records = latest.get(resolver.name)
            if not records:
                continue
            message = conflict(owner, records)
            if message is not None:
                raise ConflictingEvidenceError(message)
            first = records[0]
            if resolver.name == "member_majority":
                # A jurisdiction is decisive when its share of member locations
                # reaches the threshold.
                members = Counter(chain.from_iterable(ev.payload for ev in records))
                total = sum(members.values())
                for code, count in sorted(members.items()):
                    if code != UNKNOWN and count / total >= resolver.threshold:
                        decided = JurisdictionAssignment(
                            owner.id, code, description, f"{count}/{total} members", first.recorded_at
                        )
                        break
            elif first.payload != UNKNOWN:
                decided = JurisdictionAssignment(
                    owner.id, first.payload, description, first.source.value, first.recorded_at
                )
            if decided is not None:
                break
        assignments.append(decided if decided is not None else JurisdictionAssignment(owner.id, UNKNOWN, None))
    return assignments


@dataclass(frozen=True)
class ResolutionSummary:
    """How many owners the cascade resolved, in total and per resolver."""

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
