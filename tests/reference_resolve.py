"""The pre-change resolver cascade, kept as the reference the one-selection
`resolve_jurisdictions` is compared against: each resolver the cascade
reaches selects the owner's records anew with the pre-change
`latest_evidence`, which raises on a conflict in that resolver's group.
Given a snapshot's `taken_at` as `as_of`, it skips every record dated
later, record by record."""

from collections import Counter
from datetime import date

from taxarch.model import RESOLVER_SOURCES, UNKNOWN, Owner
from taxarch.resolve import DEFAULT_CASCADE, CascadeConfigError, JurisdictionAssignment, Resolver

from reference_validate import latest_evidence


def _try_resolver(resolver: Resolver, owner: Owner, as_of: date | None) -> JurisdictionAssignment | None:
    """Decide from the resolver's evidence recorded on the latest date, or decline; ConflictingEvidenceError on a conflict."""
    latest = latest_evidence(owner, RESOLVER_SOURCES[resolver.name], as_of)
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


def reference_resolve_jurisdictions(
    owners: list[Owner], cascade: tuple[Resolver, ...] = DEFAULT_CASCADE, as_of: date | None = None
) -> list[JurisdictionAssignment]:
    """Assign one jurisdiction per owner as of `as_of` (from every record when None); first decisive resolver wins."""
    if not cascade:
        raise CascadeConfigError("cascade must not be empty")
    assignments = []
    for owner in sorted(owners, key=lambda o: o.id):
        decided = None
        for resolver in cascade:
            decided = _try_resolver(resolver, owner, as_of)
            if decided is not None:
                break
        assignments.append(decided if decided is not None else JurisdictionAssignment(owner.id, UNKNOWN, None))
    return assignments
