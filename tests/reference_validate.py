"""A record-by-record `validate_snapshot`, kept as the reference that the
one-block-per-invariant `validate_snapshot` is compared against: it walks
every record, one check at a time, and so finds each offender without a
set-algebra test first. It selects evidence with a `latest_evidence` that
filters an owner's records once per resolver group, as of the snapshot's
date: a record dated after `taken_at` is judged for its shape and codes
but is never part of a conflict. A string that UTF-8 cannot encode is
found by trying to encode it, one string at a time."""

from datetime import date

from taxarch.model import (
    RESOLVER_SOURCES,
    ConflictingEvidenceError,
    DependencyKind,
    EvidenceSource,
    Finding,
    LocationEvidence,
    Owner,
    ValidationReport,
    is_valid_jurisdiction,
)


def latest_evidence(
    owner: Owner, sources: tuple[EvidenceSource, ...], as_of: date | None = None
) -> list[LocationEvidence]:
    """The owner's latest-dated records from `sources`, none dated after `as_of` when it is given; single codes among
    them must agree, else ConflictingEvidenceError."""
    candidates = [
        ev for ev in owner.location_evidence if ev.source in sources and (as_of is None or ev.recorded_at <= as_of)
    ]
    if len(candidates) < 2:
        return candidates
    decided_at = max(ev.recorded_at for ev in candidates)
    latest = [ev for ev in candidates if ev.recorded_at == decided_at]
    if len({ev.payload for ev in latest if isinstance(ev.payload, str)}) > 1:
        raise ConflictingEvidenceError(
            f"owner {owner.id!r}: conflicting {latest[0].source.value} evidence dated {decided_at.isoformat()}"
        )
    return latest


def _finding(code: str, message: str, *ids: str) -> Finding:
    return Finding(code, message, tuple(ids))


def reference_validate_snapshot(snapshot) -> ValidationReport:
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
                latest_evidence(o, sources, snapshot.taken_at)
            except ConflictingEvidenceError as exc:
                findings.append(_finding("conflicting-evidence", str(exc), o.id))

    strings = [("snapshot", (snapshot.id,), "id", snapshot.id)]
    for c in snapshot.components:
        strings += [("component", (c.id,), "id", c.id), ("component", (c.id,), "name", c.name)]
    for e in snapshot.dependencies:
        key = (e.user, e.owner_component)
        strings += [("dependency", key, "user", e.user), ("dependency", key, "owner_component", e.owner_component)]
    for o in snapshot.owners:
        strings += [("owner", (o.id,), "id", o.id), ("owner", (o.id,), "name", o.name)]
    for a in snapshot.ownership:
        key = (a.component, a.owner)
        strings += [("assignment", key, "component", a.component), ("assignment", key, "owner", a.owner)]
    for what, key, field, text in strings:
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            findings.append(
                _finding(
                    "unencodable-string",
                    f"{what} {'->'.join(map(repr, key))} has {field} holding an unpaired surrogate, "
                    "which UTF-8 cannot encode",
                    *key,
                )
            )

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
        assigned = owners_per_component.setdefault(a.component, [])
        if a.owner in assigned:
            findings.append(
                _finding(
                    "duplicate-assignment",
                    f"duplicate assignment of component {a.component!r} to owner {a.owner!r}",
                    a.component,
                    a.owner,
                )
            )
        else:
            assigned.append(a.owner)
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
