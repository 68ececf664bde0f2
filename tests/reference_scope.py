"""The scope filter as one loop over the components, kept as the reference
that `taxarch.classify.apply_scope_filter` is compared against: it looks each
component's owner up by id, record by record, and rebuilds every tuple."""

from taxarch.classify import ExclusionReport, ScopePolicy
from taxarch.model import ArchitectureSnapshot, OwnerKind


def reference_apply_scope_filter(
    snapshot: ArchitectureSnapshot, owner_of: dict[str, str], policy: ScopePolicy = ScopePolicy()
) -> tuple[ArchitectureSnapshot, ExclusionReport]:
    """Drop out-of-scope components and their incident edges, each exclusion recorded with its reason."""
    owner_index = {o.id: o for o in snapshot.owners}

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
    edges = snapshot.dependencies
    kept_edges = tuple(e for e in edges if e.user not in excluded_ids and e.owner_component not in excluded_ids)
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
        excluded_edges=len(edges) - len(kept_edges),
        component_total=len(snapshot.components),
        edge_total=len(edges),
    )
    return scoped, report
