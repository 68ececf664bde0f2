"""The pre-change checked loops of the bundle parser, kept as the reference
the one-pass record parsers of `taxarch.ingest` are compared against: each
record's fields are checked one by one, so the first fault raises a
SchemaError that names its place in the document."""

from datetime import date

from taxarch.ingest import SchemaError
from taxarch.model import (
    Component,
    ComponentKind,
    ComponentStatus,
    DependencyEdge,
    DependencyKind,
    EvidenceSource,
    LocationEvidence,
    Owner,
    OwnerKind,
    OwnershipAssignment,
)

_EDGE_ENDPOINTS = ("user", "owner_component")


def _require_keys(
    obj, allowed: tuple[str, ...], required: tuple[str, ...], where: str, strings: tuple[str, ...] = ()
) -> None:
    """Check that `obj` is an object with known fields, the required ones, and a string in each of `strings`."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be a JSON object")
    unknown = obj.keys() - allowed
    if unknown:
        raise SchemaError(f"unknown field(s) {_listed(sorted(unknown))} in {where}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise SchemaError(f"missing field(s) {missing} in {where}")
    for k in strings:
        if not isinstance(obj[k], str):
            raise SchemaError(f"{where}.{k} must be a string")


def _require_array(value, where: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{where} must be a JSON array")
    return value


_SHOWN_CHARS = 40


def _shown(value) -> str:
    """A value from the document as an error message shows it: a scalar by its repr when that is short,
    anything else by its JSON type, so that a message stays one short line whatever the input holds."""
    if isinstance(value, (list, dict)):
        return "<array>" if isinstance(value, list) else "<object>"
    text = repr(value)
    if len(text) <= _SHOWN_CHARS:
        return text
    return f"<string of {len(value)} characters>" if isinstance(value, str) else "<number>"


def _listed(names: list) -> str:
    """At most three names as `_shown` shows them, then how many more there are."""
    return ", ".join(map(_shown, names[:3])) + (f" and {len(names) - 3} more" if len(names) > 3 else "")


def _parse_enum(enum_cls, value, field: str):
    try:
        return enum_cls(value)
    except ValueError:
        raise SchemaError(f"unknown value {_shown(value)} for field {field!r}") from None


def _parse_date(value, field: str) -> date:
    if not isinstance(value, str):
        raise SchemaError(f"field {field!r} must be an ISO-8601 date string")
    try:
        return date.fromisoformat(value)
    except ValueError:
        raise SchemaError(f"field {field!r} is not a valid ISO-8601 date: {_shown(value)}") from None


def _parse_evidence(obj: dict, where: str) -> LocationEvidence:
    _require_keys(obj, ("source", "payload", "recorded_at"), ("source", "payload", "recorded_at"), where)
    source = _parse_enum(EvidenceSource, obj["source"], f"{where}.source")
    payload = obj["payload"]
    if source is EvidenceSource.MEMBER_LOCATIONS:
        if not isinstance(payload, list) or not all(isinstance(p, str) for p in payload):
            raise SchemaError(f"{where}.payload must be a list of jurisdiction codes")
        payload = tuple(payload)
    elif not isinstance(payload, str):
        raise SchemaError(f"{where}.payload must be a jurisdiction code string")
    return LocationEvidence(source, payload, _parse_date(obj["recorded_at"], f"{where}.recorded_at"))


def _checked_components(records: list) -> list[Component]:
    components = []
    for i, c in enumerate(records):
        where = f"components[{i}]"
        _require_keys(c, ("id", "name", "kind", "status"), ("id", "name", "kind", "status"), where, ("id", "name"))
        components.append(
            Component(
                id=c["id"],
                name=c["name"],
                kind=_parse_enum(ComponentKind, c["kind"], f"{where}.kind"),
                status=_parse_enum(ComponentStatus, c["status"], f"{where}.status"),
            )
        )
    return components


def _checked_dependencies(records: list) -> list[DependencyEdge]:
    dependencies = []
    for i, e in enumerate(records):
        where = f"dependencies[{i}]"
        _require_keys(e, _EDGE_ENDPOINTS + ("kind", "multiplicity"), _EDGE_ENDPOINTS, where, _EDGE_ENDPOINTS)
        multiplicity = e.get("multiplicity", 1)
        if not isinstance(multiplicity, int) or isinstance(multiplicity, bool) or multiplicity < 1:
            raise SchemaError(f"{where}.multiplicity must be a positive integer")
        dependencies.append(
            DependencyEdge(
                user=e["user"],
                owner_component=e["owner_component"],
                kind=_parse_enum(DependencyKind, e.get("kind", "use"), f"{where}.kind"),
                multiplicity=multiplicity,
            )
        )
    return dependencies


def _checked_evidence(records, where: str) -> tuple[LocationEvidence, ...]:
    return tuple(_parse_evidence(ev, f"{where}[{j}]") for j, ev in enumerate(_require_array(records, where)))


def _checked_owners(records: list) -> list[Owner]:
    owners = []
    for i, o in enumerate(records):
        where = f"owners[{i}]"
        _require_keys(o, ("id", "name", "kind", "location_evidence"), ("id", "name", "kind"), where, ("id", "name"))
        evidence = _checked_evidence(o.get("location_evidence", []), f"{where}.location_evidence")
        owners.append(
            Owner(
                id=o["id"],
                name=o["name"],
                kind=_parse_enum(OwnerKind, o["kind"], f"{where}.kind"),
                location_evidence=evidence,
            )
        )
    return owners


def _checked_ownership(records: list) -> list[OwnershipAssignment]:
    ownership = []
    for i, a in enumerate(records):
        where = f"ownership[{i}]"
        _require_keys(a, ("component", "owner"), ("component", "owner"), where, ("component", "owner"))
        ownership.append(OwnershipAssignment(component=a["component"], owner=a["owner"]))
    return ownership
