"""Parsing and canonical serialization of snapshot bundles and CSV inputs.

The bundle is a UTF-8 JSON document (schema_version 1). Serialization is
canonical: fixed key order, sorted arrays, 2-space indent, trailing
newline, so equal snapshots always produce byte-identical documents.

The schema is fixed, so the canonical bytes are formatted record by
record at each record's fixed indent, not built as a dict and handed to
`json.dumps`, whose `indent` falls back to the pure-Python encoder.
Every string goes through `json.encoder.encode_basestring`, the C
escaper `json.dumps` itself uses with `ensure_ascii=False`, so the bytes
equal `json.dumps(doc, indent=2, ensure_ascii=False) + "\n"` in UTF-8.

Each collection of a parsed document goes through a fast path first. It
takes each record with one subset test of its field names, exact type
checks and a dict lookup per enum value, formats no message, and builds
edges slot by slot. It accepts exactly the records the checked loop
accepts. When it declines a record, the checked loop re-reads that whole
collection field by field and raises the SchemaError that names the
first faulty record and field, so every message is the one the checked
loop alone would give. A well-formed bundle never runs a checked loop.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from datetime import date
from json.encoder import encode_basestring as _quote

from .model import (
    UNKNOWN,
    ArchitectureSnapshot,
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
    is_valid_jurisdiction,
)

SCHEMA_VERSION = 1


class IngestError(ValueError):
    """Base class for bundle/CSV ingestion failures."""


class BundleParseError(IngestError):
    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


class UnsupportedVersionError(IngestError):
    pass


class SchemaError(IngestError):
    pass


_TOP_LEVEL_KEYS = (
    "schema_version",
    "snapshot_id",
    "taken_at",
    "components",
    "dependencies",
    "owners",
    "ownership",
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


def parse_bundle(document: bytes | str) -> ArchitectureSnapshot:
    """Parse a snapshot bundle. Raises typed errors, never panics.

    The caller is expected to run validate_snapshot on the result;
    parsing only enforces the document schema.
    """
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BundleParseError("document is not valid UTF-8", exc.start) from None
    try:
        return _snapshot_from(json.loads(document))
    except json.JSONDecodeError as exc:
        raise BundleParseError(f"malformed JSON: {exc.msg}", exc.pos) from None
    except RecursionError:
        raise BundleParseError("JSON nested too deeply") from None


def _snapshot_from(data) -> ArchitectureSnapshot:
    _require_keys(data, _TOP_LEVEL_KEYS, _TOP_LEVEL_KEYS, "bundle", ("snapshot_id",))
    version = data["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise UnsupportedVersionError(f"unsupported schema_version {_shown(version)} (supported: {SCHEMA_VERSION})")
    collections = {}
    for name, (fast, checked) in _COLLECTION_PARSERS.items():
        records = _require_array(data[name], name)
        parsed = fast(records)
        collections[name] = tuple(checked(records) if parsed is None else parsed)
    return ArchitectureSnapshot(
        id=data["snapshot_id"], taken_at=_parse_date(data["taken_at"], "taken_at"), **collections
    )


# The checked loops: each record's fields are checked one by one, so the
# first fault raises a SchemaError that names its place in the document.


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


# The fast paths: one subset test of each record's fields, exact type
# checks (json.loads makes only values of the exact built-in types) and a
# dict lookup per enum value; a missing field, an unknown or unhashable
# enum value and a bad date surface as KeyError, TypeError or ValueError.
# No message is formatted. They return None for any record the checked
# loop would reject, and the caller then runs that loop to raise its error.

_ENUMS = (ComponentKind, ComponentStatus, DependencyKind, OwnerKind, EvidenceSource)
_MEMBER = {enum: {member.value: member for member in enum} for enum in _ENUMS}
_COMPONENT_FIELDS = frozenset(("id", "name", "kind", "status"))
_EDGE_FIELDS = frozenset(_EDGE_ENDPOINTS + ("kind", "multiplicity"))
_OWNER_FIELDS = frozenset(("id", "name", "kind", "location_evidence"))
_EVIDENCE_FIELDS = frozenset(("source", "payload", "recorded_at"))
_ASSIGNMENT_FIELDS = frozenset(("component", "owner"))


def _slot_setters(cls) -> tuple:
    """The setter of each field of a frozen, slotted model record, in field order.

    The fast path builds edges, by far the largest collection, as
    unpickling builds objects: `object.__new__`, then a direct set of
    each slot. A frozen dataclass's `__init__` sets each field through
    `object.__setattr__`, which makes building 100k edges take more than
    twice as long. The record's `__post_init__`, if it had one, would not
    run, so none may.
    """
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} has a __post_init__ that building by slots would skip")
    return tuple(getattr(cls, f.name).__set__ for f in dataclasses.fields(cls))


_EDGE_SETTERS = _slot_setters(DependencyEdge)


def _fast_components(records: list) -> list[Component] | None:
    kinds, statuses = _MEMBER[ComponentKind], _MEMBER[ComponentStatus]
    components = []
    try:
        for c in records:
            if type(c) is not dict or not c.keys() <= _COMPONENT_FIELDS:
                return None
            cid, name = c["id"], c["name"]
            if type(cid) is not str or type(name) is not str:
                return None
            components.append(Component(cid, name, kinds[c["kind"]], statuses[c["status"]]))
    except (KeyError, TypeError):
        return None
    return components


def _fast_dependencies(records: list) -> list[DependencyEdge] | None:
    kinds = _MEMBER[DependencyKind]
    set_user, set_used, set_kind, set_multiplicity = _EDGE_SETTERS
    dependencies = []
    try:
        for e in records:
            if type(e) is not dict or not e.keys() <= _EDGE_FIELDS:
                return None
            user, used, multiplicity = e["user"], e["owner_component"], e.get("multiplicity", 1)
            if type(user) is not str or type(used) is not str or type(multiplicity) is not int or multiplicity < 1:
                return None
            edge = object.__new__(DependencyEdge)
            set_user(edge, user)
            set_used(edge, used)
            set_kind(edge, kinds[e.get("kind", "use")])
            set_multiplicity(edge, multiplicity)
            dependencies.append(edge)
    except (KeyError, TypeError):
        return None
    return dependencies


def _fast_evidence(records) -> tuple[LocationEvidence, ...] | None:
    if type(records) is not list:
        return None
    sources = _MEMBER[EvidenceSource]
    evidence = []
    try:
        for ev in records:
            if type(ev) is not dict or not ev.keys() <= _EVIDENCE_FIELDS:
                return None
            source, payload, recorded_at = sources[ev["source"]], ev["payload"], ev["recorded_at"]
            if source is EvidenceSource.MEMBER_LOCATIONS:
                if type(payload) is not list or not all(type(p) is str for p in payload):
                    return None
                payload = tuple(payload)
            elif type(payload) is not str:
                return None
            if type(recorded_at) is not str:
                return None
            evidence.append(LocationEvidence(source, payload, date.fromisoformat(recorded_at)))
    except (KeyError, TypeError, ValueError):
        return None
    return tuple(evidence)


def _fast_owners(records: list) -> list[Owner] | None:
    kinds = _MEMBER[OwnerKind]
    owners = []
    try:
        for o in records:
            if type(o) is not dict or not o.keys() <= _OWNER_FIELDS:
                return None
            oid, name, evidence = o["id"], o["name"], _fast_evidence(o.get("location_evidence", []))
            if type(oid) is not str or type(name) is not str or evidence is None:
                return None
            owners.append(Owner(oid, name, kinds[o["kind"]], evidence))
    except (KeyError, TypeError):
        return None
    return owners


def _fast_ownership(records: list) -> list[OwnershipAssignment] | None:
    ownership = []
    for a in records:
        if type(a) is not dict or not a.keys() <= _ASSIGNMENT_FIELDS:
            return None
        component, owner = a.get("component"), a.get("owner")
        if type(component) is not str or type(owner) is not str:
            return None
        ownership.append(OwnershipAssignment(component, owner))
    return ownership


# Bundle collection -> (fast path, checked loop), in the order the checked
# loops have always run, so a document with several faults names the same one.
_COLLECTION_PARSERS = {
    "components": (_fast_components, _checked_components),
    "dependencies": (_fast_dependencies, _checked_dependencies),
    "owners": (_fast_owners, _checked_owners),
    "ownership": (_fast_ownership, _checked_ownership),
}


# The JSON string of every enum value, escaped once instead of per record.
_JSON_VALUE = {member: _quote(member.value) for enum in _ENUMS for member in enum}


def _evidence_record(ev: LocationEvidence) -> str:
    if isinstance(ev.payload, tuple):
        payload = _array([f"            {_quote(code)}" for code in ev.payload], "          ")
    else:
        payload = _quote(ev.payload)
    return (
        f'        {{\n          "source": {_JSON_VALUE[ev.source]},\n          "payload": {payload},\n'
        f'          "recorded_at": {_quote(ev.recorded_at.isoformat())}\n        }}'
    )


def _array(records: list[str], indent: str) -> str:
    return "[\n" + ",\n".join(records) + f"\n{indent}]" if records else "[]"


def serialize_bundle(snapshot: ArchitectureSnapshot) -> bytes:
    """Serialize to the canonical bundle form (byte-stable for equal snapshots)."""
    components = [
        f'    {{\n      "id": {_quote(c.id)},\n      "name": {_quote(c.name)},\n'
        f'      "kind": {_JSON_VALUE[c.kind]},\n      "status": {_JSON_VALUE[c.status]}\n    }}'
        for c in sorted(snapshot.components, key=lambda c: c.id)
    ]
    dependencies = [
        f'    {{\n      "user": {_quote(e.user)},\n      "owner_component": {_quote(e.owner_component)},\n'
        f'      "kind": {_JSON_VALUE[e.kind]},\n      "multiplicity": {int.__repr__(e.multiplicity)}\n    }}'
        for e in sorted(snapshot.dependencies, key=lambda e: (e.user, e.owner_component, e.kind.value))
    ]
    owners = [
        f'    {{\n      "id": {_quote(o.id)},\n      "name": {_quote(o.name)},\n      "kind": {_JSON_VALUE[o.kind]},\n'
        f'      "location_evidence": {_array([_evidence_record(ev) for ev in o.location_evidence], "      ")}\n    }}'
        for o in sorted(snapshot.owners, key=lambda o: o.id)
    ]
    ownership = [
        f'    {{\n      "component": {_quote(a.component)},\n      "owner": {_quote(a.owner)}\n    }}'
        for a in sorted(snapshot.ownership, key=lambda a: (a.component, a.owner))
    ]
    return (
        f'{{\n  "schema_version": {SCHEMA_VERSION},\n  "snapshot_id": {_quote(snapshot.id)},\n'
        f'  "taken_at": {_quote(snapshot.taken_at.isoformat())},\n'
        f'  "components": {_array(components, "  ")},\n  "dependencies": {_array(dependencies, "  ")},\n'
        f'  "owners": {_array(owners, "  ")},\n  "ownership": {_array(ownership, "  ")}\n}}\n'
    ).encode("utf-8")


class CsvError(IngestError):
    pass


def _read_csv(text: str, expected_header: list[str], optional: int, what: str) -> list[list[str]]:
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [row for row in reader if row]
    except csv.Error as exc:
        raise CsvError(f"{what}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise CsvError(f"{what}: missing header row")
    header = rows[0]
    mandatory = expected_header[: len(expected_header) - optional]
    if header[: len(mandatory)] != mandatory or header != expected_header[: len(header)]:
        raise CsvError(f"{what}: expected header {','.join(expected_header)!r}, got {_listed(header)}")
    width = len(header)
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise CsvError(f"{what}: row {i} has {len(row)} fields, expected {width}")
    return rows[1:]


def assemble_from_csv(
    edges_csv: str,
    ownership_csv: str,
    jurisdictions_csv: str,
    taken_at: date,
    snapshot_id: str = "assembled",
) -> ArchitectureSnapshot:
    """Build a snapshot from the three tabular inputs.

    Components and owners are synthesized from the ids seen in the
    files; kind defaults to `other`, status to `production`. A literal
    `N/A` jurisdiction becomes explicit UNKNOWN evidence. Repeated rows
    for one owner must name the same code, as same-dated evidence must.
    """
    edge_rows = _read_csv(edges_csv, ["user", "owner_component", "kind", "multiplicity"], 2, "edges")
    ownership_rows = _read_csv(ownership_csv, ["component", "owner"], 0, "ownership")
    jurisdiction_rows = _read_csv(jurisdictions_csv, ["owner", "jurisdiction"], 0, "jurisdictions")

    dependencies = []
    component_ids: set[str] = set()
    for i, row in enumerate(edge_rows, start=2):
        user, owner_component = row[0], row[1]
        try:
            kind = DependencyKind(row[2]) if len(row) > 2 and row[2] else DependencyKind.USE
            multiplicity = int(row[3]) if len(row) > 3 and row[3] else 1
        except ValueError as exc:
            raise CsvError(f"edges: row {i}: {exc}") from None
        dependencies.append(DependencyEdge(user, owner_component, kind, multiplicity))
        component_ids.update((user, owner_component))

    ownership = []
    owner_by_component: dict[str, str] = {}
    owner_ids: set[str] = set()
    for component, owner in ownership_rows:
        previous = owner_by_component.get(component)
        if previous is not None and previous != owner:
            raise CsvError(f"multiple-owners: component {component!r} assigned to both {previous!r} and {owner!r}")
        if previous is None:
            owner_by_component[component] = owner
            ownership.append(OwnershipAssignment(component, owner))
        owner_ids.add(owner)
        component_ids.add(component)

    evidence_by_owner: dict[str, str] = {}
    for owner, jurisdiction in jurisdiction_rows:
        if owner not in owner_ids:
            raise CsvError(f"dangling-reference: jurisdiction row for unknown owner {owner!r}")
        if jurisdiction == "N/A":
            jurisdiction = UNKNOWN
        if not is_valid_jurisdiction(jurisdiction):
            raise SchemaError(f"invalid jurisdiction code {jurisdiction!r} (expected alpha-3 or N/A)")
        previous = evidence_by_owner.setdefault(owner, jurisdiction)
        if previous != jurisdiction:
            raise CsvError(f"conflicting-evidence: owner {owner!r} has jurisdictions {previous!r} and {jurisdiction!r}")

    components = tuple(
        Component(cid, cid, ComponentKind.OTHER, ComponentStatus.PRODUCTION)
        for cid in sorted(component_ids)
    )
    owners = tuple(
        Owner(
            oid,
            oid,
            OwnerKind.TEAM,
            (LocationEvidence(EvidenceSource.EXPLICIT_ASSIGNMENT, evidence_by_owner[oid], taken_at),)
            if oid in evidence_by_owner
            else (),
        )
        for oid in sorted(owner_ids)
    )
    return ArchitectureSnapshot(
        id=snapshot_id,
        taken_at=taken_at,
        components=components,
        dependencies=tuple(dependencies),
        owners=owners,
        ownership=tuple(ownership),
    )
