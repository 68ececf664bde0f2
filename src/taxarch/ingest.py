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

A parsed document is read in one pass, one loop per record type. Each
record meets one test of its field names, exact type checks and a dict
lookup per enum value, and edges are built slot by slot. A message is
formatted only where a check fails: it names the first faulty record and
field, and a well-formed bundle formats none. A string holding an unpaired
surrogate, which UTF-8 cannot encode, is refused too.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import re
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

# Each record type's fields, in the order a message lists the missing ones,
# and as a set for the one subset or equality test of a record's field names.
_COMPONENT_FIELDS = ("id", "name", "kind", "status")
_EDGE_ENDPOINTS = ("user", "owner_component")
_OWNER_FIELDS = ("id", "name", "kind")
_EVIDENCE_FIELDS = ("source", "payload", "recorded_at")
_ASSIGNMENT_FIELDS = ("component", "owner")
_COMPONENT_KEYS = frozenset(_COMPONENT_FIELDS)
_EDGE_KEYS = frozenset(_EDGE_ENDPOINTS + ("kind", "multiplicity"))
_OWNER_REQUIRED = frozenset(_OWNER_FIELDS)
_OWNER_KEYS = _OWNER_REQUIRED | {"location_evidence"}
_EVIDENCE_KEYS = frozenset(_EVIDENCE_FIELDS)
_ASSIGNMENT_KEYS = frozenset(_ASSIGNMENT_FIELDS)

_ENUMS = (ComponentKind, ComponentStatus, DependencyKind, OwnerKind, EvidenceSource)
_MEMBER = {enum: {member.value: member for member in enum} for enum in _ENUMS}


def _require_keys(
    obj, allowed: frozenset | tuple, required: tuple[str, ...], where: str, strings: tuple[str, ...] = ()
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


def _unknown_value(value, field: str) -> SchemaError:
    return SchemaError(f"unknown value {_shown(value)} for field {field!r}")


def _parse_date(value, field: str) -> date:
    if not isinstance(value, str):
        raise SchemaError(f"field {field!r} must be an ISO-8601 date string")
    try:
        return date.fromisoformat(value)
    except ValueError:
        raise SchemaError(f"field {field!r} is not a valid ISO-8601 date: {_shown(value)}") from None


# A JSON escape of a UTF-16 surrogate, paired or not, and a surrogate itself.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile(r"[\ud800-\udfff]")


def parse_bundle(document: bytes | str) -> ArchitectureSnapshot:
    """Parse a snapshot bundle. Raises typed errors, never panics.

    The caller is expected to run validate_snapshot on the result;
    parsing only enforces the document schema, and that every string
    can be written as UTF-8.
    """
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BundleParseError("document is not valid UTF-8", exc.start) from None
        suspect = _SURROGATE_ESCAPE.search(document)
    else:
        suspect = _SURROGATE_ESCAPE.search(document) or not document.isascii() and _SURROGATE.search(document)
    try:
        data = json.loads(document)
        snapshot = _snapshot_from(data)
    except json.JSONDecodeError as exc:
        raise BundleParseError(f"malformed JSON: {exc.msg}", exc.pos) from None
    except RecursionError:
        raise BundleParseError("JSON nested too deeply") from None
    # json.loads turns an unpaired surrogate escape into a lone surrogate,
    # which no artifact could hold: UTF-8 cannot encode it. The strings are
    # walked only when the text holds such an escape (or, in a str, the
    # character itself); a paired escape or an escaped backslash before
    # `u` also matches, and the walk finds nothing there.
    if suspect:
        for where, text in _strings(data, ""):
            if _SURROGATE.search(text):
                raise BundleParseError(f"{where} holds an unpaired surrogate, which UTF-8 cannot encode")
    return snapshot


def _strings(node, where: str):
    """Each string in a schema-checked document, with its place: the schema admits only known field names."""
    if type(node) is str:
        yield where, node
    elif type(node) is list:
        for i, child in enumerate(node):
            yield from _strings(child, f"{where}[{i}]")
    elif type(node) is dict:
        for key, child in node.items():
            yield from _strings(child, f"{where}.{key}" if where else key)


def _snapshot_from(data) -> ArchitectureSnapshot:
    _require_keys(data, _TOP_LEVEL_KEYS, _TOP_LEVEL_KEYS, "bundle", ("snapshot_id",))
    version = data["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise UnsupportedVersionError(f"unsupported schema_version {_shown(version)} (supported: {SCHEMA_VERSION})")
    # The collections are read in this order, so a document with several
    # faults always names the same one.
    components = _components(_require_array(data["components"], "components"))
    dependencies = _dependencies(_require_array(data["dependencies"], "dependencies"))
    owners = _owners(_require_array(data["owners"], "owners"))
    ownership = _ownership(_require_array(data["ownership"], "ownership"))
    return ArchitectureSnapshot(
        data["snapshot_id"], _parse_date(data["taken_at"], "taken_at"), components, dependencies, owners, ownership
    )


# One loop per record type. Each record's string fields are read in a try
# (a record that is not an object, or lacks one, reads as None) and meet
# exact type checks, json.loads making only values of the exact built-in
# types; then one test of its field names and a dict lookup per enum value.
# A message is formatted only on the branch that raises. When the field
# test fails, `_require_keys` runs on the record to say which field is
# wrong, and it always raises there.


def _slot_setters(cls) -> tuple:
    """The setter of each field of a frozen, slotted model record, in field order.

    Edges, by far the largest collection, are built as unpickling builds
    objects: `object.__new__`, then a direct set of each slot. A frozen
    dataclass's `__init__` sets each field through `object.__setattr__`,
    which makes building 100k edges take more than twice as long. The
    record's `__post_init__`, if it had one, would not run, so none may.
    """
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} has a __post_init__ that building by slots would skip")
    return tuple(getattr(cls, f.name).__set__ for f in dataclasses.fields(cls))


_EDGE_SETTERS = _slot_setters(DependencyEdge)


def _components(records: list) -> tuple[Component, ...]:
    kinds, statuses = _MEMBER[ComponentKind], _MEMBER[ComponentStatus]
    components = []
    for i, c in enumerate(records):
        try:
            cid, name = c["id"], c["name"]
        except (KeyError, TypeError):
            cid = name = None
        if type(cid) is not str or type(name) is not str or c.keys() != _COMPONENT_KEYS:
            _require_keys(c, _COMPONENT_KEYS, _COMPONENT_FIELDS, f"components[{i}]", ("id", "name"))
        try:
            kind = kinds[c["kind"]]
        except (KeyError, TypeError):
            raise _unknown_value(c["kind"], f"components[{i}].kind") from None
        try:
            status = statuses[c["status"]]
        except (KeyError, TypeError):
            raise _unknown_value(c["status"], f"components[{i}].status") from None
        components.append(Component(cid, name, kind, status))
    return tuple(components)


def _dependencies(records: list) -> tuple[DependencyEdge, ...]:
    kinds = _MEMBER[DependencyKind]
    set_user, set_used, set_kind, set_multiplicity = _EDGE_SETTERS
    dependencies = []
    for i, e in enumerate(records):
        try:
            user, used = e["user"], e["owner_component"]
        except (KeyError, TypeError):
            user = used = None
        if type(user) is not str or type(used) is not str or not e.keys() <= _EDGE_KEYS:
            _require_keys(e, _EDGE_KEYS, _EDGE_ENDPOINTS, f"dependencies[{i}]", _EDGE_ENDPOINTS)
        multiplicity = e.get("multiplicity", 1)
        if type(multiplicity) is not int or multiplicity < 1:
            raise SchemaError(f"dependencies[{i}].multiplicity must be a positive integer")
        try:
            kind = kinds[e.get("kind", "use")]
        except (KeyError, TypeError):
            raise _unknown_value(e["kind"], f"dependencies[{i}].kind") from None
        edge = object.__new__(DependencyEdge)
        set_user(edge, user)
        set_used(edge, used)
        set_kind(edge, kind)
        set_multiplicity(edge, multiplicity)
        dependencies.append(edge)
    return tuple(dependencies)


def _owners(records: list) -> tuple[Owner, ...]:
    kinds = _MEMBER[OwnerKind]
    owners = []
    for i, o in enumerate(records):
        try:
            oid, name = o["id"], o["name"]
        except (KeyError, TypeError):
            oid = name = None
        if type(oid) is not str or type(name) is not str or not _OWNER_REQUIRED <= o.keys() <= _OWNER_KEYS:
            _require_keys(o, _OWNER_KEYS, _OWNER_FIELDS, f"owners[{i}]", ("id", "name"))
        evidence = _evidence(o.get("location_evidence", []), i)
        try:
            kind = kinds[o["kind"]]
        except (KeyError, TypeError):
            raise _unknown_value(o["kind"], f"owners[{i}].kind") from None
        owners.append(Owner(oid, name, kind, evidence))
    return tuple(owners)


def _evidence(records, owner: int) -> tuple[LocationEvidence, ...]:
    """The `location_evidence` of the owner at index `owner`."""
    if type(records) is not list:
        raise SchemaError(f"owners[{owner}].location_evidence must be a JSON array")
    sources = _MEMBER[EvidenceSource]
    evidence = []
    for j, ev in enumerate(records):
        if type(ev) is not dict or ev.keys() != _EVIDENCE_KEYS:
            _require_keys(ev, _EVIDENCE_KEYS, _EVIDENCE_FIELDS, f"owners[{owner}].location_evidence[{j}]")
        try:
            source = sources[ev["source"]]
        except (KeyError, TypeError):
            raise _unknown_value(ev["source"], f"owners[{owner}].location_evidence[{j}].source") from None
        payload = ev["payload"]
        if source is EvidenceSource.MEMBER_LOCATIONS:
            if type(payload) is not list or not all(type(p) is str for p in payload):
                raise SchemaError(
                    f"owners[{owner}].location_evidence[{j}].payload must be a list of jurisdiction codes"
                )
            payload = tuple(payload)
        elif type(payload) is not str:
            raise SchemaError(f"owners[{owner}].location_evidence[{j}].payload must be a jurisdiction code string")
        try:
            recorded_at = date.fromisoformat(ev["recorded_at"])
        except (TypeError, ValueError):
            recorded_at = _parse_date(ev["recorded_at"], f"owners[{owner}].location_evidence[{j}].recorded_at")
        evidence.append(LocationEvidence(source, payload, recorded_at))
    return tuple(evidence)


def _ownership(records: list) -> tuple[OwnershipAssignment, ...]:
    ownership = []
    for i, a in enumerate(records):
        try:
            component, owner = a["component"], a["owner"]
        except (KeyError, TypeError):
            component = owner = None
        if type(component) is not str or type(owner) is not str or a.keys() != _ASSIGNMENT_KEYS:
            _require_keys(a, _ASSIGNMENT_KEYS, _ASSIGNMENT_FIELDS, f"ownership[{i}]", _ASSIGNMENT_FIELDS)
        ownership.append(OwnershipAssignment(component, owner))
    return tuple(ownership)


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
