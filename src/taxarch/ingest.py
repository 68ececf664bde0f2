"""Parsing and canonical serialization of snapshot bundles, taxarch's one input format.

The bundle is a UTF-8 JSON document (schema_version 1). Serialization is
canonical: fixed key order, sorted arrays, 2-space indent, trailing
newline, so equal snapshots always produce byte-identical documents.

The schema is fixed, so the canonical bytes are formatted record by
record at each record's fixed indent by the fixed-schema writer helpers
of `jsontext`, not built as a dict and handed to `json.dumps`, whose
`indent` falls back to the pure-Python encoder. Every string goes through
`json.encoder.encode_basestring`, the C escaper `json.dumps` itself uses
with `ensure_ascii=False`, so the bytes equal
`json.dumps(doc, indent=2, ensure_ascii=False) + "\n"` in UTF-8. The
document is encoded into one growing byte buffer, and its dependency
records, nearly all of a large bundle, are formatted, joined and encoded
a block at a time, so its text is never held whole as a str.

Every record list of a parsed document is read column by column, from
its record type's schema of (field, default, kind): one test of the
field names, an enum lookup or date parse of each column spelled as
text, then the model constructor of the list, which holds every value to
its type. When a list fails, a block-first walk names its first faulty
record and field, in schema order. A string that UTF-8 cannot encode is
named, in document order, only once the whole document meets the
schema. The three large lists become `model` tables, with no record
object per row.
"""

from __future__ import annotations

import io
import json
import operator
import re
from collections import namedtuple
from datetime import date
from itertools import chain, islice

from .jsontext import array as _array
from .jsontext import quote as _quote
from .jsontext import strings as _strings_array
from .model import (
    _SURROGATE,
    ArchitectureSnapshot,
    ComponentKind,
    ComponentStatus,
    ComponentTable,
    DependencyKind,
    EdgeTable,
    EvidenceSource,
    InvalidFieldError,
    LocationEvidence,
    Owner,
    OwnerKind,
    OwnershipTable,
    Table,
    UnencodableStringError,
)

SCHEMA_VERSION = 1


class IngestError(ValueError):
    """Base class for bundle ingestion failures."""


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

_ENUMS = (ComponentKind, ComponentStatus, DependencyKind, OwnerKind, EvidenceSource)
_MEMBER = {enum: {member.value: member for member in enum} for enum in _ENUMS}

# Each record type's fields as (name, default, kind), in the order a record's fields are judged; the default `...`
# marks a required field. The kind names the field's reading in `_read`: a date or an enum is converted from its text,
# LocationEvidence is a list of evidence records, and str, int and "payload" (shaped by the record's source) are held
# by the record's constructor.
_COMPONENT = (("id", ..., str), ("name", ..., str), ("kind", ..., ComponentKind), ("status", ..., ComponentStatus))
_EDGE = (("user", ..., str), ("owner_component", ..., str), ("multiplicity", 1, int), ("kind", "use", DependencyKind))
_OWNER = (("id", ..., str), ("name", ..., str), ("location_evidence", [], LocationEvidence), ("kind", ..., OwnerKind))
_EVIDENCE = (("source", ..., EvidenceSource), ("payload", ..., "payload"), ("recorded_at", ..., date))
_ASSIGNMENT = (("component", ..., str), ("owner", ..., str))


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


# The one date form the serializer writes. `date.fromisoformat` alone accepts
# more from Python 3.11 on (e.g. "20230401", "2023-W13-6"), so a bundle's
# validity would depend on the interpreter.
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}").fullmatch


def _parse_date(text: str, field: str) -> date:
    """The date `text` writes; a failure names `field`."""
    if _ISO_DATE(text):
        try:
            return date.fromisoformat(text)
        except ValueError:
            pass
    raise SchemaError(f"field {field!r} is not a valid ISO-8601 date: {_shown(text)}")


def parse_bundle(document: bytes | str) -> ArchitectureSnapshot:
    """Parse a snapshot bundle. Raises typed errors, never panics.

    Parsing enforces the document schema, and that every string can be written as UTF-8; the caller is expected to
    run validate_snapshot on the result.
    """
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BundleParseError("document is not valid UTF-8", exc.start) from None
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise BundleParseError(f"malformed JSON: {exc.msg}", exc.pos) from None
    except ValueError:  # json.loads's one other: an integer of more digits than int() takes (4300 by default)
        raise BundleParseError("JSON number has more digits than an integer may have") from None
    except RecursionError:
        raise BundleParseError("JSON nested too deeply") from None
    fields = _snapshot_from(data)
    try:
        return ArchitectureSnapshot(*fields)
    except UnencodableStringError:
        # json.loads turns an unpaired surrogate escape into a lone surrogate, which no artifact could hold. The
        # document meets the schema, so the constructors refused nothing else; its strings are walked to name it.
        where = next(where for where, text in _strings(data, "") if _SURROGATE.search(text))
        raise BundleParseError(f"{where} holds an unpaired surrogate, which UTF-8 cannot encode") from None


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


# A snapshot's fields as `_snapshot_from` read them, for its constructor.
_Fields = namedtuple("_Fields", ("id", "taken_at", "components", "dependencies", "owners", "ownership"))


def _snapshot_from(data) -> _Fields:
    """The snapshot's fields that the document `data` holds, each record list its table or tuple of owners (or, if
    a table refused only an unencodable string, its rows); a fault raises the SchemaError naming it."""
    _require_keys(data, _TOP_LEVEL_KEYS, _TOP_LEVEL_KEYS, "bundle", ("snapshot_id",))
    version = data["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise UnsupportedVersionError(f"unsupported schema_version {_shown(version)} (supported: {SCHEMA_VERSION})")
    # The collections are read in this order, then `taken_at`, so a
    # document with several faults always names the same one.
    components = _records(_COMPONENT, ComponentTable, data["components"], "components")
    dependencies = _records(_EDGE, EdgeTable, data["dependencies"], "dependencies")
    owners = _records(_OWNER, Owner, data["owners"], "owners")
    ownership = _records(_ASSIGNMENT, OwnershipTable, data["ownership"], "ownership")
    taken_at = _read(date, (data["taken_at"],), "taken_at")[0]
    return _Fields(data["snapshot_id"], taken_at, components, dependencies, owners, ownership)


# Records a fault walk reads at once: the largest run it walks record by record.
_WALK_RECORDS = 1024
_REFUSED = (KeyError, TypeError, SchemaError, InvalidFieldError)  # what a list's read and build raise on a fault


def _built(cls: type, read: dict[str, tuple]):
    """The columns `read`, by field name, built by `cls`: a table class, or the record class of each record."""
    if issubclass(cls, Table):
        return cls(*map(read.__getitem__, cls.row.__slots__))
    return tuple(map(cls, *map(read.__getitem__, cls.__slots__)))


def _records(schema: tuple, cls: type, records, where: str):
    """The JSON array `records` read by `_columns` and built by `cls` (see `_built`); a fault raises the SchemaError
    naming it. The fault walk reads the list again a block of `_WALK_RECORDS` at a time and walks the first block
    that fails by `_record`, so it names the first faulty record and field. A list whose walk finds no fault was
    refused for a string that UTF-8 cannot encode, which only a table refuses: it is returned as its rows.
    """
    if type(records) is not list:
        raise SchemaError(f"{where} must be a JSON array")
    try:
        return _built(cls, _columns(schema, records, where))
    except _REFUSED:
        pass
    for start in range(0, len(records), _WALK_RECORDS):
        block = records[start : start + _WALK_RECORDS]
        try:
            _built(cls, _columns(schema, block, where))
        except _REFUSED:
            for i, record in enumerate(block, start):
                _record(schema, cls, record, f"{where}[{i}]")
    return tuple(map(cls.row, *map(_columns(schema, records, where).__getitem__, cls.row.__slots__)))


def _columns(schema: tuple, records: list, where: str) -> dict[str, tuple]:
    """Each field's column of `records` by its name, read by `_read`. A list whose records all have as many fields as
    the schema, the serializer's form, reads every field with `itemgetter`, which proves the field names too; any
    other must hold objects of known field names. A fault raises SchemaError, KeyError or TypeError.
    """
    full = {len(schema)}.issuperset(map(len, records))
    names = {name for name, _, _ in schema}
    if not full and not ({dict}.issuperset(map(type, records)) and names.issuperset(chain.from_iterable(records))):
        raise SchemaError(f"unknown field(s) in {where}")
    read: dict[str, tuple] = {}
    for name, default, kind in schema:
        if full or default is ...:
            values = tuple(map(operator.itemgetter(name), records))
        else:
            values = tuple(record.get(name, default) for record in records)
        read[name] = _read(kind, values, f"{where}.{name}")
    return read


# A value of each kind that `_read` converts, standing in for one it could not, so that `_record` can still build.
_STAND_IN = {date: date(1970, 1, 1), LocationEvidence: (), **{enum: next(iter(enum)) for enum in _MEMBER}}
# What a field of each kind that a constructor holds must be, as a refusal names it; a payload's is chosen by whether
# its source is member_locations.
_MUST = {str: "a string", int: "a positive integer"}
_MUST["payload"] = ("a jurisdiction code string", "a list of jurisdiction codes")


def _record(schema: tuple, cls: type, record, where: str) -> None:
    """Raise the SchemaError naming the first fault, in schema order, of the one `record` at `where`; return when
    it has none but a string that UTF-8 cannot encode. A failed conversion stands in as a value of its kind, so
    that `cls` still builds the record: a field it refuses is named when it comes first."""
    names = tuple(name for name, _, _ in schema)
    _require_keys(record, names, tuple(name for name, default, _ in schema if default is ...), where)
    read, failed = {}, None
    for i, (name, default, kind) in enumerate(schema):
        try:
            read[name] = _read(kind, (record.get(name, default),), f"{where}.{name}")
        except SchemaError as exc:
            failed, read[name] = failed or (i, exc), (_STAND_IN[kind],)
    try:
        _built(cls, read)
    except UnencodableStringError:
        pass
    except InvalidFieldError as exc:
        i = names.index(exc.field)
        if failed is None or i < failed[0]:
            must = _MUST[schema[i][2]]
            if exc.field == "payload":
                must = must[read["source"][0] is _MEMBER_LOCATIONS]
            raise SchemaError(f"{where}.{exc.field} must be {must}") from None
    if failed is not None:
        raise failed[1]


_MEMBER_LOCATIONS = EvidenceSource.MEMBER_LOCATIONS


def _read(kind, values: tuple, where: str) -> tuple:
    """The column `values` of a field of kind `kind`: a date or enum converted from its text, evidence records read
    as their own list, any other kind as given, for the record's constructor to hold. A fault raises SchemaError
    naming `where` and showing the column's first value: the walk reads one record at a time.
    """
    if kind is date:  # each distinct text parsed once
        if not {str}.issuperset(map(type, values)):
            raise SchemaError(f"field {where!r} must be an ISO-8601 date string")
        dates = {text: _parse_date(text, where) for text in set(values)}
        return tuple(map(dates.__getitem__, values))
    if kind is LocationEvidence:  # each owner's list flattened, read as one list and regrouped
        if not {list}.issuperset(map(type, values)):
            raise SchemaError(f"{where} must be a JSON array")
        evidence = iter(_records(_EVIDENCE, LocationEvidence, list(chain.from_iterable(values)), where))
        return tuple(tuple(islice(evidence, len(records))) for records in values)
    if kind in _MEMBER:
        try:
            return tuple(map(_MEMBER[kind].__getitem__, values))
        except (KeyError, TypeError):
            raise SchemaError(f"unknown value {_shown(values[0])} for field {where!r}") from None
    return values


# The JSON string of every enum value, escaped once instead of per record.
_JSON_VALUE = {member: _quote(member.value) for enum in _ENUMS for member in enum}


def _evidence_record(ev: LocationEvidence) -> str:
    payload = _strings_array(ev.payload, "          ") if isinstance(ev.payload, tuple) else _quote(ev.payload)
    return (
        f'        {{\n          "source": {_JSON_VALUE[ev.source]},\n          "payload": {payload},\n'
        f'          "recorded_at": {_quote(ev.recorded_at.isoformat())}\n        }}'
    )


_FIRST = operator.itemgetter(0)

# Dependency records formatted, joined and encoded at once: the largest text held beside the buffer.
_BLOCK_RECORDS = 4096


def serialize_bundle(snapshot: ArchitectureSnapshot) -> bytes:
    """Serialize to the canonical bundle form (byte-stable for equal snapshots).

    The document is written into one growing byte buffer: the header and
    components, then the dependency records a block of `_BLOCK_RECORDS` at
    a time, then the owners and ownership. Every string of a snapshot can
    be encoded: its constructors refuse any other.
    """
    buffer = io.BytesIO()
    for piece in _bundle_text(snapshot):
        buffer.write(piece.encode("utf-8"))
    return buffer.getvalue()


def _bundle_text(snapshot: ArchitectureSnapshot):
    """The canonical bundle's text in pieces whose concatenation is the document."""
    c = snapshot.components
    components = [
        f'    {{\n      "id": {_quote(cid)},\n      "name": {_quote(name)},\n'
        f'      "kind": {_JSON_VALUE[kind]},\n      "status": {_JSON_VALUE[status]}\n    }}'
        for cid, name, kind, status in sorted(zip(c.ids, c.names, c.kinds, c.statuses), key=_FIRST)
    ]
    yield (
        f'{{\n  "schema_version": {SCHEMA_VERSION},\n  "snapshot_id": {_quote(snapshot.id)},\n'
        f'  "taken_at": {_quote(snapshot.taken_at.isoformat())},\n'
        f'  "components": {_array(components, "  ")},\n  "dependencies": '
    )
    del components  # a suspended generator would hold it, and `rows` below, until the document ends
    # Sorted by (user, owner_component, kind); the row index keeps equal edges in their order, as a stable sort would.
    edges = snapshot.dependencies
    multiplicities = edges.multiplicities
    rows = sorted(zip(edges.users, edges.used, edges.kinds, range(len(edges))))
    if rows:
        # Each block is a run of the array's items; a seam between two blocks is the separator between two items.
        for start in range(0, len(rows), _BLOCK_RECORDS):
            yield ",\n" if start else "[\n"
            yield ",\n".join([
                f'    {{\n      "user": {_quote(user)},\n      "owner_component": {_quote(used)},\n'
                f'      "kind": {_JSON_VALUE[kind]},\n      "multiplicity": {int.__repr__(multiplicities[i])}\n    }}'
                for user, used, kind, i in rows[start : start + _BLOCK_RECORDS]
            ])
        yield "\n  ]"
    else:
        yield "[]"
    del rows
    owners = [
        f'    {{\n      "id": {_quote(o.id)},\n      "name": {_quote(o.name)},\n      "kind": {_JSON_VALUE[o.kind]},\n'
        f'      "location_evidence": {_array([_evidence_record(ev) for ev in o.location_evidence], "      ")}\n    }}'
        for o in sorted(snapshot.owners, key=lambda o: o.id)
    ]
    a = snapshot.ownership
    ownership = [
        f'    {{\n      "component": {_quote(component)},\n      "owner": {_quote(owner)}\n    }}'
        for component, owner in sorted(zip(a.components, a.owners))
    ]
    yield f',\n  "owners": {_array(owners, "  ")},\n  "ownership": {_array(ownership, "  ")}\n}}\n'
