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

Every record list of a parsed document is read column by column by one
reader, from its record type's schema: a tuple of (field, default, kind).
A list meets one test of its records' field names, then each column one
rule of its field's kind: an exact-type test, an enum lookup or a date
parse. An evidence payload column meets three whole-column tests, split
by its records' sources: the member_locations payloads are lists, their
codes are strings, and every other payload is a string. A well-formed
bundle formats no message. When a list fails, a
block-first walk reads it again a block at a time with the same rules
and walks the first failing block record by record, so the message
names the first faulty record and field. A string holding an unpaired
surrogate, which UTF-8 cannot encode, is refused too; the strings are
searched for one only when the text holds a backslash and a surrogate
escape matches (or, in a str, holds a surrogate itself).

A parsed snapshot's three large record lists are the tables of the
columns the parser reads, with no record object per row: `components` a
`model.ComponentTable`, `dependencies` a `model.EdgeTable` and
`ownership` a `model.OwnershipTable`. The snapshot's own proving
constructor builds it, so it carries the parser's proof that every field,
owners and evidence included, holds the parser's type, which
`validate_snapshot` does not test again; `parse_bundle` returns it only
after its surrogate search found none.
"""

from __future__ import annotations

import io
import json
import operator
import re
from datetime import date
from itertools import chain, compress, islice

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
    LocationEvidence,
    Owner,
    OwnerKind,
    OwnershipTable,
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
# marks a required field. The kind names the field's rule in `_read`: str, int (positive), date, an enum, "payload"
# (shaped by the record's source) or LocationEvidence (a list of evidence records).
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


# A JSON escape of a UTF-16 surrogate, paired or not; `_SURROGATE` matches a surrogate itself.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def parse_bundle(document: bytes | str) -> ArchitectureSnapshot:
    """Parse a snapshot bundle. Raises typed errors, never panics.

    The caller is expected to run validate_snapshot on the result;
    parsing only enforces the document schema, and that every string
    can be written as UTF-8. The snapshot carries the parser's proof of
    its types, so validate skips the type checks the parser made.
    """
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BundleParseError("document is not valid UTF-8", exc.start) from None
        suspect = "\\" in document and _SURROGATE_ESCAPE.search(document)
    else:
        suspect = ("\\" in document and _SURROGATE_ESCAPE.search(document)) or (
            not document.isascii() and _SURROGATE.search(document)
        )
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise BundleParseError(f"malformed JSON: {exc.msg}", exc.pos) from None
    except ValueError:  # json.loads's one other: an integer of more digits than int() takes (4300 by default)
        raise BundleParseError("JSON number has more digits than an integer may have") from None
    except RecursionError:
        raise BundleParseError("JSON nested too deeply") from None
    snapshot = _snapshot_from(data)
    # json.loads turns an unpaired surrogate escape into a lone surrogate,
    # which no artifact could hold: UTF-8 cannot encode it. The strings are
    # walked only when the text holds a backslash, which every escape
    # needs, and the escape regex matches (or, in a str, when it holds the
    # character itself); a paired escape or an escaped backslash before
    # `u` also matches, and the walk finds nothing there. The backslash
    # test is one memchr, a tenth of the regex's scan.
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
    # The collections are read in this order, then `taken_at`, so a
    # document with several faults always names the same one.
    components = _records(_COMPONENT, data["components"], "components").values()
    users, used, multiplicities, edge_kinds = _records(_EDGE, data["dependencies"], "dependencies").values()
    ids, names, evidence, owner_kinds = _records(_OWNER, data["owners"], "owners").values()
    ownership = _records(_ASSIGNMENT, data["ownership"], "ownership").values()
    return ArchitectureSnapshot._from_parser(
        data["snapshot_id"],
        _read(date, (data["taken_at"],), "taken_at", {})[0],
        ComponentTable(*components),
        EdgeTable(users, used, edge_kinds, multiplicities),
        tuple(map(Owner, ids, names, owner_kinds, evidence)),
        OwnershipTable(*ownership),
    )


# Records a fault walk reads at once: the largest run it walks record by record.
_WALK_RECORDS = 1024


def _records(schema: tuple, records, where: str) -> dict[str, tuple]:
    """The columns of the JSON array `records` by field name, read whole by `_columns`; a fault raises the
    SchemaError naming it.

    The fault walk reads the list again a block of `_WALK_RECORDS` at a time and walks the first block that fails
    record by record: `_require_keys`, then `_columns` on a list of the one record. A list fails exactly when one of
    its records fails alone, so the walk names the first faulty record and, in it, the first faulty field.
    """
    if type(records) is not list:
        raise SchemaError(f"{where} must be a JSON array")
    try:
        return _columns(schema, records, where)
    except (KeyError, TypeError, SchemaError):
        pass
    allowed = tuple(name for name, _, _ in schema)
    required = tuple(name for name, default, _ in schema if default is ...)
    for start in range(0, len(records), _WALK_RECORDS):
        block = records[start : start + _WALK_RECORDS]
        try:
            _columns(schema, block, where)
        except (KeyError, TypeError, SchemaError):
            for i, record in enumerate(block, start):
                _require_keys(record, allowed, required, f"{where}[{i}]")
                _columns(schema, [record], f"{where}[{i}]")
    raise SchemaError(f"{where} cannot be read")  # not reached: a list fails only where one of its records does


def _columns(schema: tuple, records: list, where: str) -> dict[str, tuple]:
    """Each field's column of `records` by its name, read a column at a time by the field's rule in `_read`.

    A list whose records all have as many fields as the schema, the serializer's form, reads every field with
    `itemgetter`, which proves the field names too. Any other list must hold objects of known field names, and
    reads a required field with `itemgetter` and one with a default by `dict.get`. A fault raises SchemaError,
    KeyError or TypeError; for a list of one record that `_require_keys` accepts, it is the SchemaError that names
    the fault.
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
        read[name] = _read(kind, values, f"{where}.{name}", read)
    return read


def _read(kind, values: tuple, where: str, read: dict[str, tuple]) -> tuple:
    """The column `values` of a field of kind `kind`, as the records hold it; `read` holds the columns before it.

    A fault raises SchemaError naming `where`, the field, and any value it shows is the column's first: the fault
    walk reads one record at a time.
    """
    if kind is str:
        if {str}.issuperset(map(type, values)):
            return values
        raise SchemaError(f"{where} must be a string")
    if kind is int:
        if {int}.issuperset(map(type, values)) and min(values, default=1) >= 1:
            return values
        raise SchemaError(f"{where} must be a positive integer")
    if kind is date:  # each distinct text parsed once
        if not {str}.issuperset(map(type, values)):
            raise SchemaError(f"field {where!r} must be an ISO-8601 date string")
        dates = {text: _parse_date(text, where) for text in set(values)}
        return tuple(map(dates.__getitem__, values))
    if kind == "payload":  # three column tests: member_locations payloads are lists, of strings; any other a string
        members = EvidenceSource.MEMBER_LOCATIONS  # a local: the class attribute costs ten times as much
        lists = [source is members for source in read["source"]]
        member_payloads = list(compress(values, lists))
        if (
            {list}.issuperset(map(type, member_payloads))
            and {str}.issuperset(map(type, chain.from_iterable(member_payloads)))
            and {str}.issuperset(map(type, compress(values, map(operator.not_, lists))))
        ):
            return values
        shape = "a list of jurisdiction codes" if lists[0] else "a jurisdiction code string"
        raise SchemaError(f"{where} must be {shape}")
    if kind is LocationEvidence:  # each owner's list flattened, read as one list and regrouped
        if not {list}.issuperset(map(type, values)):
            raise SchemaError(f"{where} must be a JSON array")
        evidence = map(LocationEvidence, *_records(_EVIDENCE, list(chain.from_iterable(values)), where).values())
        return tuple(tuple(islice(evidence, len(records))) for records in values)
    try:
        return tuple(map(_MEMBER[kind].__getitem__, values))
    except (KeyError, TypeError):
        raise SchemaError(f"unknown value {_shown(values[0])} for field {where!r}") from None


# The JSON string of every enum value, escaped once instead of per record.
_JSON_VALUE = {member: _quote(member.value) for enum in _ENUMS for member in enum}


def _evidence_record(ev: LocationEvidence) -> str:
    payload = _strings_array(ev.payload, "          ") if isinstance(ev.payload, tuple) else _quote(ev.payload)
    return (
        f'        {{\n          "source": {_JSON_VALUE[ev.source]},\n          "payload": {payload},\n'
        f'          "recorded_at": {_quote(ev.recorded_at.isoformat())}\n        }}'
    )


class UnencodableStringError(IngestError):
    """A snapshot string holds an unpaired surrogate, so its bundle cannot be written as UTF-8."""


_FIRST = operator.itemgetter(0)

# Dependency records formatted, joined and encoded at once: the largest text held beside the buffer.
_BLOCK_RECORDS = 4096


def serialize_bundle(snapshot: ArchitectureSnapshot) -> bytes:
    """Serialize to the canonical bundle form (byte-stable for equal snapshots).

    The document is written into one growing byte buffer: the header and
    components, then the dependency records a block of `_BLOCK_RECORDS` at
    a time, then the owners and ownership. Raises `UnencodableStringError`,
    naming the record and field as the parser does, when a string holds an
    unpaired surrogate.
    """
    buffer = io.BytesIO()
    try:
        for piece in _bundle_text(snapshot):
            buffer.write(piece.encode("utf-8"))
    except UnicodeEncodeError:
        # Only a failed write pays for the search: the document's text, read back, is walked for the string.
        data = json.loads("".join(_bundle_text(snapshot)))
        where = next(where for where, text in _strings(data, "") if _SURROGATE.search(text))
        raise UnencodableStringError(f"{where} holds an unpaired surrogate, which UTF-8 cannot encode") from None
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
