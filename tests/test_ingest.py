import dataclasses
import json
import re
import tracemalloc
from datetime import date
from unittest import mock

import pytest

from taxarch import ingest
from taxarch.generate import GeneratorParams, fixture, generate
from taxarch.ingest import (
    BundleParseError,
    SchemaError,
    UnsupportedVersionError,
    parse_bundle,
    serialize_bundle,
)
from taxarch.model import (
    ArchitectureSnapshot,
    Component,
    DependencyEdge,
    EvidenceSource,
    LocationEvidence,
    Owner,
    OwnershipAssignment,
    UnencodableStringError,
    validate_snapshot,
)

from conftest import TODAY


def test_devnullsoft_round_trip():
    snapshot = fixture("devnullsoft")
    data = serialize_bundle(snapshot)
    parsed = parse_bundle(data)
    assert len(parsed.components) == 18
    assert len(parsed.dependencies) == 17
    assert serialize_bundle(parsed) == data


def test_serialize_is_canonical_under_reordering():
    snapshot = fixture("devnullsoft")
    reordered = ArchitectureSnapshot(
        id=snapshot.id,
        taken_at=snapshot.taken_at,
        components=tuple(reversed(snapshot.components)),
        dependencies=tuple(reversed(snapshot.dependencies)),
        owners=tuple(reversed(snapshot.owners)),
        ownership=tuple(reversed(snapshot.ownership)),
    )
    assert serialize_bundle(snapshot) == serialize_bundle(reordered)


def test_serialize_parse_identity_on_canonical_bytes():
    data = serialize_bundle(fixture("devnullsoft"))
    assert serialize_bundle(parse_bundle(data)) == data


def test_empty_snapshot_serializes_to_empty_arrays():
    snapshot = ArchitectureSnapshot("empty", date(2023, 1, 1), (), (), (), ())
    doc = json.loads(serialize_bundle(snapshot))
    assert doc["components"] == []
    assert doc["dependencies"] == []
    assert doc["owners"] == []
    assert doc["ownership"] == []
    assert serialize_bundle(snapshot).endswith(b"\n")


def test_malformed_json_reports_offset():
    with pytest.raises(BundleParseError) as exc:
        parse_bundle(b'{"schema_version": 1,,}')
    assert exc.value.offset is not None


@pytest.mark.parametrize("path", [("dependencies", 0, "multiplicity"), ("schema_version",)], ids=lambda p: p[-1])
def test_an_over_long_json_number_is_a_parse_error(path):
    # json.loads refuses an integer of more digits than the interpreter converts (4300 by default) with a plain
    # ValueError, which reached the command line as a traceback.
    doc = json.loads(serialize_bundle(fixture("devnullsoft")))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = "\0long"
    text = json.dumps(doc).replace(json.dumps("\0long"), "7" * 5000)
    for document in (text, text.encode()):
        with pytest.raises(BundleParseError, match="^JSON number has more digits than an integer may have$"):
            parse_bundle(document)


def test_non_utf8_rejected():
    with pytest.raises(BundleParseError):
        parse_bundle(b"\xff\xfe{}")


def test_unsupported_schema_version():
    doc = json.loads(serialize_bundle(fixture("devnullsoft")))
    for version in (2, True, "1"):
        doc["schema_version"] = version
        with pytest.raises(UnsupportedVersionError):
            parse_bundle(json.dumps(doc))


def test_unknown_top_level_field_rejected():
    doc = json.loads(serialize_bundle(fixture("devnullsoft")))
    doc["extra"] = True
    with pytest.raises(SchemaError):
        parse_bundle(json.dumps(doc))


def test_unknown_enum_string_names_field_and_value():
    doc = json.loads(serialize_bundle(fixture("devnullsoft")))
    doc["components"][0]["kind"] = "nanoservice"
    with pytest.raises(SchemaError, match="nanoservice"):
        parse_bundle(json.dumps(doc))


@pytest.mark.parametrize(
    "path, value, error, field",
    [
        (("components", 0, "kind"), list(range(200_000)), SchemaError, "components[0].kind"),
        (("taken_at",), "x" * 1_000_000, SchemaError, "taken_at"),
        (("schema_version",), list(range(100_000)), UnsupportedVersionError, "schema_version"),
        (("components", 0, "k" * 1_000_000), 1, SchemaError, "components[0]"),
        (("dependencies", 0, "kind"), "z" * 300, SchemaError, "dependencies[0].kind"),
        (("owners", 0, "location_evidence", 0, "source"), "s" * 1_000_000, SchemaError, "owners[0].location_evidence"),
    ],
    ids=["enum-array", "date-1mb", "version-array", "field-name-1mb", "edge-kind-300", "evidence-source-1mb"],
)
def test_error_message_names_field_without_echoing_input(path, value, error, field):
    doc = json.loads(serialize_bundle(fixture("devnullsoft")))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    with pytest.raises(error) as exc:
        parse_bundle(json.dumps(doc))
    message = str(exc.value)
    assert len(message) < 200
    assert field in message


@pytest.mark.parametrize("text", ["20230401", "2023-W13-6", "2023W136", "２０２３-04-01", "2023-02-30", "2023-04-01 "])
@pytest.mark.parametrize(
    "path, field",
    [
        (("taken_at",), "taken_at"),
        (("owners", 1, "location_evidence", 0, "recorded_at"), "owners[1].location_evidence[0].recorded_at"),
    ],
    ids=["taken_at", "recorded_at"],
)
def test_only_the_serialized_date_form_is_read(path, field, text):
    """Dates are YYYY-MM-DD on every interpreter, though `date.fromisoformat` accepts more from Python 3.11 on."""
    doc = json.loads(serialize_bundle(fixture("devnullsoft")))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = text
    with pytest.raises(SchemaError, match=re.escape(f"field {field!r} is not a valid ISO-8601 date: ")):
        parse_bundle(json.dumps(doc, ensure_ascii=False))


def test_many_unknown_field_names_are_listed_three_and_counted():
    doc = json.loads(serialize_bundle(fixture("devnullsoft")))
    doc["components"][0].update({f"extra-{i:04}": i for i in range(1000)})
    with pytest.raises(SchemaError) as exc:
        parse_bundle(json.dumps(doc))
    assert str(exc.value) == "unknown field(s) 'extra-0000', 'extra-0001', 'extra-0002' and 997 more in components[0]"


@pytest.mark.parametrize(
    "field, value, message",
    [
        pytest.param("kind", "zzz", "unknown value 'zzz' for field 'dependencies[3].kind'", id="unknown-kind"),
        *(
            pytest.param("multiplicity", value, "dependencies[3].multiplicity must be a positive integer", id=name)
            for name, value in [
                ("letters", "x"),
                ("underscored-digits", "1_000"),
                ("padded-digits", " 7 "),
                ("signed-digits", "+3"),
                ("arabic-indic-digit", "\u0663"),
                ("bool", True),
                ("float", 2.0),
                ("zero", 0),
                ("negative", -2),
            ]
        ),
    ],
)
def test_a_bad_edge_field_is_a_schema_error_naming_it(field, value, message):
    doc = json.loads(serialize_bundle(fixture("devnullsoft")))
    doc["dependencies"][3][field] = value
    with pytest.raises(SchemaError) as exc:
        parse_bundle(json.dumps(doc, ensure_ascii=False))
    assert str(exc.value) == message


def _add_ownership(doc, component, owner):
    doc["ownership"].append({"component": component, "owner": owner})


def _add_evidence(doc, owner_index, payload):
    evidence = doc["owners"][owner_index]["location_evidence"]
    evidence.append(dict(evidence[0], payload=payload))


@pytest.mark.parametrize(
    "mutate, finding",
    [
        (lambda doc: _add_ownership(doc, "svc-00", "team-ab-apps"), "multiple-owners"),
        (lambda doc: doc["ownership"][0].update(owner="team-ghost"), "dangling-reference"),
        (lambda doc: doc["ownership"].pop(0), "missing-owner"),
        (lambda doc: _add_evidence(doc, 0, "DEU"), "conflicting-evidence"),
        (lambda doc: doc["owners"][0]["location_evidence"][0].update(payload="SWEDEN"), "malformed-jurisdiction"),
        (lambda doc: doc["dependencies"].append(dict(doc["dependencies"][0])), "duplicate-edge"),
        (lambda doc: doc["dependencies"][0].update(owner_component="svc-02"), "self-dependency"),
    ],
    ids=[
        "two-owners",
        "unknown-owner",
        "no-owner",
        "conflicting-codes",
        "malformed-code",
        "repeated-edge",
        "edge-to-itself",
    ],
)
def test_parse_leaves_each_invariant_fault_to_validate(mutate, finding):
    """The parser enforces the document schema alone; a well-typed bundle whose records break an invariant parses."""
    doc = json.loads(serialize_bundle(fixture("devnullsoft")))
    mutate(doc)
    assert validate_snapshot(parse_bundle(json.dumps(doc))).codes() == [finding]


def test_parse_never_panics_on_arbitrary_bytes():
    for blob in (b"", b"[]", b"42", b'"x"', b"\x00\x01", b"{}", b'{"a": }', b"[" * 100000, b'{"a": ' * 100000):
        with pytest.raises((BundleParseError, SchemaError)):
            parse_bundle(blob)


def _devnullsoft_text_with(path, escaped: str) -> str:
    """The devnullsoft bundle as JSON text, with the string at `path` replaced by `escaped`, written as is."""
    doc = json.loads(serialize_bundle(fixture("devnullsoft")))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = "\x00marker"
    return json.dumps(doc).replace(json.dumps("\x00marker"), f'"{escaped}"')


@pytest.mark.parametrize(
    "path, escaped, field",
    [
        (("snapshot_id",), "\\ud800", "snapshot_id"),
        (("components", 2, "id"), "svc\\udfff", "components[2].id"),
        (("owners", 1, "location_evidence", 0, "payload"), "\\uDE80SWE", "owners[1].location_evidence[0].payload"),
        (("ownership", 3, "owner"), "\\ude80\\ud83d", "ownership[3].owner"),
    ],
    ids=["snapshot-id", "component-id", "evidence-payload", "reversed-pair"],
)
def test_unpaired_surrogate_escape_rejected_without_echo(path, escaped, field):
    for document in (_devnullsoft_text_with(path, escaped), _devnullsoft_text_with(path, escaped).encode()):
        with pytest.raises(BundleParseError) as exc:
            parse_bundle(document)
        message = str(exc.value)
        assert message.startswith(f"{field} holds an unpaired surrogate")
        assert message.isascii() and "\\" not in message  # neither the surrogate nor its escape is echoed


def test_raw_surrogate_in_str_document_rejected():
    doc = json.loads(serialize_bundle(fixture("devnullsoft")))
    doc["components"][0]["name"] = "svc\ud800"
    with pytest.raises(BundleParseError, match=r"^components\[0\]\.name holds an unpaired surrogate"):
        parse_bundle(json.dumps(doc, ensure_ascii=False))


@pytest.mark.parametrize("escaped, text", [("\\\\ud800", "\\ud800"), ("\\ud83d\\ude80", "\U0001f680")])
def test_escaped_backslash_and_paired_surrogates_accepted(escaped, text):
    snapshot = parse_bundle(_devnullsoft_text_with(("snapshot_id",), escaped).encode())
    assert snapshot.id == text
    assert parse_bundle(serialize_bundle(snapshot)) == snapshot


def test_serialize_peak_memory_stays_below_two_and_a_half_times_the_output():
    # Holding the document's text whole, and copying it to join and encode it, peaks near 3.6 times.
    snapshot = generate(
        GeneratorParams(component_count=2000, team_count=50, dependency_density=10, unresolved_rate=0.3, seed=3)
    )
    tracemalloc.start()
    try:
        data = serialize_bundle(snapshot)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(snapshot.dependencies) == 20000
    assert peak < 2.5 * len(data)


# Each string is refused by the constructor of the snapshot that would hold it, which names the record and field; the
# parser names the same string by its place in the document as written, whose records are sorted.
@pytest.mark.parametrize(
    "collection, pick, changes, refused, field",
    [
        (
            "components",
            lambda c: c.id == "svc-31",
            {"name": "svc \ud800"},
            "ComponentTable has name[7]",
            "components[7].name",
        ),
        (
            "dependencies",
            lambda e: e.user == "svc-71",
            {"owner_component": "svc-70\udfff"},
            "EdgeTable has owner_component[14]",
            "dependencies[16].owner_component",
        ),
        (
            "owners",
            lambda o: o.id == "team-ab-platform",
            {"location_evidence": (LocationEvidence(EvidenceSource.EXPLICIT_ASSIGNMENT, "SWE\ude80", TODAY),)},
            "snapshot 'devnullsoft-2023Q2' has owners[1]",
            "owners[1].location_evidence[0].payload",
        ),
    ],
    ids=["component-name", "edge-in-a-later-block", "evidence-payload"],
)
@pytest.mark.parametrize("made", ["constructed", "parsed"])
def test_unencodable_string_is_refused_by_the_constructors_naming_its_field(
    collection, pick, changes, refused, field, made
):
    snapshot = fixture("devnullsoft")
    records = tuple(dataclasses.replace(r, **changes) if pick(r) else r for r in getattr(snapshot, collection))
    if made == "constructed":
        with pytest.raises(UnencodableStringError) as exc:
            dataclasses.replace(snapshot, **{collection: records})
        assert str(exc.value) == f"{refused} holding an unpaired surrogate, which UTF-8 cannot encode"
        return
    doc = json.loads(serialize_bundle(snapshot))
    *path, last = re.findall(r"\w+", field)
    node = doc
    for key in path:
        node = node[int(key)] if key.isdigit() else node[key]
    node[int(last) if last.isdigit() else last] = {
        "components": "svc \ud800", "dependencies": "svc-70\udfff", "owners": "SWE\ude80"
    }[collection]
    with pytest.raises(BundleParseError) as exc:
        parse_bundle(json.dumps(doc))
    assert str(exc.value) == f"{field} holds an unpaired surrogate, which UTF-8 cannot encode"


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: doc.update(components=[1]), "components[0] must be a JSON object"),
        (lambda doc: doc.update(components=5), "components must be a JSON array"),
        (lambda doc: doc["owners"][0].update(location_evidence=5), "owners[0].location_evidence must be a JSON array"),
        (
            lambda doc: doc["owners"][0].update(location_evidence=[1]),
            "owners[0].location_evidence[0] must be a JSON object",
        ),
        (lambda doc: doc["components"][0].update(id=5), "components[0].id must be a string"),
        (lambda doc: doc["components"][0].update(name=[1]), "components[0].name must be a string"),
        (lambda doc: doc["owners"][0].update(name=5), "owners[0].name must be a string"),
        (lambda doc: doc.update(snapshot_id=5), "bundle.snapshot_id must be a string"),
    ],
    ids=[
        "record-not-object",
        "collection-not-array",
        "evidence-not-array",
        "evidence-not-object",
        "id-not-string",
        "component-name-not-string",
        "owner-name-not-string",
        "snapshot-id-not-string",
    ],
)
def test_wrongly_typed_nodes_raise_schema_error(mutate, message):
    doc = json.loads(serialize_bundle(fixture("devnullsoft")))
    mutate(doc)
    with pytest.raises(SchemaError) as exc:
        parse_bundle(json.dumps(doc))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "schema, record",
    [
        (ingest._COMPONENT, Component),
        (ingest._EDGE, DependencyEdge),
        (ingest._OWNER, Owner),
        (ingest._EVIDENCE, LocationEvidence),
        (ingest._ASSIGNMENT, OwnershipAssignment),
    ],
    ids=["Component", "DependencyEdge", "Owner", "LocationEvidence", "OwnershipAssignment"],
)
def test_each_parser_schema_names_the_fields_of_its_record(schema, record):
    assert sorted(name for name, _, _ in schema) == sorted(field.name for field in dataclasses.fields(record))


def test_the_fault_walk_reads_a_fault_in_the_last_record_a_block_at_a_time():
    records = [{"user": f"u{i}", "owner_component": "b", "kind": "use", "multiplicity": 1} for i in range(20_000)]
    records[-1]["multiplicity"] = 0
    with mock.patch.object(ingest, "_require_keys", wraps=ingest._require_keys) as require_keys:
        with pytest.raises(SchemaError, match=r"^dependencies\[19999\]\.multiplicity must be a positive integer$"):
            ingest._records(ingest._EDGE, ingest.EdgeTable, records, "dependencies")
    assert 0 < require_keys.call_count <= ingest._WALK_RECORDS
