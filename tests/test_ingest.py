import json
from datetime import date

import pytest

from taxarch.generate import fixture
from taxarch.ingest import (
    BundleParseError,
    CsvError,
    SchemaError,
    UnsupportedVersionError,
    assemble_from_csv,
    parse_bundle,
    serialize_bundle,
)
from taxarch.model import ArchitectureSnapshot, validate_snapshot

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
    ],
    ids=["enum-array", "date-1mb", "version-array", "field-name-1mb"],
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


EDGES = "user,owner_component\nbilling,auth\ncatalog,auth\ncatalog,billing\n"
OWNERSHIP = "component,owner\nauth,team-a\nbilling,team-b\ncatalog,team-b\n"
JURISDICTIONS = "owner,jurisdiction\nteam-a,SWE\nteam-b,N/A\n"


def test_assemble_from_csv_basic():
    snapshot = assemble_from_csv(EDGES, OWNERSHIP, JURISDICTIONS, TODAY)
    assert validate_snapshot(snapshot).status == "ok"
    assert len(snapshot.dependencies) == 3
    assert {c.id for c in snapshot.components} == {"auth", "billing", "catalog"}
    assert {c.status.value for c in snapshot.components} == {"production"}
    team_b = snapshot.owner_index()["team-b"]
    assert team_b.location_evidence[0].payload == "UNKNOWN"


def test_assemble_duplicate_ownership_rejected():
    dup = OWNERSHIP + "auth,team-b\n"
    with pytest.raises(CsvError, match="multiple-owners"):
        assemble_from_csv(EDGES, dup, JURISDICTIONS, TODAY)


def test_assemble_conflicting_jurisdiction_rows_rejected():
    conflicting = JURISDICTIONS + "team-a,DEU\n"
    with pytest.raises(CsvError, match="conflicting-evidence: owner 'team-a' has jurisdictions 'SWE' and 'DEU'"):
        assemble_from_csv(EDGES, OWNERSHIP, conflicting, TODAY)


def test_assemble_repeated_identical_jurisdiction_rows_accepted():
    repeated = JURISDICTIONS + "team-a,SWE\nteam-b,N/A\n"
    snapshot = assemble_from_csv(EDGES, OWNERSHIP, repeated, TODAY)
    assert snapshot == assemble_from_csv(EDGES, OWNERSHIP, JURISDICTIONS, TODAY)


def test_assemble_dangling_jurisdiction_owner_rejected():
    extra = JURISDICTIONS + "team-ghost,DEU\n"
    with pytest.raises(CsvError, match="dangling-reference"):
        assemble_from_csv(EDGES, OWNERSHIP, extra, TODAY)


def test_assemble_rejects_non_alpha3_code():
    bad = "owner,jurisdiction\nteam-a,SWEDEN\nteam-b,DEU\n"
    with pytest.raises(SchemaError):
        assemble_from_csv(EDGES, OWNERSHIP, bad, TODAY)


def test_assemble_rejects_wrong_header():
    with pytest.raises(CsvError):
        assemble_from_csv("from,to\nx,y\n", OWNERSHIP, JURISDICTIONS, TODAY)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc.update(components=[1]),
        lambda doc: doc.update(components=5),
        lambda doc: doc["owners"][0].update(location_evidence=5),
        lambda doc: doc["owners"][0].update(location_evidence=[1]),
        lambda doc: doc["components"][0].update(id=5),
        lambda doc: doc["components"][0].update(name=[1]),
        lambda doc: doc["owners"][0].update(name=5),
    ],
    ids=[
        "record-not-object",
        "collection-not-array",
        "evidence-not-array",
        "evidence-not-object",
        "id-not-string",
        "component-name-not-string",
        "owner-name-not-string",
    ],
)
def test_wrongly_typed_nodes_raise_schema_error(mutate):
    doc = json.loads(serialize_bundle(fixture("devnullsoft")))
    mutate(doc)
    with pytest.raises(SchemaError):
        parse_bundle(json.dumps(doc))


@pytest.mark.parametrize("row", ["billing,auth,use,x", "billing,auth,zzz,1"])
def test_assemble_rejects_bad_edge_field(row):
    edges = "user,owner_component,kind,multiplicity\n" + row + "\n"
    with pytest.raises(CsvError, match="row 2"):
        assemble_from_csv(edges, OWNERSHIP, JURISDICTIONS, TODAY)


@pytest.mark.parametrize("what", ["edges", "ownership", "jurisdictions"])
@pytest.mark.parametrize(
    "text",
    ["x" * 1_000_000 + "\n", ",".join(["y" * 100_000] * 20) + "\n"],
    ids=["field-over-csv-limit", "long-wrong-header"],
)
def test_csv_errors_are_typed_and_bounded(what, text):
    inputs = {"edges": EDGES, "ownership": OWNERSHIP, "jurisdictions": JURISDICTIONS, what: text}
    with pytest.raises(CsvError) as excinfo:
        assemble_from_csv(inputs["edges"], inputs["ownership"], inputs["jurisdictions"], TODAY)
    message = str(excinfo.value)
    assert message.startswith(f"{what}: ") and len(message) < 200
