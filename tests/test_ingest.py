import dataclasses
import json
import re
import tracemalloc
from datetime import date
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxarch import ingest
from taxarch.generate import GeneratorParams, fixture, generate
from taxarch.ingest import (
    BundleParseError,
    CsvError,
    SchemaError,
    UnencodableStringError,
    UnsupportedVersionError,
    assemble_from_csv,
    parse_bundle,
    serialize_bundle,
)
from taxarch.model import (
    UNKNOWN,
    ArchitectureSnapshot,
    Component,
    DependencyEdge,
    EvidenceSource,
    LocationEvidence,
    Owner,
    OwnershipAssignment,
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


# The place is counted in the document as written, whose records are sorted.
@pytest.mark.parametrize(
    "collection, pick, changes, field",
    [
        ("components", lambda c: c.id == "svc-31", {"name": "svc \ud800"}, "components[7].name"),
        (
            "dependencies",
            lambda e: e.user == "svc-71",
            {"owner_component": "svc-70\udfff"},
            "dependencies[16].owner_component",
        ),
        (
            "owners",
            lambda o: o.id == "team-ab-platform",
            {"location_evidence": (LocationEvidence(EvidenceSource.EXPLICIT_ASSIGNMENT, "SWE\ude80", TODAY),)},
            "owners[1].location_evidence[0].payload",
        ),
    ],
    ids=["component-name", "edge-in-a-later-block", "evidence-payload"],
)
@pytest.mark.parametrize("block", [3, ingest._BLOCK_RECORDS])
def test_unencodable_string_is_a_typed_error_naming_its_field(collection, pick, changes, field, block):
    snapshot = fixture("devnullsoft")
    records = tuple(dataclasses.replace(r, **changes) if pick(r) else r for r in getattr(snapshot, collection))
    snapshot = dataclasses.replace(snapshot, **{collection: records})
    with mock.patch.object(ingest, "_BLOCK_RECORDS", block), pytest.raises(UnencodableStringError) as exc:
        serialize_bundle(snapshot)
    assert str(exc.value) == f"{field} holds an unpaired surrogate, which UTF-8 cannot encode"


EDGES = "user,owner_component\nbilling,auth\ncatalog,auth\ncatalog,billing\n"
OWNERSHIP = "component,owner\nauth,team-a\nbilling,team-b\ncatalog,team-b\n"
JURISDICTIONS = "owner,jurisdiction\nteam-a,SWE\nteam-b,N/A\n"


def test_assemble_from_csv_basic():
    snapshot = assemble_from_csv(EDGES, OWNERSHIP, JURISDICTIONS, TODAY)
    assert validate_snapshot(snapshot).status == "ok"
    assert len(snapshot.dependencies) == 3
    assert {c.id for c in snapshot.components} == {"auth", "billing", "catalog"}
    assert {c.status.value for c in snapshot.components} == {"production"}
    (team_b,) = [o for o in snapshot.owners if o.id == "team-b"]
    assert team_b.location_evidence[0].payload == "UNKNOWN"


def _findings(snapshot):
    return [(f.code, f.offending_ids) for f in validate_snapshot(snapshot).findings]


def test_assemble_duplicate_ownership_is_a_multiple_owners_finding():
    dup = OWNERSHIP + "auth,team-b\n"
    assert _findings(assemble_from_csv(EDGES, dup, JURISDICTIONS, TODAY)) == [
        ("multiple-owners", ("auth", "team-a", "team-b"))
    ]


def test_assemble_conflicting_jurisdiction_rows_are_a_conflicting_evidence_finding():
    conflicting = JURISDICTIONS + "team-a,DEU\n"
    assert _findings(assemble_from_csv(EDGES, OWNERSHIP, conflicting, TODAY)) == [
        ("conflicting-evidence", ("team-a",))
    ]


def test_assemble_repeated_identical_jurisdiction_rows_accepted():
    repeated = JURISDICTIONS + "team-a,SWE\nteam-b,N/A\n"
    snapshot = assemble_from_csv(EDGES, OWNERSHIP, repeated, TODAY)
    assert snapshot == assemble_from_csv(EDGES, OWNERSHIP, JURISDICTIONS, TODAY)


def test_assemble_dangling_jurisdiction_owner_rejected():
    extra = JURISDICTIONS + "team-ghost,DEU\n"
    with pytest.raises(CsvError, match="dangling-reference"):
        assemble_from_csv(EDGES, OWNERSHIP, extra, TODAY)


def test_assemble_non_alpha3_code_is_a_malformed_jurisdiction_finding():
    bad = "owner,jurisdiction\nteam-a,SWEDEN\nteam-b,DEU\n"
    assert _findings(assemble_from_csv(EDGES, OWNERSHIP, bad, TODAY)) == [("malformed-jurisdiction", ("team-a",))]


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
            ingest._dependencies(records)
    assert 0 < require_keys.call_count <= ingest._WALK_RECORDS


@pytest.mark.parametrize(
    "row",
    [
        "billing,auth,use,x",
        "billing,auth,zzz,1",
        "billing,auth,use,1_000",
        "billing,auth,use, 7 ",
        "billing,auth,use,+3",
        "billing,auth,use,\u0663",
    ],
)
def test_assemble_rejects_bad_edge_field(row):
    edges = "user,owner_component,kind,multiplicity\n" + row + "\n"
    with pytest.raises(CsvError, match="row 2"):
        assemble_from_csv(edges, OWNERSHIP, JURISDICTIONS, TODAY)


@pytest.mark.parametrize("multiplicity", ["0", "-2"])
def test_assemble_keeps_a_multiplicity_below_one_for_validate(multiplicity):
    edges = f"user,owner_component,kind,multiplicity\nbilling,auth,use,{multiplicity}\n"
    snapshot = assemble_from_csv(edges, OWNERSHIP, JURISDICTIONS, TODAY)
    assert snapshot.dependencies.multiplicities == (int(multiplicity),)
    assert _findings(snapshot) == [("invalid-multiplicity", ("billing", "auth"))]


_OVERSIZED = {
    "field-over-csv-limit": "x" * 1_000_000 + "\n",
    "long-wrong-header": ",".join(["y" * 100_000] * 20) + "\n",
}
_LONG = "z" * 300


@pytest.mark.parametrize(
    ("what", "text", "prefix"),
    [
        *(
            pytest.param(what, text, f"{what}: ", id=f"{name}-{what}")
            for name, text in _OVERSIZED.items()
            for what in ("edges", "ownership", "jurisdictions")
        ),
        pytest.param("edges", f"user,owner_component,kind\nbilling,auth,{_LONG}\n", "edges: ", id="long-kind-edges"),
        pytest.param(
            "jurisdictions",
            f"owner,jurisdiction\n{_LONG},SWE\n",
            "dangling-reference: ",
            id="long-unknown-owner-jurisdictions",
        ),
    ],
)
def test_csv_errors_are_typed_and_bounded(what, text, prefix):
    inputs = {"edges": EDGES, "ownership": OWNERSHIP, "jurisdictions": JURISDICTIONS, what: text}
    with pytest.raises(CsvError) as excinfo:
        assemble_from_csv(inputs["edges"], inputs["ownership"], inputs["jurisdictions"], TODAY)
    message = str(excinfo.value)
    assert message.startswith(prefix) and len(message) < 200


CSV_COMPONENTS = st.sampled_from(["auth", "billing", "catalog"])
CSV_OWNERS = st.sampled_from(["team-a", "team-b", "team-c"])
VALID_CODES = ["SWE", "DEU", "N/A", UNKNOWN]
MALFORMED_CODES = ["swe", "SWEDEN", "", "n/a"]


def _csv(header, rows):
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


@settings(max_examples=300, deadline=None)
@given(
    edges=st.lists(st.tuples(CSV_COMPONENTS, CSV_COMPONENTS), max_size=4),
    ownership=st.lists(st.tuples(CSV_COMPONENTS, CSV_OWNERS), max_size=6),
    jurisdictions=st.lists(st.tuples(CSV_OWNERS, st.sampled_from(VALID_CODES + MALFORMED_CODES)), max_size=6),
)
def test_assembled_rows_are_judged_by_validate_alone(edges, ownership, jurisdictions):
    """Repeated and conflicting rows and malformed codes assemble; validate_snapshot reports each fault."""
    try:
        snapshot = assemble_from_csv(
            _csv("user,owner_component", edges),
            _csv("component,owner", ownership),
            _csv("owner,jurisdiction", jurisdictions),
            TODAY,
        )
    except CsvError as exc:
        assert str(exc).startswith("dangling-reference: jurisdiction row for unknown owner")
        assert {o for o, _ in jurisdictions} - {o for _, o in ownership}
        return
    assert {o for o, _ in jurisdictions} <= {o for _, o in ownership}
    owners_of, codes_of = {}, {}
    for component, owner in ownership:
        owners_of.setdefault(component, set()).add(owner)
    for owner, code in jurisdictions:
        codes_of.setdefault(owner, set()).add(UNKNOWN if code == "N/A" else code)
    found = _findings(snapshot)

    def ids(code):
        return sorted(offending for c, offending in found if c == code)

    assert ids("multiple-owners") == sorted((c, *sorted(o)) for c, o in owners_of.items() if len(o) > 1)
    assert ids("conflicting-evidence") == sorted((o,) for o, codes in codes_of.items() if len(codes) > 1)
    assert ids("malformed-jurisdiction") == sorted(
        (o,) for o, codes in codes_of.items() for code in codes if code in MALFORMED_CODES
    )
