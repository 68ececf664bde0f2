import copy
import dataclasses
import inspect
import json
import pickle
import random
import subprocess
import sys
from datetime import date, datetime
from pathlib import Path

import pytest

from taxarch.classify import ScopePolicy, apply_scope_filter
from taxarch.cli import main
from taxarch.diff import run_pipeline
from taxarch.generate import GeneratorParams, fixture, generate
from taxarch.ingest import SchemaError, parse_bundle, serialize_bundle
from taxarch.model import (
    ArchitectureSnapshot,
    Component,
    ComponentKind,
    ComponentStatus,
    ComponentTable,
    DependencyEdge,
    DependencyKind,
    EdgeTable,
    EvidenceSource,
    LocationEvidence,
    Owner,
    OwnerKind,
    OwnershipAssignment,
    OwnershipTable,
    Table,
    owners_as_of,
    validate_snapshot,
)
from taxarch.resolve import DEFAULT_CASCADE, JurisdictionAssignment

from conftest import TODAY, make_component, make_owner, make_snapshot


def test_devnullsoft_fixture_is_valid():
    report = validate_snapshot(fixture("devnullsoft"))
    assert report.status == "ok"
    assert report.findings == ()


def test_empty_snapshot_is_valid():
    snapshot = make_snapshot([], [], [], [])
    report = validate_snapshot(snapshot)
    assert report.status == "ok"
    assert report.findings == ()


def test_multiple_owners_is_error(small_snapshot):
    snapshot = make_snapshot(
        small_snapshot.components,
        small_snapshot.dependencies,
        small_snapshot.owners,
        list(small_snapshot.ownership) + [OwnershipAssignment("a", "t2")],
    )
    report = validate_snapshot(snapshot)
    assert report.status == "failed"
    assert "multiple-owners" in report.codes()


@pytest.mark.parametrize("copies", [2, 3])
def test_a_repeated_assignment_is_a_duplicate_not_a_second_owner(small_snapshot, copies):
    snapshot = make_snapshot(
        small_snapshot.components,
        small_snapshot.dependencies,
        small_snapshot.owners,
        list(small_snapshot.ownership) + [OwnershipAssignment("a", "t1")] * (copies - 1),
    )
    report = validate_snapshot(snapshot)
    assert [(f.code, f.offending_ids) for f in report.findings] == [("duplicate-assignment", ("a", "t1"))] * (copies - 1)
    assert report.findings[0].message == "duplicate assignment of component 'a' to owner 't1'"


def test_multiple_owners_counts_distinct_owners(small_snapshot):
    snapshot = make_snapshot(
        small_snapshot.components,
        small_snapshot.dependencies,
        small_snapshot.owners,
        list(small_snapshot.ownership) + [OwnershipAssignment("a", "t2"), OwnershipAssignment("a", "t2")],
    )
    findings = {(f.code, f.message, f.offending_ids) for f in validate_snapshot(snapshot).findings}
    assert findings == {
        ("duplicate-assignment", "duplicate assignment of component 'a' to owner 't2'", ("a", "t2")),
        ("multiple-owners", "component 'a' has 2 owners", ("a", "t1", "t2")),
    }


def test_missing_owner_is_error(small_snapshot):
    snapshot = make_snapshot(
        small_snapshot.components,
        small_snapshot.dependencies,
        small_snapshot.owners,
        [a for a in small_snapshot.ownership if a.component != "c"],
    )
    report = validate_snapshot(snapshot)
    assert report.status == "failed"
    assert "missing-owner" in report.codes()


def test_self_dependency_is_error(small_snapshot):
    snapshot = make_snapshot(
        small_snapshot.components,
        list(small_snapshot.dependencies) + [DependencyEdge("a", "a")],
        small_snapshot.owners,
        small_snapshot.ownership,
    )
    assert "self-dependency" in validate_snapshot(snapshot).codes()


def test_dangling_edge_endpoint_is_error(small_snapshot):
    snapshot = make_snapshot(
        small_snapshot.components,
        list(small_snapshot.dependencies) + [DependencyEdge("a", "ghost")],
        small_snapshot.owners,
        small_snapshot.ownership,
    )
    assert "dangling-reference" in validate_snapshot(snapshot).codes()


def test_duplicate_component_id_is_error(small_snapshot):
    snapshot = make_snapshot(
        list(small_snapshot.components) + [make_component("a")],
        small_snapshot.dependencies,
        small_snapshot.owners,
        small_snapshot.ownership,
    )
    assert "duplicate-id" in validate_snapshot(snapshot).codes()


def test_duplicate_edge_triple_is_error(small_snapshot):
    snapshot = make_snapshot(
        small_snapshot.components,
        list(small_snapshot.dependencies) + [DependencyEdge("a", "b")],
        small_snapshot.owners,
        small_snapshot.ownership,
    )
    assert "duplicate-edge" in validate_snapshot(snapshot).codes()


def test_malformed_jurisdiction_in_evidence(small_snapshot):
    bad = make_owner(
        "t3",
        evidence=[LocationEvidence(EvidenceSource.EXPLICIT_ASSIGNMENT, "SWEDEN", TODAY)],
    )
    snapshot = make_snapshot(
        small_snapshot.components,
        small_snapshot.dependencies,
        list(small_snapshot.owners) + [bad],
        small_snapshot.ownership,
    )
    assert "malformed-jurisdiction" in validate_snapshot(snapshot).codes()


def test_code_with_trailing_newline_is_malformed(small_snapshot, tmp_path, capsys):
    bad = make_owner("t3", "SWE\n")
    snapshot = make_snapshot(
        small_snapshot.components,
        small_snapshot.dependencies,
        list(small_snapshot.owners) + [bad],
        small_snapshot.ownership,
    )
    assert validate_snapshot(snapshot).codes() == ["malformed-jurisdiction"]

    doc = json.loads(serialize_bundle(fixture("devnullsoft")))
    owner = next(o for o in doc["owners"] if o["id"] == "team-ab-apps")
    owner["location_evidence"][0]["payload"] = "SWE\n"
    path = tmp_path / "newline.json"
    path.write_text(json.dumps(doc))
    assert main(["report", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert "error: malformed-jurisdiction: malformed jurisdiction code 'SWE\\n'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "source, payload",
    [
        (EvidenceSource.EXPLICIT_ASSIGNMENT, ["SWE"]),
        (EvidenceSource.MANAGER_LOCATION, 5),
        (EvidenceSource.QUESTIONNAIRE, ("swe",)),
        (EvidenceSource.MEMBER_LOCATIONS, [5, 6]),
        (EvidenceSource.MEMBER_LOCATIONS, ["SWE", 5]),
        (EvidenceSource.MEMBER_LOCATIONS, 5),
        (EvidenceSource.MEMBER_LOCATIONS, "SWE"),
    ],
)
def test_wrongly_shaped_payload_is_an_evidence_shape_finding(small_snapshot, source, payload):
    owner = make_owner("t3", evidence=[LocationEvidence(source, payload, TODAY)])
    snapshot = make_snapshot(
        small_snapshot.components,
        small_snapshot.dependencies,
        list(small_snapshot.owners) + [owner],
        small_snapshot.ownership,
    )
    report = validate_snapshot(snapshot)
    assert [(f.code, f.offending_ids) for f in report.findings] == [("evidence-shape", ("t3",))]


@pytest.mark.parametrize(
    "payload, stored",
    [(["SWE", "DEU", "SWE"], ("DEU", "SWE", "SWE")), (["SWE", 5], ("SWE", 5)), (5, 5), ("SWE", "SWE")],
)
def test_only_member_codes_are_sorted(payload, stored):
    assert LocationEvidence(EvidenceSource.MEMBER_LOCATIONS, payload, TODAY).payload == stored


def _with_evidence(snapshot, *evidence):
    owners = [make_owner("t3", evidence=evidence)] + list(snapshot.owners)
    return make_snapshot(snapshot.components, snapshot.dependencies, owners, snapshot.ownership)


def test_conflicting_same_dated_statements_are_a_finding(small_snapshot):
    snapshot = _with_evidence(
        small_snapshot,
        LocationEvidence(EvidenceSource.EXPLICIT_ASSIGNMENT, "SWE", TODAY),
        LocationEvidence(EvidenceSource.QUESTIONNAIRE, "FRA", TODAY),
    )
    report = validate_snapshot(snapshot)
    assert report.status == "failed"
    assert [(f.code, f.offending_ids) for f in report.findings] == [("conflicting-evidence", ("t3",))]
    assert "'t3'" in report.findings[0].message


@pytest.mark.parametrize("other", [datetime(2023, 7, 1, 12), ["2023-07-01"]], ids=["datetime", "list"])
def test_dates_that_cannot_be_ordered_are_a_field_type_finding_alone(small_snapshot, other):
    snapshot = _with_evidence(
        small_snapshot,
        LocationEvidence(EvidenceSource.EXPLICIT_ASSIGNMENT, "SWE", TODAY),
        LocationEvidence(EvidenceSource.QUESTIONNAIRE, "FRA", other),
    )
    report = validate_snapshot(snapshot)
    # The record whose date is not a `date` is named by its index, and no evidence finding repeats the fault.
    assert [(f.code, f.message, f.offending_ids) for f in report.findings] == [
        ("field-type", f"evidence 't3'->1 has recorded_at of type {type(other).__name__}, not date", ("t3", "1"))
    ]


@pytest.mark.parametrize(
    "evidence, field",
    [
        ([LocationEvidence("member_locations", ["SWE"], TODAY)], "source of type str, not EvidenceSource"),
        (
            [
                LocationEvidence("explicit_assignment", "SWE", TODAY),
                LocationEvidence("explicit_assignment", "FRA", TODAY),
            ],
            "source of type str, not EvidenceSource",
        ),
        (
            [
                LocationEvidence(EvidenceSource.EXPLICIT_ASSIGNMENT, "SWE", ["2023-07-01"]),
                LocationEvidence(EvidenceSource.QUESTIONNAIRE, "FRA", ["2023-07-01"]),
            ],
            "recorded_at of type list, not date",
        ),
    ],
    ids=["plain-string-source-wrong-shape", "plain-string-source-conflict", "list-dates-conflict"],
)
def test_odd_sources_and_dates_are_findings_not_errors(small_snapshot, evidence, field):
    report = validate_snapshot(_with_evidence(small_snapshot, *evidence))
    # Each record's plain-string source or list date is a field-type finding, and the only finding:
    # neither the payload's shape nor a conflict is judged on records of other types than the parser's.
    assert [(f.code, f.message, f.offending_ids) for f in report.findings] == [
        ("field-type", f"evidence 't3'->{j} has {field}", ("t3", str(j))) for j in range(len(evidence))
    ]


@pytest.mark.parametrize(
    "evidence",
    [
        [
            LocationEvidence(EvidenceSource.EXPLICIT_ASSIGNMENT, "SWE", TODAY),
            LocationEvidence(EvidenceSource.QUESTIONNAIRE, "SWE", TODAY),
        ],
        [
            LocationEvidence(EvidenceSource.EXPLICIT_ASSIGNMENT, "SWE", TODAY),
            LocationEvidence(EvidenceSource.EXPLICIT_ASSIGNMENT, "FRA", date(2023, 1, 1)),
        ],
        [
            LocationEvidence(EvidenceSource.MEMBER_LOCATIONS, ("SWE", "SWE"), TODAY),
            LocationEvidence(EvidenceSource.MEMBER_LOCATIONS, ("FRA", "DEU"), TODAY),
        ],
    ],
    ids=["same-code-twice", "different-dates", "member-locations-same-date"],
)
def test_agreeing_or_combinable_evidence_is_no_finding(small_snapshot, evidence):
    assert validate_snapshot(_with_evidence(small_snapshot, *evidence)).findings == ()


EXPLICIT = EvidenceSource.EXPLICIT_ASSIGNMENT


def _owner_t_dated(*later):
    """Owner `t` with SWE evidence of 2023-01-01 and the `later` records, whose one edge goes to an SWE owner; the
    snapshot is taken on TODAY, 2023-06-30."""
    return make_snapshot(
        components=[make_component("a"), make_component("b")],
        edges=[("a", "b")],
        owners=[
            make_owner("t", evidence=(LocationEvidence(EXPLICIT, "SWE", date(2023, 1, 1)), *later)),
            make_owner("u", "SWE"),
        ],
        ownership=[("a", "t"), ("b", "u")],
    )


@pytest.mark.parametrize(
    "later",
    [
        [LocationEvidence(EXPLICIT, "DEU", date(2024, 1, 1))],
        [LocationEvidence(EXPLICIT, "DEU", date(2024, 1, 1)), LocationEvidence(EXPLICIT, "FRA", date(2024, 1, 1))],
    ],
    ids=["later-record", "later-conflict"],
)
def test_evidence_dated_after_the_snapshot_decides_nothing(later):
    snapshot = _owner_t_dated(*later)
    assert validate_snapshot(snapshot).ok
    run = run_pipeline(snapshot, DEFAULT_CASCADE, ScopePolicy())
    assert run.matrix.cells == ((("SWE", "SWE"), 1),)
    assert run.assignments[0] == JurisdictionAssignment(
        "t", "SWE", "explicit_assignment", "explicit_assignment", date(2023, 1, 1)
    )


def test_the_view_as_of_the_snapshot_keeps_each_owner_without_a_later_record():
    plain = _owner_t_dated()
    assert owners_as_of(plain) is plain.owners
    late = LocationEvidence(EXPLICIT, "DEU", date(2024, 1, 1))
    snapshot = _owner_t_dated(LocationEvidence(EXPLICIT, "NOR", TODAY), late)
    t, u = owners_as_of(snapshot)
    assert u is snapshot.owners[1]
    assert t == dataclasses.replace(snapshot.owners[0], location_evidence=snapshot.owners[0].location_evidence[:2])


def test_validation_is_deterministic(small_snapshot):
    assert validate_snapshot(small_snapshot) == validate_snapshot(small_snapshot)


def test_validation_is_permutation_invariant():
    snapshot = fixture("devnullsoft")
    # Inject a violation so the report has content to compare.
    snapshot = make_snapshot(
        snapshot.components,
        snapshot.dependencies,
        snapshot.owners,
        list(snapshot.ownership) + [OwnershipAssignment("svc-00", "team-ltd-commerce")],
    )
    baseline = validate_snapshot(snapshot)
    rng = random.Random(7)
    for _ in range(5):
        shuffled = ArchitectureSnapshot(
            id=snapshot.id,
            taken_at=snapshot.taken_at,
            components=tuple(rng.sample(snapshot.components, len(snapshot.components))),
            dependencies=tuple(rng.sample(snapshot.dependencies, len(snapshot.dependencies))),
            owners=tuple(rng.sample(snapshot.owners, len(snapshot.owners))),
            ownership=tuple(rng.sample(snapshot.ownership, len(snapshot.ownership))),
        )
        report = validate_snapshot(shuffled)
        assert report.status == baseline.status
        assert sorted(report.findings) == sorted(baseline.findings)


# `LocationEvidence`'s twin: a plain frozen, slotted dataclass of the same fields, with the generated `__init__`, whose
# behaviour the record keeps with its hand-written constructor.
@dataclasses.dataclass(frozen=True, slots=True)
class _GeneratedEvidence:
    source: EvidenceSource
    payload: object
    recorded_at: date

    def __post_init__(self):
        payload = self.payload
        if self.source is EvidenceSource.MEMBER_LOCATIONS and isinstance(payload, (list, tuple)):
            all_str = {str}.issuperset(map(type, payload))
            object.__setattr__(self, "payload", tuple(sorted(payload) if all_str else payload))


@pytest.mark.parametrize(
    "record, twin, args, change",
    [
        (
            LocationEvidence,
            _GeneratedEvidence,
            (EvidenceSource.MEMBER_LOCATIONS, ["SWE", "DEU"], TODAY),
            {"payload": ["NOR", "AUT"]},
        ),
    ],
    ids=["LocationEvidence"],
)
def test_record_constructors_behave_as_a_frozen_slotted_dataclass(record, twin, args, change):
    value, generated = record(*args), twin(*args)
    names = [f.name for f in dataclasses.fields(generated)]
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, "x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    assert [(f.name, f.default) for f in dataclasses.fields(value)] == [
        (f.name, f.default) for f in dataclasses.fields(generated)
    ]
    assert record.__slots__ == twin.__slots__ and record.__match_args__ == twin.__match_args__
    assert not hasattr(value, "__dict__")
    parameters = [(p.name, p.kind, p.default) for p in inspect.signature(record).parameters.values()]
    assert parameters == [(p.name, p.kind, p.default) for p in inspect.signature(twin).parameters.values()]
    assert dataclasses.astuple(value) == dataclasses.astuple(generated)
    assert repr(value) == repr(generated).replace(twin.__name__, record.__name__)
    assert hash(value) == hash(generated) and value != generated
    assert value == record(**dict(zip(names, args)))
    assert value != dataclasses.replace(value, **change)
    assert dataclasses.astuple(dataclasses.replace(value, **change)) == dataclasses.astuple(
        dataclasses.replace(generated, **change)
    )
    required = [p for p in inspect.signature(twin).parameters.values() if p.default is inspect.Parameter.empty]
    assert dataclasses.astuple(record(*args[: len(required)])) == dataclasses.astuple(twin(*args[: len(required)]))
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is record and copy == value and hash(copy) == hash(value)


@pytest.mark.parametrize(
    "source, payload, stored",
    [
        (EvidenceSource.MEMBER_LOCATIONS, ["SWE", "DEU", "SWE"], ("DEU", "SWE", "SWE")),
        (EvidenceSource.MEMBER_LOCATIONS, ("SWE", "DEU"), ("DEU", "SWE")),
        (EvidenceSource.MEMBER_LOCATIONS, ("SWE", 1, "DEU"), ("SWE", 1, "DEU")),
        (EvidenceSource.MEMBER_LOCATIONS, "SWE", "SWE"),
        (EvidenceSource.EXPLICIT_ASSIGNMENT, ["SWE", "DEU"], ["SWE", "DEU"]),
        ("member_locations", ["SWE", "DEU"], ["SWE", "DEU"]),
    ],
    ids=["member-list", "member-tuple", "member-tuple-with-number", "member-str", "non-member-list", "str-source"],
)
def test_location_evidence_stores_the_payload_as_the_generated_constructor_did(source, payload, stored):
    ev, twin = LocationEvidence(source, payload, TODAY), _GeneratedEvidence(source, payload, TODAY)
    assert ev.payload == twin.payload == stored
    assert type(ev.payload) is type(twin.payload) is type(stored)
    assert ev.source is source and ev.recorded_at is TODAY


@pytest.mark.parametrize(
    "cls",
    [
        Component,
        DependencyEdge,
        OwnershipAssignment,
        LocationEvidence,
        Owner,
        JurisdictionAssignment,
        ComponentTable,
        EdgeTable,
        OwnershipTable,
    ],
    ids=lambda cls: cls.__name__,
)
def test_every_record_and_table_is_a_frozen_slotted_dataclass(cls):
    params = cls.__dataclass_params__
    assert dataclasses.is_dataclass(cls) and params.frozen and "__slots__" in vars(cls)
    # Only `LocationEvidence` writes its own constructor, and only a table its own equality.
    assert params.init is (cls is not LocationEvidence) and params.eq is not issubclass(cls, Table)
    assert "__repr__" in vars(cls) and "__repr__" not in vars(Table)


def test_parsing_and_running_a_bundle_builds_no_row_of_a_table(monkeypatch):
    # No row is built on the path every command takes, so a row class's constructor costs no workload anything.
    bundle = serialize_bundle(generate(GeneratorParams(component_count=60, team_count=7, unresolved_rate=0.3, seed=3)))
    built = []
    for row in (Component, DependencyEdge, OwnershipAssignment):
        init = row.__init__

        def counted(self, *args, _init=init, **kwargs):
            built.append(type(self))
            _init(self, *args, **kwargs)

        monkeypatch.setattr(row, "__init__", counted)
    snapshot = parse_bundle(bundle)
    assert validate_snapshot(snapshot).ok
    run = run_pipeline(snapshot, DEFAULT_CASCADE, ScopePolicy())
    assert run.matrix.total() > 0 and built == []
    assert snapshot.components[0] and built == [Component]  # the counter sees a row that is built


def _edges_weighted(*multiplicities):
    """`small_snapshot`'s three components with one edge of each multiplicity, in the order a->b, b->c, c->a, a->c."""
    pairs = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")]
    return make_snapshot(
        [make_component("a"), make_component("b"), make_component("c")],
        [(u, v, DependencyKind.USE, m) for (u, v), m in zip(pairs, multiplicities)],
        [make_owner("t1", "SWE"), make_owner("t2", "DEU")],
        [("a", "t1"), ("b", "t1"), ("c", "t2")],
    )


@pytest.mark.parametrize("multiplicity", ["3", None, 2.5, True], ids=["numeric-string", "none", "float", "bool"])
def test_a_multiplicity_that_is_not_an_int_is_invalid(multiplicity):
    report = validate_snapshot(_edges_weighted(multiplicity))
    assert [(f.code, f.message, f.offending_ids) for f in report.findings] == [
        ("invalid-multiplicity", f"dependency 'a'->'b' has multiplicity {multiplicity!r}", ("a", "b"))
    ]


def test_float_multiplicities_are_refused_before_the_pipeline_counts_them():
    # Summed per cell and then over cells, these four differ from their plain sum in the last bit.
    snapshot = _edges_weighted(3.3, 2.7, 1.1, 1.2)
    assert validate_snapshot(snapshot).codes() == ["invalid-multiplicity"] * 4
    # An int-weighted twin validates and its matrix counts every use.
    twin = _edges_weighted(3, 2, 1, 1)
    assert validate_snapshot(twin).ok
    assert run_pipeline(twin, DEFAULT_CASCADE, ScopePolicy()).matrix.total() == 7


def _retyped(small_snapshot, **changes):
    """`small_snapshot` with one field of one record replaced; `changes` maps a record position to its new record."""
    snapshot = small_snapshot
    for field, (index, record) in changes.items():
        records = list(getattr(snapshot, field))
        records[index] = record
        snapshot = dataclasses.replace(snapshot, **{field: tuple(records)})
    return snapshot


@pytest.mark.parametrize(
    "changes, finding",
    [
        (
            {"owners": (1, make_owner("t2", "DEU", kind="individual"))},
            ("owner 't2' has kind of type str, not OwnerKind", ("t2",)),
        ),
        (
            {"dependencies": (0, DependencyEdge("a", "b", "use"))},
            ("dependency 'a'->'b' has kind of type str, not DependencyKind", ("a", "b")),
        ),
        (
            {"components": (2, Component(5, "c", ComponentKind.MICROSERVICE, ComponentStatus.PRODUCTION))},
            ("component 5 has id of type int, not str", ("5",)),
        ),
        (
            {"components": (0, Component("a", "a", "library", ComponentStatus.PRODUCTION))},
            ("component 'a' has kind of type str, not ComponentKind", ("a",)),
        ),
        (
            {"components": (0, Component("a", "a", ComponentKind.LIBRARY, "production"))},
            ("component 'a' has status of type str, not ComponentStatus", ("a",)),
        ),
        (
            {"components": (0, Component("a", None, ComponentKind.LIBRARY, ComponentStatus.PRODUCTION))},
            ("component 'a' has name of type NoneType, not str", ("a",)),
        ),
        (
            {"dependencies": (1, DependencyEdge("b", 7))},
            ("dependency 'b'->7 has owner_component of type int, not str", ("b", "7")),
        ),
        (
            {"ownership": (0, OwnershipAssignment("a", 1))},
            ("assignment 'a'->1 has owner of type int, not str", ("a", "1")),
        ),
    ],
    ids=[
        "owner-kind",
        "edge-kind",
        "component-id",
        "component-kind",
        "component-status",
        "component-name",
        "edge-endpoint",
        "assignment-owner",
    ],
)
def test_a_field_of_another_type_than_the_parser_gives_is_a_field_type_finding(small_snapshot, changes, finding):
    report = validate_snapshot(_retyped(small_snapshot, **changes))
    assert finding in [(f.message, f.offending_ids) for f in report.findings if f.code == "field-type"]


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"taken_at": datetime(2023, 1, 1, 5)}, "snapshot 'test' has taken_at of type datetime, not date"),
        ({"taken_at": "2023-01-01"}, "snapshot 'test' has taken_at of type str, not date"),
        ({"id": 5}, "snapshot 5 has id of type int, not str"),
    ],
    ids=["datetime", "string-date", "int-id"],
)
def test_a_snapshot_field_of_another_type_is_a_field_type_finding(small_snapshot, changes, message):
    report = validate_snapshot(dataclasses.replace(small_snapshot, **changes))
    assert [(f.code, f.message) for f in report.findings] == [("field-type", message)]


def _with_first_owner(small_snapshot, location_evidence):
    """`small_snapshot` whose owner 't1' holds `location_evidence` as given, not copied into a tuple."""
    return dataclasses.replace(
        small_snapshot, owners=(Owner("t1", "t1", OwnerKind.TEAM, location_evidence),) + small_snapshot.owners[1:]
    )


@pytest.mark.parametrize(
    "change, message, ids",
    [
        (
            lambda s: _with_first_owner(s, None),
            "owner 't1' has location_evidence of type NoneType, not tuple or list",
            ("t1",),
        ),
        (
            lambda s: _with_first_owner(s, (s.owners[0].location_evidence[0], {"source": "explicit_assignment"})),
            "owner 't1' has location_evidence[1] of type dict, not LocationEvidence",
            ("t1",),
        ),
        (
            lambda s: dataclasses.replace(s, components=7),
            "snapshot 'test' has components of type int, not tuple or list",
            ("test",),
        ),
        (
            lambda s: dataclasses.replace(s, owners=(s.owners[0], "t2")),
            "snapshot 'test' has owners[1] of type str, not Owner",
            ("test",),
        ),
        (
            lambda s: dataclasses.replace(s, ownership=iter(s.ownership)),
            "snapshot 'test' has ownership of type tuple_iterator, not tuple or list",
            ("test",),
        ),
        (
            lambda s: dataclasses.replace(s, dependencies=7),
            "snapshot 'test' has dependencies of type int, not tuple or list",
            ("test",),
        ),
        (
            lambda s: dataclasses.replace(s, dependencies=[s.dependencies[0], "b->c"]),
            "snapshot 'test' has dependencies[1] of type str, not DependencyEdge",
            ("test",),
        ),
        (
            lambda s: dataclasses.replace(s, dependencies=(e for e in s.dependencies)),
            "snapshot 'test' has dependencies of type generator, not tuple or list",
            ("test",),
        ),
    ],
    ids=[
        "evidence-none",
        "evidence-dict",
        "components-int",
        "owners-str",
        "ownership-iterator",
        "dependencies-int",
        "dependencies-str",
        "dependencies-generator",
    ],
)
def test_a_container_of_another_type_is_a_field_type_finding_alone(small_snapshot, change, message, ids):
    # The first three raised TypeError, AttributeError and TypeError while validate built its columns, and the
    # first two dependencies cases raised TypeError and AttributeError when the snapshot was built.
    report = validate_snapshot(change(small_snapshot))
    assert [(f.code, f.message, f.offending_ids) for f in report.findings] == [("field-type", message, ids)]


def test_list_containers_are_accepted(small_snapshot):
    snapshot = _with_first_owner(small_snapshot, list(small_snapshot.owners[0].location_evidence))
    snapshot = dataclasses.replace(
        snapshot,
        components=list(snapshot.components),
        owners=list(snapshot.owners),
        ownership=list(snapshot.ownership),
    )
    assert validate_snapshot(snapshot) == validate_snapshot(small_snapshot)
    assert validate_snapshot(snapshot).status == "ok"


def _with_first_owner_evidence(small_snapshot, *evidence):
    """`small_snapshot` whose owner 't1', which owns components a and b, holds `evidence` instead of its own."""
    owners = (make_owner("t1", evidence=evidence),) + small_snapshot.owners[1:]
    return dataclasses.replace(small_snapshot, owners=owners)


def test_a_plain_string_evidence_source_is_a_field_type_finding(small_snapshot):
    # Once accepted, such a record reached `source.value` in the resolver cascade and raised AttributeError.
    snapshot = _with_first_owner_evidence(small_snapshot, LocationEvidence("explicit_assignment", "SWE", TODAY))
    report = validate_snapshot(snapshot)
    assert [(f.code, f.message, f.offending_ids) for f in report.findings] == [
        ("field-type", "evidence 't1'->0 has source of type str, not EvidenceSource", ("t1", "0"))
    ]


def test_a_datetime_recorded_at_is_a_field_type_finding(small_snapshot):
    # Once accepted as an owner's only record, it serialized to a bundle that the parser refuses.
    evidence = LocationEvidence(EvidenceSource.EXPLICIT_ASSIGNMENT, "SWE", datetime(2023, 1, 1, 5))
    snapshot = _with_first_owner_evidence(small_snapshot, evidence)
    with pytest.raises(SchemaError, match="recorded_at"):
        parse_bundle(serialize_bundle(snapshot))
    report = validate_snapshot(snapshot)
    assert [(f.code, f.message, f.offending_ids) for f in report.findings] == [
        ("field-type", "evidence 't1'->0 has recorded_at of type datetime, not date", ("t1", "0"))
    ]


EDGES = (
    DependencyEdge("a", "b"),
    DependencyEdge("b", "c", DependencyKind.OTHER, 2),
    DependencyEdge("c", "a", DependencyKind.USE, 3),
)


# Each table class with three rows of its row class; a table's columns are its rows' fields, in field order.
TABLE_ROWS = {
    ComponentTable: (
        Component("a", "alpha", ComponentKind.LIBRARY, ComponentStatus.PRODUCTION),
        Component("b", "beta", ComponentKind.MODULE, ComponentStatus.DEPRECATED),
        Component("c", "gamma", ComponentKind.OTHER, ComponentStatus.EXPERIMENTAL),
    ),
    EdgeTable: EDGES,
    OwnershipTable: (OwnershipAssignment("a", "t1"), OwnershipAssignment("b", "t1"), OwnershipAssignment("c", "t2")),
}


@pytest.mark.parametrize("table", TABLE_ROWS, ids=lambda t: t.__name__)
def test_each_table_reads_as_the_tuple_of_its_rows(table):
    rows = TABLE_ROWS[table]
    record = table.row
    built = table.from_rows(dataclasses.astuple(r) for r in rows)
    columns = [tuple(getattr(r, f.name) for r in rows) for f in dataclasses.fields(record)]
    assert [getattr(built, f.name) for f in dataclasses.fields(table)] == columns
    assert len(built) == 3 and list(built) == list(rows) and built == rows and hash(built) == hash(rows)
    assert (built[0], built[-1]) == (rows[0], rows[-1]) and type(built[1]) is record
    with pytest.raises(IndexError):
        built[3]
    assert type(built[1:]) is table and built[1:] == rows[1:] and built[::-1] == rows[::-1]
    assert built[:0] == () and not built[:0] and table() == table.from_rows([])
    assert random.Random(7).sample(built, 2) == random.Random(7).sample(rows, 2)
    assert built + rows[:1] == rows + rows[:1] and type(built + built) is table and built + built == rows + rows
    assert rows[1] in built and table.of(rows) == built and table.of(list(rows)) == built
    assert built.select([True, False, True]) == (rows[0], rows[2])
    assert built != list(rows) and built != rows[:2]
    copies = [dataclasses.replace(built), copy.copy(built), copy.deepcopy(built), pickle.loads(pickle.dumps(built))]
    assert [type(t) for t in copies] == [table] * 4 and copies == [built] * 4
    # A snapshot built from the rows stores them by the one rule, as their table.
    field = {ComponentTable: "components", EdgeTable: "dependencies", OwnershipTable: "ownership"}[table]
    stored = getattr(dataclasses.replace(ArchitectureSnapshot("s", TODAY, (), (), (), ()), **{field: rows}), field)
    assert type(stored) is table and stored == built
    with pytest.raises(ValueError, match="differ in length"):
        table(*(("a",) if i else () for i in range(len(columns))))


def test_a_snapshot_stores_tuples_and_lists_of_exactly_its_rows_as_tables(small_snapshot):
    for records in (tuple(small_snapshot.components), list(small_snapshot.components)):
        snapshot = dataclasses.replace(small_snapshot, components=records, ownership=list(small_snapshot.ownership))
        assert type(snapshot.components) is ComponentTable and type(snapshot.ownership) is OwnershipTable
        assert snapshot == small_snapshot
    mixed = (small_snapshot.components[0], "b")
    assert dataclasses.replace(small_snapshot, components=mixed).components is mixed


def _parsed_devnullsoft():
    return parse_bundle(serialize_bundle(fixture("devnullsoft")))


# Each other way to get a snapshot of the parsed one's fields: (id, the snapshot made from the parsed one).
UNPROVED = {
    "constructor": lambda s: ArchitectureSnapshot(*(getattr(s, f.name) for f in dataclasses.fields(s))),
    "replace": dataclasses.replace,
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda s: pickle.loads(pickle.dumps(s)),
    "scope-filter": lambda s: apply_scope_filter(s, s.owner_of(), ScopePolicy(frozenset(ComponentStatus), False))[0],
}


@pytest.mark.parametrize("made", UNPROVED)
def test_only_the_parser_builds_a_proved_snapshot(made):
    parsed = _parsed_devnullsoft()
    assert parsed.proved and not fixture("devnullsoft").proved
    snapshot = UNPROVED[made](parsed)
    assert type(snapshot) is ArchitectureSnapshot and snapshot == parsed
    assert not snapshot.proved


def test_the_proof_is_no_field_and_cannot_be_assigned():
    assert [f.name for f in dataclasses.fields(ArchitectureSnapshot)] == [
        "id",
        "taken_at",
        "components",
        "dependencies",
        "owners",
        "ownership",
    ]
    # No table carries a proof of its own: the snapshot's is the one.
    assert Table.__slots__ == () and not any(hasattr(table(), "proved") for table in TABLE_ROWS)
    snapshot = _parsed_devnullsoft()
    # A frozen dataclass refuses the assignment. For a name that is no field, a `slots=True` class raises TypeError
    # on Python 3.10 to 3.13, from its `__setattr__`'s `super()` of the class that `slots=True` replaced.
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        snapshot._proved = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        snapshot.owners = ()
    assert snapshot.proved


def test_the_proof_holds_under_dash_o():
    # Nothing about the proof may rest on an assert statement, which `python -O` strips.
    script = (
        "import copy, dataclasses, pickle\n"
        "from taxarch.classify import apply_scope_filter\n"
        "from taxarch.generate import fixture\n"
        "from taxarch.ingest import parse_bundle, serialize_bundle\n"
        "s = parse_bundle(serialize_bundle(fixture('devnullsoft')))\n"
        "made = [type(s)(*(getattr(s, f.name) for f in dataclasses.fields(s))), dataclasses.replace(s)]\n"
        "made += [copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))]\n"
        "made.append(apply_scope_filter(s, s.owner_of())[0])\n"
        "print(s.proved, [m.proved for m in made])\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert proc.stdout == "True [False, False, False, False, False, False]\n"


def test_a_parsed_bundle_skips_only_what_the_parser_proved():
    parsed = _parsed_devnullsoft()
    rebuilt = ArchitectureSnapshot(
        parsed.id,
        parsed.taken_at,
        tuple(parsed.components),
        tuple(parsed.dependencies),
        parsed.owners,
        tuple(parsed.ownership),
    )
    assert parsed.proved and not rebuilt.proved
    assert validate_snapshot(parsed) == validate_snapshot(rebuilt) == validate_snapshot(fixture("devnullsoft"))
    # The invariants still run on proved tables: a dangling edge and a missing owner are found in a parsed bundle.
    doc = json.loads(serialize_bundle(fixture("devnullsoft")))
    doc["dependencies"].append({"user": "svc-00", "owner_component": "ghost", "kind": "use", "multiplicity": 2})
    doc["ownership"].pop()
    report = validate_snapshot(parse_bundle(json.dumps(doc)))
    assert report.codes() == ["dangling-reference", "missing-owner"]


def test_an_unpaired_surrogate_is_an_unencodable_string_finding():
    devnullsoft = fixture("devnullsoft")
    components = tuple(
        dataclasses.replace(c, name="svc \ud800") if c.id == "svc-31" else c for c in devnullsoft.components
    )
    report = validate_snapshot(dataclasses.replace(devnullsoft, components=components))
    assert [(f.code, f.message, f.offending_ids) for f in report.findings] == [
        (
            "unencodable-string",
            "component 'svc-31' has name holding an unpaired surrogate, which UTF-8 cannot encode",
            ("svc-31",),
        )
    ]


USE, OTHER = DependencyKind.USE, DependencyKind.OTHER


@pytest.mark.parametrize(
    "rows, ordered",
    [
        ((), True),
        ((("a", "b", USE),), True),
        ((("a", "b", USE), ("a", "c", OTHER), ("b", "a", USE), ("b", "c", USE)), True),
        ((("a", "b", USE), ("a", "b", USE)), False),
        ((("a", "b", OTHER), ("a", "b", USE)), False),
        ((("a", "c", USE), ("a", "b", USE), ("b", "a", USE)), False),
        ((("a", "b", USE), ("b", "a", USE), ("a", "c", USE)), False),
    ],
    ids=["empty", "one-row", "increasing", "equal-neighbours", "one-pair-under-both-kinds", "used-falls", "user-falls"],
)
def test_edge_table_is_ordered_when_its_pairs_strictly_increase(rows, ordered):
    assert EdgeTable.from_rows((u, v, kind, 1) for u, v, kind in rows).ordered() is ordered


def test_a_serialized_bundle_lists_its_edges_in_order():
    devnullsoft = fixture("devnullsoft")
    assert parse_bundle(serialize_bundle(devnullsoft)).dependencies.ordered()


def test_a_snapshot_built_from_edge_objects_equals_its_parsed_bundle():
    devnullsoft = fixture("devnullsoft")
    edges = tuple(sorted(devnullsoft.dependencies, key=lambda e: (e.user, e.owner_component, e.kind)))
    snapshot = ArchitectureSnapshot(
        devnullsoft.id, devnullsoft.taken_at, devnullsoft.components, edges, devnullsoft.owners, devnullsoft.ownership
    )
    assert type(snapshot.dependencies) is EdgeTable and snapshot.dependencies == edges
    assert parse_bundle(serialize_bundle(snapshot)) == snapshot


def test_empty_ids_of_components_named_by_two_types_still_sort(small_snapshot):
    nameless = tuple(Component("", name, ComponentKind.OTHER, ComponentStatus.PRODUCTION) for name in (5, "x"))
    report = validate_snapshot(dataclasses.replace(small_snapshot, components=small_snapshot.components + nameless))
    # The int name is a field-type finding, reported alone, so no empty-id finding is named by it.
    assert [(f.code, f.message, f.offending_ids) for f in report.findings] == [
        ("field-type", "component '' has name of type int, not str", ("",))
    ]


def test_owners_of_two_types_of_one_component_still_sort(small_snapshot):
    ownership = small_snapshot.ownership + (OwnershipAssignment("a", 5),)
    report = validate_snapshot(dataclasses.replace(small_snapshot, ownership=ownership))
    # The int owner is a field-type finding, reported alone, so no multiple-owners finding lists it beside 't1'.
    assert [(f.code, f.message, f.offending_ids) for f in report.findings] == [
        ("field-type", "assignment 'a'->5 has owner of type int, not str", ("a", "5"))
    ]
