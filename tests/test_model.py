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

from taxarch import model
from taxarch.classify import ScopePolicy, apply_scope_filter
from taxarch.cli import main
from taxarch.diff import run_pipeline
from taxarch.generate import GeneratorParams, fixture, generate
from taxarch.ingest import parse_bundle, serialize_bundle
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
    InvalidFieldError,
    LocationEvidence,
    Owner,
    OwnerKind,
    OwnershipAssignment,
    OwnershipTable,
    Table,
    UnencodableStringError,
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


def test_owner_of_keeps_a_components_first_assignment():
    devnullsoft = fixture("devnullsoft")
    snapshot = make_snapshot(
        devnullsoft.components,
        devnullsoft.dependencies,
        devnullsoft.owners,
        list(devnullsoft.ownership) + [OwnershipAssignment("svc-00", "team-ltd-commerce")],
    )
    owner_of = snapshot.owner_of()
    assert owner_of["svc-00"] == "team-ab-platform"  # `dict(zip(...))` would keep the last, team-ltd-commerce
    assert owner_of == devnullsoft.owner_of()


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
def test_a_wrongly_shaped_payload_is_refused_by_its_constructor(source, payload):
    with pytest.raises(InvalidFieldError, match=f"^LocationEvidence of source '{source.value}' has payload") as exc:
        LocationEvidence(source, payload, TODAY)
    assert exc.value.field == "payload"


@pytest.mark.parametrize(
    "payload, stored",
    [(["SWE", "DEU", "SWE"], ("DEU", "SWE", "SWE")), (["SWE", 5], None), (5, None), ("SWE", None)],
)
def test_member_codes_are_sorted_and_any_other_member_payload_refused(payload, stored):
    if stored is None:
        with pytest.raises(InvalidFieldError):
            LocationEvidence(EvidenceSource.MEMBER_LOCATIONS, payload, TODAY)
    else:
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
def test_dates_that_cannot_be_ordered_are_refused_by_their_record(other):
    with pytest.raises(InvalidFieldError) as exc:
        LocationEvidence(EvidenceSource.QUESTIONNAIRE, "FRA", other)
    assert str(exc.value) == f"LocationEvidence has recorded_at of type {type(other).__name__}, not date"


@pytest.mark.parametrize(
    "evidence, field",
    [
        (("member_locations", ["SWE"], TODAY), "source of type str, not EvidenceSource"),
        (("explicit_assignment", "SWE", TODAY), "source of type str, not EvidenceSource"),
        ((EvidenceSource.EXPLICIT_ASSIGNMENT, "SWE", ["2023-07-01"]), "recorded_at of type list, not date"),
    ],
    ids=["plain-string-source-wrong-shape", "plain-string-source", "list-date"],
)
def test_odd_sources_and_dates_are_refused_by_their_record(evidence, field):
    # Neither the payload's shape nor a conflict is ever judged on a record of other types than the parser's.
    with pytest.raises(InvalidFieldError) as exc:
        LocationEvidence(*evidence)
    assert str(exc.value) == f"LocationEvidence has {field}"


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
        (EvidenceSource.MEMBER_LOCATIONS, ("SWE", 1, "DEU"), None),
        (EvidenceSource.MEMBER_LOCATIONS, "SWE", None),
        (EvidenceSource.EXPLICIT_ASSIGNMENT, ["SWE", "DEU"], None),
        ("member_locations", ["SWE", "DEU"], None),
    ],
    ids=["member-list", "member-tuple", "member-tuple-with-number", "member-str", "non-member-list", "str-source"],
)
def test_location_evidence_stores_a_payload_of_its_sources_shape_as_the_generated_constructor_did(
    source, payload, stored
):
    # The generated constructor stored any payload; the record stores only the shapes a parsed bundle holds.
    twin = _GeneratedEvidence(source, payload, TODAY)
    if stored is None:
        with pytest.raises(InvalidFieldError):
            LocationEvidence(source, payload, TODAY)
        return
    ev = LocationEvidence(source, payload, TODAY)
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


def test_parsing_and_running_a_bundle_tests_each_column_once(monkeypatch):
    # The constructors test each column of a parsed table once; a table or snapshot derived from a held one, as the
    # scope filter's is, is not tested again. Some components are out of scope, so the filter selects rows.
    doc = json.loads(serialize_bundle(generate(GeneratorParams(component_count=60, team_count=7, seed=3))))
    for component in doc["components"][::7]:
        component["status"] = "deprecated"
    tested = []
    column = model._column

    def counted(kind, values, field, subject):
        tested.append((subject, field))
        return column(kind, values, field, subject)

    monkeypatch.setattr(model, "_column", counted)
    snapshot = parse_bundle(json.dumps(doc))
    assert validate_snapshot(snapshot).ok
    run = run_pipeline(snapshot, DEFAULT_CASCADE, ScopePolicy())
    assert run.stats.exclusions.excluded_edges > 0 and len(run.components) < len(snapshot.components)
    columns = [(f"{table.__name__} has ", field) for table in TABLE_ROWS for field in table.row.__slots__]
    assert sorted(tested) == sorted(columns + [(f"snapshot {snapshot.id!r} has ", "owners")])


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
def test_a_multiplicity_that_is_not_an_int_is_refused(multiplicity):
    with pytest.raises(InvalidFieldError) as exc:
        _edges_weighted(multiplicity)
    assert str(exc.value) == f"EdgeTable has multiplicity[0] of type {type(multiplicity).__name__}, not int"
    assert exc.value.field == "multiplicity"


def test_float_multiplicities_are_refused_before_the_pipeline_counts_them():
    # Summed per cell and then over cells, these four differ from their plain sum in the last bit.
    with pytest.raises(InvalidFieldError, match="^EdgeTable has multiplicity\\[0\\] of type float, not int$"):
        _edges_weighted(3.3, 2.7, 1.1, 1.2)
    with pytest.raises(InvalidFieldError, match="^EdgeTable has multiplicity\\[1\\] 0, which is below 1$"):
        _edges_weighted(3, 0, 1, 1)
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
    "changes, message",
    [
        (
            lambda: {"owners": (1, Owner("t2", "t2", "individual"))},
            "Owner 't2' has kind of type str, not OwnerKind",
        ),
        (
            lambda: {"dependencies": (0, DependencyEdge("a", "b", "use"))},
            "EdgeTable has kind[0] of type str, not DependencyKind",
        ),
        (
            lambda: {"components": (2, Component(5, "c", ComponentKind.MICROSERVICE, ComponentStatus.PRODUCTION))},
            "ComponentTable has id[2] of type int, not str",
        ),
        (
            lambda: {"components": (0, Component("a", "a", "library", ComponentStatus.PRODUCTION))},
            "ComponentTable has kind[0] of type str, not ComponentKind",
        ),
        (
            lambda: {"components": (0, Component("a", "a", ComponentKind.LIBRARY, "production"))},
            "ComponentTable has status[0] of type str, not ComponentStatus",
        ),
        (
            lambda: {"components": (0, Component("a", None, ComponentKind.LIBRARY, ComponentStatus.PRODUCTION))},
            "ComponentTable has name[0] of type NoneType, not str",
        ),
        (
            lambda: {"dependencies": (1, DependencyEdge("b", 7))},
            "EdgeTable has owner_component[1] of type int, not str",
        ),
        (
            lambda: {"ownership": (0, OwnershipAssignment("a", 1))},
            "OwnershipTable has owner[0] of type int, not str",
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
def test_a_field_of_another_type_than_the_parser_gives_is_refused_by_its_constructor(small_snapshot, changes, message):
    with pytest.raises(InvalidFieldError) as exc:
        _retyped(small_snapshot, **changes())
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"taken_at": datetime(2023, 1, 1, 5)}, "snapshot 'test' has taken_at of type datetime, not date"),
        ({"taken_at": "2023-01-01"}, "snapshot 'test' has taken_at of type str, not date"),
        ({"id": 5}, "snapshot 5 has id of type int, not str"),
    ],
    ids=["datetime", "string-date", "int-id"],
)
def test_a_snapshot_field_of_another_type_is_refused(small_snapshot, changes, message):
    with pytest.raises(InvalidFieldError) as exc:
        dataclasses.replace(small_snapshot, **changes)
    assert str(exc.value) == message


def _with_first_owner(small_snapshot, location_evidence):
    """`small_snapshot` whose owner 't1' holds `location_evidence` as given, not copied into a tuple."""
    return dataclasses.replace(
        small_snapshot, owners=(Owner("t1", "t1", OwnerKind.TEAM, location_evidence),) + small_snapshot.owners[1:]
    )


@pytest.mark.parametrize(
    "change, message, field",
    [
        (
            lambda s: _with_first_owner(s, None),
            "Owner 't1' has location_evidence of type NoneType, not tuple",
            "location_evidence",
        ),
        (
            lambda s: _with_first_owner(s, (s.owners[0].location_evidence[0], {"source": "explicit_assignment"})),
            "Owner 't1' has location_evidence[1] of type dict, not LocationEvidence",
            "location_evidence",
        ),
        (
            lambda s: dataclasses.replace(s, components=7),
            "snapshot 'test' has components of type int, not ComponentTable",
            "components",
        ),
        (
            lambda s: dataclasses.replace(s, owners=frozenset(s.owners)),
            "snapshot 'test' has owners of type frozenset, not tuple",
            "owners",
        ),
        (
            lambda s: dataclasses.replace(s, owners=(s.owners[0], "t2")),
            "snapshot 'test' has owners[1] of type str, not Owner",
            "owners",
        ),
        (
            lambda s: dataclasses.replace(s, ownership=iter(s.ownership)),
            "snapshot 'test' has ownership of type tuple_iterator, not OwnershipTable",
            "ownership",
        ),
        (
            lambda s: dataclasses.replace(s, dependencies=7),
            "snapshot 'test' has dependencies of type int, not EdgeTable",
            "dependencies",
        ),
        (
            lambda s: dataclasses.replace(s, dependencies=[s.dependencies[0], "b->c"]),
            "snapshot 'test' has dependencies[1] of type str, not DependencyEdge",
            "dependencies",
        ),
        (
            lambda s: dataclasses.replace(s, dependencies=(e for e in s.dependencies)),
            "snapshot 'test' has dependencies of type generator, not EdgeTable",
            "dependencies",
        ),
    ],
    ids=[
        "evidence-none",
        "evidence-dict",
        "components-int",
        "owners-frozenset",
        "owners-str",
        "ownership-iterator",
        "dependencies-int",
        "dependencies-str",
        "dependencies-generator",
    ],
)
def test_a_container_of_another_type_is_refused_naming_its_first_fault(small_snapshot, change, message, field):
    with pytest.raises(InvalidFieldError) as exc:
        change(small_snapshot)
    assert (str(exc.value), exc.value.field) == (message, field)


def test_list_containers_are_accepted(small_snapshot):
    snapshot = _with_first_owner(small_snapshot, list(small_snapshot.owners[0].location_evidence))
    snapshot = dataclasses.replace(
        snapshot,
        components=list(snapshot.components),
        owners=list(snapshot.owners),
        ownership=list(snapshot.ownership),
    )
    assert snapshot == small_snapshot and type(snapshot.owners) is tuple
    assert type(snapshot.owners[0].location_evidence) is tuple
    assert validate_snapshot(snapshot).status == "ok"


def test_a_plain_string_evidence_source_is_refused():
    # Once accepted, such a record reached `source.value` in the resolver cascade and raised AttributeError.
    with pytest.raises(InvalidFieldError, match="^LocationEvidence has source of type str, not EvidenceSource$"):
        LocationEvidence("explicit_assignment", "SWE", TODAY)


def test_a_datetime_recorded_at_is_refused():
    # Once accepted as an owner's only record, it serialized to a bundle that the parser refuses.
    with pytest.raises(InvalidFieldError, match="^LocationEvidence has recorded_at of type datetime, not date$"):
        LocationEvidence(EvidenceSource.EXPLICIT_ASSIGNMENT, "SWE", datetime(2023, 1, 1, 5))


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
    with pytest.raises(TypeError):
        built + 5
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
    with pytest.raises(InvalidFieldError, match=r"^snapshot 'test' has components\[1\] of type str, not Component$"):
        dataclasses.replace(small_snapshot, components=(small_snapshot.components[0], "b"))


def _parsed_devnullsoft():
    return parse_bundle(serialize_bundle(fixture("devnullsoft")))


# Each way to get a snapshot of the parsed one's fields: (id, the snapshot made from the parsed one).
MADE = {
    "constructor": lambda s: ArchitectureSnapshot(*(getattr(s, f.name) for f in dataclasses.fields(s))),
    "replace": dataclasses.replace,
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda s: pickle.loads(pickle.dumps(s)),
    "scope-filter": lambda s: apply_scope_filter(s, s.owner_of(), ScopePolicy(frozenset(ComponentStatus), False))[0],
}


@pytest.mark.parametrize("made", MADE)
def test_every_way_to_make_a_snapshot_of_a_parsed_ones_fields_keeps_its_tables(made):
    parsed = _parsed_devnullsoft()
    snapshot = MADE[made](parsed)
    assert type(snapshot) is ArchitectureSnapshot and snapshot == parsed
    tables = [type(snapshot.components), type(snapshot.dependencies), type(snapshot.ownership)]
    assert tables == [ComponentTable, EdgeTable, OwnershipTable] and type(snapshot.owners) is tuple
    assert validate_snapshot(snapshot) == validate_snapshot(parsed)


def test_a_snapshot_refuses_every_assignment():
    assert [f.name for f in dataclasses.fields(ArchitectureSnapshot)] == [
        "id",
        "taken_at",
        "components",
        "dependencies",
        "owners",
        "ownership",
    ]
    snapshot = _parsed_devnullsoft()
    # A frozen dataclass refuses the assignment. For a name that is no field, a `slots=True` class raises TypeError
    # on Python 3.10 to 3.13, from its `__setattr__`'s `super()` of the class that `slots=True` replaced.
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        snapshot.checked = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        snapshot.owners = ()
    assert snapshot == _parsed_devnullsoft()


def test_every_constructor_refuses_under_dash_o():
    # Nothing about the constructors' rule may rest on an assert statement, which `python -O` strips.
    script = (
        "import dataclasses, datetime\n"
        "from taxarch.generate import fixture\n"
        "from taxarch.model import *\n"
        "s = fixture('devnullsoft')\n"
        "e = DependencyEdge('a', 'b')\n"
        "refusals = [\n"
        "    lambda: ComponentTable(('a',), (5,), (ComponentKind.OTHER,), (ComponentStatus.PRODUCTION,)),\n"
        "    lambda: EdgeTable(('a',), ('b',), (DependencyKind.USE,), (0,)),\n"
        "    lambda: OwnershipTable(('a',), ('t\\ud800',)),\n"
        "    lambda: LocationEvidence(EvidenceSource.MEMBER_LOCATIONS, 'SWE', datetime.date(2023, 1, 1)),\n"
        "    lambda: Owner('t', 't', 'team'),\n"
        "    lambda: dataclasses.replace(s, taken_at=datetime.datetime(2023, 1, 1)),\n"
        "    lambda: dataclasses.replace(s, owners=(*s.owners, 't')),\n"
        "    lambda: dataclasses.replace(s, dependencies=(e, 'b->c')),\n"
        "]\n"
        "for refusal in refusals:\n"
        "    try:\n"
        "        refusal()\n"
        "        print('accepted')\n"
        "    except InvalidFieldError as exc:\n"
        "        print(type(exc).__name__, exc.field)\n"
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
    assert proc.stdout.splitlines() == [
        "InvalidFieldError name",
        "InvalidFieldError multiplicity",
        "UnencodableStringError owner",
        "InvalidFieldError payload",
        "InvalidFieldError kind",
        "InvalidFieldError taken_at",
        "InvalidFieldError owners",
        "InvalidFieldError dependencies",
    ]


def test_a_parsed_bundle_and_the_same_snapshot_built_in_code_get_the_same_findings():
    parsed = _parsed_devnullsoft()
    rebuilt = ArchitectureSnapshot(
        parsed.id,
        parsed.taken_at,
        tuple(parsed.components),
        tuple(parsed.dependencies),
        parsed.owners,
        tuple(parsed.ownership),
    )
    assert validate_snapshot(parsed) == validate_snapshot(rebuilt) == validate_snapshot(fixture("devnullsoft"))
    # The invariants run on parsed tables: a dangling edge and a missing owner are found in a parsed bundle.
    doc = json.loads(serialize_bundle(fixture("devnullsoft")))
    doc["dependencies"].append({"user": "svc-00", "owner_component": "ghost", "kind": "use", "multiplicity": 2})
    doc["ownership"].pop()
    report = validate_snapshot(parse_bundle(json.dumps(doc)))
    assert report.codes() == ["dangling-reference", "missing-owner"]


def test_an_unpaired_surrogate_is_refused_by_the_table_that_would_hold_it():
    devnullsoft = fixture("devnullsoft")
    components = tuple(
        dataclasses.replace(c, name="svc \ud800") if c.id == "svc-31" else c for c in devnullsoft.components
    )
    with pytest.raises(UnencodableStringError) as exc:
        dataclasses.replace(devnullsoft, components=components)
    assert str(exc.value) == "ComponentTable has name[7] holding an unpaired surrogate, which UTF-8 cannot encode"
    assert exc.value.field == "name"


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


def test_a_component_named_by_another_type_is_refused_before_any_finding(small_snapshot):
    nameless = tuple(Component("", name, ComponentKind.OTHER, ComponentStatus.PRODUCTION) for name in (5, "x"))
    # The int name is refused by the table, so no empty-id finding is ever named by it.
    with pytest.raises(InvalidFieldError, match="^ComponentTable has name\\[3\\] of type int, not str$"):
        dataclasses.replace(small_snapshot, components=small_snapshot.components + nameless)


def test_an_owner_of_another_type_is_refused_before_any_finding(small_snapshot):
    # The int owner is refused by the table, so no multiple-owners finding ever lists it beside 't1'.
    with pytest.raises(InvalidFieldError, match="^OwnershipTable has owner\\[3\\] of type int, not str$"):
        small_snapshot.ownership + (OwnershipAssignment("a", 5),)
