import json
import random
from datetime import date, datetime

import pytest

from taxarch.cli import main
from taxarch.generate import fixture
from taxarch.ingest import serialize_bundle
from taxarch.model import (
    ArchitectureSnapshot,
    DependencyEdge,
    EvidenceSource,
    LocationEvidence,
    OwnershipAssignment,
    validate_snapshot,
)

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
def test_dates_that_cannot_be_ordered_are_an_evidence_shape_finding(small_snapshot, other):
    snapshot = _with_evidence(
        small_snapshot,
        LocationEvidence(EvidenceSource.EXPLICIT_ASSIGNMENT, "SWE", TODAY),
        LocationEvidence(EvidenceSource.QUESTIONNAIRE, "FRA", other),
    )
    report = validate_snapshot(snapshot)
    assert [(f.code, f.offending_ids) for f in report.findings] == [("evidence-shape", ("t3",))]
    message = report.findings[0].message
    assert "'t3'" in message and "recorded_at" in message
    assert "2023" not in message and "FRA" not in message


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
