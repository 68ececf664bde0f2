"""Golden sha256 pins: every canonical artifact stays byte-identical.

The values were taken from the released behaviour. A change that alters
any of these bytes changes what an auditor receives, so it must update
the pin deliberately and say why.
"""

import hashlib
from datetime import date

import pytest

from taxarch.cli import main
from taxarch.generate import fixture
from taxarch.ingest import serialize_bundle
from taxarch.model import (
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
)

GEN_ARGS = ["gen", "--components", "200", "--teams", "20", "--density", "3", "--unresolved-rate", "0.2"]
GEN_ARGS_SEED_11 = [
    "gen", "--components", "2000", "--teams", "50", "--density", "10", "--unresolved-rate", "0.3",
    "--jurisdictions", "DEU:0.5,FRA:0.3,UNKNOWN:0.2", "--seed", "11",
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_devnullsoft_bundle_bytes():
    assert _sha256(serialize_bundle(fixture("devnullsoft"))) == (
        "006c44f7107e5581e4faced2ba6703f49dafad29b3e1ab52f7b93807c540f4c3"
    )


@pytest.mark.parametrize(
    "name, pins",
    [
        (
            "devnullsoft",
            {
                "view.dot": "645fc8f89e932bd7ff725bc81ac0558664adb58162b1264140001a34927f23e6",
                "view.csv": "c3fb1425075bbbf810e8e4c3e8ed5c3b4a7e442dbdf907050660ee575725d355",
                "registers.csv": "1a7ec186d0c0ec2745029106ea8710ef5c157f0bac3980812ee899d0d9875f76",
                "report.json": "0a0887d5b1f3e10ce97fbd789b3c32c1c8e3fa4754d5a06ddfdcd0c6a314ff6a",
            },
        ),
        (
            "casestudy_matrix",
            {
                "view.dot": "41c68e2fdf42d2c15e202fe0355ecfde3f36ac8718e6ed9966a8395b2b4f7dbc",
                "view.csv": "6d0b38d11da8309a3253cff8a0615fcdc5ef8ef744aebfccdc41bb1fa738ff54",
                "registers.csv": "6bdb618515b4854dbd8006cb6b0355fbc3758b2ad5f243c889c6b2ebfd39af41",
                "report.json": "31bd0bb37eaf0c5f0956e1aac5e425ba233cf17380ff5f47ea277ee9dfb0955e",
            },
        ),
    ],
)
def test_report_artifact_bytes(tmp_path, capsys, name, pins):
    assert main(["report", "--fixture", name, "--out-dir", str(tmp_path)]) == 0
    assert {artifact: _sha256((tmp_path / artifact).read_bytes()) for artifact in pins} == pins


def test_gen_and_diff_bytes(tmp_path, capsys):
    for seed in (7, 8):
        assert main(GEN_ARGS + ["--seed", str(seed), "--out", str(tmp_path / f"s{seed}.json")]) == 0
    assert _sha256((tmp_path / "s7.json").read_bytes()) == (
        "7ecccee8b1aa4438afa75f1d0ac4b56c436303ed7f0eee94e00c47f30aaabbf9"
    )
    assert main(["diff", str(tmp_path / "s7.json"), str(tmp_path / "s8.json"), "--out", str(tmp_path / "d.json")]) == 0
    assert _sha256((tmp_path / "d.json").read_bytes()) == (
        "a36ff80dd805c158da6095f95292db6acb8cb3a206a814cf3ec0babe8358a9e2"
    )


# Every string the escaper can treat differently: quote, backslash, a
# control character with a short escape and one without, U+2028 (valid
# JSON, left unescaped), non-ASCII and a character outside the BMP.
ODD_NAME = 'say "hi" \\ back\nslash \x01 sep \u2028 Zürich 🚀'


def _odd_snapshot():
    recorded = date(2023, 3, 1)
    return ArchitectureSnapshot(
        id="odd-" + ODD_NAME,
        taken_at=date(2023, 6, 30),
        components=(
            Component("c2", ODD_NAME, ComponentKind.LIBRARY, ComponentStatus.EXPERIMENTAL),
            Component("c1", "plain", ComponentKind.MICROSERVICE, ComponentStatus.PRODUCTION),
            Component("c3", "", ComponentKind.OTHER, ComponentStatus.DEPRECATED),
        ),
        dependencies=(
            DependencyEdge("c2", "c1", DependencyKind.OTHER, 3),
            DependencyEdge("c1", "c2"),
            DependencyEdge("c2", "c1"),
        ),
        owners=(
            Owner(
                "t2",
                ODD_NAME,
                OwnerKind.UNIT,
                (
                    LocationEvidence(EvidenceSource.MEMBER_LOCATIONS, ("SWE", "DEU", "SWE", "UNKNOWN"), recorded),
                    LocationEvidence(EvidenceSource.MANAGER_LOCATION, "GBR", recorded),
                    LocationEvidence(EvidenceSource.QUESTIONNAIRE, "FRA", date(2022, 12, 31)),
                    LocationEvidence(EvidenceSource.EXPLICIT_ASSIGNMENT, "UNKNOWN", recorded),
                ),
            ),
            Owner("t1", "no evidence", OwnerKind.INDIVIDUAL),
        ),
        ownership=(
            OwnershipAssignment("c2", "t2"),
            OwnershipAssignment("c1", "t1"),
            OwnershipAssignment("c3", "t2"),
        ),
    )


@pytest.mark.parametrize(
    "snapshot, pin",
    [
        (_odd_snapshot(), "2c8b202ccaa2b9fb20de4f7e04445e3d48093fb8a7c79add9f025b39794ee6b7"),
        (
            ArchitectureSnapshot("", date(2023, 1, 1), (), (), (), ()),
            "55f6031edb56cf2cbcbda2b6158cfb746c33d6bfdaf5c9d5626c515621c8c588",
        ),
    ],
    ids=["odd", "empty"],
)
def test_hand_built_bundle_bytes(snapshot, pin):
    assert _sha256(serialize_bundle(snapshot)) == pin


def test_gen_with_jurisdictions_bytes(tmp_path, capsys):
    out = tmp_path / "s11.json"
    assert main(GEN_ARGS_SEED_11 + ["--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == "b8812131cef09aae72548ef001605d57808ff3798a4026c82c0498d791f73ed3"


def _scoped_snapshot():
    """Every report.json section the pins above leave empty: exclusions, an UNKNOWN owner, a member majority."""
    recorded = date(2023, 5, 2)
    production, experimental = ComponentStatus.PRODUCTION, ComponentStatus.EXPERIMENTAL
    return ArchitectureSnapshot(
        id="scoped-2023Q2",
        taken_at=date(2023, 6, 30),
        components=(
            Component("api", "api", ComponentKind.MICROSERVICE, production),
            Component("web", "web", ComponentKind.MICROSERVICE, production),
            Component("lib", "lib", ComponentKind.LIBRARY, production),
            Component("ops", "ops", ComponentKind.OTHER, production),
            Component("dark", "dark", ComponentKind.LIBRARY, production),
            Component("beta", "beta", ComponentKind.MICROSERVICE, experimental),
            Component("solo", "solo", ComponentKind.LIBRARY, production),
        ),
        dependencies=(
            DependencyEdge("web", "api"),
            DependencyEdge("api", "lib", DependencyKind.USE, 2),
            DependencyEdge("lib", "dark", DependencyKind.OTHER, 3),
            DependencyEdge("dark", "api"),
            DependencyEdge("ops", "api"),
            DependencyEdge("api", "ops", DependencyKind.USE, 4),
            DependencyEdge("api", "beta"),
            DependencyEdge("solo", "lib", DependencyKind.USE, 5),
        ),
        owners=(
            Owner("t-deu", "DE team", OwnerKind.TEAM, (LocationEvidence(EvidenceSource.EXPLICIT_ASSIGNMENT, "DEU", recorded),)),
            Owner(
                "t-swe",
                "SE unit",
                OwnerKind.UNIT,
                (LocationEvidence(EvidenceSource.MEMBER_LOCATIONS, ("SWE", "DEU", "SWE", "SWE"), recorded),),
            ),
            Owner("t-fra", "FR team", OwnerKind.TEAM, (LocationEvidence(EvidenceSource.MANAGER_LOCATION, "FRA", recorded),)),
            Owner("t-none", "no evidence", OwnerKind.TEAM),
            Owner("p-ann", "Ann", OwnerKind.INDIVIDUAL, (LocationEvidence(EvidenceSource.QUESTIONNAIRE, "NOR", recorded),)),
        ),
        ownership=(
            OwnershipAssignment("api", "t-deu"),
            OwnershipAssignment("web", "t-deu"),
            OwnershipAssignment("lib", "t-swe"),
            OwnershipAssignment("ops", "t-fra"),
            OwnershipAssignment("dark", "t-none"),
            OwnershipAssignment("beta", "t-deu"),
            OwnershipAssignment("solo", "p-ann"),
        ),
    )


SCOPED_PINS = {
    "view.dot": "4f0ef9f7d6793d506020124f16db03127cb5d9b3c14b86eea9e7ee2b2826a22c",
    "view.csv": "099eae55299c04512d8802532fe3aa13e8bbd50ad18f001287ab346dc3f7d98e",
    "registers.csv": "0e8db826b5916c8bc4f083c73259e0e74d68b329dd874188b63398fc18b9b3ed",
    "report.json": "69a0692e2a982a38d6ccd816452677b4f0ce63d7a91c3d446e8aa9a6ee7b68cc",
}


def test_scoped_report_artifact_bytes(tmp_path, capsys):
    bundle = tmp_path / "scoped.json"
    bundle.write_bytes(serialize_bundle(_scoped_snapshot()))
    out = tmp_path / "out"
    assert main(["report", str(bundle), "--out-dir", str(out)]) == 0
    report = (out / "report.json").read_text(encoding="utf-8")
    for covered in ('"individual_owner"', '"non_production"', '"N/A"', '"UNKNOWN"', "member_majority(0.75)"):
        assert covered in report
    assert {artifact: _sha256((out / artifact).read_bytes()) for artifact in SCOPED_PINS} == SCOPED_PINS
