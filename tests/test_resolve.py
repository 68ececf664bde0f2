from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxarch.model import UNKNOWN, EvidenceSource, LocationEvidence
from taxarch.resolve import (
    DEFAULT_CASCADE,
    CascadeConfigError,
    ConflictingEvidenceError,
    Resolver,
    parse_cascade,
    resolution_summary,
    resolve_jurisdictions,
)

from conftest import TODAY, make_owner
from reference_resolve import reference_resolve_jurisdictions


def evidence(source, payload, when=TODAY):
    return LocationEvidence(source, payload, when)


CASCADE_EM = (Resolver("explicit_assignment"), Resolver("member_majority", 0.75))


def test_first_decisive_resolver_wins():
    owner = make_owner(
        "t",
        evidence=[
            evidence(EvidenceSource.EXPLICIT_ASSIGNMENT, "FRA"),
            evidence(EvidenceSource.MEMBER_LOCATIONS, ("DEU", "DEU", "DEU", "DEU")),
        ],
    )
    (a,) = resolve_jurisdictions([owner], CASCADE_EM)
    assert a.jurisdiction == "FRA"
    assert a.resolver == "explicit_assignment"


def test_member_majority_at_threshold_is_decisive():
    # 3 of 4 members in SWE: share 0.75 >= 0.75
    owner = make_owner("t", evidence=[evidence(EvidenceSource.MEMBER_LOCATIONS, ("SWE", "SWE", "SWE", "DEU"))])
    (a,) = resolve_jurisdictions([owner], CASCADE_EM)
    assert a.jurisdiction == "SWE"
    assert a.resolver == "member_majority(0.75)"


def test_member_split_below_threshold_is_unresolved():
    owner = make_owner("t", evidence=[evidence(EvidenceSource.MEMBER_LOCATIONS, ("SWE", "SWE", "DEU", "DEU"))])
    (a,) = resolve_jurisdictions([owner], CASCADE_EM)
    assert a.jurisdiction == "UNKNOWN"
    assert a.provenance == "unresolved"


def test_owner_without_evidence_is_unresolved():
    (a,) = resolve_jurisdictions([make_owner("t")], CASCADE_EM)
    assert a.jurisdiction == "UNKNOWN"
    assert not a.resolved


def test_explicit_unknown_falls_through():
    owner = make_owner(
        "t",
        evidence=[
            evidence(EvidenceSource.EXPLICIT_ASSIGNMENT, "UNKNOWN"),
            evidence(EvidenceSource.MANAGER_LOCATION, "NLD"),
        ],
    )
    (a,) = resolve_jurisdictions([owner], (Resolver("explicit_assignment"), Resolver("manager_location")))
    assert a.jurisdiction == "NLD"
    assert a.resolver == "manager_location"


def test_questionnaire_counts_as_explicit():
    owner = make_owner("t", evidence=[evidence(EvidenceSource.QUESTIONNAIRE, "GBR")])
    (a,) = resolve_jurisdictions([owner], CASCADE_EM)
    assert a.jurisdiction == "GBR"
    assert a.resolver == "explicit_assignment"


def test_latest_explicit_assignment_wins():
    owner = make_owner(
        "t",
        evidence=[
            evidence(EvidenceSource.EXPLICIT_ASSIGNMENT, "DEU", date(2023, 1, 1)),
            evidence(EvidenceSource.EXPLICIT_ASSIGNMENT, "SWE", date(2023, 3, 1)),
        ],
    )
    (a,) = resolve_jurisdictions([owner], CASCADE_EM)
    assert a.jurisdiction == "SWE"


def test_conflicting_same_day_evidence_raises():
    owner = make_owner(
        "t",
        evidence=[
            evidence(EvidenceSource.EXPLICIT_ASSIGNMENT, "DEU"),
            evidence(EvidenceSource.EXPLICIT_ASSIGNMENT, "SWE"),
        ],
    )
    with pytest.raises(ConflictingEvidenceError):
        resolve_jurisdictions([owner], CASCADE_EM)


@pytest.mark.parametrize("cascade", [DEFAULT_CASCADE, (Resolver("explicit_assignment"),)], ids=["default", "explicit"])
def test_conflict_in_a_group_the_cascade_never_reaches_does_not_raise(cascade):
    owner = make_owner(
        "t",
        evidence=[
            evidence(EvidenceSource.MANAGER_LOCATION, "DEU"),
            evidence(EvidenceSource.EXPLICIT_ASSIGNMENT, "SWE"),
            evidence(EvidenceSource.MANAGER_LOCATION, "FRA"),
        ],
    )
    (a,) = resolve_jurisdictions([owner], cascade)
    assert (a.jurisdiction, a.resolver) == ("SWE", "explicit_assignment")
    assert [a] == reference_resolve_jurisdictions([owner], cascade)
    with pytest.raises(ConflictingEvidenceError, match="conflicting manager_location evidence dated 2023-06-30"):
        resolve_jurisdictions([owner], (Resolver("manager_location"),))


DAYS = (date(2023, 1, 1), date(2023, 2, 1), date(2023, 3, 1))
RESOLVERS = (
    Resolver("explicit_assignment"),
    Resolver("member_majority"),
    Resolver("member_majority", 0.6),
    Resolver("member_majority", 1.0),
    Resolver("manager_location"),
)


@st.composite
def evidenced_owners(draw, oid):
    """An owner with 0-5 records of every source on two or three dates, agreeing or conflicting; every payload has
    its source's shape, as `LocationEvidence` stores no other."""
    days = st.sampled_from(DAYS[: draw(st.sampled_from([2, 3]))])
    codes = st.sampled_from(draw(st.sampled_from([("SWE",), ("SWE", "DEU"), ("SWE", "DEU", UNKNOWN)])))
    single = codes
    members = st.lists(codes, max_size=4)
    records = [
        LocationEvidence(source, draw(members if source is EvidenceSource.MEMBER_LOCATIONS else single), draw(days))
        for source in EvidenceSource
        for _ in range(draw(st.integers(min_value=0, max_value=5)))
    ]
    return make_owner(oid, evidence=draw(st.permutations(records)))


def _outcome(resolve, owners, cascade):
    """The assignments, or the conflict refused."""
    try:
        return resolve(owners, cascade)
    except ConflictingEvidenceError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(
    owners=st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True).flatmap(
        lambda ids: st.tuples(*(evidenced_owners(oid) for oid in ids))
    ),
    cascade=st.lists(st.sampled_from(RESOLVERS), min_size=1, max_size=4).map(tuple),
)
def test_resolve_decides_or_refuses_as_the_reference_does(owners, cascade):
    assert _outcome(resolve_jurisdictions, owners, cascade) == _outcome(reference_resolve_jurisdictions, owners, cascade)


def test_totality_and_order_normalization():
    owners = [make_owner("b", "DEU"), make_owner("a"), make_owner("c", "SWE")]
    assignments = resolve_jurisdictions(owners, CASCADE_EM)
    assert [a.owner for a in assignments] == ["a", "b", "c"]
    assert len(assignments) == 3


def test_cascade_monotonicity():
    owners = [
        make_owner("t1", "FRA"),
        make_owner("t2", evidence=[evidence(EvidenceSource.MEMBER_LOCATIONS, ("SWE",) * 4)]),
    ]
    short = resolve_jurisdictions(owners, CASCADE_EM)
    extended = resolve_jurisdictions(owners, CASCADE_EM + (Resolver("manager_location"),))
    assert short == extended


def test_threshold_monotonicity():
    owner = make_owner("t", evidence=[evidence(EvidenceSource.MEMBER_LOCATIONS, ("SWE", "SWE", "SWE", "DEU"))])
    for low, high in [(0.6, 0.7), (0.7, 0.75), (0.75, 0.76), (0.76, 1.0)]:
        (a_low,) = resolve_jurisdictions([owner], (Resolver("member_majority", low),))
        (a_high,) = resolve_jurisdictions([owner], (Resolver("member_majority", high),))
        if a_low.jurisdiction == "UNKNOWN":
            assert a_high.jurisdiction == "UNKNOWN"


@pytest.mark.parametrize("threshold", [0.5, 0.4, 0.0, 1.01])
def test_invalid_threshold_rejected(threshold):
    with pytest.raises(CascadeConfigError):
        Resolver("member_majority", threshold)


def test_empty_cascade_rejected():
    with pytest.raises(CascadeConfigError):
        resolve_jurisdictions([make_owner("t")], ())


def test_parse_cascade():
    cascade = parse_cascade("explicit_assignment, member_majority(0.8), manager_location")
    assert [r.name for r in cascade] == ["explicit_assignment", "member_majority", "manager_location"]
    assert cascade[1].threshold == 0.8
    with pytest.raises(CascadeConfigError):
        parse_cascade("teleport")


@pytest.mark.parametrize(
    "text, threshold",
    [("0.75", 0.75), ("0.8", 0.8), ("0.9", 0.9), ("1", 1.0), ("0.7500001", 0.7500001)],
)
def test_describe_writes_the_threshold_it_was_given(text, threshold):
    assert Resolver("member_majority", threshold).describe() == f"member_majority({text})"


@given(st.floats(min_value=0.5, max_value=1.0, exclude_min=True))
def test_describe_parses_back_to_the_same_resolver(threshold):
    resolver = Resolver("member_majority", threshold)
    assert parse_cascade(resolver.describe()) == (resolver,)


def test_resolution_summary_counts():
    owners = [make_owner(f"t{i}", "SWE" if i < 4 else None) for i in range(10)]
    summary = resolution_summary(resolve_jurisdictions(owners, CASCADE_EM))
    assert summary.total == 10
    assert summary.resolved_count == 4
    assert summary.unresolved_count == 6
    assert summary.unresolved_ratio == 0.6
    assert dict(summary.per_resolver) == {"explicit_assignment": 4}


def test_resolution_summary_case_study_counts():
    # The large case reports 140 of 336 teams unresolved.
    owners = [make_owner(f"t{i:03d}", None if i < 140 else "SWE") for i in range(336)]
    summary = resolution_summary(resolve_jurisdictions(owners, CASCADE_EM))
    assert summary.unresolved_count == 140
    assert summary.unresolved_ratio == pytest.approx(140 / 336)


def test_resolution_summary_degenerate():
    summary = resolution_summary([])
    assert summary.total == 0
    assert summary.unresolved_ratio == 0.0
