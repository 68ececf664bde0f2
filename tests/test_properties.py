"""Invariant checks over randomized snapshots from the seeded generator,
and robustness checks over mutated bundles and configs."""

import copy
import json
import random
import tempfile
from datetime import date, datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxarch.classify import EdgeClass, aggregate, apply_scope_filter, classify_edge, compute_stats
from taxarch.cli import main
from taxarch.diff import diff_snapshots
from taxarch.generate import GeneratorParams, fixture, generate
from taxarch.ingest import (
    IngestError,
    _components,
    _dependencies,
    _evidence,
    _owners,
    _ownership,
    parse_bundle,
    serialize_bundle,
)
from taxarch.model import (
    UNKNOWN,
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
    validate_snapshot,
)
from taxarch.resolve import resolve_jurisdictions
from taxarch.views import BucketScheme

from reference_parse import (
    _checked_components,
    _checked_dependencies,
    _checked_evidence,
    _checked_owners,
    _checked_ownership,
)
from reference_diff import reference_diff_snapshots
from reference_validate import reference_validate_snapshot


@st.composite
def snapshots(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    params = GeneratorParams(
        component_count=n,
        team_count=draw(st.integers(min_value=1, max_value=10)),
        unresolved_rate=draw(st.floats(min_value=0.0, max_value=1.0)),
        dependency_density=draw(st.floats(min_value=0.0, max_value=min(1.5, float(n - 1)))),
        seed=draw(st.integers(min_value=0, max_value=2**32)),
    )
    return generate(params)


def pipeline(snapshot):
    scoped, _ = apply_scope_filter(snapshot, snapshot.owner_of())
    assignments = resolve_jurisdictions(list(scoped.owners))
    matrix = aggregate(scoped, snapshot.owner_of(), assignments)
    return scoped, assignments, matrix


@given(snapshots())
def test_generated_snapshots_validate(snapshot):
    assert validate_snapshot(snapshot).status == "ok"


@given(snapshots())
def test_conservation_and_partition(snapshot):
    scoped, _, matrix = pipeline(snapshot)
    stats = compute_stats(matrix)
    assert matrix.total() == sum(e.multiplicity for e in scoped.dependencies)
    assert stats.domestic_count + stats.cross_border_count + stats.unresolved_count == stats.total_uses


@given(snapshots(), st.randoms(use_true_random=False))
def test_aggregate_permutation_invariance(snapshot, rng):
    _, assignments, matrix = pipeline(snapshot)
    shuffled = ArchitectureSnapshot(
        id=snapshot.id,
        taken_at=snapshot.taken_at,
        components=tuple(rng.sample(snapshot.components, len(snapshot.components))),
        dependencies=tuple(rng.sample(snapshot.dependencies, len(snapshot.dependencies))),
        owners=tuple(rng.sample(snapshot.owners, len(snapshot.owners))),
        ownership=tuple(rng.sample(snapshot.ownership, len(snapshot.ownership))),
    )
    _, _, matrix2 = pipeline(shuffled)
    assert matrix2.cells == matrix.cells


def relabel(snapshot, prefix):
    def c(x):
        return prefix + x

    return ArchitectureSnapshot(
        id=snapshot.id + prefix,
        taken_at=snapshot.taken_at,
        components=tuple(type(x)(c(x.id), x.name, x.kind, x.status) for x in snapshot.components),
        dependencies=tuple(
            type(e)(c(e.user), c(e.owner_component), e.kind, e.multiplicity) for e in snapshot.dependencies
        ),
        owners=tuple(Owner(c(o.id), o.name, o.kind, o.location_evidence) for o in snapshot.owners),
        ownership=tuple(type(a)(c(a.component), c(a.owner)) for a in snapshot.ownership),
    )


@given(snapshots())
def test_relabeling_invariance(snapshot):
    _, _, matrix = pipeline(snapshot)
    _, _, matrix2 = pipeline(relabel(snapshot, "x-"))
    assert matrix2.cells == matrix.cells


@given(snapshots(), snapshots())
def test_disjoint_union_additivity(a, b):
    b = relabel(b, "u-")
    union = ArchitectureSnapshot(
        id="union",
        taken_at=a.taken_at,
        components=a.components + b.components,
        dependencies=a.dependencies + b.dependencies,
        owners=a.owners + b.owners,
        ownership=a.ownership + b.ownership,
    )
    _, _, ma = pipeline(a)
    _, _, mb = pipeline(b)
    _, _, mu = pipeline(union)
    expected = dict(ma.cells)
    for cell, count in mb.cells:
        expected[cell] = expected.get(cell, 0) + count
    assert mu.as_dict() == expected


@given(snapshots())
def test_serialize_parse_round_trip(snapshot):
    data = serialize_bundle(snapshot)
    parsed = parse_bundle(data)
    assert serialize_bundle(parsed) == data
    assert parsed.id == snapshot.id
    assert len(parsed.dependencies) == len(snapshot.dependencies)


# Any text UTF-8 can encode: surrogates are the only code points it cannot.
texts = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)


@st.composite
def evidence(draw):
    source = draw(st.sampled_from(EvidenceSource))
    payload = draw(st.lists(texts, max_size=4) if source is EvidenceSource.MEMBER_LOCATIONS else texts)
    return LocationEvidence(source, payload, draw(st.dates()))


# Arbitrary snapshots for the serializer: odd strings, every evidence source,
# empty and non-empty collections. They need not validate.
any_snapshots = st.builds(
    ArchitectureSnapshot,
    id=texts,
    taken_at=st.dates(),
    components=st.lists(
        st.builds(Component, texts, texts, st.sampled_from(ComponentKind), st.sampled_from(ComponentStatus)),
        max_size=4,
    ).map(tuple),
    dependencies=st.lists(
        st.builds(DependencyEdge, texts, texts, st.sampled_from(DependencyKind), st.integers(min_value=1)),
        max_size=4,
    ).map(tuple),
    owners=st.lists(
        st.builds(Owner, texts, texts, st.sampled_from(OwnerKind), st.lists(evidence(), max_size=3).map(tuple)),
        max_size=4,
    ).map(tuple),
    ownership=st.lists(st.builds(OwnershipAssignment, texts, texts), max_size=4).map(tuple),
)


# Library-built snapshots that the parser could never produce: evidence
# payloads of any shape, any multiplicity, ids drawn from a few values so
# that duplicates, dangling references and conflicts are common.
few_ids = st.sampled_from(["a", "b", "c", ""])
codes = st.sampled_from(["SWE", "DEU", UNKNOWN, "swe"]) | texts
single_payloads = st.one_of(
    codes, st.lists(codes, max_size=3), st.lists(codes, max_size=3).map(tuple), st.integers(), st.none()
)
member_payloads = st.one_of(st.lists(codes, max_size=4), st.lists(st.integers(), max_size=4), codes)


TWO_DAYS = (date(2023, 1, 1), date(2023, 2, 1))


@st.composite
def any_evidence(draw, days=TWO_DAYS):
    source = draw(st.sampled_from(EvidenceSource))
    payload = draw(member_payloads if source is EvidenceSource.MEMBER_LOCATIONS else single_payloads)
    return LocationEvidence(source, payload, draw(st.sampled_from(days)))


def library_snapshots_dated(days):
    return st.builds(
        ArchitectureSnapshot,
        id=texts,
        taken_at=st.dates(),
        components=st.lists(
            st.builds(Component, few_ids, texts, st.sampled_from(ComponentKind), st.sampled_from(ComponentStatus)),
            max_size=4,
        ).map(tuple),
        dependencies=st.lists(
            st.builds(DependencyEdge, few_ids, few_ids, st.sampled_from(DependencyKind), st.integers()), max_size=4
        ).map(tuple),
        owners=st.lists(
            st.builds(
                Owner, few_ids, texts, st.sampled_from(OwnerKind), st.lists(any_evidence(days), max_size=3).map(tuple)
            ),
            max_size=4,
        ).map(tuple),
        ownership=st.lists(st.builds(OwnershipAssignment, few_ids, few_ids), max_size=4).map(tuple),
    )


library_snapshots = library_snapshots_dated(TWO_DAYS)


# A datetime cannot be ordered against a date: validate reports it, where the
# reference, which the comparison property below runs, raises TypeError.
@settings(max_examples=300, deadline=None)
@given(library_snapshots_dated(TWO_DAYS + (datetime(2023, 2, 1),)))
def test_validate_never_raises_on_library_built_snapshots(snapshot):
    report = validate_snapshot(snapshot)
    assert report.ok == (report.findings == ())


def reference_bundle(snapshot):
    """The canonical bundle as json.dumps writes it: the serializer's reference oracle."""

    def evidence_dict(ev):
        payload = list(ev.payload) if isinstance(ev.payload, tuple) else ev.payload
        return {"source": ev.source.value, "payload": payload, "recorded_at": ev.recorded_at.isoformat()}

    doc = {
        "schema_version": 1,
        "snapshot_id": snapshot.id,
        "taken_at": snapshot.taken_at.isoformat(),
        "components": [
            {"id": c.id, "name": c.name, "kind": c.kind.value, "status": c.status.value}
            for c in sorted(snapshot.components, key=lambda c: c.id)
        ],
        "dependencies": [
            {
                "user": e.user,
                "owner_component": e.owner_component,
                "kind": e.kind.value,
                "multiplicity": e.multiplicity,
            }
            for e in sorted(snapshot.dependencies, key=lambda e: (e.user, e.owner_component, e.kind.value))
        ],
        "owners": [
            {
                "id": o.id,
                "name": o.name,
                "kind": o.kind.value,
                "location_evidence": [evidence_dict(ev) for ev in o.location_evidence],
            }
            for o in sorted(snapshot.owners, key=lambda o: o.id)
        ],
        "ownership": [
            {"component": a.component, "owner": a.owner}
            for a in sorted(snapshot.ownership, key=lambda a: (a.component, a.owner))
        ],
    }
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(any_snapshots)
def test_serialize_matches_json_dumps_and_round_trips(snapshot):
    data = serialize_bundle(snapshot)
    assert data == reference_bundle(snapshot)
    assert serialize_bundle(parse_bundle(data)) == data


@given(snapshots(), st.integers(min_value=0, max_value=100))
def test_unknown_reassignment_monotonic(snapshot, pick):
    scoped, assignments, matrix = pipeline(snapshot)
    resolved = [a for a in assignments if a.resolved]
    if not resolved:
        return
    victim = resolved[pick % len(resolved)].owner
    stats = compute_stats(matrix)
    owners = tuple(Owner(o.id, o.name, o.kind, ()) if o.id == victim else o for o in scoped.owners)
    degraded = ArchitectureSnapshot(
        snapshot.id, snapshot.taken_at, scoped.components, scoped.dependencies, owners, scoped.ownership
    )
    _, _, matrix2 = pipeline(degraded)
    stats2 = compute_stats(matrix2)
    assert stats2.unresolved_count >= stats.unresolved_count
    assert stats2.domestic_count + stats2.cross_border_count <= stats.domestic_count + stats.cross_border_count


@given(st.integers(min_value=1, max_value=10**6), st.lists(st.integers(min_value=2, max_value=10**5), min_size=1, max_size=5, unique=True))
def test_bucketization_exhaustive_exclusive(count, raw_boundaries):
    scheme = BucketScheme(tuple(sorted(raw_boundaries)))
    label = scheme.label(count)
    assert label != ""
    lo, hi = label[1:-1].split(",")
    assert int(lo) <= count
    assert hi == "∞" or count < int(hi)
    # Exclusive: exactly one bucket claims the count.
    edges = (1,) + scheme.boundaries
    claims = sum(1 for a, b in zip(edges, edges[1:]) if a <= count < b)
    claims += 1 if count >= edges[-1] else 0
    assert claims == 1


@settings(max_examples=25)
@given(snapshots())
def test_order_preserving_bucketization(snapshot):
    scheme = BucketScheme()
    _, _, matrix = pipeline(snapshot)
    counts = sorted(count for _, count in matrix.cells)
    labels = [scheme.label(c) for c in counts]
    order = {"[1,10)": 0, "[10,100)": 1, "[100,∞)": 2}
    ranks = [order[label] for label in labels]
    assert ranks == sorted(ranks)


@given(snapshots())
def test_classify_edge_matches_stats(snapshot):
    # The per-edge rule and the matrix decomposition are one rule.
    scoped, assignments, matrix = pipeline(snapshot)
    owner_of = scoped.owner_of()
    jurisdiction_of = {a.owner: a.jurisdiction for a in assignments}
    per_edge = dict.fromkeys(EdgeClass, 0)
    for e in scoped.dependencies:
        per_edge[classify_edge(e, owner_of, jurisdiction_of)] += e.multiplicity
    stats = compute_stats(matrix)
    assert per_edge == {
        EdgeClass.DOMESTIC: stats.domestic_count,
        EdgeClass.CROSS_BORDER: stats.cross_border_count,
        EdgeClass.UNRESOLVED: stats.unresolved_count,
    }


# Text of any code points, lone surrogates often among them: a JSON document can spell one as an escape.
any_text = st.text(st.characters(exclude_categories=()) | st.characters(categories=("Cs",)), max_size=8)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | any_text,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)

DEVNULLSOFT_DOC = json.loads(serialize_bundle(fixture("devnullsoft")))
DEEP = "\x00deep"  # placeholder, replaced by deeply nested arrays in the document text


def _nodes(node, path=()):
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _field(path):
    """The path with each list index read as "*": the same field of every record."""
    return tuple("*" if type(key) is int else key for key in path)


NODE_PATHS = [p for p, _ in _nodes(DEVNULLSOFT_DOC) if p]
FIELD_VALUES: dict[tuple, list] = {}  # field -> every value it holds in the bundle
for _path, _node in _nodes(DEVNULLSOFT_DOC):
    FIELD_VALUES.setdefault(_field(_path), []).append(_node)


@st.composite
def mutated_bundles(draw):
    """The devnullsoft bundle with nodes of wrong type or replaced by text, missing or extra keys, or deep
    nesting; or, in about half the bundles, with only field values replaced by others of the same type."""
    doc = copy.deepcopy(DEVNULLSOFT_DOC)
    same_type_only = draw(st.booleans())
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        path = draw(st.sampled_from(NODE_PATHS))
        *parents, last = path
        parent = doc
        try:
            for key in parents:
                parent = parent[key]
            parent[last]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed this node
        mutation = "same-type" if same_type_only else draw(
            st.sampled_from(["same-type", "wrong-type", "text", "missing", "extra", "deep"])
        )
        if mutation == "same-type":
            # a value the same field holds elsewhere in the bundle, or a drawn code, date or count
            values = st.sampled_from(FIELD_VALUES[_field(path)])
            if type(parent[last]) is str:
                values |= st.sampled_from(["SWE", "DEU", "GBR", "FRA", UNKNOWN]) | st.dates().map(date.isoformat)
            elif type(parent[last]) is int:
                values |= st.integers(min_value=1, max_value=5)
            parent[last] = copy.deepcopy(draw(values))
        elif mutation == "wrong-type":
            parent[last] = draw(json_values)
        elif mutation == "text":
            parent[last] = draw(any_text)
        elif mutation == "missing":
            del parent[last]
        elif mutation == "extra" and isinstance(parent, dict):
            parent[draw(st.text(max_size=8))] = draw(json_values)
        elif mutation == "extra":
            parent.append(draw(json_values))
        else:
            parent[last] = DEEP
    depth = draw(st.integers(min_value=900, max_value=1100) | st.integers(min_value=1, max_value=100_000))
    return json.dumps(doc).replace(json.dumps(DEEP), "[" * depth + "]" * depth)


@settings(max_examples=200, deadline=None)
@given(mutated_bundles())
def test_mutated_bundles_raise_only_ingest_errors(text):
    try:
        snapshot = parse_bundle(text)
    except IngestError:
        return
    validate_snapshot(snapshot)
    serialize_bundle(snapshot)


CONFIG_KEYS = ("include_statuses", "keep_individual_owners", "resolvers", "buckets", "format")


@pytest.mark.parametrize("command", ["validate", "report", "stats", "diff"])
@settings(max_examples=25, deadline=None)
@given(config=st.dictionaries(st.sampled_from(CONFIG_KEYS + ("unknown_key",)), json_values, max_size=3))
def test_cli_exits_0_1_or_2_on_any_config(command, config):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        bundle, config_path = tmp / "bundle.json", tmp / "config.json"
        bundle.write_bytes(serialize_bundle(fixture("devnullsoft")))
        config_path.write_text(json.dumps(config))
        if command == "validate":
            # validate takes no config; the generated object is its input instead.
            argv = ["validate", str(config_path)]
        else:
            argv = {
                "report": ["report", str(bundle), "--out-dir", str(tmp / "out")],
                "stats": ["stats", str(bundle)],
                "diff": ["diff", str(bundle), str(bundle), "--out", str(tmp / "delta.json")],
            }[command] + ["--config", str(config_path)]
        assert main(argv) in (0, 1, 2)


SINGLE_CODE_SOURCES = ("explicit_assignment", "questionnaire", "manager_location")


@st.composite
def bundles_with_added_evidence(draw):
    """The devnullsoft bundle with 1-3 single-code records added, on the existing date or another."""
    doc = copy.deepcopy(DEVNULLSOFT_DOC)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        owner = draw(st.sampled_from(doc["owners"]))
        owner["location_evidence"].append(
            {
                "source": draw(st.sampled_from(SINGLE_CODE_SOURCES)),
                # every devnullsoft owner's own code is among these
                "payload": draw(st.sampled_from(["SWE", "DEU", "GBR", "FRA", UNKNOWN])),
                "recorded_at": draw(st.sampled_from(["2023-04-01", "2023-03-01", "2023-05-01"])),
            }
        )
    return json.dumps(doc)


@pytest.mark.parametrize("resolvers", [[], ["--resolvers", "member_majority"]], ids=["default", "member_majority"])
@settings(max_examples=40, deadline=None)
@given(text=bundles_with_added_evidence())
def test_validate_and_report_agree_on_added_evidence(resolvers, text):
    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "bundle.json"
        bundle.write_text(text)
        validated = main(["validate", str(bundle)])
        reported = main(["report", str(bundle), "--out-dir", str(Path(tmp) / "out")] + resolvers)
    assert validated in (0, 1) and reported in (0, 1)
    assert validated == reported


# Well-formed bundle records of each type, as json.loads hands them to the parser.
iso_dates = st.dates().map(date.isoformat)
component_records = st.fixed_dictionaries(
    {
        "id": texts,
        "name": texts,
        "kind": st.sampled_from([k.value for k in ComponentKind]),
        "status": st.sampled_from([s.value for s in ComponentStatus]),
    }
)
dependency_records = st.fixed_dictionaries(
    {"user": texts, "owner_component": texts},
    optional={"kind": st.sampled_from([k.value for k in DependencyKind]), "multiplicity": st.integers(min_value=1)},
)
evidence_records = st.sampled_from(EvidenceSource).flatmap(
    lambda source: st.fixed_dictionaries(
        {
            "source": st.just(source.value),
            "payload": st.lists(texts, max_size=3) if source is EvidenceSource.MEMBER_LOCATIONS else texts,
            "recorded_at": iso_dates | st.sampled_from(["2023-02-30", "20230101", "2023-W01-1", ""]),
        }
    )
)
owner_records = st.fixed_dictionaries(
    {"id": texts, "name": texts, "kind": st.sampled_from([k.value for k in OwnerKind])},
    optional={"location_evidence": st.lists(evidence_records, max_size=3)},
)
assignment_records = st.fixed_dictionaries({"component": texts, "owner": texts})
# Values one JSON type or one step away from what some field accepts. Each draw is a copy: a
# later mutation may add to a drawn array or object, which must not change the strategy itself.
near_misses = st.sampled_from([True, False, 0, -1, 1, 1.0, "1", "", None, [], {}, ["SWE"], "use", "2023-01-01"]).map(
    copy.deepcopy
)
# Every field name of every record type, for added fields that are known to some type.
FIELD_NAMES = (
    "component id kind location_evidence multiplicity name owner owner_component payload recorded_at source status user"
).split()


@st.composite
def mutated_records(draw, records):
    """A list of well-formed records with up to three nodes anywhere in it replaced, dropped or added."""
    doc = draw(st.lists(records, max_size=4))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        *parents, last = draw(st.sampled_from([p for p, _ in _nodes(doc) if p] or [(0,)]))
        parent = doc
        try:
            for key in parents:
                parent = parent[key]
            parent[last]
        except (KeyError, IndexError, TypeError):
            continue
        mutation = draw(st.sampled_from(["wrong-type", "missing", "extra"]))
        if mutation == "wrong-type":
            parent[last] = draw(near_misses | json_values)
        elif mutation == "missing":
            del parent[last]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(FIELD_NAMES) | st.text(max_size=4))] = draw(near_misses | records)
        else:
            parent.append(draw(near_misses | records))
    return json.loads(json.dumps(doc))


def _outcome(parse, records):
    """What a record parser makes of a list: its records, or the type and message of what it raised."""
    try:
        return list(parse(records))
    except Exception as exc:
        return type(exc), str(exc)


# Each record parser, beside the checked loop it replaced and the well-formed records both take.
PARSERS = {
    "components": (_components, _checked_components, component_records),
    "dependencies": (_dependencies, _checked_dependencies, dependency_records),
    "owners": (_owners, _checked_owners, owner_records),
    "evidence": (
        lambda records: _evidence(records, 0),
        lambda records: _checked_evidence(records, "owners[0].location_evidence"),
        evidence_records,
    ),
    "ownership": (_ownership, _checked_ownership, assignment_records),
}


@pytest.mark.parametrize("kind", PARSERS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parser_gives_the_reference_records_or_message(kind, data):
    parse, reference, records = PARSERS[kind]
    doc = data.draw(mutated_records(records))
    assert _outcome(parse, doc) == _outcome(reference, doc)


# Records at the edges of what each check accepts, and records with two faults, where the order of the checks shows.
EDGE = {"user": "a", "owner_component": "b"}
EVIDENCE = {"source": "explicit_assignment", "payload": "SWE", "recorded_at": "2023-01-01"}


@pytest.mark.parametrize(
    "kind, records",
    [
        ("components", [{"id": "a", "name": "a", "kind": "nanoservice", "status": "gone"}]),
        ("components", [{"id": "a", "name": 1, "kind": "nanoservice", "status": "production"}]),
        ("components", [{"id": "a", "kind": "library", "status": "production", "extra": 1}]),
        ("dependencies", [dict(EDGE, multiplicity=0)]),
        ("dependencies", [dict(EDGE, multiplicity=True)]),
        ("dependencies", [dict(EDGE, multiplicity=1.0, kind="calls")]),
        ("dependencies", [dict(EDGE, multiplicity=2, kind=["use"])]),
        ("dependencies", [dict(EDGE), {"user": "a"}]),
        ("owners", [{"id": "t", "name": "t", "kind": "guild", "location_evidence": 5}]),
        ("owners", [{"id": "t", "name": "t", "kind": "guild", "location_evidence": [dict(EVIDENCE, source="x")]}]),
        ("owners", [{"id": "t", "name": "t", "location_evidence": []}]),
        ("evidence", [dict(EVIDENCE, source="member_locations")]),
        ("evidence", [dict(EVIDENCE, source="member_locations", payload=["SWE", 1])]),
        ("evidence", [dict(EVIDENCE, payload=["SWE"], recorded_at="2023-02-30")]),
        ("evidence", [dict(EVIDENCE, source="nonsense", payload=1, recorded_at=2)]),
        ("evidence", [dict(EVIDENCE, recorded_at=20230101)]),
        ("evidence", [dict(EVIDENCE, recorded_at="2023-02-30")]),
        ("ownership", [{"component": "c", "owner": 5}]),
        ("ownership", [{"component": "c", "owner": "t"}, "c"]),
    ],
)
def test_parser_gives_the_reference_message_at_each_edge(kind, records):
    parse, reference, _ = PARSERS[kind]
    assert _outcome(parse, records) == _outcome(reference, records)


SINGLE_CODE_GROUPS = (
    (EvidenceSource.EXPLICIT_ASSIGNMENT, EvidenceSource.QUESTIONNAIRE),
    (EvidenceSource.MANAGER_LOCATION,),
)
EVIDENCE_DEFECTS = ("conflict-at-latest", "conflict-at-older-date", "malformed-code", "wrong-shape", "unhashable-member")


@st.composite
def defective_evidence(draw, defect, taken_at):
    """Records that give an owner one evidence defect; a generated owner's own records are dated `taken_at`."""
    group = draw(st.sampled_from(SINGLE_CODE_GROUPS))
    source = st.sampled_from(group)
    day = taken_at + timedelta(days=draw(st.integers(min_value=-1, max_value=1)))
    if defect in ("conflict-at-latest", "conflict-at-older-date"):
        at = taken_at + timedelta(days=2) if defect == "conflict-at-latest" else taken_at - timedelta(days=365)
        records = [LocationEvidence(draw(source), code, at) for code in ("SWE", "DEU")]
        if defect == "conflict-at-older-date":
            # a newer record of the same group, so the conflict is not at the latest date
            records.append(LocationEvidence(draw(source), "GBR", taken_at + timedelta(days=1)))
        return tuple(records)
    if defect == "malformed-code":
        code = draw(st.sampled_from(["swe", "SW", "SWED", "", "SWE\n"]) | texts)
        if draw(st.booleans()):
            return (LocationEvidence(EvidenceSource.MEMBER_LOCATIONS, ["SWE", code], day),)
        return (LocationEvidence(draw(source), code, day),)
    if defect == "wrong-shape":
        if draw(st.booleans()):
            return (LocationEvidence(EvidenceSource.MEMBER_LOCATIONS, [draw(st.integers() | st.none())], day),)
        return (LocationEvidence(draw(source), draw(st.sampled_from([("SWE",), ["SWE"], 5, None])), day),)
    return (LocationEvidence(EvidenceSource.MEMBER_LOCATIONS, [["SWE"], ["DEU"]], day),)


@st.composite
def defective_snapshots(draw):
    """A generated snapshot with up to three defects of the kinds each set-algebra check of validate looks for."""
    snapshot = draw(snapshots())
    components, dependencies, owners, ownership = (
        list(snapshot.components),
        list(snapshot.dependencies),
        list(snapshot.owners),
        list(snapshot.ownership),
    )
    component_ids = st.sampled_from([c.id for c in components])
    owner_ids = st.sampled_from([o.id for o in owners])
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        defect = draw(
            st.sampled_from(
                ["duplicate-id", "empty-id", "dangling-reference", "self-dependency", "invalid-multiplicity"]
                + ["duplicate-edge", "missing-owner", "multiple-owners", "unknown-owner", "unknown-component"]
                + list(EVIDENCE_DEFECTS)
            )
        )
        if defect == "duplicate-id":
            nodes = draw(st.sampled_from([components, owners]))
            nodes.append(draw(st.sampled_from(nodes)))
        elif defect == "empty-id":
            components.append(Component("", "nameless", ComponentKind.OTHER, ComponentStatus.PRODUCTION))
        elif defect == "dangling-reference":
            dependencies.append(DependencyEdge(draw(component_ids), "ghost"))
        elif defect == "self-dependency":
            cid = draw(component_ids)
            dependencies.append(DependencyEdge(cid, cid))
        elif defect == "invalid-multiplicity" and dependencies:
            i = draw(st.integers(min_value=0, max_value=len(dependencies) - 1))
            e = dependencies[i]
            dependencies[i] = DependencyEdge(e.user, e.owner_component, e.kind, draw(st.integers(max_value=0)))
        elif defect == "duplicate-edge" and dependencies:
            dependencies.append(draw(st.sampled_from(dependencies)))
        elif defect == "missing-owner" and ownership:
            ownership.pop(draw(st.integers(min_value=0, max_value=len(ownership) - 1)))
        elif defect == "multiple-owners":
            ownership.append(OwnershipAssignment(draw(component_ids), draw(owner_ids)))
        elif defect == "unknown-owner":
            ownership.append(OwnershipAssignment(draw(component_ids), "ghost"))
        elif defect == "unknown-component":
            ownership.append(OwnershipAssignment("ghost", draw(owner_ids)))
        elif defect in EVIDENCE_DEFECTS:
            i = draw(st.integers(min_value=0, max_value=len(owners) - 1))
            o = owners[i]
            owners[i] = Owner(
                o.id, o.name, o.kind, o.location_evidence + draw(defective_evidence(defect, snapshot.taken_at))
            )
    return ArchitectureSnapshot(
        snapshot.id, snapshot.taken_at, tuple(components), tuple(dependencies), tuple(owners), tuple(ownership)
    )


@settings(max_examples=300, deadline=None)
@given(library_snapshots | defective_snapshots())
def test_validate_finds_what_the_record_by_record_reference_finds(snapshot):
    assert validate_snapshot(snapshot) == reference_validate_snapshot(snapshot)


@pytest.mark.parametrize(
    "record",
    [
        LocationEvidence("explicit_assignment", "SWE", date(2023, 1, 1)),
        LocationEvidence(EvidenceSource.MANAGER_LOCATION, "SWE", ["2023-01-01"]),
        LocationEvidence(EvidenceSource.MEMBER_LOCATIONS, [["SWE"]], date(2023, 1, 1)),
        LocationEvidence(EvidenceSource.QUESTIONNAIRE, {"SWE"}, date(2023, 1, 1)),
    ],
    ids=["source-a-plain-string", "unhashable-date", "member-holding-a-list", "unhashable-payload"],
)
def test_validate_evidence_of_odd_types_as_the_reference_does(record):
    snapshot = ArchitectureSnapshot("odd", date(2023, 6, 30), (), (), (Owner("t", "t", OwnerKind.TEAM, (record,)),), ())
    assert validate_snapshot(snapshot) == reference_validate_snapshot(snapshot)


@st.composite
def churned_pairs(draw):
    """A generated snapshot and a later copy with edges added, removed and re-weighted, components
    added and moved to other owners, and newer evidence of every source for some owners.

    Both snapshots list their records in drawn orders: the generator's are sorted, and a
    diff that forgot to sort its rows would pass on them."""
    g = draw(snapshots())
    a = ArchitectureSnapshot(
        g.id,
        g.taken_at,
        *(tuple(draw(st.permutations(records))) for records in (g.components, g.dependencies, g.owners, g.ownership)),
    )
    ids = [c.id for c in a.components]
    owner_ids = [o.id for o in a.owners]
    index = st.integers(min_value=0, max_value=10**6)
    components, dependencies, owners, ownership = (
        list(a.components),
        list(a.dependencies),
        list(a.owners),
        list(a.ownership),
    )
    for k in range(draw(st.integers(min_value=0, max_value=2))):
        components.append(Component(f"new-{k}", f"new-{k}", ComponentKind.LIBRARY, ComponentStatus.PRODUCTION))
        ownership.append(OwnershipAssignment(f"new-{k}", draw(st.sampled_from(owner_ids))))
        ids.append(f"new-{k}")
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        if dependencies:
            dependencies.pop(draw(index) % len(dependencies))
    for i in draw(st.lists(index, max_size=5)):
        if dependencies:
            e = dependencies[i % len(dependencies)]
            dependencies[i % len(dependencies)] = DependencyEdge(
                e.user, e.owner_component, e.kind, draw(st.integers(min_value=1, max_value=5))
            )
    present = {(e.user, e.owner_component, e.kind) for e in dependencies}
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        edge = (draw(st.sampled_from(ids)), draw(st.sampled_from(ids)), draw(st.sampled_from(DependencyKind)))
        if edge[0] != edge[1] and edge not in present:
            present.add(edge)
            dependencies.append(DependencyEdge(*edge, draw(st.integers(min_value=1, max_value=3))))
    for i in draw(st.lists(index, max_size=4)):
        moved = ownership[i % len(ownership)]
        ownership[i % len(ownership)] = OwnershipAssignment(moved.component, draw(st.sampled_from(owner_ids)))
    new_codes = st.sampled_from(["SWE", "DEU", "USA", UNKNOWN])
    for i in draw(st.sets(st.integers(min_value=0, max_value=len(owners) - 1), max_size=4)):
        source = draw(st.sampled_from(EvidenceSource))
        payload = draw(
            st.lists(new_codes, min_size=1, max_size=4) if source is EvidenceSource.MEMBER_LOCATIONS else new_codes
        )
        day = a.taken_at + timedelta(days=draw(st.integers(min_value=1, max_value=30)))
        o = owners[i]
        owners[i] = Owner(o.id, o.name, o.kind, o.location_evidence + (LocationEvidence(source, payload, day),))
    b = ArchitectureSnapshot(
        f"{a.id}-next",
        a.taken_at + timedelta(days=31),
        *(tuple(draw(st.permutations(records))) for records in (components, dependencies, owners, ownership)),
    )
    return a, b


@settings(max_examples=200, deadline=None)
@given(churned_pairs())
def test_diff_equals_the_reference_diff_both_ways(pair):
    a, b = pair
    assert diff_snapshots(a, b) == reference_diff_snapshots(a, b)
    assert diff_snapshots(b, a) == reference_diff_snapshots(b, a)
