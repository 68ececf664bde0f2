"""Invariant checks over randomized snapshots from the seeded generator,
and robustness checks over mutated bundles and configs."""

import copy
import dataclasses
import json
import random
import re
import tempfile
import typing
from datetime import date, datetime, timedelta
from enum import Enum
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxarch import ingest
from taxarch.classify import EdgeClass, ScopePolicy, aggregate, apply_scope_filter, classify_edge, compute_stats
from taxarch.cli import main
from taxarch.diff import diff_snapshots, run_pipeline
from taxarch.generate import GeneratorParams, fixture, generate
from taxarch.ingest import IngestError, parse_bundle, serialize_bundle
from taxarch.model import (
    UNKNOWN,
    ArchitectureSnapshot,
    Component,
    ComponentKind,
    ComponentStatus,
    ConflictingEvidenceError,
    DependencyEdge,
    DependencyKind,
    EvidenceSource,
    InvalidFieldError,
    LocationEvidence,
    Owner,
    OwnerKind,
    OwnershipAssignment,
    UnencodableStringError,
    validate_snapshot,
)
from taxarch.resolve import DEFAULT_CASCADE, Resolver, resolve_jurisdictions
from taxarch.views import BucketScheme, build_registers, emit_graph, emit_registers, emit_report, emit_table

from reference_parse import (
    _checked_components,
    _checked_dependencies,
    _checked_evidence,
    _checked_owners,
    _checked_ownership,
)
from reference_diff import reference_diff_snapshots
from reference_resolve import reference_resolve_jurisdictions
from reference_scope import reference_apply_scope_filter
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


@st.composite
def scope_cases(draw):
    """A generated snapshot whose owners are drawn teams, units and individuals and whose components hold drawn
    statuses, which keeps it valid, and a drawn scope policy."""
    snapshot = draw(snapshots())
    statuses = st.sampled_from(ComponentStatus)
    components = tuple(Component(c.id, c.name, c.kind, draw(statuses)) for c in snapshot.components)
    kinds = st.sampled_from(OwnerKind)
    owners = tuple(Owner(o.id, o.name, draw(kinds), o.location_evidence) for o in snapshot.owners)
    snapshot = dataclasses.replace(snapshot, components=components, owners=owners)
    policy = ScopePolicy(frozenset(draw(st.sets(statuses, min_size=1))), draw(st.booleans()))
    return snapshot, policy


@settings(max_examples=200, deadline=None)
@given(scope_cases())
def test_scope_filter_equals_the_record_by_record_reference(case):
    snapshot, policy = case
    assert validate_snapshot(snapshot).ok
    scoped, report = apply_scope_filter(snapshot, snapshot.owner_of(), policy)
    assert (scoped, report) == reference_apply_scope_filter(snapshot, snapshot.owner_of(), policy)
    if not report.excluded_components:
        assert scoped.components is snapshot.components and scoped.ownership is snapshot.ownership


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


# Library-built snapshots: evidence codes of any text, any multiplicity, ids
# drawn from a few values so that duplicates, dangling references and
# conflicts are common.
few_ids = st.sampled_from(["a", "b", "c", ""])
codes = st.sampled_from(["SWE", "DEU", UNKNOWN, "swe"]) | texts
single_payloads = codes
member_payloads = st.lists(codes, max_size=4) | st.lists(codes, max_size=4).map(tuple)


def refused_or(cls):
    """`cls`'s constructor, giving the InvalidFieldError it raises instead of raising it: a value built of a refused
    one is refused in turn, so a strategy of such builds draws a value or its refusal."""

    def build(*args, **kwargs):
        try:
            return cls(*args, **kwargs)
        except InvalidFieldError as exc:
            return exc

    return build


TWO_DAYS = (date(2023, 1, 1), date(2023, 2, 1))


SOURCES = tuple(EvidenceSource)


@st.composite
def any_evidence(draw, days=TWO_DAYS, sources=SOURCES):
    source = draw(st.sampled_from(sources))
    payload = draw(member_payloads if source == EvidenceSource.MEMBER_LOCATIONS else single_payloads)
    return refused_or(LocationEvidence)(source, payload, draw(st.sampled_from(days)))


def library_snapshots_dated(days, sources=SOURCES):
    """Snapshots whose records are dated among `days`, taken on any date or on one before, among or after them; a
    date or source of another type than the parser's draws the refusal of the snapshot."""
    return st.builds(
        refused_or(ArchitectureSnapshot),
        id=texts,
        taken_at=st.dates() | st.sampled_from((date(2022, 12, 1), *TWO_DAYS, date(2023, 1, 15), date(2023, 3, 1))),
        components=st.lists(
            st.builds(Component, few_ids, texts, st.sampled_from(ComponentKind), st.sampled_from(ComponentStatus)),
            max_size=4,
        ).map(tuple),
        dependencies=st.lists(
            st.builds(DependencyEdge, few_ids, few_ids, st.sampled_from(DependencyKind), st.integers(min_value=1)),
            max_size=4,
        ).map(tuple),
        owners=st.lists(
            st.builds(
                refused_or(Owner),
                few_ids,
                texts,
                st.sampled_from(OwnerKind),
                st.lists(any_evidence(days, sources), max_size=3).map(tuple),
            ),
            max_size=4,
        ).map(tuple),
        ownership=st.lists(st.builds(OwnershipAssignment, few_ids, few_ids), max_size=4).map(tuple),
    )


library_snapshots = library_snapshots_dated(TWO_DAYS)


# A datetime cannot be ordered against a date, a list date has no isoformat and
# a plain-string or unknown source no value: the constructors refuse each, so
# validate never meets one.
@settings(max_examples=300, deadline=None)
@given(
    library_snapshots_dated(
        TWO_DAYS + (datetime(2023, 2, 1), ["2023-02-01"]),
        SOURCES + tuple(source.value for source in EvidenceSource) + ("bogus", None),
    )
)
def test_validate_never_raises_on_library_built_snapshots(snapshot):
    if isinstance(snapshot, InvalidFieldError):
        return
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


# The snapshots above hold at most four edges, far fewer than one block, so the
# serializer's block constant is cut down to put seams between their records.
@pytest.mark.parametrize("block", [1, 2, 3])
@settings(max_examples=100, deadline=None)
@given(any_snapshots)
def test_serialize_matches_json_dumps_across_block_seams(block, snapshot):
    with mock.patch.object(ingest, "_BLOCK_RECORDS", block):
        data = serialize_bundle(snapshot)
        assert data == reference_bundle(snapshot)
        assert serialize_bundle(parse_bundle(data)) == data


# Ids of one to four UTF-8 bytes per character, and a character JSON writes as is.
SEAM_IDS = ("a", "é", "日本", "\U0001d11e", "z\u2028")


@pytest.mark.parametrize("block", [1, 2, 3])
def test_serialize_matches_json_dumps_at_edge_counts_around_a_block(block):
    components = tuple(
        Component(f"{x}{i}", x, ComponentKind.MICROSERVICE, ComponentStatus.PRODUCTION) for i, x in enumerate(SEAM_IDS)
    )
    for n in sorted({0, 1, block - 1, block, block + 1, 2 * block, 2 * block + 1}):
        edges = tuple(
            DependencyEdge(components[i % 5].id, components[(i * 2 + 1) % 5].id, tuple(DependencyKind)[i % 2], i + 1)
            for i in range(n)
        )
        snapshot = ArchitectureSnapshot("snapshot-日本", date(2023, 1, 1), components, edges, (), ())
        with mock.patch.object(ingest, "_BLOCK_RECORDS", block):
            data = serialize_bundle(snapshot)
            assert data == reference_bundle(snapshot), n
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
# Placeholder, replaced by an integer of more digits than the interpreter converts (4300 by default), which
# `json.dumps` cannot write either.
LONG = "\x00long"


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
    """The devnullsoft bundle with nodes of wrong type or replaced by text, missing or extra keys, deep nesting or
    an over-long number; or, in about half the bundles, with only field values replaced by others of the same
    type."""
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
        if not isinstance(parent, (dict, list)):
            continue  # an earlier mutation replaced a container on the path by text, which indexes but holds no node
        mutation = "same-type" if same_type_only else draw(
            st.sampled_from(["same-type", "wrong-type", "text", "missing", "extra", "deep", "long"])
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
        elif mutation == "long":
            parent[last] = LONG
        else:
            parent[last] = DEEP
    depth = draw(st.integers(min_value=900, max_value=1100) | st.integers(min_value=1, max_value=100_000))
    digits = draw(st.integers(min_value=4301, max_value=20_000))
    text = json.dumps(doc).replace(json.dumps(DEEP), "[" * depth + "]" * depth)
    return text.replace(json.dumps(LONG), "-" * draw(st.booleans()) + "1" + "0" * (digits - 1))


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
    """The devnullsoft bundle with 1-3 single-code records added, dated before, on or after its `taken_at`,
    2023-04-01, which is the date of its own records."""
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
def mutated_records(draw, records, max_size=4):
    """A list of well-formed records with up to three nodes anywhere in it replaced, dropped or added."""
    doc = draw(st.lists(records, max_size=max_size))
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


def _parsed(field):
    """The parser's read of the record list `field`, in a bundle whose other record lists are empty."""

    def parse(records):
        doc = dict.fromkeys(("components", "dependencies", "owners", "ownership"), [])
        doc.update(schema_version=1, snapshot_id="s", taken_at="2023-01-01", **{field: records})
        return getattr(ingest._snapshot_from(doc), field)

    return parse


# Each record parser, beside the checked loop it replaced and the well-formed records both take.
PARSERS = {
    "components": (_parsed("components"), _checked_components, component_records),
    "dependencies": (_parsed("dependencies"), _checked_dependencies, dependency_records),
    "owners": (_parsed("owners"), _checked_owners, owner_records),
    "evidence": (
        lambda records: ingest._read(LocationEvidence, (records,), "owners[0].location_evidence")[0],
        lambda records: _checked_evidence(records, "owners[0].location_evidence"),
        evidence_records,
    ),
    "ownership": (_parsed("ownership"), _checked_ownership, assignment_records),
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
# An edge record as the serializer writes it: the form the column-by-column read takes.
FULL_EDGE = dict(EDGE, kind="use", multiplicity=1)
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
        # Well-formed records, then a last one that only the record loop reads.
        ("dependencies", [FULL_EDGE, dict(FULL_EDGE, owner_component="c"), dict(FULL_EDGE, multiplicity=True)]),
        ("dependencies", [FULL_EDGE, dict(FULL_EDGE, kind=["use"])]),
        ("dependencies", [FULL_EDGE, dict(FULL_EDGE, kind="other", multiplicity=0)]),
        ("dependencies", [FULL_EDGE, dict(FULL_EDGE, user=None)]),
        ("dependencies", [FULL_EDGE, dict(FULL_EDGE, owner_component=5)]),
        ("dependencies", [FULL_EDGE, dict(FULL_EDGE, user="c", extra=1)]),
        ("dependencies", [FULL_EDGE, {"user": "a", "owner_component": "b", "calls": "use", "multiplicity": 1}]),
        ("dependencies", [FULL_EDGE, {"user": "b", "owner_component": "a", "multiplicity": 2}]),
        ("dependencies", [FULL_EDGE, ["a", "b", "use", 1]]),
        ("dependencies", [FULL_EDGE, "a->b"]),
    ],
)
def test_parser_gives_the_reference_message_at_each_edge(kind, records):
    parse, reference, _ = PARSERS[kind]
    assert _outcome(parse, records) == _outcome(reference, records)


MEMBERS = dict(EVIDENCE, source="member_locations", payload=["SWE", "DEU"])
OWNER = {"id": "t", "name": "t", "kind": "team"}


# The payload shapes that the payload rule's column tests split on, each after sound records of both shapes.
@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize(
    "kind, records",
    [
        ("evidence", [EVIDENCE, MEMBERS, dict(MEMBERS, payload=["SWE", 1])]),
        ("evidence", [EVIDENCE, MEMBERS, dict(MEMBERS, payload=["SWE", ["DEU"]])]),
        ("evidence", [MEMBERS, EVIDENCE, dict(EVIDENCE, payload=["SWE"])]),
        ("evidence", [MEMBERS, EVIDENCE, dict(EVIDENCE, source="manager_location", payload=["SWE"])]),
        ("owners", [dict(OWNER, location_evidence=[EVIDENCE, dict(MEMBERS, payload="SWE")])]),
        ("owners", [dict(OWNER, location_evidence=[MEMBERS, dict(EVIDENCE, payload=["SWE"])])]),
        ("owners", [dict(OWNER, location_evidence=[MEMBERS]), dict(OWNER, location_evidence=[EVIDENCE, MEMBERS])]),
    ],
    ids=[
        "member-number",
        "member-nested-list",
        "single-code-list",
        "manager-list",
        "sound-single-then-faulty-member",
        "sound-member-then-faulty-single",
        "sound-owners",
    ],
)
def test_parser_gives_the_reference_message_for_each_payload_shape(kind, records, block):
    parse, reference, _ = PARSERS[kind]
    with mock.patch.object(ingest, "_WALK_RECORDS", block):
        assert _outcome(parse, records) == _outcome(reference, records)


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("kind", PARSERS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_parser_gives_the_reference_records_or_message_across_walk_blocks(kind, block, data):
    parse, reference, records = PARSERS[kind]
    doc = data.draw(mutated_records(records, max_size=10))
    with mock.patch.object(ingest, "_WALK_RECORDS", block):
        assert _outcome(parse, doc) == _outcome(reference, doc)


# A well-formed record of each type, and the same record with one fault in a field that the column rules judge.
WELL_FORMED = {
    "components": {"id": "a", "name": "a", "kind": "library", "status": "production"},
    "dependencies": FULL_EDGE,
    "owners": {"id": "t", "name": "t", "kind": "team", "location_evidence": [EVIDENCE]},
    "evidence": EVIDENCE,
    "ownership": {"component": "c", "owner": "t"},
}
FAULTY = {
    "components": dict(WELL_FORMED["components"], status="gone"),
    "dependencies": dict(FULL_EDGE, multiplicity=0),
    "owners": dict(WELL_FORMED["owners"], location_evidence=[EVIDENCE, dict(EVIDENCE, recorded_at="2023-02-30")]),
    "evidence": dict(EVIDENCE, source="member_locations"),
    "ownership": dict(WELL_FORMED["ownership"], owner=5),
}


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("faults", [{5: "faulty"}, {2: "faulty", 5: "not an object"}, {4: "not an object", 6: "faulty"}])
@pytest.mark.parametrize("kind", PARSERS)
def test_the_fault_walk_names_the_first_fault_of_a_later_block(kind, faults, block):
    parse, reference, _ = PARSERS[kind]
    records = [FAULTY[kind] if faults.get(i) == "faulty" else "x" if i in faults else WELL_FORMED[kind] for i in range(8)]
    with mock.patch.object(ingest, "_WALK_RECORDS", block):
        outcome = _outcome(parse, records)
    assert outcome == _outcome(reference, records)
    assert outcome[0] is ingest.SchemaError and f"[{min(faults)}]" in outcome[1]


@settings(max_examples=60, deadline=None)
@given(snapshot=snapshots(), data=st.data())
def test_omitted_optional_fields_read_as_their_defaults(snapshot, data):
    full = serialize_bundle(snapshot)
    doc = json.loads(full)
    for edge in doc["dependencies"]:
        for field, default in (("kind", "use"), ("multiplicity", 1)):
            if edge[field] == default and data.draw(st.booleans()):
                del edge[field]
    for owner in doc["owners"]:
        if owner["location_evidence"] == [] and data.draw(st.booleans()):
            del owner["location_evidence"]
    assert parse_bundle(json.dumps(doc)) == parse_bundle(full)


SINGLE_CODE_GROUPS = (
    (EvidenceSource.EXPLICIT_ASSIGNMENT, EvidenceSource.QUESTIONNAIRE),
    (EvidenceSource.MANAGER_LOCATION,),
)
CONFLICT_DEFECTS = (
    "conflict-at-latest",
    "conflict-at-older-date",
    "conflict-after-snapshot",
    "conflict-under-later-record",
)
EVIDENCE_DEFECTS = CONFLICT_DEFECTS + ("malformed-code",)


@st.composite
def defective_evidence(draw, defect, taken_at):
    """Records that give an owner one evidence defect, dated before, on or after the snapshot's `taken_at`; a
    generated owner's own records are dated `taken_at`.

    A conflict dated after `taken_at` is no finding, and a record dated after it hides no earlier conflict."""
    group = draw(st.sampled_from(SINGLE_CODE_GROUPS))
    source = st.sampled_from(group)
    day = taken_at + timedelta(days=draw(st.integers(min_value=-1, max_value=1)))
    if defect in CONFLICT_DEFECTS:
        at = {"conflict-at-latest": taken_at, "conflict-after-snapshot": taken_at + timedelta(days=2)}.get(
            defect, taken_at - timedelta(days=365)
        )
        records = [LocationEvidence(draw(source), code, at) for code in ("SWE", "DEU")]
        if defect == "conflict-at-older-date":
            # a newer record of the same group by the snapshot's date, so the conflict is not at the latest date
            records.append(LocationEvidence(draw(source), "GBR", taken_at - timedelta(days=1)))
        elif defect == "conflict-under-later-record":
            # a newer record of the same group dated after the snapshot, so as of its date the conflict is the latest
            records.append(LocationEvidence(draw(source), "GBR", taken_at + timedelta(days=1)))
        return tuple(records)
    code = draw(st.sampled_from(["swe", "SW", "SWED", "", "SWE\n"]) | texts)
    if draw(st.booleans()):
        return (LocationEvidence(EvidenceSource.MEMBER_LOCATIONS, ["SWE", code], day),)
    return (LocationEvidence(draw(source), code, day),)


@st.composite
def defective_snapshots(draw):
    """A generated snapshot with up to five defects of the kinds each invariant block of validate looks for, some
    defects repeated within one snapshot, so that each block's listing is compared with the reference's count.

    The dependency rows are then drawn sorted by (user, used, kind), as a serialized bundle lists them, or left in
    the order the defects gave them, so that the duplicate-edge block is compared through both of its gates."""
    snapshot = draw(snapshots())
    components, dependencies, owners, ownership = (
        list(snapshot.components),
        list(snapshot.dependencies),
        list(snapshot.owners),
        list(snapshot.ownership),
    )
    component_ids = st.sampled_from([c.id for c in components])
    owner_ids = st.sampled_from([o.id for o in owners])
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        defect = draw(
            st.sampled_from(
                ["duplicate-id", "empty-component-id", "empty-owner-id", "dangling-user", "dangling-used"]
                + ["self-dependency", "duplicate-edge", "triplicate-edge", "missing-owner"]
                + ["multiple-owners", "repeated-assignment", "unknown-owner", "unknown-component", "shared-owner-id"]
                + ["kind-twin"]
                + list(EVIDENCE_DEFECTS)
            )
        )
        if defect == "duplicate-id":
            nodes = draw(st.sampled_from([components, owners]))
            nodes.append(draw(st.sampled_from(nodes)))
        elif defect == "empty-component-id":
            components.append(Component("", "nameless", ComponentKind.OTHER, ComponentStatus.PRODUCTION))
        elif defect == "empty-owner-id":
            owners.append(Owner("", "nameless", OwnerKind.TEAM))
        elif defect == "dangling-user":
            dependencies.append(DependencyEdge("ghost", draw(component_ids)))
        elif defect == "dangling-used":
            dependencies.append(DependencyEdge(draw(component_ids), "ghost"))
        elif defect == "self-dependency":
            cid = draw(component_ids)
            dependencies.append(DependencyEdge(cid, cid))
        elif defect == "duplicate-edge" and dependencies:
            dependencies.append(draw(st.sampled_from(dependencies)))
        elif defect == "triplicate-edge" and dependencies:
            dependencies += [draw(st.sampled_from(dependencies))] * 2
        elif defect == "kind-twin" and dependencies:
            # The same (user, used) pair under the other kind: not a duplicate edge, yet a pair the order test meets.
            e = draw(st.sampled_from(dependencies))
            other = DependencyKind.OTHER if e.kind is DependencyKind.USE else DependencyKind.USE
            dependencies.append(DependencyEdge(e.user, e.owner_component, other, e.multiplicity))
        elif defect == "missing-owner" and ownership:
            ownership.pop(draw(st.integers(min_value=0, max_value=len(ownership) - 1)))
        elif defect == "multiple-owners":
            ownership.append(OwnershipAssignment(draw(component_ids), draw(owner_ids)))
        elif defect == "repeated-assignment" and ownership:
            ownership += [draw(st.sampled_from(ownership))] * draw(st.integers(min_value=1, max_value=2))
        elif defect == "unknown-owner":
            ownership.append(OwnershipAssignment(draw(component_ids), "ghost"))
        elif defect == "unknown-component":
            ownership.append(OwnershipAssignment("ghost", draw(owner_ids)))
        elif defect == "shared-owner-id":
            # Two owners of one id, each with one explicit record of its own code on one date: the evidence columns
            # hold a same-dated pair of one resolver under that id, yet neither owner holds a conflict.
            i = draw(st.integers(min_value=0, max_value=len(owners) - 1))
            o, explicit = owners[i], EvidenceSource.EXPLICIT_ASSIGNMENT
            owners[i] = Owner(o.id, o.name, o.kind, (LocationEvidence(explicit, "SWE", snapshot.taken_at),))
            owners.append(Owner(o.id, "twin", o.kind, (LocationEvidence(explicit, "DEU", snapshot.taken_at),)))
        elif defect in EVIDENCE_DEFECTS:
            i = draw(st.integers(min_value=0, max_value=len(owners) - 1))
            o = owners[i]
            owners[i] = Owner(
                o.id, o.name, o.kind, o.location_evidence + draw(defective_evidence(defect, snapshot.taken_at))
            )
    if draw(st.booleans()):
        dependencies.sort(key=lambda e: (e.user, e.owner_component, e.kind))
    return ArchitectureSnapshot(
        snapshot.id, snapshot.taken_at, tuple(components), tuple(dependencies), tuple(owners), tuple(ownership)
    )


@settings(max_examples=300, deadline=None)
@given(library_snapshots | defective_snapshots())
def test_validate_finds_what_the_record_by_record_reference_finds(snapshot):
    assert validate_snapshot(snapshot) == reference_validate_snapshot(snapshot)


@pytest.mark.parametrize(
    "record, refused",
    [
        (("explicit_assignment", "SWE", date(2023, 1, 1)), "source of type str, not EvidenceSource"),
        ((EvidenceSource.MANAGER_LOCATION, "SWE", ["2023-01-01"]), "recorded_at of type list, not date"),
        (
            (EvidenceSource.MEMBER_LOCATIONS, [["SWE"]], date(2023, 1, 1)),
            "of source 'member_locations' has payload[0] of type list, not str",
        ),
        (
            (EvidenceSource.QUESTIONNAIRE, {"SWE"}, date(2023, 1, 1)),
            "of source 'questionnaire' has payload of type set, not str",
        ),
        ((["x"], "SWE", date(2023, 1, 1)), "source of type list, not EvidenceSource"),
    ],
    ids=[
        "source-a-plain-string",
        "unhashable-date",
        "member-holding-a-list",
        "unhashable-payload",
        "unhashable-source",
    ],
)
def test_evidence_of_odd_types_is_refused_by_its_record(record, refused):
    # No snapshot can hold such a record, so neither validate nor the resolver cascade ever meets one.
    with pytest.raises(InvalidFieldError) as exc:
        LocationEvidence(*record)
    assert str(exc.value).startswith("LocationEvidence ") and str(exc.value).endswith(refused)


# (record type, field, type) of each field whose annotation is a plain class, not `tuple[...]` or a union: the
# type of such an annotation is a metaclass, while on Python 3.10 even `tuple[str, ...]` is an instance of `type`.
# The dependencies are a table of DependencyEdge rows.
TYPED_FIELDS = [
    (record, field, hint)
    for record in (ArchitectureSnapshot, Component, DependencyEdge, LocationEvidence, Owner, OwnershipAssignment)
    for field, hint in typing.get_type_hints(record).items()
    if issubclass(type(hint), type) and (record, field) != (ArchitectureSnapshot, "dependencies")
]


def _wrong_values(hint: type) -> list:
    """Values of other types than `hint`, the parser's type of a field."""
    values = [["x"], {"x": "y"}, None, 5]
    if issubclass(hint, Enum):
        values.append(next(iter(hint)).value)  # a plain string, not the member
    if hint is date:
        values.append(datetime(2023, 1, 1, 5))
    if hint is int:
        values = [True, 1.0, "1", None, 0]
    return values


RECORDS_OF = {Component: "components", DependencyEdge: "dependencies", Owner: "owners", OwnershipAssignment: "ownership"}


@st.composite
def snapshots_with_one_wrong_field(draw):
    """A builder of the devnullsoft snapshot with one drawn value of another type in one drawn typed field of one drawn
    record, the field and value, and the type the parser gives it."""
    record, field, hint = draw(st.sampled_from(TYPED_FIELDS))
    value = draw(st.sampled_from(_wrong_values(hint)))
    snapshot = fixture("devnullsoft")

    def retyped(records, i):
        if record is LocationEvidence:  # its own constructor refuses the value
            ev = records[i]
            fields = {"source": ev.source, "payload": ev.payload, "recorded_at": ev.recorded_at, field: value}
            return records[:i] + (LocationEvidence(**fields),) + records[i + 1 :]
        return records[:i] + (dataclasses.replace(records[i], **{field: value}),) + records[i + 1 :]

    if record is ArchitectureSnapshot:
        return (lambda: dataclasses.replace(snapshot, **{field: value})), field, value, hint
    if record is LocationEvidence:
        owners = snapshot.owners
        i = draw(st.sampled_from([i for i, o in enumerate(owners) if o.location_evidence]))
        j = draw(st.integers(min_value=0, max_value=len(owners[i].location_evidence) - 1))
        return (lambda: retyped(owners[i].location_evidence, j)), field, value, hint
    attr = RECORDS_OF[record]
    records = tuple(getattr(snapshot, attr))
    i = draw(st.integers(min_value=0, max_value=len(records) - 1))
    return (lambda: dataclasses.replace(snapshot, **{attr: retyped(records, i)})), field, value, hint


@settings(max_examples=200, deadline=None)
@given(snapshots_with_one_wrong_field())
def test_a_value_of_another_type_in_any_typed_field_is_refused_naming_the_field(case):
    # A field added to a record without a type test fails here: its snapshot is built.
    build, field, value, hint = case
    with pytest.raises(InvalidFieldError) as exc:
        build()
    assert exc.value.field == field
    refused = f"{value!r}, which is below 1" if hint is int and type(value) is int else (
        f"of type {type(value).__name__}, not {hint.__name__}"
    )
    assert re.search(rf" has {field}(\[\d+\])? {re.escape(refused)}$", str(exc.value))


def _drawn_evidence(draw, after: date, days: int) -> LocationEvidence:
    """One record of a drawn source and code, dated 1 to `days` days after `after`."""
    codes = st.sampled_from(["SWE", "DEU", "USA", UNKNOWN])
    source = draw(st.sampled_from(EvidenceSource))
    payload = draw(st.lists(codes, min_size=1, max_size=4) if source is EvidenceSource.MEMBER_LOCATIONS else codes)
    return LocationEvidence(source, payload, after + timedelta(days=draw(st.integers(min_value=1, max_value=days))))


@st.composite
def churned_pairs(draw):
    """A generated snapshot, a later copy, and the cascade and scope policy to compare them under.

    Some owners of the first hold a record dated after its date, up to nine days after the copy's: so both
    snapshots hold records dated between their two dates, which decide the copy and not the first. The copy
    has edges added, removed and re-weighted, components added (of drawn statuses) and moved to
    other owners, owners added and removed, newer evidence of every source for some owners, replaced
    evidence for others (two records of one resolver on one day may conflict), and owners of a new kind or
    name whose evidence stays. The cascade is the default, reordered, or with a drawn `member_majority`
    threshold.

    Both snapshots list their records in drawn orders: the generator's are sorted, and a
    diff that forgot to sort its rows would pass on them."""
    g = draw(snapshots())
    dated = list(g.owners)
    for i in draw(st.sets(st.integers(min_value=0, max_value=len(dated) - 1), max_size=3)):
        o = dated[i]
        dated[i] = Owner(o.id, o.name, o.kind, o.location_evidence + (_drawn_evidence(draw, g.taken_at, 40),))
    a = ArchitectureSnapshot(
        g.id,
        g.taken_at,
        *(tuple(draw(st.permutations(records))) for records in (g.components, g.dependencies, dated, g.ownership)),
    )
    ids = [c.id for c in a.components]
    index = st.integers(min_value=0, max_value=10**6)
    components, dependencies, owners, ownership = (
        list(a.components),
        list(a.dependencies),
        list(a.owners),
        list(a.ownership),
    )
    for k in range(draw(st.integers(min_value=0, max_value=2))):
        owners.append(Owner(f"new-t{k}", f"new-team-{k}", OwnerKind.TEAM, (_drawn_evidence(draw, a.taken_at, 30),)))
    for i in draw(st.lists(index, max_size=2)):
        if len(owners) > 1:
            gone = owners.pop(i % len(owners))
            heir = draw(st.sampled_from(owners)).id
            ownership = [OwnershipAssignment(x.component, heir) if x.owner == gone.id else x for x in ownership]
    owner_ids = [o.id for o in owners]
    for k in range(draw(st.integers(min_value=0, max_value=2))):
        status = draw(st.sampled_from(ComponentStatus))
        components.append(Component(f"new-{k}", f"new-{k}", ComponentKind.LIBRARY, status))
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
    for i in draw(st.sets(st.integers(min_value=0, max_value=len(owners) - 1), max_size=4)):
        o = owners[i]
        owners[i] = Owner(o.id, o.name, o.kind, o.location_evidence + (_drawn_evidence(draw, a.taken_at, 30),))
    for i in draw(st.sets(st.integers(min_value=0, max_value=len(owners) - 1), max_size=2)):
        o = owners[i]
        replaced = [_drawn_evidence(draw, a.taken_at, 2) for _ in range(draw(st.integers(min_value=0, max_value=3)))]
        owners[i] = Owner(o.id, o.name, o.kind, tuple(replaced))
    for i in draw(st.sets(st.integers(min_value=0, max_value=len(owners) - 1), max_size=2)):
        o = owners[i]
        name, kind = draw(st.sampled_from([o.name, "renamed"])), draw(st.sampled_from(OwnerKind))
        owners[i] = Owner(o.id, name, kind, o.location_evidence)
    b = ArchitectureSnapshot(
        f"{a.id}-next",
        a.taken_at + timedelta(days=31),
        *(tuple(draw(st.permutations(records))) for records in (components, dependencies, owners, ownership)),
    )
    cascade = tuple(draw(st.permutations(DEFAULT_CASCADE)))
    if draw(st.booleans()):
        threshold = draw(st.floats(min_value=0.5, max_value=1.0, exclude_min=True))
        cascade = tuple(Resolver(r.name, threshold) if r.name == "member_majority" else r for r in cascade)
    policy = ScopePolicy(frozenset(draw(st.sets(st.sampled_from(ComponentStatus), min_size=1))), draw(st.booleans()))
    return a, b, cascade, policy


def _delta_or_conflict(diff, *args):
    try:
        return diff(*args)
    except ConflictingEvidenceError as exc:
        return f"ConflictingEvidenceError: {exc}"


@settings(max_examples=200, deadline=None)
@given(churned_pairs())
def test_diff_equals_the_reference_diff_both_ways(pair):
    a, b, cascade, policy = pair
    for x, y in ((a, b), (b, a)):
        assert _delta_or_conflict(diff_snapshots, x, y, cascade, policy) == _delta_or_conflict(
            reference_diff_snapshots, x, y, cascade, policy
        )


@st.composite
def snapshots_with_dated_evidence(draw):
    """A generated snapshot whose owners hold added records of any source, dated from two days before its
    `taken_at` to two days after, and the cascade to resolve it under: two records of one resolver on one day,
    before, on or after that date, may conflict."""
    g = draw(snapshots())
    owners = list(g.owners)
    for i in draw(st.sets(st.integers(min_value=0, max_value=len(owners) - 1), min_size=1, max_size=4)):
        o = owners[i]
        added = [_drawn_evidence(draw, g.taken_at - timedelta(days=3), 5) for _ in range(draw(st.integers(1, 3)))]
        owners[i] = Owner(o.id, o.name, o.kind, o.location_evidence + tuple(added))
    return dataclasses.replace(g, owners=tuple(owners)), tuple(draw(st.permutations(DEFAULT_CASCADE)))


def _without_later_records(snapshot):
    """The snapshot with every evidence record dated after its `taken_at` deleted, record by record."""
    owners = tuple(
        Owner(o.id, o.name, o.kind, tuple(ev for ev in o.location_evidence if not ev.recorded_at > snapshot.taken_at))
        for o in snapshot.owners
    )
    return dataclasses.replace(snapshot, owners=owners)


@settings(max_examples=200, deadline=None)
@given(snapshots_with_dated_evidence())
def test_resolving_a_snapshot_equals_resolving_it_without_its_later_records(case):
    snapshot, cascade = case
    deleted = _without_later_records(snapshot)
    run = _delta_or_conflict(run_pipeline, snapshot, cascade, ScopePolicy())
    assert run == _delta_or_conflict(run_pipeline, deleted, cascade, ScopePolicy())
    expected = _delta_or_conflict(reference_resolve_jurisdictions, list(snapshot.owners), cascade, snapshot.taken_at)
    assert (run if isinstance(run, str) else list(run.assignments)) == expected
    report = validate_snapshot(snapshot)
    assert report == validate_snapshot(deleted)
    assert not (report.ok and isinstance(run, str))


@st.composite
def mixed_type_snapshots(draw):
    """A structurally sound library-built snapshot (components c0.., owners t0.., one owner each, distinct edges,
    records in the serializer's order) whose fields hold the types the parser gives or, one draw in `rarity`, another:
    an int id, a float, bool, numeric-string or None multiplicity, an int below 1, a plain-string kind or status, a
    datetime `taken_at`. An id keeps its value wherever it is referenced. A rare odd field is the case that tests
    whether the constructors refuse every one of them: a snapshot they build must hold none. The strategy gives the
    builder of the snapshot, since building it may be refused."""
    rarity = draw(st.sampled_from([0, 4, 12, 40]))

    def pick(valid, other):
        return draw(other if rarity and draw(st.integers(min_value=1, max_value=rarity)) == 1 else valid)

    n, m = draw(st.integers(min_value=1, max_value=5)), draw(st.integers(min_value=1, max_value=3))
    cids = [pick(st.just(f"c{i}"), st.just(i)) for i in range(n)]
    oids = [pick(st.just(f"t{j}"), st.just(j)) for j in range(m)]
    components = tuple(
        Component(
            cid,
            pick(texts, st.integers()),
            pick(st.sampled_from(ComponentKind), st.sampled_from([k.value for k in ComponentKind])),
            pick(st.sampled_from(ComponentStatus), st.sampled_from([k.value for k in ComponentStatus])),
        )
        for cid in cids
    )
    pairs = draw(st.lists(st.tuples(*[st.integers(min_value=0, max_value=n - 1)] * 2), unique=True, max_size=6))
    odd_multiplicities = st.floats() | st.booleans() | st.integers(min_value=1, max_value=9).map(str) | st.none()
    dependencies = tuple(
        DependencyEdge(
            cids[i],
            cids[j],
            pick(st.sampled_from(DependencyKind), st.sampled_from([k.value for k in DependencyKind])),
            pick(st.integers(min_value=1, max_value=5), odd_multiplicities | st.integers(max_value=0)),
        )
        for i, j in sorted(pairs)
        if i != j
    )
    explicit = st.tuples(
        st.just(EvidenceSource.EXPLICIT_ASSIGNMENT),
        st.sampled_from(["SWE", "DEU", "GBR"]),
        st.sampled_from(TWO_DAYS),
    )
    owners = [
        (
            oid,
            pick(texts, st.none()),
            pick(st.sampled_from(OwnerKind), st.sampled_from([k.value for k in OwnerKind])),
            draw(st.lists(explicit, max_size=1)),
        )
        for oid in oids
    ]
    ownership = tuple(OwnershipAssignment(cid, draw(st.sampled_from(oids))) for cid in cids)
    snapshot_id, taken_at = pick(texts, st.integers()), pick(st.dates(), st.datetimes())

    def build():
        built = tuple(Owner(oid, name, kind, tuple(LocationEvidence(*ev) for ev in records)) for oid, name, kind, records in owners)
        return ArchitectureSnapshot(snapshot_id, taken_at, components, dependencies, built, ownership)

    return build


@settings(max_examples=300, deadline=None)
@given(mixed_type_snapshots())
def test_a_snapshot_the_constructors_build_and_validate_accepts_runs_through_every_stage(build):
    try:
        snapshot = build()
    except InvalidFieldError:
        return
    if not validate_snapshot(snapshot).ok:
        return
    run = run_pipeline(snapshot, DEFAULT_CASCADE, ScopePolicy())
    assert {int}.issuperset(type(count) for _, count in run.matrix.cells)
    registers = build_registers(run)
    emit_registers(registers)
    emit_report(run, registers, {"cascade": "default"})
    emit_graph(run.matrix)
    emit_table(run.matrix)
    assert parse_bundle(serialize_bundle(snapshot)) == snapshot
    assert diff_snapshots(snapshot, snapshot).empty


def _built(build):
    """The snapshot that `build` builds, or None when a constructor refuses it."""
    try:
        return build()
    except InvalidFieldError:
        return None


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        snapshots(),
        defective_snapshots(),
        snapshots_with_one_wrong_field().map(lambda case: _built(case[0])),
        mixed_type_snapshots().map(_built),
        churned_pairs().flatmap(lambda pair: st.sampled_from(pair[:2])),
    )
)
def test_every_snapshot_the_constructors_accept_gets_the_verdict_of_its_parsed_twin(snapshot):
    # Every snapshot the constructors build can be written and read back, to an equal snapshot with equal findings.
    if snapshot is None:
        return
    parsed = parse_bundle(serialize_bundle(snapshot))
    assert parsed == ArchitectureSnapshot(
        snapshot.id,
        snapshot.taken_at,
        tuple(sorted(snapshot.components, key=lambda c: c.id)),
        tuple(sorted(snapshot.dependencies, key=lambda e: (e.user, e.owner_component, e.kind))),
        tuple(sorted(snapshot.owners, key=lambda o: o.id)),
        tuple(sorted(snapshot.ownership, key=lambda a: (a.component, a.owner))),
    )
    assert validate_snapshot(parsed) == validate_snapshot(snapshot)


SURROGATE = re.compile("[\ud800-\udfff]")
# Text that holds an unpaired surrogate among other characters.
surrogate_texts = st.builds(
    lambda head, surrogate, tail: head + surrogate + tail,
    texts,
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
    texts,
)


@st.composite
def snapshots_with_surrogates(draw):
    """A generated snapshot whose snapshot id, or up to three drawn ids, names, edge endpoints or assignments, hold
    an unpaired surrogate; a changed id is changed wherever it is referenced only when the draw says so. The strategy
    gives the snapshot's builder and the field that its constructors refuse first."""
    snapshot = draw(snapshots())
    components, dependencies, owners, ownership = (
        list(snapshot.components),
        list(snapshot.dependencies),
        list(snapshot.owners),
        list(snapshot.ownership),
    )
    snapshot_id = draw(st.sampled_from([snapshot.id, draw(surrogate_texts)]))
    records = {"component": components, "owner": owners, "dependency": dependencies, "assignment": ownership}
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        field = draw(st.sampled_from([field for field, listed in records.items() if listed]))
        i = draw(st.integers(min_value=0, max_value=len(records[field]) - 1))
        record = records[field][i]
        name = draw(st.sampled_from([f.name for f in dataclasses.fields(record) if f.type == "str"]))
        old, new = getattr(record, name), draw(surrogate_texts)
        records[field][i] = dataclasses.replace(record, **{name: new})
        if name == "id" and draw(st.booleans()):
            ownership[:] = [
                OwnershipAssignment(*(new if x == old else x for x in (a.component, a.owner))) for a in ownership
            ]
            dependencies[:] = [
                DependencyEdge(*(new if x == old else x for x in (e.user, e.owner_component)), e.kind, e.multiplicity)
                for e in dependencies
            ]
    # The fields in the order the snapshot's constructor tests them, each with its column of strings.
    tested = [
        ("id", [snapshot_id]),
        *((f, [getattr(c, f) for c in components]) for f in ("id", "name")),
        *((f, [getattr(e, f) for e in dependencies]) for f in ("user", "owner_component")),
        ("owners", [o.id + o.name for o in owners]),
        *((f, [getattr(a, f) for a in ownership]) for f in ("component", "owner")),
    ]
    refused = next(field for field, column in tested if any(map(SURROGATE.search, column)))
    return (
        lambda: ArchitectureSnapshot(
            snapshot_id, snapshot.taken_at, tuple(components), tuple(dependencies), tuple(owners), tuple(ownership)
        ),
        refused,
    )


@settings(max_examples=200, deadline=None)
@given(snapshots_with_surrogates())
def test_the_constructors_refuse_unencodable_strings_naming_the_field(case):
    build, refused = case
    with pytest.raises(UnencodableStringError) as exc:
        build()
    assert exc.value.field == refused
    assert re.search(rf" has {refused}(\[\d+\])? holding an unpaired surrogate, which UTF-8 cannot encode$", str(exc.value))
