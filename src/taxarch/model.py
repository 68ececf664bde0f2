"""Domain model for jurisdiction-aware architecture snapshots.

A snapshot captures the dated state of a distributed software system:
its components, the use-dependencies between them, the owning teams,
and the component-to-owner assignment. All types are immutable values;
validation is a pure function producing a report, never an exception.
"""

from __future__ import annotations

import operator
import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, fields
from datetime import date
from enum import Enum
from itertools import chain, compress, islice, repeat

UNKNOWN = "UNKNOWN"

_ALPHA3_RE = re.compile(r"[A-Z]{3}")


def is_valid_jurisdiction(code: str) -> bool:
    """ISO 3166-1 alpha-3 code, or the distinguished UNKNOWN value."""
    return code == UNKNOWN or bool(_ALPHA3_RE.fullmatch(code))


class ComponentKind(str, Enum):
    MICROSERVICE = "microservice"
    LIBRARY = "library"
    MODULE = "module"
    APPLICATION = "application"
    OTHER = "other"


class ComponentStatus(str, Enum):
    PRODUCTION = "production"
    EXPERIMENTAL = "experimental"
    DEPRECATED = "deprecated"


class DependencyKind(str, Enum):
    USE = "use"
    OTHER = "other"


class OwnerKind(str, Enum):
    TEAM = "team"
    INDIVIDUAL = "individual"
    UNIT = "unit"


class EvidenceSource(str, Enum):
    EXPLICIT_ASSIGNMENT = "explicit_assignment"
    MEMBER_LOCATIONS = "member_locations"
    MANAGER_LOCATION = "manager_location"
    QUESTIONNAIRE = "questionnaire"


# Resolver name -> the evidence sources it reads, in default cascade order.
# Questionnaire answers are direct statements by the owner and count as
# explicit assignments.
RESOLVER_SOURCES = {
    "explicit_assignment": (EvidenceSource.EXPLICIT_ASSIGNMENT, EvidenceSource.QUESTIONNAIRE),
    "member_majority": (EvidenceSource.MEMBER_LOCATIONS,),
    "manager_location": (EvidenceSource.MANAGER_LOCATION,),
}


class ConflictingEvidenceError(ValueError):
    """Same-dated records name different codes; picking one would hide the conflict from an audit trail."""


# Evidence source -> the name of the resolver that reads it.
_RESOLVER_OF = {source: name for name, sources in RESOLVER_SOURCES.items() for source in sources}


def latest_evidence(owner: Owner) -> dict[str, list[LocationEvidence]]:
    """Each resolver's records of `owner` dated its latest day, in record order, keyed by RESOLVER_SOURCES name.

    The one selection of evidence, made in one pass. `resolve_jurisdictions` reads it for every owner, and
    `validate_snapshot` only when the evidence columns show an owner id with a same-dated pair of one resolver.
    Both read a snapshot's `owners_as_of` view (the resolver through `run_pipeline`), so no later record is selected.
    A resolver with no records has no key. It reads records of the parser's types, as `validate_snapshot` holds
    them: each `source` an EvidenceSource, which some resolver reads, and each `recorded_at` a date.
    """
    latest: dict[str, list[LocationEvidence]] = {}
    for ev in owner.location_evidence:
        name = _RESOLVER_OF[ev.source]
        records = latest.get(name)
        if records is None or ev.recorded_at > records[0].recorded_at:
            latest[name] = [ev]
        elif ev.recorded_at == records[0].recorded_at:
            records.append(ev)
    return latest


def conflict(owner: Owner, records: list[LocationEvidence]) -> str | None:
    """The one conflict rule: the message when single codes among one resolver's latest records differ, else None.

    `validate_snapshot` reports it as a finding; a resolver the cascade reaches raises ConflictingEvidenceError.
    It reads records of the parser's types, as `latest_evidence` selects them.
    """
    if len(records) < 2 or len({ev.payload for ev in records if isinstance(ev.payload, str)}) < 2:
        return None
    first = records[0]
    return f"owner {owner.id!r}: conflicting {first.source.value} evidence dated {first.recorded_at.isoformat()}"


def slot_setters(cls: type) -> tuple:
    """The setters of a slotted record class's slots, in field order.

    Each is a slot's member descriptor's `__set__`, which stores into a frozen instance as `object.__setattr__`
    does, at a fraction of its cost. `record`'s generated constructors, and the hand-written one of
    `LocationEvidence`, bind them once after their class.
    """
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


def record(cls: type) -> type:
    """Declare a record: the frozen slotted dataclass of `cls`, with an `__init__` generated from its fields.

    The constructor takes the parameters and defaults that the dataclass constructor would, and stores each argument
    with its slot's setter, in field order. So each field is written once, as its annotation; this is the package's
    one code generator.
    """
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    names = cls.__slots__
    namespace = {f"_set_{name}": setter for name, setter in zip(names, slot_setters(cls))}
    namespace.update({f"_default_{f.name}": f.default for f in fields(cls) if f.default is not MISSING})
    params = "".join(f", {name}=_default_{name}" if f"_default_{name}" in namespace else f", {name}" for name in names)
    body = "".join(f"\n    _set_{name}(self, {name})" for name in names)
    exec(f"def __init__(self{params}):{body}", namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


@record
class Component:
    """A unit of the system that an owner owns and other components use: a service, library, module or application."""

    id: str
    name: str
    kind: ComponentKind
    status: ComponentStatus


@record
class DependencyEdge:
    """One row of a snapshot's `EdgeTable`."""

    user: str
    owner_component: str
    kind: DependencyKind = DependencyKind.USE
    multiplicity: int = 1


_EDGE_ROW = operator.attrgetter(*DependencyEdge.__slots__)


@dataclass(frozen=True, slots=True, eq=False)
class EdgeTable(Sequence):
    """A snapshot's dependency edges as four parallel columns; row i of each is edge i.

    As a sequence it reads as its `DependencyEdge` rows: it iterates, indexes
    and compares to a tuple as the tuple of those rows would, and a slice is a
    table. The stages that walk every edge read the columns, so a parse of
    100k edges builds no edge object.

    A table whose (user, used) pairs strictly increase from row to row, as
    the serializer writes every bundle, holds no pair twice and so no edge
    twice; `ordered()` proves that in one pass over neighbouring rows.
    """

    users: tuple = ()
    used: tuple = ()
    kinds: tuple = ()
    multiplicities: tuple = ()

    def __post_init__(self):
        columns = tuple(map(tuple, _COLUMNS(self)))
        if len(set(map(len, columns))) > 1:
            raise ValueError(f"edge table columns differ in length: {list(map(len, columns))}")
        for name, column in zip(self.__slots__, columns):
            object.__setattr__(self, name, column)

    @classmethod
    def from_rows(cls, rows) -> EdgeTable:
        """The table of (user, owner_component, kind, multiplicity) rows."""
        columns = tuple(zip(*rows))
        return cls(*columns) if columns else cls()

    def ordered(self) -> bool:
        """Whether each row's (user, used) pair is greater than the pair of the row before.

        One pass over neighbouring rows, read through `islice` views: no column is copied and no triple is built.
        The values are compared as given, so the columns must hold values that order, as strings do.
        """
        users, used = self.users, self.used
        return all(map(operator.lt, zip(users, used), zip(islice(users, 1, None), islice(used, 1, None))))

    def select(self, keep: list) -> EdgeTable:
        """The table of the rows whose entry in `keep` is true."""
        return EdgeTable(*(tuple(compress(column, keep)) for column in _COLUMNS(self)))

    def __len__(self) -> int:
        return len(self.users)

    def __iter__(self):
        return map(DependencyEdge, *_COLUMNS(self))

    def __getitem__(self, index):
        picked = (column[index] for column in _COLUMNS(self))
        return EdgeTable(*picked) if isinstance(index, slice) else DependencyEdge(*picked)

    def __eq__(self, other) -> bool:
        if isinstance(other, EdgeTable):
            return _COLUMNS(self) == _COLUMNS(other)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))  # as the tuple of its rows, which it equals

    def __add__(self, other) -> EdgeTable:
        if not isinstance(other, (EdgeTable, tuple)):
            return NotImplemented
        return EdgeTable.from_rows(map(_EDGE_ROW, (*self, *other)))


_COLUMNS = operator.attrgetter(*EdgeTable.__slots__)


@dataclass(frozen=True, slots=True, init=False)
class LocationEvidence:
    """One piece of evidence for an owner's jurisdiction.

    For member_locations the payload is a multiset of jurisdiction codes; for every other source it is a single
    jurisdiction code. The constructor below is the one place that stores a payload.
    """

    source: EvidenceSource
    payload: str | tuple[str, ...]
    recorded_at: date

    def __init__(self, source: EvidenceSource, payload: str | tuple[str, ...], recorded_at: date):
        """Store the record; a member_locations list or tuple is stored as a tuple, sorted when it holds only strings.

        One holding anything else keeps its order, and any other payload, a plain-string `source`'s too, is stored
        as given, for `validate_snapshot` to report.
        """
        if source is _MEMBER_LOCATIONS and isinstance(payload, (list, tuple)):
            payload = tuple(sorted(payload) if {str}.issuperset(map(type, payload)) else payload)
        _set_source(self, source)
        _set_payload(self, payload)
        _set_recorded_at(self, recorded_at)


_MEMBER_LOCATIONS = EvidenceSource.MEMBER_LOCATIONS  # a global: the enum class attribute costs ten times as much
_set_source, _set_payload, _set_recorded_at = slot_setters(LocationEvidence)


@record
class Owner:
    """A team, individual or unit that owns components, with the dated evidence of where it sits."""

    id: str
    name: str
    kind: OwnerKind
    location_evidence: tuple[LocationEvidence, ...] = ()


@record
class OwnershipAssignment:
    """One row of the component -> owner assignment."""

    component: str
    owner: str


@dataclass(frozen=True, slots=True)
class ArchitectureSnapshot:
    """The dated state of a system: its components, dependency edges, owners and ownership."""

    id: str
    taken_at: date
    components: tuple[Component, ...]
    dependencies: EdgeTable  # any sequence of DependencyEdge is stored as its table
    owners: tuple[Owner, ...]
    ownership: tuple[OwnershipAssignment, ...]

    def __post_init__(self):
        if type(self.dependencies) is not EdgeTable:
            object.__setattr__(self, "dependencies", EdgeTable.from_rows(map(_EDGE_ROW, self.dependencies)))

    def owner_of(self) -> dict[str, str]:
        """Component id -> owner id (first assignment wins on duplicates)."""
        mapping: dict[str, str] = {}
        for a in self.ownership:
            mapping.setdefault(a.component, a.owner)
        return mapping


_RECORDED_AT, _LOCATION_EVIDENCE = operator.attrgetter("recorded_at"), operator.attrgetter("location_evidence")


def owners_as_of(snapshot: ArchitectureSnapshot) -> Sequence[Owner]:
    """The snapshot's owners as of its `taken_at`: each without its evidence records dated after that day.

    One evidence history may serve many snapshots, so a later record is valid input that decides no earlier one.
    `run_pipeline` resolves this view and `validate_snapshot` judges conflicts in it. An owner with no later record
    is itself here; when one pass over every date finds no later record, the view is `snapshot.owners`. It reads
    dates of the parser's type, as `validate_snapshot` holds them.
    """
    owners, taken_at = snapshot.owners, snapshot.taken_at
    if max(map(_RECORDED_AT, chain.from_iterable(map(_LOCATION_EVIDENCE, owners))), default=taken_at) <= taken_at:
        return owners
    return tuple(
        o
        if max(map(_RECORDED_AT, o.location_evidence), default=taken_at) <= taken_at
        else Owner(o.id, o.name, o.kind, tuple(ev for ev in o.location_evidence if ev.recorded_at <= taken_at))
        for o in owners
    )


@dataclass(frozen=True, slots=True, order=True)
class Finding:
    """A violated invariant; every finding fails validation."""

    code: str
    message: str
    offending_ids: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """The outcome of `validate_snapshot`: "ok" with no findings, or "failed" with every finding."""

    status: str  # "ok" | "failed"
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def codes(self) -> list[str]:
        return [f.code for f in self.findings]


def _finding(code: str, message: str, *ids: str) -> Finding:
    return Finding(code, message, tuple(ids))


def validate_snapshot(snapshot: ArchitectureSnapshot) -> ValidationReport:
    """Check the structural invariants of a snapshot.

    Violations become findings; the function never raises, whatever a typed
    field or a record container holds. Findings are sorted so the report is
    independent of collection order.

    Two phases. The first holds the snapshot's `components`, `owners` and
    `ownership` to a tuple or list of exactly their record class, then every
    owner's `location_evidence` at once, as one column of containers, and
    walks the owners only when that test fails. It then holds each typed
    field, an evidence record's `source` and `recorded_at` included, to the
    exact type the parser gives it; any `field-type` finding ends
    validation, reported alone. The second, on a snapshot of the parser's
    types only, judges the id, evidence, dependency and ownership
    invariants. Each block is a set-algebra test over whole columns and,
    only when that test fails, a listing of its offenders, one finding
    each. The duplicate-edge block asks `EdgeTable.ordered()`: rows whose
    (user, used) pairs strictly increase, as every serialized bundle lists
    them, repeat no edge, and only a table in another order has its triples
    counted. Owners' evidence selections are judged, with the
    `latest_evidence` and `conflict` that the resolver cascade uses, only
    when one owner id holds two records of one resolver on one date, which
    a conflict needs. They are judged as of `taken_at`, in the
    `owners_as_of` view that `run_pipeline` resolves: a record dated later
    is held to its shape and codes, but takes no part in a conflict. A
    clean snapshot never formats a message.
    """
    components, owners, ownership = snapshot.components, snapshot.owners, snapshot.ownership
    findings = [
        *_container_type("snapshot", snapshot.id, "components", components, Component),
        *_container_type("snapshot", snapshot.id, "owners", owners, Owner),
        *_container_type("snapshot", snapshot.id, "ownership", ownership, OwnershipAssignment),
    ]
    if not findings:  # each owner is an Owner: its evidence containers are one column, walked only when it fails
        containers = [o.location_evidence for o in owners]
        if not (
            {tuple, list}.issuperset(map(type, containers))
            and {LocationEvidence}.issuperset(map(type, chain.from_iterable(containers)))
        ):
            findings = [
                finding
                for o, container in zip(owners, containers)
                for finding in _container_type("owner", o.id, "location_evidence", container, LocationEvidence)
            ]
    if findings:
        findings.sort()
        return ValidationReport("failed", tuple(findings))
    edges = snapshot.dependencies
    users, used, kinds = edges.users, edges.used, edges.kinds
    cids, oids = [c.id for c in components], [o.id for o in owners]
    assigned, assignees = [a.component for a in ownership], [a.owner for a in ownership]
    # Each evidence record is named by its owner's id and its index among that owner's records.
    records = list(chain.from_iterable(containers))
    counts = list(map(len, containers))
    holders = list(chain.from_iterable(map(repeat, oids, counts)))
    places = list(chain.from_iterable(map(range, counts)))
    findings = _field_types(
        "snapshot", ([snapshot.id],), ("id", [snapshot.id], str), ("taken_at", [snapshot.taken_at], date)
    )
    findings += _field_types(
        "component",
        (cids,),
        ("id", cids, str),
        ("name", [c.name for c in components], str),
        ("kind", [c.kind for c in components], ComponentKind),
        ("status", [c.status for c in components], ComponentStatus),
    )
    findings += _field_types(
        "owner",
        (oids,),
        ("id", oids, str),
        ("name", [o.name for o in owners], str),
        ("kind", [o.kind for o in owners], OwnerKind),
    )
    sources, dates = [ev.source for ev in records], [ev.recorded_at for ev in records]
    findings += _field_types(
        "evidence", (holders, places), ("source", sources, EvidenceSource), ("recorded_at", dates, date)
    )
    findings += _field_types(
        "dependency",
        (users, used),
        ("user", users, str),
        ("owner_component", used, str),
        ("kind", kinds, DependencyKind),
    )
    findings += _field_types(
        "assignment", (assigned, assignees), ("component", assigned, str), ("owner", assignees, str)
    )
    if findings:
        findings.sort()
        return ValidationReport("failed", tuple(findings))
    component_ids, owner_ids = set(cids), set(oids)

    for what, nodes, ids in (("component", components, component_ids), ("owner", owners, owner_ids)):
        if not all(ids):
            findings += [_finding("empty-id", f"{what} with empty id", node.name) for node in nodes if not node.id]
        if len(ids) != len(nodes):
            findings += [
                _finding("duplicate-id", f"duplicate {what} id {i!r}", i)
                for i, count in Counter(node.id for node in nodes if node.id).items()
                for _ in range(count - 1)
            ]

    findings += _evidence_findings(snapshot, holders, sources, dates, [ev.payload for ev in records])
    findings += _dependency_findings(edges, component_ids)
    findings += _ownership_findings(assigned, assignees, component_ids, owner_ids)
    findings.sort()
    return ValidationReport("failed" if findings else "ok", tuple(findings))


def _container_type(what: str, key, field: str, container, record: type) -> list[Finding]:
    """A field-type finding naming the first fault when `container` is not a tuple or list of exactly `record`s."""
    if type(container) not in (tuple, list):
        found = f"{field} of type {type(container).__name__}, not tuple or list"
    elif {record}.issuperset(map(type, container)):
        return []
    else:
        i = next(i for i, value in enumerate(container) if type(value) is not record)
        found = f"{field}[{i}] of type {type(container[i]).__name__}, not {record.__name__}"
    return [_finding("field-type", f"{what} {key!r} has {found}", str(key))]


def _field_types(what: str, keys: tuple[Sequence, ...], *columns: tuple[str, Sequence, type]) -> list[Finding]:
    """The one field-type rule: each value of a (field, column, type) column has exactly the type a parsed bundle gives.

    Each column is one C-level type test, and only when it fails are its offenders listed. Row i's record is named by
    row i of the `keys` columns; a finding's ids are their str(), so that findings of any id type still sort.
    """
    findings = []
    for field, column, expected in columns:
        if not {expected}.issuperset(map(type, column)):
            findings += [
                _finding(
                    "field-type",
                    f"{what} {'->'.join(map(repr, key))} has {field} of type {type(value).__name__}, "
                    f"not {expected.__name__}",
                    *map(str, key),
                )
                for value, key in zip(column, zip(*keys))
                if type(value) is not expected
            ]
    return findings


def _evidence_findings(
    snapshot: ArchitectureSnapshot,
    holders: Sequence[str],
    sources: list[EvidenceSource],
    dates: list[date],
    payloads: list,
) -> list[Finding]:
    """The evidence invariants over the evidence columns, row i of each being record i, held by owner `holders[i]`.

    Two whole-column tests. The first: member_locations payloads are tuples of strings, any other payload is a
    string, and each distinct code is valid; only when it fails are the records walked to list the offenders. The
    second: no owner id holds two records of one resolver on one date, which a conflict needs; only when it fails
    does each owner with two records or more in `owners_as_of(snapshot)` have its latest records judged by
    `conflict`. So records dated after `taken_at` are judged for their shape and codes, never for a conflict.
    """
    lists = [source is _MEMBER_LOCATIONS for source in sources]
    member_payloads = list(compress(payloads, lists))
    single_codes = list(compress(payloads, map(operator.not_, lists)))
    findings = []
    if not (
        {tuple}.issuperset(map(type, member_payloads))
        and {str}.issuperset(map(type, chain.from_iterable(member_payloads)))
        and {str}.issuperset(map(type, single_codes))
        and all(map(is_valid_jurisdiction, {*chain.from_iterable(member_payloads), *single_codes}))
    ):
        for holder, source, payload in zip(holders, sources, payloads):
            codes = payload if source is _MEMBER_LOCATIONS else (payload,)
            if type(codes) is not tuple or not {str}.issuperset(map(type, codes)):
                message = f"evidence payload shape does not match source {source.value!r}"
                findings.append(_finding("evidence-shape", message, holder))
            else:
                findings += [
                    _finding(
                        "malformed-jurisdiction",
                        f"malformed jurisdiction code {code!r} in evidence of owner {holder!r}",
                        holder,
                    )
                    for code in codes
                    if not is_valid_jurisdiction(code)
                ]
    if len(set(zip(holders, map(_RESOLVER_OF.__getitem__, sources), dates))) != len(holders):
        for o in owners_as_of(snapshot):
            if len(o.location_evidence) > 1:
                for records in latest_evidence(o).values():
                    message = conflict(o, records)
                    if message is not None:
                        findings.append(_finding("conflicting-evidence", message, o.id))
    return findings


def _dangling(column: Sequence[str], known: set[str], message: str) -> list[Finding]:
    """The one dangling-reference rule: a finding worded `message.format(x)` per id x of `column` not in `known`."""
    if known.issuperset(column):
        return []
    return [_finding("dangling-reference", message.format(x), x) for x in column if x not in known]


def _dependency_findings(edges: EdgeTable, component_ids: set[str]) -> list[Finding]:
    """The dependency invariants over the edge columns, row i of each being edge i; every endpoint is a string."""
    users, used, kinds, multiplicities = _COLUMNS(edges)
    findings = []
    if any(map(operator.eq, users, used)):
        findings += [
            _finding("self-dependency", f"component {u!r} depends on itself", u) for u, v in zip(users, used) if u == v
        ]
    for endpoints in (users, used):
        findings += _dangling(endpoints, component_ids, "dependency endpoint {!r} is not a component")
    # A multiplicity is an int of at least 1, as the parser gives it: a bool, float or string never counts uses.
    if not {int}.issuperset(map(type, multiplicities)) or min(multiplicities, default=1) < 1:
        findings += [
            _finding("invalid-multiplicity", f"dependency {u!r}->{v!r} has multiplicity {m!r}", u, v)
            for u, v, m in zip(users, used, multiplicities)
            if type(m) is not int or m < 1
        ]
    # Strictly increasing (user, used) pairs, as every serialized bundle lists them, repeat no edge.
    if not edges.ordered():
        findings += [
            _finding("duplicate-edge", f"duplicate dependency {u!r}->{v!r}; use multiplicity", u, v)
            for (u, v, kind), count in Counter(zip(users, used, kinds)).items()
            for _ in range(count - 1)
        ]
    return findings


def _ownership_findings(
    components: list[str], owners: list[str], component_ids: set[str], owner_ids: set[str]
) -> list[Finding]:
    """The ownership invariants over the assignment columns, row i of each being assignment i."""
    findings = _dangling(components, component_ids, "ownership references unknown component {!r}")
    findings += _dangling(owners, owner_ids, "ownership references unknown owner {!r}")
    findings += [
        _finding("missing-owner", f"component {c!r} has no owner", c) for c in component_ids.difference(components)
    ]
    if len(set(components)) != len(components):
        assignments = Counter(zip(components, owners))
        findings += [
            _finding("duplicate-assignment", f"duplicate assignment of component {c!r} to owner {o!r}", c, o)
            for (c, o), count in assignments.items()
            for _ in range(count - 1)
        ]
        owners_of: dict[str, list[str]] = {}
        for c, o in assignments:
            owners_of.setdefault(c, []).append(o)
        findings += [
            _finding("multiple-owners", f"component {c!r} has {len(assigned)} owners", c, *sorted(assigned))
            for c, assigned in owners_of.items()
            if len(assigned) > 1 and c in component_ids
        ]
    return findings
