"""Domain model for jurisdiction-aware architecture snapshots.

A snapshot captures the dated state of a distributed software system:
its components, the use-dependencies between them, the owning teams,
and the component-to-owner assignment. All types are immutable values,
frozen slotted dataclasses; only `LocationEvidence` writes its own
constructor, which holds the payload rule. Validation is a pure
function producing a report, never an exception.
"""

from __future__ import annotations

import operator
import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import date
from enum import Enum
from itertools import chain, compress, islice, repeat

UNKNOWN = "UNKNOWN"

_ALPHA3_RE = re.compile(r"[A-Z]{3}")
# A UTF-16 surrogate: a str may hold one unpaired, and UTF-8 cannot encode it. `ingest` reads it from here.
_SURROGATE = re.compile(r"[\ud800-\udfff]")


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


@dataclass(frozen=True, slots=True)
class Component:
    """A unit of the system that an owner owns and other components use: a service, library, module or application."""

    id: str
    name: str
    kind: ComponentKind
    status: ComponentStatus


@dataclass(frozen=True, slots=True)
class DependencyEdge:
    """One row of a snapshot's `EdgeTable`."""

    user: str
    owner_component: str
    kind: DependencyKind = DependencyKind.USE
    multiplicity: int = 1


@dataclass(frozen=True, slots=True)
class OwnershipAssignment:
    """One row of the component -> owner assignment."""

    component: str
    owner: str


class Table(Sequence):
    """Parallel columns whose row i is record i: the one table mechanism of the snapshot's large record lists.

    As a sequence a table reads as the tuple of its rows, each an instance of
    the class's `row` record: it iterates, indexes, compares to a tuple and
    hashes as that tuple would, a slice is a table, and `+` appends rows. The
    stages that walk every row read the columns, so a parse builds no row.
    A table's columns may hold anything; `validate_snapshot` tests them
    unless the parser proved the snapshot that holds the table.
    """

    __slots__ = ()

    def __post_init__(self):
        columns = tuple(map(tuple, self._columns(self)))
        if len(set(map(len, columns))) > 1:
            raise ValueError(f"{type(self).__name__} columns differ in length: {list(map(len, columns))}")
        for name, column in zip(self.__slots__, columns):
            object.__setattr__(self, name, column)

    @classmethod
    def from_rows(cls, rows) -> Table:
        """The table of rows that each hold one value per column, in column order."""
        columns = tuple(zip(*rows))
        return cls(*columns) if columns else cls()

    @classmethod
    def of(cls, records) -> Table:
        """The table of `records`, each an instance of `cls.row`."""
        return cls.from_rows(map(cls._row_values, records))

    def select(self, keep: list) -> Table:
        """The table of the rows whose entry in `keep` is true."""
        return type(self)(*(tuple(compress(column, keep)) for column in self._columns(self)))

    def __len__(self) -> int:
        return len(self._columns(self)[0])

    def __iter__(self):
        return iter(tuple(map(self.row, *self._columns(self))))  # the iterator of the tuple of its rows

    def __getitem__(self, index):
        picked = (column[index] for column in self._columns(self))
        return type(self)(*picked) if isinstance(index, slice) else self.row(*picked)

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self._columns(self) == other._columns(other)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))  # as the tuple of its rows, which it equals

    def __add__(self, other) -> Table:
        if not isinstance(other, (type(self), tuple)):
            return NotImplemented
        return type(self).of((*self, *other))


@dataclass(frozen=True, slots=True, eq=False)
class ComponentTable(Table):
    """A snapshot's components as four parallel columns; row i of each is component i, read as a `Component`."""

    row = Component

    ids: tuple = ()
    names: tuple = ()
    kinds: tuple = ()
    statuses: tuple = ()


@dataclass(frozen=True, slots=True, eq=False)
class EdgeTable(Table):
    """A snapshot's dependency edges as four parallel columns; row i of each is edge i, read as a `DependencyEdge`.

    A table whose (user, used) pairs strictly increase from row to row, as
    the serializer writes every bundle, holds no pair twice and so no edge
    twice; `ordered()` proves that in one pass over neighbouring rows.
    """

    row = DependencyEdge

    users: tuple = ()
    used: tuple = ()
    kinds: tuple = ()
    multiplicities: tuple = ()

    def ordered(self) -> bool:
        """Whether each row's (user, used) pair is greater than the pair of the row before.

        One pass over neighbouring rows, read through `islice` views: no column is copied and no triple is built.
        The values are compared as given, so the columns must hold values that order, as strings do.
        """
        users, used = self.users, self.used
        return all(map(operator.lt, zip(users, used), zip(islice(users, 1, None), islice(used, 1, None))))


@dataclass(frozen=True, slots=True, eq=False)
class OwnershipTable(Table):
    """A snapshot's component -> owner assignment as two parallel columns; row i is an `OwnershipAssignment`."""

    row = OwnershipAssignment

    components: tuple = ()
    owners: tuple = ()


for _table in (ComponentTable, EdgeTable, OwnershipTable):
    _table._columns = operator.attrgetter(*_table.__slots__)
    _table._row_values = operator.attrgetter(*_table.row.__slots__)
del _table


def as_table(records, table: type[Table]):
    """`records` as a `table` when they are a tuple or list of exactly its row class; anything else as given."""
    if type(records) in (tuple, list) and {table.row}.issuperset(map(type, records)):
        return table.of(records)
    return records


@dataclass(frozen=True, slots=True, init=False)
class LocationEvidence:
    """One piece of evidence for an owner's jurisdiction.

    For member_locations the payload is a multiset of jurisdiction codes; for every other source it is a single
    jurisdiction code. The constructor below, the package's one hand-written constructor, is the one place that
    stores a payload.
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
# Each slot's setter stores into the frozen record as `object.__setattr__` does, at a fraction of its cost.
_set_source = LocationEvidence.source.__set__
_set_payload = LocationEvidence.payload.__set__
_set_recorded_at = LocationEvidence.recorded_at.__set__


@dataclass(frozen=True, slots=True)
class Owner:
    """A team, individual or unit that owns components, with the dated evidence of where it sits."""

    id: str
    name: str
    kind: OwnerKind
    location_evidence: tuple[LocationEvidence, ...] = ()


class _Proof:
    """The base of `ArchitectureSnapshot` that holds the parser's proof: a slot, not a field, so no copy keeps it."""

    __slots__ = ("_proved",)


@dataclass(frozen=True, slots=True)
class ArchitectureSnapshot(_Proof):
    """The dated state of a system: its components, dependency edges, owners and ownership.

    `components`, `dependencies` and `ownership` are stored by one rule, `as_table`, for `validate_snapshot` to
    report what is not a table. A snapshot that `parse_bundle` read carries its proof (`proved`) that every field,
    owners and evidence included, holds the parser's type and every string can be encoded; any other, made by the
    constructor, `dataclasses.replace`, `copy` or `pickle`, is unproved, and validate tests its fields in full.
    """

    id: str
    taken_at: date
    components: tuple[Component, ...]
    dependencies: tuple[DependencyEdge, ...]
    owners: tuple[Owner, ...]
    ownership: tuple[OwnershipAssignment, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", as_table(self.components, ComponentTable))
        object.__setattr__(self, "dependencies", as_table(self.dependencies, EdgeTable))
        object.__setattr__(self, "ownership", as_table(self.ownership, OwnershipTable))

    @classmethod
    def _from_parser(cls, *values) -> ArchitectureSnapshot:
        """The proved snapshot of fields that `ingest` read and held to its types: only the parser names it."""
        snapshot = cls(*values)
        object.__setattr__(snapshot, "_proved", True)
        return snapshot

    @property
    def proved(self) -> bool:
        """Whether the parser read this snapshot and so proved its fields' types and strings."""
        return getattr(self, "_proved", False)

    def owner_of(self) -> dict[str, str]:
        """Component id -> owner id (first assignment wins on duplicates), read from the ownership columns."""
        ownership = self.ownership
        components, owners = ownership.components, ownership.owners
        mapping = dict(zip(components, owners))
        if len(mapping) != len(components):  # a component assigned twice: its first assignment wins
            mapping = {}
            for component, owner in zip(components, owners):
                mapping.setdefault(component, owner)
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

    Two phases. The first holds the snapshot to the parser's types: its
    `components`, `dependencies` and `ownership` to their tables, as which
    the snapshot stores a tuple or list of exactly their row class, `owners`
    to a tuple or list of exactly `Owner`s, and every owner's
    `location_evidence` at once, as one column of containers, walking the
    owners only when that test fails; then each typed field, an evidence
    record's `source` and `recorded_at` included, to the exact type the
    parser gives it. Any `field-type` finding ends validation, reported
    alone. A snapshot the parser read carries its proof of these types,
    so it skips this phase whole, and with it the type-and-minimum test
    behind `invalid-multiplicity`, the payload-shape test behind
    `evidence-shape` and the `unencodable-string` search, which the
    parser made as it read. The
    second phase, on a snapshot of the parser's types only, judges the id,
    encoding, evidence, dependency and ownership invariants. Each block is a
    set-algebra test over whole columns and, only when that test fails, a
    listing of its offenders, one finding each. A string holding an unpaired
    surrogate is an `unencodable-string` finding: `serialize_bundle` could
    not write it. The duplicate-edge block asks `EdgeTable.ordered()`: rows
    whose (user, used) pairs strictly increase, as every serialized bundle
    lists them, repeat no edge, and only a table in another order has its
    triples counted. Owners' evidence selections are judged, with the
    `latest_evidence` and `conflict` that the resolver cascade uses, only
    when one owner id holds two records of one resolver on one date, which
    a conflict needs. They are judged as of `taken_at`, in the
    `owners_as_of` view that `run_pipeline` resolves: a record dated later
    is held to its shape and codes, but takes no part in a conflict. A
    clean snapshot never formats a message.
    """
    proved = snapshot.proved
    findings = [] if proved else _container_findings(snapshot)
    if findings:
        findings.sort()
        return ValidationReport("failed", tuple(findings))
    components, owners, ownership = snapshot.components, snapshot.owners, snapshot.ownership
    edges = snapshot.dependencies
    containers = [o.location_evidence for o in owners]
    cids, oids, onames = components.ids, [o.id for o in owners], [o.name for o in owners]
    users, used, assigned, assignees = edges.users, edges.used, ownership.components, ownership.owners
    # Each evidence record is named by its owner's id and its index among that owner's records.
    records = list(chain.from_iterable(containers))
    counts = list(map(len, containers))
    holders = list(chain.from_iterable(map(repeat, oids, counts)))
    sources, dates = [ev.source for ev in records], [ev.recorded_at for ev in records]
    # Each record kind's (field, column, type) columns, its records named by its key columns: none on a proved
    # snapshot, whose fields hold the parser's types and strings that UTF-8 can encode.
    typed = [] if proved else [
        ("snapshot", ([snapshot.id],), ("id", [snapshot.id], str), ("taken_at", [snapshot.taken_at], date)),
        ("owner", (oids,), ("id", oids, str), ("name", onames, str), ("kind", [o.kind for o in owners], OwnerKind)),
        (
            "evidence",
            (holders, list(chain.from_iterable(map(range, counts)))),
            ("source", sources, EvidenceSource),
            ("recorded_at", dates, date),
        ),
        (
            "component",
            (cids,),
            ("id", cids, str),
            ("name", components.names, str),
            ("kind", components.kinds, ComponentKind),
            ("status", components.statuses, ComponentStatus),
        ),
        (
            "dependency",
            (users, used),
            ("user", users, str),
            ("owner_component", used, str),
            ("kind", edges.kinds, DependencyKind),
        ),
        ("assignment", (assigned, assignees), ("component", assigned, str), ("owner", assignees, str)),
    ]
    findings = [finding for what, keys, *columns in typed for finding in _field_types(what, keys, *columns)]
    if findings:
        findings.sort()
        return ValidationReport("failed", tuple(findings))
    component_ids, owner_ids = set(cids), set(oids)

    for what, ids, names, known in (
        ("component", cids, components.names, component_ids),
        ("owner", oids, onames, owner_ids),
    ):
        if not all(known):
            findings += [_finding("empty-id", f"{what} with empty id", name) for i, name in zip(ids, names) if not i]
        if len(known) != len(ids):
            findings += [
                _finding("duplicate-id", f"duplicate {what} id {i!r}", i)
                for i, count in Counter(filter(None, ids)).items()
                for _ in range(count - 1)
            ]

    for what, keys, *columns in typed:
        findings += _unencodable(what, keys, *((field, column) for field, column, kind in columns if kind is str))
    findings += _evidence_findings(snapshot, holders, sources, dates, [ev.payload for ev in records], proved)
    findings += _dependency_findings(edges, component_ids, proved)
    findings += _ownership_findings(assigned, assignees, component_ids, owner_ids)
    findings.sort()
    return ValidationReport("failed" if findings else "ok", tuple(findings))


def _container_findings(snapshot: ArchitectureSnapshot) -> list[Finding]:
    """The field-type findings of the snapshot's record containers; each owner's evidence container is tested only
    when every owner is an `Owner`, as one column, and the owners are walked only when that test fails."""
    key, owners = snapshot.id, snapshot.owners
    findings = [
        *_container_type("snapshot", key, "components", snapshot.components, Component, ComponentTable),
        *_container_type("snapshot", key, "dependencies", snapshot.dependencies, DependencyEdge, EdgeTable),
        *_container_type("snapshot", key, "owners", owners, Owner),
        *_container_type("snapshot", key, "ownership", snapshot.ownership, OwnershipAssignment, OwnershipTable),
    ]
    if findings:
        return findings
    containers = [o.location_evidence for o in owners]
    records = chain.from_iterable(containers)  # read only when every container is a tuple or list
    if {tuple, list}.issuperset(map(type, containers)) and {LocationEvidence}.issuperset(map(type, records)):
        return []
    return [
        finding
        for o, container in zip(owners, containers)
        for finding in _container_type("owner", o.id, "location_evidence", container, LocationEvidence)
    ]


def _container_type(what: str, key, field: str, container, record: type, table: type | None = None) -> list[Finding]:
    """A field-type finding naming the first fault when `container` is neither a `table`, whose rows are `record`s,
    nor a tuple or list of exactly `record`s."""
    if type(container) is table:
        return []
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


def _unencodable(what: str, keys: tuple[Sequence, ...], *columns: tuple[str, Sequence[str]]) -> list[Finding]:
    """The one encoding rule: a finding for each string of a (field, column) column that holds an unpaired surrogate.

    `serialize_bundle` refuses such a string, and the parser never reads one. Each column is one join and one ASCII
    test, and only a column that is not ASCII is searched; only when the search finds a surrogate are its offenders
    listed, each named by row i of the `keys` columns. An evidence code needs no test here: no code that holds a
    surrogate is a valid one.
    """
    findings = []
    for field, column in columns:
        text = "".join(column)
        if not text.isascii() and _SURROGATE.search(text):
            findings += [
                _finding(
                    "unencodable-string",
                    f"{what} {'->'.join(map(repr, key))} has {field} holding an unpaired surrogate, "
                    "which UTF-8 cannot encode",
                    *key,
                )
                for value, key in zip(column, zip(*keys))
                if _SURROGATE.search(value)
            ]
    return findings


def _evidence_findings(
    snapshot: ArchitectureSnapshot,
    holders: Sequence[str],
    sources: list[EvidenceSource],
    dates: list[date],
    payloads: list,
    proved: bool,
) -> list[Finding]:
    """The evidence invariants over the evidence columns, row i of each being record i, held by owner `holders[i]`.

    Two whole-column tests. The first: member_locations payloads are tuples of strings, any other payload is a
    string, and each distinct code is valid; only when it fails are the records walked to list the offenders. A
    proved snapshot's payloads have the shapes the parser read, so only its codes are tested. The
    second: no owner id holds two records of one resolver on one date, which a conflict needs; only when it fails
    does each owner with two records or more in `owners_as_of(snapshot)` have its latest records judged by
    `conflict`. So records dated after `taken_at` are judged for their shape and codes, never for a conflict.
    """
    lists = [source is _MEMBER_LOCATIONS for source in sources]
    member_payloads = list(compress(payloads, lists))
    single_codes = list(compress(payloads, map(operator.not_, lists)))
    findings = []
    if not (
        (
            proved
            or {tuple}.issuperset(map(type, member_payloads))
            and {str}.issuperset(map(type, chain.from_iterable(member_payloads)))
            and {str}.issuperset(map(type, single_codes))
        )
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


def _dependency_findings(edges: EdgeTable, component_ids: set[str], proved: bool) -> list[Finding]:
    """The dependency invariants over the edge columns, row i of each being edge i; every endpoint is a string.

    A proved snapshot's multiplicities, positive ints as the parser read them, are not tested again.
    """
    users, used, kinds, multiplicities = edges._columns(edges)
    findings = []
    if any(map(operator.eq, users, used)):
        findings += [
            _finding("self-dependency", f"component {u!r} depends on itself", u) for u, v in zip(users, used) if u == v
        ]
    for endpoints in (users, used):
        findings += _dangling(endpoints, component_ids, "dependency endpoint {!r} is not a component")
    # A multiplicity is an int of at least 1, as the parser gives it: a bool, float or string never counts uses.
    if not proved and (not {int}.issuperset(map(type, multiplicities)) or min(multiplicities, default=1) < 1):
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
