"""Domain model for jurisdiction-aware architecture snapshots.

A snapshot captures the dated state of a distributed software system:
its components, the use-dependencies between them, the owning teams,
and the component-to-owner assignment. All types are immutable values,
frozen slotted dataclasses whose constructors hold every value to the
type a parsed bundle gives it, and every string to UTF-8, refusing any
other with `InvalidFieldError`. `validate_snapshot` judges the
invariants between values, a pure function producing a report.
"""

from __future__ import annotations

import copy
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
    `validate_snapshot` only when the evidence columns show an owner id with a same-dated pair of one resolver; both
    read a snapshot's `owners_as_of` view. A resolver with no records has no key.
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
    It reads records as `latest_evidence` selects them.
    """
    if len(records) < 2 or len({ev.payload for ev in records if isinstance(ev.payload, str)}) < 2:
        return None
    first = records[0]
    return f"owner {owner.id!r}: conflicting {first.source.value} evidence dated {first.recorded_at.isoformat()}"


class InvalidFieldError(ValueError):
    """A constructor's refusal of a value that no parsed bundle holds: a field of another type than the parser gives
    it, a multiplicity below 1 or a payload of another shape than its source's. The message names the first fault;
    `field` names its record field."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class UnencodableStringError(InvalidFieldError):
    """A constructor's refusal of a string that holds an unpaired surrogate, which UTF-8 cannot encode."""


_UNENCODABLE = "holding an unpaired surrogate, which UTF-8 cannot encode"


def _holds(kind: type, value) -> bool:
    """The type rule for one value: a str field holds a str; any other field exactly its type, as the parser gives it
    (a bool is no int and a datetime no date), and an int is at least 1, as a multiplicity is."""
    return isinstance(value, str) if kind is str else type(value) is kind and (kind is not int or value >= 1)


def _refusal(subject: str, field: str, kind: type, value) -> InvalidFieldError:
    """The InvalidFieldError of `value`, which `_holds` refuses for `kind`; `subject` names its place."""
    if type(value) is int and kind is int:
        return InvalidFieldError(f"{subject} {value!r}, which is below 1", field)
    return InvalidFieldError(f"{subject} of type {type(value).__name__}, not {kind.__name__}", field)


def _column(kind: type, column: Sequence, field: str, subject: str) -> str:
    """The one column rule, which only the constructors call: `_holds(kind, value)` for every value of `column`, the
    values of `field` of `subject`, in one C-level pass; else InvalidFieldError names the first value refused.

    For a str column the join of its values is the test, and is returned for `_encodable`, which a constructor asks
    only after every type test passed; any other column returns "".
    """
    if kind is str:
        try:
            return "".join(column)
        except TypeError:
            pass
    elif {kind}.issuperset(map(type, column)) and (kind is not int or min(column, default=1) >= 1):
        return ""
    i, value = next((i, value) for i, value in enumerate(column) if not _holds(kind, value))
    raise _refusal(f"{subject}{field}[{i}]", field, kind, value)


def _encodable(text: str, column: Sequence[str], field: str, subject: str) -> None:
    """Refuse the first string of `column`, whose join is `text`, that holds an unpaired surrogate: one ASCII test, and
    a search only of text that is not ASCII."""
    if not text.isascii() and _SURROGATE.search(text):
        i = next(i for i, value in enumerate(column) if _SURROGATE.search(value))
        raise UnencodableStringError(f"{subject}{field}[{i}] {_UNENCODABLE}", field)


def _derived(held, **fields):
    """A copy of `held`, which its constructor accepted, whose `fields` hold values derived from its own: a subsequence
    of a column that meets the rules meets them too, so nothing is tested again. Only `Table.select`, a table's slices
    and `ArchitectureSnapshot.without` derive a value."""
    value = copy.copy(held)
    for name, field in fields.items():
        getattr(type(held), name).__set__(value, field)  # the slot's setter: the value is frozen
    return value


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
    The constructor holds each column to its type in `_types` by the column
    rule, then its strings to UTF-8; a selection or slice is not tested again.
    """

    __slots__ = ()

    def __post_init__(self):
        columns = tuple(map(tuple, self._columns(self)))
        if len(set(map(len, columns))) > 1:
            raise ValueError(f"{type(self).__name__} columns differ in length: {list(map(len, columns))}")
        fields, subject = self.row.__slots__, f"{type(self).__name__} has "
        texts = [_column(kind, column, field, subject) for kind, column, field in zip(self._types, columns, fields)]
        for text, column, field in zip(texts, columns, fields):
            _encodable(text, column, field, subject)
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
        return _derived(self, **{name: tuple(compress(getattr(self, name), keep)) for name in self.__slots__})

    def __len__(self) -> int:
        return len(self._columns(self)[0])

    def __iter__(self):
        return iter(tuple(map(self.row, *self._columns(self))))  # the iterator of the tuple of its rows

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _derived(self, **{name: getattr(self, name)[index] for name in self.__slots__})
        return self.row(*(column[index] for column in self._columns(self)))

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
    _types = (str, str, ComponentKind, ComponentStatus)

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
    _types = (str, str, DependencyKind, int)

    users: tuple = ()
    used: tuple = ()
    kinds: tuple = ()
    multiplicities: tuple = ()

    def ordered(self) -> bool:
        """Whether each row's (user, used) pair is greater than the pair of the row before.

        One pass over neighbouring rows, read through `islice` views: no column is copied and no triple is built.
        """
        users, used = self.users, self.used
        return all(map(operator.lt, zip(users, used), zip(islice(users, 1, None), islice(used, 1, None))))


@dataclass(frozen=True, slots=True, eq=False)
class OwnershipTable(Table):
    """A snapshot's component -> owner assignment as two parallel columns; row i is an `OwnershipAssignment`."""

    row = OwnershipAssignment
    _types = (str, str)

    components: tuple = ()
    owners: tuple = ()


for _table in (ComponentTable, EdgeTable, OwnershipTable):
    _table._columns = operator.attrgetter(*_table.__slots__)
    _table._row_values = operator.attrgetter(*_table.row.__slots__)
del _table


def as_table(records, table: type[Table], subject: str, field: str):
    """`records` as a `table`: a table as itself, and a tuple or list of exactly its row class as the table of its rows;
    anything else is refused, `subject` naming the holder of `field`."""
    if type(records) is table:
        return records
    if type(records) not in (tuple, list):
        raise _refusal(f"{subject}{field}", field, table, records)
    if not {table.row}.issuperset(map(type, records)):
        i = next(i for i, record in enumerate(records) if type(record) is not table.row)
        raise _refusal(f"{subject}{field}[{i}]", field, table.row, records[i])
    return table.of(records)


@dataclass(frozen=True, slots=True, init=False)
class LocationEvidence:
    """One piece of evidence for an owner's jurisdiction.

    For member_locations the payload is a multiset of jurisdiction codes, stored as a sorted tuple; for every other
    source it is a single jurisdiction code. The constructor below, the package's one hand-written constructor, holds
    the source, the payload's shape and the date to the parser's types; it stores no record it refuses.
    """

    source: EvidenceSource
    payload: str | tuple[str, ...]
    recorded_at: date

    def __init__(self, source: EvidenceSource, payload: str | tuple[str, ...], recorded_at: date):
        """Store the record; a member_locations payload, a list or tuple of strings, is stored as a sorted tuple."""
        if source is _MEMBER_LOCATIONS:
            if type(payload) not in (list, tuple):
                raise _refusal(f"LocationEvidence of source 'member_locations' has payload", "payload", tuple, payload)
            _column(str, payload, "payload", f"LocationEvidence of source 'member_locations' has ")
            payload = tuple(sorted(payload))
        elif type(source) is not EvidenceSource:
            raise _refusal(f"LocationEvidence has source", "source", EvidenceSource, source)
        elif not isinstance(payload, str):
            raise _refusal(f"LocationEvidence of source {source.value!r} has payload", "payload", str, payload)
        if type(recorded_at) is not date:
            raise _refusal(f"LocationEvidence has recorded_at", "recorded_at", date, recorded_at)
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
    """A team, individual or unit that owns components, with the dated evidence of where it sits.

    The constructor holds each field to the parser's type; a list of evidence records is stored as a tuple. The
    snapshot that holds the owner holds its strings to UTF-8.
    """

    id: str
    name: str
    kind: OwnerKind
    location_evidence: tuple[LocationEvidence, ...] = ()

    def __post_init__(self):
        evidence = self.location_evidence
        if (
            isinstance(self.id, str)
            and isinstance(self.name, str)
            and type(self.kind) is OwnerKind
            and type(evidence) is tuple
            and {LocationEvidence}.issuperset(map(type, evidence))
        ):
            return
        subject = f"{Owner.__name__} {self.id!r} has "
        for field, kind in (("id", str), ("name", str), ("kind", OwnerKind), ("location_evidence", tuple)):
            if not (_holds(kind, getattr(self, field)) or kind is tuple and type(evidence) is list):
                raise _refusal(subject + field, field, kind, getattr(self, field))
        _column(LocationEvidence, evidence, "location_evidence", subject)
        object.__setattr__(self, "location_evidence", tuple(evidence))


_ID, _NAME, _PAYLOAD = operator.attrgetter("id"), operator.attrgetter("name"), operator.attrgetter("payload")
_RECORDED_AT, _LOCATION_EVIDENCE = operator.attrgetter("recorded_at"), operator.attrgetter("location_evidence")


@dataclass(frozen=True, slots=True)
class ArchitectureSnapshot:
    """The dated state of a system: its components, dependency edges, owners and ownership.

    The constructor holds it to what a parsed bundle holds: `id` a str, `taken_at` a date, each of the three record
    lists by `as_table`, `owners` a tuple or list of exactly `Owner`s (stored as a tuple), and every string of the id
    and the owners encodable as UTF-8. Anything else raises InvalidFieldError naming the first fault.
    """

    id: str
    taken_at: date
    components: tuple[Component, ...]
    dependencies: tuple[DependencyEdge, ...]
    owners: tuple[Owner, ...]
    ownership: tuple[OwnershipAssignment, ...]

    def __post_init__(self):
        subject = f"snapshot {self.id!r} has "
        if not isinstance(self.id, str):
            raise _refusal(subject + "id", "id", str, self.id)
        if not self.id.isascii() and _SURROGATE.search(self.id):
            raise UnencodableStringError(f"{subject}id {_UNENCODABLE}", "id")
        if type(self.taken_at) is not date:
            raise _refusal(subject + "taken_at", "taken_at", date, self.taken_at)
        object.__setattr__(self, "components", as_table(self.components, ComponentTable, subject, "components"))
        object.__setattr__(self, "dependencies", as_table(self.dependencies, EdgeTable, subject, "dependencies"))
        owners = self.owners
        if type(owners) not in (tuple, list):
            raise _refusal(subject + "owners", "owners", tuple, owners)
        _column(Owner, owners, "owners", subject)
        # Every owner's id, name and evidence codes are strings, and a payload a code or a tuple of codes, so their
        # chain is a chain of strings; only text that is not ASCII is searched, each owner's strings joined apart.
        payloads = map(_PAYLOAD, chain.from_iterable(map(_LOCATION_EVIDENCE, owners)))
        text = "".join(chain(map(_ID, owners), map(_NAME, owners), chain.from_iterable(payloads)))
        if not text.isascii():
            strings = [o.id + o.name + "".join(chain.from_iterable(map(_PAYLOAD, o.location_evidence))) for o in owners]
            _encodable(text, strings, "owners", subject)
        object.__setattr__(self, "owners", tuple(owners))
        object.__setattr__(self, "ownership", as_table(self.ownership, OwnershipTable, subject, "ownership"))

    def owner_of(self) -> dict[str, str]:
        """Component id -> owner id (first assignment wins on duplicates), read from the ownership columns."""
        ownership = self.ownership
        # Read backwards, a component's first assignment is the last written, so it is the one kept.
        return dict(zip(reversed(ownership.components), reversed(ownership.owners)))

    def without(self, excluded: set[str]) -> ArchitectureSnapshot:
        """The snapshot without the components whose ids are in `excluded`, the edges incident to one and their
        assignments; with nothing excluded, itself. Its tables are selected from this snapshot's, so neither they
        nor it are tested again."""
        if not excluded:
            return self
        components, edges, ownership = self.components, self.dependencies, self.ownership
        users, used = edges.users, edges.used
        return _derived(
            self,
            components=components.select([cid not in excluded for cid in components.ids]),
            dependencies=edges.select([u not in excluded and v not in excluded for u, v in zip(users, used)]),
            ownership=ownership.select([cid not in excluded for cid in ownership.components]),
        )


def owners_as_of(snapshot: ArchitectureSnapshot) -> Sequence[Owner]:
    """The snapshot's owners as of its `taken_at`: each without its evidence records dated after that day.

    One evidence history may serve many snapshots, so a later record is valid input that decides no earlier one.
    `run_pipeline` resolves this view and `validate_snapshot` judges conflicts in it. With no later record at all,
    the view is `snapshot.owners`.
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
    """Check the structural invariants of a snapshot: violations become findings, sorted, and it never raises.

    The constructors hold every value to its type and every string to UTF-8, so validate judges only the invariants
    between values: ids, codes, conflicts, self-dependencies, dangling references, duplicates and ownership. Each
    block is a set-algebra test over whole columns and, only when it fails, a listing of its offenders. Edges whose
    (user, used) pairs strictly increase (`EdgeTable.ordered()`), as a bundle lists them, repeat no edge. Conflicts
    are judged, by the `latest_evidence` and `conflict` the resolver cascade uses, in the `owners_as_of` view, and
    only when one owner id holds two records of one resolver on one date. A clean snapshot formats no message.
    """
    components, owners, ownership = snapshot.components, snapshot.owners, snapshot.ownership
    containers = [o.location_evidence for o in owners]
    cids, oids, onames = components.ids, [o.id for o in owners], [o.name for o in owners]
    # Each evidence record is named by its owner's id.
    records = list(chain.from_iterable(containers))
    holders = list(chain.from_iterable(map(repeat, oids, map(len, containers))))
    sources, dates = [ev.source for ev in records], [ev.recorded_at for ev in records]
    component_ids, owner_ids = set(cids), set(oids)
    findings = []

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

    findings += _evidence_findings(snapshot, holders, sources, dates, [ev.payload for ev in records])
    findings += _dependency_findings(snapshot.dependencies, component_ids)
    findings += _ownership_findings(ownership.components, ownership.owners, component_ids, owner_ids)
    findings.sort()
    return ValidationReport("failed" if findings else "ok", tuple(findings))


def _evidence_findings(
    snapshot: ArchitectureSnapshot, holders: Sequence[str], sources: list[EvidenceSource], dates: list[date], payloads
) -> list[Finding]:
    """The evidence invariants over the evidence columns, row i of each being record i, held by owner `holders[i]`:
    each distinct code is valid, and, only when some owner id holds two records of one resolver on one date, each
    owner of `owners_as_of(snapshot)` has its latest records judged by `conflict`. Each test is one whole-column test
    first, and records are walked only when it fails."""
    lists = [source is _MEMBER_LOCATIONS for source in sources]
    member_payloads = list(compress(payloads, lists))
    single_codes = list(compress(payloads, map(operator.not_, lists)))
    findings = []
    if not all(map(is_valid_jurisdiction, {*chain.from_iterable(member_payloads), *single_codes})):
        for holder, source, payload in zip(holders, sources, payloads):
            codes = payload if source is _MEMBER_LOCATIONS else (payload,)
            message = "malformed jurisdiction code {!r} in evidence of owner {!r}"
            findings += [
                _finding("malformed-jurisdiction", message.format(c, holder), holder)
                for c in codes
                if not is_valid_jurisdiction(c)
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
    """The dependency invariants over the edge columns, row i of each being edge i."""
    users, used, kinds = edges.users, edges.used, edges.kinds
    findings = []
    if any(map(operator.eq, users, used)):
        findings += [
            _finding("self-dependency", f"component {u!r} depends on itself", u) for u, v in zip(users, used) if u == v
        ]
    for endpoints in (users, used):
        findings += _dangling(endpoints, component_ids, "dependency endpoint {!r} is not a component")
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
