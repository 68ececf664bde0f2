"""Synthetic snapshot generation and built-in fixtures.

The generator is seeded: the same parameters and seed produce
byte-identical bundles on every machine (Mersenne Twister via
random.Random; outputs pinned by golden tests).

Fixtures:
  devnullsoft      -- the worked example: 18 components in three
                      subsidiaries (SWE/DEU/GBR), 17 dependencies.
  casestudy_matrix -- the published 6x6 jurisdiction flow matrix of the
                      large case study (raw edges are not public).
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass
from datetime import date

from .classify import JurisdictionFlowMatrix
from .model import (
    UNKNOWN,
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
    is_valid_jurisdiction,
)

DEFAULT_WEIGHTS = {
    "SWE": 0.30,
    "DEU": 0.25,
    "USA": 0.20,
    "GBR": 0.15,
    "NLD": 0.10,
}


# The largest component or team count: one draw below a count reads one 32-bit word.
MAX_COUNT = 2**32 - 1

# At most this many words are drawn at once, so memory grows with the values kept, not with the whole target.
_ROUND_WORDS = 65536


class GenerationError(ValueError):
    pass


@dataclass(frozen=True)
class GeneratorParams:
    """The checked parameters of one synthetic snapshot; the same parameters and seed give the same snapshot."""

    component_count: int
    team_count: int
    jurisdiction_weights: tuple[tuple[str, float], ...] = tuple(sorted(DEFAULT_WEIGHTS.items()))
    unresolved_rate: float = 0.0
    dependency_density: float = 2.0  # expected edges per component
    seed: int = 0
    taken_at: date = date(2023, 6, 30)

    def __post_init__(self):
        if self.component_count < 1 or self.team_count < 1:
            raise GenerationError("component_count and team_count must be positive")
        if self.component_count > MAX_COUNT or self.team_count > MAX_COUNT:
            raise GenerationError(f"component_count and team_count must be at most {MAX_COUNT}")
        if not 0.0 <= self.unresolved_rate <= 1.0:
            raise GenerationError("unresolved_rate must be in [0, 1]")
        if not 0 <= self.dependency_density < math.inf:
            raise GenerationError(f"dependency_density must be finite and >= 0, got {self.dependency_density}")
        invalid = [code for code, _ in self.jurisdiction_weights if not is_valid_jurisdiction(code)]
        if invalid:
            raise GenerationError(f"invalid jurisdiction code(s) {invalid} (expected alpha-3 or UNKNOWN)")
        outside = [code for code, w in self.jurisdiction_weights if not 0.0 <= w <= 1.0]
        if outside:
            raise GenerationError(f"jurisdiction weight(s) of {outside} must be in [0, 1]")
        total = sum(w for _, w in self.jurisdiction_weights)
        if abs(total - 1.0) > 1e-9:
            raise GenerationError(f"jurisdiction weights must sum to 1, got {total}")


def _weighted_choice(rng: random.Random, weights: tuple[tuple[str, float], ...]) -> str:
    x = rng.random()
    acc = 0.0
    for code, w in weights:
        acc += w
        if x < acc:
            return code
    return weights[-1][0]


def _accepted(rng: random.Random, n: int, words: int) -> list[int]:
    """The values that `words` more calls of rng.getrandbits(k), k = n.bit_length(), give below n, in draw order.

    For 0 < n < 2**32, getrandbits(k) is one 32-bit word shifted right by 32 - k, getrandbits(32 * words) holds
    the next `words` words, the first one lowest, and rng.randrange(n) keeps the first getrandbits(k) below n.
    """
    shift = 32 - n.bit_length()
    limit = n << shift
    drawn = struct.unpack(f"<{words}I", rng.getrandbits(32 * words).to_bytes(4 * words, "little"))
    return [w >> shift for w in drawn if w < limit]


def _below(rng: random.Random, n: int, count: int) -> list[int]:
    """What `count` calls of rng.randrange(n) return, for 0 < n < 2**32.

    Each word yields at most one value, and a round draws at most as many words as values are still missing, so it
    never draws a word that the calls would not.
    """
    values: list[int] = []
    while len(values) < count:
        values += _accepted(rng, n, min(count - len(values), _ROUND_WORDS))
    return values


def _pairs(rng: random.Random, n: int, target: int) -> set[int]:
    """What the loop of single draws holds: pairs of rng.randrange(n) with user != used, coded user * n + used,
    added to a set until it holds `target` codes.

    For 0 < n < 2**32 and target <= n * (n - 1). A round draws the values of at most as many pairs as codes are
    still missing, and each pair adds at most one code, so the set can reach `target` only at a round's last pair:
    it never draws a word that the loop would not.
    """
    codes: set[int] = set()
    while len(codes) < target:
        values = _below(rng, n, 2 * min(target - len(codes), _ROUND_WORDS))
        codes.update([user * n + used for user, used in zip(values[0::2], values[1::2]) if user != used])
    return codes


def generate(params: GeneratorParams) -> ArchitectureSnapshot:
    """Generate a valid snapshot; identical params and seed give identical output.

    The components, ownership and edges are built as the columns of their tables. Components' owners and dependency
    pairs are drawn in bulk, from the same Mersenne Twister words that one rng.randrange call per value would read,
    so the snapshot and the generator's final state equal those of the loop.
    """
    n = params.component_count
    wanted = params.dependency_density * n  # a finite density may still overflow to inf here
    edge_target = round(wanted) if math.isfinite(wanted) else wanted
    capacity = n * (n - 1)
    if edge_target > capacity:
        raise GenerationError(
            f"density {params.dependency_density} needs {edge_target} edges "
            f"but only {capacity} distinct pairs exist"
        )

    rng = random.Random(params.seed)
    ids = tuple(f"c{i:05d}" for i in range(n))
    names = tuple(f"service-{i}" for i in range(n))
    components = ComponentTable(ids, names, (ComponentKind.MICROSERVICE,) * n, (ComponentStatus.PRODUCTION,) * n)
    team_ids = [f"t{i:04d}" for i in range(params.team_count)]  # formatted once, for the owners and the ownership
    owners = []
    for i, tid in enumerate(team_ids):
        if rng.random() < params.unresolved_rate:
            evidence = ()
        else:
            code = _weighted_choice(rng, params.jurisdiction_weights)
            evidence = (
                LocationEvidence(EvidenceSource.EXPLICIT_ASSIGNMENT, code, params.taken_at),
            )
        owners.append(Owner(tid, f"team-{i}", OwnerKind.TEAM, evidence))

    ownership = OwnershipTable(ids, tuple(map(team_ids.__getitem__, _below(rng, params.team_count, n))))

    # Each pair (user, used) is stored as user * n + used: since used < n,
    # the ints sort in the same order as the pairs.
    order = sorted(_pairs(rng, n, edge_target))
    dependencies = EdgeTable(
        tuple(ids[pair // n] for pair in order),
        tuple(ids[pair % n] for pair in order),
        (DependencyKind.USE,) * len(order),
        (1,) * len(order),
    )

    return ArchitectureSnapshot(
        id=f"generated-s{params.seed}",
        taken_at=params.taken_at,
        components=components,
        dependencies=dependencies,
        owners=tuple(owners),
        ownership=ownership,
    )


# --- devnullsoft fixture -------------------------------------------------
#
# Component grid columns map to owning teams; each team sits in one
# subsidiary. Edge list transcribed from the worked example's diagram.

_DEVNULLSOFT_COLUMNS = {
    0: ("team-ab-platform", "SWE"),
    1: ("team-ab-apps", "SWE"),
    3: ("team-gmbh-core", "DEU"),
    4: ("team-gmbh-data", "DEU"),
    5: ("team-gmbh-integration", "DEU"),
    7: ("team-ltd-commerce", "GBR"),
}

_DEVNULLSOFT_EDGES = [
    ((4, 1), (7, 1)),
    ((3, 2), (1, 1)),
    ((1, 1), (3, 0)),
    ((3, 1), (1, 2)),
    ((3, 1), (4, 0)),
    ((0, 2), (0, 1)),
    ((1, 0), (0, 1)),
    ((1, 0), (3, 0)),
    ((1, 1), (0, 1)),
    ((1, 2), (0, 2)),
    ((5, 2), (7, 2)),
    ((5, 2), (7, 1)),
    ((5, 1), (7, 1)),
    ((5, 0), (7, 1)),
    ((7, 1), (7, 0)),
    ((4, 2), (3, 2)),
    ((4, 2), (5, 2)),
]

_DEVNULLSOFT_DATE = date(2023, 4, 1)


def _devnullsoft() -> ArchitectureSnapshot:
    def cid(x: int, y: int) -> str:
        return f"svc-{x}{y}"

    components = tuple(
        Component(cid(x, y), f"service {x}.{y}", ComponentKind.MICROSERVICE, ComponentStatus.PRODUCTION)
        for x in sorted(_DEVNULLSOFT_COLUMNS)
        for y in range(3)
    )
    owners = tuple(
        Owner(
            team,
            team,
            OwnerKind.TEAM,
            (LocationEvidence(EvidenceSource.EXPLICIT_ASSIGNMENT, code, _DEVNULLSOFT_DATE),),
        )
        for team, code in sorted(_DEVNULLSOFT_COLUMNS.values())
    )
    ownership = tuple(
        OwnershipAssignment(cid(x, y), _DEVNULLSOFT_COLUMNS[x][0])
        for x in sorted(_DEVNULLSOFT_COLUMNS)
        for y in range(3)
    )
    dependencies = tuple(
        DependencyEdge(cid(*user), cid(*used)) for user, used in _DEVNULLSOFT_EDGES
    )
    return ArchitectureSnapshot(
        id="devnullsoft-2023Q2",
        taken_at=_DEVNULLSOFT_DATE,
        components=components,
        dependencies=dependencies,
        owners=owners,
        ownership=ownership,
    )


# --- case-study matrix fixture -------------------------------------------
#
# Published aggregate only; rows are the user jurisdiction, columns the
# owner jurisdiction. The last row/column is the unknown jurisdiction.

_CASESTUDY_CODES = ("DEU", "GBR", "NLD", "FRA", "USA", UNKNOWN)
_CASESTUDY_ROWS = (
    (2, 2, 0, 0, 0, 4),
    (15, 164, 2, 261, 43, 141),
    (3, 6, 19, 11, 5, 8),
    (24, 108, 21, 4069, 850, 1767),
    (14, 24, 15, 1130, 1648, 642),
    (27, 70, 14, 2283, 970, 2171),
)


def _casestudy_matrix() -> JurisdictionFlowMatrix:
    counts = {
        (_CASESTUDY_CODES[i], _CASESTUDY_CODES[j]): value
        for i, row in enumerate(_CASESTUDY_ROWS)
        for j, value in enumerate(row)
    }
    return JurisdictionFlowMatrix.from_counts(counts, snapshot_id="casestudy-2023H1")


FIXTURE_NAMES = ("devnullsoft", "casestudy_matrix")


def fixture(name: str) -> ArchitectureSnapshot | JurisdictionFlowMatrix:
    if name == "devnullsoft":
        return _devnullsoft()
    if name == "casestudy_matrix":
        return _casestudy_matrix()
    raise ValueError(f"unknown fixture {name!r} (available: {', '.join(FIXTURE_NAMES)})")
