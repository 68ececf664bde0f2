"""Seeded input bundles for the benchmark, written with stdlib json only.

Nothing here imports taxarch: a change to the program's generator or
serializer cannot change the inputs of the read-side workloads. Every
builder also returns what the program's output must be, derived from
how the input was constructed rather than from the program.
"""

from __future__ import annotations

import json
import math
import random
from datetime import date, timedelta

UNKNOWN = "UNKNOWN"
CODES = ("DEU", "FRA", "GBR", "IRL", "NLD", "POL", "SWE", "USA")
KINDS = ("microservice", "library", "module", "application", "other")


def _dump(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _bundle(snapshot_id, taken_at, components, edges, owners, owner_of) -> dict:
    return {
        "schema_version": 1,
        "snapshot_id": snapshot_id,
        "taken_at": taken_at.isoformat(),
        "components": components,
        "dependencies": [
            {"user": u, "owner_component": o, "kind": "use", "multiplicity": m}
            for (u, o), m in sorted(edges.items())
        ],
        "owners": owners,
        "ownership": [{"component": c, "owner": owner_of[c]} for c in sorted(owner_of)],
    }


def _distinct_pairs(rng: random.Random, ids: list[str], count: int, taken: set = frozenset()) -> list[tuple[str, str]]:
    n = len(ids)
    pairs: set[tuple[str, str]] = set()
    while len(pairs) < count:
        u, o = rng.randrange(n), rng.randrange(n)
        pair = (ids[u], ids[o])
        if u != o and pair not in taken:
            pairs.add(pair)
    return sorted(pairs)


# --- report-100k ---------------------------------------------------------

REPORT_COMPONENTS = 10_000
REPORT_TEAMS = 300
REPORT_EDGES = 100_000
REPORT_UNRESOLVED = 0.3  # share of teams with no location evidence at all


def report_input(seed: int):
    """One bundle of explicit evidence only, everything in scope.

    Returns (bundle bytes, expected), where expected holds the maps the
    reference aggregator needs: edges, owners, jurisdictions and scope.
    """
    rng = random.Random(f"report-100k:{seed}")
    taken_at = date(2023, 6, 30)
    comp_ids = [f"c{i:05d}" for i in range(REPORT_COMPONENTS)]
    team_ids = [f"t{i:04d}" for i in range(REPORT_TEAMS)]
    no_evidence = set(rng.sample(team_ids, round(REPORT_UNRESOLVED * REPORT_TEAMS)))
    jurisdiction = {t: UNKNOWN if t in no_evidence else rng.choice(CODES) for t in team_ids}
    owners = [
        {
            "id": t,
            "name": f"team-{t}",
            "kind": "team",
            "location_evidence": []
            if t in no_evidence
            else [{"source": "explicit_assignment", "payload": jurisdiction[t], "recorded_at": taken_at.isoformat()}],
        }
        for t in team_ids
    ]
    components_doc = [
        {"id": c, "name": f"service-{c}", "kind": "microservice", "status": "production"} for c in comp_ids
    ]
    owner_of = {c: rng.choice(team_ids) for c in comp_ids}
    edge_map = {pair: 1 for pair in _distinct_pairs(rng, comp_ids, REPORT_EDGES)}
    doc = _bundle(f"report-s{seed}", taken_at, components_doc, edge_map, owners, owner_of)
    snapshot = {
        "id": doc["snapshot_id"],
        "edges": edge_map,
        "owner_of": owner_of,
        "jurisdiction": jurisdiction,
        "in_scope": set(comp_ids),
        "resolved_by": {t: "explicit_assignment" for t in team_ids if t not in no_evidence},
    }
    return _dump(doc), snapshot


# --- diff-churn ----------------------------------------------------------
#
# Each owner's evidence is built from three intended group decisions, one
# per resolver of the default cascade, in cascade order:
#   explicit  None | UNKNOWN | code   (explicit_assignment or questionnaire)
#   member    None | "below" | code   (latest member_locations report)
#   manager   None | UNKNOWN | code   (manager_location)
# The owner's jurisdiction is the first decision that names a code. The
# evidence is then written so that exactly that decision holds: the latest
# entry of each group carries the decision, older entries are noise, and
# all of an owner's entries have distinct dates, so no two records of one
# group tie for latest.

RESOLVER_NAMES = ("explicit_assignment", "member_majority(0.75)", "manager_location")
_GROUP_CHOICES = (
    ((None, 0.50), (UNKNOWN, 0.20), ("code", 0.30)),
    ((None, 0.50), ("below", 0.25), ("code", 0.25)),
    ((None, 0.55), (UNKNOWN, 0.20), ("code", 0.25)),
)
_EPOCH = date(2021, 1, 1)


def _pick(rng: random.Random, choices) -> str | None:
    x = rng.random() * sum(p for _, p in choices)
    for value, p in choices:
        x -= p
        if x < 0:
            break
    return rng.choice(CODES) if value == "code" else value


def outcome(decisions) -> tuple[str, str | None]:
    """(jurisdiction, deciding resolver) for a triple of group decisions."""
    for name, d in zip(RESOLVER_NAMES, decisions):
        if d not in (None, UNKNOWN, "below"):
            return d, name
    return UNKNOWN, None


def _members(rng: random.Random, decision: str | None) -> list[str]:
    n = rng.randint(4, 12)
    if decision is None:  # noise: any shares
        return sorted(rng.choice(CODES + (UNKNOWN,)) for _ in range(n))
    if decision == "below":  # no code holds more than 3/5 of the members
        top = rng.choice(CODES)
        rest = [c for c in CODES + (UNKNOWN,) if c != top]
        return sorted([top] * (n // 2) + [rng.choice(rest) for _ in range(n - n // 2)])
    k = rng.randint(math.ceil(0.75 * n), n)
    rest = [c for c in CODES + (UNKNOWN,) if c != decision]
    return sorted([decision] * k + [rng.choice(rest) for _ in range(n - k)])


def _entry(rng: random.Random, group: int, decision, day: date) -> dict:
    if group == 0:
        source = rng.choice(("explicit_assignment", "explicit_assignment", "questionnaire"))
        payload = decision if decision is not None else rng.choice(CODES + (UNKNOWN,))
    elif group == 1:
        source, payload = "member_locations", _members(rng, decision)
    else:
        source = "manager_location"
        payload = decision if decision is not None else rng.choice(CODES + (UNKNOWN,))
    return {"source": source, "payload": payload, "recorded_at": day.isoformat()}


def _evidence(rng: random.Random, decisions, last_day: date) -> list[dict]:
    groups = [g for g, d in enumerate(decisions) if d is not None]
    sizes = {g: rng.randint(1, 3) for g in groups}
    days = rng.sample(range((last_day - _EPOCH).days + 1), sum(sizes.values()))
    entries = []
    for g in groups:
        mine = sorted(days[: sizes[g]])
        days = days[sizes[g] :]
        for i, offset in enumerate(mine):
            latest = i == len(mine) - 1
            entries.append(_entry(rng, g, decisions[g] if latest else None, _EPOCH + timedelta(days=offset)))
    return sorted(entries, key=lambda e: e["recorded_at"])


CHURN_COMPONENTS = 5_000
CHURN_OWNERS = 4_000
CHURN_EDGES = 50_000
# Share of edges removed, added and re-weighted (a third each), and of
# components moved to another owner.
CHURN = 0.02
# Share of owners given a newer evidence record in B.
CHURN_NEWER_EVIDENCE = 0.05


def churn_inputs(seed: int):
    """Snapshot A, and B as A plus churn.

    Returns (A bytes, B bytes, A expected, B expected, ledger), where the
    ledger lists every change injected into B.
    """
    rng = random.Random(f"diff-churn:{seed}")
    date_a, date_b = date(2023, 6, 30), date(2023, 9, 30)
    comp_ids = [f"c{i:05d}" for i in range(CHURN_COMPONENTS)]
    owner_ids = [f"o{i:04d}" for i in range(CHURN_OWNERS)]

    status = {c: "production" if rng.random() < 0.95 else rng.choice(("experimental", "deprecated")) for c in comp_ids}
    components_doc = [
        {"id": c, "name": f"service-{c}", "kind": rng.choice(KINDS), "status": status[c]} for c in comp_ids
    ]
    kind = {o: "individual" if rng.random() < 0.05 else "team" for o in owner_ids}
    decisions_a = {o: tuple(_pick(rng, choices) for choices in _GROUP_CHOICES) for o in owner_ids}
    evidence_a = {o: _evidence(rng, decisions_a[o], date_a) for o in owner_ids}
    owner_of_a = {c: rng.choice(owner_ids) for c in comp_ids}
    edges_a = {
        pair: 1 if rng.random() < 0.85 else rng.randint(2, 5) for pair in _distinct_pairs(rng, comp_ids, CHURN_EDGES)
    }

    # Churn of B against A, recorded in the ledger as it is injected.
    n = round(CHURN * CHURN_EDGES / 3)
    pairs = sorted(edges_a)
    removed = set(rng.sample(pairs, n))
    kept = [p for p in pairs if p not in removed]
    bumped = sorted(rng.sample(kept, n))
    added = _distinct_pairs(rng, comp_ids, n, taken=set(edges_a))
    edges_b = {p: m for p, m in edges_a.items() if p not in removed}
    multiplicity_changes = []
    for p in bumped:
        m = edges_a[p]
        new = rng.randint(1, m - 1) if m > 1 and rng.random() < 0.4 else m + rng.randint(1, 3)
        edges_b[p] = new
        multiplicity_changes.append((p, new - m))
    for p in added:
        edges_b[p] = 1 if rng.random() < 0.85 else rng.randint(2, 5)

    owner_of_b = dict(owner_of_a)
    moved = sorted(rng.sample(comp_ids, round(CHURN * CHURN_COMPONENTS)))
    for c in moved:
        while owner_of_b[c] == owner_of_a[c]:
            owner_of_b[c] = rng.choice(owner_ids)

    decisions_b = dict(decisions_a)
    evidence_b = dict(evidence_a)
    for o in sorted(rng.sample(owner_ids, round(CHURN_NEWER_EVIDENCE * CHURN_OWNERS))):
        group = rng.randrange(3)
        new = _pick(rng, _GROUP_CHOICES[group][1:])  # a decisive or deliberately undecided newer record
        decisions_b[o] = decisions_a[o][:group] + (new,) + decisions_a[o][group + 1 :]
        day = date_a + timedelta(days=rng.randint(1, (date_b - date_a).days))
        evidence_b[o] = evidence_a[o] + [_entry(rng, group, new, day)]

    def owners_doc(evidence):
        return [{"id": o, "name": f"owner-{o}", "kind": kind[o], "location_evidence": evidence[o]} for o in owner_ids]

    doc_a = _bundle(f"churn-a-s{seed}", date_a, components_doc, edges_a, owners_doc(evidence_a), owner_of_a)
    doc_b = _bundle(f"churn-b-s{seed}", date_b, components_doc, edges_b, owners_doc(evidence_b), owner_of_b)

    def snapshot(doc, edge_map, owner_of, decisions):
        decided = {o: outcome(d) for o, d in decisions.items()}
        return {
            "id": doc["snapshot_id"],
            "edges": edge_map,
            "owner_of": owner_of,
            "jurisdiction": {o: j for o, (j, _) in decided.items()},
            "in_scope": {c for c in comp_ids if status[c] == "production" and kind[owner_of[c]] == "team"},
            "resolved_by": {o: r for o, (_, r) in decided.items() if r is not None},
        }

    snap_a = snapshot(doc_a, edges_a, owner_of_a, decisions_a)
    snap_b = snapshot(doc_b, edges_b, owner_of_b, decisions_b)
    ownership_changes = [(c, owner_of_a[c], owner_of_b[c]) for c in moved]
    ledger = {
        "edges_added": added,
        "edges_removed": sorted(removed),
        "multiplicity_changes": multiplicity_changes,
        "ownership_changes": ownership_changes,
        "jurisdiction_changes": [
            (o, snap_a["jurisdiction"][o], snap_b["jurisdiction"][o])
            for o in owner_ids
            if snap_a["jurisdiction"][o] != snap_b["jurisdiction"][o]
        ],
    }
    return _dump(doc_a), _dump(doc_b), snap_a, snap_b, ledger
