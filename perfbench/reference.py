"""Reference results and output checks, independent of taxarch.

The expected outputs are computed from the maps the input builders
return (see inputs.py), with the flow-matrix rules written out here a
second time. Every check returns a list of problems; empty means pass.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

from inputs import UNKNOWN


def flow_counts(snapshot: dict) -> dict[tuple[str, str], int]:
    """Uses by (user jurisdiction, owner jurisdiction) over in-scope edges."""
    owner_of, jurisdiction, scope = snapshot["owner_of"], snapshot["jurisdiction"], snapshot["in_scope"]
    counts: Counter = Counter()
    for (user, used), multiplicity in snapshot["edges"].items():
        if user in scope and used in scope:
            counts[jurisdiction[owner_of[user]], jurisdiction[owner_of[used]]] += multiplicity
    return {cell: n for cell, n in counts.items() if n}


def _code_key(code: str):
    return (1, "") if code == UNKNOWN else (0, code)


def _known_codes(counts) -> list[str]:
    return sorted({c for cell in counts for c in cell} - {UNKNOWN})


def flow_table_csv(counts) -> str:
    """The flow table with the N/A row and column always present."""
    known = _known_codes(counts)
    codes, labels = known + [UNKNOWN], known + ["N/A"]
    rows = [["user"] + labels]
    rows += [[label] + [str(counts.get((row, col), 0)) for col in codes] for label, row in zip(labels, codes)]
    return "".join(",".join(row) + "\n" for row in rows)


def snapshot_of_bundle(doc: dict) -> dict:
    """Reference maps of a bundle whose owners carry at most one explicit record each."""
    jurisdiction = {}
    for owner in doc["owners"]:
        evidence = owner.get("location_evidence", [])
        if len(evidence) > 1 or any(ev["source"] != "explicit_assignment" for ev in evidence):
            raise ValueError(f"owner {owner['id']!r} has evidence the reference does not model")
        jurisdiction[owner["id"]] = evidence[0]["payload"] if evidence else UNKNOWN
    kind = {o["id"]: o["kind"] for o in doc["owners"]}
    owner_of = {}
    for a in doc["ownership"]:
        owner_of.setdefault(a["component"], a["owner"])
    edges: Counter = Counter()
    for e in doc["dependencies"]:
        edges[e["user"], e["owner_component"]] += e.get("multiplicity", 1)
    return {
        "edges": edges,
        "owner_of": owner_of,
        "jurisdiction": jurisdiction,
        "in_scope": {
            c["id"] for c in doc["components"] if c["status"] == "production" and kind[owner_of[c["id"]]] == "team"
        },
    }


def expected_report(snapshot: dict) -> dict:
    """The `matrix` and `stats` sections of report.json for an all-in-scope snapshot."""
    if len(snapshot["in_scope"]) != len(snapshot["owner_of"]):
        raise ValueError("expected_report models snapshots with every component in scope")
    counts = flow_counts(snapshot)
    cells = sorted(counts.items(), key=lambda kv: tuple(_code_key(c) for c in kv[0]))
    present = {c for cell in counts for c in cell}
    total = sum(counts.values())
    domestic = sum(n for (u, o), n in counts.items() if u == o != UNKNOWN)
    unresolved = sum(n for cell, n in counts.items() if UNKNOWN in cell)
    cross_border = total - domestic - unresolved
    inbound: Counter = Counter()
    outbound: Counter = Counter()
    for (u, o), n in counts.items():
        outbound[u] += n
        inbound[o] += n
    owners = len(snapshot["jurisdiction"])
    resolved = len(snapshot["resolved_by"])
    return {
        "matrix": {
            "codes": _known_codes(counts) + ([UNKNOWN] if UNKNOWN in present else []),
            "cells": [{"user": u, "owner": o, "count": n} for (u, o), n in cells],
        },
        "stats": {
            "total_uses": total,
            "domestic": domestic,
            "cross_border": cross_border,
            "unresolved": unresolved,
            "domestic_ratio": domestic / total,
            "cross_border_ratio": cross_border / total,
            "unresolved_ratio": unresolved / total,
            "inbound": dict(sorted(inbound.items())),
            "outbound": dict(sorted(outbound.items())),
            "owner_resolution": {
                "total": owners,
                "resolved": resolved,
                "unresolved": owners - resolved,
                "unresolved_ratio": (owners - resolved) / owners,
                "per_resolver": dict(sorted(Counter(snapshot["resolved_by"].values()).items())),
            },
            "exclusions": {
                "excluded_components": [],
                "excluded_component_count": 0,
                "component_total": len(snapshot["owner_of"]),
                "component_ratio": 0.0,
                "excluded_edges": 0,
                "edge_total": len(snapshot["edges"]),
                "edge_ratio": 0.0,
            },
        },
    }


def expected_delta(a: dict, b: dict, ledger: dict) -> dict:
    """The document `taxarch diff A B` must print for the injected churn."""
    cells: Counter = Counter()
    for snapshot, sign in ((a, -1), (b, 1)):
        for cell, n in flow_counts(snapshot).items():
            cells[cell] += sign * n
    touched = {c for edge in ledger["edges_added"] + ledger["edges_removed"] for c in edge}
    touched |= {c for edge, _ in ledger["multiplicity_changes"] for c in edge}
    reassigned = {c for c, _, _ in ledger["ownership_changes"]}
    return {
        "snapshot_a": a["id"],
        "snapshot_b": b["id"],
        "components_added": [],
        "components_removed": [],
        "edges_added": [[u, o, "use"] for u, o in sorted(ledger["edges_added"])],
        "edges_removed": [[u, o, "use"] for u, o in sorted(ledger["edges_removed"])],
        "multiplicity_changes": [
            {"edge": [u, o, "use"], "delta": d} for (u, o), d in sorted(ledger["multiplicity_changes"])
        ],
        "ownership_changes": [
            {"component": c, "old_owner": old, "new_owner": new} for c, old, new in sorted(ledger["ownership_changes"])
        ],
        "jurisdiction_changes": [
            {"owner": o, "old": old, "new": new} for o, old, new in sorted(ledger["jurisdiction_changes"])
        ],
        "matrix_delta": [{"user": u, "owner": o, "delta": d} for (u, o), d in sorted(cells.items()) if d],
        "coupled_change_count": len(reassigned & touched),
    }


def _load_json(path: Path, problems: list[str]) -> dict | None:
    """The JSON object in `path`, or None with the reason added to `problems`."""
    try:
        doc = json.loads(path.read_bytes())
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: {exc}")
        return None
    if not isinstance(doc, dict):
        problems.append(f"{path.name} is not a JSON object")
        return None
    return doc


def check_report(out_dir: Path, expected: dict) -> list[str]:
    problems = []
    for name in ("view.dot", "view.csv", "registers.csv"):
        path = out_dir / name
        if not path.is_file() or not path.stat().st_size:
            problems.append(f"{name} missing or empty")
    doc = _load_json(out_dir / "report.json", problems)
    if doc is not None:
        for section in ("matrix", "stats"):
            if doc.get(section) != expected[section]:
                problems.append(f"report.json {section} differs from the reference")
    return problems


def check_delta(path: Path, expected: dict) -> list[str]:
    problems: list[str] = []
    doc = _load_json(path, problems)
    if doc is not None:
        for key in sorted(set(doc) | set(expected)):
            if doc.get(key) != expected.get(key):
                problems.append(f"delta.json {key} differs from the churn ledger")
    return problems


def check_gen(path: Path, components: int, teams: int, density: float, unresolved_rate: float) -> list[str]:
    problems: list[str] = []
    data = path.read_bytes() if path.is_file() else b""
    doc = _load_json(path, problems)
    if doc is None:
        return problems
    if data != (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8"):
        problems.append("bundle is not in canonical form")
    try:
        problems += _gen_structure(doc, components, teams, density, unresolved_rate)
    except (KeyError, TypeError) as exc:
        problems.append(f"bundle does not have the documented shape: {exc!r}")
    return problems


def _gen_structure(doc: dict, components: int, teams: int, density: float, unresolved_rate: float) -> list[str]:
    problems = []
    sort_keys = {
        "components": lambda x: x["id"],
        "dependencies": lambda x: (x["user"], x["owner_component"], x["kind"]),
        "owners": lambda x: x["id"],
        "ownership": lambda x: (x["component"], x["owner"]),
    }
    for name, key in sort_keys.items():
        keys = [key(x) for x in doc[name]]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            problems.append(f"{name} not sorted or not distinct")
    want = {
        "components": components,
        "ownership": components,
        "owners": teams,
        "dependencies": round(density * components),
    }
    for name, n in want.items():
        if len(doc[name]) != n:
            problems.append(f"{len(doc[name])} {name}, expected {n}")
    if any(e["user"] == e["owner_component"] for e in doc["dependencies"]):
        problems.append("self-dependency in generated bundle")
    share = sum(1 for o in doc["owners"] if not o["location_evidence"]) / teams
    if abs(share - unresolved_rate) > 5 * math.sqrt(unresolved_rate * (1 - unresolved_rate) / teams):
        problems.append(f"share of owners without evidence {share:.3f} is far from {unresolved_rate}")
    return problems
