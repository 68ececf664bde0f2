"""JSON text as `json.dumps(value, indent=2, ensure_ascii=False)` writes it, for the fixed-schema writers.

Two writers use it, each kept for the workload it serves: `report.json`
(`views.emit_report`, on `report`) and the bundle (`ingest.serialize_bundle`,
on `gen`). Each formats its records as f-strings at their fixed indent
instead of handing a dict to `json.dumps`, whose `indent` falls back to the
pure-Python encoder. Every string goes through `quote`, the C escaper
`json.dumps` itself uses with `ensure_ascii=False`, so the bytes are the
ones `json.dumps` would write. `delta.json` has no such writer: it is
`json.dumps` of `SnapshotDelta.to_dict()`.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from json.encoder import encode_basestring as quote


# A name, since an f-string expression may not hold a backslash before Python 3.12.
_SEPARATOR = ",\n"


def array(items: list[str], indent: str) -> str:
    """An array of items already formatted at `indent` plus two spaces; it closes at `indent`, and is `[]` if empty."""
    return f"[\n{_SEPARATOR.join(items)}\n{indent}]" if items else "[]"


def strings(values: Iterable[str], indent: str) -> str:
    """An array of strings that closes at `indent`."""
    inner = indent + "  "
    return array([inner + quote(v) for v in values], indent)


def value(obj, indent: str) -> str:
    """Any JSON value nested at `indent`, for the small parts of a document whose schema is not fixed.

    `json.dumps` escapes every newline inside a string, so each newline it writes starts a line of the layout.
    """
    return json.dumps(obj, indent=2, ensure_ascii=False).replace("\n", "\n" + indent)
