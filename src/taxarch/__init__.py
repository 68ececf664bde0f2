"""Jurisdiction-level architecture descriptions for tax compliance.

`import taxarch` imports none of its submodules. A public name, or a submodule by its own name, is imported on first
use and then bound here, so a caller pays only for the modules it reads.
"""

import importlib.util

__version__ = "0.1.0"

# Each public name -> the submodule that defines it.
_HOMES = {
    "ComplianceStats": "classify",
    "EdgeClass": "classify",
    "ExclusionReport": "classify",
    "JurisdictionFlowMatrix": "classify",
    "ScopePolicy": "classify",
    "aggregate": "classify",
    "apply_scope_filter": "classify",
    "classify_edge": "classify",
    "compute_stats": "classify",
    "PipelineRun": "diff",
    "SnapshotDelta": "diff",
    "diff_snapshots": "diff",
    "run_pipeline": "diff",
    "GeneratorParams": "generate",
    "fixture": "generate",
    "parse_bundle": "ingest",
    "serialize_bundle": "ingest",
    "UNKNOWN": "model",
    "ArchitectureSnapshot": "model",
    "Component": "model",
    "DependencyEdge": "model",
    "EdgeTable": "model",
    "Owner": "model",
    "OwnershipAssignment": "model",
    "ValidationReport": "model",
    "validate_snapshot": "model",
    "DEFAULT_CASCADE": "resolve",
    "JurisdictionAssignment": "resolve",
    "Resolver": "resolve",
    "parse_cascade": "resolve",
    "resolution_summary": "resolve",
    "resolve_jurisdictions": "resolve",
    "BucketScheme": "views",
    "RegisterTables": "views",
    "bucketize": "views",
    "build_registers": "views",
    "emit_graph": "views",
    "emit_registers": "views",
    "emit_report": "views",
    "emit_table": "views",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    """Import the submodule that defines `name`, or that `name` is, bind the value here and return it."""
    home = _HOMES.get(name)
    if home is None and not (name.isidentifier() and importlib.util.find_spec(f"{__name__}.{name}")):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{home or name}")
    if home:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
