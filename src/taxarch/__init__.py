"""Jurisdiction-level architecture descriptions for tax compliance."""

__version__ = "0.1.0"

from .classify import (
    ComplianceStats,
    EdgeClass,
    ExclusionReport,
    JurisdictionFlowMatrix,
    ScopePolicy,
    aggregate,
    apply_scope_filter,
    classify_edge,
    compute_stats,
)
from .diff import PipelineRun, SnapshotDelta, diff_snapshots, run_pipeline
from .generate import GeneratorParams, fixture, generate
from .ingest import assemble_from_csv, parse_bundle, serialize_bundle
from .model import (
    UNKNOWN,
    ArchitectureSnapshot,
    Component,
    DependencyEdge,
    Owner,
    OwnershipAssignment,
    ValidationReport,
    validate_snapshot,
)
from .resolve import (
    DEFAULT_CASCADE,
    JurisdictionAssignment,
    Resolver,
    parse_cascade,
    resolution_summary,
    resolve_jurisdictions,
)
from .views import (
    BucketScheme,
    RegisterTables,
    bucketize,
    build_registers,
    emit_graph,
    emit_registers,
    emit_report,
    emit_table,
)

__all__ = [
    "UNKNOWN",
    "ArchitectureSnapshot",
    "BucketScheme",
    "ComplianceStats",
    "Component",
    "DEFAULT_CASCADE",
    "DependencyEdge",
    "EdgeClass",
    "ExclusionReport",
    "GeneratorParams",
    "JurisdictionAssignment",
    "JurisdictionFlowMatrix",
    "Owner",
    "OwnershipAssignment",
    "PipelineRun",
    "RegisterTables",
    "Resolver",
    "ScopePolicy",
    "SnapshotDelta",
    "ValidationReport",
    "aggregate",
    "apply_scope_filter",
    "assemble_from_csv",
    "bucketize",
    "build_registers",
    "classify_edge",
    "compute_stats",
    "diff_snapshots",
    "emit_graph",
    "emit_registers",
    "emit_report",
    "emit_table",
    "fixture",
    "generate",
    "parse_bundle",
    "parse_cascade",
    "resolution_summary",
    "resolve_jurisdictions",
    "run_pipeline",
    "serialize_bundle",
    "validate_snapshot",
]
