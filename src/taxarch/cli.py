"""Command-line front end.

Exit codes: 0 success, 1 domain/validation failure, 2 input or
configuration failure. Standard output carries human summaries; files
carry artifacts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

from . import __version__
from .generate import FIXTURE_NAMES, GeneratorParams, fixture, generate
from .model import ArchitectureSnapshot, ComponentStatus, validate_snapshot

# Each name the commands take from a submodule other than `generate` and `model` -> that submodule. The names are
# imported on first use, so that a command loads only the submodules it runs: `main` binds the names of the chosen
# command's submodules (`_RUNS`) before running it, and `__getattr__` serves any of them to a caller from outside.
# The benchmark's tracer reads, and replaces with wrappers, some names here that no command calls from this module:
# `aggregate`, `apply_scope_filter`, `resolution_summary` and `resolve_jurisdictions`.
_HOMES = {
    "JurisdictionFlowMatrix": "classify",
    "ScopePolicy": "classify",
    "aggregate": "classify",
    "apply_scope_filter": "classify",
    "compute_stats": "classify",
    "PipelineRun": "diff",
    "diff_snapshots": "diff",
    "run_pipeline": "diff",
    "IngestError": "ingest",
    "parse_bundle": "ingest",
    "serialize_bundle": "ingest",
    "DEFAULT_CASCADE": "resolve",
    "CascadeConfigError": "resolve",
    "parse_cascade": "resolve",
    "resolution_summary": "resolve",
    "resolve_jurisdictions": "resolve",
    "BucketScheme": "views",
    "BucketSchemeError": "views",
    "build_registers": "views",
    "emit_graph": "views",
    "emit_registers": "views",
    "emit_report": "views",
    "emit_table": "views",
}

# The submodules of `_HOMES` each command runs; `generate` and `model` are imported with this module.
_RUNS = {
    "validate": ("ingest",),
    "gen": ("ingest",),
    "fixture": ("ingest", "views"),
    "diff": ("classify", "diff", "ingest", "resolve"),
    "stats": ("classify", "diff", "ingest", "resolve"),
    "report": ("classify", "diff", "ingest", "resolve", "views"),
}


def __getattr__(name: str):
    """Import `name` from the submodule that defines it, bind it here and return it."""
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `__import__` with a from-list gives the submodule, as `importlib.import_module` does, but through the import
    # statement's own path, so that `python -X importtime` reports the submodule it loads.
    value = getattr(__import__(f"{__package__}.{home}", fromlist=[name]), name)
    globals()[name] = value
    return value


def _bind(command: str) -> None:
    """Bind the names of the submodules `command` runs. A name already bound stays as it is: it may be a wrapper
    that a caller put in its place."""
    for name, home in _HOMES.items():
        if home in _RUNS[command] and name not in globals():
            __getattr__(name)


EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


# The JSON types each config key accepts; a list must hold strings only.
_CONFIG_TYPES = {
    "include_statuses": (str, list),
    "keep_individual_owners": (bool,),
    "resolvers": (str,),
    "buckets": (str, int),
    "format": (str,),
}


def _merge_config(args) -> None:
    """Fill the settings the command line left unset from `--config`, checking each type; null is unset."""
    path = getattr(args, "config", None)
    if path is None:
        return
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot read config {path}: {_reason(exc)}") from None
    if not isinstance(config, dict):
        raise CliError(f"config {path} must be a JSON object")
    unknown = config.keys() - _CONFIG_TYPES.keys()
    if unknown:
        raise CliError(f"unknown config key(s): {sorted(unknown)}")
    for key, value in config.items():
        accepted = _CONFIG_TYPES[key]
        if value is not None and (
            type(value) not in accepted or (type(value) is list and not all(type(v) is str for v in value))
        ):
            names = " or ".join("list of str" if t is list else t.__name__ for t in accepted)
            raise CliError(f"config key {key!r} must be {names}, got {type(value).__name__}")
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _scope_policy(args) -> ScopePolicy:
    statuses = args.include_statuses
    if statuses is None:
        include = frozenset({ComponentStatus.PRODUCTION})
    else:
        if isinstance(statuses, str):
            statuses = [s for s in statuses.split(",") if s]
        try:
            include = frozenset(ComponentStatus(s) for s in statuses)
        except ValueError as exc:
            raise CliError(f"bad --include-statuses: {exc}") from None
    try:
        return ScopePolicy(include_statuses=include, exclude_individual_owners=not args.keep_individual_owners)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _cascade(args):
    if args.resolvers is None:
        return DEFAULT_CASCADE
    try:
        return parse_cascade(args.resolvers)
    except CascadeConfigError as exc:
        raise CliError(str(exc)) from None


def _bucket_scheme(args) -> BucketScheme | None:
    spec = args.buckets
    if spec in (None, "none"):
        return None
    try:
        if spec == "default":
            return BucketScheme()
        boundaries = tuple(int(b) for b in str(spec).split(",") if b)
        return BucketScheme(boundaries)
    except BucketSchemeError as exc:
        raise CliError(f"bad --buckets: {exc}") from None
    except ValueError:  # a boundary that is no integer
        raise CliError(f"bad --buckets {spec!r} (expected none, default or BOUNDARY,...)") from None


def _reason(exc: Exception) -> str:
    """Why a read or write failed, without the path that an `OSError`'s own text repeats."""
    return getattr(exc, "strerror", None) or str(exc)


def _read_snapshot(path: str) -> ArchitectureSnapshot:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {_reason(exc)}") from None
    try:
        return parse_bundle(data)
    except IngestError as exc:
        raise CliError(f"{path}: {exc}") from None


def _write(data: bytes, path: str | Path | None) -> None:
    """Write an artifact to `path`, or to standard output when there is no path. A write that fails is an input
    failure, exit 2, as a read that fails is."""
    try:
        if path:
            Path(path).write_bytes(data)
        else:
            sys.stdout.flush()
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()
    except OSError as exc:
        if not path:
            # The buffer keeps the bytes it could not write, and the interpreter flushes it again on exit, where
            # the same failure would print "Exception ignored" and exit 120; point fd 1 at devnull to drop them.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise CliError(f"cannot write {path or 'standard output'}: {_reason(exc)}") from None


def _require_valid(snapshot: ArchitectureSnapshot) -> None:
    report = validate_snapshot(snapshot)
    if not report.ok:
        for f in report.findings:
            print(f"error: {f.code}: {f.message}", file=sys.stderr)
        raise CliError("snapshot failed validation", EXIT_DOMAIN)


def _load_run(args, policy: ScopePolicy, cascade) -> PipelineRun:
    """Run the pipeline on the bundle or fixture; a matrix-only fixture is a run with empty registers."""
    loaded = fixture(args.fixture) if args.fixture else _read_snapshot(args.bundle)
    if isinstance(loaded, JurisdictionFlowMatrix):
        return PipelineRun(loaded, compute_stats(loaded))
    _require_valid(loaded)
    return run_pipeline(loaded, cascade, policy)


def _stats_line(stats) -> str:
    return (
        f"total={stats.total_uses} domestic={stats.domestic_count} "
        f"cross_border={stats.cross_border_count} unresolved={stats.unresolved_count}"
    )


def cmd_validate(args) -> int:
    snapshot = _read_snapshot(args.bundle)
    report = validate_snapshot(snapshot)
    for f in report.findings:
        print(f"error: {f.code}: {f.message}")
    print(f"status: {report.status}")
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_report(args) -> int:
    policy = _scope_policy(args)
    cascade = _cascade(args)
    scheme = _bucket_scheme(args)
    table_format = "csv" if args.format is None else args.format
    table_file = {"csv": "view.csv", "markdown": "view.md"}.get(table_format)
    if table_file is None:
        raise CliError(f"unsupported table format {table_format!r} for report")

    run = _load_run(args, policy, cascade)
    metadata = {
        "tool_version": __version__,
        "scope_policy": policy.to_dict(),
        "cascade": [r.describe() for r in cascade],
        "buckets": list(scheme.boundaries) if scheme else None,
    }
    if run.taken_at is not None:
        metadata["taken_at"] = run.taken_at.isoformat()
    registers = build_registers(run)
    component_csv, owner_csv = emit_registers(registers)

    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot write {out_dir}: {_reason(exc)}") from None
    _write(emit_graph(run.matrix, scheme=scheme).encode("utf-8"), out_dir / "view.dot")
    _write(emit_table(run.matrix, table_format, scheme=scheme).encode("utf-8"), out_dir / table_file)
    _write((component_csv + "\n" + owner_csv).encode("utf-8"), out_dir / "registers.csv")
    _write(emit_report(run, registers, metadata).encode("utf-8"), out_dir / "report.json")
    print(_stats_line(run.stats))
    return EXIT_OK


def cmd_stats(args) -> int:
    stats = _load_run(args, _scope_policy(args), _cascade(args)).stats
    print(_stats_line(stats))
    print(
        f"ratios: domestic={stats.domestic_ratio:.4f} "
        f"cross_border={stats.cross_border_ratio:.4f} unresolved={stats.unresolved_ratio:.4f}"
    )
    if stats.resolution is not None:
        r = stats.resolution
        print(f"owners: total={r.total} resolved={r.resolved_count} unresolved={r.unresolved_count}")
    return EXIT_OK


def cmd_diff(args) -> int:
    policy = _scope_policy(args)
    cascade = _cascade(args)
    a = _read_snapshot(args.bundle_a)
    b = _read_snapshot(args.bundle_b)
    for snapshot in (a, b):
        _require_valid(snapshot)
    delta = diff_snapshots(a, b, cascade, policy)
    _write(delta.to_json().encode("utf-8"), args.out)
    return EXIT_OK


def cmd_gen(args) -> int:
    weights = tuple(sorted(_parse_weights(args.jurisdictions).items())) if args.jurisdictions else None
    kwargs = dict(
        component_count=args.components,
        team_count=args.teams,
        unresolved_rate=args.unresolved_rate,
        dependency_density=args.density,
        seed=args.seed,
    )
    if weights:
        kwargs["jurisdiction_weights"] = weights
    try:
        snapshot = generate(GeneratorParams(**kwargs))
    except ValueError as exc:
        raise CliError(str(exc)) from None
    _write(serialize_bundle(snapshot), args.out)
    return EXIT_OK


def _parse_weights(text: str) -> dict[str, float]:
    weights = {}
    try:
        for part in text.split(","):
            code, w = part.split(":")
            code = code.strip()
            if code in weights:
                raise CliError(f"repeated jurisdiction {code!r} in --jurisdictions")
            weights[code] = float(w)
    except ValueError:
        raise CliError(f"bad --jurisdictions {text!r} (expected CODE:WEIGHT,...)") from None
    return weights


def cmd_fixture(args) -> int:
    loaded = fixture(args.name)
    if isinstance(loaded, ArchitectureSnapshot):
        data = serialize_bundle(loaded)
    else:
        data = emit_table(loaded, "csv").encode("utf-8")
    _write(data, args.out)
    return EXIT_OK


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("bundle", nargs="?")
    source.add_argument("--fixture", choices=FIXTURE_NAMES)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--include-statuses", dest="include_statuses", help="comma-separated component statuses in scope")
    p.add_argument(
        "--keep-individual-owners",
        dest="keep_individual_owners",
        action="store_const",
        const=True,
        default=None,
        help="keep components owned by individuals in scope",
    )
    p.add_argument("--resolvers", help="resolver cascade, e.g. explicit_assignment,member_majority(0.75)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taxarch",
        description="Jurisdiction-level architecture descriptions for tax compliance.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a snapshot bundle")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("report", help="run the full pipeline and write view artifacts")
    _add_input_flags(p)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--format", choices=["csv", "markdown"], default=None)
    p.add_argument("--buckets", help="'none', 'default', or comma-separated boundaries")
    _add_config_flags(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("stats", help="print compliance statistics")
    _add_input_flags(p)
    _add_config_flags(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("diff", help="compare two snapshot bundles")
    p.add_argument("bundle_a")
    p.add_argument("bundle_b")
    p.add_argument("--out")
    _add_config_flags(p)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("gen", help="generate a synthetic snapshot bundle")
    p.add_argument("--components", type=int, required=True)
    p.add_argument("--teams", type=int, required=True)
    p.add_argument("--density", type=float, default=2.0)
    p.add_argument("--unresolved-rate", dest="unresolved_rate", type=float, default=0.0)
    p.add_argument("--jurisdictions", help="weights as CODE:WEIGHT,... (must sum to 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fixture", help="write a built-in fixture")
    p.add_argument("name", choices=FIXTURE_NAMES)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fixture)

    return parser


def main(argv: list[str] | None = None) -> int:
    # A command builds acyclic, immutable values (hundreds of thousands of
    # records on a large bundle) that reference counting frees; the cyclic
    # collector's passes over them would reclaim nothing. It is paused for
    # the command and left as the caller had it, whatever way main exits.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        _bind(args.command)
        _merge_config(args)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    finally:
        if collecting:
            gc.enable()


def run() -> int:
    """The process entry: `python -m taxarch.cli` and the `taxarch` script. Runs `main`, then freezes what survives.

    The values a command built are freed by reference counting as `main` returns. What is left, mostly import's
    modules, classes and functions, lives until the process ends, and shutdown's collections would walk it all and
    reclaim nothing; frozen, they skip it. Shutdown still flushes stdio and runs atexit handlers. A library caller of
    `main` never freezes.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
