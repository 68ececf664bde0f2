import ast
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import taxarch
from taxarch import cli
from taxarch.cli import main
from taxarch.generate import fixture
from taxarch.ingest import serialize_bundle


@pytest.fixture
def devnullsoft_bundle(tmp_path):
    path = tmp_path / "devnullsoft.json"
    path.write_bytes(serialize_bundle(fixture("devnullsoft")))
    return path


def test_validate_ok(devnullsoft_bundle, capsys):
    assert main(["validate", str(devnullsoft_bundle)]) == 0
    assert "status: ok" in capsys.readouterr().out


def test_validate_failure_exit_1(tmp_path, capsys):
    doc = json.loads(serialize_bundle(fixture("devnullsoft")))
    doc["ownership"].append({"component": "svc-00", "owner": "team-ltd-commerce"})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert "multiple-owners" in capsys.readouterr().out


def test_a_repeated_ownership_row_is_a_duplicate_assignment(tmp_path, capsys):
    doc = json.loads(serialize_bundle(fixture("devnullsoft")))
    doc["ownership"].append(dict(doc["ownership"][0]))
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "duplicate-assignment" in out and "multiple-owners" not in out


def test_validate_unreadable_exit_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


def test_validate_unparseable_exit_2(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("not json")
    assert main(["validate", str(path)]) == 2


def test_report_devnullsoft_fixture(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["report", "--fixture", "devnullsoft", "--out-dir", str(out)]) == 0
    assert capsys.readouterr().out.startswith("total=17 domestic=8 cross_border=9 unresolved=0")
    for name in ("view.dot", "view.csv", "registers.csv", "report.json"):
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert report["stats"]["cross_border"] == 9
    assert report["metadata"]["cascade"]


def test_report_casestudy_fixture(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["report", "--fixture", "casestudy_matrix", "--out-dir", str(out)]) == 0
    assert "total=16533" in capsys.readouterr().out
    dot = (out / "view.dot").read_text()
    assert dot.count("->") == 22
    table = (out / "view.csv").read_text()
    assert "4069" in table


def test_report_bucketed(tmp_path):
    out = tmp_path / "out"
    assert main(["report", "--fixture", "casestudy_matrix", "--buckets", "default", "--out-dir", str(out)]) == 0
    dot = (out / "view.dot").read_text()
    labels = {line.split('label="')[1].split('"')[0] for line in dot.splitlines() if "label=" in line}
    assert labels <= {"[1,10)", "[10,100)", "[100,∞)"}


def test_report_outputs_are_reproducible(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["report", "--fixture", "devnullsoft", "--out-dir", str(out1)])
    main(["report", "--fixture", "devnullsoft", "--out-dir", str(out2)])
    for name in ("view.dot", "view.csv", "registers.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_report_invalid_bundle_aborts(tmp_path):
    doc = json.loads(serialize_bundle(fixture("devnullsoft")))
    doc["ownership"] = doc["ownership"][:-1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["report", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out" / "report.json").exists()


def test_stats_casestudy(capsys):
    assert main(["stats", "--fixture", "casestudy_matrix"]) == 0
    out = capsys.readouterr().out
    assert "unresolved=8097" in out


def test_stats_with_config_file(tmp_path, devnullsoft_bundle, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"resolvers": "explicit_assignment,member_majority(0.9)"}))
    assert main(["stats", str(devnullsoft_bundle), "--config", str(config)]) == 0
    assert "total=17" in capsys.readouterr().out


def test_unknown_config_key_exit_2(tmp_path, devnullsoft_bundle, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"resolver_order": []}))
    assert main(["stats", str(devnullsoft_bundle), "--config", str(config)]) == 2


@pytest.mark.parametrize(
    "config",
    [
        {"include_statuses": 5},
        {"include_statuses": ["production", 5]},
        {"resolvers": 5},
        {"resolvers": ["explicit_assignment"]},
        {"keep_individual_owners": "no"},
        {"buckets": True},
    ],
)
def test_wrongly_typed_config_value_exit_2(tmp_path, devnullsoft_bundle, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["report", str(devnullsoft_bundle), "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: config key {next(iter(config))!r} must be ")


def test_config_fills_only_unset_flags(tmp_path, devnullsoft_bundle, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"resolvers": "member_majority(0.3)", "format": "markdown", "buckets": 10}))
    assert main(["report", str(devnullsoft_bundle), "--config", str(path), "--out-dir", str(tmp_path / "a")]) == 2
    args = ["report", str(devnullsoft_bundle), "--config", str(path), "--resolvers", "explicit_assignment"]
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "view.md").read_text().startswith("| user |")
    assert not (tmp_path / "b" / "view.csv").exists()
    assert "[1,10)" in (tmp_path / "b" / "view.dot").read_text()


@pytest.mark.parametrize("command", ["report", "stats"])
def test_bundle_and_fixture_are_exclusive_and_one_is_required(tmp_path, capsys, command):
    out = ["--out-dir", str(tmp_path / "out")] if command == "report" else []
    for args in ([str(tmp_path / "missing.json"), "--fixture", "devnullsoft"], []):
        with pytest.raises(SystemExit) as exc:
            main([command] + args + out)
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "not allowed with argument bundle" in err
    assert "one of the arguments bundle --fixture is required" in err
    assert not (tmp_path / "out").exists()


# Each bad flag or config, with the one `error:` line it exits 2 with; `{bundle}` is the devnullsoft bundle and
# `{tmp}` the test's directory, which holds the configs `list.json` (`[]`) and `html.json` (`{"format": "html"}`).
_BAD_FLAGS = [
    (["stats", "{bundle}", "--include-statuses", ",,"], "include_statuses must not be empty"),
    (
        ["stats", "{bundle}", "--include-statuses", "PRODUCTION"],
        "bad --include-statuses: 'PRODUCTION' is not a valid ComponentStatus",
    ),
    (
        ["stats", "{bundle}", "--resolvers", "member_majority(0.3)"],
        "member_majority threshold must be in (0.5, 1], got 0.3",
    ),
    (["stats", "{bundle}", "--resolvers", "member_majority(x)"], "bad resolver parameter in 'member_majority(x)'"),
    (["stats", "{bundle}", "--resolvers", ",,"], "cascade must name at least one resolver"),
    (
        ["stats", "{bundle}", "--resolvers", "explicit_assignment(0.9)"],
        "resolver 'explicit_assignment' takes no threshold",
    ),
    (
        ["report", "{bundle}", "--buckets", "1,1", "--out-dir", "{tmp}/out"],
        "bad --buckets: boundaries must be strictly ascending and >= 2, got (1, 1)",
    ),
    (
        ["report", "{bundle}", "--buckets", "x", "--out-dir", "{tmp}/out"],
        "bad --buckets 'x' (expected none, default or BOUNDARY,...)",
    ),
    (
        ["gen", "--components", "10", "--teams", "2", "--jurisdictions", "SWE", "--out", "{tmp}/out"],
        "bad --jurisdictions 'SWE' (expected CODE:WEIGHT,...)",
    ),
    (
        ["stats", "{bundle}", "--config", "{tmp}/missing.json"],
        "cannot read config {tmp}/missing.json: No such file or directory",
    ),
    (["validate", "{tmp}/missing.json"], "cannot read {tmp}/missing.json: No such file or directory"),
    (["fixture", "devnullsoft", "--out", "{tmp}/list.json/out"], "cannot write {tmp}/list.json/out: Not a directory"),
    (["report", "{bundle}", "--out-dir", "{tmp}/list.json"], "cannot write {tmp}/list.json: File exists"),
    (["stats", "{bundle}", "--config", "{tmp}/list.json"], "config {tmp}/list.json must be a JSON object"),
    (
        ["report", "{bundle}", "--config", "{tmp}/html.json", "--out-dir", "{tmp}/out"],
        "unsupported table format 'html' for report",
    ),
]


@pytest.mark.parametrize("argv, error", _BAD_FLAGS)
def test_bad_flag_or_config_exit_2_with_its_error_line(tmp_path, devnullsoft_bundle, capsys, argv, error):
    (tmp_path / "list.json").write_text("[]")
    (tmp_path / "html.json").write_text(json.dumps({"format": "html"}))
    where = {"bundle": devnullsoft_bundle, "tmp": tmp_path}
    assert main([arg.format(**where) for arg in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {error.format(**where)}\n")
    assert not (tmp_path / "out").exists()


def test_report_records_the_include_statuses_it_ran_with(tmp_path):
    argv = ["report", "--fixture", "devnullsoft", "--include-statuses", "deprecated,production"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert doc["metadata"]["scope_policy"]["include_statuses"] == ["deprecated", "production"]


def test_diff_identical_bundles(devnullsoft_bundle, capsys):
    assert main(["diff", str(devnullsoft_bundle), str(devnullsoft_bundle)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["components_added"] == []
    assert doc["matrix_delta"] == []


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--components", "40", "--teams", "6", "--seed", "7", "--density", "2"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(["validate", str(a)]) == 0


def test_report_json_is_canonical_on_a_generated_bundle_with_non_ascii_ids(tmp_path, capsys):
    bundle = tmp_path / "gen.json"
    flags = ["--components", "30", "--teams", "5", "--unresolved-rate", "0.3", "--seed", "3"]
    assert main(["gen", *flags, "--out", str(bundle)]) == 0
    doc = json.loads(bundle.read_text(encoding="utf-8"))

    def odd(text):  # non-ASCII, U+2028, and characters JSON escapes
        return f'{text}-é中\u2028"\\\t'

    for record, fields in (
        ("components", ("id", "name")),
        ("dependencies", ("user", "owner_component")),
        ("owners", ("id", "name")),
        ("ownership", ("component", "owner")),
    ):
        for r in doc[record]:
            r.update((field, odd(r[field])) for field in fields)
    bundle.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["report", str(bundle), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    text = (out / "report.json").read_text(encoding="utf-8")
    assert "é中\u2028" in text and len(json.loads(text)["component_register"]) == 30
    assert text == json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n"


def test_gen_infeasible_exit_2(tmp_path, capsys):
    assert main(["gen", "--components", "3", "--teams", "1", "--density", "100"]) == 2
    assert main(["gen", "--components", "10", "--teams", "2", "--jurisdictions", "swe:1"]) == 2


def test_gen_count_above_one_word_exit_2(capsys):
    # Refused by GeneratorParams, before any of the 2**32 records is built.
    assert main(["gen", "--components", "4294967296", "--teams", "1", "--density", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: component_count and team_count must be at most 4294967295\n"


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--density", "inf"], "dependency_density"),
        (["--density", "1e308"], "density 1e+308"),
        (["--density", "nan"], "dependency_density"),
        (["--jurisdictions", "DEU:nan,FRA:nan"], "jurisdiction weight"),
        (["--jurisdictions", "DEU:1.5,FRA:-0.5"], "jurisdiction weight"),
    ],
    ids=["density-inf", "density-1e308", "density-nan", "weights-nan", "weights-outside-0-1"],
)
def test_gen_non_finite_or_out_of_range_params_exit_2(flags, named, capsys):
    assert main(["gen", "--components", "5", "--teams", "2"] + flags) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and named in err


def test_gen_repeated_jurisdiction_exit_2(capsys):
    args = ["gen", "--components", "10", "--teams", "3", "--jurisdictions", "SWE:0.5, SWE:0.5,DEU:0.5"]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: repeated jurisdiction 'SWE' in --jurisdictions\n"


def test_fixture_subcommand(tmp_path):
    out = tmp_path / "d.json"
    assert main(["fixture", "devnullsoft", "--out", str(out)]) == 0
    assert main(["validate", str(out)]) == 0
    table = tmp_path / "t.csv"
    assert main(["fixture", "casestudy_matrix", "--out", str(table)]) == 0
    assert "4069" in table.read_text()


@pytest.mark.parametrize(
    "command",
    ["report", "stats", "diff", "validate", "report-member_majority", "stats-member_majority", "diff-member_majority"],
)
def test_conflicting_evidence_exit_1_without_traceback(tmp_path, capsys, command):
    doc = json.loads(serialize_bundle(fixture("devnullsoft")))
    evidence = doc["owners"][0]["location_evidence"]
    evidence.append(dict(evidence[0], payload="FRA"))
    path = tmp_path / "conflict.json"
    path.write_text(json.dumps(doc))
    name, _, resolvers = command.partition("-")
    args = {
        "validate": ["validate", str(path)],
        "report": ["report", str(path), "--out-dir", str(tmp_path / "out")],
        "stats": ["stats", str(path)],
        "diff": ["diff", str(path), str(path)],
    }[name] + (["--resolvers", resolvers] if resolvers else [])
    assert main(args) == 1
    out, err = capsys.readouterr()
    # validate prints its findings on stdout; the other commands fail on stderr.
    shown = out if name == "validate" else err
    assert shown.startswith("error: ") and "conflicting" in shown
    assert "error: conflicting-evidence: owner 'team-ab-apps'" in shown.splitlines()[0]
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, outcome",
    [
        (["report", "--fixture", "devnullsoft", "--out-dir", "{out}"], 0),
        (["report", "--fixture", "devnullsoft", "--resolvers", "nonsense", "--out-dir", "{out}"], 2),
        (["report", "--no-such-flag"], SystemExit),
    ],
    ids=["success", "exit-2", "argparse-error"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_main_pauses_the_collector_and_restores_the_callers_state(tmp_path, monkeypatch, argv, outcome, enabled):
    argv = [arg.format(out=tmp_path / "out") for arg in argv]
    during = []
    run_report = cli.cmd_report

    def report_noting_the_collector(args):
        during.append(gc.isenabled())
        return run_report(args)

    monkeypatch.setattr(cli, "cmd_report", report_noting_the_collector)
    (gc.enable if enabled else gc.disable)()
    frozen = gc.get_freeze_count()
    try:
        if outcome is SystemExit:
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main(argv) == outcome
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert during == ([] if outcome is SystemExit else [False])
    assert gc.get_freeze_count() == frozen  # only the process entry, `run`, freezes


# In a child: the exit code, and on exit whether the collector had frozen objects, after `cli.run()`.
_RUN_CHILD = """
import atexit, gc, sys
from taxarch import cli
atexit.register(lambda: sys.stderr.write(f"frozen at exit: {gc.get_freeze_count() > 0}\\n"))
sys.argv = ["taxarch", *sys.argv[1:]]
sys.exit(cli.run())
"""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["gen", "--components", "10", "--teams", "2", "--seed", "3"], 0),
        (["stats", "--fixture", "devnullsoft", "--resolvers", "nonsense"], 2),
    ],
    ids=["success", "exit-2"],
)
def test_the_process_entry_runs_main_then_freezes_and_still_flushes_and_runs_atexit(capsysbinary, argv, code):
    assert main(argv) == code
    expected = capsysbinary.readouterr()
    child = subprocess.run([sys.executable, "-c", _RUN_CHILD, *argv], capture_output=True, env=_child_env(), timeout=60)
    assert child.returncode == code
    assert child.stdout == expected.out  # the buffered artifact is flushed at exit
    assert child.stderr == expected.err + b"frozen at exit: True\n"


def test_the_taxarch_script_and_the_main_block_call_the_same_entry():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    script = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]["taxarch"]
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    (block,) = [
        node for node in tree.body if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    calls = [node.func for node in ast.walk(block) if isinstance(node, ast.Call)]
    (called,) = [func.id for func in calls if isinstance(func, ast.Name)]
    assert script == f"taxarch.cli:{called}"
    assert called != "main"  # `main` never freezes; the entry does


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (["report", "--fixture", "devnullsoft", "--out-dir", "{file}"], None),
        (["report", "--fixture", "devnullsoft", "--out-dir", "{file}/sub"], None),
        (["diff", "{bundle}", "{bundle}", "--out", "{tmp}/missing/delta.json"], None),
        (["gen", "--components", "10", "--teams", "2", "--out", "{tmp}/missing/bundle.json"], None),
        (["fixture", "devnullsoft", "--out", "{tmp}/missing/bundle.json"], None),
        (["diff", "{bundle}", "{bundle}"], "/dev/full"),
    ],
    ids=["report-out-dir-is-a-file", "report-out-dir-under-a-file", "diff-out", "gen-out", "fixture-out", "diff-stdout-full"],
)
def test_unwritable_output_exit_2_without_traceback(tmp_path, devnullsoft_bundle, argv, stdout):
    if stdout is not None and not Path(stdout).exists():
        pytest.skip(f"{stdout} is not on this system")
    (tmp_path / "file").write_text("not a directory")
    argv = [arg.format(file=tmp_path / "file", bundle=devnullsoft_bundle, tmp=tmp_path) for arg in argv]
    with open(stdout or os.devnull, "wb") as out:
        run = _run_child(argv, out)
    _assert_one_write_error(run)


@pytest.mark.parametrize("command", ["validate", "report", "stats", "diff"])
def test_over_long_json_number_exit_2_on_every_command(tmp_path, capsys, command):
    text = serialize_bundle(fixture("devnullsoft")).decode()
    path = tmp_path / "long.json"
    path.write_text(text.replace('"schema_version": 1', '"schema_version": 1' + "0" * 5000, 1))
    args = {
        "validate": ["validate", str(path)],
        "report": ["report", str(path), "--out-dir", str(tmp_path / "out")],
        "stats": ["stats", str(path)],
        "diff": ["diff", str(path), str(path)],
    }[command]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {path}: JSON number has more digits than an integer may have\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["diff", "{bundle}", "{bundle}"],
        ["gen", "--components", "10", "--teams", "2"],
        ["fixture", "devnullsoft"],
    ],
    ids=["diff", "gen", "fixture"],
)
def test_stdout_pipe_closed_exit_2_with_one_error_line(devnullsoft_bundle, argv):
    # The interpreter ignores SIGPIPE, so a write to a pipe without a reader fails with EPIPE; the bytes the
    # failed flush left buffered must not fail a second time when the child exits.
    argv = [arg.format(bundle=devnullsoft_bundle) for arg in argv]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = _run_child(argv, write_end)
    finally:
        os.close(write_end)
    _assert_one_write_error(run)
    assert run.stderr.startswith(b"error: cannot write standard output: ")


def _child_env():
    # Standard output buffered, as it is by default: unbuffered, it keeps no bytes that could fail again on exit.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(taxarch.__file__).parents[1])
    return env


def _run_child(argv, stdout):
    return subprocess.run(
        [sys.executable, "-m", "taxarch.cli", *argv], stdout=stdout, stderr=subprocess.PIPE, env=_child_env()
    )


def _assert_one_write_error(run):
    err = run.stderr.decode("utf-8", "replace")
    assert run.returncode == 2, err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1 and err.endswith("\n"), err


@pytest.mark.parametrize("command", ["validate", "report", "stats", "diff"])
def test_unpaired_surrogate_exit_2_on_every_command(tmp_path, capsys, command):
    doc = json.loads(serialize_bundle(fixture("devnullsoft")))
    doc["components"][0]["id"] = "\ud800"
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(doc))
    args = {
        "validate": ["validate", str(path)],
        "report": ["report", str(path), "--out-dir", str(tmp_path / "out")],
        "stats": ["stats", str(path)],
        "diff": ["diff", str(path), str(path)],
    }[command]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: components[0].id holds an unpaired surrogate, which UTF-8 cannot encode\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["diff", "{bundle}", "{bundle}"],
        ["gen", "--components", "10", "--teams", "2", "--seed", "3"],
        ["fixture", "casestudy_matrix"],
    ],
    ids=["diff", "gen", "fixture"],
)
def test_stdout_artifact_equals_out_file(tmp_path, devnullsoft_bundle, capsysbinary, argv):
    argv = [arg.format(bundle=devnullsoft_bundle) for arg in argv]
    assert main(argv + ["--out", str(tmp_path / "artifact")]) == 0
    expected = (tmp_path / "artifact").read_bytes()
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == expected
