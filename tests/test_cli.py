import json

import pytest

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


def test_bad_resolvers_flag_exit_2(devnullsoft_bundle):
    assert main(["stats", str(devnullsoft_bundle), "--resolvers", "member_majority(0.3)"]) == 2


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


def test_gen_infeasible_exit_2(tmp_path, capsys):
    assert main(["gen", "--components", "3", "--teams", "1", "--density", "100"]) == 2
    assert main(["gen", "--components", "10", "--teams", "2", "--jurisdictions", "swe:1"]) == 2


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
