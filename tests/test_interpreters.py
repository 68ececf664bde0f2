"""The command line gives the same bytes and exit codes under `python -O` and on every other Python found.

Each case runs `python -m taxarch.cli` in a subprocess with `PYTHONPATH` set to `src/`, in a fresh
directory, and compares the exit code, both output streams and every file written there with what `main`
gives in this process. `python -O` strips `assert` statements, and invariant checks must hold without
them. The other interpreters are each `python3.N` (N >= 10) on `PATH` that starts, one per version other
than the running one: the standard library differs between versions (`date.fromisoformat` accepts more
forms from 3.11 on), and an artifact must not. A pyenv shim for a version that pyenv does not select
exits 127; when `pyenv` is on `PATH`, such a shim is tried again with `PYENV_VERSION` set to each
installed 3.N.x that `pyenv versions --bare` lists.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from taxarch.cli import main
from taxarch.generate import fixture
from taxarch.ingest import serialize_bundle

SRC = Path(__file__).resolve().parent.parent / "src"


def _bundle_with(mutate) -> bytes:
    doc = json.loads(serialize_bundle(fixture("devnullsoft")))
    mutate(doc)
    return json.dumps(doc).encode()


SELF_DEPENDENCY = _bundle_with(
    lambda doc: doc["dependencies"].append(
        {"user": "svc-00", "owner_component": "svc-00", "kind": "use", "multiplicity": 1}
    )
)
COMPACT_DATE = _bundle_with(lambda doc: doc.update(taken_at="20230401"))
WEEK_DATE = _bundle_with(lambda doc: doc["owners"][1]["location_evidence"][0].update(recorded_at="2023-W13-6"))

# (arguments, input files written first, the running interpreter's expected exit code)
CASES = {
    "report-devnullsoft": (["report", "--fixture", "devnullsoft", "--out-dir", "out"], {}, 0),
    "report-casestudy": (["report", "--fixture", "casestudy_matrix", "--out-dir", "out"], {}, 0),
    "gen": (
        ["gen", "--components", "40", "--teams", "5", "--jurisdictions", "DEU:0.5,FRA:0.3,UNKNOWN:0.2", "--seed", "3"],
        {},
        0,
    ),
    # Several rounds of bulk draws, with rejected words and repeated pairs.
    "gen-rounds": (
        ["gen", "--components", "300", "--teams", "7", "--density", "30", "--unresolved-rate", "0.3", "--seed", "5"],
        {},
        0,
    ),
    "validate-compact-date": (["validate", "in.json"], {"in.json": COMPACT_DATE}, 2),
    "report-week-date": (["report", "in.json", "--out-dir", "out"], {"in.json": WEEK_DATE}, 2),
}


def _outcome(python: list[str], args: list[str], inputs: dict[str, bytes], where: Path, env: dict | None = None):
    """(exit code, stdout, stderr, {path: bytes} of the files the command wrote) of one command run in `where`,
    with `env` added to the environment."""
    where.mkdir()
    for name, data in inputs.items():
        (where / name).write_bytes(data)
    env = dict(os.environ, PYTHONPATH=str(SRC), **(env or {}))
    proc = subprocess.run(
        [*python, "-m", "taxarch.cli", *args], cwd=where, env=env, capture_output=True, timeout=60, check=False
    )
    return proc.returncode, proc.stdout, proc.stderr, _written(where, inputs)


def _written(where: Path, inputs: dict[str, bytes]) -> dict[str, bytes]:
    files = sorted(p for p in where.rglob("*") if p.is_file() and p.name not in inputs)
    return {str(p.relative_to(where)): p.read_bytes() for p in files}


def _other_pythons() -> list[tuple[str, dict[str, str]]]:
    """The first `python3.N` (N >= 10) on PATH that starts, for each version other than the running one, with the
    environment it starts in: empty, or a `PYENV_VERSION` that makes a pyenv shim start."""
    pyenv = shutil.which("pyenv")
    installed = []
    if pyenv:
        listed = subprocess.run([pyenv, "versions", "--bare"], capture_output=True, text=True, timeout=30, check=False)
        installed = listed.stdout.split()
    found = {}
    for directory in filter(None, os.environ.get("PATH", "").split(os.pathsep)):
        for exe in sorted(Path(directory).glob("python3.*")):
            match = re.fullmatch(r"python3\.(\d+)", exe.name)
            if match is None or int(match[1]) < 10 or int(match[1]) == sys.version_info.minor or match[1] in found:
                continue
            # a version manager's shim may be on PATH for a version it does not currently select
            versions = [v for v in installed if re.fullmatch(rf"3\.{match[1]}\.\d+", v)]
            for env in ({}, *({"PYENV_VERSION": v} for v in versions)):
                probe = subprocess.run(
                    [str(exe), "-c", "import sys; print(sys.version_info.minor)"],
                    env=dict(os.environ, **env),
                    capture_output=True,
                    timeout=30,
                    check=False,
                )
                if probe.returncode == 0 and probe.stdout.strip() == match[1].encode():
                    found[match[1]] = (str(exe), env)
                    break
    return list(found.values())


@pytest.fixture(scope="module")
def other_pythons():
    return _other_pythons()


def _in_process(args: list[str], inputs: dict[str, bytes], where: Path, capsys, monkeypatch):
    """What `_outcome` gives for the running interpreter, from `main` called in this process."""
    where.mkdir()
    for name, data in inputs.items():
        (where / name).write_bytes(data)
    monkeypatch.chdir(where)
    code = main(args)
    out, err = capsys.readouterr()
    return code, out.encode(), err.encode(), _written(where, inputs)


@pytest.mark.parametrize(
    "args, inputs, code",
    [(["validate", "in.json"], {"in.json": SELF_DEPENDENCY}, 1), (*CASES["report-devnullsoft"][:2], 0)],
    ids=["validate-self-dependency", "report-devnullsoft"],
)
def test_dash_o_gives_the_same_bytes_and_exit_codes(args, inputs, code, tmp_path, capsys, monkeypatch):
    expected = _in_process(args, inputs, tmp_path / "in-process", capsys, monkeypatch)
    assert expected[0] == code
    assert _outcome([sys.executable, "-O"], args, inputs, tmp_path / "optimized") == expected


@pytest.mark.parametrize("case", CASES)
def test_other_interpreters_give_the_same_bytes_and_exit_codes(case, other_pythons, tmp_path, capsys, monkeypatch):
    args, inputs, code = CASES[case]
    expected = _in_process(args, inputs, tmp_path / "in-process", capsys, monkeypatch)
    assert expected[0] == code, expected[2]
    if not other_pythons:
        pytest.skip("no other python3.N (N >= 10) on PATH")
    for python, env in other_pythons:
        assert _outcome([python], args, inputs, tmp_path / Path(python).name, env) == expected, (python, env)
