"""The README's "Library" example runs as written, so the documented API cannot drift from the package."""

import re
from pathlib import Path

from taxarch.generate import fixture
from taxarch.ingest import serialize_bundle

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs_on_the_devnullsoft_bundle(tmp_path, monkeypatch, capsys):
    (tmp_path / "snapshot.json").write_bytes(serialize_bundle(fixture("devnullsoft")))
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(_library_example(), "README.md", "exec"), namespace)
    stats = namespace["run"].stats
    assert (stats.domestic_count, stats.cross_border_count, stats.unresolved_count) == (8, 9, 0)
    assert capsys.readouterr().out.startswith("{'total_uses': 17,")
    assert namespace["components_csv"].startswith("component,owner\n")
