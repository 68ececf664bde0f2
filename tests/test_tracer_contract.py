"""The benchmark tracer wraps program functions by name from outside the
package (`perfbench/tracer.py`, table `LAYER_OF_SPAN`). Renaming or
unbinding one of those names breaks traced benchmark runs, so the
contract is checked here by installing the tracer and taking it out, and
by tracing a `report` and a `diff` to see that the wrapped names are
called."""

import importlib.util
from pathlib import Path

from taxarch.generate import fixture
from taxarch.ingest import serialize_bundle

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound_and_restored():
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    owners = tracer._owners
    targets = [name.split(".") for name in tracer_module.LAYER_OF_SPAN]
    unbound = [f"{owner}.{attr}" for owner, attr in targets if not hasattr(owners[owner], attr)]
    assert unbound == [], f"names the tracer wraps are not bound: {unbound}"
    originals = {(owner, attr): getattr(owners[owner], attr) for owner, attr in targets}
    with tracer._installed():
        assert all(getattr(owners[owner], attr) is not fn for (owner, attr), fn in originals.items())
    assert all(getattr(owners[owner], attr) is fn for (owner, attr), fn in originals.items())


def _traced(argv):
    wall, code, metrics = _load_tracer().Tracer().run(argv)
    assert code == 0
    return metrics


def test_traced_names_are_called_and_owner_of_is_built_once_per_snapshot(tmp_path):
    bundle = tmp_path / "devnullsoft.json"
    bundle.write_bytes(serialize_bundle(fixture("devnullsoft")))
    report = _traced(["report", "--fixture", "devnullsoft", "--out-dir", str(tmp_path / "out")])
    diff = _traced(["diff", str(bundle), str(bundle), "--out", str(tmp_path / "delta.json")])
    for metrics, snapshots in ((report, 1), (diff, 2)):
        assert metrics["resolve.calls"] == snapshots
        assert metrics["model.owner_of_calls"] == snapshots
        assert metrics["classify.aggregate_edges"] > 0
        for span in ("classify.scope_s", "classify.aggregate_s", "resolve.resolve_s"):
            assert metrics[span] > 0, span
