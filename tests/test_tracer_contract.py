"""The benchmark tracer wraps program functions by name from outside the
package (`perfbench/tracer.py`, table `LAYER_OF_SPAN`). Renaming or
unbinding one of those names breaks traced benchmark runs, so the
contract is checked here by installing the tracer and taking it out."""

import importlib.util
from pathlib import Path

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
