import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import crossdiff
from crossdiff import fv, solver
from crossdiff.model import Grid

# importing __main__ runs the command line
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(crossdiff.__path__)
                    if m.name != "__main__")


@pytest.mark.parametrize("module_name", ["crossdiff"] + [f"crossdiff.{m}" for m in SUBMODULES])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == []


def test_benchmark_tracer_targets_exist():
    # the benchmark's tracer patches these attributes in place; a renamed one
    # would surface only as a KeyError under --trace 1
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, attrs in tracing._SPANS.items():
        module = importlib.import_module(f"crossdiff.{module_name}")
        assert [a for a in attrs if a not in module.__dict__] == [], module_name
    assert [a for a in tracing._BUILDER_SPANS if a not in fv.SystemBuilder.__dict__] == []
    assert all(isinstance(Grid.__dict__.get(a), property) for a in tracing._COUNTED_PROPERTIES)
    # the benchmark's generic workloads call the three-argument form
    inspect.signature(solver.mass_balance_residual).bind("result", "spec", "grid")
