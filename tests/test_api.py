import ast
import importlib
import importlib.util
import inspect
import pkgutil
import re
import subprocess
import sys
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


def test_import_and_small_run_leave_scipy_fft_unimported():
    # scipy.fft imports scipy.special; only runs whose grids take the transform pay for it
    code = """
import sys
import crossdiff
assert "scipy.fft" not in sys.modules, "import"
from crossdiff import fv
from crossdiff.model import CrossTensor, Grid, ModelSpec
from crossdiff.solver import StepperConfig, run
grid = Grid((32, 32), (1.0, 1.0))
assert 2 * grid.n_cells > fv.DIRECT_MAX_UNKNOWNS[2] and grid.n_cells < fv.TRANSFORM_MIN_CELLS[2]
iso = CrossTensor.isotropic(1.0, 2)
spec = ModelSpec(m=2, delta=[1.0, 1.0], K=[[iso, iso], [iso, iso]], ell=1.0,
                 domain=grid.extents, initial=[0.5, 0.5], dirichlet=[0.5, 0.5],
                 sources=[1.0, None])
result = run(spec, grid, StepperConfig(dt=1e-3, t_end=2e-3))
assert all(st["lin_iters"] > 0 for st in result.solver_stats)
assert "scipy.fft" not in sys.modules, "run"
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_third_party_imports_are_declared_dependencies():
    # every package crossdiff imports outside the standard library, lazily imported ones
    # included, is a dependency of pyproject.toml; each imports under its distribution's name
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                for dep in project["dependencies"]}
    imported = set()
    for path in sorted((root / "src" / "crossdiff").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"crossdiff"}
    assert {"numpy", "scipy", "orjson"} <= third_party
    assert sorted(third_party - declared) == []
