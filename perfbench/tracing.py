"""Spans and counts taken from outside the package.

``Tracer.install`` wraps the public functions of each ``crossdiff`` layer
where their callers look them up at call time: module attributes that are
read on every call (``fv.solve_sparse``, ``scipy.sparse.linalg.gmres``),
names a module imported from another one (``cli.run``,
``solver.validate_spec``), methods on the class (``SystemBuilder.add_*``)
and counting properties on ``Grid``.  Spans stay in memory; ``metrics``
reduces them to the per-layer numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# wrapped attribute -> span name, per crossdiff module
_SPANS = {
    "model": {"validate_spec": "model.validate_spec"},
    "solver": {"run": "solver.run", "validate_spec": "model.validate_spec"},
    "fv": {"solve_sparse": "fv.solve", "boundary_flux_integral": "fv.boundary_flux"},
    "aquifer": {"run_penalized": "aquifer.run_penalized",
                "run_confined_aquifer": "aquifer.run_confined",
                "confinement_report": "aquifer.confinement_report"},
    "diagnostics": {"level_set_profile": "diagnostics.levels",
                    "degiorgi_trace": "diagnostics.degiorgi",
                    "discrete_grad_norm": "diagnostics.degiorgi",
                    "empirical_interpolation_constant": "diagnostics.degiorgi",
                    "bound_check": "diagnostics.bounds"},
    "cli": {"parse_scenario": "cli.parse", "execute": "cli.execute",
            "run": "solver.run", "validate_spec": "model.validate_spec",
            "snapshots_csv": "cli.snapshots_csv", "series_csv": "cli.series_csv",
            "interface_csv": "cli.interface_csv", "write_outputs": "cli.write"},
}
_BUILDER_SPANS = {"add_mass": "fv.assembly", "add_rhs": "fv.assembly",
                  "add_tpfa": "fv.assembly", "add_explicit_flux": "fv.assembly",
                  "matrix": "fv.matrix"}
_COUNTED_PROPERTIES = {"spacing": "model.grid_spacing_calls",
                       "cell_volume": "model.cell_volume_calls"}

# counts that must repeat exactly at a fixed seed
EXACT_COUNTS = ("fv.gmres_iters", "fv.solve_calls", "fv.matrix_calls",
                "solver.picard_sweeps", "aquifer.picard_sweeps",
                "model.grid_spacing_calls", "model.cell_volume_calls",
                "cli.artifact_bytes")


class Tracer:
    """Span recorder: (name, start, end, parent index) kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.picard: dict[str, list[dict]] = {"solver": [], "aquifer": []}
        self._open: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._open.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if on_result is not None:
                on_result(out)
            return out
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _gmres(self, fn):
        def gmres(*args, callback=None, callback_type=None, **kwargs):
            self.counts["gmres_calls"] += 1
            if callback is None:
                def callback(_residual):
                    self.counts["fv.gmres_iters"] += 1
                callback_type = "pr_norm"
            return fn(*args, callback=callback, callback_type=callback_type, **kwargs)
        return self._wrap("fv.gmres", gmres)

    def _counting_property(self, prop: property, key: str) -> property:
        fget = prop.fget

        def counted(obj):
            self.counts[key] += 1
            return fget(obj)
        return property(counted)

    def install(self) -> None:
        import importlib

        import scipy.sparse.linalg as spla
        from crossdiff import fv
        from crossdiff.model import Grid

        keep = {"solver.run": lambda r: self.picard["solver"].extend(r.solver_stats),
                "aquifer.run_penalized":
                    lambda r: self.picard["aquifer"].extend(r[0].solver_stats),
                "aquifer.run_confined":
                    lambda r: self.picard["aquifer"].extend(r.solver_stats)}
        for module_name, attrs in _SPANS.items():
            module = importlib.import_module(f"crossdiff.{module_name}")
            for attr, name in attrs.items():
                self._patch(module, attr,
                            self._wrap(name, getattr(module, attr), keep.get(name)))
        for attr, name in _BUILDER_SPANS.items():
            self._patch(fv.SystemBuilder, attr,
                        self._wrap(name, getattr(fv.SystemBuilder, attr)))
        for attr, key in _COUNTED_PROPERTIES.items():
            self._patch(Grid, attr, self._counting_property(Grid.__dict__[attr], key))
        self._patch(spla, "gmres", self._gmres(spla.gmres))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self) -> dict[str, float]:
        """Per-layer totals, self times, calls and counts of the recorded spans.

        A name's total counts only its outermost spans, so a wrapped function
        that calls another one under the same name is not counted twice.
        """
        total: defaultdict = defaultdict(float)
        own_by_name: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, parent), own in zip(self.spans, self.self_times()):
            own_by_name[name] += own
            calls[name] += 1
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                total[name] += end - start

        out = {
            "model.grid_spacing_calls": self.counts["model.grid_spacing_calls"],
            "model.cell_volume_calls": self.counts["model.cell_volume_calls"],
            "model.validate_spec_s": total["model.validate_spec"],
            "fv.assembly_s": total["fv.assembly"],
            "fv.matrix_s": total["fv.matrix"],
            "fv.matrix_calls": calls["fv.matrix"],
            "fv.solve_s": total["fv.solve"],
            "fv.solve_calls": calls["fv.solve"],
            "fv.gmres_s": total["fv.gmres"],
            "fv.gmres_iters": self.counts["fv.gmres_iters"],
            "fv.gmres_calls_per_solve":
                self.counts["gmres_calls"] / max(1, calls["fv.solve"]),
            "fv.boundary_flux_s": total["fv.boundary_flux"],
            "diagnostics.levels_s": total["diagnostics.levels"],
            "diagnostics.degiorgi_s": total["diagnostics.degiorgi"],
            "diagnostics.bounds_s": total["diagnostics.bounds"],
            "cli.parse_s": total["cli.parse"],
            "cli.snapshots_csv_s": total["cli.snapshots_csv"],
            "cli.series_csv_s": total["cli.series_csv"],
            "cli.interface_csv_s": total["cli.interface_csv"],
            "cli.write_s": total["cli.write"],
            "cli.execute_self_s": own_by_name["cli.execute"],
        }
        for layer, spans in (("solver", ["solver.run"]),
                             ("aquifer", ["aquifer.run_penalized", "aquifer.run_confined"])):
            for span in spans:
                short = span.split(".", 1)[1]
                out[f"{layer}.{short}_s"] = total[span]
                out[f"{layer}.{short}_self_s"] = own_by_name[span]
            stats = self.picard[layer]
            out[f"{layer}.picard_sweeps"] = sum(st["picard_sweeps"] for st in stats)
            out[f"{layer}.picard_converged_frac"] = (
                sum(bool(st["picard_converged"]) for st in stats) / max(1, len(stats)))
        out["aquifer.confinement_report_s"] = total["aquifer.confinement_report"]
        return out

    def root_self_sum(self, root: str) -> float:
        """Sum of the self times of every span under the outermost ``root`` spans."""
        own = self.self_times()
        total = 0.0
        for index in range(len(self.spans)):
            at = index
            while at >= 0 and not (self.spans[at][0] == root and self.spans[at][3] < 0):
                at = self.spans[at][3]
            if at >= 0:
                total += own[index]
        return total
