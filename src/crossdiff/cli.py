"""Batch front-end: JSON scenario configs in, plot-ready CSV artifacts out.

Verbs: ``check``, ``simulate``, ``aquifer``, ``keulegan``, ``probe``,
``sweep``, ``convergence``.  :data:`_SCHEMA` is the one table of every
config key and its default; a key's type follows from its default unless
:data:`_TYPED` lists it.  :func:`_checked` rejects an unknown or ill-typed
key by name and fills in the defaults, so every helper indexes plain
values.  The config is the one source of a run's settings: the command
line adds only where the files go (``--out``, ``out`` by default) and, for
``check``, ``--require-feasible``.  Runs are deterministic: two invocations
on the same config give byte-identical artifact sets.  The manifest records
the blocks that its command read, with their defaults filled in, the hash of
that echo, the count of Picard-converged steps of each time run or
refinement level and the artifact list; wall time goes to stderr only.

Each model datum is a number (a constant), null or a profile block, which
:func:`_profile` turns into a scalar, a callable of the points or, for a
``point`` source or well, a per-cell density; each kind of datum accepts
its own profiles, and each profile only the keys it reads.  The
``conditions`` (the regularity rows of ``check``), ``degiorgi``, ``bounds``
and ``levels`` diagnostics are on when their block is present, even empty.
:data:`_COMMANDS` is the one table of the commands, the config kinds each
accepts and the blocks it reads of each: a config may set only the blocks
that some command of its kind reads.

Exit codes: 0 success, 1 solver failure (partial artifacts retained),
2 configuration error, 3 failed condition check under ``--require-feasible``.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import sys
import time
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import aquifer as aq
from . import conditions, diagnostics
from .conditions import ConditionReport, reports_to_csv
from .fv import SolverFailure
from .model import (CrossTensor, Grid, InvalidParameterError, ModelSpec, ellipticity_bounds,
                    point_density, validate_spec)
from .solver import (SimulationResult, StepperConfig, convergence_study, run)
from .table import cells, csv_chunks, csv_table

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Malformed or out-of-contract scenario configuration."""


# ---------------------------------------------------------------------------
# the config schema
# ---------------------------------------------------------------------------

def _is_number(v) -> bool:
    # a bool is no number, and JSON's NaN and Infinity are none either
    return type(v) is int or type(v) is float and math.isfinite(v)


def _rows(v, item) -> bool:
    return type(v) is list and all(type(row) is list and all(map(item, row)) for row in v)


# the type that a default's Python type gives its key: (test, description, plural)
_TYPES = {int: (lambda v: type(v) is int and v >= 0, "an integer >= 0", "integers >= 0"),
          float: (_is_number, "a finite number", "finite numbers"),
          str: (lambda v: type(v) is str, "a string", "strings"),
          dict: (lambda v: v is None or type(v) is dict, "an object or null", None),
          type(None): (lambda v: v is None or _is_number(v), "a number or null", None)}
_POSITION = (lambda v: v is None or (type(v) is list and all(map(_is_number, v))),
             "a list of numbers or null")
# the keyword defaults of aquifer.keulegan_scenario, and the variant to run
_KEULEGAN = {**{name: p.default for name, p in inspect.signature(aq.keulegan_scenario)
                .parameters.items() if p.default is not p.empty}, "variant": "penalized"}
_CASES = {"heat": {"dt0": 2e-3, "t_end": 0.01}, "coupled": {"dt0": 4e-3, "t_end": 0.04}}


def _centre(block: dict, grid: Grid) -> list[float]:
    return [e / 2.0 for e in grid.extents]


def _per_species(value):
    return lambda block, grid: [value] * block["m"]


# block -> key -> default.  A callable default is resolved from the block's earlier keys
# and the grid; a key without a default (MISSING) is left out when absent.
_SCHEMA = {
    "top": {"schema": SCHEMA_VERSION, "kind": "generic", "grid": {}, "stepper": {},
            "model": {}, "diagnostics": {}, "convergence": {}, "sweep": {}},
    "grid": {"dims": [32], "extents": lambda b, g: [1.0] * len(b["dims"])},
    "stepper": {"dt": 1e-3, "t_end": 0.1, **{f.name: f.default for f in fields(StepperConfig)
                                               if f.default is not MISSING}},
    "generic": {"m": 2, "delta": _per_species(1.0), "K": lambda b, g: [[1.0] * b["m"]] * b["m"],
                "ell": 1.0, "initial": _per_species(0.0), "dirichlet": _per_species(0.0),
                "sources": _per_species(None)},
    "aquifer": {**{key: _KEULEGAN[key] for key in ("h2", "delta", "alpha", "epsilon", "variant")},
                "initial_h": 0.5, "initial_h1": 0.1, "dirichlet_h": 0.5, "dirichlet_h1": 0.1,
                "dirichlet_phi": 0.0, "boundary": "dirichlet", "pumping": None},
    "keulegan": _KEULEGAN,
    # a diagnostic without a default is off unless its block is present
    "diagnostics": {"conditions": MISSING, "degiorgi": MISSING, "bounds": MISSING,
                    "levels": MISSING, "probe": {}},
    "conditions": {},
    "degiorgi": {"species": 1, "s": 6.0, "m": 2.0, "m_prime": 0.5, "n_max": 20,
                 "ell0": "max_initial", "M_s": None, "sobolev_beta": None},
    "bounds": {"lo": 0.0, "hi": MISSING},  # no hi is no upper bound
    "levels": {"count": 20, "lo": 0.0, "hi": None},
    "probe": {"amplitude": 1e-3, "radius": 0.2, "center": _centre},
    "convergence": {"case": "heat", "levels": 3, "nx0": 8,
                    "dt0": lambda b, g: _CASES[b["case"]]["dt0"],
                    "t_end": lambda b, g: _CASES[b["case"]]["t_end"]},
    "sweep": {"epsilon_list": []},
    # the profiles of a model datum, each with the keys it reads
    "zero": {}, "constant": {"value": 0.0}, "sine": {"amplitude": 1.0},
    "bump": {"amplitude": 1.0, "width": 0.1, "center": _centre},
    "point": {"rate": 1.0, "position": None},
}
# keys whose type does not follow from their default, or that take only some values of it;
# a model datum names the kind of datum whose profiles it takes (a generic one is a list of
# one datum per species)
_TYPED = {
    "top.schema": (lambda v: v == SCHEMA_VERSION and type(v) is int, str(SCHEMA_VERSION)),
    "top.kind": (lambda v: v in ("generic", "aquifer", "keulegan"),
                 '"generic", "aquifer" or "keulegan"'),
    **dict.fromkeys(("aquifer.variant", "keulegan.variant"), (
        lambda v: v in ("penalized", "confined", "both"), '"penalized", "confined" or "both"')),
    "convergence.case": (lambda v: v in _CASES, '"heat" or "coupled"'),
    # the level iteration: bound factor m > 1, ratio m_prime > 0, level ell0 > 0
    "degiorgi.species": (lambda v: type(v) is int and v in (1, 2), "1 or 2"),
    "degiorgi.m": (lambda v: _is_number(v) and v > 1, "a number > 1"),
    "degiorgi.m_prime": (lambda v: _is_number(v) and v > 0, "a number > 0"),
    "degiorgi.ell0": (lambda v: v == "max_initial" or _is_number(v) and v > 0,
                      'a number > 0 or "max_initial"'),
    "generic.K": (lambda v: _rows(v, lambda e: _is_number(e) or _rows(e, _is_number)),
                  "a list of rows of numbers or 2x2 tensors"),
    "keulegan.well_position": _POSITION, "point.position": _POSITION,
    "bounds.hi": _TYPES[float][:2],
    **dict.fromkeys(("diagnostics.conditions", "diagnostics.degiorgi", "diagnostics.bounds",
                     "diagnostics.levels"), _TYPES[dict][:2]),
    **dict.fromkeys(("generic.initial", "aquifer.initial_h", "aquifer.initial_h1"), "initial"),
    **dict.fromkeys(("generic.dirichlet", "aquifer.dirichlet_h", "aquifer.dirichlet_h1",
                     "aquifer.dirichlet_phi"), "dirichlet"),
    **dict.fromkeys(("generic.sources", "aquifer.pumping"), "source"),
}
# the profiles each kind of datum takes
_DATUM_PROFILES = {"initial": ("zero", "constant", "sine", "bump"),
                   "dirichlet": ("zero", "constant"), "source": ("zero", "constant", "point")}

# command -> config kind it accepts -> the blocks it reads, each a top-level block or a
# diagnostics sub-block
_RUN = ("grid", "stepper", "model")
_COMMANDS = {
    "check": {"generic": ("grid", "model", "diagnostics.conditions"),
              **dict.fromkeys(("aquifer", "keulegan"), ("grid", "model"))},
    "simulate": {"generic": (*_RUN, "diagnostics.degiorgi", "diagnostics.bounds",
                             "diagnostics.levels")},
    "aquifer": dict.fromkeys(("aquifer", "keulegan"), _RUN),
    "keulegan": {"keulegan": _RUN},
    "probe": {"generic": (*_RUN, "diagnostics.probe")},
    "sweep": dict.fromkeys(("aquifer", "keulegan"), (*_RUN, "sweep")),
    "convergence": {"generic": ("convergence",)},
}


def _type_of(default) -> tuple:
    """(test, description) of the values of a key with this default."""
    if type(default) is not list:
        return _TYPES[type(default)][:2]
    test, _, plural = _TYPES[type(default[0]) if default else float]
    return (lambda v: type(v) is list and all(map(test, v))), f"a list of {plural}"


def _checked(block, table: str, where: str, grid: Grid | None = None) -> dict:
    """``block`` with the defaults of ``_SCHEMA[table]`` filled in; null is an empty block.

    An unknown or ill-typed key raises :class:`ConfigError` naming it, and so
    does a centre without one coordinate per grid axis.
    """
    block = {} if block is None else block
    if type(block) is not dict:
        raise ConfigError(f"{where or 'top level'} must be an object")
    unknown = set(block).difference(_SCHEMA[table])
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in {where or 'top level'}")
    out = {}
    for key, entry in _SCHEMA[table].items():
        default = entry(out, grid) if callable(entry) else entry
        if key not in block:
            if default is not MISSING:
                out[key] = default
            continue
        path, value = f"{where}.{key}".lstrip("."), block[key]
        typed = _TYPED.get(f"{table}.{key}") or _type_of(default)
        if isinstance(typed, str):
            if type(default) is list and type(value) is not list:
                raise ConfigError(f"{path} must be a list of one datum per species, got {value!r}")
            value = ([_datum(v, typed, path, grid) for v in value] if type(default) is list
                     else _datum(value, typed, path, grid))
        elif not typed[0](value):
            raise ConfigError(f"{path} must be {typed[1]}, got {value!r}")
        if entry is _centre and len(value) != grid.ndim:
            raise ConfigError(f"{path} needs {grid.ndim} numbers, got {value!r}")
        out[key] = value
    return out


def _datum(value, kind: str, where: str, grid: Grid):
    """A model datum: a number, null or a profile block with its profile's defaults filled in;
    a key that its profile does not read raises :class:`ConfigError`."""
    if value is None or _is_number(value):
        return value
    if type(value) is not dict:
        raise ConfigError(f"{where} must be a number, null or a profile object, got {value!r}")
    name = value.get("profile")
    if name is None:
        raise ConfigError(f"{kind} profile needs a 'profile' name")
    if name not in _DATUM_PROFILES[kind]:
        raise ConfigError(f"unknown {kind} profile {name!r}")
    return {"profile": name,
            **_checked({k: v for k, v in value.items() if k != "profile"}, name, where, grid)}


@dataclass
class ScenarioConfig:
    """Parsed scenario: its grid and stepper, and ``effective``, ``schema``, ``kind`` and
    every block that a command of its kind reads, with its defaults filled in."""

    kind: str
    grid: Grid
    stepper: StepperConfig
    effective: dict


@dataclass
class RunManifest:
    """What ``manifest.txt`` records.

    ``picard_converged`` holds one ``converged/steps`` count per time run,
    in run order (per refinement level for ``convergence``).
    """

    config_hash: str
    command: str
    artifacts: list[str]
    exit_status: int
    picard_converged: list[str]


def parse_scenario(path: str | Path) -> ScenarioConfig:
    """Strictly parse a JSON scenario file, filling in the defaults of every block."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON at line {exc.lineno}: {exc.msg}") from exc
    top = _checked(raw, "top", "")
    kind = top["kind"]
    diag = _checked(top["diagnostics"], "diagnostics", "diagnostics")
    readable = {unit for kinds in _COMMANDS.values() for unit in kinds.get(kind, ())}
    for name in [*raw, *(f"diagnostics.{sub}" for sub in top["diagnostics"] or {})]:
        if name not in readable and name not in ("schema", "kind", "diagnostics"):
            raise ConfigError(f"{name} is read by no command of kind {kind!r}")
    grid_block = _checked(top["grid"], "grid", "grid")
    stepper_block = _checked(top["stepper"], "stepper", "stepper")
    try:
        grid = Grid(tuple(grid_block["dims"]), tuple(grid_block["extents"]))
        stepper = StepperConfig(**stepper_block)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc
    model = _checked(top["model"], kind, "model", grid)
    if kind != "generic" and model["variant"] != "penalized" and model["alpha"] == 1:
        # the confined head coefficient (1 - alpha) h2 vanishes
        raise ConfigError(f"model.alpha must be below 1 for variant {model['variant']!r}, "
                          f"got {model['alpha']!r}")
    for name, block in diag.items():
        if block is not None or _SCHEMA["diagnostics"][name] is not MISSING:
            diag[name] = _checked(block, name, f"diagnostics.{name}", grid)
    levels = diag.get("levels")
    if levels is not None and levels["hi"] is not None and levels["count"] >= 2 \
            and not levels["hi"] > levels["lo"]:
        raise ConfigError(f"diagnostics.levels.hi must exceed lo = {levels['lo']!r} for "
                          f"{levels['count']} levels, got {levels['hi']!r}")
    degiorgi = diag.get("degiorgi")
    if degiorgi is not None:
        # the level iteration pairs species i with 1 - i
        if model["m"] != 2:
            raise ConfigError(f"diagnostics.degiorgi needs m = 2, got m = {model['m']!r}")
        # its levels k_n reach m * ell0 from n = ceil(-log2(m_prime)) on
        m_prime = degiorgi["m_prime"]
        n0 = math.ceil(-math.log2(m_prime)) if m_prime < 1 else 0
        if degiorgi["n_max"] < n0:
            raise ConfigError(f"diagnostics.degiorgi.n_max must be >= ceil(-log2(m_prime)) = "
                              f"{n0}, got {degiorgi['n_max']!r}")
    blocks = {"grid": {"dims": list(grid.dims), "extents": list(grid.extents)},
              "stepper": stepper_block, "model": model, "diagnostics": diag,
              **{name: _checked(top[name], name, name) for name in ("convergence", "sweep")}}
    read = {unit.split(".")[0] for unit in readable}
    return ScenarioConfig(kind, grid, stepper, {"schema": top["schema"], "kind": kind, **{
        name: block for name, block in blocks.items() if name in read}})


# ---------------------------------------------------------------------------
# model construction from checked model blocks
# ---------------------------------------------------------------------------

def _profile(datum, grid: Grid):
    """Value of one checked datum: a scalar, a callable of the points or a per-cell density.

    A number is a constant profile and null the zero profile.
    """
    if type(datum) is not dict:
        return 0.0 if datum is None else datum
    name = datum["profile"]
    if name == "zero":
        return 0.0
    if name == "constant":
        return datum["value"]
    if name == "point":
        return point_density(grid, datum["position"], datum["rate"])
    amp = datum["amplitude"]
    if name == "sine":
        def f(points: np.ndarray) -> np.ndarray:
            out = np.full(points.shape[0], amp)
            for d in range(points.shape[1]):
                out = out * np.sin(np.pi * points[:, d] / grid.extents[d])
            return out
        return f
    width, center = datum["width"], np.asarray(datum["center"], dtype=float)

    def bump(points: np.ndarray) -> np.ndarray:
        r2 = np.sum((points - center[None, :]) ** 2, axis=1)
        return amp * np.exp(-r2 / (2.0 * width ** 2))
    return bump


def build_generic_spec(config: ScenarioConfig) -> ModelSpec:
    mb, grid = config.effective["model"], config.grid
    try:
        return ModelSpec(m=mb["m"], delta=mb["delta"], ell=mb["ell"], domain=grid.extents,
                         K=[[CrossTensor.isotropic(e, grid.ndim) if _is_number(e)
                             else CrossTensor(e) for e in row] for row in mb["K"]],
                         initial=[_profile(d, grid) for d in mb["initial"]],
                         dirichlet=[_profile(d, grid) for d in mb["dirichlet"]],
                         sources=[_profile(d, grid) for d in mb["sources"]])
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc


def build_aquifer_spec(config: ScenarioConfig) -> aq.AquiferSpec:
    mb, grid = config.effective["model"], config.grid
    try:
        if config.kind == "keulegan":
            return aq.keulegan_scenario(grid, **{key: value for key, value in mb.items()
                                                 if key != "variant"})
        traces = mb["boundary"] == "dirichlet"
        return aq.AquiferSpec(
            h2=mb["h2"], delta=mb["delta"], alpha=mb["alpha"], epsilon=mb["epsilon"],
            initial_h=_profile(mb["initial_h"], grid),
            initial_h1=_profile(mb["initial_h1"], grid), domain=grid.extents,
            pumping=_profile(mb["pumping"], grid),
            dirichlet_h=_profile(mb["dirichlet_h"], grid) if traces else None,
            dirichlet_h1=_profile(mb["dirichlet_h1"], grid) if traces else None,
            dirichlet_phi=_profile(mb["dirichlet_phi"], grid), boundary=mb["boundary"])
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

def snapshots_csv(result: SimulationResult, grid: Grid) -> Iterator[str]:
    """One row per (snapshot, species, cell), as the text chunks of :func:`csv_chunks`.

    The run-constant cells, coordinates and species label, are rendered and
    joined once per run into one column of "x,y,species" text, and each
    snapshot's time once, so a snapshot's values are the only cells formatted
    row by row.  The rows are rendered one snapshot at a time as the chunks
    are read.
    """
    m, n = result.m, grid.n_cells
    labels = [label for label in cells(np.arange(1, m + 1)) for _ in range(n)]
    fixed = list(map(",".join, zip(*(cells(xs) * m for xs in grid.cell_centers().T), labels)))
    return csv_chunks(["x", "y"][:grid.ndim] + ["species", "value", "t"], (
        [fixed, snap.ravel(), [t] * (m * n)]
        for snap, t in zip(result.snapshots, cells(result.snapshot_times))))


def series_csv(result: SimulationResult) -> str:
    head, columns = ["t"], [result.times]
    for i in range(result.m):
        head += [f"min_{i + 1}", f"max_{i + 1}", f"mass_{i + 1}"]
        columns += [result.minmax[i, :, 1], result.minmax[i, :, 2], result.mass[i]]
    return csv_table(head, columns)


def interface_csv(result: SimulationResult, h2: np.ndarray, snapshot_index: int,
                  coords: list[list[str]]) -> Iterator[str]:
    """The chunks of one ``interface_NNNN.csv``; the per-cell depth ``h2`` and the
    rendered axes ``coords`` are made once per run."""
    h, h1 = result.snapshots[snapshot_index, :2]
    s = np.add(*aq.map_heads(h, h1, h2))
    return csv_chunks(["x", "y"][:len(coords)] + ["h", "h1", "s"], [[*coords, h, h1, s]])


def sweep_csv(report: aq.SweepReport) -> str:
    table = csv_table(["epsilon", "violation", "residual", "error"], [
        *([e[k] for e in report.entries] for k in ("epsilon", "violation", "residual")),
        ["" if e["error"] is None else str(e["error"]).replace(",", ";")
         for e in report.entries],
    ])
    return f"{table}fit_exponent,{cells([report.fit_exponent])[0]}\n"


def convergence_csv(rows: list[dict]) -> str:
    keys = ["h", "dt", "err_inf", "err_l2", "order_inf", "order_l2"]
    return csv_table(keys, [[r[k] for r in rows] for k in keys])


def write_outputs(out_dir: str | Path, config: ScenarioConfig, command: str,
                  artifacts: dict[str, str | Iterable[str]], exit_status: int,
                  picard_converged: list[str]) -> RunManifest:
    """Write the artifacts, then a deterministic manifest.

    ``artifacts`` maps file names to a text or to an iterable of text chunks,
    which is rendered as it is written, so only one chunk of a large table is
    alive at a time.  The manifest excludes wall time so identical configs
    give byte-identical trees.  Its ``config=`` line, which ``config_hash``
    hashes, echoes ``schema``, ``kind`` and the blocks of ``config.effective``
    that ``command`` reads.  ``picard_converged`` holds the
    ``converged/steps`` count of each time run, which the manifest lists
    ``;``-separated.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory {out} is not writable: {exc}") from exc
    names = sorted(artifacts)
    for name in names:
        chunks = artifacts[name]
        with (out / name).open("w") as f:
            f.writelines([chunks] if isinstance(chunks, str) else chunks)
    echo = {"schema": SCHEMA_VERSION, "kind": config.kind}
    for unit in _COMMANDS[command][config.kind]:
        name, _, sub = unit.partition(".")
        if not sub:
            echo[name] = config.effective[name]
        elif sub in config.effective[name]:
            echo.setdefault(name, {})[sub] = config.effective[name][sub]
    cfg_json = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    manifest = RunManifest(hashlib.sha256(cfg_json.encode()).hexdigest()[:16], command,
                           names + ["manifest.txt"], exit_status, picard_converged)
    lines = [f"command={command}", f"schema={SCHEMA_VERSION}",
             f"config_hash={manifest.config_hash}", f"exit_status={exit_status}"]
    if picard_converged:
        lines.append("picard_converged=" + ";".join(picard_converged))
    lines += [f"config={cfg_json}", "artifacts=" + ";".join(names)]
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")
    return manifest


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _condition_reports(config: ScenarioConfig) -> list[ConditionReport]:
    """The rows of ``conditions.csv``; a non-elliptic tensor, which leaves no bound to
    evaluate, raises :class:`ConfigError` naming the tensor, and aquifer data that break
    the hierarchy or trace compatibility raise as under ``aquifer`` (``validate_data``)."""
    if config.kind != "generic":
        aspec = build_aquifer_spec(config)
        aspec.validate_data(config.grid)
        return [conditions.check_aquifer_admissibility(float(np.min(aspec.h2)),
                                                       aspec.delta, aspec.alpha)]
    spec = build_generic_spec(config)
    violations = validate_spec(spec, config.grid).violations
    tensors = [f"{v.code} {v.message}" for v in violations if v.code == "non-elliptic-tensor"]
    if tensors:
        raise ConfigError("spec validation failed: " + "; ".join(tensors))
    reports = conditions.check_existence(spec)
    if config.effective["diagnostics"].get("conditions") is not None and spec.ell > 0.0:
        reports += conditions.check_regularity(spec)
    return reports + [ConditionReport(f"validation:{v.code}", 1.0, 0.0) for v in violations]


def _degiorgi_artifacts(config: ScenarioConfig, spec: ModelSpec, grid: Grid,
                        result: SimulationResult) -> dict[str, str]:
    block = config.effective["diagnostics"].get("degiorgi")
    if block is None:
        return {}
    species, s_exp, ell0, ms, beta = (
        block[key] for key in ("species", "s", "ell0", "M_s", "sobolev_beta"))
    species -= 1
    if ell0 == "max_initial":
        ell0 = float(result.snapshots[0, species].max())
    if ms is None or beta is None:
        # one gradient pass gives M_s (exponent s) and the L^2 norm in beta's denominator
        ms_run, grad_l2 = diagnostics.discrete_grad_norms(result, grid, species, (s_exp, 2.0))
        if ms is None:
            ms = ms_run
        if beta is None:
            r_exp = grid.ndim + 2.0
            beta = max(diagnostics.empirical_interpolation_constant(
                result, grid, species, r_exp, r_exp, grad_l2), 1e-12)
    j = 1 - species
    budget = conditions.degiorgi_budget(
        N=grid.ndim, s=s_exp, ell0=ell0, m_factor=block["m"], M_s=max(ms, 1e-12),
        K_offdiag_plus=ellipticity_bounds(spec.K[species][j])[1],
        K_diag_minus=ellipticity_bounds(spec.K[species][species])[0],
        delta_i=spec.delta[species], ell=max(spec.ell, 1e-12), sobolev_beta=beta)
    if not budget.feasible:
        return {"degiorgi.csv": csv_table(diagnostics.DeGiorgiTrace.COLUMNS, [])
                + "# infeasible budget (zeta <= 0)\n"}
    trace = diagnostics.degiorgi_trace(result, grid, species, ell0, block["m"],
                                       block["m_prime"], budget, block["n_max"])
    return {"degiorgi.csv": trace.to_csv()}


def _levels_artifacts(config: ScenarioConfig, grid: Grid,
                      result: SimulationResult) -> dict[str, str]:
    block = config.effective["diagnostics"].get("levels")
    if block is None:
        return {}
    hi = block["hi"]
    if hi is None:
        hi = float(result.snapshots.max()) + 1e-9
        if block["count"] >= 2 and not hi > block["lo"]:
            raise ConfigError(f"diagnostics.levels.lo must lie below the automatic hi = {hi!r} "
                              f"(the largest snapshot value plus 1e-9), got {block['lo']!r}")
    levels = np.linspace(block["lo"], hi, block["count"])
    return {"levels.csv": diagnostics.level_set_profile(result, grid, levels).to_csv()}


def execute(config: ScenarioConfig, command: str = "simulate", *,
            out_dir: str | Path = "out", require_feasible: bool = False) -> RunManifest:
    """Dispatch one command and write its artifacts plus a manifest.

    The manifest of a time run counts its Picard-converged steps (both
    counts, penalized first, for ``variant: both``; one per refinement level
    for ``convergence``).  A solver failure still
    writes the manifest, the partial series and its count, and
    ``error.txt`` (exit 1).  A rejected config or spec raises
    :class:`ConfigError` or :class:`InvalidParameterError` before anything
    is written, so ``main`` exits 2 and leaves no output directory.  Hence
    only rendering that cannot fail is left to :func:`write_outputs`, as
    the chunks of the snapshot and interface tables; a diagnostic that can
    reject its block is rendered here.  The time on stderr covers the writing.
    """
    t0 = time.perf_counter()
    artifacts: dict[str, str | Iterable[str]] = {}
    exit_status = 0
    picard: list[str] = []
    partial_series = "series.csv"  # where a failed run's partial series goes

    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    if config.kind not in _COMMANDS[command]:
        raise ConfigError(f"command {command!r} does not accept kind {config.kind!r}")

    try:
        if command == "check":
            reports = _condition_reports(config)
            artifacts["conditions.csv"] = reports_to_csv(reports)
            if require_feasible and any(not r.passed for r in reports):
                exit_status = 3

        elif command == "simulate":
            spec = build_generic_spec(config)
            result = run(spec, config.grid, config.stepper)
            picard.append(result.picard_count)
            artifacts["snapshots.csv"] = snapshots_csv(result, config.grid)
            artifacts["series.csv"] = series_csv(result)
            artifacts.update(_degiorgi_artifacts(config, spec, config.grid, result))
            artifacts.update(_levels_artifacts(config, config.grid, result))
            bounds = config.effective["diagnostics"].get("bounds")
            if bounds is not None:
                artifacts["bounds.csv"] = diagnostics.bound_check(result, **bounds).to_csv()

        elif command == "probe":
            spec = build_generic_spec(config)
            vr = validate_spec(spec, config.grid)
            if not vr.ok:
                raise ConfigError(f"spec validation failed: {vr.codes()}")
            block = config.effective["diagnostics"]["probe"]
            pert, disc = diagnostics.disc_perturbation(config.grid, spec.m, block["center"],
                                                       block["radius"], block["amplitude"])
            if not pert.any():
                raise ConfigError(f"diagnostics.probe perturbs no cell: its amplitude is 0 or "
                                  f"its disc has no cell inside its boundary ring ({block!r})")
            artifacts["probe.csv"] = diagnostics.uniqueness_probe(
                spec, config.grid, config.stepper, pert, disc).to_csv()

        elif command in ("aquifer", "keulegan"):
            aspec = build_aquifer_spec(config)
            variant = config.effective["model"]["variant"]
            if variant in ("penalized", "both"):
                result, conf = aq.run_penalized(aspec, config.grid, config.stepper)
                picard.append(result.picard_count)
                artifacts["series.csv"] = series_csv(result)
                h2 = aspec.h2_cells(config.grid)
                coords = list(map(cells, config.grid.cell_centers().T))
                for idx in range(len(result.snapshots)):
                    artifacts[f"interface_{idx:04d}.csv"] = interface_csv(result, h2, idx, coords)
                artifacts["confinement.csv"] = csv_table(
                    ["t", "violation", "residual"], [conf.times, conf.violation, conf.residual])
            if variant in ("confined", "both"):
                partial_series = "confined_series.csv"
                result_c = aq.run_confined_aquifer(aspec, config.grid, config.stepper)
                picard.append(result_c.picard_count)
                artifacts["confined_series.csv"] = series_csv(result_c)
                artifacts["confined_snapshots.csv"] = snapshots_csv(result_c, config.grid)

        elif command == "sweep":
            aspec = build_aquifer_spec(config)
            eps = config.effective["sweep"]["epsilon_list"]
            if not eps:
                raise ConfigError("sweep needs a nonempty sweep.epsilon_list")
            report = aq.epsilon_sweep(aspec, config.grid, config.stepper, eps)
            artifacts["sweep.csv"] = sweep_csv(report)
            if any(e["error"] is not None for e in report.entries):
                exit_status = 1

        elif command == "convergence":
            rows = _run_convergence(config)
            picard += [row["picard_converged"] for row in rows]
            artifacts["convergence.csv"] = convergence_csv(rows)

    except SolverFailure as exc:
        if exc.partial is not None:
            artifacts[partial_series] = series_csv(exc.partial)
            if command in ("simulate", "aquifer", "keulegan"):
                picard.append(exc.partial.picard_count)
        artifacts["error.txt"] = f"solver failure at t={exc.time}: {exc}\n"
        exit_status = 1

    manifest = write_outputs(out_dir, config, command, artifacts, exit_status, picard)
    print(f"{command}: exit {exit_status} ({time.perf_counter() - t0:.2f} s)", file=sys.stderr)
    return manifest


def _run_convergence(config: ScenarioConfig) -> list[dict]:
    block = config.effective["convergence"]
    nx0, iso = block["nx0"], CrossTensor.isotropic
    if block["case"] == "heat":
        spec = ModelSpec(m=1, delta=[1.0], K=[[iso(1.0, 1)]], ell=0.0, domain=(1.0,),
                         initial=[lambda p: np.sin(np.pi * p[:, 0])], dirichlet=[0.0])

        def exact(t, pts):
            return (np.exp(-np.pi ** 2 * t) * np.sin(np.pi * pts[:, 0]))[None, :]
        grids = [Grid((nx0 * 2 ** k,), (1.0,)) for k in range(block["levels"] + 1)]
        options = {"manufacture": False}
    else:
        spec = ModelSpec(m=2, delta=[1.0, 0.8],
                         K=[[iso(1.0, 2), iso(0.5, 2)], [iso(0.5, 2), iso(1.0, 2)]],
                         ell=10.0, domain=(1.0, 1.0), initial=[1.0, 1.2], dirichlet=[1.0, 1.2])
        amp = ((1.0, 0.7), (1.2, -0.5))

        def exact(t, pts):
            s = np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
            return np.stack([amp[0][0] + amp[0][1] * t * s, amp[1][0] + amp[1][1] * t * s])
        grids = [Grid((nx0 * 2 ** k,) * 2, (1.0, 1.0)) for k in range(block["levels"])]
        options = {}
        if not grids:
            raise ConfigError("convergence.levels must be >= 1 for case 'coupled', got 0")
    dts = [block["dt0"] / 4 ** k for k in range(len(grids))]
    return convergence_study(lambda g: spec, exact, grids, dts, block["t_end"], **options)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="crossdiff",
        description="Cross-diffusion laboratory: checks, simulations, diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in _COMMANDS:
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", default="out", help="output directory")
        if verb == "check":
            p.add_argument("--require-feasible", action="store_true",
                           help="exit 3 when a condition check fails")
    args = parser.parse_args(argv)

    try:
        config = parse_scenario(args.config)
        manifest = execute(config, args.command, out_dir=args.out,
                           require_feasible=getattr(args, "require_feasible", False))
    except (ConfigError, InvalidParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return manifest.exit_status


if __name__ == "__main__":
    sys.exit(main())
