"""Batch front-end: JSON scenario configs in, plot-ready CSV artifacts out.

Verbs: ``check``, ``simulate``, ``aquifer``, ``keulegan``, ``probe``,
``sweep``, ``convergence``.  Configs are strict (unknown keys and ill-typed
values rejected) and runs are deterministic: two invocations on the same
config produce byte-identical artifact sets.  The manifest records the config
hash, the effective config (grid, stepper and output defaults filled in, the
other blocks as written), the count of Picard-converged steps of each time
run and the artifact list; wall time is reported on stderr only so artifacts
stay reproducible.

Each datum of a model block is a profile block (or a number, a constant)
that :func:`_profile` turns into a scalar, a callable of the points or,
for a ``point`` source or well, a per-cell density; each kind of datum
accepts its own profile names.  A diagnostics sub-block that is present,
even empty, turns its diagnostic on with its defaults; ``null`` or no key
leaves it off.  :data:`_COMMANDS` is the one table of the commands and the
config kinds each accepts.

Exit codes: 0 success, 1 solver failure (partial artifacts retained),
2 configuration error, 3 failed condition check under ``--require-feasible``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import aquifer as aq
from . import conditions, diagnostics
from .conditions import DEFAULT_G_CAVEAT, ConditionReport, reports_to_csv
from .fv import SolverFailure
from .model import (CrossTensor, Grid, InvalidParameterError, ModelSpec, ellipticity_bounds,
                    point_density, validate_spec)
from .solver import (SimulationResult, StepperConfig, convergence_study, run)
from .table import cells, csv_table

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Malformed or out-of-contract scenario configuration."""


# ---------------------------------------------------------------------------
# strict parsing
# ---------------------------------------------------------------------------

_TOP_KEYS = {"schema", "kind", "grid", "stepper", "model", "outputs",
             "diagnostics", "convergence", "sweep"}
_GRID_KEYS = {"dims", "extents"}
_STEPPER_KEYS = {f.name for f in fields(StepperConfig)}
_OUTPUT_KEYS = {"directory", "formats"}
_GENERIC_MODEL_KEYS = {"m", "delta", "K", "ell", "initial", "dirichlet", "sources"}
_AQUIFER_MODEL_KEYS = {"h2", "delta", "alpha", "epsilon", "initial_h", "initial_h1",
                       "dirichlet_h", "dirichlet_h1", "dirichlet_phi", "boundary",
                       "pumping", "variant"}
_KEULEGAN_MODEL_KEYS = {"tilt", "pump_rate", "h2", "delta", "alpha", "epsilon",
                        "h_mid", "h1_level", "well_position", "variant"}
# (test, description) of the type a config value is converted to; a bool is no number
_INTEGER = (lambda v: type(v) is int and v >= 0, "an integer >= 0")
_NUMBER = (lambda v: type(v) in (int, float), "a number")
_NUMBER_OR_NULL = (lambda v: v is None or type(v) in (int, float), "a number or null")
_NUMBERS = (lambda v: type(v) is list and all(type(x) in (int, float) for x in v),
            "a list of numbers")
_ELL0 = (lambda v: v == "max_initial" or type(v) in (int, float), 'a number or "max_initial"')
_STRING = (lambda v: type(v) is str, "a string")
_DIAG_KEYS = {"conditions": {"g_s": _NUMBER, "g_r": _NUMBER},
              "degiorgi": {"species": (lambda v: type(v) is int and v in (1, 2), "1 or 2"),
                           "s": _NUMBER, "m": _NUMBER, "m_prime": _NUMBER, "n_max": _INTEGER,
                           "ell0": _ELL0, "M_s": _NUMBER_OR_NULL, "sobolev_beta": _NUMBER_OR_NULL},
              "bounds": {"lo": _NUMBER, "hi": _NUMBER},
              "levels": {"count": _INTEGER, "lo": _NUMBER, "hi": _NUMBER_OR_NULL},
              "probe": {"amplitude": _NUMBER, "radius": _NUMBER, "center": _NUMBERS}}
_PROFILE_KEYS = {"profile", "value", "amplitude", "center", "width", "rate", "position"}
_CONV_KEYS = {"case": _STRING, "levels": _INTEGER, "nx0": _INTEGER, "dt0": _NUMBER,
              "t_end": _NUMBER}
_SWEEP_KEYS = {"epsilon_list": _NUMBERS}

# the commands and the config kinds each accepts
_COMMANDS = {"check": ("generic", "aquifer", "keulegan"), "simulate": ("generic",),
             "aquifer": ("aquifer", "keulegan"), "keulegan": ("keulegan",),
             "probe": ("generic",), "sweep": ("aquifer", "keulegan"),
             "convergence": ("generic",)}
_STEPPER_DEFAULTS = {"dt": 1e-3, "t_end": 0.1, **{
    f.name: f.default for f in fields(StepperConfig) if f.default is not MISSING}}


def _check_keys(block: dict, allowed, where: str) -> dict:
    """A copy of ``block`` once it is an object with allowed keys, of the types a dict gives."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(block).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in {where}")
    for key, (test, description) in (allowed.items() if isinstance(allowed, dict) else ()):
        if key in block and not test(block[key]):
            raise ConfigError(f"{where}.{key} must be {description}, got {block[key]!r}")
    return dict(block)


@dataclass
class ScenarioConfig:
    """Parsed scenario; ``effective`` is the config the manifest echoes."""

    kind: str
    grid: Grid
    stepper: StepperConfig
    out_dir: str
    effective: dict
    model_block: dict
    diagnostics: dict = field(default_factory=dict)
    convergence: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)


@dataclass
class RunManifest:
    """What ``manifest.txt`` records.

    ``picard_converged`` holds one ``converged/steps`` count per time run,
    in run order.
    """

    config_hash: str
    command: str
    artifacts: list[str]
    exit_status: int
    picard_converged: list[str]


def parse_scenario(path: str | Path) -> ScenarioConfig:
    """Strictly parse a JSON scenario file, filling in the grid, stepper and output defaults."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON at line {exc.lineno}: {exc.msg}") from exc
    _check_keys(raw, _TOP_KEYS, "top level")
    schema = raw.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {schema}")
    kind = raw.get("kind", "generic")
    if kind not in ("generic", "aquifer", "keulegan"):
        raise ConfigError(f"unknown kind {kind!r}")

    grid_block = _check_keys(raw.get("grid") or {}, _GRID_KEYS, "grid")
    dims = grid_block.get("dims", [32])
    extents = grid_block.get("extents", [1.0] * len(dims))
    try:
        grid = Grid(tuple(int(n) for n in dims), tuple(float(e) for e in extents))
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc

    stepper_block = _check_keys(raw.get("stepper") or {}, _STEPPER_KEYS, "stepper")
    eff_stepper = {**_STEPPER_DEFAULTS, **stepper_block}
    try:
        stepper = StepperConfig(**eff_stepper)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc

    out_block = _check_keys(raw.get("outputs") or {}, _OUTPUT_KEYS, "outputs")
    out_dir = out_block.get("directory", "out")
    formats = out_block.get("formats", ["csv"])
    if formats != ["csv"]:
        raise ConfigError(f"unsupported output formats {formats}")

    model_keys = {"generic": _GENERIC_MODEL_KEYS, "aquifer": _AQUIFER_MODEL_KEYS,
                  "keulegan": _KEULEGAN_MODEL_KEYS}[kind]
    model_block = _check_keys(raw.get("model") or {}, model_keys, "model")

    diag_block = _check_keys(raw.get("diagnostics") or {}, set(_DIAG_KEYS), "diagnostics")
    for name, block in diag_block.items():
        _check_keys(block or {}, _DIAG_KEYS[name], f"diagnostics.{name}")
    center = (diag_block.get("probe") or {}).get("center")
    if center is not None and len(center) != grid.ndim:
        raise ConfigError(f"diagnostics.probe.center needs {grid.ndim} numbers, got {center!r}")
    degiorgi = diag_block.get("degiorgi")
    # the level iteration pairs species i with 1 - i
    if degiorgi is not None and kind == "generic" and model_block.get("m", 2) != 2:
        raise ConfigError(f"diagnostics.degiorgi needs m = 2, got m = {model_block['m']!r}")
    degiorgi = degiorgi or {}
    # its bound factor m exceeds 1, its ratio m_prime and its level ell0 are positive
    for key, low in (("m", 1), ("m_prime", 0), ("ell0", 0)):
        value = degiorgi.get(key)
        if type(value) in (int, float) and not value > low:
            raise ConfigError(f"diagnostics.degiorgi.{key} must be > {low}, got {value!r}")
    # its levels k_n reach m * ell0 from n = ceil(-log2(m_prime)) on
    m_prime, n_max = degiorgi.get("m_prime", 0.5), degiorgi.get("n_max", 20)
    n0 = math.ceil(-math.log2(m_prime)) if m_prime < 1 else 0
    if n_max < n0:
        raise ConfigError(f"diagnostics.degiorgi.n_max must be >= ceil(-log2(m_prime)) = {n0}, "
                          f"got {n_max!r}")
    conv_block = _check_keys(raw.get("convergence") or {}, _CONV_KEYS, "convergence")
    sweep_block = _check_keys(raw.get("sweep") or {}, _SWEEP_KEYS, "sweep")

    effective = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "grid": {"dims": list(grid.dims), "extents": list(grid.extents)},
        "stepper": eff_stepper,
        "outputs": {"directory": out_dir, "formats": formats},
        "model": model_block,
        "diagnostics": diag_block,
        "convergence": conv_block,
        "sweep": sweep_block,
    }
    return ScenarioConfig(kind=kind, grid=grid, stepper=stepper, out_dir=out_dir,
                          effective=effective, model_block=model_block,
                          diagnostics=diag_block, convergence=conv_block,
                          sweep=sweep_block)


# ---------------------------------------------------------------------------
# model construction from profile blocks
# ---------------------------------------------------------------------------

def _profile(block, grid: Grid, kind: str):
    """Datum of one profile block: a scalar, a callable of the points or a per-cell density.

    A number is a constant profile and null the zero profile.
    """
    if block is None or isinstance(block, (int, float)):
        return float(block or 0.0)
    p = _check_keys(block, _PROFILE_KEYS, f"{kind} profile")
    if "profile" not in p:
        raise ConfigError(f"{kind} profile needs a 'profile' name")
    name = p["profile"]
    allowed = {"initial": ("zero", "constant", "sine", "bump"),
               "dirichlet": ("zero", "constant"), "source": ("zero", "constant", "point")}
    if name not in allowed[kind]:
        raise ConfigError(f"unknown {kind} profile {name!r}")
    if name == "zero":
        return 0.0
    if name == "constant":
        return float(p.get("value", 0.0))
    if name == "point":
        return point_density(grid, p.get("position"), float(p.get("rate", 1.0)))
    amp = float(p.get("amplitude", 1.0))
    if name == "sine":
        ext = grid.extents

        def f(points: np.ndarray) -> np.ndarray:
            out = np.full(points.shape[0], amp)
            for d in range(points.shape[1]):
                out = out * np.sin(np.pi * points[:, d] / ext[d])
            return out
        return f
    width = float(p.get("width", 0.1))
    center = np.asarray(p.get("center", [e / 2.0 for e in grid.extents]), dtype=float)

    def bump(points: np.ndarray) -> np.ndarray:
        r2 = np.sum((points - center[None, :]) ** 2, axis=1)
        return amp * np.exp(-r2 / (2.0 * width ** 2))
    return bump


def _tensor_from(entry, ndim: int) -> CrossTensor:
    if isinstance(entry, (int, float)):
        return CrossTensor.isotropic(float(entry), ndim)
    return CrossTensor(tuple(tuple(float(x) for x in row) for row in entry))


def build_generic_spec(config: ScenarioConfig) -> ModelSpec:
    mb = config.model_block
    grid = config.grid
    m = int(mb.get("m", 2))
    delta = [float(d) for d in mb.get("delta", [1.0] * m)]
    k_raw = mb.get("K", [[1.0] * m] * m)
    k = [[_tensor_from(k_raw[i][j], grid.ndim) for j in range(m)] for i in range(m)]
    ell = float(mb.get("ell", 1.0))
    initial = [_profile(b, grid, "initial") for b in mb.get("initial", [0.0] * m)]
    dirichlet = [_profile(b, grid, "dirichlet") for b in mb.get("dirichlet", [0.0] * m)]
    sources = [_profile(b, grid, "source") for b in mb.get("sources", [None] * m)]
    try:
        return ModelSpec(m=m, delta=delta, K=k, ell=ell, domain=grid.extents,
                         initial=initial, dirichlet=dirichlet, sources=sources)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc


def build_aquifer_spec(config: ScenarioConfig) -> aq.AquiferSpec:
    mb = config.model_block
    grid = config.grid
    try:
        if config.kind == "keulegan":
            return aq.keulegan_scenario(grid, **{
                key: value if key == "well_position" else float(value)
                for key, value in mb.items() if key != "variant"})
        boundary = mb.get("boundary", "dirichlet")
        traces = boundary == "dirichlet"
        return aq.AquiferSpec(
            h2=float(mb.get("h2", 1.0)),
            delta=float(mb.get("delta", 0.3)),
            alpha=float(mb.get("alpha", 0.025)),
            epsilon=float(mb.get("epsilon", 1e-2)),
            initial_h=_profile(mb.get("initial_h", 0.5), grid, "initial"),
            initial_h1=_profile(mb.get("initial_h1", 0.1), grid, "initial"),
            domain=grid.extents,
            pumping=_profile(mb.get("pumping"), grid, "source"),
            dirichlet_h=(_profile(mb.get("dirichlet_h", 0.5), grid, "dirichlet")
                         if traces else None),
            dirichlet_h1=(_profile(mb.get("dirichlet_h1", 0.1), grid, "dirichlet")
                          if traces else None),
            dirichlet_phi=_profile(mb.get("dirichlet_phi", 0.0), grid, "dirichlet"),
            boundary=boundary)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

def snapshots_csv(result: SimulationResult, grid: Grid) -> str:
    """One row per (snapshot, species, cell).

    Coordinates, species labels and times are rendered once and repeated as
    lists of the same strings, so the value column is the only one formatted
    row by row.
    """
    snaps, m, n = result.snapshots, result.m, grid.n_cells
    species = [label for label in cells(np.arange(1, m + 1)) for _ in range(n)]
    return csv_table(["x", "y"][:grid.ndim] + ["species", "value", "t"], [
        *(cells(xs) * (len(snaps) * m) for xs in grid.cell_centers().T),
        species * len(snaps),
        np.concatenate([snap.values.ravel() for snap in snaps]),
        [t for t in cells([snap.time for snap in snaps]) for _ in range(m * n)],
    ])


def series_csv(result: SimulationResult) -> str:
    head, columns = ["t"], [result.times]
    for i in range(result.m):
        head += [f"min_{i + 1}", f"max_{i + 1}", f"mass_{i + 1}"]
        columns += [result.minmax[i, :, 1], result.minmax[i, :, 2], result.mass[i]]
    return csv_table(head, columns)


def interface_csv(result: SimulationResult, grid: Grid, aspec: aq.AquiferSpec,
                  snapshot_index: int) -> str:
    h, h1 = result.snapshots[snapshot_index].values[:2]
    s = (h - h1) + (aspec.h2_cells(grid) - h)
    return csv_table(["x", "y"][:grid.ndim] + ["h", "h1", "s"],
                     [*map(cells, grid.cell_centers().T), h, h1, s])


def sweep_csv(report: aq.SweepReport) -> str:
    table = csv_table(["epsilon", "violation", "residual", "error"], [
        *([e[k] for e in report.entries] for k in ("epsilon", "violation", "residual")),
        ["" if e["error"] is None else str(e["error"]).replace(",", ";")
         for e in report.entries],
    ])
    return f"{table}\nfit_exponent,{cells([report.fit_exponent])[0]}\n"


def convergence_csv(rows: list[dict]) -> str:
    keys = ["h", "dt", "err_inf", "err_l2", "order_inf", "order_l2"]
    return csv_table(keys, [[r[k] for r in rows] for k in keys])


def _manifest_text(manifest: RunManifest, config: ScenarioConfig) -> str:
    cfg_json = json.dumps(config.effective, sort_keys=True, separators=(",", ":"))
    lines = [
        f"command={manifest.command}",
        f"schema={SCHEMA_VERSION}",
        f"config_hash={manifest.config_hash}",
        f"exit_status={manifest.exit_status}",
    ]
    if manifest.picard_converged:
        lines.append("picard_converged=" + ";".join(manifest.picard_converged))
    lines += [f"config={cfg_json}", "artifacts=" + ";".join(sorted(manifest.artifacts))]
    return "\n".join(lines) + "\n"


def write_outputs(out_dir: str | Path, config: ScenarioConfig, command: str,
                  artifacts: dict[str, str], exit_status: int,
                  picard_converged: list[str]) -> RunManifest:
    """Write the artifact texts plus a deterministic manifest.

    ``artifacts`` maps file names to fully rendered text; the manifest
    excludes wall time so identical configs give byte-identical trees.
    ``picard_converged`` holds the ``converged/steps`` count of each time
    run, which the manifest lists ``;``-separated.
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
        (out / name).write_text(artifacts[name])
    cfg_hash = hashlib.sha256(
        json.dumps(config.effective, sort_keys=True).encode()).hexdigest()[:16]
    manifest = RunManifest(cfg_hash, command, names, exit_status, picard_converged)
    (out / "manifest.txt").write_text(_manifest_text(manifest, config))
    manifest.artifacts = names + ["manifest.txt"]
    return manifest


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _picard_count(result: SimulationResult) -> str:
    """``converged/steps``: the steps whose Picard sweeps met their stopping rule."""
    stats = result.solver_stats
    return f"{sum(st['picard_converged'] for st in stats)}/{len(stats)}"


def _condition_reports(config: ScenarioConfig) -> list[ConditionReport]:
    diag = config.diagnostics.get("conditions", {}) or {}
    if config.kind == "generic":
        spec = build_generic_spec(config)
        reports = conditions.check_existence(spec)
        if "g_s" in diag and spec.ell > 0.0:
            reports += conditions.check_regularity(spec, float(diag["g_s"]))
        if "g_r" not in diag:
            print(DEFAULT_G_CAVEAT, file=sys.stderr)
        return reports
    aspec = build_aquifer_spec(config)
    return [conditions.check_aquifer_admissibility(float(np.min(aspec.h2)),
                                                   aspec.delta, aspec.alpha)]


def _degiorgi_artifacts(config: ScenarioConfig, spec: ModelSpec, grid: Grid,
                        result: SimulationResult) -> dict[str, str]:
    block = config.diagnostics.get("degiorgi")
    if block is None:
        return {}
    species = int(block.get("species", 1)) - 1
    s_exp = float(block.get("s", 6.0))
    m_factor = float(block.get("m", 2.0))
    m_prime = float(block.get("m_prime", 0.5))
    n_max = int(block.get("n_max", 20))
    ell0 = block.get("ell0", "max_initial")
    if ell0 == "max_initial":
        ell0 = float(result.snapshots[0].values[species].max())
    ell0 = float(ell0)
    ms = block.get("M_s")
    ms = float(ms) if ms is not None else float(
        diagnostics.discrete_grad_norm(result, grid, s_exp)[species])
    beta = block.get("sobolev_beta")
    r_exp = grid.ndim + 2.0
    beta = float(beta) if beta is not None else max(
        diagnostics.empirical_interpolation_constant(result, grid, species, r_exp, r_exp),
        1e-12)
    j = 1 - species
    budget = conditions.degiorgi_budget(
        N=grid.ndim, s=s_exp, ell0=ell0, m_factor=m_factor, M_s=max(ms, 1e-12),
        K_offdiag_plus=ellipticity_bounds(spec.K[species][j])[1],
        K_diag_minus=ellipticity_bounds(spec.K[species][species])[0],
        delta_i=spec.delta[species], ell=max(spec.ell, 1e-12), sobolev_beta=beta)
    if not budget.feasible:
        return {"degiorgi.csv": "n,k_n,v_n,rhs_n,holds\n# infeasible budget (zeta <= 0)\n"}
    trace = diagnostics.degiorgi_trace(result, grid, species, ell0, m_factor,
                                       m_prime, budget, n_max)
    return {"degiorgi.csv": trace.to_csv()}


def _levels_artifacts(config: ScenarioConfig, grid: Grid,
                      result: SimulationResult) -> dict[str, str]:
    block = config.diagnostics.get("levels")
    if block is None:
        return {}
    hi = block.get("hi")
    if hi is None:
        hi = max(float(s.values.max()) for s in result.snapshots) + 1e-9
    levels = np.linspace(block.get("lo", 0.0), hi, block.get("count", 20))
    return {"levels.csv": diagnostics.level_set_profile(result, grid, levels).to_csv()}


def execute(config: ScenarioConfig, command: str = "simulate", *,
            out_dir: str | None = None, require_feasible: bool = False,
            epsilon_list: list[float] | None = None) -> RunManifest:
    """Dispatch one command and write its artifacts plus a manifest.

    The manifest of a time run counts its Picard-converged steps (both
    counts, penalized first, for ``variant: both``).  A solver failure still
    writes the manifest, the partial series and its count, and
    ``error.txt`` (exit 1).  A rejected config or spec raises
    :class:`ConfigError` or :class:`InvalidParameterError` before anything
    is written, so ``main`` exits 2 and leaves no output directory.
    """
    t0 = time.perf_counter()
    out = out_dir or config.out_dir
    artifacts: dict[str, str] = {}
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
            if config.kind == "generic":
                vr = validate_spec(build_generic_spec(config), config.grid)
                for v in vr.violations:
                    reports.append(ConditionReport(f"validation:{v.code}", 1.0, 0.0))
            artifacts["conditions.csv"] = reports_to_csv(reports)
            if require_feasible and any(not r.passed for r in reports):
                exit_status = 3

        elif command == "simulate":
            spec = build_generic_spec(config)
            result = run(spec, config.grid, config.stepper)
            picard.append(_picard_count(result))
            artifacts["snapshots.csv"] = snapshots_csv(result, config.grid)
            artifacts["series.csv"] = series_csv(result)
            artifacts.update(_degiorgi_artifacts(config, spec, config.grid, result))
            artifacts.update(_levels_artifacts(config, config.grid, result))
            bounds = config.diagnostics.get("bounds")
            if bounds is not None:
                rep = diagnostics.bound_check(result,
                                              float(bounds.get("lo", 0.0)),
                                              float(bounds.get("hi", math.inf)))
                artifacts["bounds.csv"] = rep.to_csv()

        elif command == "probe":
            spec = build_generic_spec(config)
            vr = validate_spec(spec, config.grid)
            if not vr.ok:
                raise ConfigError(f"spec validation failed: {vr.codes()}")
            block = config.diagnostics.get("probe") or {}
            amplitude = float(block.get("amplitude", 1e-3))
            radius = float(block.get("radius", 0.2))
            center = block.get("center", [e / 2.0 for e in config.grid.extents])
            pert, disc = diagnostics.disc_perturbation(config.grid, spec.m,
                                                       center, radius, amplitude)
            report = diagnostics.uniqueness_probe(spec, config.grid, config.stepper,
                                                  pert, disc)
            artifacts["probe.csv"] = report.to_csv()

        elif command in ("aquifer", "keulegan"):
            aspec = build_aquifer_spec(config)
            variant = config.model_block.get("variant", "penalized")
            if variant not in ("penalized", "confined", "both"):
                raise ConfigError(f"unknown aquifer variant {variant!r}")
            if variant in ("penalized", "both"):
                result, conf = aq.run_penalized(aspec, config.grid, config.stepper)
                picard.append(_picard_count(result))
                artifacts["series.csv"] = series_csv(result)
                for idx in range(len(result.snapshots)):
                    artifacts[f"interface_{idx:04d}.csv"] = interface_csv(
                        result, config.grid, aspec, idx)
                artifacts["confinement.csv"] = csv_table(
                    ["t", "violation", "residual"], [conf.times, conf.violation, conf.residual])
            if variant in ("confined", "both"):
                partial_series = "confined_series.csv"
                result_c = aq.run_confined_aquifer(aspec, config.grid, config.stepper)
                picard.append(_picard_count(result_c))
                artifacts["confined_series.csv"] = series_csv(result_c)
                artifacts["confined_snapshots.csv"] = snapshots_csv(result_c, config.grid)

        elif command == "sweep":
            aspec = build_aquifer_spec(config)
            eps = epsilon_list or config.sweep.get("epsilon_list")
            if not eps:
                raise ConfigError("sweep needs an epsilon list (config or --epsilon-list)")
            report = aq.epsilon_sweep(aspec, config.grid, config.stepper, eps)
            artifacts["sweep.csv"] = sweep_csv(report)
            if any(e["error"] is not None for e in report.entries):
                exit_status = 1

        elif command == "convergence":
            artifacts["convergence.csv"] = convergence_csv(_run_convergence(config))

    except SolverFailure as exc:
        if exc.partial is not None:
            artifacts[partial_series] = series_csv(exc.partial)
            if command in ("simulate", "aquifer", "keulegan"):
                picard.append(_picard_count(exc.partial))
        artifacts["error.txt"] = f"solver failure at t={exc.time}: {exc}\n"
        exit_status = 1

    wall = time.perf_counter() - t0
    manifest = write_outputs(out, config, command, artifacts, exit_status, picard)
    print(f"{command}: exit {exit_status} ({wall:.2f} s)", file=sys.stderr)
    return manifest


def _run_convergence(config: ScenarioConfig) -> list[dict]:
    block = config.convergence or {}
    case = block.get("case", "heat")
    levels = int(block.get("levels", 3))
    nx0 = int(block.get("nx0", 8))
    dt0 = float(block.get("dt0", 2e-3))
    if case == "heat":
        t_end = float(block.get("t_end", 0.01))

        def factory(g):
            return ModelSpec(m=1, delta=[1.0], K=[[CrossTensor.isotropic(1.0, 1)]],
                             ell=0.0, domain=(1.0,),
                             initial=[lambda p: np.sin(np.pi * p[:, 0])], dirichlet=[0.0])

        def exact(t, pts):
            return (np.exp(-np.pi ** 2 * t) * np.sin(np.pi * pts[:, 0]))[None, :]
        grids = [Grid((nx0 * 2 ** k,), (1.0,)) for k in range(levels + 1)]
        dts = [dt0 / 4 ** k for k in range(levels + 1)]
        return convergence_study(factory, exact, grids, dts, t_end,
                                 manufacture=False, lin_tol=config.stepper.lin_tol)
    if case == "coupled":
        t_end = float(block.get("t_end", 0.04))
        iso = CrossTensor.isotropic

        def factory(g):
            return ModelSpec(m=2, delta=[1.0, 0.8],
                             K=[[iso(1.0, 2), iso(0.5, 2)], [iso(0.5, 2), iso(1.0, 2)]],
                             ell=10.0, domain=(1.0, 1.0),
                             initial=[1.0, 1.2], dirichlet=[1.0, 1.2])

        amp = ((1.0, 0.7), (1.2, -0.5))

        def exact(t, pts):
            s = np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
            return np.stack([amp[0][0] + amp[0][1] * t * s, amp[1][0] + amp[1][1] * t * s])
        grids = [Grid((nx0 * 2 ** k, nx0 * 2 ** k), (1.0, 1.0)) for k in range(levels)]
        dts = [float(block.get("dt0", 4e-3)) / 4 ** k for k in range(levels)]
        return convergence_study(factory, exact, grids, dts, t_end,
                                 cross_weighting="centered")
    raise ConfigError(f"unknown convergence case {case!r}")


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
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--require-feasible", action="store_true",
                       help="exit 3 when a condition check fails")
        p.add_argument("--epsilon-list", nargs="+", type=float, default=None,
                       help="penalization parameters for 'sweep'")
    args = parser.parse_args(argv)

    try:
        config = parse_scenario(args.config)
        manifest = execute(config, args.command, out_dir=args.out,
                           require_feasible=args.require_feasible,
                           epsilon_list=args.epsilon_list)
    except (ConfigError, InvalidParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return manifest.exit_status


if __name__ == "__main__":
    sys.exit(main())
