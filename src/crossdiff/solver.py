"""Semi-implicit finite-volume time integrator for the coupled system.

Backward Euler in time with the truncated coupling coefficient lagged through
Picard sweeps: each sweep solves the coupled linear block system

    (u_i^{n+1} - u_i^n)/dt = div( delta_i grad u_i^{n+1}
                                  + clamp(u_i^lag) sum_j K_ij grad u_j^{n+1} )
                             + Q_i(t^n, x, u^n)

with two-point fluxes on a uniform cell-centered grid.  The coupling
coefficient at a face is donor-cell upwinded by the sign of the face flux of
the driving species (the device that keeps discrete solutions nonnegative
under the usual sign hypotheses on the data); ``cross_weighting="centered"``
switches to arithmetic face averages, which restores second-order spatial
accuracy for smooth convergence studies at the price of the positivity
mechanism.  Off-diagonal tensor entries contribute tangential face gradients
treated explicitly at the lagged iterate.

Dirichlet data enter through ghost values at half-cell distance, closed
species carry no boundary flux; sources are evaluated explicitly at the
previous time level.  The linear block system is solved by
:func:`fv.solve_sparse`: a SuperLU factorization of the whole system up to
:data:`fv.DIRECT_MAX_UNKNOWNS` unknowns (1D grids of up to 512 cells),
restarted GMRES above it (every 2D grid of 23x23 or more at m = 2),
preconditioned by SuperLU factors of the species diagonal blocks that each
run keeps in one :class:`fv.BlockFactors` and refactors only when GMRES
starts to need many iterations.

This module owns the package's only Picard sweep loop (:func:`_picard`) and
only time loop (:func:`_integrate`); every variant reaches both through one
callback ``sweep(u_prev, u_lag, t_prev, t_new)`` that returns the sweep's
:class:`fv.SystemBuilder`, whose budget is in the solved state's species.
:func:`run` is the generic variant's one entry point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from numbers import Integral
from typing import Callable, Sequence

import numpy as np

from . import fv
from .fv import SolverFailure, SystemBuilder
from .model import (Field, Grid, InvalidParameterError, ModelSpec, clamp,
                    validate_spec)

__all__ = [
    "StepperConfig", "SimulationResult", "MassBalanceReport", "SolverFailure",
    "run", "mass_balance_residual", "convergence_study", "manufactured_forcing",
]


@dataclass(frozen=True)
class StepperConfig:
    """Time-stepping, nonlinear-lag and linear-solver settings.

    ``dt`` must be finite and positive, ``t_end`` finite and nonnegative.
    ``lin_tol`` bounds the relative true residual of every linear solve;
    ``lin_max`` caps the inner GMRES iterations per call and so applies to
    systems above ``fv.DIRECT_MAX_UNKNOWNS`` (every 2D desk grid of 23x23 or
    more at m = 2), which are solved by GMRES preconditioned with the run's
    species-block factors.
    """

    dt: float
    t_end: float
    picard_tol: float = 1e-8
    picard_max: int = 2
    lin_tol: float = 1e-10
    lin_max: int = 6000
    snapshot_every: int = 1
    cross_weighting: str = "upwind"       # "upwind" | "centered"
    coefficient_mode: str = "truncated"   # "truncated" | "raw"

    def __post_init__(self):
        for name in ("dt", "t_end"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite, got {value!r}")
        if not self.dt > 0.0 or self.t_end < 0.0:
            raise InvalidParameterError("dt must be positive and t_end nonnegative")
        if not (self.picard_tol > 0.0 and self.lin_tol > 0.0):
            raise InvalidParameterError("tolerances must be positive")
        if self.cross_weighting not in ("upwind", "centered"):
            raise InvalidParameterError(f"unknown cross weighting {self.cross_weighting!r}")
        if self.coefficient_mode not in ("truncated", "raw"):
            raise InvalidParameterError(f"unknown coefficient mode {self.coefficient_mode!r}")
        for name in ("picard_max", "lin_max", "snapshot_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
                raise InvalidParameterError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass
class SimulationResult:
    """Trajectory record: snapshots plus per-step series.

    ``minmax[i]`` rows are (t, min u_i, max u_i); ``mass[i]`` rows are
    (t, integral of u_i); ``source_integral`` and ``boundary_flux`` hold the
    discrete per-step budget terms of the solved state's species (the
    confined aquifer records h but solves w).
    """

    snapshots: list[Field]
    times: np.ndarray
    minmax: np.ndarray            # (m, n_times, 3)
    mass: np.ndarray              # (m, n_times)
    source_integral: np.ndarray   # (m, n_steps)
    boundary_flux: np.ndarray     # (m, n_steps)
    solver_stats: list[dict]
    dt: float

    @property
    def m(self) -> int:
        return self.minmax.shape[0]

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def validate(self) -> None:
        t = [s.time for s in self.snapshots]
        if any(b <= a for a, b in zip(t, t[1:])):
            raise InvalidParameterError("snapshot times must be strictly increasing")
        if self.mass.shape[1] != len(self.times) or self.minmax.shape[1] != len(self.times):
            raise InvalidParameterError("series lengths inconsistent")


# ---------------------------------------------------------------------------
# assembly of one Picard sweep
# ---------------------------------------------------------------------------

def _coefficient(values: np.ndarray, spec: ModelSpec, cfg: StepperConfig) -> np.ndarray:
    if cfg.coefficient_mode == "raw":
        return np.asarray(values, dtype=float)
    return clamp(values, spec.ell)


def _assemble_step(spec: ModelSpec, grid: Grid, u_prev: np.ndarray, u_lag: np.ndarray,
                   t_prev: float, t_new: float, cfg: StepperConfig):
    """Assemble one sweep's block system and budget into a :class:`fv.SystemBuilder`."""
    m = spec.m
    builder = SystemBuilder(grid, m)
    ft = builder.ft
    vol = grid.cell_volume
    dt = cfg.dt

    traces = [spec.dirichlet_values(j, t_new, ft.bnd_points) for j in range(m)]
    # the lagged coefficient of each species at both sides of every face
    w_sides = []
    for i, tr in enumerate(traces):
        w = fv.slot_values(ft, _coefficient(u_lag[i], spec, cfg),
                           None if tr is None else _coefficient(tr, spec, cfg))
        w_sides.append((w[ft.left], w[ft.right]))
    weight = fv.upwind_face_value if cfg.cross_weighting == "upwind" else fv.centered_face_value
    grad = [fv.face_gradient(ft, u_lag[j], traces[j]) for j in range(m)]

    # lagged tangential face gradients: the mean of the cell gradients at the
    # two ends of a face (2D, full tensors only)
    need_tangential = grid.ndim == 2 and any(
        spec.K[i][j].matrix[0, 1] != 0.0 or spec.K[i][j].matrix[1, 0] != 0.0
        for i in range(m) for j in range(m))
    if need_tangential:
        tang_axis = 1 - ft.axis
        tgrad = []
        for j in range(m):
            cg = fv.slot_values(ft, fv.cell_gradient(ft, u_lag[j], traces[j]), None)
            tgrad.append(0.5 * (cg[tang_axis, ft.left] + cg[tang_axis, ft.right]))

    q = np.stack([spec.source_values(i, t_prev, ft.centers, u_prev) for i in range(m)])
    builder.source = q.sum(axis=1) * vol

    for i in range(m):
        # a closed species carries no flux through the boundary faces
        n_faces = ft.n_faces if traces[i] is not None else ft.n_interior
        builder.add_mass(i, 1.0 / dt)
        builder.add_rhs(i, vol * (u_prev[i] / dt + q[i]))
        builder.add_tpfa(i, i, np.full(n_faces, spec.delta[i]), traces[i])

        for j in range(m):
            kmat = spec.K[i][j].matrix
            if not kmat.any():
                continue
            kdd = kmat.diagonal()[ft.axis]
            driver = kdd * grad[j]
            if need_tangential:
                tang = kmat[(0, 1), (1, 0)][ft.axis] * tgrad[j]
                driver = driver + ft.sign * tang
            w_face = weight(*w_sides[i], driver)[:n_faces]
            builder.add_tpfa(i, j, w_face * kdd[:n_faces], traces[j])
            if need_tangential:
                builder.add_explicit_flux(i, ft.sign[:n_faces] * w_face * tang[:n_faces])
    return builder


def _picard(sweep, u_prev: np.ndarray, t_prev: float, t_new: float, cfg: StepperConfig,
            factors: fv.BlockFactors,
            static: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Picard sweeps of one backward-Euler step; the package's only sweep loop.

    ``sweep(u_prev, u_lag, t_prev, t_new)`` returns the sweep's
    :class:`fv.SystemBuilder`, which maps the lagged state to the initial
    guess and the solution back to the state, and whose ``budget(u_new)``
    gives (source integral, boundary inflow).  ``static`` systems have no lagged
    coefficient and take a single sweep.  ``factors`` is the run's
    preconditioner holder; the step's GMRES iterations (``lin_iters``, 0 on
    the direct path) and whether a sweep refactored go into the stats.
    """
    sweeps = 1 if static else cfg.picard_max
    u_lag = u_prev
    stats = {"picard_sweeps": 0, "picard_converged": True,
             "lin_residual": 0.0, "b_norm": 0.0, "lin_iters": 0, "refactored": False}
    for k in range(sweeps):
        builder = sweep(u_prev, u_lag, t_prev, t_new)
        x, stats["lin_residual"] = fv.solve_sparse(builder.matrix(), builder.rhs, cfg.lin_tol,
                                                   cfg.lin_max, time=t_new,
                                                   x0=builder.to_unknowns(u_lag),
                                                   factors=factors)
        stats["lin_iters"] += factors.iters
        stats["refactored"] = stats["refactored"] or factors.refactored
        stats["b_norm"] = factors.b_norm
        u_new = builder.to_state(x)
        stats["picard_sweeps"] = k + 1
        change = float(np.max(np.abs(u_new - u_lag)))
        scale = max(float(np.max(np.abs(u_new))), 1e-300)
        u_lag = u_new
        if change / scale < cfg.picard_tol:
            break
    else:
        stats["picard_converged"] = static
    return (u_new, *builder.budget(u_new), stats)


def _integrate(grid: Grid, cfg: StepperConfig, u0: np.ndarray, sweep,
               to_record=np.copy, static: bool = False) -> SimulationResult:
    """The package's only time loop.

    Each step runs :func:`_picard` on ``sweep`` from t_prev to t_prev + dt,
    with the run's one :class:`fv.BlockFactors`; ``to_record`` maps a state
    to the recorded per-species values.  A :class:`SolverFailure` leaves
    with the trajectory completed so far attached as ``partial``.
    """
    vol = grid.cell_volume
    n_steps = int(round(cfg.t_end / cfg.dt)) if cfg.t_end > 0 else 0
    vals = to_record(u0)
    m = vals.shape[0]

    times = np.arange(n_steps + 1) * cfg.dt
    minmax = np.zeros((m, n_steps + 1, 3))
    mass = np.zeros((m, n_steps + 1))
    src = np.zeros((m, n_steps))
    bflux = np.zeros((m, n_steps))
    stats: list[dict] = []
    snapshots = [Field(vals, 0.0)]

    def record(k: int, vals_k: np.ndarray) -> None:
        minmax[:, k, 0] = times[k]
        minmax[:, k, 1] = vals_k.min(axis=1)
        minmax[:, k, 2] = vals_k.max(axis=1)
        mass[:, k] = vals_k.sum(axis=1) * vol

    record(0, vals)
    u = u0
    factors = fv.BlockFactors(m)
    for k in range(n_steps):
        try:
            u, src[:, k], bflux[:, k], st = _picard(sweep, u, times[k], times[k] + cfg.dt,
                                                    cfg, factors, static)
        except SolverFailure as exc:
            exc.time = times[k + 1]
            exc.partial = SimulationResult(
                snapshots, times[:k + 1], minmax[:, :k + 1], mass[:, :k + 1],
                src[:, :k], bflux[:, :k], stats, cfg.dt)
            raise
        stats.append(st)
        vals = to_record(u)
        record(k + 1, vals)
        if (k + 1) % cfg.snapshot_every == 0 or k + 1 == n_steps:
            snapshots.append(Field(vals, float(times[k + 1])))

    result = SimulationResult(snapshots, times, minmax, mass, src, bflux, stats, cfg.dt)
    result.validate()
    return result


def run(spec: ModelSpec, grid: Grid, cfg: StepperConfig,
        validate: bool = True) -> SimulationResult:
    """Integrate to t_end recording snapshots, extrema, mass and budget series.

    The horizon is rounded to a whole number of steps of size dt; extrema and
    mass are recorded every step, full snapshots at the configured cadence
    (plus the initial and final states).  A single step is a run with
    ``t_end = dt``; a coefficient truncated away (ell = 0) takes one sweep.
    """
    if validate:
        report = validate_spec(spec, grid)
        if not report.ok:
            raise InvalidParameterError(f"spec validation failed: {report.codes()}")
    points = grid.cell_centers()
    u0 = np.stack([spec.initial_values(i, points) for i in range(spec.m)])
    return _integrate(grid, cfg, u0, partial(_assemble_step, spec, grid, cfg=cfg),
                      static=cfg.coefficient_mode == "truncated" and spec.ell == 0.0)


# ---------------------------------------------------------------------------
# mass balance
# ---------------------------------------------------------------------------

@dataclass
class MassBalanceReport:
    """Per-step conservation defects and the linear-solver-limited thresholds."""

    residuals: np.ndarray   # (m, n_steps)
    thresholds: np.ndarray  # (n_steps,)

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max()) if self.residuals.size else 0.0

    @property
    def ok(self) -> bool:
        return bool(np.all(self.residuals <= self.thresholds[None, :]))


def mass_balance_residual(result: SimulationResult, spec: ModelSpec,
                          grid: Grid) -> MassBalanceReport:
    """Defect |mass_{n+1} - mass_n - dt (sources + boundary inflow)| per step.

    Conservative assembly makes interior fluxes telescope exactly, so the
    defect is bounded by the linear-solve residual: the threshold per step is
    10 * vol * sqrt(m n) * ||r||_2 with ||r|| the recorded true residual.
    Sound only when the recorded species are the solved ones (generic runs):
    penalized and confined runs record (h, h1) or (h, phi) but keep their
    budget in (u1, u2) or (w, phi).
    """
    if result.n_steps == 0:
        return MassBalanceReport(np.zeros((result.m, 0)), np.zeros(0))
    dm = result.mass[:, 1:] - result.mass[:, :-1]
    budget = result.dt * (result.source_integral + result.boundary_flux)
    residuals = np.abs(dm - budget)
    scale = grid.cell_volume * math.sqrt(spec.m * grid.n_cells)
    thresholds = np.array([
        10.0 * scale * st["lin_residual"] * st["b_norm"] + 1e-13 * max(1.0, abs(ms))
        for st, ms in zip(result.solver_stats, np.abs(result.mass[:, :-1]).max(axis=0))])
    return MassBalanceReport(residuals, thresholds)


# ---------------------------------------------------------------------------
# manufactured solutions
# ---------------------------------------------------------------------------

def _fd4(f: Callable[[float], np.ndarray], x0: float, h: float) -> np.ndarray:
    return (-f(x0 + 2 * h) + 8.0 * f(x0 + h) - 8.0 * f(x0 - h) + f(x0 - 2 * h)) / (12.0 * h)


def manufactured_forcing(exact: Callable[[float, np.ndarray], np.ndarray],
                         spec: ModelSpec, species: int,
                         sigma: float | None = None,
                         tau: float = 1e-3):
    """Forcing Q_i = d/dt u_i - div F_i computed from ``exact`` by differences.

    Fourth-order central stencils, independent of the finite-volume
    discretization.  ``exact(t, points) -> (m, n)`` must be smooth in a
    neighborhood of the queried times and points.
    """
    if sigma is None:
        sigma = 1e-3 * min(spec.domain)

    def gradient(t: float, pts: np.ndarray, j: int) -> np.ndarray:
        out = np.zeros((pts.shape[0], spec.ndim))
        for d in range(spec.ndim):
            def shift(s, _d=d):
                q = pts.copy()
                q[:, _d] += s
                return exact(t, q)[j]
            out[:, d] = _fd4(shift, 0.0, sigma)
        return out

    def flux_component(t: float, pts: np.ndarray, d: int) -> np.ndarray:
        u_all = exact(t, pts)
        coeff = clamp(u_all[species], spec.ell)
        comp = spec.delta[species] * gradient(t, pts, species)[:, d]
        for j in range(spec.m):
            kmat = spec.K[species][j].matrix
            if not kmat.any():
                continue
            gj = gradient(t, pts, j)
            comp = comp + coeff * (gj @ kmat[d])
        return comp

    def forcing(t: float, pts: np.ndarray, u_unused=None) -> np.ndarray:
        du_dt = _fd4(lambda s: exact(s, pts)[species], t, tau)
        div = np.zeros(pts.shape[0])
        for d in range(spec.ndim):
            def shifted(s, _d=d):
                q = pts.copy()
                q[:, _d] += s
                return flux_component(t, q, _d)
            div += _fd4(shifted, 0.0, sigma)
        return du_dt - div

    return forcing


def convergence_study(spec_factory: Callable[[Grid], ModelSpec],
                      exact_solution: Callable[[float, np.ndarray], np.ndarray],
                      grids: Sequence[Grid], dts: Sequence[float],
                      t_end: float, *,
                      manufacture: bool = True,
                      cross_weighting: str = "centered",
                      lin_tol: float = 1e-12,
                      picard_max: int = 3) -> list[dict]:
    """Refinement table of final-time errors against an exact solution.

    Initial and Dirichlet data are taken from ``exact_solution``; when
    ``manufacture`` is set, forcing comes from :func:`manufactured_forcing`.
    Observed orders are computed between consecutive rows against the mesh
    width when it changes, against dt when only dt changes, and report 0 for
    degenerate refinements.
    """
    if len(grids) != len(dts):
        raise InvalidParameterError("grids and dts must pair up")
    rows: list[dict] = []
    for grid, dt in zip(grids, dts):
        spec = spec_factory(grid)
        m = spec.m

        def initial(i):
            return lambda pts, _i=i: exact_solution(0.0, pts)[_i]

        def dirichlet(i):
            return lambda t, pts, _i=i: exact_solution(t, pts)[_i]

        sources = ([manufactured_forcing(exact_solution, spec, i) for i in range(m)]
                   if manufacture else spec.sources)
        spec = replace(spec, initial=[initial(i) for i in range(m)],
                       dirichlet=[dirichlet(i) for i in range(m)], sources=sources)
        cfg = StepperConfig(dt=dt, t_end=t_end, lin_tol=lin_tol,
                            picard_max=picard_max, picard_tol=1e-12,
                            snapshot_every=10 ** 9,
                            cross_weighting=cross_weighting)
        result = run(spec, grid, cfg)
        u_h = result.snapshots[-1].values
        u_ex = exact_solution(result.times[-1], grid.cell_centers())
        err = u_h - u_ex
        err_inf = float(np.max(np.abs(err)))
        err_l2 = float(np.sqrt(np.sum(err ** 2) * grid.cell_volume))
        rows.append({"h": max(grid.spacing), "dt": dt,
                     "err_inf": err_inf, "err_l2": err_l2,
                     "order_inf": 0.0, "order_l2": 0.0})

    for prev, cur in zip(rows, rows[1:]):
        ratio_h = prev["h"] / cur["h"]
        ratio_dt = prev["dt"] / cur["dt"]
        ratio = ratio_h if not math.isclose(ratio_h, 1.0) else ratio_dt
        if math.isclose(ratio, 1.0) or ratio <= 0.0:
            continue
        for norm in ("inf", "l2"):
            e0, e1 = prev[f"err_{norm}"], cur[f"err_{norm}"]
            if e0 > 0.0 and e1 > 0.0:
                cur[f"order_{norm}"] = math.log(e0 / e1) / math.log(ratio)
    return rows
