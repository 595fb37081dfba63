"""Semi-implicit finite-volume time integrator for the coupled system.

Backward Euler in time with the truncated coupling coefficient lagged through
Picard sweeps: each sweep solves the coupled linear block system

    (u_i^{n+1} - u_i^n)/dt = div( delta_i grad u_i^{n+1}
                                  + clamp(u_i^lag) sum_j K_ij grad u_j^{n+1} )
                             + Q_i(t^n, x, u^n)

with two-point fluxes on a uniform cell-centered grid.  The coupling
coefficient at a face is the mean of its two sides capped at twice the
donor's, the donor picked by the sign of the driving species' face flux
(:func:`fv.limited_face_value`): second order on smooth data, and 0 next to
an empty donor, the device that keeps discrete solutions nonnegative under
the usual sign hypotheses on the data.  Off-diagonal tensor entries
contribute tangential face gradients treated explicitly at the lagged
iterate.

Dirichlet data enter through ghost values at half-cell distance, closed
species carry no boundary flux; sources are evaluated explicitly at the
previous time level.  The linear block system is solved by
:func:`fv.solve_sparse`, to the run's ``lin_tol``, with the one
:class:`fv.BlockFactors` that each run keeps; that function states the solve
rule whole: its direct and GMRES paths, the cutoffs between them, the GMRES
budget, when the kept inverse is rebuilt and the rounding floor.

Each step's first lag is the cubic predictor 4 u^n - 6 u^(n-1) + 4 u^(n-2) -
u^(n-3) (u^0 at the first step, the linear 2 u^n - u^(n-1) at the second, the
quadratic 3 u^n - 3 u^(n-1) + u^(n-2) at the third), and the sweeps stop once
their change is a small fraction, ``picard_tol``, of the step itself, or below
what a linear solve resolves.  The predictor is O(dt^4) off the step, so once a
smooth run is past its start-up steps one sweep meets that test.  From a step's
third sweep on, the lag is the Anderson mix (Walker & Ni, SIAM J. Numer. Anal.
49, 2011) of the step's latest ``ANDERSON_DEPTH + 1`` (lag, sweep output) pairs,
which makes the strong-well confined aquifer runs converge where plain Picard
sweeps stall.

This module owns the package's only time loop and, inside it, only Picard
sweep loop (:func:`_integrate`); every variant reaches both through one
callback ``step(u_prev, t_prev, t_new)`` that evaluates the step's data
(traces, sources, pumping) once and returns ``sweep(u_lag)``, which gives
the sweep's :class:`fv.SystemBuilder`, whose budget is in the solved state's
species.  :func:`run` is the generic variant's one entry point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from numbers import Integral, Real
from typing import Callable, Sequence

import numpy as np

from . import fv
from .fv import SolverFailure, SystemBuilder
from .model import Grid, InvalidParameterError, ModelSpec, clamp, species_flux, validate_spec

__all__ = [
    "StepperConfig", "SimulationResult", "MassBalanceReport", "SolverFailure",
    "run", "mass_balance_residual", "convergence_study", "manufactured_forcing",
]


@dataclass(frozen=True)
class StepperConfig:
    """Time-stepping, nonlinear-lag and linear-solver settings.

    ``dt``, ``t_end`` and the tolerances are finite numbers, not bools or
    strings; ``dt`` must be positive and ``t_end`` nonnegative.
    ``picard_tol`` is relative to the step: a step's Picard sweeps stop once
    a sweep changes the state by at most ``picard_tol`` times the change over
    the whole step (or by at most ``lin_tol`` times the state), so it lies in
    (0, 1); a step still moving after ``picard_max`` sweeps is recorded as
    not converged.  The first sweep starts from the cubic predictor of the
    last four states and every sweep after a step's second from the Anderson
    mix of its latest sweeps (see :func:`_integrate`), so on a smooth run most
    steps take one sweep.  ``lin_tol`` bounds the relative true residual of
    every linear solve, the same on every sweep and in every variant, unless
    the system's rounding floor is larger.  :func:`fv.solve_sparse` states
    the rest of the solve rule: the floor, the direct path and the package's
    own right-preconditioned GMRES and the cutoffs between them, the GMRES
    budget and when the kept inverse is rebuilt; no setting governs any of
    them.
    """

    dt: float
    t_end: float
    picard_tol: float = 1e-2
    picard_max: int = 10
    lin_tol: float = 1e-10
    snapshot_every: int = 1

    def __post_init__(self):
        for name in ("dt", "t_end", "picard_tol", "lin_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise InvalidParameterError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite, got {value!r}")
        if not self.dt > 0.0 or self.t_end < 0.0:
            raise InvalidParameterError("dt must be positive and t_end nonnegative")
        if not 0.0 < self.picard_tol < 1.0:
            raise InvalidParameterError(
                f"picard_tol must lie in (0, 1), a fraction of the step, got {self.picard_tol!r}")
        if not self.lin_tol > 0.0:
            raise InvalidParameterError(f"lin_tol must be positive, got {self.lin_tol!r}")
        for name in ("picard_max", "snapshot_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
                raise InvalidParameterError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass
class SimulationResult:
    """Trajectory record: snapshots plus per-step series.

    ``snapshots[s]`` holds the recorded values of every species and cell at
    ``snapshot_times[s]``, a strictly increasing subset of ``times``;
    ``minmax[i]`` rows are (t, min u_i, max u_i); ``mass[i]`` rows are
    (t, integral of u_i); ``source_integral`` and ``boundary_flux`` hold the
    discrete per-step budget terms of the solved state's species (the
    confined aquifer records h but solves w).
    """

    snapshots: np.ndarray         # (n_snapshots, m, n_cells)
    snapshot_times: np.ndarray    # (n_snapshots,)
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

    @property
    def picard_count(self) -> str:
        """``converged/steps``: the steps whose Picard sweeps met their stopping rule."""
        stats = self.solver_stats
        return f"{sum(st['picard_converged'] for st in stats)}/{len(stats)}"


# ---------------------------------------------------------------------------
# assembly of one step's sweeps
# ---------------------------------------------------------------------------

def _assemble_step(spec: ModelSpec, grid: Grid, u_prev: np.ndarray, t_prev: float,
                   t_new: float, cfg: StepperConfig):
    """Evaluate one step's traces and sources once and return the step's ``sweep(u_lag)``,
    which assembles the block system and budget at the lag into a :class:`fv.SystemBuilder`."""
    m = spec.m
    ft = fv.face_table(grid)
    vol = grid.cell_volume
    traces = [spec.dirichlet_values(j, t_new, ft.bnd_points) for j in range(m)]
    w_traces = [None if tr is None else clamp(tr, spec.ell) for tr in traces]
    need_tangential = grid.ndim == 2 and any(
        spec.K[i][j].matrix[0, 1] != 0.0 or spec.K[i][j].matrix[1, 0] != 0.0
        for i in range(m) for j in range(m))
    q = np.stack([spec.source_values(i, t_prev, ft.centers, u_prev) for i in range(m)])
    source = q.sum(axis=1) * vol
    rhs = [vol * (u_prev[i] / cfg.dt + q[i]) for i in range(m)]

    def sweep(u_lag: np.ndarray) -> SystemBuilder:
        builder = SystemBuilder(grid, m)
        # the lagged coefficient of each species at both sides of every face
        w_sides = []
        for i in range(m):
            w = fv.slot_values(ft, clamp(u_lag[i], spec.ell), w_traces[i])
            w_sides.append((w[ft.left], w[ft.right]))
        grad = [fv.face_gradient(ft, u_lag[j], traces[j]) for j in range(m)]
        # lagged tangential face gradients: the mean of the cell gradients at the
        # two ends of a face (2D, full tensors only)
        if need_tangential:
            tang_axis = 1 - ft.axis
            tgrad = []
            for j in range(m):
                cg = fv.slot_values(ft, fv.cell_gradient(ft, u_lag[j], traces[j]), None)
                tgrad.append(0.5 * (cg[tang_axis, ft.left] + cg[tang_axis, ft.right]))
        builder.source = source

        for i in range(m):
            # a closed species carries no flux through the boundary faces
            n_faces = ft.n_faces if traces[i] is not None else ft.n_interior
            builder.add_mass(i, 1.0 / cfg.dt)
            builder.add_rhs(i, rhs[i])
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
                w_face = fv.limited_face_value(*w_sides[i], driver)[:n_faces]
                builder.add_tpfa(i, j, w_face * kdd[:n_faces], traces[j])
                if need_tangential:
                    builder.add_explicit_flux(i, ft.sign[:n_faces] * w_face * tang[:n_faces])
        return builder
    return sweep


# How many earlier (lag, sweep output) pairs of a step the Anderson mix reuses.
# On the 64x64 strong-well confined aquifer runs (a point well of rate 1.0 or
# 2.0, 10 steps) depth 1 takes 44 and 62 sweeps, depth 2 takes 39 and 50, and
# depths 3 and 4 take 39 and 53.
ANDERSON_DEPTH = 2


def _anderson_mix(pairs: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The Walker–Ni Anderson mix of (lag, sweep output) pairs, oldest first.

    With residuals f_i = g_i - x_i of the lags x_i and outputs g_i over the flat
    state, gamma minimizes |f_last - sum_i gamma_i (f_(i+1) - f_i)|_2 (unweighted
    least squares) and the mix is g_last - sum_i gamma_i (g_(i+1) - g_i).
    """
    g = np.stack([out.ravel() for _, out in pairs])
    f = g - np.stack([lag.ravel() for lag, _ in pairs])
    gamma = np.linalg.lstsq(np.diff(f, axis=0).T, f[-1], rcond=None)[0]
    # einsum, not BLAS: the same bits at any thread count (fv._dot)
    return (g[-1] - np.einsum("k,ki->i", gamma, np.diff(g, axis=0))).reshape(pairs[-1][1].shape)


def _integrate(grid: Grid, cfg: StepperConfig, u0: np.ndarray, step,
               to_record=lambda u: u, static: bool = False) -> SimulationResult:
    """The package's only time loop and, inside it, its only Picard loop.

    ``step(u_prev, t_prev, t_new)`` evaluates a step's data once and returns its
    ``sweep(u_lag)``, a :class:`fv.SystemBuilder` that maps the lag to the initial guess
    and the solution back to the state, and whose ``budget(u_new)`` gives (source
    integral, boundary inflow).  The first lag is the cubic predictor
    4 u^n - 6 u^(n-1) + 4 u^(n-2) - u^(n-3) (u^0 at the first step, 2 u^n - u^(n-1) at
    the second, 3 u^n - 3 u^(n-1) + u^(n-2) at the third), which a sudden drop, such as
    a boundary trace switched off, may make negative.  After a step's second and every
    later sweep that does not stop, the next lag is :func:`_anderson_mix` of the step's
    latest ``ANDERSON_DEPTH + 1`` (lag, sweep output) pairs; the pairs are dropped at the
    end of the step, and the accepted state is always a sweep output.  The sweeps stop
    once |u^(k) - lag^(k)|_inf <= ``picard_tol`` |u^(k) - u^n|_inf, or <= ``lin_tol``
    |u^(k)|_inf, the most a solve resolves (a steady state stops after one sweep); a
    step still moving after ``picard_max`` sweeps is not converged, and a ``static``
    system (no lagged coefficient) takes one sweep.  The solves share the run's one
    :class:`fv.BlockFactors`, and each returns what it did: a step's preconditioner
    applications (``lin_iters``: exactly its GMRES inner iterations, those of an abandoned
    attempt on a stale inverse included; 0 when direct), whether one of its solves built the inverse (``refactored``) and
    ``b_norm``, the 2-norm of its last solve's right-hand side, go into its stats, with
    ``first_change``, the first sweep's change over the step's (how far the predictor
    missed), and ``mixed_sweeps``, the sweeps that started from a mix.  ``to_record`` maps a state to the
    recorded values (the state itself by default); step 0, every ``snapshot_every``-th step
    and the last step copy them into their row of the preallocated snapshot array.  A
    :class:`SolverFailure` leaves with the failing step's target time as ``time`` and the
    trajectory so far, the snapshot rows written included, as ``partial``.
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
    steps = np.union1d(np.arange(0, n_steps + 1, cfg.snapshot_every), [n_steps])
    snapshots = np.empty((len(steps), *vals.shape))
    snapshots[0] = vals
    row = 1   # the next snapshot row to write

    def record(k: int, vals_k: np.ndarray) -> None:
        minmax[:, k, 0] = times[k]
        minmax[:, k, 1] = vals_k.min(axis=1)
        minmax[:, k, 2] = vals_k.max(axis=1)
        mass[:, k] = vals_k.sum(axis=1) * vol

    def result(k: int) -> SimulationResult:
        """The record of the first ``k`` steps and the snapshot rows written so far."""
        return SimulationResult(snapshots[:row], times[steps[:row]], times[:k + 1],
                                minmax[:, :k + 1], mass[:, :k + 1], src[:, :k], bflux[:, :k],
                                stats, cfg.dt)

    record(0, vals)
    u = u_old = u_older = u_oldest = u0
    factors = fv.BlockFactors(m, grid)
    for k in range(n_steps):
        t_new = times[k] + cfg.dt
        st = {"picard_sweeps": 0, "picard_converged": True, "first_change": 0.0,
              "mixed_sweeps": 0, "lin_residual": 0.0, "b_norm": 0.0, "lin_iters": 0,
              "refactored": False}
        try:
            sweep = step(u, times[k], t_new)
            u_lag = (u if k == 0 else 2.0 * u - u_old if k == 1
                     else 3.0 * (u - u_old) + u_older if k == 2
                     else 4.0 * (u + u_older) - 6.0 * u_old - u_oldest)
            pairs = []   # (lag, output) of the step's latest unconverged sweeps
            for _ in range(1 if static else cfg.picard_max):
                if len(pairs) > 1:
                    u_lag = _anderson_mix(pairs)
                    st["mixed_sweeps"] += 1
                builder = sweep(u_lag)
                x, st["lin_residual"], applications, refactored = fv.solve_sparse(
                    builder.matrix(), builder.rhs, cfg.lin_tol, factors,
                    builder.to_unknowns(u_lag))
                st["lin_iters"] += applications
                st["refactored"] = st["refactored"] or refactored
                u_new = builder.to_state(x)
                st["picard_sweeps"] += 1
                change = float(np.max(np.abs(u_new - u_lag)))
                step_change = float(np.max(np.abs(u_new - u)))
                if st["picard_sweeps"] == 1:
                    st["first_change"] = change
                if change <= max(cfg.picard_tol * step_change,
                                 cfg.lin_tol * float(np.max(np.abs(u_new)))):
                    break
                pairs = pairs[-ANDERSON_DEPTH:] + [(u_lag, u_new)]
                u_lag = u_new
            else:
                st["picard_converged"] = static
            if st["first_change"] > 0.0:
                st["first_change"] = (st["first_change"] / step_change if step_change > 0.0
                                      else math.inf)
        except SolverFailure as exc:
            exc.time = times[k + 1]
            exc.partial = result(k)
            raise
        src[:, k], bflux[:, k] = builder.budget(u_new)
        st["b_norm"] = fv._norm(builder.rhs)
        u_oldest, u_older, u_old, u = u_older, u_old, u, u_new
        stats.append(st)
        vals = to_record(u)
        record(k + 1, vals)
        if k + 1 == steps[row]:
            snapshots[row] = vals
            row += 1

    return result(n_steps)


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
                      static=spec.ell == 0.0)


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

    The flux F_i is :func:`model.species_flux` at the points, on gradients
    of ``exact``; every derivative is a fourth-order central stencil,
    independent of the finite-volume discretization.  ``exact(t, points) ->
    (m, n)`` must be smooth in a neighborhood of the queried times and points.
    """
    if sigma is None:
        sigma = 1e-3 * min(spec.domain)

    def shifted(pts: np.ndarray, d: int, s: float) -> np.ndarray:
        q = pts.copy()
        q[:, d] += s
        return q

    def flux(t: float, pts: np.ndarray) -> np.ndarray:
        grads = np.stack([_fd4(lambda s: exact(t, shifted(pts, d, s)), 0.0, sigma)
                          for d in range(spec.ndim)], axis=-1)
        return species_flux(species, grads, exact(t, pts)[species], spec)

    def forcing(t: float, pts: np.ndarray, u_unused=None) -> np.ndarray:
        du_dt = _fd4(lambda s: exact(s, pts)[species], t, tau)
        div = np.zeros(pts.shape[0])
        for d in range(spec.ndim):
            div += _fd4(lambda s: flux(t, shifted(pts, d, s))[:, d], 0.0, sigma)
        return du_dt - div

    return forcing


def convergence_study(spec_factory: Callable[[Grid], ModelSpec],
                      exact_solution: Callable[[float, np.ndarray], np.ndarray],
                      grids: Sequence[Grid], dts: Sequence[float],
                      t_end: float, *,
                      manufacture: bool = True) -> list[dict]:
    """Refinement table of final-time errors against an exact solution.

    Each level is a :func:`run` (second order in space on smooth data), with
    initial and Dirichlet data from ``exact_solution`` and, when
    ``manufacture`` is set, forcing from :func:`manufactured_forcing`.
    The study's solver settings are fixed: each step sweeps until its change
    is 1e-12 of the step (``picard_tol``, relative to the step) or below what
    a linear solve to ``lin_tol`` 1e-12 resolves, within ``picard_max`` 3
    sweeps; each row's ``picard_converged`` is the level's ``converged/steps``
    count of steps that met that rule.
    Observed orders are computed between consecutive rows against the mesh
    width when it changes, against dt when only dt changes; a row with no
    measured order (the coarsest level, a degenerate refinement or a zero
    error) reports NaN, so it cannot pass for a measured order of 0.
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
        cfg = StepperConfig(dt=dt, t_end=t_end, lin_tol=1e-12, picard_max=3,
                            picard_tol=1e-12, snapshot_every=10 ** 9)
        result = run(spec, grid, cfg)
        u_h = result.snapshots[-1]
        u_ex = exact_solution(result.times[-1], grid.cell_centers())
        err = u_h - u_ex
        err_inf = float(np.max(np.abs(err)))
        err_l2 = float(np.sqrt(np.sum(err ** 2) * grid.cell_volume))
        rows.append({"h": max(grid.spacing), "dt": dt,
                     "err_inf": err_inf, "err_l2": err_l2,
                     "order_inf": math.nan, "order_l2": math.nan,
                     "picard_converged": result.picard_count})

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
