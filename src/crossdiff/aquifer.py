"""Sharp-interface seawater intrusion with penalized confinement.

State is the pair of interface depths (h, h1) inside a reservoir of depth h2
(all measured from the top; the physical hierarchy is 0 <= h1 <= h <= h2).
With the thickness variables u1 = h - h1 (freshwater) and u2 = h2 - h
(saltwater), the interface dynamics is the two-species coupled system with
isotropic tensors built from the density contrast alpha,

    flux(u1) = delta grad u1 + (1-alpha) U0(u1) grad(u1 + u2)
    flux(u2) = delta grad u2 + U0(u2) (grad u2 + (1-alpha) grad u1)

where U0(x) = max(0, x) clips the mobile thicknesses.  The truncation level
of the generic formalism is h2, and its admissibility condition reduces to
1 - 4 delta / h2 < alpha <= 1.

The penalized scheme keeps the water table above the top (h1 >= 0, i.e.
s = u1 + u2 <= h2) by adding the drain flux eps^-1 U0(s - u1) grad U0(s - h2)
to the total-thickness equation; the recovered drain flux vanishes wherever
h1 > 0 in the limit eps -> 0.  Pumping is a signed extraction density applied
to the saltwater balance (a positive rate deepens the interface locally, the
dome of the pumping benchmark).

Boundary handling: 'dirichlet' pins interface depths through boundary
traces, 'closed' makes the box impermeable (the relaxation benchmark needs a
closed box to conserve freshwater mass).  The confined-reservoir variant
replaces the water-table equation by an elliptic solve for the hydraulic
head and always takes Dirichlet data for the head.

Every variant runs through the solver's Picard and time loops by handing
them one sweep callback, and every matrix comes from
:class:`fv.SystemBuilder`.  The plain and penalized sweeps assemble the
thickness system with the generic assembly on an internal spec (ell = inf,
closed species for a closed box); the penalized sweep then has the builder
rewrite its recorded terms in the unknowns (u1, s), which the builder maps
back to (u1, u2), and records the drain terms on the s block.  The confined
sweep is its own (w, phi) assembly.  The budget series are those of the
solved state's species: (u1, u2), without the drain, and (w, phi).
:func:`run_penalized` and :func:`run_confined_aquifer` are the entry points;
a single step is a run with ``t_end = dt``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import fv, solver
from .conditions import check_aquifer_admissibility
from .fv import SolverFailure, SystemBuilder, face_table
from .model import CrossTensor, Grid, InvalidParameterError, ModelSpec
from .solver import SimulationResult, StepperConfig

__all__ = [
    "AquiferSpec", "ConfinementReport", "EllipticSolveError", "SweepReport",
    "map_heads", "map_species", "to_cross_spec", "run_penalized",
    "run_confined_aquifer", "keulegan_scenario",
    "epsilon_sweep", "interface_slope", "interior_local_maxima",
]

HIERARCHY_TOL = 1e-9


class EllipticSolveError(SolverFailure):
    """Failure of the hydraulic-head elliptic solve (confined variant)."""


def _u0(x):
    return np.maximum(x, 0.0)


# ---------------------------------------------------------------------------
# spec
# ---------------------------------------------------------------------------

@dataclass
class AquiferSpec:
    """Data of one intrusion scenario.

    ``h2`` is the reservoir depth (scalar or per-cell; per-cell values enter
    the hierarchy, the variable mapping and the penalty threshold, while the
    interface dynamics stays the thickness-variable system above).
    ``pumping`` is a signed extraction density (rate per area; scalar, array
    or callable of (t, points)).  ``boundary`` selects 'dirichlet' traces or
    a 'closed' impermeable box; the head trace ``dirichlet_phi`` only serves
    the confined variant.
    """

    h2: float | np.ndarray
    delta: float
    alpha: float
    epsilon: float
    initial_h: Callable | np.ndarray | float
    initial_h1: Callable | np.ndarray | float
    domain: tuple[float, ...]
    pumping: Callable | np.ndarray | float | None = None
    dirichlet_h: Callable | float | None = None
    dirichlet_h1: Callable | float | None = None
    dirichlet_phi: Callable | float = 0.0
    boundary: str = "dirichlet"

    def __post_init__(self):
        if self.boundary not in ("dirichlet", "closed"):
            raise InvalidParameterError(f"unknown boundary mode {self.boundary!r}")
        if not self.delta > 0.0 or not self.epsilon > 0.0:
            raise InvalidParameterError("delta and epsilon must be positive")
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidParameterError(f"density contrast must lie in (0, 1], got {self.alpha}")
        if self.boundary == "dirichlet" and (self.dirichlet_h is None or self.dirichlet_h1 is None):
            raise InvalidParameterError("dirichlet boundaries need traces for h and h1")

    def h2_cells(self, grid: Grid) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.h2, dtype=float), (grid.n_cells,)).copy()

    def _eval(self, data, points: np.ndarray, t: float | None = None) -> np.ndarray:
        if callable(data):
            out = data(points) if t is None else data(t, points)
            return np.broadcast_to(np.asarray(out, dtype=float), (points.shape[0],)).copy()
        return np.broadcast_to(np.asarray(data, dtype=float), (points.shape[0],)).copy()

    def initial_values(self, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        pts = grid.cell_centers()
        return self._eval(self.initial_h, pts), self._eval(self.initial_h1, pts)

    def trace_values(self, t: float, points: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        if self.boundary == "closed":
            return None
        return self._eval(self.dirichlet_h, points, t), self._eval(self.dirichlet_h1, points, t)

    def pumping_values(self, t: float, points: np.ndarray) -> np.ndarray:
        if self.pumping is None:
            return np.zeros(points.shape[0])
        return self._eval(self.pumping, points, t)

    def validate(self, grid: Grid) -> None:
        """Hierarchy of the data, admissibility window, trace compatibility."""
        admissibility = check_aquifer_admissibility(float(np.min(self.h2)), self.delta, self.alpha)
        if not admissibility.passed:
            raise InvalidParameterError(
                f"admissibility fails: lhs={admissibility.lhs}, rhs={admissibility.rhs}")
        h0, h10 = self.initial_values(grid)
        h2c = self.h2_cells(grid)
        if np.any(h10 < -HIERARCHY_TOL) or np.any(h0 - h10 < -HIERARCHY_TOL) \
                or np.any(h2c - h0 < -HIERARCHY_TOL):
            raise InvalidParameterError("initial data violate 0 <= h1 <= h <= h2")
        if self.boundary == "dirichlet":
            ft = face_table(grid)
            tr = self.trace_values(0.0, ft.bnd_points)
            h_d, h1_d = tr
            h2_b = h2c[ft.bnd_cell]
            if np.any(h1_d < -HIERARCHY_TOL) or np.any(h_d - h1_d < -HIERARCHY_TOL) \
                    or np.any(h2_b - h_d < -HIERARCHY_TOL):
                raise InvalidParameterError("boundary traces violate 0 <= h1 <= h <= h2")
            if callable(self.initial_h):
                h0_tr = self._eval(self.initial_h, ft.bnd_points)
                h10_tr = self._eval(self.initial_h1, ft.bnd_points)
            else:
                h0_tr, h10_tr = h0[ft.bnd_cell], h10[ft.bnd_cell]
            if np.max(np.abs(h0_tr - h_d)) > 1e-8 or np.max(np.abs(h10_tr - h1_d)) > 1e-8:
                raise InvalidParameterError("initial data incompatible with boundary traces")


# ---------------------------------------------------------------------------
# variable maps
# ---------------------------------------------------------------------------

def map_heads(h, h1, h2):
    """(h, h1) -> thickness variables (u1, u2) = (h - h1, h2 - h)."""
    h = np.asarray(h, dtype=float)
    return h - np.asarray(h1, dtype=float), np.asarray(h2, dtype=float) - h


def map_species(u1, u2, h2):
    """(u1, u2) -> interface depths (h, h1) = (h2 - u2, h2 - u2 - u1)."""
    h = np.asarray(h2, dtype=float) - np.asarray(u2, dtype=float)
    return h, h - np.asarray(u1, dtype=float)


def _thickness_spec(aspec: AquiferSpec, grid: Grid, ell: float) -> ModelSpec:
    """Generic two-species spec of the thickness system (u1, u2).

    Head data map with the reservoir depth of each cell, traces with that of
    each boundary face's cell (a constant depth maps data at any points); a
    closed box gives closed species.
    """
    one_a = 1.0 - aspec.alpha
    ndim = len(aspec.domain)
    k = [[CrossTensor.isotropic(one_a, ndim), CrossTensor.isotropic(one_a, ndim)],
         [CrossTensor.isotropic(one_a, ndim), CrossTensor.isotropic(1.0, ndim)]]
    if np.ndim(aspec.h2) == 0:
        h2_cells = h2_faces = float(aspec.h2)
    else:
        h2_cells = aspec.h2_cells(grid)
        h2_faces = h2_cells[face_table(grid).bnd_cell]

    def initial_u(which):
        if callable(aspec.initial_h) or callable(aspec.initial_h1):
            def f(points):
                h0 = aspec._eval(aspec.initial_h, points)
                h10 = aspec._eval(aspec.initial_h1, points)
                return map_heads(h0, h10, h2_cells)[which]
            return f
        return map_heads(*aspec.initial_values(grid), h2_cells)[which]

    def dirichlet_u(which):
        def g(t, points):
            h_d = aspec._eval(aspec.dirichlet_h, points, t)
            h1_d = aspec._eval(aspec.dirichlet_h1, points, t)
            return map_heads(h_d, h1_d, h2_faces)[which]
        return g

    def salt_sink(t, points, u):
        return -aspec.pumping_values(t, points)

    closed = aspec.boundary == "closed"
    return ModelSpec(m=2, delta=(aspec.delta, aspec.delta), K=k, ell=ell,
                     domain=aspec.domain, initial=[initial_u(0), initial_u(1)],
                     dirichlet=[None, None] if closed else [dirichlet_u(0), dirichlet_u(1)],
                     sources=[None, salt_sink])


def to_cross_spec(aspec: AquiferSpec, grid: Grid) -> ModelSpec:
    """Equivalent generic two-species spec (Dirichlet scenarios, ell = h2)."""
    if aspec.boundary != "dirichlet":
        raise InvalidParameterError("the generic formalism carries Dirichlet data only")
    if np.ndim(aspec.h2) != 0:
        raise InvalidParameterError("the generic mapping needs a constant reservoir depth")
    return _thickness_spec(aspec, grid, float(aspec.h2))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _u_traces(aspec: AquiferSpec, grid: Grid, t: float):
    ft = face_table(grid)
    tr = aspec.trace_values(t, ft.bnd_points)
    if tr is None:
        return None, None
    h_d, h1_d = tr
    h2_b = aspec.h2_cells(grid)[ft.bnd_cell]
    u1_d, u2_d = map_heads(h_d, h1_d, h2_b)
    return u1_d, u2_d


# Change of unknowns (u1, u2) -> (u1, s) of the penalized sweeps, as 2 x 2
# block maps: the s row is the u1 row plus the u2 row (Q), and the u2 column
# becomes s - u1 (P).  The drain could sit on the u2 row in the unknowns
# (u1, u2) instead, which is algebraically the same system and would need no
# change of unknowns.  But the drain acts on s = u1 + u2, so in (u1, u2) half
# of its eps^-1 entries fall on the off-diagonal block that block-Jacobi
# leaves out: GMRES then needed about twice the preconditioner applications
# per step (15.0 -> 29.0 on a 48-cell drain-active case at epsilon = 0.1,
# 22.9 -> 42.5 at 1e-4, 13.1 -> 27.2 on a 64^2 Dirichlet case).
_TO_TOTAL = ((1.0, 0.0), (1.0, 1.0))
_FROM_TOTAL = ((1.0, 0.0), (-1.0, 1.0))


def _add_drain(builder: SystemBuilder, aspec: AquiferSpec, u1_lag: np.ndarray,
               s_lag: np.ndarray, t_new: float) -> None:
    """Active-set linearized drain term on the total-thickness (s) block.

    Coefficient eps^-1 U0(s - u1) is lagged and face-upwinded by the face
    gradient of the excess U0(s - h2); the excess itself is linearized as
    active * (s - h2) at the lagged active set.  The ghost slots hold the
    coefficient and the excess of the traces.
    """
    grid, ft = builder.grid, builder.ft
    ni = ft.n_interior
    h2c = aspec.h2_cells(grid)
    active = (s_lag > h2c).astype(float)
    u1_d, u2_d = _u_traces(aspec, grid, t_new)
    w_d = excess_d = None
    if u1_d is not None:
        s_d = u1_d + u2_d
        w_d, excess_d = _u0(s_d - u1_d), _u0(s_d - h2c[ft.bnd_cell])
    n_faces = ni if u1_d is None else ft.n_faces
    w = fv.slot_values(ft, _u0(s_lag - u1_lag), w_d)
    driver = fv.face_gradient(ft, _u0(s_lag - h2c), excess_d)
    w_face = fv.upwind_face_value(w[ft.left], w[ft.right], driver)
    kappa = (1.0 / aspec.epsilon * w_face * ft.area / ft.dist)[:n_faces]

    k_left, k_right = kappa * active[ft.left[:n_faces]], kappa[:ni] * active[ft.right[:ni]]
    builder.add_term(("face", 1, 1, n_faces),
                     np.concatenate((k_left, k_right, -k_right, -k_left[:ni])))
    # the known part -active * h2 of the excess, with the trace excess in the ghosts
    y = fv.slot_values(ft, -active * h2c, excess_d)
    fa = kappa * (y[ft.right[:n_faces]] - y[ft.left[:n_faces]])
    builder.add_rhs(1, fv.face_divergence(ft, fa))


def penalty_face_flux(aspec: AquiferSpec, grid: Grid, h: np.ndarray,
                      h1: np.ndarray) -> np.ndarray:
    """Drain flux eps^-1 U0(s - u1) grad U0(s - h2) on the interior faces."""
    ft = face_table(grid)
    h2c = aspec.h2_cells(grid)
    u1, u2 = map_heads(h, h1, h2c)
    w = _u0(u2)
    L, R = ft.left[:ft.n_interior], ft.right[:ft.n_interior]
    grad = fv.face_gradient(ft, _u0(u1 + u2 - h2c), None)[:ft.n_interior]
    return fv.upwind_face_value(w[L], w[R], grad) * grad / aspec.epsilon


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _thickness_system(aspec: AquiferSpec, grid: Grid, cfg: StepperConfig, penalized: bool):
    """Validated generic spec, stepper config and sweep of the (u1, u2) system.

    The spec clips at zero only (ell = inf), and the thickness coefficients
    clip whatever the configured coefficient mode.  A penalized sweep is in
    (u1, s), s = u1 + u2, with the drain terms on the s block, and solves
    to a tolerance scaled by a small epsilon.
    """
    aspec.validate(grid)
    spec = _thickness_spec(aspec, grid, math.inf)
    lin_tol = (max(cfg.lin_tol * aspec.epsilon, 1e-14) if penalized and aspec.epsilon < 1e-3
               else cfg.lin_tol)
    cfg_u = replace(cfg, coefficient_mode="truncated", lin_tol=lin_tol)
    generic = partial(solver._assemble_step, spec, grid, cfg=cfg_u)
    if not penalized:
        return spec, cfg_u, generic

    def sweep(u_prev, u_lag, t_prev, t_new):
        builder = generic(u_prev, u_lag, t_prev, t_new)
        builder.change_unknowns(_TO_TOTAL, _FROM_TOTAL)
        _add_drain(builder, aspec, u_lag[0], u_lag[0] + u_lag[1], t_new)
        return builder
    return spec, cfg_u, sweep


@dataclass
class ConfinementReport:
    """Constraint violation, drain-orthogonality residual and the drain flux.

    ``violation[k]`` is the integral of (s - h2)^+ at snapshot k, ``residual``
    the integral of |h1| |Q| (the orthogonality h1 Q = 0 of the confined
    limit), and ``q_field`` the reconstructed drain flux on the interior
    faces at the final snapshot.
    """

    times: np.ndarray
    violation: np.ndarray
    residual: np.ndarray
    q_field: np.ndarray

    @property
    def final_violation(self) -> float:
        return float(self.violation[-1])

    @property
    def final_residual(self) -> float:
        return float(self.residual[-1])


def _run_thickness(aspec: AquiferSpec, grid: Grid, cfg: StepperConfig,
                   penalized: bool) -> SimulationResult:
    """Time loop of the (u1, u2) system through the solver, recording (h, h1).

    ``penalized=False`` is the plain run, without the drain term.
    """
    spec, cfg_u, sweep = _thickness_system(aspec, grid, cfg, penalized)
    h2c = aspec.h2_cells(grid)
    points = grid.cell_centers()
    u0 = np.stack([spec.initial_values(i, points) for i in range(2)])
    return solver._integrate(grid, cfg_u, u0, sweep,
                             lambda u: np.stack(map_species(u[0], u[1], h2c)))


def confinement_report(aspec: AquiferSpec, grid: Grid,
                       result: SimulationResult) -> ConfinementReport:
    ft = face_table(grid)
    h2c = aspec.h2_cells(grid)
    vol = grid.cell_volume
    times = np.array([f.time for f in result.snapshots])
    violation = np.zeros(len(times))
    residual = np.zeros(len(times))
    q_field = np.zeros(0)
    for k, snap in enumerate(result.snapshots):
        h, h1 = snap.values[0], snap.values[1]
        s = (h - h1) + (h2c - h)
        violation[k] = float(np.sum(_u0(s - h2c)) * vol)
        q_field = penalty_face_flux(aspec, grid, h, h1)
        q_mag = np.sqrt(np.sum(fv.cell_average(ft, np.abs(q_field)) ** 2, axis=0))
        residual[k] = float(np.sum(np.abs(h1) * q_mag) * vol)
    return ConfinementReport(times, violation, residual, q_field)


def run_penalized(aspec: AquiferSpec, grid: Grid,
                  cfg: StepperConfig) -> tuple[SimulationResult, ConfinementReport]:
    """Penalized time loop over (h, h1) plus the confinement accounting."""
    result = _run_thickness(aspec, grid, cfg, penalized=True)
    return result, confinement_report(aspec, grid, result)


# ---------------------------------------------------------------------------
# confined-reservoir variant
# ---------------------------------------------------------------------------

def _assemble_confined(aspec: AquiferSpec, grid: Grid, u_prev: np.ndarray, u_lag: np.ndarray,
                       t_prev: float, t_new: float, cfg: StepperConfig):
    """One sweep of the (w, phi) system: parabolic salt thickness, elliptic head.

    The builder's budget is that of (w, phi): the head row has no mass term
    and the pumping as its source.
    """
    (w_prev, _), (w_lag, phi_lag) = u_prev, u_lag
    builder = SystemBuilder(grid, 2)
    ft = builder.ft
    vol = grid.cell_volume
    alpha, one_a = aspec.alpha, 1.0 - aspec.alpha
    pump = aspec.pumping_values(t_prev, ft.centers)

    w_trace = _u_traces(aspec, grid, t_new)[1]
    phi_trace = aspec._eval(aspec.dirichlet_phi, ft.bnd_points, t_new)
    # a closed box carries no salt flux through the boundary faces
    n_faces = ft.n_interior if w_trace is None else ft.n_faces
    w = fv.slot_values(ft, _u0(w_lag), None if w_trace is None else _u0(w_trace))
    w_left, w_right = w[ft.left][:n_faces], w[ft.right][:n_faces]
    w_face_w = fv.upwind_face_value(w_left, w_right,
                                    fv.face_gradient(ft, w_lag, w_trace)[:n_faces])
    w_face_phi = fv.upwind_face_value(w_left, w_right,
                                      -fv.face_gradient(ft, phi_lag, phi_trace)[:n_faces])

    # salt-thickness row: flux = delta grad w + alpha w grad w - (1-alpha) w grad phi
    builder.add_mass(0, 1.0 / cfg.dt)
    builder.add_rhs(0, vol * w_prev / cfg.dt)
    builder.add_tpfa(0, 0, np.full(n_faces, aspec.delta), w_trace)
    builder.add_tpfa(0, 0, alpha * w_face_w, w_trace)
    builder.add_tpfa(0, 1, -one_a * w_face_phi, phi_trace)
    # head row couplings
    builder.add_tpfa(1, 0, alpha * w_face_w, w_trace)
    builder.add_tpfa(1, 1, one_a * _face_h2(aspec, ft), phi_trace)
    builder.add_rhs(1, -vol * pump)
    builder.source[1] = -vol * pump.sum()
    return builder


def _face_h2(aspec: AquiferSpec, ft: fv.FaceTable) -> np.ndarray:
    """Reservoir depth on every face: the mean of its two cells, the cell's at the boundary."""
    h2 = fv.slot_values(ft, aspec.h2_cells(ft.grid), None)
    return 0.5 * (h2[ft.left] + h2[ft.right])


def _initial_head(aspec: AquiferSpec, grid: Grid, w0: np.ndarray, cfg: StepperConfig) -> np.ndarray:
    """Elliptic solve for the head consistent with the initial interface."""
    builder = SystemBuilder(grid, 1)
    ft = builder.ft
    one_a = 1.0 - aspec.alpha
    alpha = aspec.alpha
    phi_trace = aspec._eval(aspec.dirichlet_phi, ft.bnd_points, 0.0)
    w_trace = _u_traces(aspec, grid, 0.0)[1]
    n_faces = ft.n_interior if w_trace is None else ft.n_faces
    w = fv.slot_values(ft, _u0(w0), None if w_trace is None else _u0(w_trace))
    grad_w = fv.face_gradient(ft, w0, w_trace)
    w_face = fv.upwind_face_value(w[ft.left], w[ft.right], grad_w)
    builder.add_explicit_flux(0, (alpha * w_face * grad_w)[:n_faces])
    builder.add_tpfa(0, 0, one_a * _face_h2(aspec, ft), phi_trace)
    pump = aspec.pumping_values(0.0, ft.centers)
    builder.add_rhs(0, -grid.cell_volume * pump)
    try:
        return fv.solve_sparse(builder.matrix(), builder.rhs, cfg.lin_tol, cfg.lin_max)[0]
    except SolverFailure as exc:
        raise EllipticSolveError(str(exc), residual=exc.residual, time=0.0) from exc


def run_confined_aquifer(aspec: AquiferSpec, grid: Grid, cfg: StepperConfig) -> SimulationResult:
    """Confined variant: parabolic interface depth coupled to an elliptic head.

    Snapshots hold (h, phi).  The fully saturated reservoir fixes the water
    table at the top (h1 = 0); pumping acts as a sink of the total-flow
    balance.  The head always takes Dirichlet data from ``dirichlet_phi``.
    The state (w, phi) = (h2 - h, phi) runs through the solver's Picard and
    time loops; the budget series are those of (w, phi).
    """
    aspec.validate(grid)
    h2c = aspec.h2_cells(grid)
    h0, _ = aspec.initial_values(grid)
    w = h2c - h0
    phi = _initial_head(aspec, grid, w, cfg)
    return solver._integrate(grid, cfg, np.stack([w, phi]),
                             partial(_assemble_confined, aspec, grid, cfg=cfg),
                             lambda u: np.stack([h2c - u[0], u[1]]))


# ---------------------------------------------------------------------------
# scenarios and sweeps
# ---------------------------------------------------------------------------

def keulegan_scenario(grid: Grid, pump_rate: float = 0.0, tilt: float = 0.5, *,
                      h2: float = 1.0, delta: float = 0.3, alpha: float = 0.025,
                      epsilon: float = 1e-2, h_mid: float = 0.5,
                      h1_level: float = 0.1,
                      well_position: Sequence[float] | None = None) -> AquiferSpec:
    """Inclined-interface relaxation box, optionally with a pumping well.

    The salt interface starts linearly inclined along the first axis around
    ``h_mid`` with the given slope, the water table flat at ``h1_level``, in
    a closed box (the interface relaxes toward horizontal under the density
    contrast; pinned traces would hold it inclined and leak mass).  The well
    sits at ``well_position`` (box center by default) in a single cell with
    total extraction rate ``pump_rate``; geometry and rates are artifact
    defaults, not published benchmark values.  Tilts breaking the hierarchy
    0 <= h1 <= h <= h2 are rejected.
    """
    length = grid.extents[0]
    h_min = h_mid - abs(tilt) * length / 2.0
    h_max = h_mid + abs(tilt) * length / 2.0
    if h_min < h1_level - 1e-12 or h_max > h2 + 1e-12 or h1_level < 0.0:
        raise InvalidParameterError(
            f"tilt {tilt} breaks the hierarchy: h range [{h_min}, {h_max}], "
            f"h1 = {h1_level}, h2 = {h2}")

    def initial_h(points: np.ndarray) -> np.ndarray:
        return h_mid + tilt * (points[:, 0] - length / 2.0)

    pumping = None
    if pump_rate != 0.0:
        center = (np.asarray(well_position, dtype=float) if well_position is not None
                  else np.array([e / 2.0 for e in grid.extents]))
        pts = grid.cell_centers()
        well_cell = int(np.argmin(np.linalg.norm(pts - center[None, :], axis=1)))
        density = np.zeros(grid.n_cells)
        density[well_cell] = pump_rate / grid.cell_volume
        pumping = density

    return AquiferSpec(h2=h2, delta=delta, alpha=alpha, epsilon=epsilon,
                       initial_h=initial_h, initial_h1=float(h1_level),
                       domain=grid.extents, pumping=pumping, boundary="closed")


def interface_slope(values: np.ndarray, grid: Grid) -> float:
    """Largest face-difference slope |u_R - u_L| / h over interior faces."""
    ft = face_table(grid)
    g = fv.face_gradient(ft, values, None)[:ft.n_interior]
    return float(np.max(np.abs(g), initial=0.0))


def interior_local_maxima(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Flat indices of strict interior local maxima (all-neighbor dominance)."""
    ft = face_table(grid)
    L, R = ft.left[:ft.n_interior], ft.right[:ft.n_interior]
    beaten = np.zeros(grid.n_cells, dtype=bool)
    beaten[ft.bnd_cell] = True  # not interior
    beaten[L[~(values[L] > values[R])]] = True
    beaten[R[~(values[R] > values[L])]] = True
    return np.flatnonzero(~beaten)


@dataclass
class SweepReport:
    """Penalization sweep: per-epsilon confinement outcome and the decay fit."""

    entries: list[dict] = field(default_factory=list)
    fit_exponent: float = math.nan

    def violations(self) -> np.ndarray:
        return np.array([e["violation"] for e in self.entries if e["error"] is None])


def epsilon_sweep(aspec: AquiferSpec, grid: Grid, cfg: StepperConfig,
                  eps_list: Sequence[float]) -> SweepReport:
    """Run the penalized scheme along a decreasing epsilon list.

    Retains partial results when an epsilon fails; the decay exponent is the
    least-squares slope of log(final violation) against log(epsilon) over the
    successful, constraint-active entries.
    """
    eps = [float(e) for e in eps_list]
    if any(e <= 0.0 for e in eps):
        raise InvalidParameterError("epsilon list must be positive")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise InvalidParameterError("epsilon list must be strictly decreasing")
    report = SweepReport()
    first_error: SolverFailure | None = None
    for e in eps:
        spec_e = replace(aspec, epsilon=e)
        entry = {"epsilon": e, "violation": math.nan, "residual": math.nan, "error": None}
        try:
            _, conf = run_penalized(spec_e, grid, cfg)
            entry["violation"] = conf.final_violation
            entry["residual"] = conf.final_residual
        except SolverFailure as exc:
            entry["error"] = str(exc)
            if first_error is None:
                first_error = exc
        report.entries.append(entry)
    good = [(e["epsilon"], e["violation"]) for e in report.entries
            if e["error"] is None and e["violation"] > 0.0]
    if len(good) >= 2:
        x = np.log([g[0] for g in good])
        y = np.log([g[1] for g in good])
        report.fit_exponent = float(np.polyfit(x, y, 1)[0])
    if first_error is not None and all(e["error"] is not None for e in report.entries):
        raise first_error
    return report
