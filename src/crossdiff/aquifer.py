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
dome of the pumping benchmark); a well is a :func:`model.point_density`.

Boundary handling: 'dirichlet' pins interface depths through boundary
traces, 'closed' makes the box impermeable (the relaxation benchmark needs a
closed box to conserve freshwater mass).  The confined-reservoir variant
replaces the water-table equation by an elliptic solve for the hydraulic
head and always takes Dirichlet data for the head.

Every variant runs through the solver's time and Picard loops by handing
them one callback ``step(u_prev, t_prev, t_new)``, which evaluates the step's
traces and pumping once and returns ``sweep(u_lag)``; every matrix comes from
:class:`fv.SystemBuilder`.  As in the solver, each variant assembles on three
levels: its run (:func:`_penalized_step`, :func:`_confined_step`) evaluates
once what neither step nor lag changes (the depth h2 in the cells, the salt
mass, delta and head terms as read-only (key, values) pairs, the generic
run-fixed terms, the block maps of the change of unknowns), a step its
traces, pumping and their right-hand sides, and a sweep only what its lag
changes; the budget reads the boundary coefficients the builder recorded.
The penalized sweep assembles the thickness system with the generic assembly on
an internal spec (ell = inf, closed species for a closed box), has the
builder rewrite its terms in the unknowns (u1, s) and adds the drain on the
s block.  The confined sweep is its own
(w, phi) assembly.  The budget series are those of the solved state's
species: (u1, u2), without the drain, and (w, phi).  The plain thickness
run, without the drain, is the generic one, ``solver.run(to_cross_spec(aspec,
grid), grid, cfg)``, its snapshots mapped back by :func:`map_species`.

Each term is written once.  ``_u_traces`` maps head traces to (u1, u2) for
the ghosts, the generic spec and ``validate_data``, and :func:`map_heads`
gives s; ``_drain_traces`` gives a step's drain ghost values, and
``_drain_faces`` upwinds the drain coefficient by its driver for
``_add_drain`` and :func:`penalty_face_flux`, the drain flux that
:func:`confinement_report` reads; ``_salt_faces`` (U0(w) on both sides of a
face and grad w at a salt trace), ``_head_faces`` (the head coefficient
(1 - alpha) h2), ``_head_data`` (a step's head trace and pumping) and
``_add_head_terms`` (head term, pumping) serve the confined step and
``_initial_head`` alike.  The depth h2 is run-constant data: a run reads it,
and the head face coefficient built from it, once, never a step or a sweep.
:func:`run_penalized` and :func:`run_confined_aquifer` are the entry points; a
single step is a run with ``t_end = dt``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import fv, solver
from .conditions import check_aquifer_admissibility
from .fv import SolverFailure, SystemBuilder, face_table
from .model import CrossTensor, Grid, InvalidParameterError, ModelSpec, evaluate, point_density
from .solver import SimulationResult, StepperConfig

__all__ = [
    "AquiferSpec", "ConfinementReport", "EllipticSolveError", "SweepReport",
    "map_heads", "map_species", "to_cross_spec", "run_penalized",
    "run_confined_aquifer", "keulegan_scenario",
    "epsilon_sweep", "interface_slope", "interior_local_maxima",
]

HIERARCHY_TOL = 1e-9


class EllipticSolveError(SolverFailure):
    """Failure of the initial hydraulic-head elliptic solve (confined variant), at time 0."""


def _u0(x):
    return np.maximum(x, 0.0)


# ---------------------------------------------------------------------------
# spec
# ---------------------------------------------------------------------------

@dataclass
class AquiferSpec:
    """Data of one intrusion scenario.

    Every datum is turned into values by :func:`model.evaluate`: a scalar,
    a per-point array or a callable of the points (initial data) or of
    (t, points) (traces and pumping).  ``h2`` is the reservoir depth (scalar
    or per-cell; per-cell values enter the hierarchy, the variable mapping
    and the penalty threshold, while the interface dynamics stays the
    thickness-variable system above).  ``pumping`` is a signed extraction
    density (rate per area; None is no pumping).  ``boundary`` selects
    'dirichlet' traces or a 'closed' impermeable box; the head trace
    ``dirichlet_phi`` only serves the confined variant.  ``delta``, ``alpha``
    and ``epsilon`` are stored as floats.
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
        self.delta, self.alpha, self.epsilon = map(float, (self.delta, self.alpha, self.epsilon))
        if self.boundary not in ("dirichlet", "closed"):
            raise InvalidParameterError(f"unknown boundary mode {self.boundary!r}")
        if not self.delta > 0.0 or not self.epsilon > 0.0:
            raise InvalidParameterError("delta and epsilon must be positive")
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidParameterError(f"density contrast must lie in (0, 1], got {self.alpha}")
        if self.boundary == "dirichlet" and (self.dirichlet_h is None or self.dirichlet_h1 is None):
            raise InvalidParameterError("dirichlet boundaries need traces for h and h1")

    def h2_cells(self, grid: Grid) -> np.ndarray:
        return evaluate(self.h2, grid.n_cells)

    def initial_values(self, grid: Grid, points: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Initial (h, h1) at ``points``, the cell centers by default.

        Each datum keeps its own form: a callable is evaluated at the points, an
        array or scalar is read at the cell holding each point (on a boundary
        face, its boundary cell).
        """
        pts = grid.cell_centers() if points is None else points
        cell = grid.cell_of(pts)
        return tuple(evaluate(d, len(pts), pts) if callable(d) else evaluate(d, grid.n_cells)[cell]
                     for d in (self.initial_h, self.initial_h1))

    def trace_values(self, t: float, points: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        if self.boundary == "closed":
            return None
        n = points.shape[0]
        return evaluate(self.dirichlet_h, n, t, points), evaluate(self.dirichlet_h1, n, t, points)

    def pumping_values(self, t: float, points: np.ndarray) -> np.ndarray:
        pumping = 0.0 if self.pumping is None else self.pumping
        return evaluate(pumping, points.shape[0], t, points)

    def validate(self, grid: Grid) -> None:
        """The admissibility window, then the data checks of :meth:`validate_data`."""
        admissibility = check_aquifer_admissibility(float(np.min(self.h2)), self.delta, self.alpha)
        if not admissibility.passed:
            raise InvalidParameterError(
                f"admissibility fails: lhs={admissibility.lhs}, rhs={admissibility.rhs}")
        self.validate_data(grid)

    def validate_data(self, grid: Grid) -> None:
        """Finite delta, hierarchy of the initial data and traces, trace compatibility.

        These are the checks of :meth:`validate` but the admissibility window,
        which ``crossdiff check`` reports as a row instead.
        """
        if not math.isfinite(self.delta):
            raise InvalidParameterError(f"delta must be finite, got {self.delta}")
        h0, h10 = self.initial_values(grid)
        if any(np.any(v < -HIERARCHY_TOL) for v in (h10, *map_heads(h0, h10, self.h2_cells(grid)))):
            raise InvalidParameterError("initial data violate 0 <= h1 <= h <= h2")
        if self.boundary == "dirichlet":
            ft = face_table(grid)
            h_d, h1_d = self.trace_values(0.0, ft.bnd_points)
            if any(np.any(v < -HIERARCHY_TOL)
                   for v in (h1_d, *_u_traces(self, self.h2_cells(grid), grid, 0.0))):
                raise InvalidParameterError("boundary traces violate 0 <= h1 <= h <= h2")
            h0_tr, h10_tr = self.initial_values(grid, ft.bnd_points)
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


def _u_traces(aspec: AquiferSpec, h2c: np.ndarray, grid: Grid, t: float,
              points: np.ndarray | None = None):
    """Head traces at ``points`` (default: boundary face centers) as (u1, u2), or (None, None)
    for a closed box; a point maps with the depth ``h2c`` of the cell holding it."""
    points = face_table(grid).bnd_points if points is None else points
    tr = aspec.trace_values(t, points)
    if tr is None:
        return None, None
    return map_heads(*tr, h2c[grid.cell_of(points)])


def _thickness_spec(aspec: AquiferSpec, grid: Grid, ell: float) -> ModelSpec:
    """Generic two-species spec of the thickness system (u1, u2).

    Head data map as in :func:`_u_traces`; a closed box gives closed species.
    """
    one_a = 1.0 - aspec.alpha
    ndim = len(aspec.domain)
    k = [[CrossTensor.isotropic(one_a, ndim), CrossTensor.isotropic(one_a, ndim)],
         [CrossTensor.isotropic(one_a, ndim), CrossTensor.isotropic(1.0, ndim)]]
    h2c = aspec.h2_cells(grid)

    def initial_u(which):
        return lambda points: map_heads(*aspec.initial_values(grid, points),
                                        h2c[grid.cell_of(points)])[which]

    def dirichlet_u(which):
        return lambda t, points: _u_traces(aspec, h2c, grid, t, points)[which]

    closed = aspec.boundary == "closed"
    return ModelSpec(m=2, delta=(aspec.delta, aspec.delta), K=k, ell=ell,
                     domain=aspec.domain, initial=[initial_u(0), initial_u(1)],
                     dirichlet=[None, None] if closed else [dirichlet_u(0), dirichlet_u(1)],
                     sources=[None, lambda t, points, u: -aspec.pumping_values(t, points)])


def to_cross_spec(aspec: AquiferSpec, grid: Grid) -> ModelSpec:
    """Equivalent generic two-species spec at ell = h2; its run is the plain thickness run,
    without the drain."""
    if np.ndim(aspec.h2) != 0:
        raise InvalidParameterError("the generic mapping needs a constant reservoir depth")
    return _thickness_spec(aspec, grid, float(aspec.h2))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

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


def _add_drain(builder: SystemBuilder, aspec: AquiferSpec, h2c: np.ndarray, u1_lag: np.ndarray,
               s_lag: np.ndarray, w_d: np.ndarray | None, excess_d: np.ndarray | None) -> None:
    """Active-set linearized drain term on the total-thickness (s) block.

    The coefficient eps^-1 U0(s - u1) is lagged and upwinded as in :func:`_drain_faces`;
    the excess U0(s - h2) is linearized as active * (s - h2) at the lagged active set.
    ``h2c`` is the cell depth, and ``w_d`` and ``excess_d`` are the step's ghost values
    (:func:`_drain_traces`), None for a closed box.
    """
    ft = builder.ft
    ni = ft.n_interior
    active = (s_lag > h2c).astype(float)
    n_faces = ni if w_d is None else ft.n_faces
    # u2 as the unknowns (u1, s) give it, s - u1, in the cells and the ghosts alike
    w_face, _ = _drain_faces(ft, s_lag - u1_lag, s_lag, h2c, w_d, excess_d)
    kappa = (1.0 / aspec.epsilon * w_face * ft.area / ft.dist)[:n_faces]

    builder.add_face_term(1, 1, kappa * active[ft.left[:n_faces]],
                          kappa[:ni] * active[ft.right[:ni]])
    # the known part -active * h2 of the excess, with the trace excess in the ghosts
    y = fv.slot_values(ft, -active * h2c, excess_d)
    fa = kappa * (y[ft.right[:n_faces]] - y[ft.left[:n_faces]])
    builder.add_rhs(1, fv.face_divergence(ft, fa))


def _drain_traces(h2_bnd: np.ndarray, u1_d: np.ndarray | None, u2_d: np.ndarray | None):
    """A step's drain values in the ghosts, from its head traces as (u1, u2): U0(u2) as the
    unknowns (u1, s) give it, U0(s_d - u1_d), and the trace excess U0(s_d - h2) at the
    boundary cells' depth ``h2_bnd``; (None, None) for a closed box."""
    if u1_d is None:
        return None, None
    s_d = u1_d + u2_d
    return _u0(s_d - u1_d), _u0(s_d - h2_bnd)


def _drain_faces(ft: fv.FaceTable, u2, s, h2c, w_d=None, excess_d=None):
    """On every face, U0(u2) = U0(s - u1) upwinded by the driver grad U0(s - h2), and the
    driver; the ghosts hold ``w_d`` and ``excess_d`` (:func:`_drain_traces`), or repeat
    their cells for a closed box (None)."""
    w = fv.slot_values(ft, _u0(u2), w_d)
    driver = fv.face_gradient(ft, _u0(s - h2c), excess_d)
    return fv.upwind_face_value(fv.face_sides(w[ft.left], w[ft.right]), driver), driver


def penalty_face_flux(aspec: AquiferSpec, grid: Grid, h: np.ndarray,
                      h1: np.ndarray) -> np.ndarray:
    """Drain flux eps^-1 U0(s - u1) grad U0(s - h2) on the interior faces."""
    ft, h2c = face_table(grid), aspec.h2_cells(grid)
    u1, u2 = map_heads(h, h1, h2c)
    w_face, grad = _drain_faces(ft, u2, u1 + u2, h2c)
    return (w_face * grad / aspec.epsilon)[:ft.n_interior]


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _penalized_step(aspec: AquiferSpec, grid: Grid, cfg: StepperConfig):
    """Step callback of the penalized system: the thickness system in (u1, s), s = u1 + u2.

    Each sweep assembles the thickness spec at ell = inf, which clips at zero
    only, so the thickness coefficients are U0(u1) and U0(u2); it rewrites the
    system in (u1, s) and adds the drain terms on the s block.  The run
    evaluates the generic run-fixed terms, prepares the block maps of the
    change of unknowns and their inverse and reads the depth once; a step
    maps the head traces for the drain once.
    Every sweep solves to the run's own ``cfg.lin_tol`` at any epsilon: a
    stiff drain raises the system's rounding floor, which the linear solve
    accepts by itself (:func:`fv.solve_sparse`).
    """
    generic = solver._generic_step(_thickness_spec(aspec, grid, math.inf), grid, cfg)
    to_total = fv.BlockMaps(_TO_TOTAL, _FROM_TOTAL)
    h2c = aspec.h2_cells(grid)
    h2_bnd = h2c[face_table(grid).bnd_cell]

    def step(u_prev, t_prev, t_new):
        generic_sweep = generic(u_prev, t_prev, t_new)
        drain_d = _drain_traces(h2_bnd, *_u_traces(aspec, h2c, grid, t_new))

        def sweep(u_lag):
            builder = generic_sweep(u_lag)
            builder.change_unknowns(to_total)
            _add_drain(builder, aspec, h2c, u_lag[0], u_lag[0] + u_lag[1], *drain_d)
            return builder
        return sweep
    return step


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


def confinement_report(aspec: AquiferSpec, grid: Grid,
                       result: SimulationResult) -> ConfinementReport:
    ft = face_table(grid)
    h2c = aspec.h2_cells(grid)
    vol = grid.cell_volume
    violation = np.zeros(len(result.snapshots))
    residual = np.zeros(len(result.snapshots))
    q_field = np.zeros(0)
    for k, (h, h1) in enumerate(result.snapshots):
        violation[k] = float(np.sum(_u0(np.add(*map_heads(h, h1, h2c)) - h2c)) * vol)
        q_field = penalty_face_flux(aspec, grid, h, h1)
        q_mag = np.sqrt(np.sum(fv.cell_average(ft, np.abs(q_field)) ** 2, axis=0))
        residual[k] = float(np.sum(np.abs(h1) * q_mag) * vol)
    return ConfinementReport(result.snapshot_times, violation, residual, q_field)


def run_penalized(aspec: AquiferSpec, grid: Grid,
                  cfg: StepperConfig) -> tuple[SimulationResult, ConfinementReport]:
    """Penalized time loop over (h, h1) plus the confinement accounting.

    The state (u1, u2) runs through the solver's Picard and time loops with
    the step of :func:`_penalized_step`; ``cfg`` reaches the loop as given,
    so its ``lin_tol`` is that of every solve and of the Picard stop.
    """
    aspec.validate(grid)
    h2c = aspec.h2_cells(grid)
    u0 = np.stack(map_heads(*aspec.initial_values(grid), h2c))
    result = solver._integrate(grid, cfg, u0, _penalized_step(aspec, grid, cfg),
                               lambda u: np.stack(map_species(u[0], u[1], h2c)))
    return result, confinement_report(aspec, grid, result)


# ---------------------------------------------------------------------------
# confined-reservoir variant
# ---------------------------------------------------------------------------

def _confined_step(aspec: AquiferSpec, grid: Grid, cfg: StepperConfig):
    """Step callback of the (w, phi) system: parabolic salt thickness, elliptic head.

    The run (this call) evaluates the salt mass and delta terms and the head
    term, whose face coefficient reads the depth, once, as read-only
    (key, values) pairs that every sweep records.  A step evaluates its head
    trace, salt trace, pumping and their right-hand sides once and returns
    its ``sweep(u_lag)``, which computes only the lagged salt coefficients.
    The builder's budget is that of (w, phi), read from the recorded
    boundary coefficients: the head row has no mass term and the pumping as
    its source.
    """
    ft = face_table(grid)
    alpha, one_a = aspec.alpha, 1.0 - aspec.alpha
    n_faces = ft.n_interior if aspec.boundary == "closed" else ft.n_faces
    h2c = aspec.h2_cells(grid)
    mass = fv.fixed_mass(grid, 0, 1.0 / cfg.dt)
    delta = fv.fixed_tpfa(grid, 0, 0, np.full(n_faces, aspec.delta))
    head = fv.fixed_tpfa(grid, 1, 1, _head_faces(aspec, ft))

    def step(u_prev, t_prev, t_new):
        w_trace = _u_traces(aspec, h2c, grid, t_new)[1]
        salt_d = None if w_trace is None else _u0(w_trace)
        head_d = _head_data(aspec, ft, head, t_new, t_prev)
        phi_trace = head_d[0]
        mass_rhs = grid.cell_volume * u_prev[0] / cfg.dt
        if w_trace is not None:
            mass_rhs = mass_rhs + fv.trace_rhs(ft, delta, w_trace)

        def sweep(u_lag: np.ndarray) -> SystemBuilder:
            w_lag, phi_lag = u_lag
            builder = SystemBuilder(grid, 2)
            sides, grad_w = _salt_faces(ft, w_lag, w_trace, salt_d)
            w_face_w = fv.upwind_face_value(sides, grad_w)
            w_face_phi = fv.upwind_face_value(
                sides, -fv.face_gradient(ft, phi_lag, phi_trace)[:n_faces])

            # salt-thickness row: flux = delta grad w + alpha w grad w - (1-alpha) w grad phi
            builder.add_term(mass)
            builder.add_rhs(0, mass_rhs)
            builder.add_term(delta, w_trace)
            builder.add_tpfa(0, 0, alpha * w_face_w, w_trace)
            builder.add_tpfa(0, 1, -one_a * w_face_phi, phi_trace)
            # head row couplings
            builder.add_tpfa(1, 0, alpha * w_face_w, w_trace)
            _add_head_terms(builder, head, head_d)
            return builder
        return sweep
    return step


def _salt_faces(ft: fv.FaceTable, w: np.ndarray, w_trace: np.ndarray | None,
                salt_d: np.ndarray | None):
    """U0(w) on both sides of the faces that carry salt (:func:`fv.face_sides`) and grad w
    on them, for the salt trace ``w_trace`` and its U0, ``salt_d`` (None for a closed box,
    which carries no salt through its boundary)."""
    n_faces = ft.n_interior if w_trace is None else ft.n_faces
    slots = fv.slot_values(ft, _u0(w), salt_d)
    return (fv.face_sides(slots[ft.left][:n_faces], slots[ft.right][:n_faces]),
            fv.face_gradient(ft, w, w_trace)[:n_faces])


def _head_faces(aspec: AquiferSpec, ft: fv.FaceTable) -> np.ndarray:
    """Head coefficient (1 - alpha) h2 on every face; a face's h2 is the mean of its two
    cells', the cell's at the boundary."""
    h2 = fv.slot_values(ft, aspec.h2_cells(ft.grid), None)
    return (1.0 - aspec.alpha) * (0.5 * (h2[ft.left] + h2[ft.right]))


def _head_data(aspec: AquiferSpec, ft: fv.FaceTable, head: tuple, t_trace: float,
               t_pump: float):
    """A step's data of the head term ``head`` (:func:`fv.fixed_tpfa`): the head trace at
    ``t_trace``, its right-hand side, and the pumping at ``t_pump`` as right-hand side and
    source integral."""
    vol = ft.grid.cell_volume
    phi_trace = evaluate(aspec.dirichlet_phi, ft.n_boundary, t_trace, ft.bnd_points)
    pump = aspec.pumping_values(t_pump, ft.centers)
    return phi_trace, fv.trace_rhs(ft, head, phi_trace), -vol * pump, -vol * pump.sum()


def _add_head_terms(builder: SystemBuilder, head: tuple, head_d: tuple) -> None:
    """Head term -div((1 - alpha) h2 grad phi) on the row of ``head``, the pumping its
    source, from the step's :func:`_head_data`."""
    phi_trace, trace_rhs, pump_rhs, pump_source = head_d
    row = head[0][1]
    builder.add_term(head, phi_trace)
    builder.add_rhs(row, trace_rhs)
    builder.add_rhs(row, pump_rhs)
    builder.source[row] = pump_source


def _initial_head(aspec: AquiferSpec, grid: Grid, w0: np.ndarray, cfg: StepperConfig) -> np.ndarray:
    """Elliptic solve for the head consistent with the initial interface, with the data at t = 0.

    The solve takes its own one-species :class:`fv.BlockFactors`, which gets an
    inverse only where the head system takes the block path (2D grids above
    ``fv.DIRECT_MAX_UNKNOWNS[2]`` cells); of the solve's record only the head
    is kept.
    """
    builder = SystemBuilder(grid, 1)
    ft = builder.ft
    w_trace = _u_traces(aspec, aspec.h2_cells(grid), grid, 0.0)[1]
    sides, grad_w = _salt_faces(ft, w0, w_trace, None if w_trace is None else _u0(w_trace))
    builder.add_explicit_flux(0, aspec.alpha * fv.upwind_face_value(sides, grad_w) * grad_w)
    head = fv.fixed_tpfa(grid, 0, 0, _head_faces(aspec, ft))
    _add_head_terms(builder, head, _head_data(aspec, ft, head, 0.0, 0.0))
    try:
        return fv.solve_sparse(builder.matrix(), builder.rhs, cfg.lin_tol,
                               fv.BlockFactors(1, grid))[0]
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
    if aspec.alpha == 1.0:
        raise InvalidParameterError("alpha must be below 1 for the confined variant: the head "
                                    "coefficient (1 - alpha) h2 vanishes at alpha = 1")
    aspec.validate(grid)
    h2c = aspec.h2_cells(grid)
    h0, _ = aspec.initial_values(grid)
    w = h2c - h0
    phi = _initial_head(aspec, grid, w, cfg)
    return solver._integrate(grid, cfg, np.stack([w, phi]), _confined_step(aspec, grid, cfg),
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

    well = point_density(grid, well_position, pump_rate)  # checks the position at any rate
    return AquiferSpec(h2=h2, delta=delta, alpha=alpha, epsilon=epsilon,
                       initial_h=initial_h, initial_h1=float(h1_level), domain=grid.extents,
                       pumping=None if pump_rate == 0.0 else well, boundary="closed")


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
