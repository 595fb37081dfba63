"""Numerical witnesses of the analytic devices on stored trajectories.

Operates read-only on :class:`~crossdiff.solver.SimulationResult`: space-time
level-set measures and the geometric level iteration they feed, pointwise
bound checks, discrete space-time gradient norms, and a twin-run probe that
evaluates the energy terms behind the local uniqueness argument.

Time integrals use snapshot-slab quadrature: snapshot s carries the weight
t_{s+1} - t_s (piecewise constant in time, left endpoint), so the final
snapshot has zero weight and the total weight is exactly the simulated span.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import ClassVar, Sequence

import numpy as np

from . import fv, solver
from .conditions import DeGiorgiBudget
from .model import Grid, InvalidParameterError, ModelSpec, clamp, ellipticity_bounds
from .solver import SimulationResult, StepperConfig
from .table import csv_table

__all__ = [
    "LevelSetProfile", "DeGiorgiTrace", "BoundCheckReport", "UniquenessProbeReport",
    "level_set_measure", "level_set_profile", "degiorgi_trace", "bound_check",
    "discrete_grad_norms", "discrete_grad_norm", "empirical_interpolation_constant",
    "uniqueness_probe", "disc_cells", "disc_perturbation",
]


# ---------------------------------------------------------------------------
# level-set measures
# ---------------------------------------------------------------------------

def _slabs(result: SimulationResult) -> np.ndarray:
    """Slab weights t_{s+1} - t_s; zipped with the snapshots, they leave out the last one."""
    return np.diff(result.snapshot_times)


def level_set_measure(result: SimulationResult, grid: Grid, species: int,
                      k: float | np.ndarray) -> float | np.ndarray:
    """Space-time measure of { u_species > k } over the stored snapshots.

    ``k`` is one level (the measure is a ``float``) or an array of levels (an
    array of their measures), all counted in one pass over the snapshots from
    each snapshot's sorted values.  Strict inequality; snapshot-slab
    quadrature in time, cell volumes in space.  Accumulates slab * vol * count
    snapshot by snapshot so each value matches a plain double loop over
    (snapshot, cell) bit for bit.
    """
    if len(result.snapshots) == 0:
        raise InvalidParameterError("result holds no snapshots")
    levels = np.asarray(k, dtype=float)
    vol = grid.cell_volume
    total = np.zeros(levels.shape)
    for slab, snap in zip(_slabs(result), result.snapshots):
        u = np.sort(snap[species])
        # cells past a level's right insertion point; NaN sorts last and exceeds no level
        count = np.maximum(np.searchsorted(u, np.nan) - np.searchsorted(u, levels, "right"), 0)
        total += slab * vol * count
    return float(total) if levels.ndim == 0 else total


@dataclass
class LevelSetProfile:
    """Measures mu_i(k) on an increasing list of levels, one row per species."""

    levels: np.ndarray
    measures: np.ndarray  # (m, n_levels)

    def to_csv(self) -> str:
        return csv_table(["level"] + [f"mu_{i + 1}" for i in range(self.measures.shape[0])],
                         [self.levels, *self.measures])


def level_set_profile(result: SimulationResult, grid: Grid, levels) -> LevelSetProfile:
    levels = np.asarray(levels, dtype=float)
    if np.any(np.diff(levels) <= 0.0):
        raise InvalidParameterError("levels must be strictly increasing")
    meas = np.array([level_set_measure(result, grid, i, levels) for i in range(result.m)])
    return LevelSetProfile(levels, meas)


# ---------------------------------------------------------------------------
# level iteration trace
# ---------------------------------------------------------------------------

@dataclass
class DeGiorgiTrace:
    """Geometric level sequence, measured decay and the recursion bound.

    ``k_n = m_factor * ell0 * (1 + m_prime - 2^-n)``, ``v_n`` the measured
    level-set measures, and ``recursion_rhs[n]`` the one-step bound
    ``(2^(n+1) C_i beta v_n^((s-2)/(2s)) / (m_factor ell0))^r`` that must
    dominate ``v_{n+1}`` for the iteration to contract.
    """

    COLUMNS: ClassVar[tuple[str, ...]] = ("n", "k_n", "v_n", "rhs_n", "holds")

    k_n: np.ndarray
    v_n: np.ndarray
    recursion_rhs: np.ndarray  # length len(k_n) - 1
    holds: np.ndarray          # bool, same length as recursion_rhs
    n0: int

    def to_csv(self) -> str:
        """One row per level; the last row's ``rhs_n`` and ``holds`` cells are empty."""
        return csv_table(self.COLUMNS,
                         [range(len(self.k_n)), self.k_n, self.v_n,
                          self.recursion_rhs, self.holds])


def degiorgi_trace(result: SimulationResult, grid: Grid, species: int,
                   ell0: float, m_factor: float, m_prime: float,
                   budget: DeGiorgiBudget, n_max: int = 20) -> DeGiorgiTrace:
    """Measure the level iteration on a stored run and test the recursion."""
    if not budget.feasible:
        raise InvalidParameterError("level iteration budget is infeasible (zeta <= 0)")
    if not (ell0 > 0.0 and m_factor > 1.0 and m_prime > 0.0):
        raise InvalidParameterError("need ell0 > 0, m_factor > 1, m_prime > 0")
    n = np.arange(n_max + 1)
    k_n = m_factor * ell0 * (1.0 + m_prime - 2.0 ** (-n.astype(float)))
    n0 = next((i for i in range(n_max + 1) if k_n[i] >= m_factor * ell0), None)
    if n0 is None:
        raise InvalidParameterError(f"n_max = {n_max}: no level k_n reaches m_factor * ell0")
    v_n = level_set_measure(result, grid, species, k_n)
    s = budget.s
    r = budget.r
    cb = budget.c_i * budget.sobolev_beta
    rhs = (2.0 ** (n[:-1] + 1.0) * cb * v_n[:-1] ** ((s - 2.0) / (2.0 * s))
           / (m_factor * ell0)) ** r
    holds = v_n[1:] <= rhs
    return DeGiorgiTrace(k_n, v_n, rhs, holds, n0)


# ---------------------------------------------------------------------------
# bound checks
# ---------------------------------------------------------------------------

@dataclass
class SpeciesBound:
    species: int
    lo_margin: float     # min u - lo over the whole per-step series
    hi_margin: float     # hi - max u
    min_value: float
    min_time: float
    max_value: float
    max_time: float


@dataclass
class BoundCheckReport:
    lo: float
    hi: float
    species: list[SpeciesBound]

    @property
    def worst_lo_margin(self) -> float:
        return min(s.lo_margin for s in self.species)

    def to_csv(self) -> str:
        fields = ["lo_margin", "hi_margin", "min_value", "min_time", "max_value", "max_time"]
        return csv_table(["species"] + fields, [
            [sb.species + 1 for sb in self.species],
            *([getattr(sb, f) for sb in self.species] for f in fields)])


def bound_check(result: SimulationResult, lo: float = 0.0,
                hi: float = math.inf) -> BoundCheckReport:
    """Worst violations of lo <= u_i <= hi with their times.

    Margins, values and times come from the per-step extrema series (full
    temporal resolution).
    """
    out = []
    for i in range(result.m):
        series = result.minmax[i]
        kmin = int(np.argmin(series[:, 1]))
        kmax = int(np.argmax(series[:, 2]))
        min_val, min_t = float(series[kmin, 1]), float(series[kmin, 0])
        max_val, max_t = float(series[kmax, 2]), float(series[kmax, 0])
        out.append(SpeciesBound(
            species=i,
            lo_margin=min_val - lo,
            hi_margin=(hi - max_val) if math.isfinite(hi) else math.inf,
            min_value=min_val, min_time=min_t,
            max_value=max_val, max_time=max_t))
    return BoundCheckReport(lo, hi, out)


# ---------------------------------------------------------------------------
# discrete gradient norms
# ---------------------------------------------------------------------------

def _grad_magnitude(ft: fv.FaceTable, u: np.ndarray, traces: np.ndarray | None) -> np.ndarray:
    """|grad u| per cell from :func:`fv.cell_gradient` (``traces`` None: interior faces only)."""
    return np.sqrt(sum(c ** 2 for c in fv.cell_gradient(ft, u, traces)))


def discrete_grad_norms(result: SimulationResult, grid: Grid, species: int,
                        exponents: Sequence[float]) -> tuple[float, ...]:
    """( sum_t slab sum_c vol |grad u_species|^s )^(1/s) of one species, per s in ``exponents``.

    One gradient pass over the snapshots serves every exponent.  Cell
    gradients average the face differences available per axis (interior
    faces only; boundary traces are not stored with the run).
    """
    for s in exponents:
        if s < 1.0:
            raise InvalidParameterError(f"exponent must be >= 1, got {s}")
    ft = fv.face_table(grid)
    vol = grid.cell_volume
    totals = [0.0] * len(exponents)
    for slab, snap in zip(_slabs(result), result.snapshots):
        mag = _grad_magnitude(ft, snap[species], None)
        for j, s in enumerate(exponents):
            totals[j] += slab * vol * float(np.sum(mag ** s))
    # the ufunc, whose root can differ in the last bit from the scalar ``**``
    return tuple(float(np.power(total, 1.0 / s)) for total, s in zip(totals, exponents))


def discrete_grad_norm(result: SimulationResult, grid: Grid, species: int, s: float) -> float:
    """The norm of :func:`discrete_grad_norms` for one exponent ``s``."""
    return discrete_grad_norms(result, grid, species, (s,))[0]


def empirical_interpolation_constant(result: SimulationResult, grid: Grid,
                                     species: int, r: float, q: float,
                                     grad_l2: float) -> float:
    """Measured ratio ||u||_{L^r L^q} / (||u||_{L^inf L^2} + ||grad u||_{L^2}).

    Stands in for the interpolation constant when no analytic value is
    supplied; measured on the run itself with snapshot-slab quadrature.  Its
    gradient term ``grad_l2`` is the caller's :func:`discrete_grad_norms` at
    s = 2.
    """
    vol = grid.cell_volume
    snaps = result.snapshots[:, species]
    sup_l2 = max(math.sqrt(float(np.sum(u ** 2)) * vol) for u in snaps)
    num = 0.0
    for slab, u in zip(_slabs(result), snaps):
        lq = (float(np.sum(np.abs(u) ** q)) * vol) ** (1.0 / q)
        num += slab * lq ** r
    den = sup_l2 + grad_l2
    if den == 0.0:
        return 0.0
    return num ** (1.0 / r) / den


# ---------------------------------------------------------------------------
# twin-run uniqueness probe
# ---------------------------------------------------------------------------

def disc_cells(grid: Grid, center, radius: float) -> np.ndarray:
    """Flat indices of cells whose centers lie within ``radius`` of ``center``."""
    pts = grid.cell_centers()
    c = np.asarray(center, dtype=float)
    return np.flatnonzero(np.linalg.norm(pts - c[None, :], axis=1) <= radius)


def _set_boundary_cells(grid: Grid, cells: np.ndarray) -> np.ndarray:
    """Cells of the set with a neighbor outside it or on the domain boundary."""
    ft = fv.face_table(grid)
    inside = np.zeros(grid.n_cells + ft.n_boundary, dtype=bool)  # ghost slots lie outside
    inside[cells] = True
    cut = inside[ft.left] != inside[ft.right]
    on_cut = np.zeros_like(inside)
    on_cut[ft.left[cut]] = on_cut[ft.right[cut]] = True
    return np.flatnonzero(on_cut[:grid.n_cells] & inside[:grid.n_cells])


def disc_perturbation(grid: Grid, m: int, center, radius: float,
                      amplitude: float) -> tuple[np.ndarray, np.ndarray]:
    """Smooth bump supported strictly inside the disc cell set.

    Returns the (m, n_cells) perturbation values (same bump on every species)
    and the flat indices of the disc cells; the set's boundary cells are
    zeroed so the support stays inside the discrete ball.
    """
    cells = disc_cells(grid, center, radius)
    pts = grid.cell_centers()
    r = np.linalg.norm(pts - np.asarray(center, dtype=float)[None, :], axis=1)
    bump = np.zeros(grid.n_cells)
    bump[cells] = amplitude * np.cos(np.pi * r[cells] / (2.0 * radius)) ** 2
    bump[_set_boundary_cells(grid, cells)] = 0.0
    return np.tile(bump, (m, 1)), cells


@dataclass
class UniquenessProbeReport:
    """Twin-run separation energies and the stability prefactors.

    Energies use snapshot-slab quadrature; the truncated-coefficient weight
    is symmetrized over the two runs so that swapping them changes nothing
    but the sign of v.  ``margins`` are the computable prefactors of the
    summed energy inequality at the grid-searched epsilons (the
    radius-dependent terms carry unquantified constants and are omitted).
    """

    times: np.ndarray
    v_norms: np.ndarray       # (m, n_snapshots)
    grad_energies: np.ndarray  # (m,)
    cross_energies: np.ndarray  # (m,)
    epsilons: np.ndarray       # (eps_1, eps_2, eps_3, eps_4)
    margins: np.ndarray        # (m_grad_1, m_grad_2, m_cross_1, m_cross_2)
    amplification: float

    def to_csv(self) -> str:
        """The v-norm series, an empty line, then a ``quantity,value`` section."""
        m = self.v_norms.shape[0]
        series = csv_table(["t"] + [f"v_norm_{i + 1}" for i in range(m)],
                           [self.times, *self.v_norms])
        names = ([f"{q}_{i + 1}" for i in range(m) for q in ("grad_energy", "cross_energy")]
                 + [f"epsilon_{k + 1}" for k in range(len(self.epsilons))]
                 + [f"margin_{k + 1}" for k in range(len(self.margins))] + ["amplification"])
        energies = np.column_stack([self.grad_energies, self.cross_energies]).ravel()
        values = np.concatenate([energies, self.epsilons, self.margins, [self.amplification]])
        return series + "\n" + csv_table(["quantity", "value"], [names, values])


_EPS_GRID = (1e-3, 1e-2, 0.1, 0.25, 0.5, 0.75, 1.0)


def _search_epsilons(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Maximize the minimum prefactor over a coarse grid of epsilon scales."""
    d1, d2 = spec.delta
    k12p = ellipticity_bounds(spec.K[0][1])[1]
    k21p = ellipticity_bounds(spec.K[1][0])[1]
    k11m = ellipticity_bounds(spec.K[0][0])[0]
    k22m = ellipticity_bounds(spec.K[1][1])[0]
    ell = spec.ell
    best = None
    for a, b, c, d in itertools.product(_EPS_GRID, repeat=4):
        e1, e2, e3, e4 = a * d1, b * d2, c * k11m, d * k22m
        margins = np.array([
            d1 - 2.0 * e1 - ell * k21p ** 2 / (4.0 * e4),
            d2 - 2.0 * e2 - ell * k12p ** 2 / (4.0 * e3),
            k11m - e3,
            k22m - e4,
        ])
        key = margins.min()
        if best is None or key > best[0]:
            best = (key, np.array([e1, e2, e3, e4]), margins)
    return best[1], best[2]


def uniqueness_probe(spec: ModelSpec, grid: Grid, cfg: StepperConfig,
                     perturbation: np.ndarray, rho_cells: np.ndarray) -> UniquenessProbeReport:
    """Run twins from u0 and u0 + perturbation and report separation energies.

    ``perturbation`` holds (m, n_cells) values, as :func:`disc_perturbation`
    returns them; it must vanish outside ``rho_cells`` and on that set's
    boundary cells (discrete analog of matching data on the ball boundary).
    Both runs share Dirichlet data, so the difference v has zero trace.
    Spec validation is the caller's concern: the perturbed twin necessarily
    carries per-cell initial data, which the strict boundary compatibility
    check cannot certify for smooth fields.
    """
    if spec.m != 2:
        raise InvalidParameterError("probe is formulated for two species")
    pv = np.asarray(perturbation, dtype=float)
    if pv.shape != (spec.m, grid.n_cells):
        raise InvalidParameterError("perturbation shape must be (m, n_cells)")
    outside = np.ones(grid.n_cells, dtype=bool)
    outside[rho_cells] = False
    if np.any(pv[:, outside] != 0.0):
        raise InvalidParameterError("perturbation must vanish outside the cell set")
    ring = _set_boundary_cells(grid, rho_cells)
    if np.any(pv[:, ring] != 0.0):
        raise InvalidParameterError("perturbation must vanish on the set's boundary cells")

    points = grid.cell_centers()
    base_u0 = np.stack([spec.initial_values(i, points) for i in range(spec.m)])
    spec_b = replace(spec, initial=[base_u0[i] + pv[i] for i in range(spec.m)])
    res_a = solver.run(spec, grid, cfg, validate=False)
    res_b = solver.run(spec_b, grid, cfg, validate=False)

    vol = grid.cell_volume
    snaps_a, snaps_b = res_a.snapshots, res_b.snapshots
    v_norms = np.sqrt(np.sum((snaps_b - snaps_a) ** 2, axis=2) * vol).T
    grad_e = np.zeros(spec.m)
    cross_e = np.zeros(spec.m)
    ft = fv.face_table(grid)
    zero_trace = np.zeros(ft.n_boundary)
    for slab, ua, ub in zip(_slabs(res_a), snaps_a, snaps_b):
        v = ub - ua
        for i in range(spec.m):
            mag2 = _grad_magnitude(ft, v[i], zero_trace) ** 2
            w = 0.5 * (clamp(ua[i], spec.ell) + clamp(ub[i], spec.ell))
            grad_e[i] += slab * vol * float(np.sum(mag2))
            cross_e[i] += slab * vol * float(np.sum(w * mag2))

    totals = np.sqrt(np.sum(v_norms ** 2, axis=0))
    amplification = 0.0 if totals[0] == 0.0 else float(totals.max() / totals[0])
    epsilons, margins = _search_epsilons(spec)
    return UniquenessProbeReport(res_a.snapshot_times, v_norms, grad_e, cross_e,
                                 epsilons, margins, amplification)
