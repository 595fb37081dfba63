import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse

from crossdiff import aquifer as aq
from crossdiff import fv, solver
from crossdiff.conditions import check_existence
from crossdiff.fv import SolverFailure
from crossdiff.model import CrossTensor, Grid, InvalidParameterError, ModelSpec
from crossdiff.solver import (StepperConfig, _generic_step, convergence_study,
                              manufactured_forcing, mass_balance_residual, run)

from conftest import count_superlu, coupled_spec_2d, plain_run, product_sine

ISO = CrossTensor.isotropic


def heat_spec_1d(nx=64, initial=None, dirichlet=0.0):
    return ModelSpec(m=1, delta=[1.0], K=[[ISO(1.0, 1)]], ell=0.0, domain=(1.0,),
                     initial=[initial or (lambda p: np.sin(np.pi * p[:, 0]))],
                     dirichlet=[dirichlet])


# ---------------------------------------------------------------------------
# steady states and decoupling
# ---------------------------------------------------------------------------

def test_constant_state_preserved(grid_12):
    spec = coupled_spec_2d()
    spec.initial = (0.4, 0.4)
    spec.dirichlet = (0.4, 0.4)
    cfg = StepperConfig(dt=1e-2, t_end=5e-2, lin_tol=1e-12)
    result = run(spec, grid_12, cfg)
    assert np.max(np.abs(result.snapshots[-1] - 0.4)) < 1e-10


def test_zero_level_matches_independent_heat_steps():
    # ell = 0 annihilates the coupling: the block step must agree entrywise
    # with per-species backward-Euler heat steps assembled from scratch
    grid = Grid((8, 8), (1.0, 1.0))
    iso = ISO
    spec = ModelSpec(m=2, delta=[1.0, 0.5], K=[[iso(3.0, 2), iso(2.0, 2)],
                                               [iso(2.0, 2), iso(3.0, 2)]],
                     ell=0.0, domain=(1.0, 1.0),
                     initial=[product_sine(1.0), product_sine(0.6)],
                     dirichlet=[0.0, 0.0])
    dt, steps = 1e-3, 4
    cfg = StepperConfig(dt=dt, t_end=steps * dt, lin_tol=1e-14, snapshot_every=1)
    result = run(spec, grid, cfg)

    # independent dense assembly: ghost Dirichlet two-point fluxes
    n = grid.n_cells
    h = grid.spacing[0]
    vol = grid.cell_volume
    idx = grid.flat_index()

    def dense_heat_matrix(delta):
        a = np.zeros((n, n))
        for i in range(8):
            for j in range(8):
                c = idx[i, j]
                a[c, c] += vol / dt
                for (ni, nj) in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                    t = delta * h / h  # face area h, distance h
                    if 0 <= ni < 8 and 0 <= nj < 8:
                        d = idx[ni, nj]
                        a[c, c] += t
                        a[c, d] -= t
                    else:
                        a[c, c] += delta * h / (h / 2.0)
        return a

    pts = grid.cell_centers()
    for sp in range(2):
        u = spec.initial_values(sp, pts)
        a = dense_heat_matrix(spec.delta[sp])
        for _ in range(steps):
            u = np.linalg.solve(a, vol * u / dt)
        assert np.max(np.abs(result.snapshots[-1, sp] - u)) < 1e-12


def test_truncated_matches_raw_when_interior(grid_12):
    spec = coupled_spec_2d(ell=10.0)
    cfg = StepperConfig(dt=1e-3, t_end=2e-2, lin_tol=1e-11, snapshot_every=5)
    res_t = run(spec, grid_12, cfg)
    assert res_t.minmax[:, :, 2].max() < spec.ell
    res_r = run(dataclasses.replace(spec, ell=math.inf), grid_12, cfg)
    diff = np.max(np.abs(res_t.snapshots - res_r.snapshots))
    assert diff <= 10 * cfg.lin_tol


def test_truncation_below_the_maximum_changes_the_run(grid_12):
    # the control of the bridge above: a level below max u must show
    spec = coupled_spec_2d(ell=0.5)
    cfg = StepperConfig(dt=1e-3, t_end=2e-2, lin_tol=1e-11, snapshot_every=5)
    res_t = run(spec, grid_12, cfg)
    assert res_t.minmax[:, :, 2].max() > 1.5 * spec.ell
    res_r = run(dataclasses.replace(spec, ell=math.inf), grid_12, cfg)
    diff = np.max(np.abs(res_t.snapshots - res_r.snapshots))
    assert diff >= 1e-2


# ---------------------------------------------------------------------------
# oracle and convergence
# ---------------------------------------------------------------------------

def test_heat_oracle_error_bound():
    grid = Grid((64,), (1.0,))
    cfg = StepperConfig(dt=1e-4, t_end=0.01, lin_tol=1e-12, snapshot_every=100)
    result = run(heat_spec_1d(), grid, cfg)
    x = grid.cell_centers()[:, 0]
    exact = math.exp(-math.pi ** 2 * 0.01) * np.sin(np.pi * x)
    err = np.max(np.abs(result.snapshots[-1, 0] - exact))
    h = grid.spacing[0]
    assert err <= 5.0 * (h ** 2 + cfg.dt)


def heat_exact(t, pts):
    return (np.exp(-np.pi ** 2 * t) * np.sin(np.pi * pts[:, 0]))[None, :]


def test_heat_limit_convergence_orders():
    grids = [Grid((n,), (1.0,)) for n in (8, 16, 32, 64)]
    dts = [2e-3 / 4 ** k for k in range(4)]
    rows = convergence_study(lambda g: heat_spec_1d(), heat_exact, grids, dts,
                             t_end=0.01, manufacture=False)
    for row in rows[1:]:
        assert row["order_inf"] >= 1.8
        assert row["order_l2"] >= 1.8


def test_heat_temporal_order():
    grids = [Grid((256,), (1.0,))] * 3
    dts = [1e-3, 5e-4, 2.5e-4]
    rows = convergence_study(lambda g: heat_spec_1d(), heat_exact, grids, dts,
                             t_end=0.01, manufacture=False)
    for row in rows[1:]:
        assert row["order_inf"] >= 0.9


def _mms_factory(grid):
    return ModelSpec(m=2, delta=[1.0, 0.8],
                     K=[[ISO(1.0, 2), ISO(0.5, 2)], [ISO(0.5, 2), ISO(1.0, 2)]],
                     ell=10.0, domain=(1.0, 1.0), initial=[1.0, 1.2],
                     dirichlet=[1.0, 1.2])


def _mms_exact(t, pts):
    s = np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    return np.stack([1.0 + 0.7 * t * s, 1.2 - 0.5 * t * s])


def test_manufactured_coupled_spatial_orders():
    grids = [Grid((n, n), (1.0, 1.0)) for n in (8, 16, 32)]
    dts = [5e-3 / 4 ** k for k in range(3)]
    rows = convergence_study(_mms_factory, _mms_exact, grids, dts, t_end=0.02)
    for row in rows[1:]:
        assert 1.8 <= row["order_inf"] <= 2.2
        assert 1.8 <= row["order_l2"] <= 2.2


def test_manufactured_coupled_temporal_orders():
    grids = [Grid((32, 32), (1.0, 1.0))] * 3
    dts = [4e-3, 2e-3, 1e-3]
    rows = convergence_study(_mms_factory, _mms_exact, grids, dts, t_end=0.02)
    for row in rows[1:]:
        assert 0.9 <= row["order_inf"] <= 1.1


def test_manufactured_full_tensor_orders():
    # off-diagonal tensor entries exercise the explicit tangential fluxes
    full = CrossTensor(((0.6, 0.2), (0.2, 0.6)))

    def factory(_grid):
        return ModelSpec(m=2, delta=[1.0, 0.8],
                         K=[[ISO(1.0, 2), full], [full, ISO(1.0, 2)]],
                         ell=10.0, domain=(1.0, 1.0), initial=[1.0, 1.2],
                         dirichlet=[1.0, 1.2])

    grids = [Grid((n, n), (1.0, 1.0)) for n in (8, 16)]
    dts = [5e-3, 5e-3 / 4.0]
    rows = convergence_study(factory, _mms_exact, grids, dts, t_end=0.02)
    assert 1.8 <= rows[1]["order_inf"] <= 2.2


def _sharp_factory(_grid):
    return ModelSpec(m=2, delta=[0.5, 0.4],
                     K=[[ISO(1.0, 2), ISO(0.5, 2)], [ISO(0.5, 2), ISO(1.0, 2)]],
                     ell=10.0, domain=(1.0, 1.0), initial=[0.0, 0.0], dirichlet=[0.0, 0.0])


def _sharp_exact(t, pts):
    # the coupling coefficient of u1 varies more than tenfold over the box, so a
    # first-order face weighting of the cross terms shows in the orders
    s = np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    return np.stack([0.1 + (1.0 + t) * s * (1.0 + 0.5 * np.cos(np.pi * pts[:, 0]) ** 2),
                     0.1 + (0.8 - t) * s])


def test_cross_faces_are_second_order_on_a_varying_coefficient():
    grids = [Grid((n, n), (1.0, 1.0)) for n in (8, 16, 32)]
    dts = [5e-3 / 4 ** k for k in range(3)]
    rows = convergence_study(_sharp_factory, _sharp_exact, grids, dts, t_end=0.02)
    assert rows[-1]["order_l2"] >= 1.8
    assert rows[-1]["order_inf"] >= 1.6


def test_degenerate_front_stays_nonnegative_and_in_place():
    # species 1 is empty on x > 0.3 and is driven into that region by a linear u2;
    # the spec lies inside the existence window
    grid = Grid((200,), (1.0,))
    spec = ModelSpec(m=2, delta=[0.05, 0.05], K=[[ISO(0.1, 1)] * 2] * 2, ell=1.0,
                     domain=(1.0,),
                     initial=[lambda p: np.where(p[:, 0] < 0.3, 0.5 * (0.3 - p[:, 0]) / 0.3, 0.0),
                              lambda p: 1.0 - p[:, 0]],
                     dirichlet=[None, None])
    assert all(r.passed for r in check_existence(spec))
    result = run(spec, grid, StepperConfig(dt=1e-3, t_end=0.1))
    assert result.minmax[:, :, 1].min() >= -1e-10
    x = grid.cell_centers()[:, 0]
    front = x[result.snapshots[-1, 0] > 1e-6].max()
    # the front of donor-cell faces on this grid lies at 0.7275
    assert abs(front - 0.7275) <= 2 * grid.spacing[0]


def test_degenerate_refinement_guard():
    grids = [Grid((16,), (1.0,))] * 2
    dts = [1e-3, 1e-3]
    rows = convergence_study(lambda g: heat_spec_1d(), heat_exact, grids, dts,
                             t_end=5e-3, manufacture=False)
    # no order is measured between two equal levels, nor on the coarsest level
    assert all(math.isnan(row[f"order_{norm}"]) for row in rows for norm in ("inf", "l2"))


def test_manufactured_forcing_matches_analytic_heat():
    # for the pure heat exact solution the forcing must vanish
    spec = heat_spec_1d()
    q = manufactured_forcing(heat_exact, spec, 0)
    pts = np.linspace(0.05, 0.95, 7)[:, None]
    vals = q(0.37, pts)
    assert np.max(np.abs(vals)) < 1e-7


# ---------------------------------------------------------------------------
# positivity and block structure
# ---------------------------------------------------------------------------

def test_positivity_small_run(grid_12):
    spec = coupled_spec_2d(ell=1.0)
    cfg = StepperConfig(dt=1e-3, t_end=0.03)
    result = run(spec, grid_12, cfg)
    assert result.minmax[:, :, 1].min() >= -1e-10


def test_species_diffusion_blocks_spd(grid_12):
    spec = coupled_spec_2d(ell=1.0, k_offdiag=0.5)
    pts = grid_12.cell_centers()
    u = np.stack([spec.initial_values(i, pts) for i in range(2)])
    cfg = StepperConfig(dt=1e-3, t_end=1e-3)
    builder = _generic_step(spec, grid_12, cfg)(u, 0.0, 1e-3)(u)
    a = builder.matrix()
    n = grid_12.n_cells
    vol = grid_12.cell_volume
    rng = np.random.default_rng(11)
    for sp in range(2):
        block = a[sp * n:(sp + 1) * n, sp * n:(sp + 1) * n].toarray()
        diffusion = block - np.eye(n) * vol / cfg.dt
        assert np.max(np.abs(diffusion - diffusion.T)) < 1e-12
        for _ in range(25):
            x = rng.normal(size=n)
            assert x @ diffusion @ x > 0.0


# ---------------------------------------------------------------------------
# mass balance
# ---------------------------------------------------------------------------

def test_mass_balance_constant_state(grid_12):
    spec = coupled_spec_2d()
    spec.initial = (0.4, 0.4)
    spec.dirichlet = (0.4, 0.4)
    cfg = StepperConfig(dt=1e-2, t_end=5e-2, lin_tol=1e-12)
    result = run(spec, grid_12, cfg)
    mb = mass_balance_residual(result, spec, grid_12)
    assert mb.ok


def test_mass_balance_any_converged_run(grid_12):
    spec = coupled_spec_2d(ell=1.0)
    cfg = StepperConfig(dt=1e-3, t_end=0.02, lin_tol=1e-11)
    result = run(spec, grid_12, cfg)
    mb = mass_balance_residual(result, spec, grid_12)
    assert mb.ok
    assert mb.max_residual < 1e-8


def test_point_source_budget():
    # interior unit-rate source: mass grows by dt per step minus the outflow,
    # with the boundary flux recomputed independently from the snapshots
    grid = Grid((16,), (1.0,))
    spec = heat_spec_1d()
    pts = grid.cell_centers()
    cell = int(np.argmin(np.abs(pts[:, 0] - 0.5)))
    density = np.zeros(grid.n_cells)
    density[cell] = 1.0 / grid.cell_volume
    spec.sources = (lambda t, p, u: density,)
    spec.initial = (lambda p: np.sin(np.pi * p[:, 0]),)
    cfg = StepperConfig(dt=1e-3, t_end=1e-2, lin_tol=1e-12, snapshot_every=1)
    result = run(spec, grid, cfg)
    mb = mass_balance_residual(result, spec, grid)
    assert mb.ok
    assert np.allclose(result.source_integral[0], 1.0, atol=1e-12)

    h = grid.spacing[0]
    for k in range(result.n_steps):
        u_new = result.snapshots[k + 1, 0]
        flux = (0.0 - u_new[0]) / (h / 2.0) + (0.0 - u_new[-1]) / (h / 2.0)
        assert flux == pytest.approx(result.boundary_flux[0, k], abs=1e-9)
        dm = result.mass[0, k + 1] - result.mass[0, k]
        assert dm == pytest.approx(cfg.dt * (1.0 + flux), abs=1e-10)


# ---------------------------------------------------------------------------
# stepping mechanics and failure modes
# ---------------------------------------------------------------------------

def test_zero_horizon_returns_initial_only(grid_12):
    spec = coupled_spec_2d()
    result = run(spec, grid_12, StepperConfig(dt=1e-3, t_end=0.0))
    assert len(result.snapshots) == 1
    assert result.snapshot_times.tolist() == [0.0]


# a single step is a run with t_end = dt

def test_advance_step_validates(grid_12):
    spec = coupled_spec_2d()
    spec.delta = (0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        run(spec, grid_12, StepperConfig(dt=1e-3, t_end=1e-3))


def test_advance_step_moves_time(grid_12):
    spec = coupled_spec_2d()
    result = run(spec, grid_12, StepperConfig(dt=1e-3, t_end=1e-3))
    assert result.snapshot_times[-1] == pytest.approx(1e-3)
    assert result.snapshots.shape == (2, spec.m, grid_12.n_cells)


def test_source_evaluated_once_per_step(grid_12):
    # a step's sources and traces are evaluated once, before its sweeps, and
    # the budget's source integral reuses the values of that evaluation
    calls = []

    def source(t, points, u):
        calls.append(t)
        return 0.5 + 0.0 * points[:, 0]

    def counting_trace(which):
        def trace(t, points):
            traces[which].append(t)
            return 0.0 * points[:, 0]
        return trace
    traces = ([], [])
    spec = coupled_spec_2d()
    spec.sources = [source, None]
    spec.dirichlet = [counting_trace(0), counting_trace(1)]
    cfg = StepperConfig(dt=1e-3, t_end=5e-3, picard_max=3, picard_tol=1e-300)
    result = run(spec, grid_12, cfg)
    assert [st["picard_sweeps"] for st in result.solver_stats] == [3] * 5
    assert len(calls) == 5
    assert calls == list(result.times[:-1])
    # validate_spec reads the traces at t = 0
    assert traces[0] == traces[1] == [0.0] + [t + cfg.dt for t in result.times[:-1]]
    assert np.array_equal(result.source_integral[0], np.full(5, 0.5 * grid_12.n_cells
                                                             * grid_12.cell_volume))


def test_solver_failure_carries_partialresult(monkeypatch):
    # one GMRES iteration per call, so the stiff step stalls at once
    monkeypatch.setattr(fv, "GMRES_RESTART", 1)
    monkeypatch.setattr(fv, "GMRES_CYCLES", 1)
    grid = Grid((32, 32), (1.0, 1.0))
    spec = coupled_spec_2d()
    spec.initial = (product_sine(1.0), product_sine(0.8))
    cfg = StepperConfig(dt=1e6, t_end=2e6, lin_tol=1e-14)
    with pytest.raises(SolverFailure) as exc_info:
        run(spec, grid, cfg)
    exc = exc_info.value
    assert exc.time == pytest.approx(1e6)
    assert math.isfinite(exc.residual)
    assert exc.partial is not None
    assert len(exc.partial.times) >= 1
    assert len(exc.partial.snapshots) == len(exc.partial.snapshot_times) >= 1


def test_picard_nonconvergence_recorded(grid_12):
    spec = coupled_spec_2d(ell=1.0)
    cfg = StepperConfig(dt=5e-2, t_end=5e-2, picard_tol=1e-14, picard_max=2)
    result = run(spec, grid_12, cfg)
    assert result.solver_stats[0]["picard_converged"] is False
    assert result.solver_stats[0]["picard_sweeps"] == 2


def test_snapshot_times_strictly_increasing(grid_12):
    spec = coupled_spec_2d()
    result = run(spec, grid_12, StepperConfig(dt=1e-3, t_end=1e-2, snapshot_every=3))
    assert np.array_equal(result.snapshot_times, result.times[[0, 3, 6, 9, 10]])
    assert np.all(np.diff(result.snapshot_times) > 0.0)


@pytest.mark.parametrize("field", ["picard_max", "snapshot_every"])
@pytest.mark.parametrize("value", [0, -3, 2.5, 2.0, True, "2"])
def test_integer_controls_must_be_positive_integers(field, value):
    with pytest.raises(InvalidParameterError, match=field):
        StepperConfig(dt=1e-3, t_end=1e-3, **{field: value})


def test_integer_controls_accept_numpy_integers():
    cfg = StepperConfig(dt=1e-3, t_end=1e-3, picard_max=np.int64(3), snapshot_every=np.int32(1))
    assert cfg.picard_max == 3


@pytest.mark.parametrize("field", ["dt", "t_end", "picard_tol", "lin_tol"])
@pytest.mark.parametrize("value", [True, "0.001", None, [1e-3], math.inf, math.nan])
def test_float_controls_must_be_real_numbers(field, value):
    with pytest.raises(InvalidParameterError, match=field):
        StepperConfig(**{"dt": 1e-3, "t_end": 1e-3, field: value})


def test_float_controls_accept_numpy_floats_and_integers():
    cfg = StepperConfig(dt=np.float64(1e-3), t_end=0, picard_tol=np.float32(1e-6), lin_tol=1)
    assert (cfg.dt, cfg.t_end, cfg.lin_tol) == (1e-3, 0, 1)


# ---------------------------------------------------------------------------
# linear solve
# ---------------------------------------------------------------------------

def _sweep_system(n: int, dt: float = 1e-3):
    """First-sweep block matrix and RHS of the coupled 2D spec on an n x n grid."""
    grid = Grid((n, n), (1.0, 1.0))
    spec = coupled_spec_2d()
    u0 = np.stack([spec.initial_values(i, grid.cell_centers()) for i in range(2)])
    builder = _generic_step(spec, grid, StepperConfig(dt=dt, t_end=dt))(u0, 0.0, dt)(u0)
    return builder.matrix(), builder.rhs


BOX_8 = Grid((8,), (8.0,))


def _closed_box_system(mass: float, g: np.ndarray):
    """Assembled one-species system of an 8-cell closed 1D box with unit faces: on the
    direct path, solved by its band."""
    builder = fv.SystemBuilder(BOX_8, 1)
    builder.add_mass(0, mass)
    builder.add_tpfa(0, 0, g, None)
    a = builder.matrix()
    assert a.band is not None
    return a


def test_singular_banded_system_names_its_zero_pivot():
    # without a mass term the closed two-point operator's LU pivots are 1, ..., 1 and an
    # exact 0 in the last row
    with pytest.raises(SolverFailure, match=r"exactly zero pivot U\(8, 8\)") as exc_info:
        fv.solve_sparse(_closed_box_system(0.0, np.ones(7)), np.ones(8), 1e-10,
                        fv.BlockFactors(1, BOX_8))
    # a solve knows no time; the run loop that catches the failure sets it
    assert exc_info.value.time is None


def test_nonfinite_banded_system_fails_its_residual_check():
    g = np.ones(7)
    g[3] = math.nan
    with pytest.raises(SolverFailure, match="stalled") as exc_info:
        fv.solve_sparse(_closed_box_system(1.0, g), np.ones(8), 1e-10, fv.BlockFactors(1, BOX_8))
    assert not math.isfinite(exc_info.value.residual)


def test_singular_step_of_a_1d_run_keeps_the_partial_trajectory(monkeypatch):
    # the sweeps of the third step assemble a zero matrix on the banded direct path
    assemble = solver._generic_step
    cfg = StepperConfig(dt=1e-3, t_end=5e-3)

    def singular_from_third_step(spec, grid, cfg):
        step = assemble(spec, grid, cfg)

        def singular_step(u_prev, t_prev, t_new):
            sweep = step(u_prev, t_prev, t_new)

            def singular_sweep(u_lag):
                builder = sweep(u_lag)
                if t_new > 2.5 * cfg.dt:
                    builder.vals = [0.0 * v for v in builder.vals]
                return builder
            return singular_sweep
        return singular_step
    monkeypatch.setattr(solver, "_generic_step", singular_from_third_step)
    spec = generic_spec_1d()
    spec.dirichlet = [0.0, None]   # compatible with the sine data; species 2 closed
    with pytest.raises(SolverFailure, match="zero pivot") as exc_info:
        run(spec, Grid((16,), (1.0,)), cfg)
    partial = exc_info.value.partial
    assert exc_info.value.time == pytest.approx(3e-3)
    assert list(partial.times) == pytest.approx([0.0, 1e-3, 2e-3])
    assert len(partial.snapshots) == len(partial.snapshot_times) == 3
    assert np.all(np.isfinite(partial.snapshots))
    assert len(partial.solver_stats) == 2


def test_partial_record_is_the_first_steps_of_the_run(monkeypatch):
    # a run that fails at its third step carries, bit for bit, the first two
    # steps of the same run without the fault
    spec = generic_spec_1d()
    spec.dirichlet = [0.0, None]   # compatible with the sine data; species 2 closed
    spec.sources = [0.5, None]
    grid = Grid((16,), (1.0,))
    cfg = StepperConfig(dt=1e-3, t_end=6e-3, snapshot_every=2)
    clean = run(spec, grid, cfg)
    assemble = solver._generic_step

    def fail_at_third_step(spec, grid, cfg):
        step = assemble(spec, grid, cfg)

        def failing_step(u_prev, t_prev, t_new):
            if t_new > 2.5 * cfg.dt:
                raise SolverFailure("injected fault")
            return step(u_prev, t_prev, t_new)
        return failing_step
    monkeypatch.setattr(solver, "_generic_step", fail_at_third_step)
    with pytest.raises(SolverFailure, match="injected fault") as exc_info:
        run(spec, grid, cfg)
    partial = exc_info.value.partial
    assert exc_info.value.time == clean.times[3]
    assert np.array_equal(partial.times, clean.times[:3])
    assert np.array_equal(partial.minmax, clean.minmax[:, :3])
    assert np.array_equal(partial.mass, clean.mass[:, :3])
    assert np.array_equal(partial.source_integral, clean.source_integral[:, :2])
    assert np.array_equal(partial.boundary_flux, clean.boundary_flux[:, :2])
    assert np.array_equal(partial.snapshot_times, clean.snapshot_times[:2])
    assert np.array_equal(partial.snapshots, clean.snapshots[:2])
    assert partial.solver_stats == clean.solver_stats[:2]
    assert partial.dt == clean.dt
    assert np.any(partial.source_integral != 0.0) and np.any(partial.boundary_flux != 0.0)


def test_gmres_budget_miss_raises_with_finite_residual(monkeypatch, route="SuperLU"):
    # a budget of one inner iteration leaves the residual above tol and above the rounding
    # floor; the failure names the inverse and the applications it spent
    monkeypatch.setattr(fv, "GMRES_RESTART", 1)
    monkeypatch.setattr(fv, "GMRES_CYCLES", 1)
    a, b = _sweep_system(48)
    assert a.band is None
    with pytest.raises(SolverFailure) as exc_info:
        fv.solve_sparse(a, b, 1e-10, fv.BlockFactors(2, Grid((48, 48), (1.0, 1.0))))
    assert 1e-10 < exc_info.value.residual < math.inf
    assert f"GMRES on the {route} inverse after 1 applications" in str(exc_info.value)


def test_gmres_budget_miss_raises_with_finite_residual_on_transform(monkeypatch,
                                                                   transform_everywhere):
    test_gmres_budget_miss_raises_with_finite_residual(monkeypatch, route="transform")


def _relative_floor(a, x, b) -> float:
    """eps (||a||_inf ||x||_2 + ||b||_2) / ||b||_2, from its definition."""
    a_inf = np.max(np.abs(a.toarray()).sum(axis=1))
    return float(np.finfo(float).eps * (a_inf * np.linalg.norm(x) + np.linalg.norm(b))
                 / np.linalg.norm(b))


@pytest.mark.parametrize("path", ["banded", "block"])
def test_tolerance_below_the_rounding_floor_stops_at_the_floor(monkeypatch, path):
    if path == "block":
        monkeypatch.setattr(fv, "DIRECT_MAX_UNKNOWNS", {1: 0, 2: 0})
    a, b = _sweep_system(6)
    assert (a.band is None) == (path == "block")
    factors = fv.BlockFactors(2, Grid((6, 6), (1.0, 1.0)))
    x, residual, applications, refactored = fv.solve_sparse(a, b, 1e-20, factors)
    assert (applications > 0) == refactored == (path == "block")
    # the recorded residual is the true relative residual, above tol and within the floor
    assert residual == np.linalg.norm(b - a @ x) / np.linalg.norm(b)
    assert 1e-20 < residual <= _relative_floor(a, x, b)


@pytest.mark.parametrize("grid", [Grid((64,), (1.0,)), Grid((16, 16), (1.0, 1.0))],
                         ids=["1d-64", "2d-16x16"])
def test_runs_below_the_rounding_floor_converge_and_keep_the_mass_balance(grid):
    k = [[ISO(1.0, grid.ndim)] * 2] * 2
    spec = ModelSpec(m=2, delta=[1.0, 1.0], K=k, ell=1.0, domain=grid.extents,
                     initial=[product_sine(1.0), product_sine(0.8)], dirichlet=[0.0, 0.0])
    result = run(spec, grid, StepperConfig(dt=1e-3, t_end=5e-3, lin_tol=1e-17))
    assert [st["picard_converged"] for st in result.solver_stats] == [True] * 5
    assert max(st["lin_residual"] for st in result.solver_stats) > 1e-17
    assert mass_balance_residual(result, spec, grid).ok


def test_gmres_run_below_the_rounding_floor_tests_the_floor_after_one_cycle():
    # 1152 unknowns, the GMRES path: a solve tests the rounding floor after its first cycle
    # and stops there; one that first spent a whole GMRES budget took 40926 applications
    grid = Grid((24, 24), (1.0, 1.0))
    assert 2 * grid.n_cells > fv.DIRECT_MAX_UNKNOWNS[2]
    result = run(coupled_spec_2d(), grid, StepperConfig(dt=1e-3, t_end=3e-3, lin_tol=1e-17))
    assert [st["picard_converged"] for st in result.solver_stats] == [True] * 3
    assert all(1e-17 < st["lin_residual"] < 1e-14 for st in result.solver_stats)
    assert sum(st["lin_iters"] for st in result.solver_stats) == 114


def test_direct_and_gmres_paths_agree(monkeypatch):
    lin_tol = 1e-10
    factors = fv.BlockFactors(2, Grid((20, 20), (1.0, 1.0)))
    a, b = _sweep_system(20)
    x_direct, r_direct, applications, refactored = fv.solve_sparse(a, b, lin_tol, factors)
    assert applications == 0 and not refactored and factors.inverse is None
    # the cutoff is read when the matrix is built: a matrix built under 0 has no band
    monkeypatch.setattr(fv, "DIRECT_MAX_UNKNOWNS", {1: 0, 2: 0})
    a, b = _sweep_system(20)
    assert a.band is None
    x_gmres, r_gmres, applications, refactored = fv.solve_sparse(a, b, lin_tol, factors)
    assert applications > 0 and refactored
    assert max(r_direct, r_gmres) <= lin_tol
    rel = np.linalg.norm(x_direct - x_gmres) / np.linalg.norm(x_direct)
    assert rel <= 10 * lin_tol


def test_direct_and_gmres_paths_agree_on_transform(monkeypatch, transform_everywhere):
    test_direct_and_gmres_paths_agree(monkeypatch)


@pytest.mark.parametrize("stale", ["other-matrix", "refactor-after-1"])
def test_a_kept_inverse_is_rebuilt_inside_the_solve_that_outgrows_it(monkeypatch, stale):
    a, b = _sweep_system(48)
    grid = Grid((48, 48), (1.0, 1.0))
    x_fresh, r_fresh, fresh, built = fv.solve_sparse(a, b, 1e-10, fv.BlockFactors(2, grid))
    assert built and 1 < fresh <= fv.REFACTOR_AFTER
    factors = fv.BlockFactors(2, grid)
    if stale == "other-matrix":
        # kept from a step 100 times shorter, it needs 47 applications on this system
        factors.rebuild(_sweep_system(48, dt=1e-5)[0])
    else:
        monkeypatch.setattr(fv, "REFACTOR_AFTER", 1)
        factors.rebuild(a)
    builds = count_superlu(monkeypatch)
    x, residual, applications, refactored = fv.solve_sparse(a, b, 1e-10, factors)
    # the kept attempt stops at REFACTOR_AFTER applications; the same solve rebuilds from
    # its own matrix and starts again from x0, so it ends as a solve on a fresh holder
    assert builds == [a.shape]
    assert refactored and applications == fv.REFACTOR_AFTER + fresh
    assert residual == r_fresh and np.array_equal(x, x_fresh)
    if stale == "other-matrix":
        # the rebuilt inverse is kept, and the next solve takes it as it is
        assert fv.solve_sparse(a, b, 1e-10, factors)[2:] == (fresh, False)
        assert builds == [a.shape]


def test_lin_max_caps_gmres_iterations(monkeypatch):
    # the GMRES budget per call is the fixed GMRES_RESTART * GMRES_CYCLES inner iterations
    assert fv.GMRES_RESTART * fv.GMRES_CYCLES == 6000
    monkeypatch.setattr(fv, "GMRES_RESTART", 1)
    monkeypatch.setattr(fv, "GMRES_CYCLES", 1)
    grid = Grid((48, 48), (1.0, 1.0))
    assert 2 * grid.n_cells > fv.DIRECT_MAX_UNKNOWNS[2]
    cfg = StepperConfig(dt=1e-3, t_end=1e-3)
    with pytest.raises(SolverFailure):
        run(coupled_spec_2d(), grid, cfg)


# ---------------------------------------------------------------------------
# block-Jacobi preconditioned GMRES (2D systems above DIRECT_MAX_UNKNOWNS[2])
# ---------------------------------------------------------------------------

GRID_48 = Grid((48, 48), (1.0, 1.0))   # m = 2: 4608 unknowns, the GMRES path


def _count_splu(monkeypatch) -> list:
    calls = []
    splu = fv.spla.splu

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)
    monkeypatch.setattr(fv.spla, "splu", counting)
    return calls


def test_block_gmres_run_agrees_with_direct_run(monkeypatch):
    assert 2 * GRID_48.n_cells > fv.DIRECT_MAX_UNKNOWNS[2]
    lin_tol = 1e-10
    cfg = StepperConfig(dt=1e-3, t_end=5e-3, lin_tol=lin_tol)
    gmres = run(coupled_spec_2d(), GRID_48, cfg)
    assert all(st["lin_iters"] > 0 for st in gmres.solver_stats)
    monkeypatch.setitem(fv.DIRECT_MAX_UNKNOWNS, 2, 2 * GRID_48.n_cells)
    factorizations = count_superlu(monkeypatch)
    direct = run(coupled_spec_2d(), GRID_48, cfg)
    assert all(st["lin_iters"] == 0 and not st["refactored"] for st in direct.solver_stats)
    assert factorizations == []   # every direct solve is one banded LU
    for sg, sd in zip(gmres.snapshots, direct.snapshots):
        rel = np.max(np.abs(sg - sd)) / np.max(np.abs(sd))
        assert rel <= 10 * lin_tol


def test_block_gmres_run_agrees_with_direct_run_on_transform(monkeypatch, transform_everywhere):
    test_block_gmres_run_agrees_with_direct_run(monkeypatch)


GRID_32 = Grid((32, 32), (1.0, 1.0))   # m = 2: 2048 unknowns, a 2D desk grid


def _desk_run(system: str, cfg: StepperConfig, grid: Grid = GRID_32):
    if system == "generic":
        if grid.ndim == 2:
            return run(coupled_spec_2d(), grid, cfg)
        spec = generic_spec_1d()
        spec.dirichlet = [0.0, None]   # compatible with the sine data; species 2 closed
        return run(spec, grid, cfg)
    spec = aq.keulegan_scenario(grid, pump_rate=0.05, tilt=0.4)
    if system == "penalized":
        return aq.run_penalized(spec, grid, cfg)[0]
    return aq.run_confined_aquifer(spec, grid, cfg)


@pytest.mark.parametrize("system", ["generic", "penalized", "confined"])
def test_desk_grid_takes_block_path_and_agrees_with_direct(monkeypatch, system):
    lin_tol = 1e-10
    cfg = StepperConfig(dt=1e-3, t_end=5e-3, lin_tol=lin_tol)
    block = _desk_run(system, cfg)
    assert all(st["lin_iters"] > 0 for st in block.solver_stats)
    monkeypatch.setitem(fv.DIRECT_MAX_UNKNOWNS, 2, 2 * GRID_32.n_cells)
    factorizations = count_superlu(monkeypatch)
    direct = _desk_run(system, cfg)
    assert all(st["lin_iters"] == 0 for st in direct.solver_stats)
    assert factorizations == []   # every direct solve, a confined run's head included, is banded
    assert len(block.snapshots) == len(direct.snapshots)
    for sb, sd in zip(block.snapshots, direct.snapshots):
        rel = np.max(np.abs(sb - sd)) / np.max(np.abs(sd))
        assert rel <= 10 * lin_tol


@pytest.mark.parametrize("system", ["generic", "penalized", "confined"])
def test_desk_grid_agrees_with_direct_on_transform(monkeypatch, transform_everywhere, system):
    # the confined keulegan box mixes a closed salt block and a Dirichlet head block
    test_desk_grid_takes_block_path_and_agrees_with_direct(monkeypatch, system)


def _general_spec(m: int, full: bool) -> ModelSpec:
    """An m-species spec on the unit square: every species couples to every other, the even
    species Dirichlet and the odd ones closed, a constant source on the last species; with
    ``full``, every tensor has off-diagonal entries."""
    def tensor(value: float) -> CrossTensor:
        return (CrossTensor(((value, 0.3 * value), (0.1 * value, 0.8 * value))) if full
                else ISO(value, 2))
    return ModelSpec(m=m, delta=[1.0 + 0.2 * i for i in range(m)],
                     K=[[tensor(1.0 if i == j else 0.3) for j in range(m)] for i in range(m)],
                     ell=1.0, domain=(1.0, 1.0),
                     initial=[product_sine(1.0 - 0.2 * i) for i in range(m)],
                     dirichlet=[None if i % 2 else 0.0 for i in range(m)],
                     sources=[None] * (m - 1) + [0.5])


@pytest.mark.parametrize("route", ["superlu", "transform"])
@pytest.mark.parametrize("full", [False, True], ids=["isotropic", "full"])
@pytest.mark.parametrize("m", [1, 3])
def test_every_route_agrees_with_direct_for_any_species_count(monkeypatch, request, m, full,
                                                             route):
    # direct, GMRES on SuperLU and GMRES on the transform inverse, on a 12x12 grid whose
    # cutoffs are lowered for the GMRES routes
    lin_tol = 1e-10
    grid = Grid((12, 12), (1.0, 1.0))
    cfg = StepperConfig(dt=1e-3, t_end=5e-3, lin_tol=lin_tol)
    direct = run(_general_spec(m, full), grid, cfg)
    assert all(st["lin_iters"] == 0 for st in direct.solver_stats)
    monkeypatch.setattr(fv, "DIRECT_MAX_UNKNOWNS", {1: 0, 2: 0})
    if route == "transform":
        request.getfixturevalue("transform_everywhere")
    factorizations, fits = count_superlu(monkeypatch), _count_fits(monkeypatch)
    block = run(_general_spec(m, full), grid, cfg)
    assert all(st["picard_converged"] and st["lin_iters"] > 0 for st in block.solver_stats)
    assert (factorizations, fits)[route == "transform"] == [(m * grid.n_cells,) * 2]
    assert (factorizations, fits)[route == "superlu"] == []
    for sb, sd in zip(block.snapshots, direct.snapshots, strict=True):
        rel = np.max(np.abs(sb - sd)) / np.max(np.abs(sd))
        assert rel <= 10 * lin_tol


@pytest.mark.parametrize("system", ["generic", "penalized", "confined"])
def test_1d_runs_of_1024_cells_take_the_band(monkeypatch, system):
    # 2048 unknowns, twice the 2D cutoff: a 1D system is banded at any length
    factorizations = count_superlu(monkeypatch)
    result = _desk_run(system, StepperConfig(dt=1e-3, t_end=3e-3), Grid((1024,), (1.0,)))
    assert all(st["lin_iters"] == 0 for st in result.solver_stats)
    assert factorizations == []


# ---------------------------------------------------------------------------
# Picard stopping rule and predictor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("system", ["generic", "penalized", "confined"])
def test_default_desk_run_converges_every_step(system):
    result = _desk_run(system, StepperConfig(dt=1e-3, t_end=2e-2))
    stats = result.solver_stats
    assert all(st["lin_iters"] > 0 for st in stats)
    assert all(st["picard_converged"] for st in stats)
    assert max(st["picard_sweeps"] for st in stats) <= 3


@pytest.mark.parametrize("grid", [Grid((12, 12), (1.0, 1.0)), GRID_32])
def test_steady_state_stops_after_one_sweep(grid):
    # the sweep changes nothing a linear solve can resolve, so the lin_tol
    # floor stops it: the step itself is zero up to rounding
    spec = coupled_spec_2d()
    spec.initial = (0.4, 0.4)
    spec.dirichlet = (0.4, 0.4)
    result = run(spec, grid, StepperConfig(dt=1e-2, t_end=5e-2))
    assert [st["picard_sweeps"] for st in result.solver_stats] == [1] * 5
    assert all(st["picard_converged"] for st in result.solver_stats)


def test_default_run_is_near_converged_trajectory(grid_12):
    # largest relative distance over all snapshots from a run converged to
    # picard_tol 1e-12: 5.8e-5 with the step-relative rule and the quadratic
    # predictor, 6.6e-5 with the linear one, 1.2e-3 with two sweeps from u^n
    # and picard_tol 1e-8 relative to |u|
    spec = coupled_spec_2d()
    cfg = StepperConfig(dt=5e-3, t_end=5e-2)
    default = run(spec, grid_12, cfg)
    converged = run(spec, grid_12, dataclasses.replace(cfg, picard_tol=1e-12, picard_max=50))
    assert all(st["picard_converged"] for st in converged.solver_stats)
    err = max(np.max(np.abs(a - b)) / np.max(np.abs(b))
              for a, b in zip(default.snapshots, converged.snapshots))
    assert err < 2e-4


@pytest.mark.parametrize("grid", [Grid((12, 12), (1.0, 1.0)), GRID_32])
def test_negative_predictor_keeps_positivity_floor(grid):
    # species 1's boundary trace switches off after two steps, so the boundary
    # cells drop and the predictor 3 u^n - 3 u^(n-1) + u^(n-2) of the step after
    # is negative; it enters only through clipped coefficients and the GMRES start
    spec = coupled_spec_2d()
    spec.initial = (1.0, product_sine(0.8))
    spec.dirichlet = (lambda t, points: np.full(len(points), 1.0 if t < 0.025 else 0.0), 0.0)
    result = run(spec, grid, StepperConfig(dt=1e-2, t_end=5e-2))
    u = result.snapshots
    assert (3.0 * u[2:-1, 0] - 3.0 * u[1:-2, 0] + u[:-3, 0] < 0.0).any()
    assert all(st["picard_converged"] for st in result.solver_stats)
    assert result.minmax[:, :, 1].min() >= -1e-10


def test_first_lag_is_the_cubic_predictor(monkeypatch, grid_12):
    # u^0, then 2 u^n - u^(n-1), then 3 u^n - 3 u^(n-1) + u^(n-2) at the third step and
    # 4 u^n - 6 u^(n-1) + 4 u^(n-2) - u^(n-3) from the fourth step on
    first_lags = []

    def recording(*args):
        step = _generic_step(*args)

        def recording_step(*step_args):
            sweep = step(*step_args)

            def first_sweep(u_lag):
                first_lags.append(u_lag.copy())
                return sweep(u_lag)
            return first_sweep
        return recording_step

    monkeypatch.setattr(solver, "_generic_step", recording)
    result = run(coupled_spec_2d(), grid_12, StepperConfig(dt=1e-3, t_end=6e-3,
                                                           picard_max=1))
    u = result.snapshots
    expected = ([u[0], 2.0 * u[1] - u[0], 3.0 * (u[2] - u[1]) + u[0]]
                + [4.0 * (u[k] + u[k - 2]) - 6.0 * u[k - 1] - u[k - 3] for k in range(3, 6)])
    assert len(first_lags) == len(expected)
    for lag, want in zip(first_lags, expected):
        np.testing.assert_array_equal(lag, want)


def test_smooth_run_takes_one_sweep_after_start_up(grid_12):
    # the cubic predictor is O(dt^4) off, well inside picard_tol of the step
    cfg = StepperConfig(dt=1e-3, t_end=30e-3)
    result = run(coupled_spec_2d(), grid_12, cfg)
    stats = result.solver_stats
    assert [st["picard_sweeps"] for st in stats] == [3, 2, 2] + [1] * 27
    assert all(st["picard_converged"] for st in stats)
    assert all(st["first_change"] <= cfg.picard_tol for st in stats[4:])


def test_mixed_sweeps_start_from_the_anderson_mix(monkeypatch, grid_12):
    # from a step's third sweep on, each sweep starts from the mix of the step's
    # latest ANDERSON_DEPTH + 1 (lag, output) pairs; no pair reaches the next step
    lags, mixes = [], []
    real_mix = solver._anderson_mix

    def recording_mix(pairs):
        assert len(lags) >= 2
        assert len(pairs) == min(len(lags), solver.ANDERSON_DEPTH + 1)
        assert all(lag is step_lag for (lag, _), step_lag in zip(pairs, lags[-len(pairs):]))
        mixes.append(real_mix(pairs))
        return mixes[-1]

    def recording(*args):
        step = _generic_step(*args)

        def recording_step(*step_args):
            sweep = step(*step_args)
            lags.clear()

            def logged_sweep(u_lag):
                if len(lags) >= 2:
                    assert u_lag is mixes[-1]
                lags.append(u_lag)
                return sweep(u_lag)
            return logged_sweep
        return recording_step

    monkeypatch.setattr(solver, "_anderson_mix", recording_mix)
    monkeypatch.setattr(solver, "_generic_step", recording)
    cfg = StepperConfig(dt=1e-3, t_end=2e-3, picard_tol=1e-9, picard_max=6)
    stats = run(coupled_spec_2d(), grid_12, cfg).solver_stats
    assert min(st["picard_sweeps"] for st in stats) >= 4
    assert [st["mixed_sweeps"] for st in stats] == [st["picard_sweeps"] - 2 for st in stats]
    assert len(mixes) == sum(st["mixed_sweeps"] for st in stats)


def test_anderson_mix_solves_an_affine_fixed_point_in_its_depth():
    # for g(x) = A x + b in dimension ANDERSON_DEPTH, ANDERSON_DEPTH + 1 pairs span
    # the state, so the mix is the fixed point up to rounding
    d = solver.ANDERSON_DEPTH
    rng = np.random.default_rng(3)
    a = 0.5 * rng.standard_normal((d, d)) / d
    b = rng.standard_normal(d)
    pairs = [(x.reshape(1, d), (a @ x + b).reshape(1, d))
             for x in rng.standard_normal((d + 1, d))]
    mixed = solver._anderson_mix(pairs)
    assert mixed.shape == (1, d)
    np.testing.assert_allclose(mixed[0], np.linalg.solve(np.eye(d) - a, b), rtol=0.0, atol=1e-12)
    # pairs that repeat one sweep give its output back: plain Picard
    np.testing.assert_array_equal(solver._anderson_mix(pairs[:1] * 2), pairs[0][1])


def test_species_blocks_factored_once_per_run(monkeypatch):
    calls = _count_splu(monkeypatch)
    result = run(coupled_spec_2d(), GRID_48, StepperConfig(dt=1e-3, t_end=20e-3))
    # one factorization of the whole species block diagonal
    assert calls == [(2 * GRID_48.n_cells, 2 * GRID_48.n_cells)]
    assert [st["refactored"] for st in result.solver_stats] == [True] + [False] * 19


def test_refactor_after_every_solve_at_zero_threshold(monkeypatch):
    monkeypatch.setattr(fv, "REFACTOR_AFTER", 0)
    calls = _count_splu(monkeypatch)
    result = run(coupled_spec_2d(), GRID_48, StepperConfig(dt=1e-3, t_end=20e-3))
    solves = sum(st["picard_sweeps"] for st in result.solver_stats)
    assert calls == [(2 * GRID_48.n_cells, 2 * GRID_48.n_cells)] * solves


def _count_fits(monkeypatch) -> list:
    calls = []
    fit = fv._TransformInverse

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return fit(a, *args, **kwargs)
    monkeypatch.setattr(fv, "_TransformInverse", counting)
    return calls


@pytest.mark.parametrize("refactor_after", [fv.REFACTOR_AFTER, 0])
def test_transform_grid_fits_under_the_refactor_rule_and_never_factors(monkeypatch,
                                                                       refactor_after):
    # a grid of exactly TRANSFORM_MIN_CELLS cells takes the transform
    monkeypatch.setattr(fv, "TRANSFORM_MIN_CELLS", {**fv.TRANSFORM_MIN_CELLS, 2: GRID_48.n_cells})
    monkeypatch.setattr(fv, "REFACTOR_AFTER", refactor_after)
    factored, fits = _count_splu(monkeypatch), _count_fits(monkeypatch)
    result = run(coupled_spec_2d(), GRID_48, StepperConfig(dt=1e-3, t_end=20e-3))
    stats = result.solver_stats
    assert factored == []
    assert all(st["picard_converged"] and st["lin_iters"] > 0 for st in stats)
    solves = sum(st["picard_sweeps"] for st in stats)
    # one holder of both species' fits per refactor
    if refactor_after:
        assert fits == [(2 * GRID_48.n_cells, 2 * GRID_48.n_cells)]
        assert [st["refactored"] for st in stats] == [True] + [False] * 19
    else:
        assert fits == [(2 * GRID_48.n_cells, 2 * GRID_48.n_cells)] * solves


def test_run_does_not_depend_on_earlier_runs():
    cfg = StepperConfig(dt=1e-3, t_end=4e-3)
    spec_b = coupled_spec_2d()

    def snapshots(spec):
        return run(spec, GRID_48, cfg).snapshots.tobytes()
    alone = snapshots(spec_b)
    spec_a = coupled_spec_2d()
    spec_a.initial = (product_sine(0.3), product_sine(1.0))
    snapshots(spec_a)
    assert snapshots(spec_b) == alone


_SNAPSHOT_DIGEST = """
import hashlib
from conftest import coupled_spec_2d
from crossdiff.model import Grid
from crossdiff.solver import StepperConfig, run
result = run(coupled_spec_2d(), Grid((72, 72), (1.0, 1.0)), StepperConfig(dt=1e-3, t_end=3e-3))
assert all(st["lin_iters"] > 0 for st in result.solver_stats)
print(hashlib.sha256(result.snapshots.tobytes()).hexdigest())
"""


def test_snapshots_do_not_depend_on_the_blas_thread_count():
    # 10368 unknowns: OpenBLAS splits a dot product or norm of more than 10^4 entries across
    # its threads, so only reductions that never reach it give the same bits at 1 and 2
    tests = Path(__file__).parent
    path = os.pathsep.join([str(Path(fv.__file__).parents[1]), str(tests)])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": path}
        digests.append(subprocess.run([sys.executable, "-c", _SNAPSHOT_DIGEST], env=env,
                                      capture_output=True, text=True, check=True).stdout)
    assert digests[0] == digests[1]


def _singular_block_failure(bad: float) -> SolverFailure:
    # built outside the builder, the matrix has no band and takes the block path
    eye = sparse.identity(4)
    a = sparse.bmat([[eye, eye], [eye, bad * eye]]).tocsr()
    factors = fv.BlockFactors(2, Grid((4,), (1.0,)))
    with pytest.raises(SolverFailure) as exc_info:
        fv.solve_sparse(a, np.ones(8), 1e-10, factors)
    assert exc_info.value.time is None
    return exc_info.value


@pytest.mark.parametrize("bad", [0.0, math.nan])
def test_singular_species_block_raises_solver_failure(bad):
    assert "factorization" in str(_singular_block_failure(bad))


@pytest.mark.parametrize("bad", [0.0, math.nan])
def test_singular_transform_fit_raises_solver_failure(transform_everywhere, bad):
    assert "fast-transform fit" in str(_singular_block_failure(bad))


def test_singular_system_with_regular_blocks_raises_gmres_breakdown():
    # the species blocks I and -I factor, but the system is singular and b is not in its
    # range: the second inner iteration adds nothing to the Krylov space
    eye = sparse.identity(4)
    a = sparse.bmat([[eye, eye], [-eye, -eye]]).tocsr()
    factors = fv.BlockFactors(2, Grid((4,), (1.0,)))
    with pytest.raises(SolverFailure, match="GMRES broke down") as exc_info:
        fv.solve_sparse(a, np.repeat([1.0, 0.0], 4), 1e-10, factors)
    assert exc_info.value.residual == 1.0


# ---------------------------------------------------------------------------
# CSR pattern of the assembled block system
# ---------------------------------------------------------------------------

def test_builder_keeps_traced_methods():
    # the benchmark tracer wraps these by name on the class itself
    for name in ("add_mass", "add_rhs", "add_tpfa", "add_explicit_flux", "matrix"):
        assert callable(fv.SystemBuilder.__dict__[name])


@pytest.fixture
def built(monkeypatch):
    """Every matrix a builder makes, with the mass and two-point terms behind it: the
    add_tpfa calls and the run-fixed terms that add_term records (add_mass among them),
    each logged with the data its fv.fixed_mass or fv.fixed_tpfa call was given."""
    builds = []
    cls = fv.SystemBuilder
    add_term, add_tpfa, matrix = cls.add_term, cls.add_tpfa, cls.matrix
    made = {}   # id of each run-fixed value array -> (the array, its kind and data)

    def maker(name, kind):
        make = getattr(fv, name)

        def spy(grid, *args):
            fixed = make(grid, *args)
            made[id(fixed[1])] = (fixed[1], kind, args[1:] if kind == "mass" else args)
            return fixed
        monkeypatch.setattr(fv, name, spy)

    maker("fixed_mass", "mass")
    maker("fixed_tpfa", "tpfa")

    def log(self, call):
        self.__dict__.setdefault("calls", []).append(call)

    def spy_term(self, term, traces=None):
        # a run-fixed term is logged here, every other two-point term by add_tpfa
        vals, kind, args = made.get(id(term[1]), (None, None, None))
        if vals is term[1]:
            log(self, (kind, (term[0][1], *args) if kind == "mass" else (*args, traces)))
        return add_term(self, term, traces)

    def spy_tpfa(self, row_sp, col_sp, g, traces):
        log(self, ("tpfa", (row_sp, col_sp, g, traces)))
        return add_tpfa(self, row_sp, col_sp, g, traces)

    def spy_matrix(self):
        a = matrix(self)
        builds.append((self.grid, self.m, self.__dict__.get("calls", []), list(self.terms), a,
                       list(self.vals)))
        return a
    monkeypatch.setattr(cls, "add_term", spy_term)
    monkeypatch.setattr(cls, "add_tpfa", spy_tpfa)
    monkeypatch.setattr(cls, "matrix", spy_matrix)
    return builds


def coo_reference(grid, m, calls) -> sparse.csr_matrix:
    """coo -> csr of the two-point triplets of the recorded builder calls."""
    ft = fv.face_table(grid)
    n = grid.n_cells
    rows, cols, vals = [], [], []
    for kind, args in calls:
        if kind == "mass":
            species, coeff = args
            cells = species * n + np.arange(n)
            rows.append(cells)
            cols.append(cells)
            vals.append(np.full(n, coeff * grid.cell_volume))
            continue
        row_sp, col_sp, g, traces = args
        ni = ft.n_interior
        nf = len(g) if traces is not None else ni  # boundary faces need traces
        t = g[:nf] * ft.area[:nf] / ft.dist[:nf]
        left, right = ft.left[:ni], ft.right[:ni]
        for r, c, sign in ((left, left, 1.0), (left, right, -1.0),
                           (right, right, 1.0), (right, left, -1.0)):
            rows.append(row_sp * n + r)
            cols.append(col_sp * n + c)
            vals.append(sign * t[:ni])
        rows.append(row_sp * n + ft.left[ni:nf])
        cols.append(col_sp * n + ft.left[ni:nf])
        vals.append(t[ni:])
    return sparse.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(m * n, m * n)).tocsr()


def assert_matches_coo(build) -> None:
    grid, m, calls, _terms, a, _vals = build
    ref = coo_reference(grid, m, calls)
    assert np.array_equal(a.indptr, ref.indptr)
    assert np.array_equal(a.indices, ref.indices)
    assert np.max(np.abs(a.data - ref.data)) <= 1e-14 * np.max(np.abs(ref.data))


def covers_boundary(grid, term) -> bool:
    """Whether a recorded face term reaches past the interior faces."""
    return term[0] == "face" and term[3] > fv.face_table(grid).n_interior


def full_tensor_spec(dirichlet=(0.0, None), cross=1.0):
    """Full 2x2 tensors; ``cross`` scales the couplings K_12 and K_21."""
    full = CrossTensor(((1.0, 0.3), (0.2, 0.8)))
    k = [[full, CrossTensor(((0.5 * cross, 0.1 * cross), (0.1 * cross, 0.5 * cross)))],
         [CrossTensor(((0.5 * cross, -0.1 * cross), (0.0, 0.5 * cross))), full]]
    return ModelSpec(m=2, delta=[1.0, 0.7], K=k, ell=1.0, domain=(1.0, 0.6),
                     initial=[product_sine(1.0), product_sine(0.7)], dirichlet=list(dirichlet))


GRID_75 = Grid((7, 5), (1.0, 0.6))


def assemble_generic(spec, grid=GRID_75, cfg=None):
    u = np.stack([spec.initial_values(i, grid.cell_centers()) for i in range(spec.m)])
    builder = _generic_step(spec, grid, cfg or StepperConfig(dt=1e-3, t_end=1e-3))(
        u, 0.0, 1e-3)(0.9 * u)
    return builder.matrix()


def test_pattern_matches_coo_full_tensor_closed_species(built):
    assemble_generic(full_tensor_spec())
    (build,) = built
    assert any(covers_boundary(GRID_75, term) for term in build[3])
    assert_matches_coo(build)


def test_pattern_matches_coo_aquifer_closed_box(built):
    from crossdiff import aquifer as aq
    grid = Grid((16,), (1.0,))
    spec = aq._thickness_spec(aq.keulegan_scenario(grid, pump_rate=0.05), grid, math.inf)
    assemble_generic(spec, grid, StepperConfig(dt=3e-3, t_end=3e-3))
    (build,) = built
    assert not any(covers_boundary(grid, term) for term in build[3])
    assert_matches_coo(build)


def confined_case():
    from crossdiff import aquifer as aq
    grid = Grid((6, 5), (1.0, 0.8))
    aspec = aq.AquiferSpec(h2=1.0, delta=0.3, alpha=0.025, epsilon=1e-2,
                           initial_h=lambda p: 0.5 + 0.1 * p[:, 0], initial_h1=0.1,
                           domain=grid.extents, dirichlet_h=0.5, dirichlet_h1=0.1,
                           pumping=0.05)
    w = aspec.h2_cells(grid) - aspec.initial_values(grid)[0]
    return aq, aspec, grid, w


def test_pattern_matches_coo_confined_step(built):
    aq, aspec, grid, w = confined_case()
    phi = 0.1 * product_sine(1.0)(grid.cell_centers())
    cfg = StepperConfig(dt=1e-3, t_end=1e-3)
    builder = aq._confined_step(aspec, grid, cfg)(np.stack([w, phi]), 0.0, 1e-3)(
        np.stack([0.95 * w, phi]))
    builder.matrix()
    (build,) = built
    assert build[1] == 2
    assert_matches_coo(build)


def test_pattern_matches_coo_initial_head(built):
    aq, aspec, grid, w = confined_case()
    aq._initial_head(aspec, grid, w, StepperConfig(dt=1e-3, t_end=1e-3))
    (build,) = built
    assert build[1] == 1
    assert_matches_coo(build)


def test_term_sequences_on_one_grid_keep_their_own_patterns(built):
    dirichlet = full_tensor_spec(dirichlet=(0.0, 0.0))
    closed = full_tensor_spec(dirichlet=(0.0, None))
    diagonal = full_tensor_spec(dirichlet=(0.0, 0.0), cross=0.0)
    for spec in (dirichlet, closed, diagonal, dirichlet):
        assemble_generic(spec)
    for build in built:
        assert_matches_coo(build)
    (_, _, _, t_dir, a_dir, _), (_, _, _, t_closed, _, _), (_, _, _, t_diag, a_diag, _), _ = built
    assert t_dir != t_closed and t_dir != t_diag
    # boundary entries sit on diagonals the faces already store, so a closed
    # species keeps the CSR structure and changes only the summation map
    s_dir, s_closed = (fv._pattern(GRID_75, 2, tuple(t))[2] for t in (t_dir, t_closed))
    assert s_dir.shape[0] == s_closed.shape[0]
    assert s_dir.shape[1] != s_closed.shape[1] and s_dir.nnz != s_closed.nnz
    # without the species couplings the off-diagonal blocks are empty
    assert a_diag.nnz < a_dir.nnz


def test_first_matrix_of_a_large_sweep_stays_in_its_memory_bound():
    # tracemalloc peaks of matrix() on a 128^2 generic sweep (8 terms, 425984
    # values, 325632 CSR entries): 55.7 MB with the pattern build and 15.7 MB
    # after it when np.unique and np.bincount summed four entries per face;
    # 29.4 MB and 6.0 MB with two coefficients per face and a summation map
    import tracemalloc
    grid = Grid((128, 128), (1.0, 1.0))
    spec = coupled_spec_2d()
    u = np.stack([spec.initial_values(i, grid.cell_centers()) for i in range(2)])
    builder = _generic_step(spec, grid, StepperConfig(dt=1e-3, t_end=1e-3))(u, 0.0, 1e-3)(0.9 * u)
    fv._template.cache_clear()
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            builder.matrix()
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 40.0 and peaks[1] <= 10.0, peaks


def face_term_entries(ft, n_faces, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the entries of one face term on the block (0, 0).

    A face term's values are the left-cell coefficients of the covered faces,
    then the right-cell coefficients of the interior faces.  A coefficient
    enters its cell's diagonal entry and, negated, the entry of the other
    cell's row in its cell's column: (right, left) for a left-cell one,
    (left, right) for a right-cell one.  The entries come as four runs: the
    left and the right diagonals, then (left, right) and (right, left).
    """
    ni = ft.n_interior
    left, right = ft.left[:ni], ft.right[:ni]
    diag = np.concatenate((ft.left[:n_faces], right))
    on_left, on_right = v[:n_faces], v[n_faces:]
    return (np.concatenate((diag, left, right)), np.concatenate((diag, right, left)),
            np.concatenate((on_left, on_right, -on_right, -on_left[:ni])))


def drain_reference(grid, m, terms, vals) -> sparse.csr_matrix:
    """coo -> csr of recorded face terms, indexed from face_table (:func:`face_term_entries`)."""
    ft = fv.face_table(grid)
    n = grid.n_cells
    rows, cols, entries = [], [], []
    for (kind, row_sp, col_sp, n_faces), v in zip(terms, vals):
        assert kind == "face"
        r, c, e = face_term_entries(ft, n_faces, v)
        rows.append(row_sp * n + r)
        cols.append(col_sp * n + c)
        entries.append(e)
    return sparse.coo_matrix((np.concatenate(entries),
                              (np.concatenate(rows), np.concatenate(cols))),
                             shape=(m * n, m * n)).tocsr()


def penalized_case(kind):
    """Aquifer spec, grid and a lagged state whose total thickness exceeds h2 in places."""
    from crossdiff import aquifer as aq
    if kind == "closed-1d":
        grid = Grid((16,), (1.0,))
        aspec = aq.keulegan_scenario(grid, pump_rate=0.05, tilt=0.4)
    else:
        grid = Grid((6, 5), (1.0, 0.8))
        aspec = aq.AquiferSpec(h2=1.0, delta=0.3, alpha=0.025, epsilon=1e-2,
                               initial_h=lambda p: 0.5 + 0.1 * p[:, 0], initial_h1=0.1,
                               domain=grid.extents, dirichlet_h=lambda t, p: 0.5 + 0.1 * p[:, 0],
                               dirichlet_h1=0.1, pumping=0.05)
    spec = aq._thickness_spec(aspec, grid, math.inf)
    u_prev = np.stack([spec.initial_values(i, grid.cell_centers()) for i in range(2)])
    x = grid.cell_centers()[:, 0]
    u_lag = u_prev + np.stack([0.05 * x, np.where(x < 0.5, 0.3, 0.0)])
    return aq, aspec, spec, grid, u_prev, u_lag


@pytest.mark.parametrize("kind", ["closed-1d", "dirichlet-2d"])
def test_pattern_matches_products_penalized_sweep(built, kind):
    aq, aspec, spec, grid, u_prev, u_lag = penalized_case(kind)
    n = grid.n_cells
    cfg = StepperConfig(dt=1e-3, t_end=1e-3)
    plain = _generic_step(spec, grid, cfg)(u_prev, 0.0, cfg.dt)(u_lag)
    a_plain = coo_reference(grid, 2, plain.calls)
    b_plain = plain.rhs

    s_lag = u_lag[0] + u_lag[1]
    assert np.any(s_lag > aspec.h2_cells(grid))
    drain = fv.SystemBuilder(grid, 2)
    h2c = aspec.h2_cells(grid)
    aq._add_drain(drain, aspec, h2c, u_lag[0], s_lag,
                  *aq._drain_traces(h2c[fv.face_table(grid).bnd_cell],
                                    *aq._u_traces(aspec, h2c, grid, cfg.dt)))
    assert all(np.any(v != 0.0) for v in drain.vals)
    # nonzero on the faces of every axis and, where covered, on the boundary faces
    ft = fv.face_table(grid)
    for (_, _, _, n_faces), v in zip(drain.terms, drain.vals):
        faces = np.concatenate((np.arange(n_faces), np.arange(ft.n_interior)))
        group = np.where(faces < ft.n_interior, ft.axis[faces], grid.ndim)
        assert all(np.any(v[:len(faces)][group == k] != 0.0) for k in np.unique(group))
    assert any(covers_boundary(grid, term) for term in drain.terms) == (kind == "dirichlet-2d")
    eye = sparse.identity(n, format="csr")
    q_op = sparse.bmat([[eye, None], [eye, eye]], format="csr")
    p_op = sparse.bmat([[eye, None], [-eye, eye]], format="csr")
    ref = (q_op @ a_plain @ p_op + drain_reference(grid, 2, drain.terms, drain.vals)).tocsr()
    ref.sort_indices()

    builder = aq._penalized_step(aspec, grid, cfg)(u_prev, 0.0, cfg.dt)(u_lag)
    x0 = builder.to_unknowns(u_lag)
    a = builder.matrix()
    assert np.array_equal(a.indptr, ref.indptr)
    assert np.array_equal(a.indices, ref.indices)
    assert np.max(np.abs(a.data - ref.data)) <= 1e-14 * np.max(np.abs(ref.data))
    assert np.array_equal(builder.rhs, q_op @ b_plain + drain.rhs)
    assert np.array_equal(x0, np.concatenate([u_lag[0], s_lag]))
    assert np.allclose(builder.to_state(x0), u_lag, rtol=0.0, atol=1e-15)


def unique_bincount_matrix(grid, m, terms, vals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, data) of the recorded terms summed by np.bincount over np.unique.

    Each face term is spread to its four entry runs (:func:`face_term_entries`);
    np.unique(keys, return_inverse=True) maps each entry to its CSR position
    and a weighted np.bincount sums the entries there in this order.
    """
    ft = fv.face_table(grid)
    n = grid.n_cells
    size = m * n
    keys, entries = [], []
    for term, v in zip(terms, vals):
        if term[0] == "mass":
            rows, cols, e = np.arange(n), np.arange(n), v
        else:
            rows, cols, e = face_term_entries(ft, term[3], v)
        keys.append((term[1] * n + rows).astype(np.int64) * size + term[2] * n + cols)
        entries.append(e)
    unique, slot = np.unique(np.concatenate(keys), return_inverse=True)
    data = np.bincount(slot, weights=np.concatenate(entries), minlength=len(unique))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(unique // size, minlength=size))))
    return indptr, unique % size, data


def generic_spec_1d():
    k = [[ISO(1.0, 1), ISO(0.4, 1)], [ISO(0.3, 1), ISO(0.8, 1)]]
    return ModelSpec(m=2, delta=[1.0, 0.6], K=k, ell=1.0, domain=(1.0,),
                     initial=[product_sine(1.0), product_sine(0.7)], dirichlet=[0.0, 0.1])


def _penalized_sweep(kind):
    _, aspec, _, grid, u_prev, u_lag = penalized_case(kind)
    cfg = StepperConfig(dt=1e-3, t_end=1e-3)
    aq._penalized_step(aspec, grid, cfg)(u_prev, 0.0, cfg.dt)(u_lag).matrix()


def _confined_sweep():
    _, aspec, grid, w = confined_case()
    phi = 0.1 * product_sine(1.0)(grid.cell_centers())
    cfg = StepperConfig(dt=1e-3, t_end=1e-3)
    aq._confined_step(aspec, grid, cfg)(np.stack([w, phi]), 0.0, 1e-3)(
        np.stack([0.95 * w, phi])).matrix()


def _closed_keulegan_box():
    grid = Grid((16,), (1.0,))
    spec = aq._thickness_spec(aq.keulegan_scenario(grid, pump_rate=0.05), grid, math.inf)
    assemble_generic(spec, grid, StepperConfig(dt=3e-3, t_end=3e-3))


ORACLE_BUILDS = {
    "generic-1d": lambda: assemble_generic(generic_spec_1d(), Grid((24,), (1.0,))),
    "generic-2d": lambda: assemble_generic(coupled_spec_2d(k_offdiag=0.5),
                                           Grid((9, 7), (1.0, 1.0))),
    "full-tensor-closed-species": lambda: assemble_generic(full_tensor_spec()),
    "full-tensor-dirichlet": lambda: assemble_generic(full_tensor_spec(dirichlet=(0.0, 0.0))),
    "closed-keulegan-box": _closed_keulegan_box,
    "penalized-drain-closed-1d": lambda: _penalized_sweep("closed-1d"),
    "penalized-drain-dirichlet-2d": lambda: _penalized_sweep("dirichlet-2d"),
    "confined-step": _confined_sweep,
    "initial-head": lambda: aq._initial_head(*confined_case()[1:],
                                             StepperConfig(dt=1e-3, t_end=1e-3)),
}


@pytest.mark.parametrize("case", ORACLE_BUILDS)
def test_matrix_is_bit_identical_to_unique_bincount_oracle(built, case):
    ORACLE_BUILDS[case]()
    assert built
    for grid, m, _calls, terms, a, vals in built:
        indptr, indices, data = unique_bincount_matrix(grid, m, terms, vals)
        assert np.array_equal(a.indptr, indptr)
        assert np.array_equal(a.indices, indices)
        assert np.array_equal(a.data, data)
        assert a.data.dtype == np.float64


@pytest.mark.parametrize("dims", [(24,), (9, 7)])
def test_matrices_of_one_pattern_are_independent(built, dims):
    # two sweeps on one pattern get their own data: writing into the first
    # matrix leaves the second, and the next one, equal to the oracle
    grid = Grid(dims, (1.0,) * len(dims))
    spec = generic_spec_1d() if len(dims) == 1 else coupled_spec_2d(k_offdiag=0.5)
    cfg = StepperConfig(dt=1e-3, t_end=1e-3)
    u = np.stack([spec.initial_values(i, grid.cell_centers()) for i in range(2)])
    step = _generic_step(spec, grid, cfg)(u, 0.0, cfg.dt)
    first, second = step(u).matrix(), step(0.9 * u).matrix()
    first.data[:] = np.nan
    step(0.8 * u).matrix()
    assert len(built) == 3 and len({tuple(b[3]) for b in built}) == 1
    assert first.indices is second.indices and first.data is not second.data
    for (_, m, _, terms, a, vals) in built[1:]:
        indptr, indices, data = unique_bincount_matrix(grid, m, terms, vals)
        assert np.array_equal(a.indptr, indptr) and np.array_equal(a.indices, indices)
        assert np.array_equal(a.data, data) and a.data.flags.writeable
        assert a.terms == tuple(terms)
        assert a.band is not None and a.band is first.band


@pytest.mark.parametrize("kind", ["closed-1d", "dirichlet-2d"])
def test_penalized_sweep_leaves_its_recorded_values_unwritten(kind):
    # change_unknowns shares a value array between rewritten terms whose
    # scale is 1.0, so neither matrix() nor the solve may write into one
    _, aspec, _, grid, u_prev, u_lag = penalized_case(kind)
    cfg = StepperConfig(dt=1e-3, t_end=1e-3)
    builder = aq._penalized_step(aspec, grid, cfg)(u_prev, 0.0, cfg.dt)(u_lag)
    assert len({id(v) for v in builder.vals}) < len(builder.vals)   # shared arrays
    before = [v.copy() for v in builder.vals]
    rhs = builder.rhs.copy()
    a = builder.matrix()
    fv.solve_sparse(a, builder.rhs, 1e-10, fv.BlockFactors(2, grid), builder.to_unknowns(u_lag))
    assert all(np.array_equal(v, w) for v, w in zip(builder.vals, before))
    assert np.array_equal(builder.rhs, rhs)


@pytest.mark.parametrize("kind", ["closed-1d", "dirichlet-2d"])
def test_penalty_face_flux_is_the_upwinded_drain(kind):
    # upwind(U0(u2)) * grad U0(u1 + u2 - h2) / eps on the interior faces, bit for bit
    aq, aspec, _, grid, _, u_lag = penalized_case(kind)
    h2c = aspec.h2_cells(grid)
    h, h1 = aq.map_species(u_lag[0], u_lag[1], h2c)
    ft = fv.face_table(grid)
    left, right = ft.left[:ft.n_interior], ft.right[:ft.n_interior]
    u1, u2 = h - h1, h2c - h
    w, excess = np.maximum(u2, 0.0), np.maximum(u1 + u2 - h2c, 0.0)
    grad = (excess[right] - excess[left]) / ft.dist[:ft.n_interior]
    w_face = np.where(grad > 0.0, w[right],
                      np.where(grad < 0.0, w[left], 0.5 * (w[left] + w[right])))
    expected = w_face * grad / aspec.epsilon
    q = aq.penalty_face_flux(aspec, grid, h, h1)
    assert np.any(expected != 0.0)
    assert np.array_equal(q, expected)


def budget_sweeps():
    """(builder, u_prev, dt, mass rows) of a generic and two confined sweeps."""
    from crossdiff import aquifer as aq
    dt = 1e-3
    cfg = StepperConfig(dt=dt, t_end=dt)
    spec = full_tensor_spec()
    spec.sources = [lambda t, p, u: 0.3 + p[:, 0] * u[0], lambda t, p, u: 0.2 * u[1]]
    u = np.stack([spec.initial_values(i, GRID_75.cell_centers()) for i in range(2)])
    yield _generic_step(spec, GRID_75, cfg)(u, 0.0, dt)(0.9 * u), u, dt, [True, True]
    _, aspec, grid, w = confined_case()
    closed = aq.keulegan_scenario(grid, pump_rate=0.05, tilt=0.2)
    for a in (aspec, closed):
        phi = 0.1 * product_sine(1.0)(grid.cell_centers())
        u = np.stack([w, phi])
        builder = aq._confined_step(a, grid, cfg)(u, 0.0, dt)(np.stack([0.95 * w, phi]))
        yield builder, u, dt, [True, False]  # the head row has no mass term


def test_builder_budget_is_the_row_sum_of_the_system():
    # for any x, the rows of species i of b - A x sum to its mass change
    # plus the source integral and boundary inflow the builder records
    rng = np.random.default_rng(5)
    for builder, u_prev, dt, has_mass in budget_sweeps():
        a, b = builder.matrix(), builder.rhs
        vol = builder.grid.cell_volume
        assert builder.bnd_terms and np.any(builder.source != 0.0)
        for _ in range(3):
            x = u_prev + rng.normal(size=u_prev.shape)
            ax = (a @ x.ravel()).reshape(x.shape)
            rows = (b.reshape(x.shape) - ax).sum(axis=1)
            source, inflow = builder.budget(x)
            mass = np.where(has_mass, -vol * (x - u_prev).sum(axis=1) / dt, 0.0)
            scale = np.abs(b.reshape(x.shape)).sum(axis=1) + np.abs(ax).sum(axis=1)
            assert np.all(np.abs(rows - (mass + source + inflow)) <= 1e-12 * scale)


def test_budget_entries_hold_the_value_arrays_the_matrix_sums():
    # a budget entry is the recorded term itself with its traces: no copy of its coefficients
    builders = [builder for builder, *_ in budget_sweeps()]
    _, aspec, _, grid, u_prev, u_lag = penalized_case("dirichlet-2d")
    cfg = StepperConfig(dt=1e-3, t_end=1e-3)
    builders.append(aq._penalized_step(aspec, grid, cfg)(u_prev, 0.0, cfg.dt)(u_lag))
    for builder in builders:
        ft = builder.ft
        assert builder.bnd_terms
        for (key, vals), traces in builder.bnd_terms:
            assert key[0] == "face" and key[3] == ft.n_faces and len(traces) == ft.n_boundary
            assert any(vals is v for v in builder.vals)


def test_boundary_flux_equals_the_two_point_flux_of_the_coefficients_given(monkeypatch):
    # the budget reads t = g area/dist from the recorded values; each step's inflow equals
    # sum_f g (trace - u_cell) / dist * area over the g that each two-point term was given
    g_of = {}   # id of a two-point term's values -> (the values, the g they were made of)
    expected = []
    two_point, budget = fv._two_point, fv.SystemBuilder.budget

    def spy_two_point(ft, g, n_faces):
        vals = two_point(ft, g, n_faces)
        g_of[id(vals)] = (vals, g[:n_faces].copy())
        return vals

    def spy_budget(self, u):
        ft, ni = self.ft, self.ft.n_interior
        inflow = np.zeros(self.m)
        for ((_, row_sp, col_sp, _), vals), traces in self.bnd_terms:
            made, g = g_of[id(vals)]
            assert made is vals
            inflow[row_sp] += np.sum(g[ni:] * (traces - u[col_sp][ft.bnd_cell])
                                     / ft.dist[ni:] * ft.area[ni:])
        for row_sp, f in self.bnd_expl.items():
            inflow[row_sp] += np.sum(f * ft.area[ni:])
        expected.append(inflow)
        return budget(self, u)
    monkeypatch.setattr(fv, "_two_point", spy_two_point)
    monkeypatch.setattr(fv.SystemBuilder, "budget", spy_budget)
    # the product sine of the spec is not 0 on the top face, so the run skips the compatibility
    # check of its data
    result = run(full_tensor_spec(dirichlet=(0.0, 0.0)), GRID_75,
                 StepperConfig(dt=1e-3, t_end=5e-3), validate=False)
    expected = np.array(expected).T
    assert expected.shape == result.boundary_flux.shape and np.all(expected < 0.0)
    assert np.all(np.abs(result.boundary_flux - expected) <= 1e-14 * np.abs(expected))


@pytest.mark.parametrize("ell", [1.0, 0.0])
def test_advance_step_is_first_step_of_run(grid_12, ell):
    spec = coupled_spec_2d(ell=ell)
    cfg = StepperConfig(dt=2e-3, t_end=6e-3, picard_max=3)
    result = run(spec, grid_12, cfg)
    first = run(spec, grid_12, dataclasses.replace(cfg, t_end=cfg.dt))
    assert first.snapshot_times[-1] == result.snapshot_times[1]
    assert np.array_equal(first.snapshots[-1], result.snapshots[1])


@pytest.mark.parametrize("kind", ["closed-1d", "dirichlet-2d"])
@pytest.mark.parametrize("penalized", [False, True])
def test_step_aquifer_is_first_step_of_run(kind, penalized):
    aq, aspec, _, grid, _, _ = penalized_case(kind)
    aspec = dataclasses.replace(aspec, epsilon=1e-4)  # a tightened penalized lin_tol

    def run_to(t_end):
        cfg = StepperConfig(dt=2e-3, t_end=t_end, lin_tol=1e-11)
        return (aq.run_penalized(aspec, grid, cfg)[0] if penalized
                else plain_run(aspec, grid, cfg))
    result, first = run_to(6e-3), run_to(2e-3)
    assert first.snapshot_times[-1] == result.snapshot_times[1]
    assert np.array_equal(first.snapshots[-1], result.snapshots[1])


def test_every_solve_gets_a_pattern_matrix(monkeypatch):
    # every block matrix comes from SystemBuilder.matrix: read-only cached
    # structure, sorted column indices
    from crossdiff import aquifer as aq
    seen = []
    solve = fv.solve_sparse

    def spy(a, *args, **kwargs):
        seen.append(a)
        return solve(a, *args, **kwargs)
    monkeypatch.setattr(fv, "solve_sparse", spy)
    cfg = StepperConfig(dt=1e-3, t_end=2e-3)
    _, closed, _, grid, *_ = penalized_case("closed-1d")
    _, dirichlet, _, grid_2d, *_ = penalized_case("dirichlet-2d")
    counts = []
    for call in (lambda: run(coupled_spec_2d(k_offdiag=0.5), Grid((8, 8), (1.0, 1.0)), cfg),
                 lambda: aq.run_penalized(closed, grid, cfg),
                 lambda: aq.run_penalized(dirichlet, grid_2d, cfg),
                 lambda: aq.run_confined_aquifer(closed, grid, cfg)):
        call()
        counts.append(len(seen))
    assert all(b > a for a, b in zip([0] + counts, counts))
    for a in seen:
        assert not a.indptr.flags.writeable and not a.indices.flags.writeable
        for start, stop in zip(a.indptr[:-1], a.indptr[1:]):
            assert np.all(np.diff(a.indices[start:stop]) > 0)


def test_face_table_is_read_only_to_user_callables():
    import dataclasses
    grid = Grid((8,), (1.0,))
    ft = fv.face_table(grid)
    for f in dataclasses.fields(ft):
        value = getattr(ft, f.name)
        for a in value if isinstance(value, tuple) else (value,):
            assert not isinstance(a, np.ndarray) or not a.flags.writeable, f.name
    before = ft.bnd_points.copy()

    def doubling(t, p):
        p *= 2.0
        return 0.0
    with pytest.raises(ValueError, match="read-only"):
        run(heat_spec_1d(dirichlet=doubling), grid, StepperConfig(dt=1e-3, t_end=3e-3))
    assert np.array_equal(fv.face_table(grid).bnd_points, before)
