import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sparse

from crossdiff import aquifer as aq
from crossdiff import fv
from crossdiff.fv import SolverFailure
from crossdiff.model import CrossTensor, Grid, InvalidParameterError, ModelSpec
from crossdiff.solver import (StepperConfig, _assemble_step, convergence_study,
                              manufactured_forcing, mass_balance_residual, run)

from conftest import coupled_spec_2d, product_sine

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
    assert np.max(np.abs(result.snapshots[-1].values - 0.4)) < 1e-10


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
        assert np.max(np.abs(result.snapshots[-1].values[sp] - u)) < 1e-12


def test_truncated_matches_raw_when_interior(grid_12):
    spec = coupled_spec_2d(ell=10.0)
    cfg = StepperConfig(dt=1e-3, t_end=2e-2, lin_tol=1e-11, snapshot_every=5)
    res_t = run(spec, grid_12, cfg)
    assert res_t.minmax[:, :, 2].max() < spec.ell
    cfg_raw = StepperConfig(dt=1e-3, t_end=2e-2, lin_tol=1e-11, snapshot_every=5,
                            coefficient_mode="raw")
    res_r = run(spec, grid_12, cfg_raw)
    diff = max(np.max(np.abs(a.values - b.values))
               for a, b in zip(res_t.snapshots, res_r.snapshots))
    assert diff <= 10 * cfg.lin_tol


# ---------------------------------------------------------------------------
# oracle and convergence
# ---------------------------------------------------------------------------

def test_heat_oracle_error_bound():
    grid = Grid((64,), (1.0,))
    cfg = StepperConfig(dt=1e-4, t_end=0.01, lin_tol=1e-12, snapshot_every=100)
    result = run(heat_spec_1d(), grid, cfg)
    x = grid.cell_centers()[:, 0]
    exact = math.exp(-math.pi ** 2 * 0.01) * np.sin(np.pi * x)
    err = np.max(np.abs(result.snapshots[-1].values[0] - exact))
    h = grid.spacing[0]
    assert err <= 5.0 * (h ** 2 + cfg.dt)


def heat_exact(t, pts):
    return (np.exp(-np.pi ** 2 * t) * np.sin(np.pi * pts[:, 0]))[None, :]


def test_heat_limit_convergence_orders():
    grids = [Grid((n,), (1.0,)) for n in (8, 16, 32, 64)]
    dts = [2e-3 / 4 ** k for k in range(4)]
    rows = convergence_study(lambda g: heat_spec_1d(), heat_exact, grids, dts,
                             t_end=0.01, manufacture=False, lin_tol=1e-12)
    for row in rows[1:]:
        assert row["order_inf"] >= 1.8
        assert row["order_l2"] >= 1.8


def test_heat_temporal_order():
    grids = [Grid((256,), (1.0,))] * 3
    dts = [1e-3, 5e-4, 2.5e-4]
    rows = convergence_study(lambda g: heat_spec_1d(), heat_exact, grids, dts,
                             t_end=0.01, manufacture=False, lin_tol=1e-12)
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
    rows = convergence_study(_mms_factory, _mms_exact, grids, dts, t_end=0.02,
                             cross_weighting="centered")
    for row in rows[1:]:
        assert 1.8 <= row["order_inf"] <= 2.2
        assert 1.8 <= row["order_l2"] <= 2.2


def test_manufactured_coupled_temporal_orders():
    grids = [Grid((32, 32), (1.0, 1.0))] * 3
    dts = [4e-3, 2e-3, 1e-3]
    rows = convergence_study(_mms_factory, _mms_exact, grids, dts, t_end=0.02,
                             cross_weighting="centered")
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
    rows = convergence_study(factory, _mms_exact, grids, dts, t_end=0.02,
                             cross_weighting="centered")
    assert 1.8 <= rows[1]["order_inf"] <= 2.2


def test_degenerate_refinement_guard():
    grids = [Grid((16,), (1.0,))] * 2
    dts = [1e-3, 1e-3]
    rows = convergence_study(lambda g: heat_spec_1d(), heat_exact, grids, dts,
                             t_end=5e-3, manufacture=False)
    assert rows[1]["order_inf"] == 0.0 and rows[1]["order_l2"] == 0.0


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
    builder = _assemble_step(spec, grid_12, u, u, 0.0, 1e-3, cfg)
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
        u_new = result.snapshots[k + 1].values[0]
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
    assert result.snapshots[0].time == 0.0


# a single step is a run with t_end = dt

def test_advance_step_validates(grid_12):
    spec = coupled_spec_2d()
    spec.delta = (0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        run(spec, grid_12, StepperConfig(dt=1e-3, t_end=1e-3))


def test_advance_step_moves_time(grid_12):
    spec = coupled_spec_2d()
    state, new = run(spec, grid_12, StepperConfig(dt=1e-3, t_end=1e-3)).snapshots
    assert new.time == pytest.approx(1e-3)
    assert new.values.shape == state.values.shape


def test_source_evaluated_once_per_sweep(grid_12):
    # the budget's source integral reuses the values of the sweep's assembly
    calls = []

    def source(t, points, u):
        calls.append(t)
        return 0.5 + 0.0 * points[:, 0]
    spec = coupled_spec_2d()
    spec.sources = [source, None]
    cfg = StepperConfig(dt=1e-3, t_end=5e-3, picard_max=3, picard_tol=1e-300)
    result = run(spec, grid_12, cfg)
    assert [st["picard_sweeps"] for st in result.solver_stats] == [3] * 5
    assert len(calls) == 15
    assert np.array_equal(result.source_integral[0], np.full(5, 0.5 * grid_12.n_cells
                                                             * grid_12.cell_volume))


def test_solver_failure_carries_partialresult():
    grid = Grid((32, 32), (1.0, 1.0))
    spec = coupled_spec_2d()
    spec.initial = (product_sine(1.0), product_sine(0.8))
    cfg = StepperConfig(dt=1e6, t_end=2e6, lin_tol=1e-14, lin_max=1)
    with pytest.raises(SolverFailure) as exc_info:
        run(spec, grid, cfg)
    exc = exc_info.value
    assert exc.time == pytest.approx(1e6)
    assert math.isfinite(exc.residual)
    assert exc.partial is not None
    assert len(exc.partial.times) >= 1


def test_picard_nonconvergence_recorded(grid_12):
    spec = coupled_spec_2d(ell=1.0)
    cfg = StepperConfig(dt=5e-2, t_end=5e-2, picard_tol=1e-14, picard_max=2)
    result = run(spec, grid_12, cfg)
    assert result.solver_stats[0]["picard_converged"] is False
    assert result.solver_stats[0]["picard_sweeps"] == 2


def test_snapshot_times_strictly_increasing(grid_12):
    spec = coupled_spec_2d()
    result = run(spec, grid_12, StepperConfig(dt=1e-3, t_end=1e-2, snapshot_every=3))
    times = [s.time for s in result.snapshots]
    assert times == sorted(set(times))
    assert times[-1] == pytest.approx(1e-2)


@pytest.mark.parametrize("field", ["picard_max", "lin_max", "snapshot_every"])
@pytest.mark.parametrize("value", [0, -3, 2.5, 2.0, True, "2"])
def test_integer_controls_must_be_positive_integers(field, value):
    with pytest.raises(InvalidParameterError, match=field):
        StepperConfig(dt=1e-3, t_end=1e-3, **{field: value})


def test_integer_controls_accept_numpy_integers():
    cfg = StepperConfig(dt=1e-3, t_end=1e-3, picard_max=np.int64(3), snapshot_every=np.int32(1))
    assert cfg.picard_max == 3


# ---------------------------------------------------------------------------
# linear solve
# ---------------------------------------------------------------------------

def _sweep_system(n: int, dt: float = 1e-3):
    """First-sweep block matrix and RHS of the coupled 2D spec on an n x n grid."""
    grid = Grid((n, n), (1.0, 1.0))
    spec = coupled_spec_2d()
    u0 = np.stack([spec.initial_values(i, grid.cell_centers()) for i in range(2)])
    builder = _assemble_step(spec, grid, u0, u0, 0.0, dt, StepperConfig(dt=dt, t_end=dt))
    return builder.matrix(), builder.rhs


@pytest.mark.parametrize("bad", [0.0, math.nan])
def test_singular_or_nonfinite_system_raises_solver_failure(bad):
    a = sparse.csr_matrix(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, bad]]))
    with pytest.raises(SolverFailure) as exc_info:
        fv.solve_sparse(a, np.ones(3), 1e-10, 100, time=0.5)
    assert exc_info.value.time == 0.5


def test_unreachable_tolerance_raises_with_finite_residual():
    a, b = _sweep_system(6)
    with pytest.raises(SolverFailure) as exc_info:
        fv.solve_sparse(a, b, 1e-20, 100)
    assert math.isfinite(exc_info.value.residual)


def test_direct_and_gmres_paths_agree(monkeypatch):
    a, b = _sweep_system(20)
    lin_tol = 1e-10
    x_direct, r_direct = fv.solve_sparse(a, b, lin_tol, 6000)
    monkeypatch.setattr(fv, "DIRECT_MAX_UNKNOWNS", 0)
    factors = fv.BlockFactors(2)
    x_gmres, r_gmres = fv.solve_sparse(a, b, lin_tol, 6000, factors=factors)
    assert factors.iters > 0
    assert max(r_direct, r_gmres) <= lin_tol
    rel = np.linalg.norm(x_direct - x_gmres) / np.linalg.norm(x_direct)
    assert rel <= 10 * lin_tol


def test_lin_max_caps_gmres_iterations():
    grid = Grid((48, 48), (1.0, 1.0))
    assert 2 * grid.n_cells > fv.DIRECT_MAX_UNKNOWNS
    cfg = StepperConfig(dt=1e-3, t_end=1e-3, lin_max=1)
    with pytest.raises(SolverFailure):
        run(coupled_spec_2d(), grid, cfg)


# ---------------------------------------------------------------------------
# block-Jacobi preconditioned GMRES (systems above DIRECT_MAX_UNKNOWNS)
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
    assert 2 * GRID_48.n_cells > fv.DIRECT_MAX_UNKNOWNS
    lin_tol = 1e-10
    cfg = StepperConfig(dt=1e-3, t_end=5e-3, lin_tol=lin_tol)
    gmres = run(coupled_spec_2d(), GRID_48, cfg)
    assert all(st["lin_iters"] > 0 for st in gmres.solver_stats)
    monkeypatch.setattr(fv, "DIRECT_MAX_UNKNOWNS", 2 * GRID_48.n_cells)
    direct = run(coupled_spec_2d(), GRID_48, cfg)
    assert all(st["lin_iters"] == 0 and not st["refactored"] for st in direct.solver_stats)
    for sg, sd in zip(gmres.snapshots, direct.snapshots):
        rel = np.max(np.abs(sg.values - sd.values)) / np.max(np.abs(sd.values))
        assert rel <= 10 * lin_tol


GRID_32 = Grid((32, 32), (1.0, 1.0))   # m = 2: 2048 unknowns, a 2D desk grid


def _desk_run(system: str, cfg: StepperConfig):
    if system == "generic":
        return run(coupled_spec_2d(), GRID_32, cfg)
    spec = aq.keulegan_scenario(GRID_32, pump_rate=0.05, tilt=0.4)
    if system == "penalized":
        return aq.run_penalized(spec, GRID_32, cfg)[0]
    return aq.run_confined_aquifer(spec, GRID_32, cfg)


@pytest.mark.parametrize("system", ["generic", "penalized", "confined"])
def test_desk_grid_takes_block_path_and_agrees_with_direct(monkeypatch, system):
    lin_tol = 1e-10
    cfg = StepperConfig(dt=1e-3, t_end=5e-3, lin_tol=lin_tol)
    block = _desk_run(system, cfg)
    assert all(st["lin_iters"] > 0 for st in block.solver_stats)
    monkeypatch.setattr(fv, "DIRECT_MAX_UNKNOWNS", 2 * GRID_32.n_cells)
    direct = _desk_run(system, cfg)
    assert all(st["lin_iters"] == 0 for st in direct.solver_stats)
    assert len(block.snapshots) == len(direct.snapshots)
    for sb, sd in zip(block.snapshots, direct.snapshots):
        rel = np.max(np.abs(sb.values - sd.values)) / np.max(np.abs(sd.values))
        assert rel <= 10 * lin_tol


def test_species_blocks_factored_once_per_run(monkeypatch):
    calls = _count_splu(monkeypatch)
    result = run(coupled_spec_2d(), GRID_48, StepperConfig(dt=1e-3, t_end=20e-3))
    assert calls == [(GRID_48.n_cells, GRID_48.n_cells)] * 2
    assert [st["refactored"] for st in result.solver_stats] == [True] + [False] * 19


def test_refactor_after_every_solve_at_zero_threshold(monkeypatch):
    monkeypatch.setattr(fv, "REFACTOR_AFTER", 0)
    calls = _count_splu(monkeypatch)
    result = run(coupled_spec_2d(), GRID_48, StepperConfig(dt=1e-3, t_end=20e-3))
    solves = sum(st["picard_sweeps"] for st in result.solver_stats)
    assert len(calls) == 2 * solves


def test_run_does_not_depend_on_earlier_runs():
    cfg = StepperConfig(dt=1e-3, t_end=4e-3)
    spec_b = coupled_spec_2d()

    def snapshots(spec):
        return [s.values.tobytes() for s in run(spec, GRID_48, cfg).snapshots]
    alone = snapshots(spec_b)
    spec_a = coupled_spec_2d()
    spec_a.initial = (product_sine(0.3), product_sine(1.0))
    snapshots(spec_a)
    assert snapshots(spec_b) == alone


@pytest.mark.parametrize("bad", [0.0, math.nan])
def test_singular_species_block_raises_solver_failure(monkeypatch, bad):
    monkeypatch.setattr(fv, "DIRECT_MAX_UNKNOWNS", 0)
    eye = sparse.identity(4)
    a = sparse.bmat([[eye, eye], [eye, bad * eye]]).tocsr()
    with pytest.raises(SolverFailure) as exc_info:
        fv.solve_sparse(a, np.ones(8), 1e-10, 100, time=0.5, factors=fv.BlockFactors(2))
    assert exc_info.value.time == 0.5
    assert "factorization" in str(exc_info.value)


# ---------------------------------------------------------------------------
# CSR pattern of the assembled block system
# ---------------------------------------------------------------------------

def test_builder_keeps_traced_methods():
    # the benchmark tracer wraps these by name on the class itself
    for name in ("add_mass", "add_rhs", "add_tpfa", "add_explicit_flux", "matrix"):
        assert callable(fv.SystemBuilder.__dict__[name])


@pytest.fixture
def built(monkeypatch):
    """Every matrix a builder makes, with the add_mass/add_tpfa calls behind it."""
    builds = []
    cls = fv.SystemBuilder
    add_mass, add_tpfa, matrix = cls.add_mass, cls.add_tpfa, cls.matrix

    def log(self, call):
        self.__dict__.setdefault("calls", []).append(call)

    def spy_mass(self, species, coeff):
        log(self, ("mass", (species, coeff)))
        return add_mass(self, species, coeff)

    def spy_tpfa(self, row_sp, col_sp, g, traces):
        log(self, ("tpfa", (row_sp, col_sp, g, traces)))
        return add_tpfa(self, row_sp, col_sp, g, traces)

    def spy_matrix(self):
        a = matrix(self)
        builds.append((self.grid, self.m, self.__dict__.get("calls", []), list(self.terms), a))
        return a
    monkeypatch.setattr(cls, "add_mass", spy_mass)
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
    grid, m, calls, _terms, a = build
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
    builder = _assemble_step(spec, grid, u, 0.9 * u, 0.0, 1e-3,
                             cfg or StepperConfig(dt=1e-3, t_end=1e-3))
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
    builder = aq._assemble_confined(aspec, grid, np.stack([w, phi]),
                                    np.stack([0.95 * w, phi]), 0.0, 1e-3, cfg)
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
    (_, _, _, t_dir, a_dir), (_, _, _, t_closed, _), (_, _, _, t_diag, a_diag), _ = built
    assert t_dir != t_closed and t_dir != t_diag
    # boundary entries sit on diagonals the faces already store, so a closed
    # species keeps the CSR structure and changes only the slot map
    assert fv._pattern(GRID_75, 2, tuple(t_dir))[2].size != \
        fv._pattern(GRID_75, 2, tuple(t_closed))[2].size
    # without the species couplings the off-diagonal blocks are empty
    assert a_diag.nnz < a_dir.nnz


def drain_reference(grid, m, terms, vals) -> sparse.csr_matrix:
    """coo -> csr of recorded face terms, indexed from face_table.

    A face term's values are the diagonal entries of the left cells of the
    covered faces, then of the right cells of the interior faces, then the
    (left, right) and the (right, left) entries of the interior faces.
    """
    ft = fv.face_table(grid)
    n = grid.n_cells
    rows, cols = [], []
    for kind, row_sp, col_sp, n_faces in terms:
        assert kind == "face"
        left, right = ft.left[:ft.n_interior], ft.right[:ft.n_interior]
        r = (ft.left[:n_faces], right, left, right)
        c = (ft.left[:n_faces], right, right, left)
        rows.append(row_sp * n + np.concatenate(r))
        cols.append(col_sp * n + np.concatenate(c))
    return sparse.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
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
    plain = _assemble_step(spec, grid, u_prev, u_lag, 0.0, cfg.dt, cfg)
    a_plain = coo_reference(grid, 2, plain.calls)
    b_plain = plain.rhs

    s_lag = u_lag[0] + u_lag[1]
    assert np.any(s_lag > aspec.h2_cells(grid))
    drain = fv.SystemBuilder(grid, 2)
    aq._add_drain(drain, aspec, u_lag[0], s_lag, cfg.dt)
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

    _, _, sweep = aq._thickness_system(aspec, grid, cfg, penalized=True)
    builder = sweep(u_prev, u_lag, 0.0, cfg.dt)
    x0 = builder.to_unknowns(u_lag)
    a = builder.matrix()
    assert np.array_equal(a.indptr, ref.indptr)
    assert np.array_equal(a.indices, ref.indices)
    assert np.max(np.abs(a.data - ref.data)) <= 1e-14 * np.max(np.abs(ref.data))
    assert np.array_equal(builder.rhs, q_op @ b_plain + drain.rhs)
    assert np.array_equal(x0, np.concatenate([u_lag[0], s_lag]))
    assert np.allclose(builder.to_state(x0), u_lag, rtol=0.0, atol=1e-15)


def budget_sweeps():
    """(builder, u_prev, dt, mass rows) of a generic and two confined sweeps."""
    from crossdiff import aquifer as aq
    dt = 1e-3
    cfg = StepperConfig(dt=dt, t_end=dt)
    spec = full_tensor_spec()
    spec.sources = [lambda t, p, u: 0.3 + p[:, 0] * u[0], lambda t, p, u: 0.2 * u[1]]
    u = np.stack([spec.initial_values(i, GRID_75.cell_centers()) for i in range(2)])
    yield _assemble_step(spec, GRID_75, u, 0.9 * u, 0.0, dt, cfg), u, dt, [True, True]
    _, aspec, grid, w = confined_case()
    closed = aq.keulegan_scenario(grid, pump_rate=0.05, tilt=0.2)
    for a in (aspec, closed):
        phi = 0.1 * product_sine(1.0)(grid.cell_centers())
        u = np.stack([w, phi])
        builder = aq._assemble_confined(a, grid, u, np.stack([0.95 * w, phi]), 0.0, dt, cfg)
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


@pytest.mark.parametrize("ell", [1.0, 0.0])
def test_advance_step_is_first_step_of_run(grid_12, ell):
    spec = coupled_spec_2d(ell=ell)
    cfg = StepperConfig(dt=2e-3, t_end=6e-3, picard_max=3)
    result = run(spec, grid_12, cfg)
    first = run(spec, grid_12, dataclasses.replace(cfg, t_end=cfg.dt)).snapshots[-1]
    assert first.time == result.snapshots[1].time
    assert np.array_equal(first.values, result.snapshots[1].values)


@pytest.mark.parametrize("kind", ["closed-1d", "dirichlet-2d"])
@pytest.mark.parametrize("penalized", [False, True])
def test_step_aquifer_is_first_step_of_run(kind, penalized):
    aq, aspec, _, grid, _, _ = penalized_case(kind)
    aspec = dataclasses.replace(aspec, epsilon=1e-4)  # a tightened penalized lin_tol

    def run_to(t_end):
        cfg = StepperConfig(dt=2e-3, t_end=t_end, lin_tol=1e-11)
        return (aq.run_penalized(aspec, grid, cfg)[0] if penalized
                else aq._run_thickness(aspec, grid, cfg, penalized=False))
    result, first = run_to(6e-3), run_to(2e-3).snapshots[-1]
    assert first.time == result.snapshots[1].time
    assert np.array_equal(first.values, result.snapshots[1].values)


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
