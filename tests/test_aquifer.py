import numpy as np
import pytest

from crossdiff import aquifer as aq
from crossdiff import fv, solver
from crossdiff.fv import SystemBuilder
from crossdiff.model import CrossTensor, Grid, InvalidParameterError, ModelSpec, validate_spec
from crossdiff.solver import SolverFailure, StepperConfig


def dirichlet_spec(grid, pumping=None, h=0.5, h1=0.1, epsilon=1e-2):
    return aq.AquiferSpec(h2=1.0, delta=0.3, alpha=0.025, epsilon=epsilon,
                          initial_h=h, initial_h1=h1, domain=grid.extents,
                          dirichlet_h=h, dirichlet_h1=h1, pumping=pumping)


@pytest.fixture(scope="module")
def grid_48():
    return Grid((48,), (1.0,))


# ---------------------------------------------------------------------------
# variable maps
# ---------------------------------------------------------------------------

def test_map_heads_examples():
    u1, u2 = aq.map_heads(0.6, 0.2, 1.0)
    assert u1 == pytest.approx(0.4, abs=1e-16) and u2 == pytest.approx(0.4, abs=1e-16)
    u1, u2 = aq.map_heads(1.0, 0.0, 1.0)
    assert (u1, u2) == (1.0, 0.0)


def test_map_roundtrip_random_fields():
    rng = np.random.default_rng(2)
    h2 = 1.0 + rng.random(256)
    h = h2 * rng.random(256)
    h1 = h * rng.random(256)
    u1, u2 = aq.map_heads(h, h1, h2)
    h_back, h1_back = aq.map_species(u1, u2, h2)
    assert np.max(np.abs(h_back - h)) < 1e-15
    assert np.max(np.abs(h1_back - h1)) < 1e-15


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_spec_rejects_bad_contrast(grid_48):
    with pytest.raises(InvalidParameterError):
        aq.AquiferSpec(h2=1.0, delta=0.3, alpha=1.5, epsilon=1e-2,
                       initial_h=0.5, initial_h1=0.1, domain=(1.0,),
                       dirichlet_h=0.5, dirichlet_h1=0.1)


def test_spec_rejects_inadmissible_delta(grid_48):
    spec = aq.AquiferSpec(h2=1.0, delta=0.1, alpha=0.025, epsilon=1e-2,
                          initial_h=0.5, initial_h1=0.1, domain=(1.0,),
                          dirichlet_h=0.5, dirichlet_h1=0.1)
    with pytest.raises(InvalidParameterError):
        spec.validate(grid_48)


def test_spec_rejects_hierarchy_violation(grid_48):
    spec = aq.AquiferSpec(h2=1.0, delta=0.3, alpha=0.025, epsilon=1e-2,
                          initial_h=0.2, initial_h1=0.4, domain=(1.0,),
                          dirichlet_h=0.2, dirichlet_h1=0.4)
    with pytest.raises(InvalidParameterError):
        spec.validate(grid_48)


# ---------------------------------------------------------------------------
# equivalence with the generic formalism
# ---------------------------------------------------------------------------

def test_thickness_run_matches_generic_solver():
    # the plain aquifer run must be the generic coupled system with tensors
    # built from the density contrast, run through solver.run (ell = h2)
    grid = Grid((6, 6), (1.0, 1.0))
    spec = dirichlet_spec(grid, pumping=0.05)
    spec.validate(grid)
    mspec = aq.to_cross_spec(spec, grid)
    assert validate_spec(mspec, grid).ok

    cfg = StepperConfig(dt=1e-3, t_end=5e-3, lin_tol=1e-12)
    plain = aq._run_thickness(spec, grid, cfg, penalized=False)
    generic = solver.run(mspec, grid, cfg)
    assert len(plain.snapshots) == len(generic.snapshots)
    for a, g in zip(plain.snapshots, generic.snapshots):
        assert a.time == g.time
        h, h1 = aq.map_species(g.values[0], g.values[1], spec.h2)
        assert np.max(np.abs(a.values - np.stack([h, h1]))) <= 1e-12
    assert plain.solver_stats == generic.solver_stats


def test_generic_closed_box_conserves_mass():
    # closed species (no Dirichlet data) exchange nothing with the outside
    grid = Grid((8, 6), (1.0, 0.75))
    iso = CrossTensor.isotropic
    mspec = ModelSpec(m=2, delta=(1.0, 0.5), K=[[iso(1.0, 2), iso(0.5, 2)],
                                                  [iso(0.5, 2), iso(1.0, 2)]],
                      ell=2.0, domain=grid.extents,
                      initial=[lambda p: 1.0 + np.sin(3.0 * p[:, 0]), 0.7],
                      dirichlet=[None, None])
    assert validate_spec(mspec, grid).ok
    result = solver.run(mspec, grid, StepperConfig(dt=2e-3, t_end=2e-2, lin_tol=1e-12))
    assert np.all(result.boundary_flux == 0.0)
    assert np.max(np.abs(result.mass - result.mass[:, :1]) / result.mass[:, :1]) <= 1e-12
    assert solver.mass_balance_residual(result, mspec, grid).ok


def test_penalty_inactive_entries_vanish(grid_48):
    spec = dirichlet_spec(grid_48)
    u1 = np.full(grid_48.n_cells, 0.4)
    s = np.full(grid_48.n_cells, 0.9)  # below h2 everywhere
    builder = SystemBuilder(grid_48, 2)
    aq._add_drain(builder, spec, u1, s, 1e-3)
    assert builder.terms == [("face", 1, 1, builder.ft.n_faces)]  # interior and boundary faces
    assert all(np.max(np.abs(v)) == 0.0 for v in builder.vals)
    assert np.max(np.abs(builder.rhs)) == 0.0


def test_penalized_and_plain_coincide_when_inactive(grid_48):
    spec = dirichlet_spec(grid_48)
    cfg = StepperConfig(dt=1e-3, t_end=5e-3, lin_tol=1e-12)
    plain = aq._run_thickness(spec, grid_48, cfg, penalized=False)
    pen, conf = aq.run_penalized(spec, grid_48, cfg)
    diff = np.max(np.abs(plain.snapshots[-1].values - pen.snapshots[-1].values))
    assert diff <= 10 * cfg.lin_tol * 100
    assert np.all(conf.violation == 0.0)
    assert np.all(conf.q_field == 0.0)


# ---------------------------------------------------------------------------
# interface dynamics
# ---------------------------------------------------------------------------

def test_flat_interfaces_steady(grid_48):
    spec = dirichlet_spec(grid_48)
    cfg = StepperConfig(dt=2e-3, t_end=2e-2, lin_tol=1e-12)
    result, _ = aq.run_penalized(spec, grid_48, cfg)
    assert np.max(np.abs(result.snapshots[-1].values[0] - 0.5)) < 1e-9
    assert np.max(np.abs(result.snapshots[-1].values[1] - 0.1)) < 1e-9


def test_inclined_interface_slope_decreases(grid_48):
    spec = aq.keulegan_scenario(grid_48, pump_rate=0.0, tilt=0.4)
    cfg = StepperConfig(dt=2.5e-3, t_end=0.2, snapshot_every=10)
    result, _ = aq.run_penalized(spec, grid_48, cfg)
    slopes = [aq.interface_slope(f.values[0], grid_48) for f in result.snapshots]
    assert all(b <= a + 1e-12 for a, b in zip(slopes, slopes[1:]))
    assert slopes[-1] < slopes[0]


def test_closed_box_mass_accounting(grid_48):
    # no pumping: freshwater and saltwater thickness integrals are conserved
    spec = aq.keulegan_scenario(grid_48, pump_rate=0.0, tilt=0.4)
    cfg = StepperConfig(dt=2.5e-3, t_end=0.1, lin_tol=1e-11)
    result, _ = aq.run_penalized(spec, grid_48, cfg)
    vol_h2 = np.sum(spec.h2_cells(grid_48)) * grid_48.cell_volume
    mass_u1 = result.mass[0] - result.mass[1]
    mass_u2 = vol_h2 - result.mass[0]
    assert np.max(np.abs(mass_u1 - mass_u1[0])) < 1e-9
    assert np.max(np.abs(mass_u2 - mass_u2[0])) < 1e-9


def test_pumping_budget_closed_box(grid_48):
    rate = 0.05
    spec = aq.keulegan_scenario(grid_48, pump_rate=rate, tilt=0.0)
    cfg = StepperConfig(dt=2e-3, t_end=0.1, lin_tol=1e-11)
    result, _ = aq.run_penalized(spec, grid_48, cfg)
    vol_h2 = np.sum(spec.h2_cells(grid_48)) * grid_48.cell_volume
    mass_u2 = vol_h2 - result.mass[0]
    # extraction from the salt layer: d/dt integral(u2) = -rate
    expected = mass_u2[0] - rate * result.times
    assert np.max(np.abs(mass_u2 - expected)) < 1e-8


def test_step_aquifer_moves_state(grid_48):
    # a single step is a run with t_end = dt, plain and penalized
    spec = dirichlet_spec(grid_48)
    state = np.stack(spec.initial_values(grid_48))
    cfg = StepperConfig(dt=1e-3, t_end=1e-3)
    for result in (aq._run_thickness(spec, grid_48, cfg, penalized=False),
                   aq.run_penalized(spec, grid_48, cfg)[0]):
        new = result.snapshots[-1]
        assert len(result.snapshots) == 2 and new.time == pytest.approx(1e-3)
        assert np.max(np.abs(new.values - state)) < 1e-9  # steady data stay put


# ---------------------------------------------------------------------------
# scenario construction
# ---------------------------------------------------------------------------

def test_keulegan_defaults():
    grid = Grid((32,), (1.0,))
    spec = aq.keulegan_scenario(grid)
    assert spec.alpha == 0.025
    assert spec.boundary == "closed"
    spec.validate(grid)


def test_keulegan_flat_no_pump_is_steady():
    grid = Grid((32,), (1.0,))
    spec = aq.keulegan_scenario(grid, pump_rate=0.0, tilt=0.0)
    result, conf = aq.run_penalized(spec, grid, StepperConfig(dt=2e-3, t_end=2e-2))
    assert np.max(np.abs(result.snapshots[-1].values[0] - 0.5)) < 1e-9
    assert np.all(conf.violation == 0.0)


def test_keulegan_rejects_bad_tilt():
    grid = Grid((32,), (1.0,))
    with pytest.raises(InvalidParameterError):
        aq.keulegan_scenario(grid, tilt=1.2)  # h range leaves [h1, h2]


def test_keulegan_two_dimensional_box():
    grid = Grid((16, 6), (1.0, 0.4))
    spec = aq.keulegan_scenario(grid, pump_rate=0.01, tilt=0.4)
    result, conf = aq.run_penalized(spec, grid, StepperConfig(dt=5e-3, t_end=5e-2))
    h, h1 = result.snapshots[-1].values
    h2c = spec.h2_cells(grid)
    assert np.all(h1 >= -1e-9) and np.all(h - h1 >= -1e-9) and np.all(h2c - h >= -1e-9)
    assert np.all(conf.violation == 0.0)


def test_per_cell_reservoir_depth():
    grid = Grid((32,), (1.0,))
    x = grid.cell_centers()[:, 0]
    spec = aq.AquiferSpec(h2=1.0 + 0.2 * np.sin(np.pi * x), delta=0.3, alpha=0.025,
                          epsilon=1e-2, initial_h=0.5, initial_h1=0.1,
                          domain=(1.0,), dirichlet_h=0.5, dirichlet_h1=0.1)
    spec.validate(grid)
    result, conf = aq.run_penalized(spec, grid, StepperConfig(dt=2e-3, t_end=2e-2))
    assert np.all(np.isfinite(result.snapshots[-1].values))
    assert np.all(conf.violation == 0.0)
    with pytest.raises(InvalidParameterError):
        aq.to_cross_spec(spec, grid)  # generic mapping needs a constant depth


# ---------------------------------------------------------------------------
# confined variant
# ---------------------------------------------------------------------------

def test_confined_flat_no_pump_steady(grid_48):
    spec = dirichlet_spec(grid_48)
    cfg = StepperConfig(dt=2e-3, t_end=2e-2, lin_tol=1e-12)
    result = aq.run_confined_aquifer(spec, grid_48, cfg)
    h, phi = result.snapshots[-1].values
    assert np.max(np.abs(h - 0.5)) < 1e-9
    assert np.max(np.abs(phi - 0.0)) < 1e-9


def test_confined_differs_from_penalized_under_pumping(grid_48):
    spec = aq.keulegan_scenario(grid_48, pump_rate=0.05, tilt=0.2)
    cfg = StepperConfig(dt=2.5e-3, t_end=0.2, snapshot_every=20)
    pen, _ = aq.run_penalized(spec, grid_48, cfg)
    conf = aq.run_confined_aquifer(spec, grid_48, cfg)
    gap = np.max(np.abs(pen.snapshots[-1].values[0] - conf.snapshots[-1].values[0]))
    assert gap > 1e-4  # structurally different models, far above solver noise


def test_confined_budget_is_that_of_w_and_phi():
    # the series are the (w, phi) budget: the w-row inflow accounts for the
    # change of the integral of w = h2 - h, and the head row, which has no
    # mass term, balances its pumping source with its boundary inflow
    from types import SimpleNamespace
    grid = Grid((8, 6), (1.0, 0.8))
    spec = aq.AquiferSpec(h2=1.0, delta=0.3, alpha=0.025, epsilon=1e-2,
                          initial_h=lambda p: 0.5 + 0.1 * p[:, 0], initial_h1=0.1,
                          domain=grid.extents, dirichlet_h=lambda t, p: 0.5 + 0.1 * p[:, 0],
                          dirichlet_h1=0.1, pumping=0.05)
    cfg = StepperConfig(dt=2e-3, t_end=2e-2, lin_tol=1e-11)
    result = aq.run_confined_aquifer(spec, grid, cfg)
    vol = grid.cell_volume
    mass_w = np.sum(spec.h2_cells(grid)) * vol - result.mass[0]
    # mass_balance_residual reads only the species count of the spec
    report = solver.mass_balance_residual(result, SimpleNamespace(m=2), grid)
    dw = np.diff(mass_w)
    assert np.max(np.abs(dw)) > 1e3 * np.max(report.thresholds)  # the interface moves
    assert np.all(np.abs(dw - cfg.dt * (result.source_integral[0] + result.boundary_flux[0]))
                  <= report.thresholds)
    assert np.all(result.source_integral[0] == 0.0)
    assert np.allclose(result.source_integral[1], -0.05 * grid.n_cells * vol, rtol=1e-14)
    assert np.all(cfg.dt * np.abs(result.source_integral[1] + result.boundary_flux[1])
                  <= report.thresholds)


def test_confined_failure_keeps_partial(grid_48, singular_confined_step):
    # the head solve at t = 0 succeeds; the first coupled step is singular
    spec = aq.keulegan_scenario(grid_48, pump_rate=0.05, tilt=0.4)
    cfg = StepperConfig(dt=3e-3, t_end=9e-3, lin_tol=1e-12)
    with pytest.raises(SolverFailure) as info:
        aq.run_confined_aquifer(spec, grid_48, cfg)
    assert info.value.time == pytest.approx(3e-3)
    assert info.value.partial is not None
    assert list(info.value.partial.times) == [0.0]


def test_initial_head_above_cutoff_makes_no_gmres_call(monkeypatch):
    # the one elliptic solve keeps no factors, so it factors and solves directly
    grid = Grid((40, 40), (1.0, 1.0))
    assert grid.n_cells > fv.DIRECT_MAX_UNKNOWNS
    spec = dirichlet_spec(grid, pumping=0.05)
    calls = []
    gmres = fv.spla.gmres

    def counting_gmres(*args, **kwargs):
        calls.append(1)
        return gmres(*args, **kwargs)

    monkeypatch.setattr(fv.spla, "gmres", counting_gmres)
    w0 = spec.h2_cells(grid) - spec.initial_values(grid)[0]
    phi = aq._initial_head(spec, grid, w0, StepperConfig(dt=1e-3, t_end=1e-3))
    assert calls == []
    assert np.all(np.isfinite(phi)) and np.any(phi != 0.0)


# ---------------------------------------------------------------------------
# penalization sweep
# ---------------------------------------------------------------------------

def constraint_active_spec(grid):
    pts = grid.cell_centers()
    inj = np.where(np.abs(pts[:, 0] - 0.5) < 0.1, -2.0, 0.0)
    return aq.AquiferSpec(h2=1.0, delta=0.3, alpha=0.025, epsilon=1e-1,
                          initial_h=0.5, initial_h1=0.05, domain=grid.extents,
                          dirichlet_h=0.5, dirichlet_h1=0.05, pumping=inj)


def test_penalized_block_gmres_run_agrees_with_direct_run(grid_48, monkeypatch):
    # the (u1, s) system on the iterative path, with the drain active
    spec = constraint_active_spec(grid_48)
    lin_tol = 1e-10
    cfg = StepperConfig(dt=2e-3, t_end=0.2, lin_tol=lin_tol, snapshot_every=25)
    direct, conf = aq.run_penalized(spec, grid_48, cfg)
    assert conf.final_violation > 0.0
    assert all(st["lin_iters"] == 0 for st in direct.solver_stats)
    monkeypatch.setattr(fv, "DIRECT_MAX_UNKNOWNS", 0)
    gmres, _ = aq.run_penalized(spec, grid_48, cfg)
    assert all(st["lin_iters"] > 0 for st in gmres.solver_stats)
    assert len(gmres.snapshots) == len(direct.snapshots)
    for sg, sd in zip(gmres.snapshots, direct.snapshots):
        rel = np.max(np.abs(sg.values - sd.values)) / np.max(np.abs(sd.values))
        assert rel <= 10 * lin_tol


@pytest.mark.parametrize("variant", ["penalized", "confined"])
def test_1d_runs_take_direct_path(grid_1d, variant):
    spec = aq.keulegan_scenario(grid_1d, pump_rate=0.05, tilt=0.45)
    cfg = StepperConfig(dt=3e-3, t_end=15e-3)
    result = (aq.run_penalized(spec, grid_1d, cfg)[0] if variant == "penalized"
              else aq.run_confined_aquifer(spec, grid_1d, cfg))
    assert all(st["lin_iters"] == 0 for st in result.solver_stats)


def test_sweep_requires_decreasing_epsilons(grid_48):
    spec = constraint_active_spec(grid_48)
    cfg = StepperConfig(dt=2e-3, t_end=1e-2)
    with pytest.raises(InvalidParameterError):
        aq.epsilon_sweep(spec, grid_48, cfg, [1e-2, 1e-1])
    with pytest.raises(InvalidParameterError):
        aq.epsilon_sweep(spec, grid_48, cfg, [1e-1, -1e-2])


def test_sweep_inactive_scenario_all_zero(grid_48):
    spec = dirichlet_spec(grid_48)
    cfg = StepperConfig(dt=2e-3, t_end=1e-2)
    report = aq.epsilon_sweep(spec, grid_48, cfg, [1e-1, 1e-2])
    assert np.all(report.violations() == 0.0)


def test_sweep_violation_decays(grid_48):
    spec = constraint_active_spec(grid_48)
    cfg = StepperConfig(dt=2e-3, t_end=0.2, snapshot_every=25)
    report = aq.epsilon_sweep(spec, grid_48, cfg, [1e-1, 1e-2])
    v = report.violations()
    assert v[0] > 0.0
    assert v[1] <= v[0]
    assert report.fit_exponent > 0.0


def test_drain_supported_where_table_vanishes(grid_48):
    # orthogonality h1 * Q -> 0: cells where the water table is clearly
    # positive (h1 > 0.01 h2) must carry a negligible share of the residual
    from dataclasses import replace
    spec = replace(constraint_active_spec(grid_48), epsilon=1e-3)
    cfg = StepperConfig(dt=2e-3, t_end=0.3, snapshot_every=50)
    result, conf = aq.run_penalized(spec, grid_48, cfg)
    h, h1 = result.snapshots[-1].values
    q_cells = fv.cell_average(fv.face_table(grid_48),
                              np.abs(aq.penalty_face_flux(spec, grid_48, h, h1)))
    q_mag = np.sqrt(np.sum(q_cells ** 2, axis=0))
    contrib = np.abs(h1) * q_mag * grid_48.cell_volume
    total = contrib.sum()
    assert total > 0.0
    share = contrib[h1 > 0.01 * 1.0].sum() / total
    assert share <= 0.05
