import dataclasses
import math

import numpy as np
import pytest

from crossdiff import aquifer as aq
from crossdiff import fv, solver
from crossdiff.fv import SystemBuilder
from crossdiff.model import (CrossTensor, Grid, InvalidParameterError, ModelSpec,
                             point_density, validate_spec)
from crossdiff.solver import SolverFailure, StepperConfig

from conftest import count_superlu, coupled_spec_2d, plain_run


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
    # the plain aquifer run (ell = inf) must be the generic coupled system with
    # tensors built from the density contrast, run through solver.run (ell = h2)
    grid = Grid((6, 6), (1.0, 1.0))
    spec = dirichlet_spec(grid, pumping=0.05)
    spec.validate(grid)
    mspec = aq.to_cross_spec(spec, grid)
    assert validate_spec(mspec, grid).ok

    cfg = StepperConfig(dt=1e-3, t_end=5e-3, lin_tol=1e-12)
    plain = plain_run(spec, grid, cfg)
    generic = solver.run(mspec, grid, cfg)
    assert np.array_equal(plain.snapshot_times, generic.snapshot_times)
    h, h1 = aq.map_species(generic.snapshots[:, 0], generic.snapshots[:, 1], spec.h2)
    assert np.max(np.abs(plain.snapshots - np.stack([h, h1], axis=1))) <= 1e-12
    assert plain.solver_stats == generic.solver_stats


def test_closed_box_cross_spec_is_the_plain_run(grid_48):
    # a closed box maps to closed species: the generic run at ell = h2 is the
    # plain run bit for bit, and the penalized run with its drain inactive
    spec = aq.keulegan_scenario(grid_48)
    mspec = aq.to_cross_spec(spec, grid_48)
    assert mspec.dirichlet == [None, None]
    assert validate_spec(mspec, grid_48).ok

    cfg = StepperConfig(dt=1e-3, t_end=5e-3, lin_tol=1e-12)
    generic = solver.run(mspec, grid_48, cfg)
    plain = solver.run(aq._thickness_spec(spec, grid_48, math.inf), grid_48, cfg)
    assert np.array_equal(generic.snapshots, plain.snapshots)
    assert generic.solver_stats == plain.solver_stats
    pen, conf = aq.run_penalized(spec, grid_48, cfg)
    h, h1 = aq.map_species(generic.snapshots[:, 0], generic.snapshots[:, 1], spec.h2)
    assert np.max(np.abs(pen.snapshots - np.stack([h, h1], axis=1))) <= 10 * cfg.lin_tol
    assert np.all(conf.violation == 0.0) and np.all(conf.q_field == 0.0)


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
    aq._add_drain(builder, spec, spec.h2_cells(grid_48), u1, s,
                  *aq._u_traces(spec, grid_48, 1e-3))
    assert builder.terms == [("face", 1, 1, builder.ft.n_faces)]  # interior and boundary faces
    assert all(np.max(np.abs(v)) == 0.0 for v in builder.vals)
    assert np.max(np.abs(builder.rhs)) == 0.0


def test_penalized_and_plain_coincide_when_inactive(grid_48):
    spec = dirichlet_spec(grid_48)
    cfg = StepperConfig(dt=1e-3, t_end=5e-3, lin_tol=1e-12)
    plain = plain_run(spec, grid_48, cfg)
    pen, conf = aq.run_penalized(spec, grid_48, cfg)
    diff = np.max(np.abs(plain.snapshots[-1] - pen.snapshots[-1]))
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
    assert np.max(np.abs(result.snapshots[-1, 0] - 0.5)) < 1e-9
    assert np.max(np.abs(result.snapshots[-1, 1] - 0.1)) < 1e-9


def test_inclined_interface_slope_decreases(grid_48):
    spec = aq.keulegan_scenario(grid_48, pump_rate=0.0, tilt=0.4)
    cfg = StepperConfig(dt=2.5e-3, t_end=0.2, snapshot_every=10)
    result, _ = aq.run_penalized(spec, grid_48, cfg)
    slopes = [aq.interface_slope(h, grid_48) for h in result.snapshots[:, 0]]
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
    for result in (plain_run(spec, grid_48, cfg),
                   aq.run_penalized(spec, grid_48, cfg)[0]):
        assert len(result.snapshots) == 2 and result.snapshot_times[-1] == pytest.approx(1e-3)
        assert np.max(np.abs(result.snapshots[-1] - state)) < 1e-9  # steady data stay put


# ---------------------------------------------------------------------------
# data evaluation
# ---------------------------------------------------------------------------

DATA_GRID = Grid((4, 3), (1.0, 0.75))
VALUE = 0.1 + 1.0 / 3.0


def _aquifer_datum_values(datum: str, data) -> np.ndarray:
    """Values of one datum of a Dirichlet aquifer spec on DATA_GRID."""
    spec = dataclasses.replace(dirichlet_spec(DATA_GRID), **{datum: data})
    pts, bnd = DATA_GRID.cell_centers(), fv.face_table(DATA_GRID).bnd_points
    return {"initial_h": lambda: spec.initial_values(DATA_GRID)[0],
            "dirichlet_h": lambda: spec.trace_values(0.5, bnd)[0],
            "pumping": lambda: spec.pumping_values(0.5, pts),
            "h2": lambda: spec.h2_cells(DATA_GRID)}[datum]()


def _aquifer_datum_length(datum: str) -> int:
    return (fv.face_table(DATA_GRID).n_boundary if datum == "dirichlet_h"
            else DATA_GRID.n_cells)


@pytest.mark.parametrize("datum", ["initial_h", "dirichlet_h", "pumping", "h2"])
def test_aquifer_scalar_array_and_callable_data_agree(datum):
    array = np.full(_aquifer_datum_length(datum), VALUE)
    forms = [VALUE, array]
    # the reservoir depth is a scalar or per-cell array; it has no callable form
    if datum != "h2":
        forms.append((lambda p: array) if datum == "initial_h" else (lambda t, p: array))
    values = [_aquifer_datum_values(datum, d) for d in forms]
    for v in values:
        assert v.dtype == float and v.tobytes() == values[0].tobytes()
    assert values[1] is not array


@pytest.mark.parametrize("datum", ["initial_h", "dirichlet_h", "pumping", "h2"])
def test_aquifer_wrong_length_data_array_rejected(datum):
    n = _aquifer_datum_length(datum)
    with pytest.raises(InvalidParameterError, match=rf"expected \({n},\)"):
        _aquifer_datum_values(datum, np.full(n + 1, VALUE))


def test_keulegan_well_is_the_point_density():
    grid = Grid((16, 6), (1.0, 0.4))
    spec = aq.keulegan_scenario(grid, pump_rate=0.05, tilt=0.4, well_position=[0.3, 0.1])
    assert spec.pumping.tobytes() == point_density(grid, [0.3, 0.1], 0.05).tobytes()
    centered = aq.keulegan_scenario(grid, pump_rate=0.05, tilt=0.4)
    assert centered.pumping.tobytes() == point_density(grid, [0.5, 0.2], 0.05).tobytes()
    assert aq.keulegan_scenario(grid, pump_rate=0.0).pumping is None
    with pytest.raises(InvalidParameterError, match="position"):
        aq.keulegan_scenario(grid, pump_rate=0.0, well_position=[0.3, 0.5])


MIXED_GRID = Grid((16,), (1.0,))
MIXED_CFG = StepperConfig(dt=1e-3, t_end=3e-3)


@pytest.mark.parametrize("callable_datum", ["initial_h", "initial_h1"])
def test_mixed_form_initial_data_run_like_scalar_data(callable_datum):
    # a callable head with a per-cell array for the other one: each takes its own trace
    plain = dirichlet_spec(MIXED_GRID)
    value = getattr(plain, callable_datum)
    other = "initial_h1" if callable_datum == "initial_h" else "initial_h"
    mixed = dataclasses.replace(plain, **{callable_datum: lambda p: value + 0.0 * p[:, 0],
                                          other: np.full(16, getattr(plain, other))})
    for runner in (lambda s: aq.run_penalized(s, MIXED_GRID, MIXED_CFG)[0],
                   lambda s: aq.run_confined_aquifer(s, MIXED_GRID, MIXED_CFG)):
        expected, got = runner(plain), runner(mixed)
        assert got.snapshots.tobytes() == expected.snapshots.tobytes()


def test_mixed_form_traces_checked_in_their_own_form():
    # a sloped callable head matches its sloped trace at the face centers, not at the
    # boundary cells; the per-cell h1 is read at the boundary cells
    slope = lambda x: 0.5 + 0.1 * (x - 0.5)
    spec = dataclasses.replace(dirichlet_spec(MIXED_GRID), initial_h=lambda p: slope(p[:, 0]),
                               initial_h1=np.full(16, 0.1),
                               dirichlet_h=lambda t, p: slope(p[:, 0]))
    spec.validate(MIXED_GRID)
    assert validate_spec(aq.to_cross_spec(spec, MIXED_GRID), MIXED_GRID).ok
    aq.run_penalized(spec, MIXED_GRID, MIXED_CFG)

    h1 = np.full(16, 0.1)
    h1[-1] = 0.2  # the right boundary cell misses the trace 0.1
    bad = dataclasses.replace(spec, initial_h1=h1)
    with pytest.raises(InvalidParameterError, match="initial data incompatible with boundary traces"):
        bad.validate(MIXED_GRID)
    report = validate_spec(aq.to_cross_spec(bad, MIXED_GRID), MIXED_GRID)
    assert "compatibility" in report.codes()


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
    assert np.max(np.abs(result.snapshots[-1, 0] - 0.5)) < 1e-9
    assert np.all(conf.violation == 0.0)


def test_keulegan_rejects_bad_tilt():
    grid = Grid((32,), (1.0,))
    with pytest.raises(InvalidParameterError):
        aq.keulegan_scenario(grid, tilt=1.2)  # h range leaves [h1, h2]


@pytest.mark.parametrize("run", [aq.run_penalized, aq.run_confined_aquifer])
def test_non_finite_delta_rejected_before_any_solve(run):
    # a run with delta = inf once stopped at the first solve as a singular factorization
    grid = Grid((16,), (1.0,))
    spec = aq.keulegan_scenario(grid, delta=math.inf)
    with pytest.raises(InvalidParameterError, match="delta"):
        run(spec, grid, StepperConfig(dt=1e-3, t_end=2e-3))


def test_keulegan_two_dimensional_box():
    grid = Grid((16, 6), (1.0, 0.4))
    spec = aq.keulegan_scenario(grid, pump_rate=0.01, tilt=0.4)
    result, conf = aq.run_penalized(spec, grid, StepperConfig(dt=5e-3, t_end=5e-2))
    h, h1 = result.snapshots[-1]
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
    assert np.all(np.isfinite(result.snapshots[-1]))
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
    h, phi = result.snapshots[-1]
    assert np.max(np.abs(h - 0.5)) < 1e-9
    assert np.max(np.abs(phi - 0.0)) < 1e-9


def test_confined_differs_from_penalized_under_pumping(grid_48):
    spec = aq.keulegan_scenario(grid_48, pump_rate=0.05, tilt=0.2)
    cfg = StepperConfig(dt=2.5e-3, t_end=0.2, snapshot_every=20)
    pen, _ = aq.run_penalized(spec, grid_48, cfg)
    conf = aq.run_confined_aquifer(spec, grid_48, cfg)
    gap = np.max(np.abs(pen.snapshots[-1, 0] - conf.snapshots[-1, 0]))
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


def test_strong_well_confined_run_converges_every_step():
    # plain Picard sweeps converge 1 of these 10 steps in 751 preconditioner
    # applications; the Anderson-mixed lag converges all 10, in 328
    grid = Grid((32, 32), (1.0, 1.0))
    spec = dirichlet_spec(grid, pumping=point_density(grid, None, 2.0), epsilon=1e-4)
    stats = aq.run_confined_aquifer(spec, grid, StepperConfig(dt=1e-3, t_end=1e-2)).solver_stats
    assert len(stats) == 10
    assert all(st["picard_converged"] for st in stats)
    assert sum(st["lin_iters"] for st in stats) <= 751


def test_confined_failure_keeps_partial(grid_48, singular_confined_step):
    # the head solve at t = 0 succeeds; the first coupled step is singular
    spec = aq.keulegan_scenario(grid_48, pump_rate=0.05, tilt=0.4)
    cfg = StepperConfig(dt=3e-3, t_end=9e-3, lin_tol=1e-12)
    with pytest.raises(SolverFailure) as info:
        aq.run_confined_aquifer(spec, grid_48, cfg)
    assert info.value.time == pytest.approx(3e-3)
    assert info.value.partial is not None
    assert list(info.value.partial.times) == [0.0]


def test_initial_head_failure_is_an_elliptic_solve_error_at_time_zero(grid_48,
                                                                     failing_initial_head):
    spec = aq.keulegan_scenario(grid_48, pump_rate=0.05, tilt=0.4)
    with pytest.raises(aq.EllipticSolveError) as info:
        aq.run_confined_aquifer(spec, grid_48, StepperConfig(dt=3e-3, t_end=9e-3))
    assert info.value.time == 0.0
    assert info.value.residual == 0.5
    assert info.value.partial is None
    assert isinstance(info.value.__cause__, SolverFailure)


def counting_dirichlet_spec(grid, calls):
    """Dirichlet spec whose traces and pumping record the time of every call by name."""
    def counting(name, value):
        def datum(t, points):
            calls[name].append(t)
            return value + 0.0 * points[:, 0]
        return datum
    return dataclasses.replace(dirichlet_spec(grid), dirichlet_h=counting("h", 0.5),
                               dirichlet_h1=counting("h1", 0.1),
                               dirichlet_phi=counting("phi", 0.0),
                               pumping=counting("pump", 0.05))


@pytest.mark.parametrize("variant", ["penalized", "confined"])
def test_step_data_evaluated_once_per_step(grid_48, variant):
    # 5 steps of 3 sweeps; the data at t > 0 come from the steps only
    calls = {"h": [], "h1": [], "phi": [], "pump": []}
    spec = counting_dirichlet_spec(grid_48, calls)
    cfg = StepperConfig(dt=1e-3, t_end=5e-3, picard_max=3, picard_tol=1e-300, lin_tol=1e-13)
    run = aq.run_penalized if variant == "penalized" else aq.run_confined_aquifer
    result = run(spec, grid_48, cfg)
    result = result[0] if variant == "penalized" else result
    assert [st["picard_sweeps"] for st in result.solver_stats] == [3] * 5
    steps = [t + cfg.dt for t in result.times[:-1]]
    later = {name: [t for t in ts if t > 0.0] for name, ts in calls.items()}
    # the pumping is a source, taken at the start of each step (t = 0 included)
    assert calls["pump"].count(0.0) == (1 if variant == "penalized" else 2)
    assert later["pump"] == list(result.times[1:-1])
    if variant == "confined":
        # the head trace and the salt trace, which maps both head traces
        assert later == {"h": steps, "h1": steps, "phi": steps, "pump": later["pump"]}
    else:
        # mapped once per species by the thickness spec and once for the drain
        assert sorted(later["h"]) == sorted(later["h1"]) == sorted(steps * 3)
        assert later["phi"] == []


@pytest.mark.parametrize("variant", ["penalized", "confined"])
def test_depth_read_once_per_step(grid_48, monkeypatch, variant):
    # h2 is run-constant data: no sweep reads it, so a run of 3 sweeps a step
    # reads it as often as a run of 1 sweep a step
    calls = []
    h2_cells = aq.AquiferSpec.h2_cells

    def counting(self, grid):
        calls.append(grid)
        return h2_cells(self, grid)

    monkeypatch.setattr(aq.AquiferSpec, "h2_cells", counting)
    spec = dirichlet_spec(grid_48, pumping=0.05)
    run = aq.run_penalized if variant == "penalized" else aq.run_confined_aquifer
    counts = []
    for picard_max in (1, 3):
        calls.clear()
        cfg = StepperConfig(dt=1e-3, t_end=5e-3, picard_max=picard_max, picard_tol=1e-300,
                            lin_tol=1e-13)
        result = run(spec, grid_48, cfg)
        result = result[0] if variant == "penalized" else result
        assert [st["picard_sweeps"] for st in result.solver_stats] == [picard_max] * 5
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("dims", [(40, 40), (2048,)], ids=["2d-40x40", "1d-2048"])
def test_initial_head_takes_its_holder_above_the_2d_cutoff_and_the_band_in_1d(monkeypatch,
                                                                              dims):
    # the one elliptic solve of a run passes its own one-species holder, which only a 2D
    # head above the cutoff uses; a 1D head of any length is one banded LU
    grid = Grid(dims, (1.0,) * len(dims))
    assert grid.n_cells > fv.DIRECT_MAX_UNKNOWNS[2]
    spec = dirichlet_spec(grid, pumping=0.05)
    factorizations = count_superlu(monkeypatch)
    holders, applications = [], []
    solve, rebuild = fv.solve_sparse, fv.BlockFactors.rebuild

    def counting_solve(*args, **kwargs):
        out = solve(*args, **kwargs)
        applications.append(out[2])
        return out

    def counting_rebuild(factors, a):
        holders.append(factors)
        return rebuild(factors, a)

    monkeypatch.setattr(fv, "solve_sparse", counting_solve)
    monkeypatch.setattr(fv.BlockFactors, "rebuild", counting_rebuild)
    w0 = spec.h2_cells(grid) - spec.initial_values(grid)[0]
    phi = aq._initial_head(spec, grid, w0, StepperConfig(dt=1e-3, t_end=1e-3))
    # one solve, which takes GMRES exactly when it spends applications of a holder's inverse
    assert len(applications) == 1
    if grid.ndim == 2:
        assert applications[0] > 0
        assert holders and all(h.m == 1 and h.grid is grid for h in holders)
    else:
        assert applications == [0] and holders == [] and factorizations == []
    assert np.all(np.isfinite(phi)) and np.any(phi != 0.0)


def _well_1d_case():
    grid = Grid((48,), (1.0,))
    return aq.keulegan_scenario(grid, pump_rate=0.05, tilt=0.4), grid


def _per_cell_depth_2d_case():
    grid = Grid((40, 40), (1.0, 1.0))
    assert grid.n_cells > fv.DIRECT_MAX_UNKNOWNS[2]
    h2 = 1.0 + 0.2 * grid.cell_centers()[:, 0] * grid.cell_centers()[:, 1]
    spec = aq.AquiferSpec(h2=h2, delta=0.3, alpha=0.025, epsilon=1e-2,
                          initial_h=lambda p: 0.5 + 0.1 * p[:, 0], initial_h1=0.1,
                          domain=grid.extents, dirichlet_h=lambda t, p: 0.5 + 0.1 * p[:, 0],
                          dirichlet_h1=0.1, pumping=point_density(grid, [0.3, 0.6], 0.05))
    return spec, grid


@pytest.mark.parametrize("case", [_well_1d_case, _per_cell_depth_2d_case])
def test_initial_head_solves_the_head_rows_of_the_first_sweep(case):
    # with w = w0 known, the head rows of the t = 0 confined system give phi
    import scipy.sparse.linalg as spla
    spec, grid = case()
    cfg = StepperConfig(dt=1e-3, t_end=1e-3)
    w0 = spec.h2_cells(grid) - spec.initial_values(grid)[0]
    phi = aq._initial_head(spec, grid, w0, cfg)
    u0 = np.stack([w0, np.zeros(grid.n_cells)])
    builder = aq._assemble_confined(spec, grid, u0, 0.0, 0.0, cfg)(u0)
    a, b, n = builder.matrix(), builder.rhs, grid.n_cells
    expected = spla.spsolve(a[n:, n:].tocsc(), b[n:] - a[n:, :n] @ w0)
    assert np.any(expected != 0.0)
    assert np.max(np.abs(phi - expected)) <= 10 * cfg.lin_tol * np.max(np.abs(expected))


@pytest.mark.parametrize("pumping", [None, 0.05])
def test_confined_variant_rejects_unit_contrast(pumping):
    # at alpha = 1 the head coefficient (1 - alpha) h2 vanishes; the penalized variant runs
    grid = Grid((32,), (1.0,))
    well = None if pumping is None else point_density(grid, [0.5], pumping)
    spec = aq.AquiferSpec(h2=2.0, delta=1.0, alpha=1.0, epsilon=1.0, initial_h=1.0,
                          initial_h1=0.0, domain=grid.extents, dirichlet_h=1.0,
                          dirichlet_h1=0.0, pumping=well)
    cfg = StepperConfig(dt=1e-3, t_end=3e-3)
    with pytest.raises(InvalidParameterError, match="alpha"):
        aq.run_confined_aquifer(spec, grid, cfg)
    result, _ = aq.run_penalized(spec, grid, cfg)
    assert np.all(np.isfinite(result.snapshots[-1]))


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
    monkeypatch.setattr(fv, "DIRECT_MAX_UNKNOWNS", {1: 0, 2: 0})
    gmres, _ = aq.run_penalized(spec, grid_48, cfg)
    assert all(st["lin_iters"] > 0 for st in gmres.solver_stats)
    assert len(gmres.snapshots) == len(direct.snapshots)
    for sg, sd in zip(gmres.snapshots, direct.snapshots):
        rel = np.max(np.abs(sg - sd)) / np.max(np.abs(sd))
        assert rel <= 10 * lin_tol


def test_penalized_block_gmres_run_agrees_with_direct_run_on_transform(grid_48, monkeypatch,
                                                                        transform_everywhere):
    # the Dirichlet (u1, s) blocks in 1D, the drain on the s block
    test_penalized_block_gmres_run_agrees_with_direct_run(grid_48, monkeypatch)


@pytest.mark.parametrize("n", [256, 1024])
def test_small_epsilon_penalized_run_converges_on_long_1d_grids(n):
    # a tolerance rescaled by epsilon fell below the banded LU's rounding floor from 256 cells
    grid = Grid((n,), (1.0,))
    spec = aq.keulegan_scenario(grid, pump_rate=0.05, tilt=0.4, epsilon=1e-4)
    result, _ = aq.run_penalized(spec, grid, StepperConfig(dt=1e-3, t_end=1e-2))
    assert [st["picard_converged"] for st in result.solver_stats] == [True] * 10


@pytest.mark.parametrize("dims", [(32,), (24, 24)], ids=["1d-32", "2d-24x24"])
def test_penalized_solves_take_the_run_lin_tol(monkeypatch, dims):
    # the banded path in 1D and the block-GMRES path on 24^2, at a small epsilon
    tols = []
    solve = fv.solve_sparse

    def spy(a, b, tol, *args, **kwargs):
        tols.append(tol)
        return solve(a, b, tol, *args, **kwargs)
    monkeypatch.setattr(fv, "solve_sparse", spy)
    grid = Grid(dims, (1.0,) * len(dims))
    spec = aq.keulegan_scenario(grid, pump_rate=0.05, tilt=0.4, epsilon=1e-4)
    cfg = StepperConfig(dt=1e-3, t_end=3e-3)
    aq.run_penalized(spec, grid, cfg)
    assert tols and set(tols) == {cfg.lin_tol}


@pytest.mark.parametrize("variant", ["penalized", "confined"])
def test_1d_runs_take_direct_path(grid_1d, variant, monkeypatch):
    # every direct solve, the confined run's initial head included, is one banded LU of
    # a builder matrix: a matrix() that lost its band would fall back to SuperLU
    factorizations = count_superlu(monkeypatch)
    spec = aq.keulegan_scenario(grid_1d, pump_rate=0.05, tilt=0.45)
    cfg = StepperConfig(dt=3e-3, t_end=15e-3)
    result = (aq.run_penalized(spec, grid_1d, cfg)[0] if variant == "penalized"
              else aq.run_confined_aquifer(spec, grid_1d, cfg))
    assert all(st["lin_iters"] == 0 for st in result.solver_stats)
    assert factorizations == []


def test_2d_8x8_simulate_takes_banded_path_and_24x24_its_block_factor(monkeypatch):
    factorizations = count_superlu(monkeypatch)
    spec = coupled_spec_2d()
    cfg = StepperConfig(dt=1e-3, t_end=6e-3)
    result = solver.run(spec, Grid((8, 8), (1.0, 1.0)), cfg)
    assert all(st["lin_iters"] == 0 for st in result.solver_stats)
    assert factorizations == []
    # 2 * 24^2 unknowns take GMRES, preconditioned by one SuperLU factor of the block diagonal
    result = solver.run(spec, Grid((24, 24), (1.0, 1.0)), cfg)
    assert all(st["lin_iters"] > 0 for st in result.solver_stats)
    assert factorizations and set(factorizations) == {(2 * 24 * 24,) * 2}


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


def _penalized_failing_at(monkeypatch, failing):
    """Stand in for run_penalized: a violation eps**1.5, and a SolverFailure at each eps in
    ``failing``, which is returned so that a test can check what is raised."""
    errors = {e: SolverFailure(f"stalled at epsilon {e}") for e in failing}

    def run_penalized(spec, grid, cfg):
        if spec.epsilon in errors:
            raise errors[spec.epsilon]
        return None, aq.ConfinementReport(np.zeros(1), np.full(1, spec.epsilon ** 1.5),
                                          np.zeros(1), np.zeros(1))

    monkeypatch.setattr(aq, "run_penalized", run_penalized)
    return errors


def test_sweep_keeps_the_rows_of_failed_epsilons(grid_48, monkeypatch):
    _penalized_failing_at(monkeypatch, [1e-2])
    spec = dirichlet_spec(grid_48)
    report = aq.epsilon_sweep(spec, grid_48, StepperConfig(dt=2e-3, t_end=1e-2),
                              [1e-1, 1e-2, 1e-3])
    assert [e["epsilon"] for e in report.entries] == [1e-1, 1e-2, 1e-3]
    assert [e["error"] for e in report.entries] == [None, "stalled at epsilon 0.01", None]
    assert math.isnan(report.entries[1]["violation"]) and math.isnan(report.entries[1]["residual"])
    assert report.violations() == pytest.approx([1e-1 ** 1.5, 1e-3 ** 1.5])
    # the fit runs over the two successful entries only
    assert report.fit_exponent == pytest.approx(1.5)


def test_sweep_reraises_the_first_failure_when_every_epsilon_fails(grid_48, monkeypatch):
    errors = _penalized_failing_at(monkeypatch, [1e-1, 1e-2])
    spec = dirichlet_spec(grid_48)
    with pytest.raises(SolverFailure) as info:
        aq.epsilon_sweep(spec, grid_48, StepperConfig(dt=2e-3, t_end=1e-2), [1e-1, 1e-2])
    assert info.value is errors[1e-1]


def test_drain_supported_where_table_vanishes(grid_48):
    # orthogonality h1 * Q -> 0: cells where the water table is clearly
    # positive (h1 > 0.01 h2) must carry a negligible share of the residual
    from dataclasses import replace
    spec = replace(constraint_active_spec(grid_48), epsilon=1e-3)
    cfg = StepperConfig(dt=2e-3, t_end=0.3, snapshot_every=50)
    result, conf = aq.run_penalized(spec, grid_48, cfg)
    h, h1 = result.snapshots[-1]
    q_cells = fv.cell_average(fv.face_table(grid_48),
                              np.abs(aq.penalty_face_flux(spec, grid_48, h, h1)))
    q_mag = np.sqrt(np.sum(q_cells ** 2, axis=0))
    contrib = np.abs(h1) * q_mag * grid_48.cell_volume
    total = contrib.sum()
    assert total > 0.0
    share = contrib[h1 > 0.01 * 1.0].sum() / total
    assert share <= 0.05
