import math

import numpy as np
import pytest
from scipy.integrate import quad

from crossdiff import diagnostics as diag
from crossdiff.conditions import degiorgi_budget
from crossdiff.model import Grid, InvalidParameterError
from crossdiff.solver import SimulationResult, StepperConfig, run

from conftest import coupled_spec_2d


def fake_result(snapshots, times) -> SimulationResult:
    """Wrap raw (m, n_cells) snapshots at ``times`` into a result (series filled consistently)."""
    snapshots = np.array(snapshots, dtype=float)
    times = np.array(times, dtype=float)
    m = snapshots.shape[1]
    minmax = np.zeros((m, len(times), 3))
    mass = np.zeros((m, len(times)))
    for k, u in enumerate(snapshots):
        minmax[:, k, 0] = times[k]
        minmax[:, k, 1] = u.min(axis=1)
        minmax[:, k, 2] = u.max(axis=1)
    dt = float(times[1] - times[0]) if len(times) > 1 else 1.0
    return SimulationResult(snapshots, times, times, minmax, mass,
                            np.zeros((m, max(len(times) - 1, 0))),
                            np.zeros((m, max(len(times) - 1, 0))),
                            [], dt)


@pytest.fixture(scope="module")
def stored_run(grid_12):
    spec = coupled_spec_2d(ell=1.0)
    cfg = StepperConfig(dt=1e-3, t_end=0.02, snapshot_every=4)
    return spec, run(spec, grid_12, cfg)


# ---------------------------------------------------------------------------
# level-set measures
# ---------------------------------------------------------------------------

def test_level_set_worked_example():
    grid = Grid((4,), (1.0,))
    vals = np.array([[0.1, 0.5, 0.9, 1.3]])
    result = fake_result([vals, vals], [0.0, 1.0])
    # strict inequality: the 0.5 entry is excluded
    assert diag.level_set_measure(result, grid, 0, 0.5) == 0.5
    assert diag.level_set_measure(result, grid, 0, 0.0) == 1.0   # full measure
    assert diag.level_set_measure(result, grid, 0, 1.3) == 0.0   # empty set


def test_level_set_extremes(grid_12, stored_run):
    _, result = stored_run
    u_min = float(result.snapshots.min())
    u_max = float(result.snapshots.max())
    total = result.snapshot_times[-1] * grid_12.measure
    full = diag.level_set_measure(result, grid_12, 0, u_min - 1.0)
    assert full == pytest.approx(total, rel=1e-12)
    assert diag.level_set_measure(result, grid_12, 0, u_max) == 0.0


def test_level_set_equals_brute_force(grid_12, stored_run):
    _, result = stored_run
    vol = grid_12.cell_volume
    rng = np.random.default_rng(5)
    for species in (0, 1):
        levels = rng.uniform(0.0, 1.0, size=8)
        for k in levels:
            total = 0.0
            snaps, t = result.snapshots, result.snapshot_times
            for s in range(len(snaps) - 1):
                slab = t[s + 1] - t[s]
                count = 0
                for c in range(grid_12.n_cells):
                    if snaps[s][species][c] > k:
                        count += 1
                total += slab * vol * count
            assert diag.level_set_measure(result, grid_12, species, float(k)) == total
        # one call counts every level, each as its scalar call does
        assert np.array_equal(diag.level_set_measure(result, grid_12, species, levels),
                              [diag.level_set_measure(result, grid_12, species, float(k))
                               for k in levels])


def test_level_profile_monotone(grid_12, stored_run):
    _, result = stored_run
    levels = np.linspace(0.0, 1.0, 50)
    profile = diag.level_set_profile(result, grid_12, levels)
    for i in range(2):
        diffs = np.diff(profile.measures[i])
        assert np.all(diffs <= 0.0)
    text = profile.to_csv()
    assert text.startswith("level,mu_1,mu_2")


# ---------------------------------------------------------------------------
# level iteration trace
# ---------------------------------------------------------------------------

def _budget(s=6.0):
    return degiorgi_budget(N=2, s=s, ell0=1.0, m_factor=2.0, M_s=1.0,
                           K_offdiag_plus=0.5, K_diag_minus=1.0, delta_i=1.0,
                           ell=1.0, sobolev_beta=1.0)


def test_trace_level_sequence(grid_12, stored_run):
    _, result = stored_run
    trace = diag.degiorgi_trace(result, grid_12, 0, ell0=1.0, m_factor=2.0,
                                m_prime=0.5, budget=_budget(), n_max=6)
    assert trace.k_n[0] == 1.0 and trace.k_n[1] == 2.0 and trace.k_n[2] == 2.5
    assert trace.n0 == 1
    increments = np.diff(trace.k_n)
    expected = 2.0 * 1.0 * 0.5 ** (np.arange(1, 7))
    assert np.all(increments == expected)


def test_trace_bounded_run_vanishes(grid_12):
    vals = np.full((2, grid_12.n_cells), 0.3)
    result = fake_result([vals] * 3, [0.0, 0.5, 1.0])
    trace = diag.degiorgi_trace(result, grid_12, 0, ell0=0.5, m_factor=2.0,
                                m_prime=0.5, budget=_budget(), n_max=8)
    assert np.all(trace.v_n[trace.n0:] == 0.0)
    assert np.all(trace.holds)


def test_trace_decreasing_until_zero(grid_12, stored_run):
    _, result = stored_run
    ell0 = 0.4 * float(result.snapshots[0, 0].max())
    trace = diag.degiorgi_trace(result, grid_12, 0, ell0=ell0, m_factor=2.0,
                                m_prime=0.5, budget=_budget(), n_max=12)
    v = trace.v_n
    assert v[0] > 0.0
    k_zero = int(np.argmax(v == 0.0))
    assert v[k_zero] == 0.0
    for a, b in zip(v[:k_zero], v[1:k_zero + 1]):
        assert b < a
    assert np.all(v[k_zero:] == 0.0)


def test_trace_rejects_infeasible_budget(grid_12, stored_run):
    _, result = stored_run
    with pytest.raises(InvalidParameterError):
        diag.degiorgi_trace(result, grid_12, 0, ell0=1.0, m_factor=2.0,
                            m_prime=0.5, budget=_budget(s=4.0))


@pytest.mark.parametrize("m_prime, n_max", [(0.5, 0), (0.3, 1), (0.01, 6)])
def test_trace_rejects_levels_short_of_m_ell0(grid_12, stored_run, m_prime, n_max):
    # k_n reaches m_factor * ell0 from n = ceil(-log2(m_prime)) on; one level more traces
    _, result = stored_run
    with pytest.raises(InvalidParameterError, match="n_max"):
        diag.degiorgi_trace(result, grid_12, 0, ell0=1.0, m_factor=2.0,
                            m_prime=m_prime, budget=_budget(), n_max=n_max)
    trace = diag.degiorgi_trace(result, grid_12, 0, ell0=1.0, m_factor=2.0,
                                m_prime=m_prime, budget=_budget(), n_max=n_max + 1)
    assert trace.n0 == n_max + 1 == math.ceil(-math.log2(m_prime))


# ---------------------------------------------------------------------------
# bound check
# ---------------------------------------------------------------------------

def test_bound_check_constant(grid_12):
    vals = np.full((1, grid_12.n_cells), 0.5)
    result = fake_result([vals, vals], [0.0, 1.0])
    report = diag.bound_check(result, 0.0, 1.0)
    assert report.species[0].lo_margin == pytest.approx(0.5)
    assert report.species[0].hi_margin == pytest.approx(0.5)


def test_bound_check_reports_negative_dip(grid_12):
    spec = coupled_spec_2d()
    dip = -0.07

    def dipped(points):
        vals = np.sin(np.pi * points[:, 0]) * np.sin(np.pi * points[:, 1])
        vals[0] = dip
        return vals

    spec.initial = (dipped, spec.initial[1])
    result = run(spec, grid_12, StepperConfig(dt=1e-3, t_end=5e-3), validate=False)
    report = diag.bound_check(result, 0.0, math.inf)
    assert report.species[0].lo_margin == pytest.approx(dip, abs=1e-12)
    assert report.species[0].min_time == 0.0


def test_bound_check_positivity(grid_12, stored_run):
    _, result = stored_run
    report = diag.bound_check(result, 0.0, math.inf)
    assert report.worst_lo_margin >= -1e-10


# ---------------------------------------------------------------------------
# gradient norms
# ---------------------------------------------------------------------------

def test_grad_norm_constant(grid_12):
    vals = np.full((1, grid_12.n_cells), 0.7)
    result = fake_result([vals, vals], [0.0, 1.0])
    assert diag.discrete_grad_norm(result, grid_12, 0, 2.0) == 0.0


@pytest.mark.parametrize("s", [1.0, 2.0, 4.0])
def test_grad_norm_linear_field(s):
    grid = Grid((32,), (1.0,))
    x = grid.cell_centers()[:, 0]
    result = fake_result([np.stack([x, 2.0 * x])] * 2, [0.0, 1.0])
    assert diag.discrete_grad_norm(result, grid, 0, s) == pytest.approx(1.0, rel=1e-12)
    assert diag.discrete_grad_norm(result, grid, 1, s) == pytest.approx(2.0, rel=1e-12)


def test_grad_norm_sine_oracle():
    s = 3.0
    errs = []
    for n in (64, 128):
        grid = Grid((n,), (1.0,))
        x = grid.cell_centers()[:, 0]
        u = np.sin(np.pi * x)
        result = fake_result([u[None, :], u[None, :]], [0.0, 1.0])
        got = diag.discrete_grad_norm(result, grid, 0, s)
        exact = quad(lambda t: np.abs(np.pi * np.cos(np.pi * t)) ** s, 0.0, 1.0)[0] ** (1.0 / s)
        errs.append(abs(got - exact) / exact)
    assert errs[0] < 5e-3
    assert errs[1] < errs[0]


def test_one_gradient_pass_gives_each_norm_bit_for_bit(grid_12, stored_run):
    # the De Giorgi diagnostic takes M_s and beta's gradient term from one pass
    _, result = stored_run
    norms = diag.discrete_grad_norms(result, grid_12, 0, (6.0, 2.0))
    assert norms == tuple(diag.discrete_grad_norm(result, grid_12, 0, s) for s in (6.0, 2.0))
    with pytest.raises(InvalidParameterError):
        diag.discrete_grad_norms(result, grid_12, 0, (2.0, 0.5))


def test_empirical_interpolation_constant(grid_12, stored_run):
    _, result = stored_run
    grad_l2 = diag.discrete_grad_norm(result, grid_12, 0, 2.0)
    beta = diag.empirical_interpolation_constant(result, grid_12, 0, 4.0, 4.0, grad_l2)
    assert beta > 0.0
    zero = fake_result(np.zeros((2, 1, grid_12.n_cells)), [0.0, 1.0])
    assert diag.empirical_interpolation_constant(zero, grid_12, 0, 4.0, 4.0, 0.0) == 0.0


# ---------------------------------------------------------------------------
# twin-run probe
# ---------------------------------------------------------------------------

def _probe_setup(grid, amplitude=1e-3, ell=1.0):
    spec = coupled_spec_2d(ell=ell)
    pert, cells = diag.disc_perturbation(grid, 2, (0.5, 0.5), 0.2, amplitude)
    cfg = StepperConfig(dt=1e-3, t_end=8e-3, lin_tol=1e-12, snapshot_every=2)
    return spec, pert, cells, cfg


def test_disc_perturbation_support(grid_12):
    pert, cells = diag.disc_perturbation(grid_12, 2, (0.5, 0.5), 0.2, 1e-3)
    outside = np.setdiff1d(np.arange(grid_12.n_cells), cells)
    assert np.all(pert[:, outside] == 0.0)
    ring = diag._set_boundary_cells(grid_12, cells)
    assert np.all(pert[:, ring] == 0.0)
    assert 0.5e-3 < pert.max() <= 1e-3


def test_probe_zero_perturbation(grid_12):
    spec, pert, cells, cfg = _probe_setup(grid_12)
    zero = np.zeros_like(pert)
    report = diag.uniqueness_probe(spec, grid_12, cfg, zero, cells)
    assert np.all(report.v_norms == 0.0)
    assert report.amplification == 0.0


def test_probe_rejects_misplaced_support(grid_12):
    spec, pert, cells, cfg = _probe_setup(grid_12)
    bad = pert.copy()
    bad[:, 0] = 1.0  # corner cell is far outside the disc
    with pytest.raises(InvalidParameterError):
        diag.uniqueness_probe(spec, grid_12, cfg, bad, cells)


def test_probe_heat_control_contracts(grid_12):
    spec, pert, cells, cfg = _probe_setup(grid_12, ell=0.0)
    report = diag.uniqueness_probe(spec, grid_12, cfg, pert, cells)
    assert report.amplification <= 1.0 + 1e-8


def test_probe_reports_margins_and_energies(grid_12):
    spec, pert, cells, cfg = _probe_setup(grid_12)
    report = diag.uniqueness_probe(spec, grid_12, cfg, pert, cells)
    assert report.amplification <= 1.0 + 1e-8
    assert np.all(report.grad_energies >= 0.0)
    assert np.all(report.cross_energies >= 0.0)
    assert np.all(report.margins > 0.0)
    assert report.cross_energies[0] <= spec.ell * report.grad_energies[0] + 1e-18


def test_probe_swap_symmetry(grid_12):
    spec, pert, cells, cfg = _probe_setup(grid_12)
    fwd = diag.uniqueness_probe(spec, grid_12, cfg, pert, cells)

    pts = grid_12.cell_centers()
    base = np.stack([spec.initial_values(i, pts) for i in range(2)])
    spec_swapped = coupled_spec_2d(ell=1.0)
    spec_swapped.initial = tuple(base[i] + pert[i] for i in range(2))
    bwd = diag.uniqueness_probe(spec_swapped, grid_12, cfg, -pert, cells)

    assert np.allclose(fwd.v_norms, bwd.v_norms, rtol=1e-9, atol=1e-15)
    assert np.allclose(fwd.grad_energies, bwd.grad_energies, rtol=1e-8)
    assert np.allclose(fwd.cross_energies, bwd.cross_energies, rtol=1e-8)
    assert fwd.amplification == pytest.approx(bwd.amplification, rel=1e-8)


def test_probe_csv_shape(grid_12):
    spec, pert, cells, cfg = _probe_setup(grid_12)
    report = diag.uniqueness_probe(spec, grid_12, cfg, pert, cells)
    text = report.to_csv()
    assert "amplification," in text
    assert text.startswith("t,v_norm_1,v_norm_2")
