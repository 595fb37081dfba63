"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import json
import math
import time

import numpy as np
import pytest

from crossdiff import aquifer as aq
from crossdiff import diagnostics as diag
from crossdiff.cli import main
from crossdiff.conditions import (check_aquifer_admissibility, check_existence,
                                  check_regularity, degiorgi_budget,
                                  meyers_constants)
from crossdiff.model import CrossTensor, Grid, ModelSpec
from crossdiff.solver import StepperConfig, convergence_study, run

ISO = CrossTensor.isotropic


def report(number: int, name: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def product_sine(amplitude):
    def f(points):
        out = np.full(points.shape[0], amplitude)
        for d in range(points.shape[1]):
            out = out * np.sin(np.pi * points[:, d])
        return out
    return f


def positivity_spec(ell=1.0):
    k = [[ISO(1.0, 2), ISO(1.0, 2)], [ISO(1.0, 2), ISO(1.0, 2)]]
    return ModelSpec(m=2, delta=[1.0, 1.0], K=k, ell=ell, domain=(1.0, 1.0),
                     initial=[product_sine(1.0), product_sine(0.8)],
                     dirichlet=[0.0, 0.0])


@pytest.fixture(scope="module")
def criterion1_run():
    grid = Grid((20, 20), (1.0, 1.0))
    spec = positivity_spec()
    cfg = StepperConfig(dt=1e-3, t_end=0.1, snapshot_every=10)
    t0 = time.perf_counter()
    result = run(spec, grid, cfg)
    elapsed = time.perf_counter() - t0
    return spec, grid, cfg, result, elapsed


def test_criterion_1_positivity(criterion1_run):
    spec, grid, _, result, elapsed = criterion1_run
    existence = check_existence(spec)
    worst_min = float(result.minmax[:, :, 1].min())
    ok = (all(r.passed for r in existence)
          and worst_min >= -1e-10
          and elapsed <= 10.0)
    assert report(1, "positivity", ok), (worst_min, elapsed)


def test_criterion_2_truncation_bridge():
    grid = Grid((20, 20), (1.0, 1.0))
    spec = positivity_spec(ell=10.0)
    cfg = StepperConfig(dt=1e-3, t_end=0.05, snapshot_every=10, lin_tol=1e-11)
    t0 = time.perf_counter()
    res_trunc = run(spec, grid, cfg)
    res_raw = run(positivity_spec(ell=math.inf), grid, cfg)
    elapsed = time.perf_counter() - t0

    interior = res_trunc.minmax[:, :, 2].max() < spec.ell
    scale = float(np.max(np.abs(res_trunc.snapshots)))
    diff = float(np.max(np.abs(res_trunc.snapshots - res_raw.snapshots)))
    rel = diff / scale
    ok = interior and rel <= 1e-7 and elapsed <= 10.0
    assert report(2, "truncation bridge", ok), (interior, rel, elapsed)


def test_criterion_3_decoupled_oracle():
    def factory(_grid):
        return ModelSpec(m=1, delta=[1.0], K=[[ISO(1.0, 1)]], ell=0.0, domain=(1.0,),
                         initial=[lambda p: np.sin(np.pi * p[:, 0])], dirichlet=[0.0])

    def exact(t, pts):
        return (np.exp(-np.pi ** 2 * t) * np.sin(np.pi * pts[:, 0]))[None, :]

    grids = [Grid((n,), (1.0,)) for n in (8, 16, 32, 64)]
    dts = [2e-3 / 4 ** k for k in range(4)]
    t0 = time.perf_counter()
    rows = convergence_study(factory, exact, grids, dts, t_end=0.01,
                             manufacture=False)
    elapsed = time.perf_counter() - t0

    orders = [row["order_inf"] for row in rows[1:]]
    consistent = all(row["err_inf"] <= 5.0 * (row["h"] ** 2 + row["dt"]) for row in rows)
    ok = consistent and min(orders) >= 1.8 and elapsed <= 30.0
    assert report(3, "decoupled oracle", ok), (orders, elapsed)


def test_criterion_4_condition_arithmetic():
    checks = []

    def spec_for(k11, k12, delta2, ell):
        iso = ISO
        return ModelSpec(m=2, delta=(1.0, delta2),
                         K=[[iso(k11, 1), iso(k12, 1)], [iso(1.0, 1), iso(1.0, 1)]],
                         ell=ell, domain=(1.0,), initial=[0.0, 0.0], dirichlet=[0.0, 0.0])

    r = check_existence(spec_for(2.0, 1.0, 1.0, 4.0))[0]
    checks.append(r.lhs == 0.5 and r.rhs == 1.0 and r.passed)
    r = check_existence(spec_for(2.0, 1.0, 1.0, 16.0))[0]
    checks.append(r.lhs == 0.5 and r.rhs == 0.25 and not r.passed)
    checks.append(all(r.lhs == 1.0 and r.rhs == 4.0 and r.passed
                      for r in check_existence(spec_for(1.0, 1.0, 1.0, 1.0))))

    consts, k_r = meyers_constants(1.0, 1.0, True, 1.0)
    checks.append(consts.mu == 1.0 and k_r == 0.0)
    consts, k_r = meyers_constants(1.0, 2.0, True, 1.0)
    checks.append(consts.mu == 0.5 and k_r == 0.5)
    consts, k_r = meyers_constants(1.0, 2.0, False, 1.0)
    c = (4.0 - 1.0) / 2.0 + 0.1
    mu = (1.0 + c) / (2.0 + c)
    nu = math.sqrt(4.0 + c * c) / (2.0 + c)
    checks.append(consts.c == c and consts.mu == mu and consts.nu == nu
                  and k_r == 1.0 - mu + nu)
    checks.append(abs(consts.mu - 0.7222) < 1e-4 and abs(consts.nu - 0.7115) < 1e-4
                  and abs(k_r - 0.9892) < 1e-4)

    iso = ISO
    reg_spec = ModelSpec(m=2, delta=(1.0, 1.0),
                         K=[[iso(1.0, 1), iso(0.25, 1)], [iso(0.25, 1), iso(1.0, 1)]],
                         ell=1.0, domain=(1.0,), initial=[0.0, 0.0], dirichlet=[0.0, 0.0])
    checks.append(all(r.rhs == 0.5 and r.lhs == 0.25 and r.passed
                      for r in check_regularity(reg_spec)))
    reg_spec.K[0][1] = iso(0.75, 1)
    reg_spec.K[1][0] = iso(0.75, 1)
    checks.append(all(not r.passed for r in check_regularity(reg_spec)))

    infeasible = degiorgi_budget(N=2, s=4.0, ell0=1.0, m_factor=2.0, M_s=1.0,
                                 K_offdiag_plus=1.0, K_diag_minus=1.0, delta_i=1.0,
                                 ell=1.0, sobolev_beta=1.0)
    checks.append(infeasible.zeta == 0.0 and not infeasible.feasible
                  and math.isnan(infeasible.max_TOmega))
    unit = degiorgi_budget(N=2, s=6.0, ell0=1.0, m_factor=2.0, M_s=1.0,
                           K_offdiag_plus=1.0, K_diag_minus=1.0, delta_i=1.0,
                           ell=1.0, sobolev_beta=1.0)
    checks.append(abs(unit.c_i - math.sqrt(2.0)) < 1e-15)
    worked = degiorgi_budget(N=2, s=6.0, ell0=1.0, m_factor=2.0, M_s=1.0,
                             K_offdiag_plus=0.5, K_diag_minus=1.0, delta_i=1.0,
                             ell=1.0, sobolev_beta=1.0)
    checks.append(worked.c_i == 1.0
                  and abs(worked.max_TOmega - 2.0 ** -27) <= 1e-12 * 2.0 ** -27)

    adm = check_aquifer_admissibility(1.0, 0.3, 0.025)
    checks.append(abs(adm.lhs + 0.2) < 1e-15 and adm.passed)
    checks.append(not check_aquifer_admissibility(1.0, 0.1, 0.025).passed)
    checks.append(not check_aquifer_admissibility(1.0, 0.3, 1.5).passed)

    ok = all(checks)
    assert report(4, "condition arithmetic", ok), checks


def test_criterion_5_level_set_oracle(criterion1_run):
    _, grid, _, result, _ = criterion1_run
    vol = grid.cell_volume
    rng = np.random.default_rng(17)
    exact_matches = []
    for species in (0, 1):
        for k in rng.uniform(0.0, 1.0, size=6):
            brute = 0.0
            snaps, t = result.snapshots, result.snapshot_times
            for s in range(len(snaps) - 1):
                slab = t[s + 1] - t[s]
                count = 0
                for c in range(grid.n_cells):
                    if snaps[s][species][c] > k:
                        count += 1
                brute += slab * vol * count
            exact_matches.append(
                diag.level_set_measure(result, grid, species, float(k)) == brute)

    levels = np.linspace(0.0, 1.0, 50)
    profile = diag.level_set_profile(result, grid, levels)
    monotone = all(np.all(np.diff(profile.measures[i]) <= 0.0) for i in range(2))

    ok = all(exact_matches) and monotone
    assert report(5, "level-set oracle", ok)


def test_criterion_6_level_iteration_trace(criterion1_run):
    spec, grid, _, result, _ = criterion1_run
    ell0 = float(result.snapshots[0].max())
    budget = degiorgi_budget(N=2, s=6.0, ell0=ell0, m_factor=2.0, M_s=1.0,
                             K_offdiag_plus=1.0, K_diag_minus=1.0, delta_i=1.0,
                             ell=spec.ell, sobolev_beta=1.0)
    trace = diag.degiorgi_trace(result, grid, 0, ell0=ell0, m_factor=2.0,
                                m_prime=0.5, budget=budget, n_max=20)
    n = np.arange(21)
    k_expected = 2.0 * ell0 * (1.0 + 0.5 - 0.5 ** n)
    k_match = np.allclose(trace.k_n, k_expected, rtol=1e-15, atol=0.0)
    nonincreasing = np.all(np.diff(trace.v_n) <= 0.0)
    reaches_zero = np.any(trace.v_n == 0.0)
    first_zero = int(np.argmax(trace.v_n == 0.0)) if reaches_zero else 99
    ok = bool(k_match and trace.n0 == 1 and nonincreasing
              and reaches_zero and first_zero <= 20)
    assert report(6, "level iteration trace", ok), (trace.n0, trace.v_n[:4])


def test_criterion_7_keulegan():
    grid = Grid((64,), (1.0,))
    t0 = time.perf_counter()

    relax = aq.keulegan_scenario(grid, pump_rate=0.0, tilt=0.5)
    cfg = StepperConfig(dt=3e-3, t_end=1.5, snapshot_every=50)
    res_relax, _ = aq.run_penalized(relax, grid, cfg)
    slope0 = aq.interface_slope(res_relax.snapshots[0, 0], grid)
    slope_end = aq.interface_slope(res_relax.snapshots[-1, 0], grid)
    reduction = 1.0 - slope_end / slope0

    mass_u1 = res_relax.mass[0] - res_relax.mass[1]
    mass_drift = float(np.max(np.abs(mass_u1 - mass_u1[0])) / abs(mass_u1[0]))

    pumped = aq.keulegan_scenario(grid, pump_rate=0.05, tilt=0.5)
    res_pump, _ = aq.run_penalized(pumped, grid, cfg)
    elapsed = time.perf_counter() - t0

    h_final = res_pump.snapshots[-1, 0]
    maxima = aq.interior_local_maxima(h_final, grid)
    pts = grid.cell_centers()
    well = int(np.argmin(np.abs(pts[:, 0] - 0.5)))
    dome = len(maxima) > 0 and min(abs(maxima - well)) <= 3

    ok = (reduction >= 0.9 and mass_drift <= 1e-6 and dome and elapsed <= 60.0)
    assert report(7, "keulegan relaxation and dome", ok), \
        (reduction, mass_drift, dome, elapsed)


def test_criterion_8_penalization_convergence():
    grid = Grid((48,), (1.0,))
    pts = grid.cell_centers()
    inj = np.where(np.abs(pts[:, 0] - 0.5) < 0.1, -2.0, 0.0)
    spec = aq.AquiferSpec(h2=1.0, delta=0.3, alpha=0.025, epsilon=1e-1,
                          initial_h=0.5, initial_h1=0.05, domain=(1.0,),
                          dirichlet_h=0.5, dirichlet_h1=0.05, pumping=inj)
    cfg = StepperConfig(dt=2e-3, t_end=0.4, snapshot_every=50)
    t0 = time.perf_counter()
    sweep = aq.epsilon_sweep(spec, grid, cfg, [1e-1, 1e-2, 1e-3, 1e-4])
    elapsed = time.perf_counter() - t0

    v = sweep.violations()
    residual_final = sweep.entries[-1]["residual"]
    h2_volume = 1.0 * grid.measure
    ok = (len(v) == 4 and v[0] > 0.0
          and np.all(np.diff(v) <= 0.0)
          and v[-1] <= 0.1 * v[0]
          and residual_final < 1e-3 * h2_volume
          and elapsed <= 120.0)
    assert report(8, "penalization convergence", ok), (list(v), residual_final, elapsed)


def test_criterion_9_uniqueness_probe():
    grid = Grid((20, 20), (1.0, 1.0))
    spec = positivity_spec()
    cfg = StepperConfig(dt=1e-3, t_end=0.02, snapshot_every=4, lin_tol=1e-12)
    pert, cells = diag.disc_perturbation(grid, 2, (0.5, 0.5), 0.2, 1e-3)
    probe = diag.uniqueness_probe(spec, grid, cfg, pert, cells)

    control_spec = positivity_spec(ell=0.0)
    control = diag.uniqueness_probe(control_spec, grid, cfg, pert, cells)

    ok = (probe.amplification <= 10.0
          and probe.margins.shape == (4,)
          and np.all(np.isfinite(probe.margins))
          and control.amplification <= 1.0 + 1e-8)
    assert report(9, "uniqueness probe", ok), \
        (probe.amplification, probe.margins, control.amplification)


def test_criterion_10_determinism(tmp_path):
    payload = {
        "schema": 1, "kind": "generic",
        "grid": {"dims": [12, 12], "extents": [1.0, 1.0]},
        "stepper": {"dt": 1e-3, "t_end": 1e-2, "snapshot_every": 2},
        "model": {"m": 2, "delta": [1.0, 1.0], "ell": 1.0,
                  "K": [[1.0, 1.0], [1.0, 1.0]],
                  "initial": [{"profile": "sine"}, {"profile": "sine", "amplitude": 0.8}],
                  "dirichlet": [0.0, 0.0]},
        "diagnostics": {"levels": {"count": 10},
                        "degiorgi": {"ell0": "max_initial", "m": 2.0, "m_prime": 0.5,
                                     "s": 6.0}},
    }
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(payload))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main(["simulate", "--config", str(cfg_path), "--out", str(out_a)])
    code_b = main(["simulate", "--config", str(cfg_path), "--out", str(out_b)])

    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    identical = (code_a == code_b == 0 and names_a == names_b and all(
        (out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names_a))
    assert report(10, "determinism", identical)
