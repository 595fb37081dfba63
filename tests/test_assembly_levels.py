"""The three assembly levels of every variant against a per-sweep reference.

A variant's run evaluates its run-fixed terms once, its step callback the
step's traces, sources and pumping once, and its sweep only what the lag
changes.  Each reference below assembles everything inside the sweep, from
the public :class:`fv.SystemBuilder` methods, as one function of (run data,
step, lag); the split builders must equal it bit for bit, and the value
arrays of the run-fixed terms must be the same objects in every sweep of
every step of one run.
"""

import dataclasses
import math

import numpy as np
import pytest

from crossdiff import aquifer as aq
from crossdiff import fv, solver
from crossdiff.model import Grid, clamp, evaluate
from crossdiff.solver import StepperConfig

from conftest import product_sine
from test_solver import _general_spec, generic_spec_1d, penalized_case


def reference_generic(spec, grid, cfg, u_prev, t_prev, t_new, u_lag) -> fv.SystemBuilder:
    """One sweep of the generic variant with every term evaluated in it."""
    m, ft, vol = spec.m, fv.face_table(grid), grid.cell_volume
    traces = [spec.dirichlet_values(j, t_new, ft.bnd_points) for j in range(m)]
    w_traces = [None if tr is None else clamp(tr, spec.ell) for tr in traces]
    need_tangential = grid.ndim == 2 and any(
        spec.K[i][j].matrix[0, 1] != 0.0 or spec.K[i][j].matrix[1, 0] != 0.0
        for i in range(m) for j in range(m))
    q = np.stack([spec.source_values(i, t_prev, ft.centers, u_prev) for i in range(m)])
    builder = fv.SystemBuilder(grid, m)
    sides = []
    for i in range(m):
        w = fv.slot_values(ft, clamp(u_lag[i], spec.ell), w_traces[i])
        sides.append((w[ft.left], w[ft.right]))
    grad = [fv.face_gradient(ft, u_lag[j], traces[j]) for j in range(m)]
    if need_tangential:
        tgrad = []
        for j in range(m):
            cg = fv.slot_values(ft, fv.cell_gradient(ft, u_lag[j], traces[j]), None)
            tgrad.append(0.5 * (cg[1 - ft.axis, ft.left] + cg[1 - ft.axis, ft.right]))
    builder.source = q.sum(axis=1) * vol
    for i in range(m):
        n_faces = ft.n_faces if traces[i] is not None else ft.n_interior
        builder.add_mass(i, 1.0 / cfg.dt)
        builder.add_rhs(i, vol * (u_prev[i] / cfg.dt + q[i]))
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
            w_face = fv.limited_face_value(fv.face_sides(*sides[i]), driver)[:n_faces]
            builder.add_tpfa(i, j, w_face * kdd[:n_faces], traces[j])
            if need_tangential:
                builder.add_explicit_flux(i, ft.sign[:n_faces] * w_face * tang[:n_faces])
    return builder


def reference_penalized(aspec, grid, cfg, u_prev, t_prev, t_new, u_lag) -> fv.SystemBuilder:
    """One penalized sweep: the reference thickness sweep, rewritten in (u1, s) by freshly
    prepared maps, and the drain with its ghost values evaluated in the sweep."""
    spec = aq._thickness_spec(aspec, grid, math.inf)
    builder = reference_generic(spec, grid, cfg, u_prev, t_prev, t_new, u_lag)
    builder.change_unknowns(fv.BlockMaps(((1.0, 0.0), (1.0, 1.0)), ((1.0, 0.0), (-1.0, 1.0))))
    h2c = aspec.h2_cells(grid)
    ghosts = aq._drain_traces(h2c[builder.ft.bnd_cell], *aq._u_traces(aspec, h2c, grid, t_new))
    aq._add_drain(builder, aspec, h2c, u_lag[0], u_lag[0] + u_lag[1], *ghosts)
    return builder


def reference_confined(aspec, grid, cfg, u_prev, t_prev, t_new, u_lag) -> fv.SystemBuilder:
    """One confined sweep with every term evaluated in it."""
    ft, vol = fv.face_table(grid), grid.cell_volume
    alpha, one_a = aspec.alpha, 1.0 - aspec.alpha
    phi_trace = evaluate(aspec.dirichlet_phi, ft.n_boundary, t_new, ft.bnd_points)
    w_trace = aq._u_traces(aspec, aspec.h2_cells(grid), grid, t_new)[1]
    pump = aspec.pumping_values(t_prev, ft.centers)
    h2 = fv.slot_values(ft, aspec.h2_cells(grid), None)
    head_face = one_a * (0.5 * (h2[ft.left] + h2[ft.right]))
    n_faces = ft.n_interior if w_trace is None else ft.n_faces
    slots = fv.slot_values(ft, np.maximum(u_lag[0], 0.0),
                           None if w_trace is None else np.maximum(w_trace, 0.0))
    sides = fv.face_sides(slots[ft.left][:n_faces], slots[ft.right][:n_faces])
    grad_w = fv.face_gradient(ft, u_lag[0], w_trace)[:n_faces]
    w_face_w = fv.upwind_face_value(sides, grad_w)
    w_face_phi = fv.upwind_face_value(sides, -fv.face_gradient(ft, u_lag[1], phi_trace)[:n_faces])
    builder = fv.SystemBuilder(grid, 2)
    builder.add_mass(0, 1.0 / cfg.dt)
    builder.add_rhs(0, vol * u_prev[0] / cfg.dt)
    builder.add_tpfa(0, 0, np.full(n_faces, aspec.delta), w_trace)
    builder.add_tpfa(0, 0, alpha * w_face_w, w_trace)
    builder.add_tpfa(0, 1, -one_a * w_face_phi, phi_trace)
    builder.add_tpfa(1, 0, alpha * w_face_w, w_trace)
    builder.add_tpfa(1, 1, head_face, phi_trace)
    builder.add_rhs(1, -vol * pump)
    builder.source[1] = -vol * pump.sum()
    return builder


def assert_same_system(got: fv.SystemBuilder, want: fv.SystemBuilder) -> None:
    assert got.terms == want.terms
    assert len(got.vals) == len(want.vals)
    assert all(np.array_equal(a, b) for a, b in zip(got.vals, want.vals, strict=True))
    assert np.array_equal(got.rhs, want.rhs)
    assert np.array_equal(got.source, want.source)
    assert len(got.bnd_terms) == len(want.bnd_terms)
    for ((key, v), tr), ((key0, v0), tr0) in zip(got.bnd_terms, want.bnd_terms, strict=True):
        assert key == key0 and np.array_equal(v, v0) and np.array_equal(tr, tr0)
    assert got.bnd_expl.keys() == want.bnd_expl.keys()
    assert all(np.array_equal(got.bnd_expl[k], want.bnd_expl[k]) for k in got.bnd_expl)


def check_levels(monkeypatch, factory, reference, data, grid, u0, n_steps=3):
    """Three steps of two sweeps each, at lags away from the previous state; every sweep
    equals the reference, and every run-fixed value array, made by the run-level factory,
    is read-only and recorded by reference as one object throughout."""
    made, fixed_ids = [], []
    for name in ("fixed_mass", "fixed_tpfa"):
        real = getattr(fv, name)
        monkeypatch.setattr(fv, name, lambda *a, _real=real: made.append(_real(*a)) or made[-1])
    add_term = fv.SystemBuilder.add_term

    def spy_term(self, term, traces=None):
        if any(term[1] is vals for _, vals in run_fixed):
            fixed_ids.append(id(term[1]))
        return add_term(self, term, traces)
    monkeypatch.setattr(fv.SystemBuilder, "add_term", spy_term)
    cfg = StepperConfig(dt=1e-3, t_end=n_steps * 1e-3)
    step = factory(data, grid, cfg)
    run_fixed = list(made)
    assert run_fixed and all(not vals.flags.writeable for _, vals in run_fixed)
    x = grid.cell_centers()[:, 0]
    u, per_sweep = u0, []
    for k in range(n_steps):
        t_prev, t_new = k * cfg.dt, (k + 1) * cfg.dt
        sweep = step(u, t_prev, t_new)
        for lag in (u, u + 0.05 * np.stack([x] * len(u)) * (k + 1)):
            fixed_ids.clear()
            builder = sweep(lag)
            recorded = list(fixed_ids)
            assert set(recorded) == {id(vals) for _, vals in run_fixed}
            # recorded by reference, never copied
            assert set(recorded) <= {id(v) for v in builder.vals}
            assert_same_system(builder, reference(data, grid, cfg, u, t_prev, t_new, lag))
            per_sweep.append(recorded)
        u = 0.98 * u + 0.01
    assert all(ids == per_sweep[0] for ids in per_sweep)


def moving_aquifer(aspec):
    """``aspec`` with pumping and a head trace that move in time."""
    return dataclasses.replace(aspec, pumping=lambda t, p: 0.05 + 10.0 * t * p[:, 0],
                               dirichlet_phi=lambda t, p: 5.0 * t + 0.0 * p[:, 0])


def moving_data(spec):
    """``spec`` with traces that move in time and sources that read the state, so that every
    step has its own step data."""
    return dataclasses.replace(
        spec,
        dirichlet=[None if d is None else (lambda t, p, _c=0.1 * i: _c + 20.0 * t + 0.0 * p[:, 0])
                   for i, d in enumerate(spec.dirichlet)],
        sources=[lambda t, p, u, _i=i: 0.3 + 0.5 * u[_i] + t for i in range(spec.m)])


@pytest.mark.parametrize("full", [False, True], ids=["isotropic", "full"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_generic_sweeps_equal_the_per_sweep_assembly(monkeypatch, m, full):
    # even species Dirichlet, odd ones closed; full tensors take the tangential terms
    spec = moving_data(_general_spec(m, full))
    grid = Grid((7, 5), (1.0, 1.0))
    u0 = np.stack([spec.initial_values(i, grid.cell_centers()) for i in range(m)])
    check_levels(monkeypatch, solver._generic_step, reference_generic, spec, grid, u0)


def test_generic_sweeps_equal_the_per_sweep_assembly_in_1d(monkeypatch):
    spec = moving_data(dataclasses.replace(generic_spec_1d(), dirichlet=[0.0, None]))
    grid = Grid((16,), (1.0,))
    u0 = np.stack([spec.initial_values(i, grid.cell_centers()) for i in range(2)])
    check_levels(monkeypatch, solver._generic_step, reference_generic, spec, grid, u0)


@pytest.mark.parametrize("kind", ["closed-1d", "dirichlet-2d"])
def test_penalized_sweeps_equal_the_per_sweep_assembly(monkeypatch, kind):
    _, aspec, _, grid, _, u_lag = penalized_case(kind)
    check_levels(monkeypatch, aq._penalized_step, reference_penalized, moving_aquifer(aspec),
                 grid, u_lag)


@pytest.mark.parametrize("kind", ["closed-1d", "dirichlet-2d"])
def test_confined_sweeps_equal_the_per_sweep_assembly(monkeypatch, kind):
    _, aspec, _, grid, _, _ = penalized_case(kind)
    w = aspec.h2_cells(grid) - aspec.initial_values(grid)[0]
    phi = 0.1 * product_sine(1.0)(grid.cell_centers())
    check_levels(monkeypatch, aq._confined_step, reference_confined, moving_aquifer(aspec),
                 grid, np.stack([w, phi]))


def test_one_run_evaluates_its_fixed_terms_once(monkeypatch):
    # a run makes each run-fixed term once, whatever its steps and sweeps
    made = []
    for name in ("fixed_mass", "fixed_tpfa"):
        real = getattr(fv, name)
        monkeypatch.setattr(fv, name, lambda *a, _real=real: made.append(a[1:3]) or _real(*a))
    _, aspec, _, grid, _, _ = penalized_case("dirichlet-2d")
    cfg = StepperConfig(dt=1e-3, t_end=4e-3)
    # the moving traces leave the initial data, so the run skips the compatibility check
    result = solver.run(moving_data(_general_spec(3, True)), Grid((7, 5), (1.0, 1.0)), cfg,
                        validate=False)
    assert sum(st["picard_sweeps"] for st in result.solver_stats) > 4
    assert len(made) == 6   # a mass and a delta term per species
    made.clear()
    aq.run_penalized(aspec, grid, cfg)
    assert len(made) == 4
    made.clear()
    aq.run_confined_aquifer(aspec, grid, cfg)
    assert len(made) == 4   # the initial head's own head term, then mass, delta and head
