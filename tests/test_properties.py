"""Property tests of the generic solver on randomized admissible data.

Each example is a two-species spec that passes ``check_existence``, with
nonnegative initial data, traces and sources that are compatible at the
boundary, on a small 1D or 2D grid.  It runs on the direct solve path and on
the block-preconditioned GMRES path (both entries of
``fv.DIRECT_MAX_UNKNOWNS`` lowered to 0), and every run must keep the
positivity floor, pass the mass-balance check and repeat bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdiff import fv
from crossdiff.conditions import check_existence
from crossdiff.model import CrossTensor, Grid, ModelSpec
from crossdiff.solver import StepperConfig, mass_balance_residual, run


def sine_bump(level: float, amplitude: float):
    """level + amplitude * prod sin(pi x_d): equal to ``level`` on the boundary of the unit box."""
    def f(points):
        return level + amplitude * np.prod(np.sin(np.pi * points), axis=1)
    return f


@st.composite
def admissible_cases(draw):
    dims = draw(st.one_of(st.tuples(st.integers(4, 12)),
                          st.tuples(st.integers(3, 6), st.integers(3, 6))))
    grid = Grid(dims, (1.0,) * len(dims))
    unit = st.floats(0.0, 1.0)
    delta = [draw(st.floats(0.2, 2.0)) for _ in range(2)]
    k_diag = [draw(st.floats(0.2, 2.0)) for _ in range(2)]
    ell = draw(st.floats(0.1, 4.0))
    # a coupling is a fraction of its existence bound (K_ij)^2 / K_ii < 4 delta_j / ell
    k_off = [draw(st.floats(0.05, 0.95)) * math.sqrt(4.0 * delta[1 - i] / ell * k_diag[i])
             for i in range(2)]
    iso = CrossTensor.isotropic
    k = [[iso(k_diag[0], grid.ndim), iso(k_off[0], grid.ndim)],
         [iso(k_off[1], grid.ndim), iso(k_diag[1], grid.ndim)]]
    levels = [draw(unit) for _ in range(2)]
    spec = ModelSpec(
        m=2, delta=delta, K=k, ell=ell, domain=grid.extents,
        initial=[sine_bump(levels[i], draw(unit)) for i in range(2)],
        dirichlet=[None if draw(st.booleans()) else levels[i] for i in range(2)],
        sources=[draw(st.one_of(st.none(), unit)) for _ in range(2)])
    dt = draw(st.sampled_from([1e-3, 1e-2, 1e-1]))
    return spec, grid, StepperConfig(dt=dt, t_end=3 * dt)


def run_twice(spec, grid, cfg):
    first, second = run(spec, grid, cfg), run(spec, grid, cfg)
    for name in ("snapshots", "snapshot_times", "minmax", "mass", "source_integral",
                 "boundary_flux"):
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes(), name
    return first


@pytest.mark.parametrize("path", ["direct", "gmres"])
@settings(max_examples=30, derandomize=True, deadline=None)
@given(case=admissible_cases())
def test_floor_mass_balance_and_rerun_on_admissible_data(path, case):
    spec, grid, cfg = case
    assert all(report.passed for report in check_existence(spec))
    rebuilds = []
    with pytest.MonkeyPatch.context() as mp:
        if path == "gmres":
            mp.setattr(fv, "DIRECT_MAX_UNKNOWNS", {1: 0, 2: 0})
        rebuild = fv.BlockFactors.rebuild
        mp.setattr(fv.BlockFactors, "rebuild",
                   lambda factors, a: rebuilds.append(a.shape) or rebuild(factors, a))
        result = run_twice(spec, grid, cfg)
    # every system with a nonzero right-hand side takes the drawn path: GMRES builds its
    # holder's inverse at its first solve, and only GMRES spends applications (a solve whose
    # start already meets its tolerance spends none)
    gmres = path == "gmres" and any(st["b_norm"] > 0.0 for st in result.solver_stats)
    assert bool(rebuilds) == gmres
    assert any(st["lin_iters"] > 0 for st in result.solver_stats) <= gmres
    assert result.minmax[:, :, 1].min() >= -1e-10
    assert mass_balance_residual(result, spec, grid).ok
