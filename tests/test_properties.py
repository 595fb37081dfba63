"""Property tests of the generic solver on randomized admissible data.

Each example is a spec of m = 1, 2 or 3 species on a small 1D or 2D grid,
with isotropic tensors or, in 2D, full tensors inside their ellipticity
bound, nonnegative initial data, and traces and sources that are compatible
at the boundary.  A two-species spec passes ``check_existence``; any other
passes the pairwise rule summed over partners, which implies the corner test
of the energy estimate for any m.  Each example runs on three paths: the
direct solve, the block-preconditioned GMRES on SuperLU factors (both
entries of ``fv.DIRECT_MAX_UNKNOWNS`` lowered to 0), and the GMRES on the
transform inverse (``fv.TRANSFORM_MIN_CELLS`` lowered to 0 too).  Every run
must keep the positivity floor, pass the mass-balance check, whose budget
reads the boundary coefficients the matrix sums, and repeat bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdiff import fv
from crossdiff.conditions import check_existence
from crossdiff.model import CrossTensor, Grid, ModelSpec, ellipticity_bounds
from crossdiff.solver import StepperConfig, mass_balance_residual, run


def sine_bump(level: float, amplitude: float):
    """level + amplitude * prod sin(pi x_d): equal to ``level`` on the boundary of the unit box."""
    def f(points):
        return level + amplitude * np.prod(np.sin(np.pi * points), axis=1)
    return f


def summed_pairwise_rule(spec: ModelSpec) -> bool:
    """(m - 1) sum_{i != j} (K_ij+)^2 / K_ii- < 4 delta_j / ell for every species j."""
    m = spec.m
    return all(
        (m - 1) * sum(ellipticity_bounds(spec.K[i][j])[1] ** 2
                      / ellipticity_bounds(spec.K[i][i])[0] for i in range(m) if i != j)
        < 4.0 * spec.delta[j] / spec.ell for j in range(m))


def draw_tensor(draw, ndim: int, full: bool) -> np.ndarray:
    """Diagonal entries in [0.2, 2]; a full tensor's off-diagonal entries are at most 0.9
    sqrt(K_11 K_22) in size, so its symmetric part stays positive definite."""
    k = np.diag([draw(st.floats(0.2, 2.0)) for _ in range(ndim)])
    if full:
        root = math.sqrt(k[0, 0] * k[1, 1])
        k[0, 1], k[1, 0] = (draw(st.floats(-0.9, 0.9)) * root for _ in range(2))
    return k


@st.composite
def admissible_cases(draw):
    m = draw(st.sampled_from([2, 1, 3]))
    dims = draw(st.one_of(st.tuples(st.integers(4, 12)),
                          st.tuples(st.integers(3, 6), st.integers(3, 6))))
    grid = Grid(dims, (1.0,) * len(dims))
    full = grid.ndim == 2 and draw(st.booleans())
    unit = st.floats(0.0, 1.0)
    delta = [draw(st.floats(0.2, 2.0)) for _ in range(m)]
    ell = draw(st.floats(0.1, 4.0))
    k = [[None] * m for _ in range(m)]
    for i in range(m):
        k[i][i] = draw_tensor(draw, grid.ndim, full)
    # a coupling's largest eigenvalue is a fraction of its share (m - 1)^-1 sqrt(4 delta_j
    # K_ii- / ell) of the summed pairwise rule, which for m = 2 is the existence bound
    for i in range(m):
        k_ii = ellipticity_bounds(k[i][i])[0]
        for j in range(m):
            if j != i:
                shape = draw_tensor(draw, grid.ndim, full)
                share = math.sqrt(4.0 * delta[j] / ell * k_ii) / (m - 1)
                k[i][j] = draw(st.floats(0.05, 0.95)) * share / ellipticity_bounds(shape)[1] * shape
    levels = [draw(unit) for _ in range(m)]
    spec = ModelSpec(
        m=m, delta=delta, K=[[CrossTensor(kij) for kij in row] for row in k], ell=ell,
        domain=grid.extents,
        initial=[sine_bump(levels[i], draw(unit)) for i in range(m)],
        dirichlet=[None if draw(st.booleans()) else levels[i] for i in range(m)],
        sources=[draw(st.one_of(st.none(), unit)) for _ in range(m)])
    dt = draw(st.sampled_from([1e-3, 1e-2, 1e-1]))
    return spec, grid, StepperConfig(dt=dt, t_end=3 * dt)


def run_twice(spec, grid, cfg):
    first, second = run(spec, grid, cfg), run(spec, grid, cfg)
    for name in ("snapshots", "snapshot_times", "minmax", "mass", "source_integral",
                 "boundary_flux"):
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes(), name
    return first


@pytest.mark.parametrize("path", ["direct", "gmres", "transform"])
@settings(max_examples=90, derandomize=True, deadline=None)
@given(case=admissible_cases())
def test_floor_mass_balance_and_rerun_on_admissible_data(path, case):
    spec, grid, cfg = case
    if spec.m == 2:
        assert all(report.passed for report in check_existence(spec))
    assert summed_pairwise_rule(spec)
    inverses = []
    with pytest.MonkeyPatch.context() as mp:
        if path != "direct":
            mp.setattr(fv, "DIRECT_MAX_UNKNOWNS", {1: 0, 2: 0})
        if path == "transform":
            mp.setattr(fv, "TRANSFORM_MIN_CELLS", {1: 0, 2: 0})
        rebuild = fv.BlockFactors.rebuild

        def spy(factors, a):
            rebuild(factors, a)
            inverses.append(type(factors.inverse))
        mp.setattr(fv.BlockFactors, "rebuild", spy)
        result = run_twice(spec, grid, cfg)
    # every system with a nonzero right-hand side takes the drawn path: GMRES builds its
    # holder's inverse at its first solve, of the kind the path names, and only GMRES spends
    # applications (a solve whose start already meets its tolerance spends none)
    gmres = path != "direct" and any(st["b_norm"] > 0.0 for st in result.solver_stats)
    assert bool(inverses) == gmres
    kind = fv._TransformInverse if path == "transform" else fv.spla.SuperLU
    assert all(inverse is kind for inverse in inverses)
    assert any(st["lin_iters"] > 0 for st in result.solver_stats) <= gmres
    assert result.minmax[:, :, 1].min() >= -1e-10
    assert mass_balance_residual(result, spec, grid).ok
