import dataclasses
import math

import numpy as np
import pytest

from crossdiff import aquifer, solver
from crossdiff.model import CrossTensor, Grid, ModelSpec


def product_sine(amplitude=1.0):
    def f(points):
        out = np.full(points.shape[0], amplitude)
        for d in range(points.shape[1]):
            out = out * np.sin(np.pi * points[:, d])
        return out
    return f


def coupled_spec_2d(ell=1.0, k_offdiag=1.0, amp=(1.0, 0.8)):
    """Two-species spec on the unit square satisfying the existence bound."""
    iso = CrossTensor.isotropic
    k = [[iso(1.0, 2), iso(k_offdiag, 2)], [iso(k_offdiag, 2), iso(1.0, 2)]]
    return ModelSpec(m=2, delta=[1.0, 1.0], K=k, ell=ell, domain=(1.0, 1.0),
                     initial=[product_sine(amp[0]), product_sine(amp[1])],
                     dirichlet=[0.0, 0.0])


def plain_run(aspec, grid, cfg):
    """The plain aquifer thickness run, without the drain: the generic run of the thickness
    spec at ell = inf, its snapshots mapped to (h, h1)."""
    result = solver.run(aquifer._thickness_spec(aspec, grid, math.inf), grid, cfg)
    u = result.snapshots
    return dataclasses.replace(result, snapshots=np.stack(
        aquifer.map_species(u[:, 0], u[:, 1], aspec.h2_cells(grid)), axis=1))


@pytest.fixture(scope="session")
def grid_12() -> Grid:
    return Grid((12, 12), (1.0, 1.0))


@pytest.fixture(scope="session")
def grid_1d() -> Grid:
    return Grid((64,), (1.0,))


def count_superlu(monkeypatch) -> list:
    """Shapes of the SuperLU factorizations (``fv._factor``) made from now on."""
    from crossdiff import fv
    calls = []
    factor = fv._factor

    def counting(a):
        calls.append(a.shape)
        return factor(a)
    monkeypatch.setattr(fv, "_factor", counting)
    return calls


@pytest.fixture
def failing_initial_head(monkeypatch):
    """Fail every solve of a one-species holder: of an aquifer run, only the confined head
    solve at t = 0."""
    from crossdiff import fv
    solve = fv.solve_sparse

    def failing(a, b, tol, factors, x0=None):
        if factors.m == 1:
            raise fv.SolverFailure("stalled", residual=0.5)
        return solve(a, b, tol, factors, x0)
    monkeypatch.setattr(fv, "solve_sparse", failing)


@pytest.fixture
def singular_confined_step(monkeypatch):
    """Zero the matrix of every coupled step of the confined aquifer variant."""
    from crossdiff import aquifer
    confined_step = aquifer._confined_step

    def singular(*args):
        step = confined_step(*args)

        def singular_step(*step_args):
            sweep = step(*step_args)

            def singular_sweep(u_lag):
                builder = sweep(u_lag)
                builder.vals = [0.0 * v for v in builder.vals]
                return builder
            return singular_sweep
        return singular_step
    monkeypatch.setattr(aquifer, "_confined_step", singular)


@pytest.fixture
def transform_everywhere(monkeypatch):
    """Invert the species blocks of the GMRES path by fast transforms on every grid; the
    grids of the block-path tests are below ``fv.TRANSFORM_MIN_CELLS`` and take SuperLU."""
    from crossdiff import fv
    monkeypatch.setattr(fv, "TRANSFORM_MIN_CELLS", {1: 0, 2: 0})
