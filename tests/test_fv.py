"""Property tests of the face table on random 1D/2D grids.

The two-point term must telescope to its boundary inflow, and the cell
gradient of a linear field with its exact traces must be the slope; a
ghost face with the wrong orientation on either end of an axis breaks one
of them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdiff import fv
from crossdiff.model import Grid

GRIDS = st.one_of(
    st.tuples(st.integers(1, 9)).map(lambda d: (d, (1.3,))),
    st.tuples(st.integers(1, 7), st.integers(1, 7)).map(lambda d: (d, (1.0, 0.6))),
)


@settings(max_examples=60, deadline=None)
@given(GRIDS, st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_two_point_term_telescopes_to_boundary_inflow(grid_data, dirichlet, seed):
    grid = Grid(*grid_data)
    ft = fv.face_table(grid)
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.1, 2.0, ft.n_faces)
    traces = rng.uniform(-1.0, 1.0, ft.n_boundary) if dirichlet else None
    u = rng.uniform(-1.0, 1.0, grid.n_cells)
    builder = fv.SystemBuilder(grid, 1)
    builder.add_tpfa(0, 0, g, traces)
    residual = builder.matrix() @ u - builder.rhs
    inflow = builder.budget(u[None, :])[1][0]
    scale = np.sum(np.abs(residual)) + abs(inflow) + 1.0
    assert abs(residual.sum() + inflow) <= 1e-12 * scale
    if not dirichlet:
        assert inflow == 0.0


@settings(max_examples=60, deadline=None)
@given(GRIDS, st.integers(0, 2 ** 32 - 1))
def test_cell_gradient_of_linear_field_is_its_slope(grid_data, seed):
    grid = Grid(*grid_data)
    ft = fv.face_table(grid)
    rng = np.random.default_rng(seed)
    slope, offset = rng.uniform(-2.0, 2.0, grid.ndim), rng.uniform(-1.0, 1.0)
    u = ft.centers @ slope + offset
    traces = ft.bnd_points @ slope + offset
    grad = fv.cell_gradient(ft, u, traces)
    assert grad.shape == (grid.ndim, grid.n_cells)
    assert np.allclose(grad, slope[:, None], rtol=0.0, atol=1e-12)
