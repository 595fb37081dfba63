"""Property tests of the face table on random 1D/2D grids.

The two-point term must telescope to its boundary inflow, and the cell
gradient of a linear field with its exact traces must be the slope; a
ghost face with the wrong orientation on either end of an axis breaks one
of them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft

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


def per_face_loop(ft, fa):
    """Per-cell divergence and per-axis mean of the face values ``fa``, one face at a time."""
    n, nd = ft.grid.n_cells, ft.grid.ndim
    div, acc, cnt = np.zeros(n), np.zeros((nd, n)), np.zeros((nd, n))
    for f, value in enumerate(fa):
        ends = [(ft.left[f], 1.0)] + ([(ft.right[f], -1.0)] if f < ft.n_interior else [])
        for cell, sign in ends:
            div[cell] += sign * value
            acc[ft.axis[f], cell] += value
            cnt[ft.axis[f], cell] += 1
    return div, acc / np.maximum(cnt, 1)


@settings(max_examples=60, deadline=None)
@given(GRIDS, st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_face_sums_match_per_face_loop(grid_data, boundary, seed):
    grid = Grid(*grid_data)
    ft = fv.face_table(grid)
    fa = np.random.default_rng(seed).uniform(-1.0, 1.0,
                                             ft.n_faces if boundary else ft.n_interior)
    div, mean = per_face_loop(ft, fa)
    assert np.allclose(fv.face_divergence(ft, fa), div, rtol=0.0, atol=1e-14)
    assert np.allclose(fv.cell_average(ft, fa), mean, rtol=0.0, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(GRIDS, st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_face_divergence_telescopes_to_boundary_values(grid_data, boundary, seed):
    grid = Grid(*grid_data)
    ft = fv.face_table(grid)
    fa = np.random.default_rng(seed).uniform(-1.0, 1.0,
                                             ft.n_faces if boundary else ft.n_interior)
    total = fv.face_divergence(ft, fa).sum()
    boundary_sum = fa[ft.n_interior:].sum()  # 0.0 for interior-only input
    assert abs(total - boundary_sum) <= 1e-13 * np.abs(fa).sum()


@settings(max_examples=60, deadline=None)
@given(GRIDS)
def test_cell_of_centers_and_boundary_faces(grid_data):
    grid = Grid(*grid_data)
    ft = fv.face_table(grid)
    assert np.array_equal(grid.cell_of(ft.centers), np.arange(grid.n_cells))
    assert np.array_equal(grid.cell_of(ft.bnd_points), ft.bnd_cell)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_limited_face_value_is_the_mean_capped_at_twice_the_donor(seed):
    rng = np.random.default_rng(seed)
    w_left, w_right = rng.uniform(0.0, 1.0, (2, 50)) * rng.integers(0, 2, (2, 50))
    driver = rng.choice([-1.0, 0.0, 1.0], 50) * rng.uniform(0.1, 2.0, 50)
    w = fv.limited_face_value(w_left, w_right, driver)
    donor = fv.upwind_face_value(w_left, w_right, driver)
    receiver = np.where(driver > 0.0, w_left, np.where(driver < 0.0, w_right, donor))
    mean = 0.5 * (w_left + w_right)
    # an empty donor passes nothing; a receiver at most 3 donors keeps the mean
    assert np.all((w >= 0.0) & (w <= 2.0 * donor))
    assert np.all(w[donor == 0.0] == 0.0)
    assert np.array_equal(w[receiver <= 3.0 * donor], mean[receiver <= 3.0 * donor])
    assert np.array_equal(w, fv.limited_face_value(w_right, w_left, -driver))


@pytest.mark.parametrize("grid", [Grid((16,), (1.3,)), Grid((10, 10), (1.0, 1.0)),
                                  Grid((8, 12), (1.0, 2.0)), Grid((1, 12), (1.0, 1.0)),
                                  Grid((12, 1), (1.0, 1.0)), Grid((2, 12), (1.0, 1.0)),
                                  Grid((2,), (1.0,))])
@pytest.mark.parametrize("dirichlet", [True, False])
def test_transform_inverts_a_constant_coefficient_block_exactly(monkeypatch, grid, dirichlet):
    # DCT-II diagonalizes the closed block and, on checkerboard-signed data, the Dirichlet
    # one; the boundary kind comes from the assembled terms.  On the thin grids every cell
    # has a boundary face, and a one-cell axis has both ends in one cell
    monkeypatch.setattr(fv, "TRANSFORM_MIN_CELLS", {1: 0, 2: 0})
    ft = fv.face_table(grid)
    builder = fv.SystemBuilder(grid, 1)
    builder.add_mass(0, 50.0)
    if dirichlet:
        builder.add_tpfa(0, 0, np.full(ft.n_faces, 0.7), np.zeros(ft.n_boundary))
    else:
        builder.add_tpfa(0, 0, np.full(ft.n_interior, 0.7), None)
    a = builder.matrix()
    x = np.random.default_rng(3).uniform(-1.0, 1.0, grid.n_cells)
    assert np.max(np.abs(_inverse(1, grid, a).solve(a @ x) - x)) <= 1e-12


def _inverse(m: int, grid: Grid, a):
    """The inverse of the species block diagonal of ``a`` that a holder rebuilds."""
    factors = fv.BlockFactors(m, grid)
    factors.rebuild(a)
    return factors.inverse


def _coupled_system(grid: Grid, species: tuple[int, ...]):
    """Species 0 Dirichlet, species 1 closed, with varying coefficients; both coupled
    when ``species`` holds both, else the one-species system of that diagonal block."""
    ft = fv.face_table(grid)
    rng = np.random.default_rng(11)
    g = [rng.uniform(0.5, 2.0, ft.n_faces), rng.uniform(0.5, 2.0, ft.n_interior)]
    traces = [np.zeros(ft.n_boundary), None]
    builder = fv.SystemBuilder(grid, len(species))
    for row, k in enumerate(species):
        builder.add_mass(row, 30.0 + 20.0 * k)
        builder.add_tpfa(row, row, g[k], traces[k])
    if len(species) == 2:
        builder.add_tpfa(0, 1, 0.3 * g[1], None)
        builder.add_tpfa(1, 0, 0.2 * g[0], traces[0])
    return builder.matrix()


def test_block_diagonal_inverse_is_the_per_species_inverses(transform: bool = False):
    # the holder's one inverse of the species block diagonal applies exactly what
    # inverses of the single blocks apply, each to its own species' part
    grid = Grid((12, 10), (1.0, 0.8))
    n = grid.n_cells
    a = _coupled_system(grid, (0, 1))
    if transform:
        single = [_inverse(1, grid, _coupled_system(grid, (k,))).solve for k in range(2)]
    else:
        single = [fv.spla.splu(a[k * n:(k + 1) * n, k * n:(k + 1) * n].tocsc(),
                               permc_spec=fv.ORDERING).solve for k in range(2)]
    inverse = _inverse(2, grid, a)
    for r in np.random.default_rng(5).standard_normal((3, 2 * n)):
        expected = np.concatenate([solve(r[k * n:(k + 1) * n]) for k, solve in enumerate(single)])
        assert np.array_equal(inverse.solve(r), expected)


def test_block_diagonal_inverse_is_the_per_species_inverses_on_transform(transform_everywhere):
    test_block_diagonal_inverse_is_the_per_species_inverses(transform=True)


@pytest.mark.parametrize("dims, extents", [((9,), (1.1,)), ((10,), (1.0,)),
                                           ((7, 10), (1.0, 0.8)), ((12, 9), (0.9, 1.0))])
def test_one_dct_inverse_is_the_per_species_sine_and_cosine_inverses(monkeypatch,
                                                                      transform_everywhere,
                                                                      dims, extents):
    # reference: each block's fit c0 I + g L applied by its own transform pair, DST-II for
    # the Dirichlet species 0 and DCT-II for the closed species 1, with the eigenvalues
    # 4w sin^2(pi (k + 1)/2n) and 4w sin^2(pi k/2n) per axis in each transform's order
    grid = Grid(dims, extents)
    n = grid.n_cells
    ft = fv.face_table(grid)
    inner = np.ones(n, dtype=bool)
    inner[ft.bnd_cell] = False
    a = _coupled_system(grid, (0, 1))
    fits = []
    for k, (dirichlet, forward, backward) in enumerate([(True, fft.dstn, fft.idstn),
                                                        (False, fft.dctn, fft.idctn)]):
        unit = fv.SystemBuilder(grid, 1)
        if dirichlet:
            unit.add_tpfa(0, 0, np.ones(ft.n_faces), np.zeros(ft.n_boundary))
        else:
            unit.add_tpfa(0, 0, np.ones(ft.n_interior), None)
        lap = unit.matrix()
        block = a[k * n:(k + 1) * n, k * n:(k + 1) * n]
        g = (block.sum() - block.diagonal().sum()) / (lap.sum() - lap.diagonal().sum())
        row_sum = np.asarray(block.sum(axis=1)).ravel() - g * np.asarray(lap.sum(axis=1)).ravel()
        c0 = np.mean(row_sum[inner])
        lam = np.zeros(dims)
        for d, (size, h) in enumerate(zip(dims, grid.spacing)):
            shape = [1] * len(dims)
            shape[d] = size
            lam = lam + (4.0 * grid.cell_volume / h ** 2 * np.sin(
                np.pi * (np.arange(size) + dirichlet) / (2 * size)) ** 2).reshape(shape)
        scale = np.sqrt(block.diagonal() / (c0 + g * lap.diagonal()))
        fits.append((c0 + g * lam, scale, forward, backward))
    inverse = _inverse(2, grid, a)
    calls = []

    def counting(name):
        transform = getattr(fft, name)

        def call(*args, **kwargs):
            calls.append(name)
            return transform(*args, **kwargs)
        return call
    for name in ("dctn", "idctn", "dstn", "idstn"):
        monkeypatch.setattr(fft, name, counting(name))
    for r in np.random.default_rng(13).standard_normal((3, 2 * n)):
        expected = np.concatenate([
            backward(forward((r[k * n:(k + 1) * n] / scale).reshape(dims), type=2, norm="ortho")
                     / eig, type=2, norm="ortho").ravel() / scale
            for k, (eig, scale, forward, backward) in enumerate(fits)])
        calls.clear()
        x = inverse.solve(r)
        assert calls == ["dctn", "idctn"]   # one transform pair for both boundary kinds
        assert np.max(np.abs(x - expected)) <= 1e-13 * np.max(np.abs(expected))



def _fully_coupled_system(dims: tuple, spacing: tuple, dirichlet: tuple[bool, ...]):
    """Mass and two-point terms of len(dirichlet) species, each coupled to every other;
    species k is Dirichlet when ``dirichlet[k]``, else closed."""
    grid = Grid(dims, spacing)
    ft = fv.face_table(grid)
    rng = np.random.default_rng(7)
    m = len(dirichlet)
    builder = fv.SystemBuilder(grid, m)
    for i in range(m):
        builder.add_mass(i, 30.0 + 10.0 * i)
        for j in range(m):
            scale = 1.0 if i == j else 0.2
            builder.add_tpfa(i, j, scale * rng.uniform(0.5, 2.0, ft.n_faces),
                             np.zeros(ft.n_boundary) if dirichlet[j] else None)
    return builder


def _penalized_system(dims: tuple, spacing: tuple):
    """The (u1, s) system of a penalized keulegan sweep, assembled after change_unknowns."""
    from crossdiff import aquifer as aq
    from crossdiff.solver import StepperConfig
    grid = Grid(dims, spacing)
    aspec = aq.keulegan_scenario(grid, pump_rate=0.05, tilt=0.4)
    cfg = StepperConfig(dt=1e-3, t_end=1e-3)
    spec = aq._thickness_spec(aspec, grid, np.inf)
    u_prev = np.stack([spec.initial_values(i, grid.cell_centers()) for i in range(2)])
    builder = aq._penalized_step(aspec, grid, cfg)(u_prev, 0.0, cfg.dt)(u_prev + 0.05)
    assert builder.p is not None   # the recorded system was rewritten in (u1, s)
    return builder


BAND_CASES = {
    "1d-m1-dirichlet": lambda: _fully_coupled_system((16,), (1.3,), (True,)),
    "1d-m1-closed": lambda: _fully_coupled_system((16,), (1.3,), (False,)),
    "1d-m2": lambda: _fully_coupled_system((20,), (1.0,), (True, False)),
    "1d-m3": lambda: _fully_coupled_system((12,), (1.0,), (False, True, False)),
    "2d-8x8-m2": lambda: _fully_coupled_system((8, 8), (1.0, 1.0), (True, False)),
    "2d-12x10-m2": lambda: _fully_coupled_system((12, 10), (1.0, 0.8), (False, True)),
    "penalized-1d": lambda: _penalized_system((16,), (1.0,)),
    "penalized-2d": lambda: _penalized_system((6, 5), (1.0, 0.8)),
}


@pytest.mark.parametrize("case", BAND_CASES)
def test_band_map_rebuilds_the_interleaved_matrix(case):
    builder = BAND_CASES[case]()
    a, grid, m = builder.matrix(), builder.grid, builder.m
    band, size = a.band, a.shape[0]
    # species-blocked s * n + c is interleaved to c * m + s, by the definition
    k = np.arange(size)
    perm = k % grid.n_cells * m + k // grid.n_cells
    interleaved = np.empty(a.shape)
    interleaved[np.ix_(perm, perm)] = a.toarray()
    assert band.width == (2 * m - 1 if grid.ndim == 1 else m * grid.dims[-1] + m - 1)
    # scattering the data through the cached positions fills LAPACK's band storage
    rows = 3 * band.width + 1
    ab = np.zeros(rows * size)
    ab[band.position] = a.data
    ab = ab.reshape(size, rows).T
    i, j = np.indices(a.shape)
    inside = np.abs(i - j) <= band.width
    rebuilt = np.zeros(a.shape)
    rebuilt[inside] = ab[2 * band.width + i[inside] - j[inside], j[inside]]
    assert np.array_equal(rebuilt, interleaved)
    assert not np.any(ab[:band.width])   # the rows left for the factorization's fill
    assert not (band.perm.flags.writeable or band.position.flags.writeable)
    b = np.random.default_rng(3).standard_normal(size)
    x = fv._band_solve(a, b, band)
    expected = fv._factor(a).solve(b)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


def test_pattern_above_the_direct_cutoff_has_no_band():
    # at m = 2, 22^2 cells make 968 unknowns, below the 2D cutoff, and 23^2 make 1058; a 1D
    # system has a band at any length
    assert fv.DIRECT_MAX_UNKNOWNS == {1: math.inf, 2: 1024}
    below = _fully_coupled_system((22, 22), (1.0, 1.0), (True, False)).matrix()
    above = _fully_coupled_system((23, 23), (1.0, 1.0), (True, False)).matrix()
    long_1d = _fully_coupled_system((513,), (1.0,), (True, False)).matrix()
    assert below.band is not None and below.band.width == 2 * 22 + 1
    assert above.band is None
    assert long_1d.band is not None and long_1d.band.width == 3
    # the pattern keeps no band and no copy of the decision; only a template does
    assert len(fv._pattern(Grid((23, 23), (1.0, 1.0)), 2, above.terms)) == 3


def test_matrix_built_after_the_2d_cutoff_is_raised_carries_a_band(monkeypatch):
    # the cutoff is read when a matrix is built, after its pattern is cached
    builder = _fully_coupled_system((24, 24), (1.0, 1.0), (True, False))
    assert builder.matrix().band is None
    monkeypatch.setitem(fv.DIRECT_MAX_UNKNOWNS, 2, 2 * 24 * 24)
    band = builder.matrix().band
    assert band is not None and band.width == 2 * 24 + 1
