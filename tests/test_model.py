import dataclasses
import math

import numpy as np
import pytest

from crossdiff.fv import face_table
from crossdiff.model import (COMPATIBILITY_TOL, CrossTensor, EllipticityError, Grid,
                             InvalidParameterError, ModelSpec, clamp,
                             ellipticity_bounds, evaluate, point_density, species_flux,
                             truncate, validate_spec)
from crossdiff.solver import StepperConfig, run

from conftest import coupled_spec_2d, product_sine


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

def test_truncate_examples():
    assert truncate(3.0, 2.0) == 2.0
    assert truncate(-1.0, 2.0) == 0.0
    assert truncate(1.5, 2.0) == 1.5


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_truncate_rejects_nonpositive_level(bad):
    with pytest.raises(InvalidParameterError):
        truncate(1.0, bad)


def test_truncate_properties():
    rng = np.random.default_rng(42)
    for _ in range(200):
        ell = float(rng.uniform(0.1, 5.0))
        a, b = rng.uniform(-10, 10, size=2)
        ta, tb = truncate(a, ell), truncate(b, ell)
        assert ta == truncate(ta, ell)                      # idempotent
        assert 0.0 <= ta <= ell                             # bounded
        if a <= b:
            assert ta <= tb                                 # nondecreasing
        assert abs(ta - tb) <= abs(a - b) + 1e-15           # 1-Lipschitz


def test_clamp_zero_level_decouples():
    assert clamp(0.7, 0.0) == 0.0
    assert clamp(-0.7, 0.0) == 0.0
    assert np.all(clamp(np.array([-1.0, 0.5, 3.0]), np.inf) == [0.0, 0.5, 3.0])


# ---------------------------------------------------------------------------
# ellipticity
# ---------------------------------------------------------------------------

def test_ellipticity_examples():
    assert ellipticity_bounds(np.eye(2)) == (1.0, 1.0)
    assert ellipticity_bounds(np.diag([1.0, 2.0])) == (1.0, 2.0)
    kmin, kmax = ellipticity_bounds(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert kmin == pytest.approx(0.5, abs=1e-14)
    assert kmax == pytest.approx(1.5, abs=1e-14)


def test_ellipticity_brute_force_unit_circle():
    # quadratic-form extrema over 1e6 unit vectors approach the eigenvalues
    k = np.array([[1.0, 1.0], [0.0, 1.0]])
    theta = np.linspace(0.0, 2.0 * np.pi, 10 ** 6, endpoint=False)
    xi = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    q = np.einsum("nd,de,ne->n", xi, k, xi)
    kmin, kmax = ellipticity_bounds(k)
    assert q.min() == pytest.approx(kmin, abs=1e-9)
    assert q.max() == pytest.approx(kmax, abs=1e-9)
    assert np.all(q >= kmin - 1e-12) and np.all(q <= kmax + 1e-12)


def test_ellipticity_sandwich_property():
    rng = np.random.default_rng(7)
    for k in [np.array([[2.0, 0.3], [0.1, 1.0]]), np.array([[1.5]])]:
        kmin, kmax = ellipticity_bounds(k)
        n = k.shape[0]
        xi = rng.normal(size=(10 ** 4, n))
        xi /= np.linalg.norm(xi, axis=1)[:, None]
        q = np.einsum("nd,de,ne->n", xi, k, xi)
        assert np.all(q >= kmin - 1e-12)
        assert np.all(q <= kmax + 1e-12)


def test_ellipticity_violation_raises():
    with pytest.raises(EllipticityError):
        ellipticity_bounds(np.array([[1.0, 3.0], [0.0, 1.0]]))
    with pytest.raises(EllipticityError):
        ellipticity_bounds(np.array([[-1.0]]))


def test_cross_tensor_shape_checks():
    with pytest.raises(InvalidParameterError):
        CrossTensor(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
    t = CrossTensor.isotropic(2.0, 2)
    assert t.is_symmetric()
    assert ellipticity_bounds(t) == (2.0, 2.0)


# ---------------------------------------------------------------------------
# pointwise flux
# ---------------------------------------------------------------------------

def _flux_spec_1d(ell):
    iso = CrossTensor.isotropic
    return ModelSpec(m=2, delta=[1.0, 1.0],
                     K=[[iso(1.0, 1), iso(1.0, 1)], [iso(1.0, 1), iso(1.0, 1)]],
                     ell=ell, domain=(1.0,), initial=[0.0, 0.0], dirichlet=[0.0, 0.0])


def test_species_flux_examples():
    spec = _flux_spec_1d(ell=2.0)
    grads = np.array([[2.0], [3.0]])
    assert species_flux(0, grads, 1.0, spec) == pytest.approx([7.0])
    assert species_flux(0, grads, -0.5, spec) == pytest.approx([2.0])
    spec0 = _flux_spec_1d(ell=0.0)
    assert species_flux(0, grads, 1.0, spec0) == pytest.approx([2.0])


def test_species_flux_linear_in_gradients():
    spec = coupled_spec_2d(ell=1.0)
    rng = np.random.default_rng(3)
    g1 = rng.normal(size=(2, 2))
    g2 = rng.normal(size=(2, 2))
    a, b = 0.7, -1.3
    lhs = species_flux(0, a * g1 + b * g2, 0.4, spec)
    rhs = a * species_flux(0, g1, 0.4, spec) + b * species_flux(0, g2, 0.4, spec)
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_species_flux_at_n_points_equals_single_point_calls():
    rng = np.random.default_rng(11)
    for spec in (coupled_spec_2d(ell=1.0), _flux_spec_1d(ell=2.0)):
        n = 40
        grads = rng.normal(size=(spec.m, n, spec.ndim))
        u = rng.uniform(-0.5, 2.5, size=n)  # below 0, inside (0, ell) and above ell
        for i in range(spec.m):
            flux = species_flux(i, grads, u, spec)
            assert flux.shape == (n, spec.ndim)
            assert np.array_equal(flux, [species_flux(i, grads[:, p], u[p], spec)
                                         for p in range(n)])


def test_species_flux_piecewise_linear_in_u():
    spec = coupled_spec_2d(ell=1.0)
    grads = np.array([[1.0, -0.5], [0.25, 2.0]])
    us = np.linspace(-0.5, 1.5, 201)
    vals = np.array([species_flux(0, grads, u, spec) for u in us])
    # continuous: small steps give small changes
    assert np.max(np.abs(np.diff(vals, axis=0))) < 0.1
    # linear strictly inside (0, ell): second differences vanish
    inside = (us[1:-1] > 0.05) & (us[1:-1] < 0.95)
    second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    assert np.max(np.abs(second[inside])) < 1e-12


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_wellformed(grid_12):
    report = validate_spec(coupled_spec_2d(), grid_12)
    assert report.ok


def test_validate_degenerate_diffusivity(grid_12):
    spec = coupled_spec_2d()
    spec.delta = (0.0, 1.0)
    assert "degenerate-diffusivity" in validate_spec(spec, grid_12).codes()


@pytest.mark.parametrize("field, value, code", [
    ("ell", math.nan, "nan-ell"),
    ("delta", (math.inf, 1.0), "non-finite-delta"),
    ("delta", (1.0, math.nan), "non-finite-delta"),
])
def test_non_finite_model_data_rejected_before_any_solve(field, value, code):
    # a run with such data once stopped at the first solve as a singular factorization
    grid = Grid((6, 6), (1.0, 1.0))
    spec = dataclasses.replace(coupled_spec_2d(), **{field: value})
    assert code in validate_spec(spec, grid).codes()
    with pytest.raises(InvalidParameterError, match=code):
        run(spec, grid, StepperConfig(dt=1e-3, t_end=2e-3))


def test_validate_non_elliptic_tensor(grid_12):
    spec = coupled_spec_2d()
    spec.K[0][1] = CrossTensor(((1.0, 3.0), (0.0, 1.0)))
    assert "non-elliptic-tensor" in validate_spec(spec, grid_12).codes()


def test_validate_compatibility_violation(grid_12):
    spec = coupled_spec_2d()
    spec.dirichlet = (0.5, 0.0)  # initial vanishes on the boundary, trace does not
    codes = validate_spec(spec, grid_12).codes()
    assert "compatibility" in codes


def test_validate_negative_initial(grid_12):
    spec = coupled_spec_2d()
    spec.initial = (lambda p: -0.1 * np.ones(p.shape[0]), product_sine(0.8))
    codes = validate_spec(spec, grid_12).codes()
    assert "negative-initial" in codes
    assert "compatibility" in codes


def test_validate_array_initial_boundary_cells(grid_12):
    # array data: boundary-cell value stands in for the trace
    spec = coupled_spec_2d()
    spec.initial = (np.full(grid_12.n_cells, 0.3), np.full(grid_12.n_cells, 0.3))
    spec.dirichlet = (0.3, 0.3)
    assert validate_spec(spec, grid_12).ok
    spec.dirichlet = (0.3 + 10 * COMPATIBILITY_TOL, 0.3)
    assert "compatibility" in validate_spec(spec, grid_12).codes()


def test_validate_domain_mismatch():
    spec = coupled_spec_2d()
    assert "domain-mismatch" in validate_spec(spec, Grid((8, 8), (2.0, 1.0))).codes()


# ---------------------------------------------------------------------------
# data evaluation
# ---------------------------------------------------------------------------

DATA_GRID = Grid((4, 3), (1.0, 0.75))
VALUE = 0.1 + 1.0 / 3.0


def _datum_values(datum: str, data) -> np.ndarray:
    """Values of one datum of a one-species spec, every other datum zero."""
    data_of = {"initial": 0.0, "dirichlet": 0.0, "source": None, datum: data}
    spec = ModelSpec(m=1, delta=[1.0], K=[[CrossTensor.isotropic(1.0, 2)]], ell=1.0,
                     domain=DATA_GRID.extents, initial=[data_of["initial"]],
                     dirichlet=[data_of["dirichlet"]], sources=[data_of["source"]])
    pts, bnd = DATA_GRID.cell_centers(), face_table(DATA_GRID).bnd_points
    u = np.zeros((1, DATA_GRID.n_cells))
    return {"initial": lambda: spec.initial_values(0, pts),
            "dirichlet": lambda: spec.dirichlet_values(0, 0.5, bnd),
            "source": lambda: spec.source_values(0, 0.5, pts, u)}[datum]()


def _datum_length(datum: str) -> int:
    return face_table(DATA_GRID).n_boundary if datum == "dirichlet" else DATA_GRID.n_cells


@pytest.mark.parametrize("datum", ["initial", "dirichlet", "source"])
def test_scalar_array_and_callable_data_agree(datum):
    array = np.full(_datum_length(datum), VALUE)
    call = {"initial": lambda p: array, "dirichlet": lambda t, p: array,
            "source": lambda t, p, u: array}[datum]
    values = [_datum_values(datum, d) for d in (VALUE, array, call)]
    for v in values:
        assert v.dtype == float and v.tobytes() == values[0].tobytes()
    assert values[1] is not array


@pytest.mark.parametrize("datum", ["initial", "dirichlet", "source"])
def test_wrong_length_data_array_rejected(datum):
    n = _datum_length(datum)
    with pytest.raises(InvalidParameterError, match=rf"expected \({n},\)"):
        _datum_values(datum, np.full(n + 1, VALUE))


def test_evaluate_broadcasts_callables_and_copies_arrays():
    array = np.arange(3.0)
    out = evaluate(array, 3)
    out[0] = 7.0
    assert array[0] == 0.0
    assert evaluate(lambda t, p: t * p, 3, 2.0, 1.5).tolist() == [3.0, 3.0, 3.0]
    assert evaluate(2, 2).tolist() == [2.0, 2.0]
    with pytest.raises(InvalidParameterError, match=r"expected \(3,\)"):
        evaluate(np.zeros((3, 1)), 3)


@pytest.mark.parametrize("grid, position", [
    (Grid((10,), (2.0,)), [0.73]),
    (Grid((4, 5), (1.0, 1.5)), [0.6, 1.0]),
])
def test_point_density_is_rate_over_nearest_cell_volume(grid, position):
    density = point_density(grid, position, 0.3)
    pts = grid.cell_centers()
    nearest = int(np.argmin(np.linalg.norm(pts - np.asarray(position)[None, :], axis=1)))
    expected = np.zeros(grid.n_cells)
    expected[nearest] = 0.3 / grid.cell_volume
    assert density.tobytes() == expected.tobytes()
    assert nearest == (3 if grid.ndim == 1 else 2 * 5 + 3)
    assert np.sum(density) * grid.cell_volume == pytest.approx(0.3, rel=1e-15)


@pytest.mark.parametrize("grid, position", [
    (Grid((8,), (1.0,)), [0.5, 0.5, 9]),
    (Grid((8,), (1.0,)), [0.5, 0.5]),
    (Grid((4, 4), (1.0, 1.0)), [0.5]),
    (Grid((4, 4), (1.0, 1.0)), [5.0, 5.0]),
    (Grid((4, 4), (1.0, 1.0)), [0.5, -0.1]),
    (Grid((4, 4), (1.0, 2.0)), [0.5, math.nan]),
])
def test_point_density_rejects_misplaced_position(grid, position):
    with pytest.raises(InvalidParameterError, match="position"):
        point_density(grid, position, 0.3)


# ---------------------------------------------------------------------------
# grid and field containers
# ---------------------------------------------------------------------------

def test_grid_geometry():
    g = Grid((4, 8), (2.0, 1.0))
    assert g.spacing == (0.5, 0.125)
    assert g.cell_volume == pytest.approx(0.0625)
    assert g.n_cells == 32
    assert g.measure == pytest.approx(2.0)
    pts = g.cell_centers()
    assert pts.shape == (32, 2)
    assert pts[0] == pytest.approx([0.25, 0.0625])


def test_grid_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        Grid((0,), (1.0,))
    with pytest.raises(InvalidParameterError):
        Grid((4, 4, 4), (1.0, 1.0, 1.0))
