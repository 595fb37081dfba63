"""Problem data for truncated cross-diffusion systems on structured grids.

Defines the coupled two-species (or m-species) parabolic system in flux form,

    d/dt u_i - div( delta_i grad u_i + clamp(u_i) * sum_j K_ij grad u_j ) = Q_i,

where clamp is the pointwise truncation of the coupling coefficient to
[0, ell].  The module owns the immutable problem-data containers (tensors,
grid, full spec), the truncation operator, ellipticity bounds of the
coupling tensors and pointwise flux evaluation.  A species without Dirichlet
data is closed (impermeable).  :func:`evaluate` is the package's one rule
that turns a datum (a callable, a scalar or a per-point array) into values,
and :func:`point_density` its one point source.  Everything here is pure and
side-effect free; discretization lives in :mod:`crossdiff.fv` and
:mod:`crossdiff.solver`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class InvalidParameterError(ValueError):
    """Raised when an operation receives out-of-contract parameters."""


class EllipticityError(ValueError):
    """Raised when a coupling tensor is not uniformly elliptic."""


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

def truncate(v: float, ell: float) -> float:
    """Clamp ``v`` to the interval [0, ell].

    Requires ``ell > 0``; the solver-internal :func:`clamp` additionally
    accepts ``ell == 0`` (fully decoupled system) and ``ell == inf``.
    """
    if not ell > 0.0:
        raise InvalidParameterError(f"truncation level must be positive, got {ell}")
    return clamp(v, ell)


def clamp(v, ell):
    """Truncation of the coupling coefficient, vectorized, ell >= 0 allowed."""
    if ell < 0.0:
        raise InvalidParameterError(f"truncation level must be nonnegative, got {ell}")
    if math.isinf(ell):
        return np.maximum(v, 0.0)
    return np.minimum(np.maximum(v, 0.0), ell)


# ---------------------------------------------------------------------------
# coupling tensors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossTensor:
    """Constant N x N coupling tensor (N = 1 or 2).

    Construction only checks the shape; ellipticity is established by
    :func:`ellipticity_bounds` so that malformed tensors can be *reported*
    by :func:`validate_spec` instead of aborting.
    """

    entries: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (1, 2):
            raise InvalidParameterError(f"tensor must be 1x1 or 2x2, got shape {a.shape}")
        object.__setattr__(self, "entries", tuple(tuple(float(x) for x in row) for row in a))

    @property
    def ndim(self) -> int:
        return len(self.entries)

    @property
    def matrix(self) -> np.ndarray:
        return np.asarray(self.entries, dtype=float)

    @staticmethod
    def isotropic(value: float, ndim: int) -> "CrossTensor":
        return CrossTensor(tuple(tuple(float(value) if i == j else 0.0 for j in range(ndim))
                                 for i in range(ndim)))

    def is_symmetric(self) -> bool:
        a = self.matrix
        return bool(np.array_equal(a, a.T))


def ellipticity_bounds(tensor: CrossTensor | np.ndarray) -> tuple[float, float]:
    """Extreme values (kmin, kmax) of the quadratic form xi . (K xi) on |xi| = 1.

    Equal to the extreme eigenvalues of the symmetric part (K + K^T)/2.
    Raises :class:`EllipticityError` when kmin <= 0.
    """
    a = tensor.matrix if isinstance(tensor, CrossTensor) else np.asarray(tensor, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (1, 2):
        raise InvalidParameterError(f"tensor must be 1x1 or 2x2, got shape {a.shape}")
    sym = 0.5 * (a + a.T)
    eig = np.linalg.eigvalsh(sym)
    kmin, kmax = float(eig[0]), float(eig[-1])
    if kmin <= 0.0:
        raise EllipticityError(f"tensor is not uniformly elliptic (kmin = {kmin})")
    return kmin, kmax


# ---------------------------------------------------------------------------
# grid and fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid over the box [0, extents[0]] x ... (1D or 2D)."""

    dims: tuple[int, ...]
    extents: tuple[float, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        extents = tuple(float(e) for e in self.extents)
        if len(dims) not in (1, 2) or len(dims) != len(extents):
            raise InvalidParameterError(f"grid must be 1D or 2D, got dims={dims}, extents={extents}")
        if any(n < 1 for n in dims) or any(e <= 0.0 for e in extents):
            raise InvalidParameterError("grid dims must be >= 1 and extents positive")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "extents", extents)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(e / n for e, n in zip(self.extents, self.dims))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.dims))

    @property
    def measure(self) -> float:
        return float(np.prod(self.extents))

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return (np.arange(self.dims[axis]) + 0.5) * h

    def cell_centers(self) -> np.ndarray:
        """Cell-center coordinates, shape (n_cells, ndim), C-order over dims."""
        axes = [self.axis_centers(d) for d in range(self.ndim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def flat_index(self) -> np.ndarray:
        return np.arange(self.n_cells).reshape(self.dims)

    def cell_of(self, points: np.ndarray) -> np.ndarray:
        """Flat index of the cell holding each point; a boundary face center gives its cell."""
        return np.ravel_multi_index(
            [np.clip(np.floor(points[:, d] * n / e).astype(int), 0, n - 1)
             for d, (e, n) in enumerate(zip(self.extents, self.dims))], self.dims)


# ---------------------------------------------------------------------------
# full problem specification
# ---------------------------------------------------------------------------

InitialData = Callable[[np.ndarray], np.ndarray] | np.ndarray | float
BoundaryData = Callable[[float, np.ndarray], np.ndarray] | np.ndarray | float | None
SourceData = Callable[[float, np.ndarray, np.ndarray], np.ndarray] | np.ndarray | float | None


def evaluate(data, n: int, *args) -> np.ndarray:
    """Fresh float array of the n values of one datum.

    A callable is called with ``args`` and its result broadcast to n values,
    a scalar fills n values, and an array must have shape (n,).
    """
    if callable(data):
        return np.broadcast_to(np.asarray(data(*args), dtype=float), (n,)).copy()
    a = np.asarray(data, dtype=float)
    if a.ndim == 0:
        return np.full(n, float(a))
    if a.shape != (n,):
        raise InvalidParameterError(f"data array has shape {a.shape}, expected ({n},)")
    return a.copy()


def point_density(grid: Grid, position: Sequence[float] | None, rate: float) -> np.ndarray:
    """Per-cell density of a point source: ``rate`` over the volume of its nearest cell.

    The source sits at ``position``, at the center of the box if that is None.
    A position needs one coordinate per axis, inside the closed box.
    """
    if position is None:
        position = [e / 2.0 for e in grid.extents]
    point = np.asarray(position, dtype=float)
    if point.shape != (grid.ndim,) or not np.all((point >= 0.0) & (point <= grid.extents)):
        raise InvalidParameterError(f"point position {position!r} must have {grid.ndim} "
                                    f"coordinates inside the box {grid.extents}")
    pts = grid.cell_centers()
    cell = int(np.argmin(np.linalg.norm(pts - point[None, :], axis=1)))
    density = np.zeros(grid.n_cells)
    density[cell] = rate / grid.cell_volume
    return density


@dataclass
class ModelSpec:
    """Complete problem data for the truncated cross-diffusion system.

    ``K[i][j]`` is the tensor multiplying grad u_j in the species-i flux.
    ``ell`` is the truncation level of the coupling coefficient; ``ell = 0``
    decouples the system and ``ell = inf`` clips at zero only.  Every datum
    is a callable, a scalar or a per-point array, turned into values by
    :func:`evaluate`: sources ``Q_i(t, points, u)`` are evaluated cell-wise at
    the previous time level (None is no source), Dirichlet traces
    ``g_i(t, points)`` on the boundary faces (None for a closed, impermeable
    species) and initial data ``f_i(points)`` at the cell centers.
    """

    m: int
    delta: Sequence[float]
    K: Sequence[Sequence[CrossTensor]]
    ell: float
    domain: tuple[float, ...]
    initial: Sequence[InitialData]
    dirichlet: Sequence[BoundaryData]
    sources: Sequence[SourceData] = field(default_factory=list)

    def __post_init__(self):
        self.m = int(self.m)
        if self.m < 1:
            raise InvalidParameterError("species count must be >= 1")
        self.delta = tuple(float(d) for d in self.delta)
        self.domain = tuple(float(e) for e in self.domain)
        if len(self.delta) != self.m:
            raise InvalidParameterError("delta must have one entry per species")
        if len(self.K) != self.m or any(len(row) != self.m for row in self.K):
            raise InvalidParameterError("K must be an m x m array of tensors")
        ndim = len(self.domain)
        for row in self.K:
            for t in row:
                if t.ndim != ndim:
                    raise InvalidParameterError("tensor dimension must match the domain dimension")
        if float(self.ell) < 0.0:
            raise InvalidParameterError("truncation level must be nonnegative")
        self.ell = float(self.ell)
        if not self.sources:
            self.sources = tuple(None for _ in range(self.m))
        if len(self.initial) != self.m or len(self.dirichlet) != self.m or len(self.sources) != self.m:
            raise InvalidParameterError("initial, dirichlet and sources must have one entry per species")

    @property
    def ndim(self) -> int:
        return len(self.domain)

    def initial_values(self, i: int, points: np.ndarray) -> np.ndarray:
        return evaluate(self.initial[i], points.shape[0], points)

    def dirichlet_values(self, i: int, t: float, points: np.ndarray) -> np.ndarray | None:
        g = self.dirichlet[i]
        return None if g is None else evaluate(g, points.shape[0], t, points)

    def source_values(self, i: int, t: float, points: np.ndarray, u: np.ndarray) -> np.ndarray:
        q = self.sources[i]
        return evaluate(0.0 if q is None else q, points.shape[0], t, points, u)


def species_flux(i: int, grads: np.ndarray, u_i: float | np.ndarray,
                 spec: ModelSpec) -> np.ndarray:
    """Flux of species i: delta_i grad u_i + clamp(u_i) sum_j K_ij grad u_j.

    At one point ``grads`` is (m, ndim) and ``u_i`` a number, and the flux is
    (ndim,); at n points ``grads`` is (m, n, ndim) and ``u_i`` is (n,), and the
    flux is (n, ndim).  K_ij grad u_j is a product summed over its last axis, so
    each row of an n-point flux is the one-point flux bit for bit.
    """
    g = np.atleast_2d(np.asarray(grads, dtype=float))
    if g.shape[0] != spec.m:
        raise InvalidParameterError(f"grads must have {spec.m} rows, got {g.shape[0]}")
    out = spec.delta[i] * g[i]
    coeff = np.asarray(clamp(u_i, spec.ell), dtype=float)[..., None]
    for j in range(spec.m):
        out = out + coeff * np.sum(spec.K[i][j].matrix * g[j][..., None, :], axis=-1)
    return out


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

COMPATIBILITY_TOL = 1e-10


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, message: str) -> None:
        self.violations.append(Violation(code, message))

    def codes(self) -> list[str]:
        return [v.code for v in self.violations]


def validate_spec(spec: ModelSpec, grid: Grid) -> ValidationReport:
    """Collect every spec violation; never raises.

    Checks finite positive diffusivities, a truncation level that is not
    nan, ellipticity of all coupling tensors, nonnegative boundary and
    initial data, domain/grid agreement, and the initial/boundary
    compatibility at t = 0 on boundary faces (for callable initial data the
    trace is evaluated at the face center, for array data the adjacent
    boundary-cell value stands in), each sign and gap up to
    ``COMPATIBILITY_TOL``.  Closed species carry no boundary data to check.
    """
    report = ValidationReport()
    for i, d in enumerate(spec.delta):
        if not math.isfinite(d):
            report.add("non-finite-delta", f"delta_{i + 1} = {d} is not finite")
        elif not d > 0.0:
            report.add("degenerate-diffusivity", f"delta_{i + 1} = {d} is not positive")
    if math.isnan(spec.ell):
        report.add("nan-ell", "ell is nan; a truncation level is a number >= 0 or inf")
    for i in range(spec.m):
        for j in range(spec.m):
            try:
                ellipticity_bounds(spec.K[i][j])
            except EllipticityError as exc:
                report.add("non-elliptic-tensor", f"K[{i + 1}][{j + 1}]: {exc}")
    if len(spec.domain) != grid.ndim or any(
            abs(a - b) > 1e-12 * max(1.0, abs(b)) for a, b in zip(spec.domain, grid.extents)):
        report.add("domain-mismatch",
                   f"spec domain {spec.domain} does not match grid extents {grid.extents}")
        return report

    from .fv import face_table  # fv imports this module

    points = grid.cell_centers()
    ft = face_table(grid)
    for i in range(spec.m):
        u0 = spec.initial_values(i, points)
        if np.any(u0 < -COMPATIBILITY_TOL):
            report.add("negative-initial",
                       f"initial data of species {i + 1} dips to {float(u0.min())}")
        gb = spec.dirichlet_values(i, 0.0, ft.bnd_points)
        if gb is None:
            continue
        if np.any(gb < -COMPATIBILITY_TOL):
            report.add("negative-dirichlet",
                       f"boundary data of species {i + 1} dips to {float(gb.min())}")
        if callable(spec.initial[i]):
            u0_trace = spec.initial_values(i, ft.bnd_points)
        else:
            u0_trace = u0[ft.bnd_cell]
        gap = np.abs(u0_trace - gb)
        if np.any(gap > COMPATIBILITY_TOL):
            k = int(np.argmax(gap))
            report.add("compatibility",
                       f"species {i + 1}: initial/boundary mismatch {float(gap[k])} at {ft.bnd_points[k]}")
    return report
