"""Structured finite-volume machinery shared by every assembly in the package.

Cell-centered two-point flux approximation on uniform 1D/2D grids.  For a
face between cells L and R along axis d the discrete flux (oriented so that
a positive value feeds cell L)

    F = g * (u_R - u_L) / h_d

carries a per-face scalar coefficient ``g`` that already bundles diffusivity,
truncated coupling coefficient and tensor entry.  Dirichlet boundaries are
eliminated through ghost values at half-cell distance; ``closed`` boundaries
(traces None) simply carry no flux.  Off-diagonal tensor entries contribute
tangential face gradients that are treated explicitly by the callers.
:func:`face_table` enumerates the boundary faces of a grid once, with their
half-widths and areas; every other module reads that table.
:class:`SystemBuilder` assembles every block system of the package: it
records each matrix contribution as a structural term plus its values, can
rewrite the recorded system in other unknowns by fixed block maps, and sums
the values into a CSR pattern that :func:`_pattern` derives once per grid,
species count and term sequence.
:func:`solve_sparse` is the package's one linear solve: a sparse direct
factorization for small block systems, restarted GMRES for large ones,
block-Jacobi preconditioned by the SuperLU factors of the species diagonal
blocks that a run keeps in its :class:`BlockFactors`; the same true-residual
contract holds on both paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .model import Grid


class SolverFailure(RuntimeError):
    """Linear solver did not reach its tolerance.

    ``time`` is the failing step's target time; run loops attach the
    trajectory completed so far as ``partial``.
    """

    def __init__(self, message: str, residual: float = float("nan"), time: float | None = None):
        super().__init__(message)
        self.residual = residual
        self.time = time
        self.partial = None


@dataclass(frozen=True)
class FaceTable:
    """Interior and boundary face connectivity of a grid.

    Interior faces are stored per axis as flat cell indices (left, right);
    boundary faces as (cell, axis, side, face-center coordinates) where
    side 0 is the low end of the axis.  ``spacing`` and ``area`` hold the
    per-axis cell width and face area, ``bnd_half`` and ``bnd_area`` the
    half-width and area of every boundary face.  The table is cached per
    grid and its arrays reach user callables (``bnd_points``), so every
    array is read-only.
    """

    grid: Grid
    int_left: tuple[np.ndarray, ...]
    int_right: tuple[np.ndarray, ...]
    bnd_cell: np.ndarray
    bnd_axis: np.ndarray
    bnd_side: np.ndarray
    bnd_points: np.ndarray
    spacing: tuple[float, ...]
    area: tuple[float, ...]
    bnd_half: np.ndarray
    bnd_area: np.ndarray

    @property
    def n_boundary(self) -> int:
        return len(self.bnd_cell)


@lru_cache(maxsize=None)
def face_table(grid: Grid) -> FaceTable:
    idx = grid.flat_index()
    int_left, int_right = [], []
    for axis in range(grid.ndim):
        sl_l = [slice(None)] * grid.ndim
        sl_r = [slice(None)] * grid.ndim
        sl_l[axis] = slice(None, -1)
        sl_r[axis] = slice(1, None)
        int_left.append(idx[tuple(sl_l)].ravel())
        int_right.append(idx[tuple(sl_r)].ravel())

    cells, axes, sides, pts = [], [], [], []
    centers = [grid.axis_centers(d) for d in range(grid.ndim)]
    for axis in range(grid.ndim):
        for side in (0, 1):
            sl = [slice(None)] * grid.ndim
            sl[axis] = 0 if side == 0 else -1
            sel = np.atleast_1d(idx[tuple(sl)]).ravel()
            coord = 0.0 if side == 0 else grid.extents[axis]
            p = np.empty((len(sel), grid.ndim))
            p[:, axis] = coord
            if grid.ndim == 2:
                p[:, 1 - axis] = centers[1 - axis]
            cells.append(sel)
            axes.append(np.full(len(sel), axis, dtype=int))
            sides.append(np.full(len(sel), side, dtype=int))
            pts.append(p)
    spacing = grid.spacing
    area = tuple(grid.cell_volume / h for h in spacing)
    bnd_axis = np.concatenate(axes)
    ft = FaceTable(grid,
                   tuple(int_left), tuple(int_right),
                   np.concatenate(cells), bnd_axis,
                   np.concatenate(sides), np.concatenate(pts, axis=0),
                   spacing, area,
                   np.array(spacing)[bnd_axis] / 2.0, np.array(area)[bnd_axis])
    for a in (*ft.int_left, *ft.int_right, ft.bnd_cell, ft.bnd_axis, ft.bnd_side,
              ft.bnd_points, ft.bnd_half, ft.bnd_area):
        a.flags.writeable = False
    return ft


# ---------------------------------------------------------------------------
# face values and gradients
# ---------------------------------------------------------------------------

def interior_gradient(ft: FaceTable, u: np.ndarray, axis: int) -> np.ndarray:
    """(u_R - u_L) / h on the interior faces of one axis."""
    return (u[ft.int_right[axis]] - u[ft.int_left[axis]]) / ft.spacing[axis]


def boundary_gradient(ft: FaceTable, u: np.ndarray, traces: np.ndarray | None) -> np.ndarray:
    """Outward-oriented gradient (trace - u_cell) / (h/2) on boundary faces.

    Positive values mean the trace exceeds the adjacent cell value; closed
    boundaries (traces None) have zero gradient.
    """
    if traces is None:
        return np.zeros(ft.n_boundary)
    return (traces - u[ft.bnd_cell]) / ft.bnd_half


def upwind_face_value(w_left, w_right, driver) -> np.ndarray:
    """Donor value selected by the sign of the driving face gradient.

    ``driver > 0`` feeds the left cell from the right one, so the donor is
    the right side; ties average.
    """
    w_left = np.asarray(w_left, dtype=float)
    w_right = np.asarray(w_right, dtype=float)
    driver = np.asarray(driver, dtype=float)
    return np.where(driver > 0.0, w_right,
                    np.where(driver < 0.0, w_left, 0.5 * (w_left + w_right)))


def centered_face_value(w_left, w_right, driver=None) -> np.ndarray:
    return 0.5 * (np.asarray(w_left, dtype=float) + np.asarray(w_right, dtype=float))


def cell_gradient(ft: FaceTable, u: np.ndarray, axis: int,
                  traces: np.ndarray | None) -> np.ndarray:
    """Cell-centered gradient along one axis, averaged from face differences.

    Boundary faces use the Dirichlet trace at half-cell distance when
    available and are skipped for closed boundaries (one-sided average).
    """
    grid = ft.grid
    n = grid.n_cells
    acc = np.zeros(n)
    cnt = np.zeros(n)
    g_int = interior_gradient(ft, u, axis)
    np.add.at(acc, ft.int_left[axis], g_int)
    np.add.at(acc, ft.int_right[axis], g_int)
    np.add.at(cnt, ft.int_left[axis], 1.0)
    np.add.at(cnt, ft.int_right[axis], 1.0)
    if traces is not None:
        sel = ft.bnd_axis == axis
        cells = ft.bnd_cell[sel]
        sides = ft.bnd_side[sel]
        half = ft.spacing[axis] / 2.0
        # oriented along +axis: low side has the ghost on the left
        g_b = np.where(sides == 0,
                       (u[cells] - traces[sel]) / half,
                       (traces[sel] - u[cells]) / half)
        np.add.at(acc, cells, g_b)
        np.add.at(cnt, cells, 1.0)
    cnt[cnt == 0.0] = 1.0
    return acc / cnt


# ---------------------------------------------------------------------------
# sparse system assembly
# ---------------------------------------------------------------------------

# Patterns kept at once; one run assembles with a single term sequence, so a
# few entries cover a run plus the short runs of a study around it.
PATTERN_CACHE_SIZE = 4


def _term_index(ft: FaceTable, n: int, term: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of one structural term, in its value order."""
    r0, c0 = term[1] * n, term[2] * n
    if term[0] == "mass":
        idx = np.arange(n)
        return r0 + idx, c0 + idx
    if term[0] == "bnd":
        return r0 + ft.bnd_cell, c0 + ft.bnd_cell
    L, R = ft.int_left[term[3]], ft.int_right[term[3]]
    return (np.concatenate((r0 + L, r0 + L, r0 + R, r0 + R)),
            np.concatenate((c0 + L, c0 + R, c0 + R, c0 + L)))


@lru_cache(maxsize=PATTERN_CACHE_SIZE)
def _pattern(grid: Grid, m: int, terms: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR structure of the block matrix assembled from ``terms``.

    Returns (indptr, indices, slot), where ``slot[k]`` is the CSR position of
    the k-th entry of the concatenated term values.  The structure is that
    of summing the terms' triplets: every (row, col) pair a term touches is
    stored, explicit zeros included, with sorted column indices.  The arrays
    are read-only because every matrix built on the pattern shares them.
    """
    ft = face_table(grid)
    n = grid.n_cells
    size = m * n
    pairs = [_term_index(ft, n, term) for term in terms]
    keys = np.concatenate([r.astype(np.int64) * size + c for r, c in pairs])
    unique, slot = np.unique(keys, return_inverse=True)
    index_dtype = np.int32 if max(size, len(unique)) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(size + 1, dtype=index_dtype)
    np.cumsum(np.bincount(unique // size, minlength=size), out=indptr[1:])
    indices = (unique % size).astype(index_dtype)
    for a in (indptr, indices, slot):
        a.flags.writeable = False
    return indptr, indices, slot


def _map_blocks(mat: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Stacked rows sum_j mat[i, j] * blocks[j], over nonzero entries only (exact for +-1)."""
    return np.concatenate([reduce(np.add, [c * b for c, b in zip(row, blocks) if c])
                           for row in mat])


class SystemBuilder:
    """Block system over m species on one grid, assembled term by term.

    Each matrix contribution is recorded as a structural term on the block
    (row_sp, col_sp), plus its value array: ``("mass", row_sp, col_sp)``
    on the block diagonal, ``("face", row_sp, col_sp, axis)`` on the two
    cells of every interior face of one axis, with values in the order
    (LL, LR, RR, RL), and ``("bnd", row_sp, col_sp)`` on the cell of every
    boundary face.  The right-hand side is accumulated directly.
    :meth:`change_unknowns` rewrites the recorded system in other unknowns,
    to which :meth:`to_unknowns` and :meth:`to_state` map the state and back.
    :meth:`matrix` looks up the CSR pattern of the term sequence, computed
    once per (grid, m, terms) by :func:`_pattern`, and sums the values into
    it.
    """

    def __init__(self, grid: Grid, m: int):
        self.grid = grid
        self.ft = face_table(grid)
        self.m = m
        self.n = grid.n_cells
        self.terms: list[tuple] = []
        self.vals: list[np.ndarray] = []
        self.rhs = np.zeros(m * self.n)
        self.p = None  # block map from the solved unknowns to the state; None: the state

    def _block(self, species: int, idx: np.ndarray) -> np.ndarray:
        return species * self.n + idx

    def add_term(self, term: tuple, v: np.ndarray) -> None:
        """Record one structural term with its per-entry values."""
        self.terms.append(term)
        self.vals.append(np.asarray(v, dtype=float))

    def add_mass(self, species: int, coeff: float) -> None:
        """coeff * u on the diagonal of one species block (volume-scaled)."""
        self.add_term(("mass", species, species), np.full(self.n, coeff * self.grid.cell_volume))

    def change_unknowns(self, q, p) -> None:
        """Rewrite the recorded system A x = b in place as (Q A P) y = Q b, x = P y.

        ``q`` and ``p`` are m x m block maps whose entry (i, j) scales the
        identity block (i, j), so each term of the block (r, c) becomes one
        copy on every block (i, j) with q[i][r] and p[c][j] nonzero.
        """
        q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
        self.p = p if self.p is None else self.p @ p
        terms, vals = [], []
        for term, v in zip(self.terms, self.vals):
            r, c = term[1], term[2]
            for i in np.flatnonzero(q[:, r]):
                for j in np.flatnonzero(p[c]):
                    terms.append((term[0], int(i), int(j), *term[3:]))
                    vals.append(q[i, r] * p[c, j] * v)
        self.terms, self.vals = terms, vals
        self.rhs = _map_blocks(q, self.rhs.reshape(self.m, self.n))

    def to_unknowns(self, u: np.ndarray) -> np.ndarray:
        """The stacked state ``u`` (m, n) in the solved unknowns, y = P^-1 u."""
        return u.flatten() if self.p is None else _map_blocks(np.linalg.inv(self.p), u)

    def to_state(self, x: np.ndarray) -> np.ndarray:
        """The stacked state (m, n) of a solution ``x``, u = P x."""
        x = x.reshape(self.m, self.n)
        return x if self.p is None else _map_blocks(self.p, x).reshape(self.m, self.n)

    def add_rhs(self, species: int, values: np.ndarray) -> None:
        self.rhs[species * self.n:(species + 1) * self.n] += values

    def add_tpfa(self, row_sp: int, col_sp: int,
                 g_int: dict[int, np.ndarray],
                 g_bnd: np.ndarray | None,
                 traces: np.ndarray | None) -> None:
        """Two-point term -div(g grad u_colsp) added to the row-species residual.

        ``g_int[axis]`` holds per-interior-face coefficients; ``g_bnd`` the
        per-boundary-face ones (ignored for closed boundaries, traces None).
        """
        ft = self.ft
        for axis, g in g_int.items():
            t = g * ft.area[axis] / ft.spacing[axis]
            self.add_term(("face", row_sp, col_sp, axis), np.concatenate((t, -t, t, -t)))
        if traces is not None and g_bnd is not None:
            t = g_bnd * ft.bnd_area / ft.bnd_half
            self.add_term(("bnd", row_sp, col_sp), t)
            np.add.at(self.rhs, self._block(row_sp, ft.bnd_cell), t * traces)

    def add_explicit_flux(self, row_sp: int,
                          f_int: dict[int, np.ndarray],
                          f_bnd: np.ndarray | None) -> None:
        """Add a fully evaluated face flux (per unit area) to the RHS."""
        ft = self.ft
        for axis, f in f_int.items():
            fa = f * ft.area[axis]
            np.add.at(self.rhs, self._block(row_sp, ft.int_left[axis]), fa)
            np.add.at(self.rhs, self._block(row_sp, ft.int_right[axis]), -fa)
        if f_bnd is not None:
            np.add.at(self.rhs, self._block(row_sp, ft.bnd_cell), f_bnd * ft.bnd_area)

    def matrix(self) -> sparse.csr_matrix:
        indptr, indices, slot = _pattern(self.grid, self.m, tuple(self.terms))
        data = np.bincount(slot, weights=np.concatenate(self.vals), minlength=len(indices))
        n = self.m * self.n
        a = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
        a.has_canonical_format = True
        return a


def boundary_flux_integral(ft: FaceTable, g_bnd: np.ndarray,
                           u: np.ndarray, traces: np.ndarray | None) -> float:
    """Total boundary inflow sum_f g * (trace - u_cell)/(h/2) * area (closed: 0)."""
    if traces is None:
        return 0.0
    return float(np.sum(g_bnd * (traces - u[ft.bnd_cell]) / ft.bnd_half * ft.bnd_area))


# ---------------------------------------------------------------------------
# linear solve
# ---------------------------------------------------------------------------

# Systems up to this size are factored whole: at 2048 unknowns a SuperLU
# factor plus solve costs about what one GMRES solve does, while at 32768 the
# whole factor holds ~5 M nonzeros (~58 MB).  Larger systems take GMRES,
# preconditioned by factors of their species diagonal blocks.
DIRECT_MAX_UNKNOWNS = 4096

# A solve that needed more preconditioner applications than this makes the
# next solve refactor the species blocks from its own matrix.
REFACTOR_AFTER = 30

# Column ordering of every SuperLU factor: the two-point blocks are
# structurally symmetric, and minimum degree on A^T + A fills them less than
# the default COLAMD.
ORDERING = "MMD_AT_PLUS_A"


def _factor(a: sparse.spmatrix, time: float | None):
    try:
        return spla.splu(a.tocsc(), permc_spec=ORDERING)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SolverFailure(f"sparse factorization failed: {exc}", time=time) from exc


class BlockFactors:
    """Block-Jacobi preconditioner of one run: SuperLU factors of the m species blocks.

    A run makes one holder and passes it to every :func:`solve_sparse` call,
    so no factor outlives its run.  The factors of the diagonal blocks
    ``A_ii`` are kept across Picard sweeps and steps; a solve refactors them
    from its own matrix only when the previous solve needed more than
    :data:`REFACTOR_AFTER` preconditioner applications.  ``iters`` counts the
    applications of the latest solve (its GMRES inner iterations plus one per
    restart cycle and one for the start; 0 after a direct solve),
    ``refactored`` says whether that solve factored afresh and ``b_norm``
    holds the 2-norm of its right-hand side.
    """

    def __init__(self, m: int):
        self.m = m
        self.blocks: list | None = None
        self.iters = 0
        self.refactored = False
        self.b_norm = 0.0

    def preconditioner(self, a: sparse.csr_matrix, time: float | None) -> spla.LinearOperator:
        self.refactored = self.blocks is None or self.iters > REFACTOR_AFTER
        if self.refactored:
            n = a.shape[0] // self.m
            self.blocks = None  # free the old factors before building new ones
            self.blocks = [_factor(a[k * n:(k + 1) * n, k * n:(k + 1) * n], time)
                           for k in range(self.m)]
        self.iters = 0
        return spla.LinearOperator(a.shape, matvec=self._apply, dtype=float)

    def _apply(self, r: np.ndarray) -> np.ndarray:
        self.iters += 1
        n = len(r) // self.m
        return np.concatenate([lu.solve(r[k * n:(k + 1) * n])
                               for k, lu in enumerate(self.blocks)])


def solve_sparse(a: sparse.csr_matrix, b: np.ndarray, tol: float, maxiter: int,
                 restart: int = 60, time: float | None = None,
                 x0: np.ndarray | None = None,
                 factors: BlockFactors | None = None) -> tuple[np.ndarray, float]:
    """Solve ``a x = b`` to relative true residual ``tol``; return (x, residual).

    Systems of at most :data:`DIRECT_MAX_UNKNOWNS` unknowns take a SuperLU
    solve.  Larger ones take restarted GMRES, at most ``maxiter`` inner
    iterations per call, preconditioned by the species-block factors held
    in ``factors`` (without a holder, the whole system is one block).  The
    preconditioned stopping test can be optimistic, so the true residual is
    verified and the iteration continued once at a tighter tolerance.
    Either way a residual above ``tol``, a singular or a non-finite system
    raises :class:`SolverFailure`, which carries the final relative residual.
    """
    if factors is None:
        factors = BlockFactors(1)
    bnorm = factors.b_norm = float(np.linalg.norm(b))
    if bnorm == 0.0 or a.shape[0] <= DIRECT_MAX_UNKNOWNS:
        factors.iters, factors.refactored = 0, False
    if bnorm == 0.0:
        return np.zeros_like(b), 0.0
    if a.shape[0] <= DIRECT_MAX_UNKNOWNS:
        x = _factor(a, time).solve(b)
        residual = float(np.linalg.norm(b - a @ x)) / bnorm
        if residual <= tol:
            return x, residual
    else:
        precond = factors.preconditioner(a, time)
        restart = max(1, min(restart, maxiter))
        outer = max(1, int(np.ceil(maxiter / restart)))
        x = x0
        rtol = tol
        for _ in range(2):
            x, _info = spla.gmres(a, b, x0=x, rtol=0.5 * rtol, atol=0.0,
                                  restart=restart, maxiter=outer, M=precond)
            residual = float(np.linalg.norm(b - a @ x)) / bnorm
            if residual <= tol:
                return x, residual
            rtol = tol * 2e-2
    raise SolverFailure(
        f"linear solver stalled at relative residual {residual:.3e} (tol {tol:.3e})",
        residual=residual, time=time)
