"""Structured finite-volume machinery shared by every assembly in the package.

Cell-centered two-point flux approximation on uniform 1D/2D grids.  For a
face between cell L and slot R the discrete flux (oriented so that a
positive value feeds cell L)

    F = g * (u_R - u_L) / dist

carries a per-face scalar coefficient ``g`` that already bundles diffusivity,
truncated coupling coefficient and tensor entry.  A Dirichlet boundary face
is a face whose slot R is a ghost holding the trace at half-cell distance;
``closed`` boundaries (traces None) carry no flux.  Off-diagonal tensor
entries contribute tangential face gradients that are treated explicitly by
the callers.  :func:`face_table` lists every face of a grid once, interior
faces first; a face flux adds to its left cell and subtracts from its right
cell, so every per-cell sum over faces is one bincount over the left cells
and one over the right cells (:func:`face_divergence`), and every assembly
in the package is one vectorized pass over that table.
:class:`SystemBuilder` assembles every block system of the package: it
records each matrix contribution as a structural term plus its values, can
rewrite the recorded system in other unknowns by fixed block maps, and sums
the values into a CSR pattern that :func:`_pattern` derives once per grid,
species count and term sequence.  It is also the one record of a step's
budget, kept in the state's species (:meth:`SystemBuilder.budget`).
:func:`solve_sparse` is the package's one linear solve: a sparse direct
factorization for systems of at most :data:`DIRECT_MAX_UNKNOWNS` unknowns
(1D grids of up to 512 cells, 2D grids of up to 22x22 at m = 2) and for a
system solved without a holder of kept factors, restarted GMRES for larger
ones, block-Jacobi preconditioned by the SuperLU factors of
the species diagonal blocks that a run keeps in its :class:`BlockFactors`;
the cutoff is the measured crossover of the two paths, and the same
true-residual contract holds on both.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache, reduce
from itertools import product

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
    """Every face of a grid in one flat list, interior faces first.

    Face f joins the cell ``left[f]`` to the slot ``right[f]``.  The first
    ``n_interior`` faces are interior, axis by axis; their right slot is a
    cell.  The k-th boundary face has the ghost slot ``n_cells + k``, which
    holds its Dirichlet trace (:func:`slot_values`).  ``dist`` is the
    distance from the left cell center to the right slot (h, or h/2 at the
    boundary), ``area`` the face area and ``axis`` the axis normal to the
    face.  ``sign`` orients the left-to-right direction along that axis: +1,
    but -1 for boundary faces at the low end of an axis, whose ghost lies
    below the cell.
    ``bnd_points`` holds the face centers of the boundary faces and
    ``centers`` the cell centers.  The table is cached per grid and its
    arrays reach user callables, so every array is read-only.
    """

    grid: Grid
    n_interior: int
    left: np.ndarray
    right: np.ndarray
    dist: np.ndarray
    area: np.ndarray
    axis: np.ndarray
    sign: np.ndarray
    bnd_points: np.ndarray
    centers: np.ndarray

    @property
    def n_faces(self) -> int:
        return len(self.left)

    @property
    def n_boundary(self) -> int:
        return self.n_faces - self.n_interior

    @property
    def bnd_cell(self) -> np.ndarray:
        return self.left[self.n_interior:]


@lru_cache(maxsize=None)
def face_table(grid: Grid) -> FaceTable:
    nd = grid.ndim
    idx = grid.flat_index()
    centers = grid.cell_centers()
    left, right, axis, sign, points = [], [], [], [], []
    for d in range(nd):
        lo, hi = [slice(None)] * nd, [slice(None)] * nd
        lo[d], hi[d] = slice(None, -1), slice(1, None)
        left.append(idx[tuple(lo)].ravel())
        right.append(idx[tuple(hi)].ravel())
        axis.append(np.full(len(left[-1]), d))
        sign.append(np.ones(len(left[-1]), dtype=np.int8))
    n_interior = sum(map(len, left))
    for d, side in product(range(nd), (0, 1)):
        sl = [slice(None)] * nd
        sl[d] = -side
        cells = np.atleast_1d(idx[tuple(sl)]).ravel()
        points.append(centers[cells])
        points[-1][:, d] = side * grid.extents[d]
        left.append(cells)
        axis.append(np.full(len(cells), d))
        sign.append(np.full(len(cells), 2 * side - 1, dtype=np.int8))
    left, axis = np.concatenate(left), np.concatenate(axis)
    n_faces = len(left)
    right = np.concatenate(right + [grid.n_cells + np.arange(n_faces - n_interior)])
    spacing = np.array(grid.spacing)
    dist = spacing[axis]
    dist[n_interior:] /= 2.0
    ft = FaceTable(grid, n_interior, left, right, dist, (grid.cell_volume / spacing)[axis], axis,
                   np.concatenate(sign), np.concatenate(points), centers)
    for f in fields(ft):
        value = getattr(ft, f.name)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return ft


# ---------------------------------------------------------------------------
# face values and gradients
# ---------------------------------------------------------------------------

def slot_values(ft: FaceTable, v: np.ndarray, traces: np.ndarray | None) -> np.ndarray:
    """``v`` on every slot: the cells, then the ghosts of the boundary faces.

    Ghosts hold ``traces``; without traces (a closed boundary) they repeat
    the adjacent cell value.  ``v`` may stack fields along leading axes.
    """
    ghost = v[..., ft.bnd_cell] if traces is None else traces
    return np.concatenate((v, ghost), axis=-1)


def face_gradient(ft: FaceTable, u: np.ndarray, traces: np.ndarray | None) -> np.ndarray:
    """(u_right - u_left) / dist on every face; zero on closed boundary faces.

    On a boundary face this is the outward (trace - u_cell) / (h/2): positive
    values mean the trace exceeds the adjacent cell value.
    """
    s = slot_values(ft, u, traces)
    return (s[ft.right] - s[ft.left]) / ft.dist


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


def face_divergence(ft: FaceTable, fa: np.ndarray) -> np.ndarray:
    """Per cell, the face values ``fa`` that feed it: + on its left faces, - on its right faces.

    ``fa`` covers the interior faces or all faces; a boundary face feeds only
    its cell.
    """
    n, ni = ft.grid.n_cells, ft.n_interior
    return (np.bincount(ft.left[:len(fa)], weights=fa, minlength=n)
            - np.bincount(ft.right[:ni], weights=fa[:ni], minlength=n))


def cell_average(ft: FaceTable, v: np.ndarray) -> np.ndarray:
    """Per axis, the mean of the face values ``v`` over the faces of each cell.

    ``v`` covers the interior faces or all faces; a cell without a covered
    face on an axis gets 0.  Returns shape (ndim, n_cells).
    """
    n, ni, nf = ft.grid.n_cells, ft.n_interior, len(v)
    bins = np.concatenate((ft.axis[:nf] * n + ft.left[:nf], ft.axis[:ni] * n + ft.right[:ni]))
    acc = np.bincount(bins, weights=np.concatenate((v, v[:ni])), minlength=ft.grid.ndim * n)
    cnt = np.bincount(bins, minlength=ft.grid.ndim * n)
    return (acc / np.maximum(cnt, 1)).reshape(ft.grid.ndim, n)


def cell_gradient(ft: FaceTable, u: np.ndarray, traces: np.ndarray | None) -> np.ndarray:
    """Cell-centered gradient, shape (ndim, n_cells), averaged from face gradients.

    Boundary faces use the Dirichlet trace at half-cell distance when
    available and are skipped for closed boundaries (one-sided average).
    """
    n_faces = ft.n_interior if traces is None else ft.n_faces
    return cell_average(ft, (ft.sign * face_gradient(ft, u, traces))[:n_faces])


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
    L, R = ft.left[:ft.n_interior], ft.right[:ft.n_interior]
    diag = np.concatenate((ft.left[:term[3]], R))
    return r0 + np.concatenate((diag, L, R)), c0 + np.concatenate((diag, R, L))


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
    on the block diagonal, and ``("face", row_sp, col_sp, n_faces)`` on the
    first ``n_faces`` faces of the face table, the interior faces or all
    faces.  A face term's values are the diagonal entries of the left cells
    of the covered faces, then those of the right cells of the interior
    faces, then the (left, right) and the (right, left) entries of the
    interior faces.  The right-hand side is accumulated directly.
    :meth:`change_unknowns` rewrites the recorded system in other unknowns,
    to which :meth:`to_unknowns` and :meth:`to_state` map the state and back.
    :meth:`matrix` looks up the CSR pattern of the term sequence, computed
    once per (grid, m, terms) by :func:`_pattern`, and sums the values into
    it.
    The budget record (boundary terms, explicit boundary flux and the
    ``source`` the assembly sets) stays in the state's species.
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
        self.bnd_terms: list[tuple] = []
        self.bnd_expl: dict[int, np.ndarray] = {}
        self.source = np.zeros(m)

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

    def add_tpfa(self, row_sp: int, col_sp: int, g: np.ndarray,
                 traces: np.ndarray | None) -> None:
        """Two-point term -div(g grad u_colsp) added to the row-species residual.

        ``g`` holds per-face coefficients of the interior faces or of all
        faces.  Boundary faces take part only when ``g`` covers them and the
        column species has Dirichlet ``traces``, which enter the right-hand
        side through the ghost slots and their coefficients into the budget.
        """
        ft = self.ft
        n_faces = len(g) if traces is not None else ft.n_interior
        t = g[:n_faces] * ft.area[:n_faces] / ft.dist[:n_faces]
        ti = t[:ft.n_interior]
        self.add_term(("face", row_sp, col_sp, n_faces), np.concatenate((t, ti, -ti, -ti)))
        if n_faces > ft.n_interior:
            np.add.at(self.rhs, row_sp * self.n + ft.bnd_cell, t[ft.n_interior:] * traces)
            self.bnd_terms.append((row_sp, col_sp, g[ft.n_interior:].copy(), traces))

    def add_explicit_flux(self, row_sp: int, f: np.ndarray) -> None:
        """Add a fully evaluated face flux (per unit area, on the faces ``f`` covers) to the RHS."""
        ft = self.ft
        self.add_rhs(row_sp, face_divergence(ft, f * ft.area[:len(f)]))
        if len(f) > ft.n_interior:
            self.bnd_expl[row_sp] = self.bnd_expl.get(row_sp, 0.0) + f[ft.n_interior:]

    def matrix(self) -> sparse.csr_matrix:
        indptr, indices, slot = _pattern(self.grid, self.m, tuple(self.terms))
        data = np.bincount(slot, weights=np.concatenate(self.vals), minlength=len(indices))
        n = self.m * self.n
        a = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
        a.has_canonical_format = True
        return a

    def budget(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(source integral, boundary inflow) of each state species at the state ``u``."""
        flux = np.zeros(self.m)
        for row_sp, col_sp, g, traces in self.bnd_terms:
            flux[row_sp] += boundary_flux_integral(self.ft, g, u[col_sp], traces)
        for row_sp, f in self.bnd_expl.items():
            flux[row_sp] += float(np.sum(f * self.ft.area[self.ft.n_interior:]))
        return self.source, flux


def boundary_flux_integral(ft: FaceTable, g_bnd: np.ndarray,
                           u: np.ndarray, traces: np.ndarray) -> float:
    """Total boundary inflow sum_f g * (trace - u_cell)/(h/2) * area."""
    b = slice(ft.n_interior, None)
    return float(np.sum(g_bnd * (traces - u[ft.bnd_cell]) / ft.dist[b] * ft.area[b]))


# ---------------------------------------------------------------------------
# linear solve
# ---------------------------------------------------------------------------

# Systems up to this size are factored whole on every solve; larger ones take
# GMRES, preconditioned by the run's kept factors of their species diagonal
# blocks.  Time of a 20-step run on the block path over the same run on the
# direct path (m = 2, one BLAS thread; upwind and centered weighting,
# isotropic and full K tensors; generic, penalized and confined systems):
#
#   grid            unknowns     block / direct
#   1D 8-384        16-768       0.99-2.31
#   1D 512-2048     1024-4096    0.69-1.28
#   2D 8x8          128          1.07-1.36
#   2D 12x12        288          0.97-1.07
#   2D 16x16-22x22  512-968      0.65-0.88
#   2D 24x24-32x32  1152-2048    0.39-0.75
#   2D 48x48-64x64  4608-8192    0.27-0.51
#
# The crossover lies at about 300-500 unknowns in 2D and 1000-2000 in 1D.
# With this cutoff every 2D grid of 23x23 or more takes the block path and
# every 1D grid of up to 512 cells stays direct.  The cost of one cutoff for
# both: 2D grids of about 13x13 to 22x22 stay direct, where the block path
# would take 0.65-1.0 of the time.
DIRECT_MAX_UNKNOWNS = 1024

# A solve that needed more preconditioner applications than this makes the
# next solve refactor the species blocks from its own matrix.
REFACTOR_AFTER = 30

# Inner GMRES iterations per restart cycle (capped by the call's ``maxiter``).
GMRES_RESTART = 60

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
                 time: float | None = None,
                 x0: np.ndarray | None = None,
                 factors: BlockFactors | None = None) -> tuple[np.ndarray, float]:
    """Solve ``a x = b`` to relative true residual ``tol``; return (x, residual).

    Systems of at most :data:`DIRECT_MAX_UNKNOWNS` unknowns, and every
    system solved without a ``factors`` holder, take a SuperLU solve.  Larger
    ones take restarted GMRES, at most ``maxiter`` inner iterations per call,
    preconditioned by the species-block factors held in ``factors``.  The
    preconditioned stopping test can be optimistic, so the true residual is
    verified and the iteration continued once at a tighter tolerance.
    Either way a residual above ``tol``, a singular or a non-finite system
    raises :class:`SolverFailure`, which carries the final relative residual.
    """
    bnorm = float(np.linalg.norm(b))
    direct = factors is None or a.shape[0] <= DIRECT_MAX_UNKNOWNS
    if factors is not None:
        factors.b_norm = bnorm
        if bnorm == 0.0 or direct:
            factors.iters, factors.refactored = 0, False
    if bnorm == 0.0:
        return np.zeros_like(b), 0.0
    if direct:
        x = _factor(a, time).solve(b)
        residual = float(np.linalg.norm(b - a @ x)) / bnorm
        if residual <= tol:
            return x, residual
    else:
        precond = factors.preconditioner(a, time)
        restart = max(1, min(GMRES_RESTART, maxiter))
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
