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
the callers; a lagged coefficient's face value is its donor cell's
(:func:`upwind_face_value`) or a donor-limited mean (:func:`limited_face_value`),
both picked from its :func:`face_sides`, formed once per coefficient and sweep.
:func:`face_table` lists every face of a grid once, interior faces first; a
face flux adds to its left cell and subtracts from its right cell, so every
per-cell sum over faces is one bincount over the left cells and one over
the right cells (:func:`face_divergence`), and every assembly in the
package is one vectorized pass over that table.
:class:`SystemBuilder` assembles every block system of the package: a term
is its structural key and its value array, one method records every term,
its values by reference (:meth:`SystemBuilder.add_term`), and one function
computes every two-point term's values (:func:`_two_point`).  The builder
can rewrite the recorded system in other unknowns by block maps prepared
once (:class:`BlockMaps`), and sums the values into a CSR pattern by one
product with a summation map (a sparse matrix of +-1 entries from the
values to the CSR positions); :func:`_pattern` derives both once per grid,
species count and term sequence, and
:func:`_template` keeps them with one CSR template of the pattern, which owns
no values and whose shallow copy, given the summed values, is each sweep's
matrix: no sparse constructor runs per sweep.  A face term
keeps two coefficients per face, its left and its right cell's.  It is also
the one record of a step's budget, kept in the state's species
(:meth:`SystemBuilder.budget`), which, like the traces' right-hand side
(:func:`trace_rhs`), reads the boundary coefficients that the matrix sums.
:func:`solve_sparse` is the package's one linear solve, and the matrix decides
its path.  :meth:`SystemBuilder.matrix` attaches a :class:`Band` layout
exactly to the systems solved directly: every system on a 1D grid, and a 2D
system of at most ``DIRECT_MAX_UNKNOWNS[2]`` unknowns (22x22 at m = 2).  Such
a system is solved by one LAPACK banded LU (``dgbsv``) over its species
interleaved cell by cell.  Every other system, a matrix built outside the
builder included, takes the package's own restarted flexible GMRES
(:func:`_fgmres`), right-preconditioned by the one inverse of the species
block diagonal that a run keeps in its :class:`BlockFactors`, applied to the
stacked residual in one call: each inner iteration is exactly one
application.  The solve alone decides when that inverse is rebuilt: when
the holder has none, or inside the solve in which it has taken
``REFACTOR_AFTER`` applications without meeting its stop; it returns its
applications and whether it rebuilt, and the holder keeps nothing but the
inverse.  Every inner product and 2-norm of a long vector on the run path
is an ``einsum`` sum (:func:`_dot`, :func:`_norm`), never a BLAS call, so a
run gives the same bits at any BLAS thread count.  On 2D
grids of at least ``TRANSFORM_MIN_CELLS[2]`` cells (72x72) that inverse is
exact for each block's constant-coefficient two-point fit, applied to every
species at once by one DCT-II over the grid axes and its inverse, a
Dirichlet block's data signed (-1)^(sum of the cell's indices); on every
other grid it is one SuperLU factorization of the block diagonal.  Its solve equals
the per-block solves bit for bit where the species blocks share one sparsity
pattern, as on the two-point grids tested; the ordering of the joint matrix
is not guaranteed to match the per-block orderings otherwise.  Both cutoffs
are measured crossovers.  Both paths accept a solve by one rule on its true
residual: the requested relative tolerance, or the system's own rounding
floor eps (||A||_inf ||x||_2 + ||b||_2) where that is larger
(:func:`_rounding_floor`).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields
from functools import lru_cache, reduce
from itertools import product

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.linalg import lapack, solve_triangular

from .model import Grid


class SolverFailure(RuntimeError):
    """Linear solver did not reach its tolerance.

    The run loop that catches it sets ``time``, the failing step's target time
    (None outside a run), and attaches the trajectory so far as ``partial``.
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


def face_sides(w_left: np.ndarray, w_right: np.ndarray) -> tuple[np.ndarray, ...]:
    """(w_left, w_right, their mean (w_L + w_R)/2): a lagged coefficient on both sides of
    the faces, as :func:`upwind_face_value` and :func:`limited_face_value` take it.

    A sweep forms each coefficient's sides once, so the mean is formed once
    however many drivers pick a face value from them.
    """
    return w_left, w_right, 0.5 * (w_left + w_right)


def upwind_face_value(sides: tuple, driver: np.ndarray) -> np.ndarray:
    """Donor value of the :func:`face_sides` ``sides``, selected by the sign of the driving
    face gradient.

    ``driver > 0`` feeds the left cell from the right one, so the donor is
    the right side; ties take the mean.
    """
    w_left, w_right, mean = sides
    return np.where(driver > 0.0, w_right, np.where(driver < 0.0, w_left, mean))


def limited_face_value(sides: tuple, driver: np.ndarray) -> np.ndarray:
    """min((w_L + w_R)/2, 2 w_donor), the donor selected as by :func:`upwind_face_value`.

    The mean (second order) wherever the other side is at most 3 times the
    donor; 0 next to an empty donor, so an empty cell loses nothing.
    """
    return np.minimum(sides[2], 2.0 * upwind_face_value(sides, driver))


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

# Templates kept at once (_template); one run assembles with a single term
# sequence, so a few entries cover a run plus the short runs of a study around it.
PATTERN_CACHE_SIZE = 4


def _term_index(ft: FaceTable, n: int, size: int,
                term: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Entries of one term's structure, placed on the block (0, 0).

    Returns (keys, value, sign, n_values): each entry's flat position
    ``row * size + col``, the index of the term value it takes and the sign
    it takes it with, in the order in which :meth:`SystemBuilder.matrix`
    sums them; and the number of the term's values.  A face term takes its
    left-cell coefficients on its diagonal and, negated, on the (right, left)
    entries, its right-cell coefficients on their diagonal and, negated, on
    the (left, right) entries.
    """
    if term[0] == "mass":
        idx = np.arange(n)
        return idx * (size + 1), idx, np.ones(n, dtype=np.int8), n
    nf, ni = term[3], ft.n_interior
    L, R = ft.left[:ni], ft.right[:ni]
    diag = np.concatenate((ft.left[:nf], R))
    keys = np.concatenate((diag * (size + 1), L * size + R, R * size + L))
    on_left, on_right = np.arange(nf), nf + np.arange(ni)
    value = np.concatenate((on_left, on_right, on_right, on_left[:ni]))
    sign = np.repeat(np.array([1, -1], dtype=np.int8), (nf + ni, 2 * ni))
    return keys, value, sign, nf + ni


@dataclass(frozen=True)
class Band:
    """LAPACK band layout of a pattern, its species interleaved cell by cell.

    ``perm`` maps the species-blocked unknown ``s * n + c`` to the
    interleaved ``c * m + s``.  ``width`` is the largest ``|perm[row] -
    perm[col]|`` over the stored entries: 2m - 1 on a 1D grid and
    m * n_fast + m - 1 on a 2D grid whose fast (last) axis has n_fast cells,
    when every species couples to every other.  ``position`` holds each CSR
    entry's flat index in a Fortran-ordered array of 3 * width + 1 rows and
    one column per unknown, the storage of LAPACK's ``xGBSV`` with ``width``
    sub- and superdiagonals: the entry (i, j) of the interleaved matrix sits
    in row 2 * width + i - j of column j, and the first ``width`` rows are
    the factorization's room for fill.  :func:`_band` derives it once per
    template; a matrix carries it exactly when it is solved directly
    (:meth:`SystemBuilder.matrix`).
    """

    perm: np.ndarray
    width: int
    position: np.ndarray


def _pattern(grid: Grid, m: int, terms: tuple
             ) -> tuple[np.ndarray, np.ndarray, sparse.csr_matrix]:
    """CSR structure of the block matrix assembled from ``terms`` and its summation map.

    Returns (indptr, indices, summation).  The structure is that of summing
    the terms' entries: every (row, col) pair a term touches is stored,
    explicit zeros included, with sorted column indices.  ``summation`` is a
    CSR matrix of shape (nnz, number of values) with +-1 entries: its row k
    lists the values, of all terms concatenated, that sum into the k-th CSR
    position, in the terms' value order.  Each term structure's entries are
    computed once and shifted to the blocks that carry it; one stable sort
    of the entries' positions, whose runs are already sorted, groups them.
    Every array is read-only because every matrix built on the pattern
    shares them; :func:`_template` keeps them.
    """
    ft = face_table(grid)
    n = grid.n_cells
    size = m * n
    structures, parts = {}, []
    for term in terms:
        structure = (term[0], *term[3:])
        if structure not in structures:
            structures[structure] = _term_index(ft, n, size, term)
        parts.append(structures[structure])
    offsets = np.cumsum([0] + [part[3] for part in parts])
    keys = np.concatenate([part[0] + (term[1] * size + term[2]) * n
                           for part, term in zip(parts, terms)])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    start = np.flatnonzero(np.diff(keys, prepend=-1))  # the first entry of each position
    unique = keys[start]
    del keys
    index_dtype = (np.int32 if max(size, len(order), offsets[-1]) <= np.iinfo(np.int32).max
                   else np.int64)
    indptr = np.zeros(size + 1, dtype=index_dtype)
    np.cumsum(np.bincount(unique // size, minlength=size), out=indptr[1:])
    indices = (unique % size).astype(index_dtype)
    value = np.concatenate([(part[1] + offset).astype(index_dtype)
                            for part, offset in zip(parts, offsets)])[order]
    sign = np.concatenate([part[2] for part in parts])[order].astype(float)
    summation = sparse.csr_matrix((sign, value, np.append(start, len(order)).astype(index_dtype)),
                                  shape=(len(unique), offsets[-1]))
    for a in (indptr, indices, summation.data, summation.indices, summation.indptr):
        a.flags.writeable = False
    return indptr, indices, summation


def _band(template: sparse.csr_matrix, grid: Grid, m: int) -> Band:
    """The :class:`Band` layout of the pattern of ``template`` (:func:`_template`), read-only."""
    n = grid.n_cells
    k = np.arange(m * n)
    perm = k % n * m + k // n
    row, col = perm[np.repeat(k, np.diff(template.indptr))], perm[template.indices]
    width = int(np.max(np.abs(row - col), initial=0))
    band = Band(perm, width, col * (3 * width + 1) + 2 * width + row - col)
    for a in (band.perm, band.position):
        a.flags.writeable = False
    return band


@lru_cache(maxsize=PATTERN_CACHE_SIZE)
def _template(grid: Grid, m: int, terms: tuple, direct: bool
              ) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """(template, summation): the CSR template of the pattern of ``terms`` and its summation map.

    The template is the block matrix of :func:`_pattern`'s structure, with
    canonical format, carrying ``terms`` and, as ``band``, its :class:`Band`
    when ``direct`` and None otherwise.  ``direct`` is the path that
    :meth:`SystemBuilder.matrix` reads from ``DIRECT_MAX_UNKNOWNS`` on every
    call, so a changed cutoff finds its own template.  The template owns no
    value array: its ``data`` is a read-only zero-stride view of one 0.0, and
    :meth:`SystemBuilder.matrix` hands out shallow copies that each get their
    own ``data``.
    """
    indptr, indices, summation = _pattern(grid, m, terms)
    size = m * grid.n_cells
    template = sparse.csr_matrix((np.broadcast_to(0.0, len(indices)), indices, indptr),
                                 shape=(size, size))
    template.has_canonical_format = True
    template.terms = terms
    template.band = _band(template, grid, m) if direct else None
    return template, summation


def _nonzero_rows(mat: np.ndarray) -> list[list[tuple[int, float]]]:
    """Per row of ``mat``, its nonzero entries as (column, value) pairs."""
    return [[(j, s) for j, s in enumerate(row) if s] for row in mat.tolist()]


def _map_blocks(rows: list, blocks: np.ndarray) -> np.ndarray:
    """Stacked rows sum_j s * blocks[j] over the nonzero entries (j, s) of each row of a
    block map (:func:`_nonzero_rows`; exact for +-1)."""
    return np.concatenate([reduce(np.add, [s * blocks[j] for j, s in row]) for row in rows])


class BlockMaps:
    """The fixed m x m block maps (Q, P) of one change of unknowns, prepared once.

    Entry (i, j) of a map scales the identity block (i, j);
    :meth:`SystemBuilder.change_unknowns` rewrites A x = b as (Q A P) y = Q b,
    x = P y.  Kept are the nonzero entries (:func:`_nonzero_rows`) of Q by
    column and of P by row, which place each rewritten term, and of Q, P and
    P^-1 by row, which map the right-hand side, the solution and the state
    (:func:`_map_blocks`); P^-1 is inverted here, once.
    """

    __slots__ = ("q_cols", "q_rows", "p_rows", "p_inv_rows")

    def __init__(self, q, p):
        q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
        self.q_cols, self.q_rows = _nonzero_rows(q.T), _nonzero_rows(q)
        self.p_rows, self.p_inv_rows = _nonzero_rows(p), _nonzero_rows(np.linalg.inv(p))


def _two_point(ft: FaceTable, g: np.ndarray, n_faces: int) -> np.ndarray:
    """The values of the two-point term of the per-face ``g`` on the first ``n_faces`` faces:
    t = g area/dist there, the left cells', then t on the interior faces, the right cells'."""
    t = g[:n_faces] * ft.area[:n_faces] / ft.dist[:n_faces]
    return np.concatenate((t, t[:ft.n_interior]))


def fixed_mass(grid: Grid, species: int, coeff: float) -> tuple[tuple, np.ndarray]:
    """The term of :meth:`SystemBuilder.add_mass` as a (key, values) pair, its values read-only."""
    vals = np.full(grid.n_cells, coeff * grid.cell_volume)
    vals.flags.writeable = False
    return ("mass", species, species), vals


def fixed_tpfa(grid: Grid, row_sp: int, col_sp: int, g: np.ndarray) -> tuple[tuple, np.ndarray]:
    """The term of :meth:`SystemBuilder.add_tpfa` for the per-face ``g`` as a (key, values)
    pair, its values read-only.

    ``g`` covers the interior faces or all faces; one that covers the
    boundary faces is the term of a Dirichlet column species, which a sweep
    records with the step's traces.
    """
    vals = _two_point(face_table(grid), g, len(g))
    vals.flags.writeable = False
    return ("face", row_sp, col_sp, len(g)), vals


def trace_rhs(ft: FaceTable, term: tuple, traces: np.ndarray) -> np.ndarray:
    """Per cell, what Dirichlet ``traces`` give the right-hand side of the two-point
    ``term`` over the boundary faces: one bincount of its boundary coefficients times them."""
    (_, _, _, n_faces), vals = term
    return np.bincount(ft.bnd_cell, weights=vals[ft.n_interior:n_faces] * traces,
                       minlength=ft.grid.n_cells)


class SystemBuilder:
    """Block system over m species on one grid, assembled term by term.

    A term is a (key, values) pair, and :meth:`add_term` records every
    term, its value array by reference.  The key is ``("mass", row_sp,
    col_sp)`` on the block diagonal or ``("face", row_sp, col_sp, n_faces)``
    on the first ``n_faces`` faces of the face table, the interior faces or
    all faces.  A face term's values are two coefficient arrays: those of
    the left cells on the covered faces, then those of the right cells on
    the interior faces.  A coefficient enters its cell's diagonal entry and,
    negated, the entry of the face's other cell in its cell's column.
    :meth:`add_mass`, :meth:`add_tpfa` and :meth:`add_face_term` make a term
    and record it; a variant makes each term that neither its step nor its
    lag changes once per run (:func:`fixed_mass`, :func:`fixed_tpfa`) and
    records it in every sweep.  The right-hand side is accumulated directly.
    :meth:`change_unknowns` rewrites the recorded system in other unknowns
    by prepared :class:`BlockMaps`, to which :meth:`to_unknowns` and
    :meth:`to_state` map the state and back.
    :meth:`matrix` looks up the CSR template of the term sequence and its
    summation map, built once per (grid, m, terms) by :func:`_template`,
    and hands out a shallow copy of the template whose data are the values
    summed by one sparse product; the template of a system solved directly
    carries its :class:`Band`.
    The budget record stays in the state's species: the two-point terms
    recorded with Dirichlet traces, as recorded (``bnd_terms``), so the
    budget reads the boundary coefficients the matrix sums; the explicit
    boundary flux; and the ``source`` the assembly sets.
    """

    def __init__(self, grid: Grid, m: int):
        self.grid = grid
        self.ft = face_table(grid)
        self.m = m
        self.n = grid.n_cells
        self.terms: list[tuple] = []
        self.vals: list[np.ndarray] = []
        self.rhs = np.zeros(m * self.n)
        self.maps = None  # BlockMaps from the solved unknowns to the state; None: the state
        self.bnd_terms: list[tuple] = []
        self.bnd_expl: dict[int, np.ndarray] = {}
        self.source = np.zeros(m)

    def add_term(self, term: tuple, traces: np.ndarray | None = None) -> None:
        """Record the (key, values) ``term``, its value array by reference.

        A two-point term over the boundary faces takes the Dirichlet
        ``traces`` of its column species, and with them enters the budget as
        it is; the traces' :func:`trace_rhs` is the caller's to add.
        """
        self.terms.append(term[0])
        self.vals.append(term[1])
        if traces is not None:
            self.bnd_terms.append((term, traces))

    def add_mass(self, species: int, coeff: float) -> None:
        """coeff * u on the diagonal of one species block (volume-scaled)."""
        self.add_term(fixed_mass(self.grid, species, coeff))

    def add_face_term(self, row_sp: int, col_sp: int, left: np.ndarray,
                      right: np.ndarray) -> None:
        """Face term on the block (row_sp, col_sp): ``left`` holds the left cells'
        coefficients on the first ``len(left)`` faces (the interior faces or all faces),
        ``right`` the right cells' on the interior faces.  It enters no budget."""
        self.add_term((("face", row_sp, col_sp, len(left)), np.concatenate((left, right))))

    def change_unknowns(self, maps: BlockMaps) -> None:
        """Rewrite the recorded system in place as (Q A P) y = Q b, x = P y, by ``maps``.

        Each term of the block (r, c) becomes one copy on every block (i, j)
        with Q[i][r] and P[c][j] nonzero, its values scaled by their product.
        A copy whose scale is exactly 1.0 shares the recorded value array, so
        recorded values are never written in place.  The unknowns of a
        system change at most once.
        """
        if self.maps is not None:
            raise ValueError("the unknowns of a system change at most once")
        self.maps = maps
        terms, vals = [], []
        for term, v in zip(self.terms, self.vals):
            for i, q_ir in maps.q_cols[term[1]]:
                for j, p_cj in maps.p_rows[term[2]]:
                    scale = q_ir * p_cj
                    terms.append((term[0], i, j, *term[3:]))
                    vals.append(v if scale == 1.0 else scale * v)
        self.terms, self.vals = terms, vals
        self.rhs = _map_blocks(maps.q_rows, self.rhs.reshape(self.m, self.n))

    def to_unknowns(self, u: np.ndarray) -> np.ndarray:
        """The stacked state ``u`` (m, n) in the solved unknowns, y = P^-1 u."""
        return u.flatten() if self.maps is None else _map_blocks(self.maps.p_inv_rows, u)

    def to_state(self, x: np.ndarray) -> np.ndarray:
        """The stacked state (m, n) of a solution ``x``, u = P x."""
        x = x.reshape(self.m, self.n)
        return (x if self.maps is None
                else _map_blocks(self.maps.p_rows, x).reshape(self.m, self.n))

    def add_rhs(self, species: int, values: np.ndarray) -> None:
        self.rhs[species * self.n:(species + 1) * self.n] += values

    def add_tpfa(self, row_sp: int, col_sp: int, g: np.ndarray,
                 traces: np.ndarray | None) -> None:
        """Two-point term -div(g grad u_colsp) added to the row-species residual.

        ``g`` holds per-face coefficients of the interior faces or of all
        faces.  Boundary faces take part only when ``g`` covers them and the
        column species has Dirichlet ``traces``, which enter the right-hand
        side through the ghost slots (:func:`trace_rhs`) and, with the term,
        the budget.
        """
        ft = self.ft
        n_faces = len(g) if traces is not None else ft.n_interior
        term = (("face", row_sp, col_sp, n_faces), _two_point(ft, g, n_faces))
        if n_faces == ft.n_interior:
            self.add_term(term)
        else:
            self.add_term(term, traces)
            self.add_rhs(row_sp, trace_rhs(ft, term, traces))

    def add_explicit_flux(self, row_sp: int, f: np.ndarray) -> None:
        """Add a fully evaluated face flux (per unit area, on the faces ``f`` covers) to the RHS."""
        ft = self.ft
        self.add_rhs(row_sp, face_divergence(ft, f * ft.area[:len(f)]))
        if len(f) > ft.n_interior:
            self.bnd_expl[row_sp] = self.bnd_expl.get(row_sp, 0.0) + f[ft.n_interior:]

    def matrix(self) -> sparse.csr_matrix:
        """The summed block matrix in CSR form, carrying its term sequence as ``terms``.

        It is a shallow copy of its pattern's template (:func:`_template`),
        which shares the template's index arrays and gets its own ``data``:
        the pattern's summation map times the concatenated values, so each
        entry adds its values in the terms' order.  No CSR constructor runs
        per call, and writing into one matrix's data leaves every other one.
        :class:`_TransformInverse` reads the boundary kind of a species block
        from the terms.  The matrix also carries as ``band`` the :class:`Band` of
        its pattern when it has at most ``DIRECT_MAX_UNKNOWNS[grid.ndim]``
        unknowns (every 1D system), and None otherwise: the one place where
        the solve path is chosen, read on every call.  :func:`solve_sparse`
        solves a matrix with a band directly.
        """
        size = self.m * self.n
        template, summation = _template(self.grid, self.m, tuple(self.terms),
                                        size <= DIRECT_MAX_UNKNOWNS[self.grid.ndim])
        a = copy.copy(template)
        a.data = summation @ np.concatenate(self.vals)
        return a

    def budget(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(source integral, boundary inflow) of each state species at the state ``u``."""
        flux = np.zeros(self.m)
        for term, traces in self.bnd_terms:
            _, row_sp, col_sp, _ = term[0]
            flux[row_sp] += boundary_flux_integral(self.ft, term, u[col_sp], traces)
        for row_sp, f in self.bnd_expl.items():
            flux[row_sp] += float(np.sum(f * self.ft.area[self.ft.n_interior:]))
        return self.source, flux


def boundary_flux_integral(ft: FaceTable, term: tuple, u: np.ndarray,
                           traces: np.ndarray) -> float:
    """Boundary inflow of the two-point ``term`` over the boundary faces at its column
    species' state ``u``: sum_f t_f (trace - u_cell) over its values t = g area/dist there."""
    (_, _, _, n_faces), vals = term
    return float(np.sum(vals[ft.n_interior:n_faces] * (traces - u[ft.bnd_cell])))


# ---------------------------------------------------------------------------
# linear solve
# ---------------------------------------------------------------------------

# Per grid dimension, the most unknowns of a system that SystemBuilder.matrix
# gives a band, so that it is solved whole on every solve, by one banded LU of
# the interleaved system (_band_solve); larger ones take GMRES, preconditioned
# by the run's kept inverse of their species diagonal blocks.  Time of a
# 20-step run on the block path over the same run on the direct path (m = 2,
# one BLAS thread, medians of 3 runs after a warm-up; generic runs with
# isotropic and with full K tensors, penalized and confined keulegan runs),
# the direct path taking the banded LU or, as before the band, a SuperLU
# factorization:
#
#   grid            unknowns     block / banded   block / SuperLU
#   1D 256-512      512-1024     1.55-3.84        0.76-1.36
#   1D 768-1024     1536-2048    1.53-4.25        0.57-1.24
#   2D 16x16-20x20  512-800      1.19-1.66        0.46-0.64
#   2D 22x22-24x24  968-1152     0.90-1.36        0.40-0.65
#   2D 28x28-32x32  1568-2048    0.58-0.88        0.34-0.51
#
# and of a 10-step 1D run on the block path over the same run on the banded
# path (m = 2, one BLAS thread, minimum of 3 runs; a generic run, penalized
# and confined keulegan runs; every run converged every step on both paths):
#
#   grid            unknowns     block / banded
#   1D 768          1536         1.23-1.99
#   1D 1024         2048         2.08-2.93
#   1D 4096         8192         1.36-1.93
#   1D 8192         16384        1.70-2.40
#
# Against SuperLU the crossover lay at about 300-500 unknowns in 2D and
# 1000-2000 in 1D (an earlier table of the SuperLU path: 2D 8x8 1.07-1.36,
# 12x12 0.97-1.07, 1D 8-384 cells 0.99-2.31).  The band moves it to about
# 1000 unknowns in 2D (22x22-24x24), so every 2D grid of 23x23 or more at
# m = 2 takes the block path.  A 1D system has band width 2m - 1 at any
# length, so its banded LU costs O(n m^2) and wins at every size measured:
# 1D has no cutoff.
DIRECT_MAX_UNKNOWNS = {1: math.inf, 2: 1024}

# The most preconditioner applications a kept inverse may take in one solve;
# a solve that reaches them without its stop rebuilds the inverse from its own
# matrix and starts again (solve_sparse).  No solve of the benchmark workloads
# or golden configs needs more than 12.
REFACTOR_AFTER = 30

# GMRES inner iterations per restart cycle, and restart cycles in the budget of a
# fresh inverse: GMRES_RESTART * GMRES_CYCLES (6000) inner iterations.
GMRES_RESTART = 60
GMRES_CYCLES = 100

# Column ordering of every SuperLU factor: the two-point blocks are
# structurally symmetric, and minimum degree on A^T + A fills them less than
# the default COLAMD.
ORDERING = "MMD_AT_PLUS_A"

# Per grid dimension, the fewest cells at which the GMRES path inverts its
# species blocks by fast transforms rather than SuperLU factors.  Time of a
# 20-step run with transforms over the same run with factors (m = 2, one BLAS
# thread, fresh processes, the one-off scipy.fft import and the kept fit
# included, medians of 1-4 runs; "other": penalized and confined Dirichlet
# aquifer runs and closed-box keulegan runs with a well):
#
#   grid                       cells        generic    other
#   1D 600-1024                600-1024     3.28-3.37  1.92-3.69
#   1D 2048-8192               2048-8192    1.54-2.50  1.20-1.84
#   1D 16384                   16384        -          0.89-1.09
#   2D 32x32                   1024         1.78       1.17-2.18
#   2D 48x48                   2304         1.04       0.98-1.14
#   2D 56x56-64x64             3136-4096    1.11-1.21  0.79-1.09
#   2D 72x72-80x80, 40x160     5184-6400    0.85-1.03  0.59-0.97
#   2D 88x88-96x96, 64x128     7744-9216    0.79-1.00  0.69-0.84
#   2D 112x112-128x128         12544-16384  0.69-0.72  0.65-0.79
#   2D 16x1024-64x256          16384        0.72-0.83  0.66-0.99
#
# Generic blocks need about 30 % more applications with the transform, the
# aquifer blocks the same number.  A 1D block is tridiagonal and SuperLU
# solves it without fill, so 1D grids keep their factors at every size.  Every
# 1D system is solved directly, so a 1D grid reaches a holder only in tests
# that lower DIRECT_MAX_UNKNOWNS.
TRANSFORM_MIN_CELLS = {1: math.inf, 2: 72 * 72}


def _factor(a: sparse.spmatrix):
    try:
        return spla.splu(a.tocsc(), permc_spec=ORDERING)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SolverFailure(f"sparse factorization failed: {exc}") from exc


# A direct solve of a builder matrix scatters its entries into the band of the
# interleaved system and takes one LAPACK dgbsv: no ordering and no symbolic
# phase.  Time per solve, banded against a SuperLU factorization and solve, on
# first-sweep generic systems (m = 2: both species coupled both ways; m = 1:
# one species), one BLAS thread, the median of 200 solves (50 above 1024
# unknowns) in each of two runs:
#
#   grid       m  unknowns  width  banded (us)  SuperLU (us)
#   1D 16      1  16        1      3-6          74-75
#   1D 64      1  64        1      8-10         109-126
#   1D 256     1  256       1      31-33        170-195
#   1D 1024    1  1024      1      95-119       533-688
#   1D 8       2  16        3      4-6          73-108
#   1D 32      2  64        3      13-14        129-145
#   1D 128     2  256       3      40-41        235-269
#   1D 512     2  1024      3      92-156       817-881
#   2D 8x8     2  128       17     28-39        319-353
#   2D 12x12   2  288       25     95-171       673-781
#   2D 16x16   2  512       33     162-284      1399-1661
#   2D 22x22   2  968       45     825-1092     2401-2481
#   2D 32x32   1  1024      32     359-515      2111-2228
#   2D 40x40   1  1600      40     776-817      2946-3588
#   2D 64x64   1  4096      64     4555-5114    8548-8685
#
# The last two rows lie above DIRECT_MAX_UNKNOWNS[2], where a 2D system takes
# the block path (their band was built for this table only).
def _band_solve(a: sparse.csr_matrix, b: np.ndarray, band: Band) -> np.ndarray:
    """``x`` with ``a x = b`` by one banded LU of ``a``'s interleaved system.

    ``overwrite_ab`` and ``overwrite_b`` let the Fortran-ordered band and the
    permuted right-hand side be factored and solved in place.  An exactly
    zero pivot raises :class:`SolverFailure`; non-finite entries come back as
    a non-finite ``x``, which the caller's residual check rejects.
    """
    size, rows = len(band.perm), 3 * band.width + 1
    ab = np.zeros(rows * size)
    ab[band.position] = a.data
    rhs = np.empty(size)
    rhs[band.perm] = b
    _lu, _piv, x, info = lapack.dgbsv(band.width, band.width, ab.reshape(size, rows).T, rhs,
                                      overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise SolverFailure(f"banded factorization failed: exactly zero pivot "
                            f"U({info}, {info}) of the interleaved system")
    return x[band.perm]


@lru_cache(maxsize=None)
def _spectrum(grid: Grid, dirichlet: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, diagonal and sign of the unit two-point operator L of a grid.

    L x sums area/dist * (x_L - x_R) over the faces of each cell: over the
    boundary faces too, with the ghost half a cell out held at 0, when
    ``dirichlet``, and over the interior faces only otherwise.  With C the
    orthonormal DCT-II over the grid axes and sign the diagonal of +-1 per
    cell, L = sign C^T diag(eigenvalues) C sign.  A closed L is diagonalized
    by C itself (sign 1; 4w sin^2(pi k/2n) per axis of n cells, w the
    area/dist of its interior faces).  A Dirichlet L is diagonalized by
    DST-II, which is the reversed DCT-II of data signed (-1)^j along each
    axis (Strang, "The Discrete Cosine Transform", SIAM Rev. 41, 1999): its
    sign is (-1)^(sum of the cell's indices) and its eigenvalues, in DCT
    order, are 4w cos^2(pi k/2n) per axis.  The eigenvalues have shape
    ``grid.dims``; the diagonal and the sign are per cell.  All three arrays
    are read-only.
    """
    lam, diag, sign = np.zeros(grid.dims), np.zeros(grid.dims), np.ones(grid.dims)
    volume = grid.cell_volume
    for d, (n, h) in enumerate(zip(grid.dims, grid.spacing)):
        weight = volume / h ** 2  # area/dist of an interior face
        shape = [1] * grid.ndim
        shape[d] = n
        k = np.arange(n)
        lam += (4.0 * weight * (np.cos if dirichlet else np.sin)(np.pi * k / (2 * n)) ** 2
                ).reshape(shape)
        diag_d = np.full(n, 2.0 * weight)
        # a boundary face at half-cell distance weighs 2, where the missing neighbor weighed 1;
        # each end separately, as a one-cell axis has both in its one cell
        end = weight if dirichlet else -weight
        diag_d[0] += end
        diag_d[-1] += end
        diag += diag_d.reshape(shape)
        if dirichlet:
            sign *= np.where(k % 2, -1.0, 1.0).reshape(shape)
    diag, sign = diag.ravel(), sign.ravel()
    for a in (lam, diag, sign):
        a.flags.writeable = False
    return lam, diag, sign


class _TransformInverse:
    """Inverse of the constant-coefficient fits of the m species blocks of ``a``, by one DCT pair.

    Each species block A_kk is fitted by P = c0 I + g L on its grid
    (:func:`_spectrum`).  g is minus the sum of its off-diagonal entries over
    twice the sum of area/dist over the interior faces.  c0 is the mean row
    sum of A_kk, less g times each cell's area/dist over its boundary faces
    when the block is Dirichlet, over the cells without a boundary face (over
    all cells if there is none): its mass term when the block is
    conservative.  A block is Dirichlet when its assembly recorded a face
    term on the boundary faces (:meth:`SystemBuilder.matrix`; a matrix built
    elsewhere records none), and closed otherwise.  P is scaled
    symmetrically to the diagonal of A_kk, M = S P S with
    S = sqrt(diag A_kk / diag P).  The fit keeps two stacked arrays: the
    inverse eigenvalues, shape ``(m, *grid.dims)``, and the inverse scales
    times the block's sign, one per unknown.  So :meth:`solve` applies
    M^-1 = S^-1 sign C^T diag(eigenvalues)^-1 C sign S^-1 to every species
    at once, by one ``dctn`` and one ``idctn`` over the grid axes of the
    stacked residual, whatever the blocks' boundary kinds.  A fit with a
    zero or non-finite eigenvalue or scale raises :class:`SolverFailure`.
    """

    def __init__(self, a: sparse.csr_matrix, grid: Grid, m: int):
        # imported here: scipy.fft imports scipy.special, a cost only these runs pay
        from scipy import fft
        ft = face_table(grid)
        ni = ft.n_interior
        dirichlet = {t[1] for t in getattr(a, "terms", ())
                     if t[0] == "face" and t[1] == t[2] and t[3] > ni}
        inner = np.ones(grid.n_cells, dtype=bool)
        inner[ft.bnd_cell] = False
        weight = 2.0 * float(np.sum(ft.area[:ni] / ft.dist[:ni]))
        n = grid.n_cells
        # a Dirichlet block's row sum beyond c0, over g: 0 on the inner cells
        bnd_weight = np.bincount(ft.bnd_cell, weights=ft.area[ni:] / ft.dist[ni:], minlength=n)
        self.fft = fft
        self.axes = tuple(range(1, grid.ndim + 1))
        self.inv_eig = np.empty((m, *grid.dims))
        self.inv_scale = np.empty(m * n)
        for k in range(m):
            block = a[k * n:(k + 1) * n, k * n:(k + 1) * n]
            lam, diag_l, sign = _spectrum(grid, k in dirichlet)
            row_sum = np.asarray(block.sum(axis=1)).ravel()
            diag = block.diagonal()
            g = -float(row_sum.sum() - diag.sum()) / weight
            if k in dirichlet:
                row_sum -= g * bnd_weight
            c0 = float(np.mean(row_sum[inner] if inner.any() else row_sum))
            eig = c0 + g * lam
            with np.errstate(divide="ignore", invalid="ignore"):
                scale = np.sqrt(diag / (c0 + g * diag_l))
            if not (np.all(np.isfinite(eig)) and np.all(eig != 0.0)
                    and np.all(np.isfinite(scale)) and np.all(scale > 0.0)):
                raise SolverFailure(f"fast-transform fit of species block {k} is singular "
                                    f"or not finite")
            np.divide(1.0, eig, out=self.inv_eig[k])
            np.divide(sign, scale, out=self.inv_scale[k * n:(k + 1) * n])

    def solve(self, r: np.ndarray) -> np.ndarray:
        y = self.fft.dctn((r * self.inv_scale).reshape(self.inv_eig.shape), type=2,
                          norm="ortho", axes=self.axes, overwrite_x=True)
        y *= self.inv_eig
        x = self.fft.idctn(y, type=2, norm="ortho", axes=self.axes, overwrite_x=True).ravel()
        x *= self.inv_scale
        return x


class BlockFactors:
    """The kept inverse of one run's species block diagonal on ``grid``, and nothing else.

    A run makes one holder and passes it to every :func:`solve_sparse` call
    (an aquifer run's initial head solve makes its own), so no inverse
    outlives its run.  ``inverse`` is None until the first solve on the
    GMRES path, then the inverse of the m diagonal blocks ``A_ii`` of a
    matrix of the run, the couplings between species left out, as
    :meth:`rebuild` last built it.  A grid with at least
    ``TRANSFORM_MIN_CELLS[grid.ndim]`` cells (a 2D grid of 72x72 or more)
    applies every block's constant-coefficient fit by one DCT-II pair over the
    stacked species (:class:`_TransformInverse`); any other grid takes one SuperLU
    factorization of the block diagonal, whose solve matches the per-block
    factors bit for bit when the blocks share one sparsity pattern
    (``tests/test_fv.py`` checks it); the grid decides, never the data.  The
    inverse is kept across Picard sweeps and steps; :func:`solve_sparse`
    alone decides when to rebuild it, and the holder carries nothing else
    from one solve to the next.  Its GMRES (:func:`_fgmres`) calls the
    inverse's ``solve`` on one basis vector per inner iteration, with no
    wrapper in between.
    """

    __slots__ = ("m", "grid", "inverse")

    def __init__(self, m: int, grid: Grid):
        self.m = m
        self.grid = grid
        self.inverse = None

    def rebuild(self, a: sparse.csr_matrix) -> None:
        """Replace the inverse by that of the species block diagonal of ``a``."""
        self.inverse = None  # free the old inverse before building a new one
        n = self.grid.n_cells
        if n < TRANSFORM_MIN_CELLS[self.grid.ndim]:
            coo = a.tocoo()
            keep = coo.row // n == coo.col // n
            self.inverse = _factor(sparse.csc_matrix(
                (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=a.shape))
        else:
            self.inverse = _TransformInverse(a, self.grid, self.m)


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """The inner product of two vectors, summed by numpy itself.

    ``np.dot`` and ``np.linalg.norm`` call BLAS, which splits a reduction of
    more than about 10^4 entries across its threads and so changes its
    rounding with the thread count (Demmel and Nguyen, IEEE Trans. Comput.
    64, 2015).  ``einsum`` never calls BLAS, so every long reduction of a run
    goes through this pair and gives the same bits at any thread count.
    """
    return float(np.einsum("i,i->", x, y))


def _norm(x: np.ndarray) -> float:
    """The 2-norm of a vector by :func:`_dot`."""
    return math.sqrt(_dot(x, x))


def _rounding_floor(a: sparse.csr_matrix, x: np.ndarray, bnorm: float) -> float:
    """Relative residual eps (||a||_inf ||x||_2 + ||b||_2) / ||b||_2 of a solve of ``a x = b``.

    It is the normwise backward-error bound of Rigal and Gaches (J. ACM 14,
    1967; Higham, *Accuracy and Stability of Numerical Algorithms*, SIAM
    2002, Ch. 7): a backward-stable solve in float64 reaches about this
    residual, and refinement in working precision cannot lower it.
    ``||a||_inf`` is the largest row sum of ``|a|``.  A non-finite system
    has no floor (0), so its residual check fails as before.
    """
    floor = np.finfo(float).eps * (spla.norm(a, np.inf) * _norm(x) / bnorm + 1.0)
    return floor if math.isfinite(floor) else 0.0


def _fgmres(a: sparse.csr_matrix, b: np.ndarray, x: np.ndarray, inverse, tol: float,
            bnorm: float, budget: int) -> tuple[np.ndarray, float, int, bool]:
    """Restarted flexible GMRES from ``x``, right-preconditioned by ``inverse.solve``.

    Returns (x, residual, iterations, accepted).  A cycle of at most
    :data:`GMRES_RESTART` inner iterations keeps the orthonormal basis V and
    the preconditioned vectors Z = M^-1 V, so each inner iteration is one
    application of the inverse and the cycle's update is Z y (Saad,
    *Iterative Methods for Sparse Linear Systems*, 2nd ed., SIAM 2003,
    Sec. 9.3-9.4).  A new vector is projected by classical Gram-Schmidt
    twice, unconditionally (CGS2; Giraud, Langou and Rozloznik, Comput. Math.
    Appl. 50, 2005): the usual test for the second pass, less than 0.7 of
    the norm left after the first, holds at nearly every inner iteration of
    these systems.  Givens rotations keep the least-squares residual, and a
    cycle stops once it is at most 0.1 ``tol`` ||b||, or the rounding floor
    once that is known.  Every
    cycle starts from the true residual and accepts there by the rule of
    :func:`solve_sparse`: ``tol``, or the floor, computed once, after the
    first cycle's true residual misses ``tol``.  The attempt gives up after
    ``budget`` inner iterations or at a non-finite residual.  The basis is
    allocated per cycle by ``np.empty``, so rows a cycle never writes never
    become resident, and Z keeps the arrays the inverse returns, with no
    copy.  Every reduction over the vectors is an ``einsum`` (:func:`_dot`).
    """
    n, restart = len(b), GMRES_RESTART
    iterations, floor = 0, None
    while True:
        r = b - a @ x
        beta = _norm(r)
        residual = beta / bnorm
        if residual <= tol:
            return x, residual, iterations, True
        if iterations and floor is None:
            floor = _rounding_floor(a, x, bnorm)
        if floor is not None and residual <= floor:
            return x, residual, iterations, True
        if iterations >= budget or not math.isfinite(residual):
            return x, residual, iterations, False
        stop = max(0.1 * tol, floor or 0.0) * bnorm
        basis, z = np.empty((restart + 1, n)), []
        upper = np.zeros((restart, restart))  # the Hessenberg matrix after its rotations
        rotations, g = [], [beta]
        np.divide(r, beta, out=basis[0])
        j = 0
        while j < restart and iterations < budget:
            z.append(inverse.solve(basis[j]))
            iterations += 1
            w = a @ z[j]
            v = basis[:j + 1]
            h = np.einsum("ki,i->k", v, w)
            w -= np.einsum("k,ki->i", h, v)
            again = np.einsum("ki,i->k", v, w)
            w -= np.einsum("k,ki->i", again, v)
            h += again
            after = _norm(w)
            if after > 0.0:
                np.divide(w, after, out=basis[j + 1])
            column = [*h.tolist(), after]
            for i, (c, s) in enumerate(rotations):
                top, bottom = column[i], column[i + 1]
                column[i], column[i + 1] = c * top + s * bottom, c * bottom - s * top
            rho = math.hypot(column[j], column[j + 1])
            if rho == 0.0:
                raise SolverFailure("GMRES broke down: the preconditioned matrix is singular",
                                    residual=residual)
            c, s = column[j] / rho, column[j + 1] / rho
            rotations.append((c, s))
            column[j] = rho
            g.append(-s * g[j])
            g[j] *= c
            upper[:j + 1, j] = column[:j + 1]
            j += 1
            # not above: reached, a lucky breakdown (0) or a non-finite system (nan)
            if not abs(g[j]) > stop:
                break
        y = solve_triangular(upper[:j, :j], g[:j], check_finite=False)
        x = x.copy()
        for y_k, z_k in zip(y.tolist(), z):
            x += y_k * z_k


def solve_sparse(a: sparse.csr_matrix, b: np.ndarray, tol: float, factors: BlockFactors,
                 x0: np.ndarray | None = None) -> tuple[np.ndarray, float, int, bool]:
    """Solve ``a x = b`` to relative true residual ``tol``, or its floor.

    Returns (x, residual, applications, refactored): the true relative
    residual, the preconditioner applications of this solve and whether it
    built the inverse of ``factors``.  A matrix that carries a :class:`Band`
    (:meth:`SystemBuilder.matrix` gives one to every 1D system and to 2D
    systems of at most ``DIRECT_MAX_UNKNOWNS[2]`` unknowns) is solved
    directly, by one banded LU of its interleaved system
    (:func:`_band_solve`), with no application.  Every other matrix takes
    the restarted flexible GMRES of :func:`_fgmres` from ``x0`` (0 when
    None), :data:`GMRES_RESTART` inner iterations per cycle, right-
    preconditioned by the run's one inverse of the species block diagonal,
    kept in ``factors`` and called directly, one application per inner
    iteration.  The solve builds that inverse from ``a`` when the holder
    has none.  A kept inverse may take at most :data:`REFACTOR_AFTER`
    applications: an attempt that spends them without meeting its stop
    ends, and the solve rebuilds the inverse from ``a`` and starts again
    from ``x0`` (Knoll and Keyes, J. Comput. Phys. 193, 2004, on
    refreshing a lagged preconditioner).  A fresh inverse gets one budget
    of :data:`GMRES_RESTART` * :data:`GMRES_CYCLES` inner iterations.
    ``applications`` is exactly the inner iterations, those of an abandoned
    attempt included.  Both paths accept one rule on the true residual: the
    2-norm residual is at most max(``tol`` ||b||_2, eps (||a||_inf ||x||_2 +
    ||b||_2)), the larger of the requested bound and the rounding floor
    (:func:`_rounding_floor`), so a tolerance below what float64 resolves
    stops at the floor instead of failing.  The floor is computed only after
    the residual misses ``tol``: on the GMRES path after the first cycle,
    and from then on it is each cycle's absolute stop.  A residual above
    both bounds, a singular (the banded LU names its exactly zero pivot) or
    a non-finite system raises :class:`SolverFailure`, which carries the
    final relative residual; a GMRES stall names the inverse (SuperLU or
    transform) and the applications spent.  ``b = 0`` returns x = 0 at once.
    """
    bnorm = _norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0.0, 0, False
    band = getattr(a, "band", None)
    if band is not None:
        x = _band_solve(a, b, band)
        residual = _norm(b - a @ x) / bnorm
        if residual <= tol or residual <= _rounding_floor(a, x, bnorm):
            return x, residual, 0, False
        route = "the banded LU"
    else:
        x0 = np.zeros_like(b) if x0 is None else x0
        budget = GMRES_RESTART * GMRES_CYCLES
        refactored, applications = factors.inverse is None, 0
        while True:
            if refactored:
                factors.rebuild(a)
            x, residual, spent, accepted = _fgmres(
                a, b, x0, factors.inverse, tol, bnorm,
                budget if refactored else min(budget, REFACTOR_AFTER))
            applications += spent
            if accepted:
                return x, residual, applications, refactored
            if refactored or spent < REFACTOR_AFTER:
                break
            refactored = True  # the kept inverse is stale: rebuild it and start again
        kind = "transform" if isinstance(factors.inverse, _TransformInverse) else "SuperLU"
        route = f"GMRES on the {kind} inverse after {applications} applications"
    raise SolverFailure(
        f"linear solver stalled at relative residual {residual:.3e} (tol {tol:.3e}): {route}",
        residual=residual)
