"""Global finite element spaces: dof maps, boundary masks, interpolation.

Gradients map into the edge spaces (P1 -> NE0, P2 -> NE1) through an explicit
sparse matrix built by :func:`gradient_matrix`; the recovery of the magnetic
field from the scalar potential rides on that identity being exact at the
coefficient level.

Every matrix assembled on a space lives on one CSR pattern per element family
and mesh (:meth:`FESpace.pattern`), which also restricts it to the free dofs;
the divergence block's rectangular pattern is built for its one assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import refelem
from .mesh2d import Mesh2D

_GAUSS2 = np.array([-1.0, 1.0]) / np.sqrt(3.0)  # 2-point Gauss on [-1, 1]

# elements per block of the per-point kernels: an (elements x points x 2)
# array at the largest rule then stays near 0.5 MB whatever the mesh size
ELEMENT_BLOCK = 2048


@dataclass(frozen=True)
class FESpace:
    """One element family on one mesh, with global dof layout.

    Vector spaces (``components == 2``) are component-major: all x-component
    dofs first, then all y-component dofs, so scalar kernels can be reused
    blockwise. ``cell_dofs``/``cell_signs`` describe the scalar layout; the
    sign is -1 where a local edge dof sees the global edge orientation
    reversed.
    """

    mesh: Mesh2D
    family: str
    components: int
    n_scalar: int
    cell_dofs: np.ndarray  # (nt, ndof_local) int
    cell_signs: np.ndarray  # (nt, ndof_local) float
    dirichlet_scalar: np.ndarray  # (n_scalar,) bool

    @property
    def n_dofs(self) -> int:
        return self.components * self.n_scalar

    @property
    def dirichlet_mask(self) -> np.ndarray:
        if self.components == 1:
            return self.dirichlet_scalar
        return np.tile(self.dirichlet_scalar, self.components)

    @property
    def free_mask(self) -> np.ndarray:
        return ~self.dirichlet_mask

    @property
    def n_free(self) -> int:
        return int(self.free_mask.sum())

    @property
    def is_edge_family(self) -> bool:
        return refelem.FAMILIES[self.family].vector

    def zero_field(self) -> "FEField":
        return FEField(self, np.zeros(self.n_dofs))

    def pattern(self, cols: "FESpace | None" = None) -> "_Pattern":
        """CSR pattern of the matrices with rows on the scalar dofs of this space.

        Columns are the same scalar dofs, restricted like the rows to the
        free ones; the mesh keeps that pattern from its first use, so spaces
        with one dof map share it (l1's P2 potential and velocity). With
        ``cols``, the columns are every dof of ``cols`` (the divergence
        block's velocity columns), restricted to the free ones of ``cols``
        with every row kept; that pattern is built anew and not kept, as
        its one block is assembled and restricted once per level.
        """
        if cols is not None:
            col_dofs = np.concatenate([cols.cell_dofs + k * cols.n_scalar
                                       for k in range(cols.components)], axis=1)
            rows = np.ones(self.n_scalar, dtype=bool)
            return _Pattern(self.cell_dofs, col_dofs, rows, cols.free_mask)
        pat = self.mesh.patterns.get(self.family)
        if pat is None:
            free = ~self.dirichlet_scalar
            pat = _Pattern(self.cell_dofs, self.cell_dofs, free, free)
            self.mesh.patterns[self.family] = pat
        return pat


@dataclass
class FEField:
    """A coefficient vector attached to its space."""

    space: FESpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.n_dofs,):
            raise ValueError(
                f"coefficient vector has length {self.coeffs.shape}, "
                f"space has {self.space.n_dofs} dofs"
            )


class _Pattern:
    """CSR structure shared by every matrix assembled on one pair of dof maps.

    Built from each element's row dofs (nt, a) and column dofs (nt, b) by one
    stable argsort of the keys ``row * n_cols + col``: the distinct keys give
    ``indptr`` and ``indices``, and ``slot`` maps every local entry, in
    (element, row, column) order, to its place in a matrix's data array.
    Duplicates are summed by one ``bincount`` in element order, so the sum is
    deterministic. The index arrays are int32 and read-only, since every
    matrix on the pattern shares them; ``row_free``/``col_free`` are the dofs
    :meth:`restrict` keeps. A matrix on the pattern, or one :meth:`restrict`
    returns, cannot change its structure in place: ``eliminate_zeros()``
    raises ``ValueError`` and leaves every matrix as it was. Take a
    ``copy()`` first and change that.
    """

    def __init__(self, row_dofs, col_dofs, row_free, col_free):
        self.shape = (row_free.size, col_free.size)
        self.row_free, self.col_free = row_free, col_free
        self._local_shape = (row_dofs.shape[0], row_dofs.shape[1], col_dofs.shape[1])
        keys = (row_dofs[:, :, None] * self.shape[1] + col_dofs[:, None, :]).ravel()
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.empty(keys.size, dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        self.slot = np.empty(order.size, dtype=np.int32)
        self.slot[order] = np.cumsum(first, dtype=np.int32) - 1
        self.indices = (keys % self.shape[1]).astype(np.int32)
        self.indptr = np.zeros(self.shape[0] + 1, dtype=np.int32)
        np.cumsum(np.bincount(keys // self.shape[1], minlength=self.shape[0]),
                  out=self.indptr[1:])
        for index in (self.slot, self.indices, self.indptr):
            index.flags.writeable = False

    @property
    def nnz(self) -> int:
        return self.indices.size

    def matrix(self, data) -> sp.csr_matrix:
        """The CSR matrix with ``data`` on this pattern."""
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)

    def sum_local(self, local) -> np.ndarray:
        """Data array of the local matrices ``local`` (nt, a, b), summed in element order."""
        return np.bincount(self.slot, local.ravel(), minlength=self.nnz)

    def scatter(self, local) -> sp.csr_matrix:
        return self.matrix(self.sum_local(local))

    def data(self, a) -> np.ndarray:
        """The CSR data array of a matrix ``a`` on this pattern; ValueError otherwise."""
        a = a.tocsr()
        on = a.shape == self.shape and a.nnz == self.nnz and (
            np.shares_memory(a.indices, self.indices)
            or (np.array_equal(a.indptr, self.indptr) and np.array_equal(a.indices, self.indices)))
        if not on:
            raise ValueError("matrix is not on the pattern of its space")
        return a.data

    def add(self, a, b) -> sp.csr_matrix:
        """``a + b`` on this pattern, entry by entry (explicit zeros are kept)."""
        return self.matrix(self.data(a) + self.data(b))

    @cached_property
    def tperm(self) -> np.ndarray:
        """Slot of the transposed entry of every slot, for one dof map on rows and columns."""
        local = self.slot.reshape(self._local_shape)
        tperm = np.empty(self.nnz, dtype=np.int32)
        tperm[local] = local.transpose(0, 2, 1)
        tperm.flags.writeable = False
        return tperm

    @cached_property
    def _free(self):
        """Slots of the entries in free rows and columns, and their CSR structure."""
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        take = np.flatnonzero(self.row_free[rows] & self.col_free[self.indices]).astype(np.int32)
        indices = (np.cumsum(self.col_free) - 1)[self.indices[take]].astype(np.int32)
        counts = np.bincount(rows[take], minlength=self.shape[0])[self.row_free]
        indptr = np.zeros(counts.size + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        for index in (take, indices, indptr):
            index.flags.writeable = False
        return take, indices, indptr, (counts.size, int(self.col_free.sum()))

    def restrict(self, a) -> sp.csr_matrix:
        """``a[row_free][:, col_free]`` of a matrix on this pattern, by one gather."""
        take, indices, indptr, shape = self._free
        return sp.csr_matrix((self.data(a)[take], indices, indptr), shape=shape)


def componentwise(block, x: np.ndarray) -> np.ndarray:
    """``block`` on each component of ``x``: ``block_diag(block, ..., block) @ x``, bitwise."""
    return (block @ x.reshape(-1, block.shape[1]).T).T.ravel()


def build_space(mesh: Mesh2D, family: str, components: int = 1) -> FESpace:
    """Enumerate global dofs of ``family`` over ``mesh``.

    Scalar dof counts: P1 -> V, P2 -> V+E, CR -> E, P0 -> F, NE0 -> E,
    NE1 -> 2E. Edge families are intrinsically vector valued and only admit
    ``components=1``.
    """
    fam = refelem.FAMILIES.get(family)
    if fam is None:
        raise ValueError(f"unknown element family {family!r}")
    if components not in (1, 2):
        raise ValueError("components must be 1 or 2")
    if fam.vector and components != 1:
        raise ValueError(f"{family} is vector-valued; use components=1")

    nt = mesh.n_triangles
    cell_dofs = np.empty((nt, fam.n_dofs), dtype=np.int64)
    cell_signs = np.ones((nt, fam.n_dofs))

    if family == "P0":
        n_scalar = nt
        cell_dofs[:, 0] = np.arange(nt)
        dirichlet = np.zeros(n_scalar, dtype=bool)
    elif family == "P1":
        n_scalar = mesh.n_vertices
        cell_dofs[:] = mesh.triangles
        dirichlet = mesh.boundary_vertex.copy()
    elif family == "P2":
        n_scalar = mesh.n_vertices + mesh.n_edges
        cell_dofs[:, :3] = mesh.triangles
        cell_dofs[:, 3:] = mesh.n_vertices + mesh.tri_edges
        dirichlet = np.concatenate([mesh.boundary_vertex, mesh.boundary_edge])
    elif family == "CR":
        n_scalar = mesh.n_edges
        cell_dofs[:] = mesh.tri_edges
        dirichlet = mesh.boundary_edge.copy()
    elif family == "NE0":
        n_scalar = mesh.n_edges
        cell_dofs[:] = mesh.tri_edges
        cell_signs[:] = mesh.tri_edge_signs
        dirichlet = mesh.boundary_edge.copy()
    elif family == "NE1":
        n_scalar = 2 * mesh.n_edges
        cell_dofs[:, 0::2] = 2 * mesh.tri_edges
        cell_dofs[:, 1::2] = 2 * mesh.tri_edges + 1
        cell_signs[:, 0::2] = mesh.tri_edge_signs  # circulation dof flips
        dirichlet = np.repeat(mesh.boundary_edge, 2)
    else:
        raise AssertionError(family)

    return FESpace(
        mesh=mesh,
        family=family,
        components=components,
        n_scalar=n_scalar,
        cell_dofs=cell_dofs,
        cell_signs=cell_signs,
        dirichlet_scalar=dirichlet,
    )


def element_blocks(*spaces: FESpace):
    """The spaces restricted to runs of at most ``ELEMENT_BLOCK`` consecutive elements.

    Yields one tuple per block: each space with the per-element arrays of its
    mesh and dof map sliced to the block, its global numbering kept, so a
    field's coefficient vector fits its restriction as is. A mesh of at most
    ``ELEMENT_BLOCK`` elements is one block, the spaces themselves.
    """
    mesh = spaces[0].mesh
    if any(s.mesh is not mesh for s in spaces):
        raise ValueError("spaces live on different meshes")
    size = ELEMENT_BLOCK
    if mesh.n_triangles <= size:
        yield spaces
        return
    for start in range(0, mesh.n_triangles, size):
        cells = slice(start, start + size)
        sub = replace(mesh, **{name: getattr(mesh, name)[cells] for name in (
            "triangles", "tri_edges", "tri_edge_signs", "jac", "jac_inv", "det")})
        yield tuple(replace(s, mesh=sub, cell_dofs=s.cell_dofs[cells],
                            cell_signs=s.cell_signs[cells]) for s in spaces)


# ---------------------------------------------------------------------------
# tabulation at quadrature points
# ---------------------------------------------------------------------------


def quad_points(mesh: Mesh2D, rule: refelem.QuadratureRule) -> np.ndarray:
    """Physical quadrature points, shape (nt, nq, 2)."""
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    return p0[:, None, :] + rule.xy() @ mesh.jac.transpose(0, 2, 1)


@dataclass(frozen=True)
class Tabulation:
    """Reference basis tables at one quadrature rule, plus the element maps.

    No basis table is per element: kernels contract the reference tables
    first and map the result through the mesh's ``jac_inv``/``det``. Scalar:
    ``values`` (ndof, nq), ``grads`` (ndof, nq, 2), physical gradient
    J^-T grad_ref. Edge: ``values`` (ndof, nq, 2), ``curls`` (ndof, nq);
    covariant Piola gives sign J^-T v_ref and curl sign curl_ref / det,
    ``signs`` being the space's ``cell_signs``.
    """

    rule: refelem.QuadratureRule
    values: np.ndarray
    grads: np.ndarray | None
    curls: np.ndarray | None
    signs: np.ndarray  # (nt, ndof)
    jac_inv: np.ndarray  # (nt, 2, 2)
    det: np.ndarray  # (nt,)


def tabulate(space: FESpace, rule: refelem.QuadratureRule) -> Tabulation:
    base = refelem.eval_basis(space.family, rule.points)
    mesh = space.mesh
    return Tabulation(rule, base.values, base.gradients, base.curls, space.cell_signs,
                      mesh.jac_inv, mesh.det)


def eval_field(field: FEField, tab: Tabulation):
    """Evaluate a field at the tabulated quadrature points.

    Returns ``(values, gradients)`` for scalar families with shapes
    (nt, nq[, 2]) / (nt, nq, 2[, 2]) depending on ``components`` (the
    trailing gradient axis indexes the derivative direction), and
    ``(values, curls)`` for edge families with shapes (nt, nq, 2) / (nt, nq).
    """
    space = field.space
    dofs = space.cell_dofs
    nt, ndof = dofs.shape
    nq = tab.rule.n_points
    if space.is_edge_family:
        c = field.coeffs[dofs] * tab.signs
        ref = c @ tab.values.reshape(ndof, 2 * nq)
        curls = (c @ tab.curls) / tab.det[:, None]
        return ref.reshape(nt, nq, 2) @ tab.jac_inv, curls
    c = field.coeffs.reshape(space.components, -1)[:, dofs]  # (comp, nt, ndof)
    vals = c @ tab.values
    ref = c @ tab.grads.reshape(ndof, 2 * nq)
    grads = ref.reshape(space.components, nt, nq, 2) @ tab.jac_inv
    if space.components == 1:
        return vals[0], grads[0]
    # (nt, nq, 2, 2) with [i, j] = d u_i / d x_j
    return vals.transpose(1, 2, 0), grads.transpose(1, 2, 0, 3)


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def _nodal_points(space: FESpace) -> np.ndarray:
    mesh = space.mesh
    if space.family == "P1":
        return mesh.vertices
    if space.family == "P2":
        return np.vstack([mesh.vertices, mesh.edge_midpoints()])
    if space.family == "CR":
        return mesh.edge_midpoints()
    if space.family == "P0":
        return mesh.centroids()
    raise ValueError(f"{space.family} has no nodal interpolation")


def interpolate_nodal(space: FESpace, f) -> FEField:
    """Nodal/midpoint interpolant of a pointwise-evaluable function.

    ``f`` maps an (n, 2) point array to (n,) values, or to (n, 2) when the
    space has two components.
    """
    pts = _nodal_points(space)
    vals = np.asarray(f(pts), dtype=float)
    if space.components == 1:
        if vals.shape != (pts.shape[0],):
            raise ValueError("scalar interpolation needs f(points) -> (n,)")
        return FEField(space, vals)
    if vals.shape != (pts.shape[0], 2):
        raise ValueError("vector interpolation needs f(points) -> (n, 2)")
    return FEField(space, np.concatenate([vals[:, 0], vals[:, 1]]))


def edge_moments(mesh: Mesh2D, v, order: int) -> np.ndarray:
    """Tangential edge moments of a vector field, 2-point Gauss per edge.

    ``order`` 0 gives circulations int_e v.t dl; order 1 additionally the
    moments against the linear Legendre weight, interleaved per edge.
    """
    a = mesh.vertices[mesh.edges[:, 0]]
    b = mesh.vertices[mesh.edges[:, 1]]
    mid = 0.5 * (a + b)
    tau = 0.5 * (b - a)
    m0 = np.zeros(mesh.n_edges)
    m1 = np.zeros(mesh.n_edges)
    for s in _GAUSS2:
        vt = np.einsum("ea,ea->e", np.asarray(v(mid + s * tau), dtype=float), tau)
        m0 += vt
        m1 += vt * s
    if order == 0:
        return m0
    out = np.empty(2 * mesh.n_edges)
    out[0::2] = m0
    out[1::2] = m1
    return out


def interpolate_edge(space: FESpace, v) -> FEField:
    """Edge interpolant: dofs are tangential moments in global orientation."""
    if space.family == "NE0":
        return FEField(space, edge_moments(space.mesh, v, 0))
    if space.family == "NE1":
        return FEField(space, edge_moments(space.mesh, v, 1))
    raise ValueError(f"{space.family} is not an edge family")


def gradient_matrix(scalar_space: FESpace, edge_space: FESpace) -> sp.csr_matrix:
    """Sparse G with: coefficients of grad(phi_h) in the edge space = G @ phi.

    Exact at the coefficient level for the compatible pairs P1 -> NE0 and
    P2 -> NE1: the circulation dof of grad(phi) along edge (a, b) is
    phi_b - phi_a, and the linear moment for P2 is
    (2/3)(phi_a + phi_b) - (4/3)phi_mid.
    """
    mesh = scalar_space.mesh
    if mesh is not edge_space.mesh:
        raise ValueError("spaces live on different meshes")
    lo = mesh.edges[:, 0]
    hi = mesh.edges[:, 1]
    ne = mesh.n_edges
    # one edge's rows, each in ascending column order (lo < hi < every midpoint dof)
    if (scalar_space.family, edge_space.family) == ("P1", "NE0"):
        cols = np.stack([lo, hi], axis=1)
        vals = [-1.0, 1.0]
        row_sizes = [2]
    elif (scalar_space.family, edge_space.family) == ("P2", "NE1"):
        midd = mesh.n_vertices + np.arange(ne)  # P2 edge-midpoint dofs
        cols = np.stack([lo, hi, lo, hi, midd], axis=1)
        vals = [-1.0, 1.0, 2.0 / 3.0, 2.0 / 3.0, -4.0 / 3.0]
        row_sizes = [2, 3]
    else:
        raise ValueError(
            f"no gradient embedding {scalar_space.family} -> {edge_space.family}"
        )
    indptr = np.concatenate([[0], np.cumsum(np.tile(row_sizes, ne))])
    return sp.csr_matrix((np.tile(vals, ne), cols.ravel(), indptr),
                         shape=(len(row_sizes) * ne, scalar_space.n_scalar))
