"""Global finite element spaces: dof maps, boundary masks, interpolation.

Gradients map into the edge spaces (P1 -> NE0, P2 -> NE1) through an explicit
sparse matrix built by :func:`gradient_matrix`; the recovery of the magnetic
field from the scalar potential rides on that identity being exact at the
coefficient level.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    if (scalar_space.family, edge_space.family) == ("P1", "NE0"):
        rows = np.repeat(np.arange(ne), 2)
        cols = np.stack([lo, hi], axis=1).ravel()
        vals = np.tile([-1.0, 1.0], ne)
        shape = (ne, scalar_space.n_scalar)
    elif (scalar_space.family, edge_space.family) == ("P2", "NE1"):
        midd = mesh.n_vertices + np.arange(ne)  # P2 edge-midpoint dofs
        rows = np.concatenate(
            [np.repeat(2 * np.arange(ne), 2), np.repeat(2 * np.arange(ne) + 1, 3)]
        )
        cols = np.concatenate(
            [np.stack([lo, hi], axis=1).ravel(), np.stack([lo, hi, midd], axis=1).ravel()]
        )
        vals = np.concatenate(
            [np.tile([-1.0, 1.0], ne), np.tile([2.0 / 3.0, 2.0 / 3.0, -4.0 / 3.0], ne)]
        )
        shape = (2 * ne, scalar_space.n_scalar)
    else:
        raise ValueError(
            f"no gradient embedding {scalar_space.family} -> {edge_space.family}"
        )
    return sp.csr_matrix((vals, (rows, cols)), shape=shape)
