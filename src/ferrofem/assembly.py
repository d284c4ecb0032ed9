"""Element-loop assembly of the variational forms.

All kernels are vectorized over elements and reference-first: per-point
data is mapped to reference coordinates (J^-1 for vectors, det J^-1 J^-T for
gradient products) and contracted with a reference basis table in one matrix
product over all elements. Local matrices are scattered through COO -> CSR,
which sums duplicates deterministically. Sparse storage is scipy CSR. Load
vectors evaluate their data over element blocks (``fespace.element_blocks``)
and scatter the joined local vectors once.

Quadrature policy, decided here alone: terms with polynomial integrands
use a rule exact for the integrand; terms carrying the non-polynomial
Langevin coefficients or pointwise data add ``QUAD_BUMP`` degrees to the
polynomial part's. Mass matrices and projection loads share one degree per
space, a load taking that of the space its data lives on.

Load data is a callable on (n, 2) physical points or a pair
``(field, transform)``: the field's point values (a scalar field's
gradient), mapped by ``transform`` unless it is None.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fespace, material, refelem
from .fespace import FEField, FESpace
from .material import MaterialParams

# polynomial degree of each scalar family; an edge family counts as the
# potential space whose gradients it holds (P1 -> NE0, P2 -> NE1)
_POLY_DEG = {"P0": 0, "P1": 1, "P2": 2, "CR": 1, "NE0": 1, "NE1": 2}

# extra rule degrees for non-polynomial integrands and pointwise data; every
# rule it yields is stocked (the largest, the P2 force load's, is degree 8)
QUAD_BUMP = 2


def _l2_degree(space: FESpace, bump: int = 0) -> int:
    """Rule degree of L2 products on ``space``: its mass degree plus ``bump``."""
    return max(1, 2 * _POLY_DEG[space.family] + bump)


def _source(src, mesh, rule) -> np.ndarray:
    """Load data at the rule's points of every element, shape (nt, nq, ...)."""
    if isinstance(src, tuple):
        field, transform = src
        values, derived = fespace.eval_field(field, fespace.tabulate(field.space, rule))
        # a scalar field contributes through its gradient (the magnetic
        # field of a potential), any other field by value
        scalar = not field.space.is_edge_family and field.space.components == 1
        vals = derived if scalar else values
        return vals if transform is None else transform(vals)
    vals = np.asarray(src(fespace.quad_points(mesh, rule).reshape(-1, 2)))
    return vals.reshape((mesh.n_triangles, rule.n_points) + vals.shape[1:])


def _local_loads(space: FESpace, src, rule, kernel) -> np.ndarray:
    """Local load vectors ``kernel(tab, data)`` of every element, by element blocks.

    ``tab`` is a block's tabulation of ``space`` and ``data`` the block's
    ``_source`` values; a field's space is restricted with ``space``. Blocks
    join along the element axis (the second last), so the one scatter sums
    in the same order whatever the block size.
    """
    field = src[0] if isinstance(src, tuple) else None
    spaces = (space,) if field is None else (space, field.space)
    parts = []
    for block in fespace.element_blocks(*spaces):
        data = src if field is None else (FEField(block[1], field.coeffs), src[1])
        parts.append(kernel(fespace.tabulate(block[0], rule), _source(data, block[0].mesh, rule)))
    return np.concatenate(parts, axis=-2)


def _load_rule(space: FESpace, src):
    """Rule of a projection load onto ``space``, set by the space of its data."""
    data_space = src[0].space if isinstance(src, tuple) else space
    return refelem.quadrature(_l2_degree(data_space, QUAD_BUMP))


def _scatter_matrix(local, row_dofs, col_dofs, shape) -> sp.csr_matrix:
    rows = np.broadcast_to(row_dofs[:, :, None], local.shape).ravel()
    cols = np.broadcast_to(col_dofs[:, None, :], local.shape).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=shape).tocsr()


def _scatter_vector(local, dofs, n) -> np.ndarray:
    return np.bincount(dofs.ravel(), weights=local.ravel(), minlength=n)


def _dx(tab):
    """Quadrature weights times Jacobian determinants, shape (nt, nq)."""
    return tab.rule.weights[None, :] * tab.det[:, None]


def _gram(space: FESpace, tab, table, coeff=None) -> sp.csr_matrix:
    """Matrix of int coeff (J^-T t_i) . (J^-T t_j) over the scalar dofs of ``space``.

    ``table`` (ndof, nq, 2) holds reference gradients or edge vectors. Without
    a pointwise ``coeff`` (nt, nq) it is integrated once: (nt, 4) @ (4, ndof^2).
    """
    nt, ndof = tab.signs.shape
    metric = tab.det[:, None, None] * (tab.jac_inv @ tab.jac_inv.transpose(0, 2, 1))
    if coeff is None:
        ref = np.einsum("q,iqb,jqc->bcij", tab.rule.weights, table, table)
        w = metric
    else:
        ref = np.einsum("iqb,jqc->qbcij", table, table)
        w = (coeff * tab.rule.weights)[:, :, None, None] * metric[:, None]
    local = (w.reshape(nt, -1) @ ref.reshape(-1, ndof * ndof)).reshape(nt, ndof, ndof)
    local *= tab.signs[:, :, None] * tab.signs[:, None, :]
    n = space.n_scalar
    return _scatter_matrix(local, space.cell_dofs, space.cell_dofs, (n, n))


def _pairing(tab, table, data) -> np.ndarray:
    """Local vectors of int data . (J^-T t_i) for a (ndof, nq, 2) reference table.

    ``data`` (nt, nq, 2) is weighted here by the measure; v . (J^-T g) =
    (J^-1 v) . g.
    """
    nt, ndof = tab.signs.shape
    ref = ((data * _dx(tab)[:, :, None]) @ tab.jac_inv.transpose(0, 2, 1)).reshape(nt, -1)
    return (ref @ table.transpose(1, 2, 0).reshape(-1, ndof)) * tab.signs


# ---------------------------------------------------------------------------
# scalar elliptic forms
# ---------------------------------------------------------------------------


def assemble_weighted_stiffness(
    space: FESpace, w=None, params: MaterialParams | None = None
) -> sp.csr_matrix:
    """Stiffness matrix of the form int alpha(|grad w|) grad(phi).grad(tau).

    ``w`` selects the coefficient: ``None`` gives alpha == 1 (the plain
    Laplace matrix), an :class:`FEField` on ``space`` freezes the previous
    Picard iterate. The matrix is symmetric and positive definite on the
    free dofs.
    """
    if space.components != 1 or space.is_edge_family:
        raise ValueError("weighted stiffness expects a scalar Lagrange space")
    deg = max(1, 2 * (_POLY_DEG[space.family] - 1) + (0 if w is None else QUAD_BUMP))
    rule = refelem.quadrature(deg)
    tab = fespace.tabulate(space, rule)
    coeff = None
    if w is not None:
        if w.space is not space:
            raise ValueError("Picard iterate must live on the assembly space")
        _, gw = fespace.eval_field(w, tab)
        coeff = material.alpha(np.sqrt((gw * gw).sum(axis=-1)), params)
    return _gram(space, tab, tab.grads, coeff)


def _flux_load(space: FESpace, src, flux) -> np.ndarray:
    """Load vector tau -> int flux(v) . grad(tau) for the vector data ``v`` of ``src``."""
    rule = refelem.quadrature(2 + _POLY_DEG[space.family] + QUAD_BUMP)
    local = _local_loads(space, src, rule, lambda tab, v: _pairing(tab, tab.grads, flux(v)))
    return _scatter_vector(local, space.cell_dofs, space.n_dofs)


def elliptic_rhs_manufactured(space: FESpace, grad_phi, params: MaterialParams) -> np.ndarray:
    """Load vector tau -> int alpha(|grad phi|) grad(phi).grad(tau).

    This is the weak residual of the exact potential, which equals -(g, tau)
    by integration by parts, so no symbolic divergence of the nonlinear flux
    is ever needed.
    """
    def flux(g):
        return material.alpha(np.sqrt((g * g).sum(axis=-1)), params)[:, :, None] * g

    return _flux_load(space, grad_phi, flux)


def elliptic_rhs_external(space: FESpace, h_ext, params: MaterialParams) -> np.ndarray:
    """Load vector tau -> (1/mu0) int H_e . grad(tau) for an applied field."""
    return _flux_load(space, h_ext, lambda h: h / params.mu0)


# ---------------------------------------------------------------------------
# edge-space mass and projections
# ---------------------------------------------------------------------------


def assemble_edge_mass(space: FESpace) -> sp.csr_matrix:
    """L2 mass matrix of an edge space over all dofs (no boundary removal)."""
    rule = refelem.quadrature(_l2_degree(space))
    tab = fespace.tabulate(space, rule)
    return _gram(space, tab, tab.values)


def assemble_edge_rhs(space: FESpace, src) -> np.ndarray:
    """Load vector F -> int v . F for the edge-space L2 projections.

    ``src`` gives the vector data ``v`` (see the module docstring), e.g. the
    magnetization law applied to the recovered magnetic field.
    """
    local = _local_loads(space, src, _load_rule(space, src),
                         lambda tab, v: _pairing(tab, tab.values, v))
    return _scatter_vector(local, space.cell_dofs, space.n_dofs)


def assemble_scalar_mass(space: FESpace) -> sp.csr_matrix:
    """L2 mass matrix of a scalar space (one component)."""
    rule = refelem.quadrature(_l2_degree(space))
    tab = fespace.tabulate(space, rule)
    local = tab.det[:, None, None] * ((tab.values * rule.weights) @ tab.values.T)
    n = space.n_scalar
    return _scatter_matrix(local, space.cell_dofs, space.cell_dofs, (n, n))


def assemble_scalar_rhs(space: FESpace, src) -> np.ndarray:
    """Load vector chi -> int f chi against a scalar space.

    ``src`` gives the scalar data ``f`` (see the module docstring), e.g. the
    pressure potential beta(|H|) - beta(0) of the recovered magnetic field.
    """
    local = _local_loads(space, src, _load_rule(space, src),
                         lambda tab, f: (f * _dx(tab)) @ tab.values.T)
    return _scatter_vector(local, space.cell_dofs, space.n_scalar)


# ---------------------------------------------------------------------------
# Navier-Stokes saddle blocks
# ---------------------------------------------------------------------------

_SUPPORTED_PAIRS = {("CR", "P0"), ("P2", "P1")}


@dataclass
class SaddleSystem:
    """Assembled saddle-point problem for one Oseen/Stokes sweep.

    ``A`` is the scalar block of the velocity operator (viscous plus
    convective), applied to each component alike: ``block_diag(A, A)`` acts
    on the component-major velocity, as do ``B``, the divergence pairing
    (q, div v), and the vectors ``rhs_u``, ``g`` (prescribed values on the
    constrained dofs, zero elsewhere) and ``free_u`` (a tiled mask). ``mean``
    is the pressure-mean row that pins the L2_0 constraint through one
    scalar multiplier.
    """

    A: sp.csr_matrix
    B: sp.csr_matrix
    mean: np.ndarray
    rhs_u: np.ndarray
    free_u: np.ndarray
    g: np.ndarray


def _stokes_quad_degree(vfam: str) -> int:
    # covers viscous, divergence and skew convection terms for the pair
    return 4 if vfam == "CR" else 6


def assemble_stokes_blocks(
    v_space: FESpace, w_space: FESpace, eta: float
) -> SaddleSystem:
    """Scalar viscous block, divergence block and pressure-mean row for a stable pair.

    Supported pairs: (CR^2, P0) with element-wise gradients and the
    Taylor-Hood pair (P2^2, P1).
    """
    pair = (v_space.family, w_space.family)
    if v_space.components != 2 or pair not in _SUPPORTED_PAIRS:
        raise ValueError(f"unsupported velocity/pressure pair {pair}")
    if v_space.mesh is not w_space.mesh:
        raise ValueError("velocity and pressure live on different meshes")
    rule = refelem.quadrature(_stokes_quad_degree(v_space.family))
    tabv = fespace.tabulate(v_space, rule)
    tabp = fespace.tabulate(w_space, rule)

    # B[q, v] = int q dv/dx_c = det sum_b J^-1[b, c] int_ref q dv/dx_b, for
    # component c in the column block of its dofs
    nt, nv = v_space.cell_dofs.shape
    npl = w_space.cell_dofs.shape[1]
    ns, np_ = v_space.n_scalar, w_space.n_scalar
    ref = np.einsum("q,kq,iqb->bki", rule.weights, tabp.values, tabv.grads)
    dj = (tabv.det[:, None, None] * tabv.jac_inv).transpose(0, 2, 1)  # [t, c, b]
    b_loc = (dj @ ref.reshape(2, -1)).reshape(nt, 2, npl, nv).transpose(0, 2, 1, 3)
    cols = np.concatenate([v_space.cell_dofs, ns + v_space.cell_dofs], axis=1)
    b = _scatter_matrix(b_loc.reshape(nt, npl, 2 * nv), w_space.cell_dofs, cols, (np_, 2 * ns))

    mean_loc = np.outer(tabp.det, tabp.values @ rule.weights)
    mean = _scatter_vector(mean_loc, w_space.cell_dofs, np_)

    return SaddleSystem(
        A=eta * _gram(v_space, tabv, tabv.grads),
        B=b,
        mean=mean,
        rhs_u=np.zeros(2 * ns),
        free_u=v_space.free_mask,
        g=np.zeros(2 * ns),
    )


def assemble_convection(v_space: FESpace, w_field: FEField, rho: float) -> sp.csr_matrix:
    """Scalar block N of the skew-symmetrized convection, v'Nu = b(w; u, v).

    b(w; u, v) = rho/2 [((w.grad)u, v) - ((w.grad)v, u)] acts on each
    velocity component alike; N = rho/2 (C - C') is the block of one
    component, so skew-symmetry is structural.
    """
    if w_field.space is not v_space:
        raise ValueError("convecting field must live on the velocity space")
    rule = refelem.quadrature(_stokes_quad_degree(v_space.family))
    tab = fespace.tabulate(v_space, rule)
    wvals, _ = fespace.eval_field(w_field, tab)
    # C_raw[i, j] = int (w . grad phi_j) phi_i = int (J^-1 w) . grad_ref(phi_j) phi_i
    wref = (wvals @ tab.jac_inv.transpose(0, 2, 1)) * _dx(tab)[:, :, None]
    nt, ndof = v_space.cell_dofs.shape
    ref = np.einsum("iq,jqb->qbij", tab.values, tab.grads).reshape(-1, ndof * ndof)
    c_loc = (wref.reshape(nt, -1) @ ref).reshape(nt, ndof, ndof)
    ns = v_space.n_scalar
    c_raw = _scatter_matrix(c_loc, v_space.cell_dofs, v_space.cell_dofs, (ns, ns))
    return 0.5 * rho * (c_raw - c_raw.T)


def assemble_ns_rhs(v_space: FESpace, f) -> np.ndarray:
    """Load vector v -> int f . v with f evaluated pointwise.

    ``f`` maps (n, 2) points to (n, 2) force values; the rule adds
    ``QUAD_BUMP`` degrees over the pair's polynomial terms to resolve smooth
    data.
    """
    rule = refelem.quadrature(_stokes_quad_degree(v_space.family) + QUAD_BUMP)
    # (2, nt, ndof), one local vector per component
    local = _local_loads(v_space, f, rule, lambda tab, fv: (
        (fv * _dx(tab)[:, :, None]).transpose(2, 0, 1) @ tab.values.T))
    dofs = v_space.cell_dofs
    return _scatter_vector(local, np.stack([dofs, v_space.n_scalar + dofs]), v_space.n_dofs)
