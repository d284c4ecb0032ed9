"""Deterministic sparse solvers for the reduced systems.

Desk-scale problems (<= a few 10^5 dofs) use SuperLU only where a factor
is needed. SPD systems are solved by preconditioned CG: the potential chain
factors its Poisson seed once per level and preconditions each
frozen-coefficient Picard matrix with that factor (the
coefficient is bounded, so the two are spectrally equivalent independently
of h), and the recovery mass matrices use the Jacobi diagonal and factor
nothing. Every solve verifies its own residual: a returned
:class:`SolveReport` (residual, iteration count and the fill of the factor
used) means the solve succeeded, and a failed one raises
:class:`SolverError` with a message naming the failure.

:func:`factor` makes every factorization in the package: SuperLU in symmetric
mode on minimum degree of ``A + A'``, no pivoting. Each matrix factored has an
LU without pivoting under any symmetric order (Golub & Van Loan, section 4.2):
the potential matrices are SPD, the velocity block is positive real (SPD
viscous part, skew convection, symmetric pattern) and :mod:`verify`'s shifted
inf-sup pencil is symmetric quasi-definite (Vanderbei, 1995). Pivots would
leave that order and add fill; the residual checks see any element growth.

Saddle-point systems are solved blockwise: the velocity operator is one
scalar block applied to both components, so that block is factored, and the
pressure comes from GMRES on the Schur complement, preconditioned by the
lumped pressure mass.
That GMRES is the module's own loop: unrestarted (Saad & Schultz, 1986),
with classical Gram-Schmidt done twice, CGS2 (Giraud, Langou & Rozloznik,
2005), so each iteration orthogonalises by two matrix-vector products
against the basis. It stops on the Givens estimate of the residual; the
full-system residual check that follows is what a returned solve answers to.
GMRES starts from a given pressure (the previous Oseen sweep's) or from zero.
The returned pressure is mean-free to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular

from .assembly import SaddleSystem
from .fespace import componentwise

SPD_RTOL = 1e-10
# Preconditioned CG on SPD systems stops at CG_RTOL of the right-hand side,
# below SPD_RTOL so the true-residual check passes despite the drift of the
# recursive residual. With the seed factor or the Jacobi diagonal the counts
# do not grow with h; the cap is reached only when a Picard coefficient has
# moved far from the seed's.
CG_RTOL = 1e-11
CG_MAXITER = 50
# Jacobi CG on the recovery mass matrices, whose conditioning depends on shape
# regularity, not h: the NE1 mass takes 39-42 iterations on the uniform mesh
# and 53-63 with vertices jittered by +-0.25 h, a third of this cap.
JACOBI_MAXITER = 200
SADDLE_RTOL = 1e-9
# GMRES on the pressure Schur complement. Its residual is the pressure-row
# residual of the full system, so it stops at SCHUR_RTOL relative to its own
# right-hand side or to the full one, whichever is larger (the Schur
# right-hand side is pure round-off when p = 0); tighter than SADDLE_RTOL so
# the full-system check passes with margin. The cap is reached only when the
# preconditioner fails.
SCHUR_RTOL = 1e-12
SCHUR_MAXITER = 200


class SolverError(RuntimeError):
    """Raised when a factorization breaks down or the residual contract fails."""


@dataclass(frozen=True)
class SolveReport:
    residual_norm: float
    iterations: int  # Krylov iterations; 0 for a direct solve or a converged start
    fill: int  # nonzeros of the L and U factors used; 0 for Jacobi CG


def factor(a: sp.spmatrix):
    """SuperLU factor of ``a`` by the policy above; SolverError on breakdown."""
    try:
        return spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"factorization failed: {exc}") from exc


class ReusedFactor:
    """A SuperLU factor kept across the SPD solves of one level.

    The first solve through it factors its own matrix and keeps the factor;
    later solves run CG preconditioned by that factor. A solve whose CG
    reaches :data:`CG_MAXITER` factors its own matrix, which then serves the
    rest of the level.
    """

    def __init__(self):
        self.lu = None


def _cg(a, b, m_solve, x0, maxiter):
    """Preconditioned CG: ``(x, iterations)``, ``x`` None at the cap."""
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    m = spla.LinearOperator(a.shape, matvec=m_solve, dtype=float)
    x, info = spla.cg(
        a, b, x0=x0, rtol=CG_RTOL, atol=0.0, maxiter=maxiter, M=m, callback=count
    )
    return (x if info == 0 else None), iterations


def _gmres(matvec, b, x0, atol):
    """Unrestarted GMRES with CGS2: ``(x, iterations)``, ``x`` None on failure.

    Stops when the Givens residual is at most ``max(atol, SCHUR_RTOL |b|)``
    or on a happy breakdown, and fails on a zero pivot or after
    ``min(SCHUR_MAXITER, len(b))`` iterations. A zero ``b`` returns ``b``, and a start ``x0`` (None for zero)
    whose residual is already below the tolerance returns ``x0``, both after
    0 iterations.
    """
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return b, 0
    tol = max(atol, SCHUR_RTOL * b_norm)
    x = np.zeros_like(b) if x0 is None else x0
    r = b - matvec(x) if x.any() else b
    beta = np.linalg.norm(r)
    if beta < tol:
        return x, 0
    m = min(SCHUR_MAXITER, b.size)
    basis = np.empty((m + 1, b.size))
    basis[0] = r / beta
    hess = np.zeros((m, m))  # the Hessenberg matrix, rotated to triangular
    g = [beta]  # the rotated right-hand side; |g[-1]| is the residual
    rotations = []
    eps = np.finfo(float).eps
    for j in range(m):
        w = matvec(basis[j])
        w_norm = np.linalg.norm(w)
        v = basis[: j + 1]
        h = v @ w
        w -= h @ v
        dh = v @ w
        w -= dh @ v
        col = (h + dh).tolist()
        h_next = float(np.linalg.norm(w))
        if h_next <= eps * w_norm:  # happy breakdown: the Krylov space is invariant
            h_next = 0.0
        else:
            basis[j + 1] = w / h_next
        for k, (c, s) in enumerate(rotations):
            col[k], col[k + 1] = c * col[k] + s * col[k + 1], c * col[k + 1] - s * col[k]
        diag = math.hypot(col[j], h_next)
        if diag == 0.0:  # singular on the Krylov space: no least-squares step
            return None, j + 1
        c, s = col[j] / diag, h_next / diag
        rotations.append((c, s))
        col[j] = diag
        hess[: j + 1, j] = col
        g.append(-s * g[j])
        g[j] *= c
        if abs(g[j + 1]) <= tol or h_next == 0.0:
            y = solve_triangular(hess[: j + 1, : j + 1], g[: j + 1])
            return x + y @ v, j + 1
    return None, m


def solve_spd(a: sp.spmatrix, b: np.ndarray, precond, x0=None):
    """Solve a symmetric positive definite reduced system.

    ``precond`` picks the method: ``"jacobi"`` runs CG preconditioned by
    ``diag(a)``, capped at :data:`JACOBI_MAXITER`, and factors nothing; a
    :class:`ReusedFactor` runs CG preconditioned by its factor, capped at
    :data:`CG_MAXITER` (factoring ``a`` when it is empty or CG reaches the
    cap, so a fresh one gives a direct solve). ``x0`` starts CG.

    Returns ``(x, report)`` with a relative residual below :data:`SPD_RTOL`;
    ``report.iterations`` is the CG count (0 for a direct solve) and
    ``report.fill`` the fill of the factor used (0 for Jacobi). Raises
    :class:`SolverError` on an unsymmetric matrix, a breakdown, Jacobi CG
    reaching its cap or a residual above the contract.
    """
    a = a.tocsc()
    asym = abs(a - a.T)
    if asym.nnz and asym.max() > 1e-12 * abs(a).max():
        raise SolverError("matrix is not symmetric")
    b = np.asarray(b, dtype=float)
    iterations = fill = 0
    if isinstance(precond, ReusedFactor):
        x = None
        if precond.lu is not None:
            x, iterations = _cg(a, b, precond.lu.solve, x0, CG_MAXITER)
        if x is None:
            precond.lu = factor(a)
            x = precond.lu.solve(b)
        fill = precond.lu.nnz
    elif precond == "jacobi":
        diag = a.diagonal()
        x, iterations = _cg(a, b, lambda r: r / diag, x0, JACOBI_MAXITER)
    else:
        raise ValueError(f"unknown preconditioner {precond!r}")
    if x is None:  # Jacobi CG reached the cap
        raise SolverError(f"Jacobi CG not converged after {iterations} iterations")
    if not np.all(np.isfinite(x)):
        raise SolverError("non-finite solution")
    res = np.linalg.norm(b - a @ x)
    rel = res / max(np.linalg.norm(b), 1e-300)
    if not rel <= SPD_RTOL:  # a NaN residual fails too
        raise SolverError(f"relative residual {rel:.3e} above {SPD_RTOL}")
    return x, SolveReport(res, iterations, fill)


def solve_saddle(sys: SaddleSystem, p0: np.ndarray | None = None):
    """Block Schur-complement solve of one Oseen/Stokes saddle system.

    Eliminates the constrained velocity dofs by lifting and solves

        A_ff u - B_f' p + 0     = lift_u
        B_f u  + 0      + lam m = lift_p
        0      + m' p   + 0     = 0

    with ``m`` the pressure-mean row and ``A_ff`` the free part of the scalar
    block ``sys.A``, factored once and applied to both velocity components
    as the two columns of one product. Since the pressure basis sums to one
    and free velocities vanish on the boundary, ``B_f' 1 = 0`` and the
    multiplier is ``lam = sum(lift_p) / sum(m)``. The pressure solves
    ``B_f A_ff^-1 B_f' p = lift_p - lam m - B_f A_ff^-1 lift_u`` by the
    module's unrestarted CGS2 GMRES, right-preconditioned with ``diag(m)``,
    the lumped pressure mass, and the velocity follows from one more block
    solve. As ``B_f' 1 = 0``, the Schur right-hand side, the start ``m * p0``
    and every Krylov vector sum to zero, so ``m' p`` needs no shift to zero.
    GMRES stops when its Givens residual, the pressure-row residual, is below
    :data:`SCHUR_RTOL` of the larger of the Schur and the full right-hand
    side; the full-system residual is then computed and checked against
    :data:`SADDLE_RTOL`.

    ``p0`` is an initial pressure, typically the previous Oseen sweep's;
    GMRES then starts from ``m * p0``, the right-preconditioned unknown.
    The stopping test does not depend on the start, so a warm start changes
    only the iteration count, not the accuracy.

    Returns ``(u, p, report)`` where ``u`` has full length (prescribed values
    filled back in), ``p`` satisfies |int p| <= 1e-12 * scale,
    ``report.iterations`` is the GMRES count (0 when ``p0`` already meets the
    tolerance) and ``report.fill`` the fill of the velocity block factor.
    Raises :class:`SolverError` when the mean row is missing, the
    factorization fails, GMRES reaches :data:`SCHUR_MAXITER` or the
    full-system relative residual exceeds :data:`SADDLE_RTOL`.
    """
    free = sys.free_u
    mean = sys.mean
    if mean is None or not np.any(mean):
        raise SolverError("pressure mean row missing")
    # component-major vectors as (n, 2) columns, one per component
    n = sys.A.shape[0]
    a_ff, lift_cols, _ = reduce_dirichlet(
        sys.A, sys.rhs_u.reshape(2, n).T, free[:n], sys.g.reshape(2, n).T
    )
    lift_u = lift_cols.T.ravel()
    b_f = sp.csr_matrix(sys.B[:, free])
    b_ft = b_f.T.tocsr()
    lift_p = -(sys.B @ sys.g)  # g is zero on the free dofs

    h = a_ff.shape[0]
    # allocated before the factor: above its buffers in the heap, a live array
    # would keep their memory resident once freed (only the top is given back)
    u = sys.g.copy()
    lu = factor(a_ff)

    def a_inv(x):
        # both components in one two-column triangular solve; the transposed
        # view is already the column-major layout SuperLU works in
        return lu.solve(x.reshape(2, h).T).T.ravel()

    lam = lift_p.sum() / mean.sum()
    rhs_norm = np.linalg.norm(np.concatenate([lift_u, lift_p]))
    # right-preconditioned Schur operator S diag(m)^-1: GMRES then minimizes
    # the true pressure-row residual, the quantity the full-system check sees
    y, iterations = _gmres(
        lambda q: b_f @ a_inv(b_ft @ (q / mean)),
        lift_p - lam * mean - b_f @ a_inv(lift_u),
        None if p0 is None else mean * p0,
        SCHUR_RTOL * rhs_norm,
    )
    if y is None:
        raise SolverError(f"Schur GMRES not converged after {iterations} iterations")
    p = y / mean
    u_f = a_inv(lift_u + b_ft @ p)
    if not np.all(np.isfinite(u_f)):
        raise SolverError("non-finite saddle solution")

    r_u = componentwise(a_ff, u_f) - b_ft @ p - lift_u
    r = np.concatenate([r_u, b_f @ u_f + lam * mean - lift_p, [mean @ p]])
    res = np.linalg.norm(r)
    rel = res / max(rhs_norm, 1e-300)
    if not rel <= SADDLE_RTOL:  # a NaN residual fails too
        raise SolverError(f"saddle residual {rel:.3e} above {SADDLE_RTOL}")
    u[free] = u_f
    return u, p, SolveReport(res, iterations, lu.nnz)


def reduce_dirichlet(a: sp.spmatrix, b: np.ndarray, free: np.ndarray, g=None):
    """Restrict ``a x = b`` to the free dofs, lifting prescribed values ``g``.

    ``b`` and ``g`` may carry one column per right-hand side. ``g`` is zero
    on the free dofs, so the lift is ``a[free] @ g``; ``g=None`` means zero
    values, which need no lift. Returns
    ``(a_ff, b_f, expand)`` where ``expand`` maps a free-dof solution back to
    full length with the prescribed values filled in.
    """
    a_free = a.tocsr()[free]
    a_ff = a_free[:, free]
    if g is None:
        g = np.zeros(a.shape[0])
        b_f = b[free]
    else:
        b_f = b[free] - a_free @ g

    def expand(x_f):
        x = g.copy()
        x[free] = x_f
        return x

    return a_ff, b_f, expand
