from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ferrofem import assembly, driver, fespace, linalg, mesh2d, verify
from ferrofem.driver import FhdConfig
from ferrofem.fespace import FEField
from ferrofem.linalg import SolverError
from ferrofem.material import MaterialParams


class TestSolveSpd:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        x, rep = linalg.solve_spd(sp.identity(3, format="csr"), b, linalg.ReusedFactor())
        assert np.array_equal(x, b)

    def test_two_by_two_closed_form(self):
        a = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
        x, rep = linalg.solve_spd(a, np.array([1.0, 2.0]), linalg.ReusedFactor())
        assert x == pytest.approx([1.0 / 11.0, 7.0 / 11.0], rel=1e-14)

    def test_laplace_recovery_against_forward_multiply(self):
        rng = np.random.default_rng(0)
        mesh = mesh2d.build_uniform_square(8)
        s = fespace.build_space(mesh, "P1")
        k = assembly.assemble_weighted_stiffness(s)
        kff = k[s.free_mask][:, s.free_mask]
        x_true = rng.standard_normal(kff.shape[0])
        x, rep = linalg.solve_spd(kff, kff @ x_true, linalg.ReusedFactor())
        assert rep.fill > 0
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 1e-9

    def test_jacobi_cg_matches_direct_and_reports_cap(self, monkeypatch):
        mesh = mesh2d.build_uniform_square(8)
        mass = assembly.assemble_edge_mass(fespace.build_space(mesh, "NE1"))
        b = np.random.default_rng(1).standard_normal(mass.shape[0])
        x_lu, _ = linalg.solve_spd(mass, b, linalg.ReusedFactor())
        x, rep = linalg.solve_spd(mass, b, "jacobi")
        assert rep.iterations > 0 and rep.fill == 0
        assert np.linalg.norm(x - x_lu) <= 1e-9 * np.linalg.norm(x_lu)
        monkeypatch.setattr(linalg, "JACOBI_MAXITER", 1)
        with pytest.raises(SolverError, match="Jacobi CG not converged"):
            linalg.solve_spd(mass, b, "jacobi")

    def test_jacobi_cap_is_its_own(self, jittered_square):
        # the NE1 mass on a jittered mesh needs more Jacobi CG iterations than
        # the factor-preconditioned cap allows
        mass = assembly.assemble_edge_mass(fespace.build_space(jittered_square(8), "NE1"))
        b = np.random.default_rng(2).standard_normal(mass.shape[0])
        x, rep = linalg.solve_spd(mass, b, "jacobi")
        assert linalg.CG_MAXITER < rep.iterations < linalg.JACOBI_MAXITER / 2

    def test_rejects_unknown_preconditioner(self):
        with pytest.raises(ValueError, match="preconditioner"):
            linalg.solve_spd(sp.identity(2, format="csr"), np.ones(2), None)

    def test_rejects_unsymmetric(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(SolverError, match="symmetric"):
            linalg.solve_spd(a, np.ones(2), linalg.ReusedFactor())

    def test_singular_reported(self):
        a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(
            SolverError, match="factorization failed|non-finite solution|residual .* above"
        ):
            linalg.solve_spd(a, np.array([1.0, 0.0]), linalg.ReusedFactor())

    def test_rejects_mass_with_small_relative_asymmetry(self):
        # the P1 mass at N=64 has entries of ~1e-4, so the bound must be
        # relative: one off-diagonal entry moved by 1e-9 of itself is ~1e-14
        # absolute, against assembled asymmetries of ~2e-16 relative
        mass = assembly.assemble_scalar_mass(
            fespace.build_space(mesh2d.build_uniform_square(64), "P1")
        ).tocsr().tocoo()
        assert np.abs(mass.data).max() < 2e-4
        mass.data[np.flatnonzero(mass.row != mass.col)[0]] *= 1.0 + 1e-9
        with pytest.raises(SolverError, match="not symmetric"):
            linalg.solve_spd(mass, np.ones(mass.shape[0]), "jacobi")


class TestFactor:
    def test_symmetric_mode_without_pivoting_on_mmd(self, monkeypatch):
        # every factor in the package: SuperLU in symmetric mode on
        # MMD(A + A'), taking each diagonal pivot
        calls = []
        real = linalg.spla.splu

        def splu(a, **kwargs):
            calls.append(kwargs)
            return real(a, **kwargs)

        monkeypatch.setattr(linalg.spla, "splu", splu)
        a = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
        lu = linalg.factor(a)
        assert lu.solve(np.array([1.0, 2.0])) == pytest.approx([1 / 11, 7 / 11], rel=1e-14)
        [kwargs] = calls
        assert kwargs["permc_spec"] == "MMD_AT_PLUS_A"
        assert kwargs["diag_pivot_thresh"] == 0.0
        assert kwargs["options"] == {"SymmetricMode": True}

    def test_breakdown_raises_solver_error(self):
        with pytest.raises(SolverError, match="factorization failed"):
            linalg.factor(sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]])))


def _nonsymmetric(n=12, seed=5):
    """A well-conditioned nonsymmetric dense matrix and its matvec."""
    a = 4.0 * np.eye(n) + np.random.default_rng(seed).standard_normal((n, n)) / np.sqrt(n)
    return a, lambda x: a @ x


class TestGmres:
    def test_matches_dense_solve(self):
        a, matvec = _nonsymmetric()
        b = np.random.default_rng(6).standard_normal(a.shape[0])
        x, iterations = linalg._gmres(matvec, b, None, 0.0)
        assert 0 < iterations <= a.shape[0]
        x_ref = np.linalg.solve(a, b)
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)

    def test_happy_breakdown_after_distinct_eigenvalues(self, monkeypatch):
        # two distinct eigenvalues: the Krylov space of ones is invariant after
        # two steps, and every entry of this basis is exact in binary, so the
        # second step's new vector is exactly zero; with no tolerance left only
        # the breakdown can stop the loop
        monkeypatch.setattr(linalg, "SCHUR_RTOL", 0.0)
        d = np.repeat([2.0, 3.0], 8)
        with np.errstate(all="raise"):
            x, iterations = linalg._gmres(lambda v: d * v, np.ones(16), None, 0.0)
        assert iterations == 2
        assert np.abs(x - 1.0 / d).max() < 1e-15

    def test_zero_rhs(self):
        _, matvec = _nonsymmetric()
        x, iterations = linalg._gmres(matvec, np.zeros(12), None, 0.0)
        assert iterations == 0
        assert np.array_equal(x, np.zeros(12))

    def test_start_at_solution_takes_no_iterations(self):
        a, matvec = _nonsymmetric()
        b = np.random.default_rng(7).standard_normal(a.shape[0])
        x0 = np.linalg.solve(a, b)
        x, iterations = linalg._gmres(matvec, b, x0, 0.0)
        assert iterations == 0
        assert x is x0

    def test_small_next_vector_is_no_breakdown(self):
        # two eigenvalues 1e-9 apart: the second basis vector is ~5e-10 of
        # its image, far above round-off, and a step that took it for a
        # breakdown would stop with an error of ~5e-10
        d = np.repeat([1.0, 1.0 + 1e-9], 8)
        b = np.random.default_rng(8).standard_normal(d.size)
        x, iterations = linalg._gmres(lambda v: d * v, b, None, 0.0)
        assert iterations == 2
        x_ref = np.linalg.solve(np.diag(d), b)
        assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()

    def test_singular_breakdown_fails_without_dividing(self):
        # the first step breaks down with a zero pivot: no least-squares step
        x, iterations = linalg._gmres(lambda v: 0.0 * v, np.ones(4), None, 0.0)
        assert x is None
        assert iterations == 1

    def test_none_at_the_cap(self, monkeypatch):
        a, matvec = _nonsymmetric()
        monkeypatch.setattr(linalg, "SCHUR_MAXITER", 2)
        x, iterations = linalg._gmres(matvec, np.ones(a.shape[0]), None, 0.0)
        assert x is None
        assert iterations == 2


def _stokes_system(n=4, pair=("CR", "P0"), rhs=None, g=None):
    mesh = mesh2d.build_uniform_square(n)
    v = fespace.build_space(mesh, pair[0], components=2)
    w = fespace.build_space(mesh, pair[1])
    sys = assembly.assemble_stokes_blocks(v, w, eta=1.0)
    if rhs is not None:
        sys.rhs_u = rhs
    if g is not None:
        sys.g = g
    return v, w, sys


class TestSolveSaddle:
    def test_zero_rhs_zero_solution(self):
        _, _, sys = _stokes_system()
        u, p, rep = linalg.solve_saddle(sys)
        assert np.abs(u).max() == 0.0
        assert np.abs(p).max() == 0.0

    @pytest.mark.parametrize("pair", [("CR", "P0"), ("P2", "P1")])
    def test_exact_recovery_of_discrete_polynomial(self, pair):
        # u = (y, x) lies in the velocity space, is divergence free, and
        # solves the homogeneous Stokes problem with its own trace data
        v, w, sys = _stokes_system(pair=pair)
        uex = fespace.interpolate_nodal(
            v, lambda pts: np.stack([pts[:, 1], pts[:, 0]], axis=1)
        )
        sys.g = np.where(v.free_mask, 0.0, uex.coeffs)
        u, p, rep = linalg.solve_saddle(sys)
        assert np.abs(u - uex.coeffs).max() < 1e-9
        assert np.abs(p).max() < 1e-9

    def test_pressure_mean_zero_for_random_rhs(self, monkeypatch):
        # a random right-hand side, and every solve of a warm-started Oseen
        # chain, whose starts could carry a mean from sweep to sweep
        rng = np.random.default_rng(1)
        v, w, sys = _stokes_system()
        sys.rhs_u = rng.standard_normal(v.n_dofs)
        solved = [(sys.mean, linalg.solve_saddle(sys)[1])]
        real = linalg.solve_saddle

        def recording(sys, p0=None):
            u, p, rep = real(sys, p0)
            solved.append((sys.mean, p))
            return u, p, rep

        monkeypatch.setattr(linalg, "solve_saddle", recording)
        prm = MaterialParams(gamma=4.0, eta=0.5, rho=15.0)
        cfg = FhdConfig(n=8, pair="l1", params=prm, case=verify.case_2d_l1(prm), oseen_iters=6)
        driver.oseen_ns(driver.Problem(cfg))
        assert len(solved) == 1 + 7
        for mean, p in solved:
            assert abs(mean @ p) <= 1e-12 * max(np.abs(p).max(), 1.0)

    def test_divergence_orthogonality(self):
        rng = np.random.default_rng(2)
        v, w, sys = _stokes_system(n=6)
        sys.rhs_u = rng.standard_normal(v.n_dofs)
        u, p, rep = linalg.solve_saddle(sys)
        assert np.abs(sys.B @ u).max() < 1e-10

    def test_missing_mean_row_rejected(self):
        v, w, sys = _stokes_system()
        sys.mean = np.zeros_like(sys.mean)
        with pytest.raises(SolverError, match="mean row"):
            linalg.solve_saddle(sys)

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(3)
        v, w, sys = _stokes_system(n=5)
        sys.rhs_u = rng.standard_normal(v.n_dofs)
        u1, p1, _ = linalg.solve_saddle(sys)
        u2, p2, _ = linalg.solve_saddle(sys)
        assert np.array_equal(u1, u2)
        assert np.array_equal(p1, p2)


def _bordered_dense_solve(sys):
    """Reference: dense solve of the system with the mean-multiplier row.

    Returns ``(u, p, lam)`` with ``lam`` the mean multiplier.
    """
    free = sys.free_u
    a = sp.block_diag([sys.A, sys.A]).toarray()
    b = sys.B.toarray()
    a_ff, b_f = a[free][:, free], b[:, free]
    n_u, n_p = a_ff.shape[0], b.shape[0]
    k = np.zeros((n_u + n_p + 1, n_u + n_p + 1))
    k[:n_u, :n_u] = a_ff
    k[:n_u, n_u : n_u + n_p] = -b_f.T
    k[n_u : n_u + n_p, :n_u] = b_f
    k[n_u : n_u + n_p, -1] = sys.mean
    k[-1, n_u : n_u + n_p] = sys.mean
    rhs = np.concatenate(
        [
            sys.rhs_u[free] - a[free][:, ~free] @ sys.g[~free],
            -b[:, ~free] @ sys.g[~free],
            [0.0],
        ]
    )
    x = np.linalg.solve(k, rhs)
    u = sys.g.copy()
    u[free] = x[:n_u]
    return u, x[n_u : n_u + n_p], x[-1]


class TestSchurSolve:
    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("pair", [("CR", "P0"), ("P2", "P1")])
    @pytest.mark.parametrize("rho", [0.0, 10.0])
    def test_matches_dense_bordered_solve(self, n, pair, rho):
        rng = np.random.default_rng(n)
        v, w, sys = _stokes_system(n=n, pair=pair)
        sys.rhs_u = rng.standard_normal(v.n_dofs)
        sys.g = np.where(v.free_mask, 0.0, rng.standard_normal(v.n_dofs))
        if rho:
            conv = assembly.assemble_convection(
                v, FEField(v, rng.standard_normal(v.n_dofs)), rho=rho
            )
            sys = replace(sys, A=(sys.A + conv).tocsr())
        u, p, rep = linalg.solve_saddle(sys)
        u_ref, p_ref, lam = _bordered_dense_solve(sys)
        # random boundary values carry flux, so the mean multiplier is active
        assert lam != 0.0
        assert rep.iterations > 0
        assert np.abs(u - u_ref).max() < 1e-10
        assert np.abs(p - p_ref).max() < 1e-8

    def test_iteration_cap_raises_not_converged(self, monkeypatch):
        rng = np.random.default_rng(4)
        v, w, sys = _stokes_system(n=6)
        sys.rhs_u = rng.standard_normal(v.n_dofs)
        monkeypatch.setattr(linalg, "SCHUR_MAXITER", 2)
        with pytest.raises(SolverError, match="Schur GMRES not converged"):
            linalg.solve_saddle(sys)

    def test_l1_oseen_sweep_stops_on_true_residual(self):
        # a system of the l1 nonlinear study on which GMRES with a left
        # preconditioner stopped on its preconditioned residual while the
        # true one was still above tolerance
        prm = MaterialParams(gamma=4.0, eta=0.5, rho=6.343642441124012)
        case = verify.case_2d_l1(prm)
        cfg = FhdConfig(n=16, pair="l1", params=prm, case=case, oseen_iters=1)
        _, _, info = driver.oseen_ns(driver.Problem(cfg))
        assert len(info["reports"]) == 2

    @pytest.mark.parametrize("sweep", [False, True])
    def test_parity_with_scipy_gmres(self, sweep):
        # scipy's GMRES with the arguments the Schur solve once passed it, on
        # the Stokes seed and the first Oseen sweep of the l1 study: the same
        # count, and the same pressure to round-off
        prm = MaterialParams(gamma=4.0, eta=0.5, rho=6.343642441124012)
        case = verify.case_2d_l1(prm)
        prob = driver.Problem(FhdConfig(n=16, pair="l1", params=prm, case=case))
        sys, p0 = prob.saddle, None
        if sweep:
            u, p0, _ = linalg.solve_saddle(sys)  # the Stokes seed
            conv = assembly.assemble_convection(prob.V, FEField(prob.V, u), prm.rho)
            sys = replace(sys, A=(sys.A + conv).tocsr())
        _, p_own, rep = linalg.solve_saddle(sys, p0=p0)

        free, mean, n = sys.free_u, sys.mean, sys.A.shape[0]
        a_ff, lift_cols, _ = linalg.reduce_dirichlet(
            sys.A, sys.rhs_u.reshape(2, n).T, free[:n], sys.g.reshape(2, n).T
        )
        lu = linalg.factor(a_ff)
        b_f = sp.csr_matrix(sys.B[:, free])
        lift_u = lift_cols.T.ravel()
        lift_p = -(sys.B[:, ~free] @ sys.g[~free])

        def a_inv(x):
            return lu.solve(x.reshape(2, -1).T).T.ravel()

        schur_m = spla.LinearOperator(
            (len(mean),) * 2, matvec=lambda y: b_f @ a_inv(b_f.T @ (y / mean)), dtype=float
        )
        lam = lift_p.sum() / mean.sum()
        rhs_norm = np.linalg.norm(np.concatenate([lift_u, lift_p]))
        counts = []
        y, info = spla.gmres(
            schur_m,
            lift_p - lam * mean - b_f @ a_inv(lift_u),
            x0=None if p0 is None else mean * p0,
            rtol=linalg.SCHUR_RTOL,
            atol=linalg.SCHUR_RTOL * rhs_norm,
            restart=linalg.SCHUR_MAXITER,
            maxiter=1,
            callback=counts.append,
            callback_type="pr_norm",
        )
        assert info == 0
        p_ref = y / mean
        p_ref -= (mean @ p_ref) / mean.sum()
        assert rep.iterations == len(counts) > 0
        assert np.abs(p_own - p_ref).max() < 1e-10

    def test_warm_start_from_solution_takes_no_iterations(self):
        rng = np.random.default_rng(16)
        v, w, sys = _stokes_system(n=16, pair=("P2", "P1"))
        sys.rhs_u = rng.standard_normal(v.n_dofs)
        conv = assembly.assemble_convection(
            v, FEField(v, rng.standard_normal(v.n_dofs)), rho=10.0
        )
        sys = replace(sys, A=(sys.A + conv).tocsr())
        u_cold, p_cold, rep_cold = linalg.solve_saddle(sys)
        u, p, rep = linalg.solve_saddle(sys, p0=p_cold)
        assert rep_cold.iterations > 0
        assert rep.iterations == 0
        assert rep.fill > 0
        assert np.abs(u - u_cold).max() < 1e-10
        assert np.abs(p - p_cold).max() < 1e-8

    def test_warm_started_oseen_sweeps_total_iterations(self):
        # six sweeps of the l1 nonlinear study; cold starts need ~300
        prm = MaterialParams(gamma=4.0, eta=0.5, rho=6.343642441124012)
        case = verify.case_2d_l1(prm)
        cfg = FhdConfig(n=16, pair="l1", params=prm, case=case, oseen_iters=6)
        _, _, info = driver.oseen_ns(driver.Problem(cfg))
        sweeps = info["reports"][1:]
        assert len(sweeps) == 6
        assert sum(r.iterations for r in sweeps) <= 150

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_l0_stokes_iterations_bounded_in_n(self, n):
        cfg = FhdConfig(n=n, pair="l0", case=verify.case_2d_l0())
        _, _, rep = linalg.solve_saddle(driver.Problem(cfg).saddle)
        assert 0 < rep.iterations <= 40


class TestReduceDirichlet:
    def test_lifting_reproduces_full_solution(self):
        mesh = mesh2d.build_uniform_square(4)
        s = fespace.build_space(mesh, "P1")
        k = assembly.assemble_weighted_stiffness(s)
        g = np.where(s.dirichlet_mask, mesh.vertices[:, 0], 0.0)
        b = np.zeros(s.n_dofs)
        kff, bf, expand = linalg.reduce_dirichlet(k, b, s.free_mask, g)
        x, _ = linalg.solve_spd(kff, bf, linalg.ReusedFactor())
        full = expand(x)
        # harmonic extension of x-coordinate data is x itself
        assert np.abs(full - mesh.vertices[:, 0]).max() < 1e-10
