import math

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import shuffled
from ferrofem import assembly, fespace, linalg, material, mesh2d, refelem
from ferrofem.fespace import FEField
from ferrofem.material import MaterialParams

PARAMS = MaterialParams()


def phi_bubble(p):
    return p[:, 0] * (1 - p[:, 0]) * p[:, 1] * (1 - p[:, 1])


def grad_phi_bubble(p):
    x, y = p[:, 0], p[:, 1]
    return np.stack([(1 - 2 * x) * y * (1 - y), (1 - 2 * y) * x * (1 - x)], axis=1)


def physical_gradients(space, rule):
    """Physical basis gradients J^-T grad_ref per element, (nt, nq, ndof, 2)."""
    base = refelem.eval_basis(space.family, rule.points)
    return np.einsum("tba,iqb->tqia", space.mesh.jac_inv, base.gradients)


def physical_edge_values(space, rule):
    """Signed covariant Piola edge vectors per element, (nt, nq, ndof, 2)."""
    base = refelem.eval_basis(space.family, rule.points)
    vecs = np.einsum("tba,iqb->tqia", space.mesh.jac_inv, base.values)
    return vecs * space.cell_signs[:, None, :, None]


class TestWeightedStiffness:
    def test_reference_triangle_local_matrix(self):
        mesh = mesh2d.from_arrays([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
        s = fespace.build_space(mesh, "P1")
        k = assembly.assemble_weighted_stiffness(s).toarray()
        expect = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
        assert np.abs(k - expect).max() < 1e-15

    def test_five_point_stencil_on_n2(self):
        s = fespace.build_space(mesh2d.build_uniform_square(2), "P1")
        k = assembly.assemble_weighted_stiffness(s)
        free = s.free_mask
        assert free.sum() == 1
        assert float(k[free][:, free].toarray()[0, 0]) == pytest.approx(4.0, abs=1e-14)

    def test_symmetric_positive_definite_on_free_dofs(self):
        mesh = mesh2d.build_uniform_square(5)
        s = fespace.build_space(mesh, "P1")
        w = FEField(s, np.sin(np.arange(s.n_dofs)))
        a = assembly.assemble_weighted_stiffness(s, w, PARAMS)
        asym = abs(a - a.T)
        assert (asym.max() if asym.nnz else 0.0) < 1e-14
        aff = a[s.free_mask][:, s.free_mask].toarray()
        assert np.linalg.eigvalsh(aff)[0] > 0

    def test_coercivity_against_laplacian(self):
        rng = np.random.default_rng(0)
        mesh = mesh2d.build_uniform_square(6)
        s = fespace.build_space(mesh, "P1")
        k1 = assembly.assemble_weighted_stiffness(s)
        for _ in range(20):
            w = FEField(s, rng.standard_normal(s.n_dofs))
            a = assembly.assemble_weighted_stiffness(s, w, PARAMS)
            x = rng.standard_normal(s.n_dofs)
            assert x @ (a @ x) >= (x @ (k1 @ x)) * (1 - 1e-12)

    def test_continuity_constant(self):
        rng = np.random.default_rng(1)
        mesh = mesh2d.build_uniform_square(6)
        s = fespace.build_space(mesh, "P1")
        k1 = assembly.assemble_weighted_stiffness(s)
        c1 = 1.0 + PARAMS.gamma * PARAMS.Ms / 3.0
        for _ in range(20):
            w = FEField(s, rng.standard_normal(s.n_dofs))
            a = assembly.assemble_weighted_stiffness(s, w, PARAMS)
            x = rng.standard_normal(s.n_dofs)
            t = rng.standard_normal(s.n_dofs)
            lhs = abs(x @ (a @ t))
            rhs = c1 * math.sqrt(x @ (k1 @ x)) * math.sqrt(t @ (k1 @ t))
            assert lhs <= rhs * (1 + 1e-12)

    def test_rejects_field_on_other_space(self):
        s1 = fespace.build_space(mesh2d.build_uniform_square(2), "P1")
        s2 = fespace.build_space(mesh2d.build_uniform_square(3), "P1")
        w = s2.zero_field()
        with pytest.raises(ValueError):
            assembly.assemble_weighted_stiffness(s1, w, PARAMS)


class TestEllipticRhs:
    def test_zero_potential_gives_zero_vector(self):
        s = fespace.build_space(mesh2d.build_uniform_square(3), "P1")
        rhs = assembly.elliptic_rhs_manufactured(
            s, lambda p: np.zeros((len(p), 2)), PARAMS
        )
        assert np.abs(rhs).max() == 0.0

    def test_external_zero_field(self):
        s = fespace.build_space(mesh2d.build_uniform_square(3), "P1")
        rhs = assembly.elliptic_rhs_external(s, lambda p: np.zeros((len(p), 2)), PARAMS)
        assert np.abs(rhs).max() == 0.0

    def test_matches_symbolic_integration_oracle(self):
        # alpha == 1 via exact-gradient weighting in the Laplace limit is not
        # reachable (alpha > 1), so integrate the plain weak residual with
        # sympy on the N=2 mesh and compare against a direct quadrature of
        # the same integrand, which the degree-5 rule captures exactly.
        sym = pytest.importorskip("sympy")
        x, y, u, v = sym.symbols("x y u v")
        gx_ex = sym.diff(x * (1 - x) * y * (1 - y), x)
        gy_ex = sym.diff(x * (1 - x) * y * (1 - y), y)
        mesh = mesh2d.build_uniform_square(2)
        s = fespace.build_space(mesh, "P1")
        rhs_exact = np.zeros(s.n_dofs)
        for t in range(mesh.n_triangles):
            vids = mesh.triangles[t]
            pts = [
                sym.Matrix(
                    [sym.nsimplify(mesh.vertices[k][0]), sym.nsimplify(mesh.vertices[k][1])]
                )
                for k in vids
            ]
            p0, p1, p2 = pts
            a_mat = sym.Matrix([[1, p[0], p[1]] for p in pts])
            det = (p1[0] - p0[0]) * (p2[1] - p0[1]) - (p1[1] - p0[1]) * (p2[0] - p0[0])
            xm = p0[0] + (p1[0] - p0[0]) * u + (p2[0] - p0[0]) * v
            ym = p0[1] + (p1[1] - p0[1]) * u + (p2[1] - p0[1]) * v
            for i_loc in range(3):
                e = sym.zeros(3, 1)
                e[i_loc] = 1
                abc = a_mat.solve(e)
                integ = (gx_ex * abc[1] + gy_ex * abc[2]).subs({x: xm, y: ym}) * det
                val = sym.integrate(sym.integrate(integ, (v, 0, 1 - u)), (u, 0, 1))
                rhs_exact[vids[i_loc]] += float(val)

        rule = refelem.quadrature(5)
        grads = physical_gradients(s, rule)
        xq = fespace.quad_points(mesh, rule).reshape(-1, 2)
        g = grad_phi_bubble(xq).reshape(mesh.n_triangles, rule.n_points, 2)
        wdx = rule.weights[None, :] * mesh.det[:, None]
        local = np.einsum("tqa,tqia->ti", g * wdx[:, :, None], grads)
        rhs_quad = np.bincount(s.cell_dofs.ravel(), weights=local.ravel(), minlength=s.n_dofs)
        assert np.abs(rhs_quad - rhs_exact).max() < 1e-14

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_consistent_with_laplace_stencil_at_h4(self, n):
        # for the bubble potential the criss P1 stiffness applied to the nodal
        # interpolant differs from the weak residual by exactly (2/3) h^4
        # (measured superconvergence constant; pure fourth derivatives vanish)
        mesh = mesh2d.build_uniform_square(n)
        s = fespace.build_space(mesh, "P1")
        k = assembly.assemble_weighted_stiffness(s)
        iphi = fespace.interpolate_nodal(s, phi_bubble)
        rule = refelem.quadrature(5)
        grads = physical_gradients(s, rule)
        xq = fespace.quad_points(mesh, rule).reshape(-1, 2)
        g = grad_phi_bubble(xq).reshape(mesh.n_triangles, rule.n_points, 2)
        wdx = rule.weights[None, :] * mesh.det[:, None]
        local = np.einsum("tqa,tqia->ti", g * wdx[:, :, None], grads)
        rhs = np.bincount(s.cell_dofs.ravel(), weights=local.ravel(), minlength=s.n_dofs)
        gap = np.abs(rhs - k @ iphi.coeffs)[s.free_mask].max()
        assert gap == pytest.approx((2.0 / 3.0) / n**4, rel=1e-10)


class TestEdgeMassAndRhs:
    def test_mass_spd_all_dofs(self):
        u = fespace.build_space(mesh2d.build_uniform_square(4), "NE0")
        m = assembly.assemble_edge_mass(u)
        asym = abs(m - m.T)
        assert (asym.max() if asym.nnz else 0.0) < 1e-15
        assert np.linalg.eigvalsh(m.toarray())[0] > 0

    def test_zero_source_zero_rhs(self):
        u = fespace.build_space(mesh2d.build_uniform_square(3), "NE0")
        rhs = assembly.assemble_edge_rhs(u, lambda p: np.zeros((len(p), 2)))
        assert np.abs(rhs).max() == 0.0

    @pytest.mark.parametrize("fam", ["NE0", "NE1"])
    def test_projection_idempotent_on_members(self, fam):
        rng = np.random.default_rng(5)
        u = fespace.build_space(mesh2d.build_uniform_square(4), fam)
        f = FEField(u, rng.standard_normal(u.n_dofs))
        m = assembly.assemble_edge_mass(u)
        rhs = assembly.assemble_edge_rhs(u, (f, None))
        x, rep = linalg.solve_spd(m, rhs, linalg.ReusedFactor())
        assert np.abs(x - f.coeffs).max() < 1e-9

    def test_row_sums_against_quadrature_oracle(self):
        # M @ coefficients-of-(1,0) gives int w_i . (1,0), cross-checked by
        # direct quadrature of each basis function
        mesh = mesh2d.build_uniform_square(3)
        u = fespace.build_space(mesh, "NE0")
        m = assembly.assemble_edge_mass(u)
        const = fespace.interpolate_edge(u, lambda p: np.tile([1.0, 0.0], (len(p), 1)))
        got = m @ const.coeffs
        rule = refelem.quadrature(2)
        vecs = physical_edge_values(u, rule)
        wdx = rule.weights[None, :] * mesh.det[:, None]
        local = np.einsum("tq,tqi->ti", wdx, vecs[:, :, :, 0])
        oracle = np.bincount(u.cell_dofs.ravel(), weights=local.ravel(), minlength=u.n_dofs)
        assert np.abs(got - oracle).max() < 1e-14


class TestStokesBlocks:
    def test_rejects_unsupported_pair(self):
        mesh = mesh2d.build_uniform_square(2)
        v = fespace.build_space(mesh, "CR", components=2)
        w = fespace.build_space(mesh, "P1")
        with pytest.raises(ValueError):
            assembly.assemble_stokes_blocks(v, w, eta=1.0)

    def test_viscous_energy_matches_quadrature(self):
        rng = np.random.default_rng(2)
        mesh = mesh2d.build_uniform_square(4)
        v = fespace.build_space(mesh, "CR", components=2)
        w = fespace.build_space(mesh, "P0")
        eta = 0.7
        sys = assembly.assemble_stokes_blocks(v, w, eta=eta)
        a = sp.block_diag([sys.A, sys.A], format="csr")  # both components
        rule = refelem.quadrature(4)
        tab = fespace.tabulate(v, rule)
        for _ in range(5):
            x = rng.standard_normal(v.n_dofs)
            f = FEField(v, x)
            _, grads = fespace.eval_field(f, tab)
            wdx = rule.weights[None, :] * mesh.det[:, None]
            energy = float(np.einsum("tq,tqij->", wdx, grads**2))
            assert x @ (a @ x) == pytest.approx(eta * energy, rel=1e-12)

    def test_divergence_against_zero_mean_pressure(self):
        # u = interpolant of (x, 0) has unit divergence element-wise, so the
        # pairing against any zero-mean pressure function vanishes
        mesh = mesh2d.build_uniform_square(4)
        v = fespace.build_space(mesh, "CR", components=2)
        w = fespace.build_space(mesh, "P0")
        sys = assembly.assemble_stokes_blocks(v, w, eta=1.0)
        u = fespace.interpolate_nodal(
            v, lambda p: np.stack([p[:, 0], np.zeros(len(p))], axis=1)
        )
        div = sys.B @ u.coeffs
        assert np.allclose(div, mesh.areas, atol=1e-14)  # (div u, q_K) = |K|
        q = np.random.default_rng(3).standard_normal(w.n_scalar)
        q -= (sys.mean @ q) / sys.mean.sum()
        assert abs(q @ div) < 1e-12

    def test_divergence_of_zero_field(self):
        mesh = mesh2d.build_uniform_square(3)
        v = fespace.build_space(mesh, "CR", components=2)
        w = fespace.build_space(mesh, "P0")
        sys = assembly.assemble_stokes_blocks(v, w, eta=1.0)
        assert np.abs(sys.B @ np.zeros(v.n_dofs)).max() == 0.0

    def test_mean_row_is_basis_integrals(self):
        mesh = mesh2d.build_uniform_square(4)
        v = fespace.build_space(mesh, "CR", components=2)
        w = fespace.build_space(mesh, "P0")
        sys = assembly.assemble_stokes_blocks(v, w, eta=1.0)
        assert np.allclose(sys.mean, mesh.areas, atol=1e-15)
        assert sys.mean.sum() == pytest.approx(1.0, abs=1e-14)

    def test_taylor_hood_mean_row(self):
        mesh = mesh2d.build_uniform_square(4)
        v = fespace.build_space(mesh, "P2", components=2)
        w = fespace.build_space(mesh, "P1")
        sys = assembly.assemble_stokes_blocks(v, w, eta=1.0)
        assert sys.mean.sum() == pytest.approx(1.0, abs=1e-14)


class TestConvection:
    def test_skew_symmetric_and_vanishing_diagonal(self):
        rng = np.random.default_rng(4)
        mesh = mesh2d.build_uniform_square(4)
        v = fespace.build_space(mesh, "CR", components=2)
        w = FEField(v, rng.standard_normal(v.n_dofs))
        n_scal = assembly.assemble_convection(v, w, rho=1.3)
        n = sp.block_diag([n_scal, n_scal], format="csr")  # both components
        asym = abs(n + n.T)
        scale = max(abs(n).max(), 1.0)
        assert (asym.max() if asym.nnz else 0.0) <= 1e-13 * scale
        for _ in range(10):
            vv = rng.standard_normal(v.n_dofs)
            uu = rng.standard_normal(v.n_dofs)
            assert abs(vv @ (n @ vv)) <= 1e-13 * scale * (vv @ vv)
            assert vv @ (n @ uu) == pytest.approx(-(uu @ (n @ vv)), abs=1e-13 * scale)

    def test_zero_convecting_field(self):
        mesh = mesh2d.build_uniform_square(3)
        v = fespace.build_space(mesh, "CR", components=2)
        n = assembly.assemble_convection(v, v.zero_field(), rho=1.0)
        assert abs(n).max() == 0.0

    def test_taylor_hood_variant(self):
        rng = np.random.default_rng(6)
        mesh = mesh2d.build_uniform_square(3)
        v = fespace.build_space(mesh, "P2", components=2)
        w = FEField(v, rng.standard_normal(v.n_dofs))
        n_scal = assembly.assemble_convection(v, w, rho=1.0)
        n = sp.block_diag([n_scal, n_scal], format="csr")  # both components
        x = rng.standard_normal(v.n_dofs)
        assert abs(x @ (n @ x)) <= 1e-13 * abs(n).max() * (x @ x)


class TestNsRhs:
    def test_zero_force(self):
        v = fespace.build_space(mesh2d.build_uniform_square(3), "CR", components=2)
        rhs = assembly.assemble_ns_rhs(v, lambda p: np.zeros((len(p), 2)))
        assert np.abs(rhs).max() == 0.0

    @pytest.mark.parametrize("n,bound", [(8, 6e-3), (16, 1.5e-3)])
    def test_stokes_limit_matches_mass_times_interpolant(self, n, bound):
        # f = eta pi^2 (sin pi y, sin pi x): the load vector approaches the
        # mass matrix applied to the interpolated force at O(h^2)
        pi = np.pi

        def f(p):
            return pi * pi * np.stack([np.sin(pi * p[:, 1]), np.sin(pi * p[:, 0])], axis=1)

        mesh = mesh2d.build_uniform_square(n)
        v = fespace.build_space(mesh, "CR", components=2)
        rhs = assembly.assemble_ns_rhs(v, f)
        ms = assembly.assemble_scalar_mass(v)
        m2 = sp.block_diag([ms, ms], format="csr")
        fi = fespace.interpolate_nodal(v, f)
        gap = np.linalg.norm(rhs - m2 @ fi.coeffs) / np.linalg.norm(rhs)
        assert gap < bound

    def test_interpolant_momentum_residual_decays_in_dual_norm(self):
        # the exact-solution interpolant nearly solves the discrete momentum
        # equation: its residual, measured in the discrete dual norm induced
        # by the viscous block, decreases under refinement (O(h))
        from ferrofem import driver, verify

        case = verify.case_2d_l0()
        duals = []
        for n in (4, 8, 16):
            prob = driver.Problem(driver.FhdConfig(n=n, pair="l0", case=case))
            ui = fespace.interpolate_nodal(prob.V, case.u)
            mw = assembly.assemble_scalar_mass(prob.W)
            pi_rhs = assembly.assemble_scalar_rhs(prob.W, case.p_tilde)
            pi, _ = linalg.solve_spd(mw, pi_rhs, linalg.ReusedFactor())
            conv = assembly.assemble_convection(prob.V, ui, case.params.rho)
            visc = sp.block_diag([prob.saddle.A, prob.saddle.A], format="csr")
            a = sp.block_diag([prob.saddle.A + conv] * 2, format="csr")
            r = (prob.saddle.rhs_u - (a @ ui.coeffs - prob.saddle.B.T @ pi))[prob.V.free_mask]
            kff = visc[prob.V.free_mask][:, prob.V.free_mask]
            z, _ = linalg.solve_spd(kff, r, linalg.ReusedFactor())
            duals.append(math.sqrt(r @ z))
        assert duals[2] < duals[1] < duals[0]
        assert duals[2] < 0.62 * duals[1]  # measured ~0.52 ratio, O(h)


class TestElementBlocks:
    """Loads evaluated block by block equal the one-block loads bitwise."""

    @staticmethod
    def _loads(prob, case):
        rng = np.random.default_rng(11)
        H = FEField(prob.U, rng.standard_normal(prob.U.n_dofs))
        phi = FEField(prob.S, rng.standard_normal(prob.S.n_dofs))
        prm = case.params
        return {
            "ns": assembly.assemble_ns_rhs(prob.V, case.f),
            "manufactured": assembly.elliptic_rhs_manufactured(prob.S, case.grad_phi, prm),
            "external": assembly.elliptic_rhs_external(prob.S, case.u, prm),
            "scalar-field": assembly.assemble_scalar_rhs(
                prob.W, (H, lambda v: (v * v).sum(axis=-1))),
            "scalar-callable": assembly.assemble_scalar_rhs(prob.W, case.p),
            "edge-field": assembly.assemble_edge_rhs(
                prob.U, (H, lambda v: material.magnetization(v, prm))),
            "edge-gradient": assembly.assemble_edge_rhs(prob.U, (phi, None)),
        }

    @pytest.mark.parametrize("pair", ["l0", "l1"])
    def test_uneven_blocks_bitwise(self, monkeypatch, pair):
        from ferrofem import driver, verify

        case = verify.CASES[pair]()
        prob = driver.Problem(driver.FhdConfig(n=8, pair=pair, case=case))
        whole = self._loads(prob, case)
        blocks = []
        real = fespace.element_blocks

        def element_blocks(*spaces):
            for block in real(*spaces):
                blocks.append(block[0].mesh.n_triangles)
                yield block

        monkeypatch.setattr(fespace, "ELEMENT_BLOCK", 37)  # 128 = 3 * 37 + 17
        monkeypatch.setattr(fespace, "element_blocks", element_blocks)
        blocked = self._loads(prob, case)
        assert blocks == [37, 37, 37, 17] * len(whole)
        assert [k for k in whole if not np.array_equal(blocked[k], whole[k])] == []


class TestTraversalOrderIndependence:
    @pytest.mark.parametrize("builder", ["stiffness", "edge_mass", "stokes"])
    def test_shuffled_elements_give_same_matrices(self, builder):
        mesh = mesh2d.build_uniform_square(5)
        perm = np.random.default_rng(9).permutation(mesh.n_triangles)
        permuted = shuffled(mesh, perm)
        if builder == "stiffness":
            a = assembly.assemble_weighted_stiffness(fespace.build_space(mesh, "P1"))
            b = assembly.assemble_weighted_stiffness(fespace.build_space(permuted, "P1"))
        elif builder == "edge_mass":
            a = assembly.assemble_edge_mass(fespace.build_space(mesh, "NE0"))
            b = assembly.assemble_edge_mass(fespace.build_space(permuted, "NE0"))
        else:
            a = assembly.assemble_stokes_blocks(
                fespace.build_space(mesh, "CR", components=2),
                fespace.build_space(mesh, "P0"),
                eta=1.0,
            ).A
            # compare the velocity block only: CR dofs ride the (order-
            # independent) edge numbering, while P0 dofs would permute
            b = assembly.assemble_stokes_blocks(
                fespace.build_space(permuted, "CR", components=2),
                fespace.build_space(permuted, "P0"),
                eta=1.0,
            ).A
        diff = abs(a - b)
        assert (diff.max() if diff.nnz else 0.0) <= 1e-13


def _scatter(local, rows, cols, shape):
    r = np.broadcast_to(rows[:, :, None], local.shape).ravel()
    c = np.broadcast_to(cols[:, None, :], local.shape).ravel()
    return sp.coo_matrix((local.ravel(), (r, c)), shape=shape).tocsr()


def _gather(local, dofs, n):
    return np.bincount(dofs.ravel(), weights=local.ravel(), minlength=n)


def _close(new, old, rtol=1e-12):
    if sp.issparse(old):
        gap, scale = abs(new - old), abs(old)
        return (gap.max() if gap.nnz else 0.0) <= rtol * scale.max()
    return np.abs(new - old).max() <= rtol * np.abs(old).max()


class TestReferenceKernels:
    """Each reference-table kernel against the physical-table formula it
    replaced, rebuilt here, on a jittered mesh where every element has its
    own Jacobian (a transposed J^-1 cannot hide behind symmetry)."""

    @pytest.fixture
    def mesh(self, jittered_square):
        return jittered_square(6, seed=11)

    @pytest.fixture
    def rules(self, monkeypatch):
        """The rule each kernel tabulates its spaces at, keyed by family."""
        seen = {}
        real = fespace.tabulate

        def tabulate(space, rule):
            seen.setdefault(space.family, rule)
            return real(space, rule)

        monkeypatch.setattr(fespace, "tabulate", tabulate)
        return seen

    @staticmethod
    def old_eval(field, rule):
        s = field.space
        base = refelem.eval_basis(s.family, rule.points)
        if s.is_edge_family:
            c = field.coeffs[s.cell_dofs]
            curls = (base.curls[None, :, 0] / s.mesh.det[:, None]) * s.cell_signs
            vals = np.einsum("ti,tqia->tqa", c, physical_edge_values(s, rule))
            return vals, np.einsum("ti,ti->t", c, curls)[:, None]
        grads = physical_gradients(s, rule)
        comps = [field.coeffs[k * s.n_scalar + s.cell_dofs] for k in range(s.components)]
        vals = [c @ base.values for c in comps]
        gs = [np.einsum("ti,tqia->tqa", c, grads) for c in comps]
        if s.components == 1:
            return vals[0], gs[0]
        return np.stack(vals, axis=-1), np.stack(gs, axis=-2)

    @pytest.mark.parametrize(
        "fam, comps", [("P0", 1), ("P1", 1), ("P2", 1), ("P2", 2), ("CR", 2),
                       ("NE0", 1), ("NE1", 1)]
    )
    def test_eval_field(self, mesh, fam, comps):
        s = fespace.build_space(mesh, fam, comps)
        f = FEField(s, np.random.default_rng(1).standard_normal(s.n_dofs))
        rule = refelem.quadrature(8)
        vals, second = fespace.eval_field(f, fespace.tabulate(s, rule))
        old_vals, old_second = self.old_eval(f, rule)
        assert vals.shape == old_vals.shape
        assert _close(vals, old_vals)
        if fam == "P0":
            assert np.abs(second).max() == 0.0
        else:
            assert _close(second, np.broadcast_to(old_second, second.shape))

    @pytest.mark.parametrize("fam", ["P1", "P2"])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_weighted_stiffness(self, mesh, rules, fam, frozen):
        s = fespace.build_space(mesh, fam)
        w = FEField(s, np.random.default_rng(2).standard_normal(s.n_dofs)) if frozen else None
        k = assembly.assemble_weighted_stiffness(s, w, PARAMS)
        rule = rules[fam]
        wdx = rule.weights[None, :] * mesh.det[:, None]
        if frozen:
            _, gw = self.old_eval(w, rule)
            wdx = wdx * material.alpha(np.sqrt((gw * gw).sum(axis=-1)), PARAMS)
        g = physical_gradients(s, rule)
        local = np.einsum("tq,tqia,tqja->tij", wdx, g, g)
        assert _close(k, _scatter(local, s.cell_dofs, s.cell_dofs, k.shape))

    @pytest.mark.parametrize("pair", [("CR", "P0"), ("P2", "P1")])
    def test_stokes_blocks(self, mesh, rules, pair):
        v = fespace.build_space(mesh, pair[0], components=2)
        w = fespace.build_space(mesh, pair[1])
        sys = assembly.assemble_stokes_blocks(v, w, eta=0.7)
        rule = rules[pair[0]]
        wq = rule.weights[None, :] * mesh.det[:, None]
        g = physical_gradients(v, rule)
        pv = refelem.eval_basis(pair[1], rule.points).values
        ns, np_ = v.n_scalar, w.n_scalar
        k = _scatter(np.einsum("tq,tqia,tqja->tij", wq, g, g), v.cell_dofs, v.cell_dofs, (ns, ns))
        assert _close(sys.A, 0.7 * k)  # the block of each component
        b = sp.hstack(
            [
                _scatter(np.einsum("tq,kq,tqi->tki", wq, pv, g[:, :, :, c]),
                         w.cell_dofs, v.cell_dofs, (np_, ns))
                for c in range(2)
            ],
            format="csr",
        )
        assert _close(sys.B, b)
        assert _close(sys.mean, _gather(np.einsum("tq,iq->ti", wq, pv), w.cell_dofs, np_))

    @pytest.mark.parametrize("fam", ["CR", "P2"])
    def test_convection(self, mesh, rules, fam):
        v = fespace.build_space(mesh, fam, components=2)
        wf = FEField(v, np.random.default_rng(3).standard_normal(v.n_dofs))
        n = assembly.assemble_convection(v, wf, rho=1.3)
        rule = rules[fam]
        wq = rule.weights[None, :] * mesh.det[:, None]
        wvals, _ = self.old_eval(wf, rule)
        phi = refelem.eval_basis(fam, rule.points).values
        wg = np.einsum("tqa,tqja->tqj", wvals, physical_gradients(v, rule))
        c_loc = np.einsum("tq,iq,tqj->tij", wq, phi, wg)
        c = _scatter(c_loc, v.cell_dofs, v.cell_dofs, (v.n_scalar, v.n_scalar))
        skew = 0.5 * 1.3 * (c - c.T)
        assert _close(n, skew)  # the block of each component

    @pytest.mark.parametrize("fam", ["NE0", "NE1"])
    def test_edge_mass_and_rhs(self, mesh, rules, fam):
        u = fespace.build_space(mesh, fam)
        m = assembly.assemble_edge_mass(u)
        rule = rules[fam]
        wq = rule.weights[None, :] * mesh.det[:, None]
        vecs = physical_edge_values(u, rule)
        local = np.einsum("tq,tqia,tqja->tij", wq, vecs, vecs)
        assert _close(m, _scatter(local, u.cell_dofs, u.cell_dofs, m.shape))
        rules.clear()
        rhs = assembly.assemble_edge_rhs(u, grad_phi_bubble)
        rule = rules[fam]
        wq = rule.weights[None, :] * mesh.det[:, None]
        xq = fespace.quad_points(mesh, rule).reshape(-1, 2)
        data = grad_phi_bubble(xq).reshape(mesh.n_triangles, rule.n_points, 2)
        local = np.einsum("tqa,tqia->ti", data * wq[:, :, None], physical_edge_values(u, rule))
        assert _close(rhs, _gather(local, u.cell_dofs, u.n_dofs))

    @pytest.mark.parametrize("fam", ["P0", "P1"])
    def test_scalar_rhs(self, mesh, rules, fam):
        s = fespace.build_space(mesh, fam)
        rhs = assembly.assemble_scalar_rhs(s, phi_bubble)
        rule = rules[fam]
        wq = rule.weights[None, :] * mesh.det[:, None]
        xq = fespace.quad_points(mesh, rule).reshape(-1, 2)
        data = phi_bubble(xq).reshape(mesh.n_triangles, rule.n_points)
        local = np.einsum("tq,iq->ti", data * wq, refelem.eval_basis(fam, rule.points).values)
        assert _close(rhs, _gather(local, s.cell_dofs, s.n_scalar))

    @pytest.mark.parametrize("fam", ["P1", "P2"])
    @pytest.mark.parametrize("kind", ["manufactured", "external"])
    def test_elliptic_rhs(self, mesh, rules, fam, kind):
        s = fespace.build_space(mesh, fam)
        if kind == "manufactured":
            rhs = assembly.elliptic_rhs_manufactured(s, grad_phi_bubble, PARAMS)
        else:
            rhs = assembly.elliptic_rhs_external(s, grad_phi_bubble, PARAMS)
        rule = rules[fam]
        wq = rule.weights[None, :] * mesh.det[:, None]
        xq = fespace.quad_points(mesh, rule).reshape(-1, 2)
        g = grad_phi_bubble(xq).reshape(mesh.n_triangles, rule.n_points, 2)
        if kind == "manufactured":
            flux = (material.alpha(np.sqrt((g * g).sum(axis=-1)), PARAMS) * wq)[:, :, None] * g
        else:
            flux = wq[:, :, None] * g / PARAMS.mu0
        local = np.einsum("tqa,tqia->ti", flux, physical_gradients(s, rule))
        assert _close(rhs, _gather(local, s.cell_dofs, s.n_dofs))

    @pytest.mark.parametrize("fam", ["CR", "P2"])
    def test_ns_rhs(self, mesh, rules, fam):
        v = fespace.build_space(mesh, fam, components=2)
        rhs = assembly.assemble_ns_rhs(v, grad_phi_bubble)
        rule = rules[fam]
        wq = rule.weights[None, :] * mesh.det[:, None]
        xq = fespace.quad_points(mesh, rule).reshape(-1, 2)
        fv = grad_phi_bubble(xq).reshape(mesh.n_triangles, rule.n_points, 2) * wq[:, :, None]
        phi = refelem.eval_basis(fam, rule.points).values
        old = np.concatenate(
            [_gather(np.einsum("tq,iq->ti", fv[:, :, c], phi), v.cell_dofs, v.n_scalar)
             for c in range(2)]
        )
        assert _close(rhs, old)
