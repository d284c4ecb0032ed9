import numpy as np
import pytest
import scipy.sparse as sp

from ferrofem import fespace, mesh2d, refelem
from ferrofem.fespace import FEField

MESH4 = mesh2d.build_uniform_square(4)


class TestDofCounts:
    def test_p1(self):
        s = fespace.build_space(MESH4, "P1")
        assert s.n_dofs == 25
        assert s.n_free == 9  # (N-1)^2 interior vertices

    def test_ne0(self):
        s = fespace.build_space(MESH4, "NE0")
        assert s.n_dofs == 56
        assert s.n_free == 56 - 16  # 4N boundary edges

    def test_cr_two_components(self):
        s = fespace.build_space(MESH4, "CR", components=2)
        assert s.n_dofs == 112

    def test_p2(self):
        s = fespace.build_space(MESH4, "P2")
        assert s.n_dofs == 25 + 56

    def test_ne1(self):
        s = fespace.build_space(MESH4, "NE1")
        assert s.n_dofs == 2 * 56

    def test_p0(self):
        s = fespace.build_space(MESH4, "P0")
        assert s.n_dofs == 32
        assert s.n_free == 32  # no essential dofs

    def test_rejects_bad_components(self):
        with pytest.raises(ValueError):
            fespace.build_space(MESH4, "P1", components=3)
        with pytest.raises(ValueError):
            fespace.build_space(MESH4, "NE0", components=2)

    def test_every_free_dof_touched(self):
        for fam in ("P1", "P2", "CR", "NE0", "NE1", "P0"):
            s = fespace.build_space(MESH4, fam)
            touched = np.zeros(s.n_scalar, dtype=bool)
            touched[s.cell_dofs.ravel()] = True
            assert touched.all()


class TestNodalInterpolation:
    def test_zero_function(self):
        s = fespace.build_space(MESH4, "P1")
        f = fespace.interpolate_nodal(s, lambda p: np.zeros(len(p)))
        assert np.array_equal(f.coeffs, np.zeros(25))

    def test_linear_reproduced_exactly(self):
        s = fespace.build_space(MESH4, "P1")
        f = fespace.interpolate_nodal(s, lambda p: p[:, 0])
        assert np.allclose(f.coeffs, MESH4.vertices[:, 0], atol=1e-15)

    def test_p2_reproduces_quadratic_pointwise(self):
        s = fespace.build_space(MESH4, "P2")
        f = fespace.interpolate_nodal(s, lambda p: p[:, 0] ** 2)
        rule = refelem.quadrature(5)
        vals, _ = fespace.eval_field(f, fespace.tabulate(s, rule))
        xq = fespace.quad_points(MESH4, rule)
        assert np.abs(vals - xq[..., 0] ** 2).max() < 1e-13

    def test_dirichlet_entries_zero_for_vanishing_trace(self):
        s = fespace.build_space(MESH4, "P1")
        f = fespace.interpolate_nodal(
            s, lambda p: p[:, 0] * (1 - p[:, 0]) * p[:, 1] * (1 - p[:, 1])
        )
        assert np.abs(f.coeffs[s.dirichlet_mask]).max() == 0.0


class TestEdgeInterpolation:
    def test_constant_reproduced(self):
        u = fespace.build_space(MESH4, "NE0")
        f = fespace.interpolate_edge(u, lambda p: np.tile([1.0, 0.0], (len(p), 1)))
        rule = refelem.quadrature(3)
        vals, _ = fespace.eval_field(f, fespace.tabulate(u, rule))
        assert np.abs(vals - np.array([1.0, 0.0])).max() < 1e-13

    def test_ne1_reproduces_linear(self):
        u = fespace.build_space(MESH4, "NE1")

        def v(p):
            return np.stack(
                [1 + 2 * p[:, 0] - p[:, 1], 0.5 - p[:, 0] + 3 * p[:, 1]], axis=1
            )

        f = fespace.interpolate_edge(u, v)
        rule = refelem.quadrature(3)
        vals, _ = fespace.eval_field(f, fespace.tabulate(u, rule))
        xq = fespace.quad_points(MESH4, rule).reshape(-1, 2)
        assert np.abs(vals - v(xq).reshape(vals.shape)).max() < 1e-13

    def test_gradient_interpolant_curl_free(self):
        # v = grad(x y): the edge interpolant coincides with grad of the
        # nodal interpolant, so its curl vanishes identically
        u = fespace.build_space(mesh2d.build_uniform_square(8), "NE0")
        f = fespace.interpolate_edge(
            u, lambda p: np.stack([p[:, 1], p[:, 0]], axis=1)
        )
        rule = refelem.quadrature(2)
        _, curls = fespace.eval_field(f, fespace.tabulate(u, rule))
        assert np.abs(curls).max() < 1e-12

    def test_rejects_nodal_family(self):
        s = fespace.build_space(MESH4, "P1")
        with pytest.raises(ValueError):
            fespace.interpolate_edge(s, lambda p: p)


class TestCommutingDiagram:
    @staticmethod
    def _cubic():
        def f(p):
            x, y = p[:, 0], p[:, 1]
            return x**3 - 2 * x * y**2 + y**3 + x * y

        def grad_f(p):
            x, y = p[:, 0], p[:, 1]
            return np.stack(
                [3 * x**2 - 2 * y**2 + y, -4 * x * y + 3 * y**2 + x], axis=1
            )

        return f, grad_f

    @pytest.mark.parametrize("fams", [("P1", "NE0"), ("P2", "NE1")])
    def test_interpolations_commute_with_grad(self, fams):
        f, grad_f = self._cubic()
        mesh = mesh2d.build_uniform_square(5)
        s = fespace.build_space(mesh, fams[0])
        u = fespace.build_space(mesh, fams[1])
        g = fespace.gradient_matrix(s, u)
        lhs = fespace.interpolate_edge(u, grad_f).coeffs
        rhs = g @ fespace.interpolate_nodal(s, f).coeffs
        assert np.abs(lhs - rhs).max() <= 1e-12

    @pytest.mark.parametrize("fams", [("P1", "NE0"), ("P2", "NE1")])
    def test_gradient_matrix_pointwise_identity(self, fams):
        rng = np.random.default_rng(11)
        mesh = mesh2d.build_uniform_square(6)
        s = fespace.build_space(mesh, fams[0])
        u = fespace.build_space(mesh, fams[1])
        g = fespace.gradient_matrix(s, u)
        phi = FEField(s, rng.standard_normal(s.n_dofs))
        h = FEField(u, g @ phi.coeffs)
        rule = refelem.quadrature(4)
        _, grads = fespace.eval_field(phi, fespace.tabulate(s, rule))
        vals, curls = fespace.eval_field(h, fespace.tabulate(u, rule))
        assert np.abs(vals - grads).max() <= 1e-12
        assert np.abs(curls).max() <= 1e-12

    def test_gradient_matrix_rejects_mismatched_pair(self):
        s = fespace.build_space(MESH4, "P1")
        u = fespace.build_space(MESH4, "NE1")
        with pytest.raises(ValueError):
            fespace.gradient_matrix(s, u)


class TestFEField:
    def test_length_validated(self):
        s = fespace.build_space(MESH4, "P1")
        with pytest.raises(ValueError):
            FEField(s, np.zeros(7))

    def test_vector_layout_component_major(self):
        s = fespace.build_space(MESH4, "CR", components=2)
        f = fespace.interpolate_nodal(
            s, lambda p: np.stack([p[:, 0], 10 + p[:, 1]], axis=1)
        )
        mids = MESH4.edge_midpoints()
        assert np.allclose(f.coeffs[: s.n_scalar], mids[:, 0])
        assert np.allclose(f.coeffs[s.n_scalar :], 10 + mids[:, 1])


class TestComponentwise:
    @pytest.mark.parametrize("components", [1, 2])
    def test_matches_block_diagonal_product_bitwise(self, components):
        rng = np.random.default_rng(5)
        a = sp.random(40, 40, density=0.2, format="csr", random_state=rng)
        x = rng.standard_normal(components * 40)
        blocks = sp.block_diag([a] * components, format="csr")
        assert np.array_equal(fespace.componentwise(a, x), blocks @ x)


class TestElementBlocks:
    def test_one_block_is_the_spaces_themselves(self):
        s = fespace.build_space(MESH4, "P1")
        u = fespace.build_space(MESH4, "NE0")
        blocks = list(fespace.element_blocks(s, u))
        assert len(blocks) == 1 and blocks[0][0] is s and blocks[0][1] is u

    def test_uneven_blocks_slice_elements_and_keep_numbering(self, monkeypatch):
        monkeypatch.setattr(fespace, "ELEMENT_BLOCK", 7)
        s = fespace.build_space(MESH4, "P2")  # 32 elements: 4 * 7 + 4
        u = fespace.build_space(MESH4, "NE1")
        blocks = list(fespace.element_blocks(s, u))
        assert [b[0].mesh.n_triangles for b in blocks] == [7, 7, 7, 7, 4]
        for space, parts in ((s, [b[0] for b in blocks]), (u, [b[1] for b in blocks])):
            assert np.array_equal(np.vstack([p.cell_dofs for p in parts]), space.cell_dofs)
            assert np.array_equal(np.vstack([p.cell_signs for p in parts]), space.cell_signs)
            assert all(p.n_dofs == space.n_dofs for p in parts)
        for name in ("triangles", "tri_edges", "tri_edge_signs", "jac", "jac_inv", "det"):
            joined = np.concatenate([getattr(b[0].mesh, name) for b in blocks])
            assert np.array_equal(joined, getattr(MESH4, name))
        # the two spaces of one block share its sub-mesh
        assert all(b[0].mesh is b[1].mesh for b in blocks)
        assert all(b[0].mesh.vertices is MESH4.vertices for b in blocks)

    def test_blocked_evaluation_matches_whole_mesh(self, monkeypatch):
        rng = np.random.default_rng(3)
        u = fespace.build_space(MESH4, "NE1")
        f = FEField(u, rng.standard_normal(u.n_dofs))
        rule = refelem.quadrature(4)
        whole = fespace.eval_field(f, fespace.tabulate(u, rule))
        monkeypatch.setattr(fespace, "ELEMENT_BLOCK", 5)
        parts = [fespace.eval_field(FEField(b, f.coeffs), fespace.tabulate(b, rule))
                 for (b,) in fespace.element_blocks(u)]
        for k in range(2):
            assert np.array_equal(np.concatenate([p[k] for p in parts]), whole[k])

    def test_spaces_on_different_meshes_rejected(self):
        s = fespace.build_space(MESH4, "P1")
        t = fespace.build_space(mesh2d.build_uniform_square(2), "P1")
        with pytest.raises(ValueError, match="different meshes"):
            next(fespace.element_blocks(s, t))
