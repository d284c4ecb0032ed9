import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ferrofem import assembly, driver, fespace, material, mesh2d, refelem, verify


class TestManufacturedCases:
    @pytest.mark.parametrize("case", [verify.case_2d_l0(), verify.case_2d_l1()])
    def test_velocity_divergence_free(self, case):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, size=(200, 2))
        g = case.grad_u(pts)
        assert np.abs(g[:, 0, 0] + g[:, 1, 1]).max() <= 1e-12

    @pytest.mark.parametrize("case", [verify.case_2d_l0(), verify.case_2d_l1()])
    def test_pressure_mean_zero(self, case):
        mesh = mesh2d.build_uniform_square(8)
        rule = refelem.quadrature(8)
        xq = fespace.quad_points(mesh, rule).reshape(-1, 2)
        vals = case.p(xq).reshape(mesh.n_triangles, rule.n_points)
        integral = float(
            np.einsum("tq,tq->", rule.weights[None, :] * mesh.det[:, None], vals)
        )
        assert abs(integral) <= 1e-10

    def test_l0_pressure_mean_analytic(self):
        # int (60 x^2 y - 20 y^3 - 5) = 10 - 5 - 5 = 0
        assert 60 / 6 - 20 / 4 - 5 == 0

    def test_magnetization_vanishes_at_center(self):
        case = verify.case_2d_l0()
        m = case.M(np.array([[0.5, 0.5]]))
        assert np.abs(m).max() == 0.0

    @pytest.mark.parametrize("case", [verify.case_2d_l0(), verify.case_2d_l1()])
    def test_gradients_match_finite_differences(self, case):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.1, 0.9, size=(50, 2))
        eps = 1e-6
        for fn, grad in ((case.phi, case.grad_phi), (case.p, case.grad_p)):
            for d in range(2):
                shift = np.zeros(2)
                shift[d] = eps
                fd = (fn(pts + shift) - fn(pts - shift)) / (2 * eps)
                assert np.abs(fd - grad(pts)[:, d]).max() < 1e-6

    def test_hessian_matches_gradient_differences(self):
        case = verify.case_2d_l1()
        rng = np.random.default_rng(2)
        pts = rng.uniform(0.1, 0.9, size=(50, 2))
        eps = 1e-6
        hess = case.hess_phi(pts)
        for d in range(2):
            shift = np.zeros(2)
            shift[d] = eps
            fd = (case.grad_phi(pts + shift) - case.grad_phi(pts - shift)) / (2 * eps)
            assert np.abs(fd - hess[:, :, d]).max() < 1e-5

    def test_forcing_consistent_with_momentum_residual(self):
        # rho (u.grad)u - eta lap(u) + grad(p_tilde) - f = 0 with p_tilde
        # differentiated numerically (independent of the grad_psi shortcut)
        case = verify.case_2d_l0()
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.1, 0.9, size=(50, 2))
        eps = 1e-6
        gpt = np.empty((50, 2))
        for d in range(2):
            shift = np.zeros(2)
            shift[d] = eps
            gpt[:, d] = (case.p_tilde(pts + shift) - case.p_tilde(pts - shift)) / (2 * eps)
        conv = np.einsum("nij,nj->ni", case.grad_u(pts), case.u(pts))
        resid = case.params.rho * conv - case.params.eta * case.lap_u(pts) + gpt - case.f(pts)
        assert np.abs(resid).max() < 1e-5


class TestErrorNorms:
    def test_interpolant_of_member_field_has_zero_error(self):
        mesh = mesh2d.build_uniform_square(4)
        s = fespace.build_space(mesh, "P1")
        f = fespace.interpolate_nodal(s, lambda p: p[:, 0])
        err, _ = verify.field_error(f, lambda p: p[:, 0])
        assert err < 1e-14

    def test_p1_interpolation_error_closed_form(self):
        # interpolating x^2: the broken gradient error is mesh_size/sqrt(6)
        # (sympy-integrated exactly on the N=2 mesh: sqrt(1/12))
        mesh = mesh2d.build_uniform_square(2)
        s = fespace.build_space(mesh, "P1")
        f = fespace.interpolate_nodal(s, lambda p: p[:, 0] ** 2)
        err, _ = verify.field_error(
            f, lambda p: np.stack([2 * p[:, 0], np.zeros(len(p))], axis=1), "grad"
        )
        assert err == pytest.approx(math.sqrt(1.0 / 12.0), abs=1e-14)
        assert err == pytest.approx(mesh2d.mesh_size(mesh) / math.sqrt(6.0), abs=1e-14)

    def test_hcurl_graph_norm_decomposition(self):
        rng = np.random.default_rng(4)
        mesh = mesh2d.build_uniform_square(4)
        u = fespace.build_space(mesh, "NE0")
        f = fespace.FEField(u, rng.standard_normal(u.n_dofs))

        def exact(p):  # a gradient, so its curl is zero
            return np.stack([2 * p[:, 0] * p[:, 1], p[:, 0] ** 2], axis=1)

        total, _ = verify.field_error(f, exact, "hcurl")
        l2, _ = verify.field_error(f, exact)
        rule = refelem.quadrature(8)
        _, curls = fespace.eval_field(f, fespace.tabulate(u, rule))
        curl_part = math.sqrt(
            float(np.einsum("tq,tq->", rule.weights[None, :] * mesh.det[:, None], curls**2))
        )
        assert total**2 == pytest.approx(l2**2 + curl_part**2, rel=1e-13)

    def test_relative_falls_back_to_absolute_for_zero_reference(self):
        mesh = mesh2d.build_uniform_square(2)
        s = fespace.build_space(mesh, "P1")
        f = fespace.interpolate_nodal(s, lambda p: np.full(len(p), 0.5))
        err_abs, ref = verify.field_error(f, lambda p: np.zeros(len(p)))
        err_rel = verify._relative(err_abs, ref)
        assert err_rel == err_abs > 0

    # relative columns recorded from the five-evaluator implementation
    PINNED = {
        ("l0", 8): {
            "err_phi_h1": 0.2023273347256535,
            "err_H_hcurl": 0.20232733472565348,
            "err_M_l2": 0.20225190863739068,
            "err_u_h1h": 0.43979110156585066,
            "err_p_l2": 0.1535598579774233,
        },
        ("l1", 4): {
            "err_phi_h1": 0.05824551875739142,
            "err_H_hcurl": 0.05824551875739139,
            "err_M_l2": 0.05815483851150991,
            "err_u_h1h": 0.027234959911743684,
            "err_p_l2": 0.034107183635457006,
        },
    }

    @pytest.mark.parametrize("pair, n", sorted(PINNED))
    def test_measure_errors_is_one_pass_and_pinned(self, monkeypatch, pair, n):
        case = verify.CASES[pair]()
        sol = driver.solve_fhd(driver.FhdConfig(n=n, pair=pair, case=case))
        counts = {"quad_points": 0, "tabulate": []}
        real_points, real_tabulate = fespace.quad_points, fespace.tabulate

        def quad_points(*args):
            counts["quad_points"] += 1
            return real_points(*args)

        def tabulate(space, rule):
            counts["tabulate"].append(space)
            return real_tabulate(space, rule)

        monkeypatch.setattr(fespace, "quad_points", quad_points)
        monkeypatch.setattr(fespace, "tabulate", tabulate)
        errs = verify.measure_errors(sol, case)
        assert counts["quad_points"] == 1
        spaces = counts["tabulate"]
        assert len(spaces) == 4 and len({id(s) for s in spaces}) == 4
        assert sol.H.space is sol.M.space
        assert errs.keys() == self.PINNED[pair, n].keys()
        for name, value in self.PINNED[pair, n].items():
            assert errs[name] == pytest.approx(value, rel=1e-12)
        # over uneven element blocks the pass repeats per block
        size = self.UNEVEN_BLOCK[pair, n]
        monkeypatch.setattr(fespace, "ELEMENT_BLOCK", size)
        n_blocks = -(-sol.phi.space.mesh.n_triangles // size)
        counts = {"quad_points": 0, "tabulate": []}
        errs = verify.measure_errors(sol, case)
        assert n_blocks > 1 and counts["quad_points"] == n_blocks
        spaces = counts["tabulate"]
        assert len(spaces) == 4 * n_blocks and len({id(s) for s in spaces}) == 4 * n_blocks
        for name, value in self.PINNED[pair, n].items():
            assert errs[name] == pytest.approx(value, rel=1e-12)

    # 128 = 3 * 37 + 17 and 32 = 4 * 7 + 4 elements
    UNEVEN_BLOCK = {("l0", 8): 37, ("l1", 4): 7}

    @pytest.mark.parametrize("pair, n", sorted(UNEVEN_BLOCK))
    def test_blocked_error_norms_match_one_block(self, monkeypatch, pair, n):
        case = verify.CASES[pair]()
        sol = driver.solve_fhd(driver.FhdConfig(n=n, pair=pair, case=case))
        whole = verify._error_norms(sol, case)
        monkeypatch.setattr(fespace, "ELEMENT_BLOCK", self.UNEVEN_BLOCK[pair, n])
        blocked = verify._error_norms(sol, case)
        assert list(blocked) == list(whole)
        for name, pair_norms in whole.items():
            assert blocked[name] == pytest.approx(pair_norms, rel=1e-14)
        assert verify.field_error(sol.phi, case.grad_phi, "grad") == pytest.approx(
            whole["err_phi_h1"], rel=1e-14)

    def test_error_norm_and_load_memory_bounded(self):
        # l0 N=64 (8192 elements, four blocks): the whole-mesh stages held
        # 17.1 MB (error norms) and 13.8 MB (flow load) of numpy temporaries
        import tracemalloc

        case = verify.CASES["l0"]()
        prob = driver.Problem(driver.FhdConfig(n=64, pair="l0", case=case))
        sol = driver.FhdSolution(
            phi=prob.S.zero_field(), H=prob.U.zero_field(), M=prob.U.zero_field(),
            u=prob.V.zero_field(), p_tilde=prob.W.zero_field(), psi=prob.W.zero_field(),
            p=prob.W.zero_field(), diagnostics={},
        )
        peaks = {}
        tracemalloc.start()
        try:
            for name, stage in (("measure_errors", lambda: verify.measure_errors(sol, case)),
                                ("assemble_ns_rhs", lambda: assembly.assemble_ns_rhs(prob.V, case.f))):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                stage()
                peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()
        assert peaks["measure_errors"] < 8.0 and peaks["assemble_ns_rhs"] < 8.0, peaks

    def test_measure_errors_evaluates_each_field_once(self, monkeypatch):
        case = verify.CASES["l0"]()
        sol = driver.solve_fhd(driver.FhdConfig(n=8, case=case))
        fields = []
        real = fespace.eval_field

        def eval_field(field, tab):
            fields.append(field)
            return real(field, tab)

        monkeypatch.setattr(fespace, "eval_field", eval_field)
        verify.measure_errors(sol, case)
        assert len(fields) == len({id(f) for f in fields}) == 5
        assert any(f is sol.u for f in fields)

    def test_curl_inf_of_gradient_field(self):
        rng = np.random.default_rng(5)
        mesh = mesh2d.build_uniform_square(8)
        s = fespace.build_space(mesh, "P1")
        u = fespace.build_space(mesh, "NE0")
        g = fespace.gradient_matrix(s, u)
        h = fespace.FEField(u, g @ rng.standard_normal(s.n_dofs))
        assert verify.curl_inf(h) <= 1e-10


class TestConvergenceOrders:
    def test_reference_pair_order_arithmetic(self):
        pw, _ = verify.convergence_orders([0.2023, 0.1018], [1.0 / 8, 1.0 / 16])
        assert pw[0] == pytest.approx(0.9907, abs=1e-4)

    def test_exact_halving_is_first_order(self):
        errs = [0.8, 0.4, 0.2, 0.1]
        hs = [1.0, 0.5, 0.25, 0.125]
        pw, lsq = verify.convergence_orders(errs, hs)
        assert np.allclose(pw, 1.0, atol=1e-14)
        assert lsq == pytest.approx(1.0, abs=1e-13)

    def test_exact_quartering_is_second_order(self):
        errs = [0.8, 0.2, 0.05]
        hs = [1.0, 0.5, 0.25]
        pw, lsq = verify.convergence_orders(errs, hs)
        assert np.allclose(pw, 2.0, atol=1e-14)
        assert lsq == pytest.approx(2.0, abs=1e-13)

    @given(
        st.floats(min_value=0.25, max_value=4.0),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_power_law_recovered(self, order, scale):
        hs = np.array([0.5, 0.25, 0.125])
        errs = scale * hs**order
        pw, lsq = verify.convergence_orders(errs, hs)
        assert lsq == pytest.approx(order, rel=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            verify.convergence_orders([0.1, 0.0], [0.5, 0.25])
        with pytest.raises(ValueError):
            verify.convergence_orders([0.1], [0.5])


class TestStudies:
    def test_small_study_monotone_decrease(self):
        rep = verify.run_convergence_study("l0", [4, 8, 16])
        for col in verify.ERROR_COLUMNS:
            vals = rep.column(col)
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rows_sorted_and_rejects_unsorted_levels(self):
        with pytest.raises(ValueError):
            verify.run_convergence_study("l0", [8, 4])

    def test_non_unit_parameters_still_first_order(self):
        # the manufactured forcing and derived fields track the constants,
        # so the study stays consistent away from the all-ones defaults
        from ferrofem.material import MaterialParams

        prm = MaterialParams(mu0=2.0, Ms=2.0, gamma=0.5, rho=2.0, eta=0.5)
        rep = verify.run_convergence_study("l0", [4, 8, 16], params=prm)
        for col in verify.ERROR_COLUMNS:
            vals = rep.column(col)
            assert all(b < a for a, b in zip(vals, vals[1:]))
        assert rep.orders_lsq["err_phi_h1"] > 0.9

    def test_study_error_carries_partial_report(self, monkeypatch):
        calls = []
        real = verify._solve_level

        def flaky(pair, n, *args):
            if n == 8:
                raise driver.StageError("potential", RuntimeError("forced"))
            return real(pair, n, *args)

        monkeypatch.setattr(verify, "_solve_level", flaky)
        with pytest.raises(verify.StudyError) as err:
            verify.run_convergence_study("l0", [4, 8, 16])
        assert err.value.failed_level == 8
        assert [r.n for r in err.value.report.rows] == [4]


class TestJitteredMeshes:
    """Both pairs off the structured mesh: every interior vertex moved by a
    seeded uniform +-0.25 h, so each element has its own Jacobian.

    Measured lsq orders over seeds 0-2 (l0 N=8..64, l1 N=8..32): l0
    phi/H/M 1.031-1.050, u 0.970-0.987, p 1.101-1.123; l1 phi/H/M
    2.034-2.080, u 1.971-2.086, p 2.054-2.108; max |curl H_h| 8.8e-15. The
    bounds keep 0.07 (l0) and 0.12 (l1) below the lowest of them; an error in
    the per-element Jacobian algebra costs whole orders or the curl bound.
    """

    @pytest.mark.parametrize("pair, levels, bound", [
        ("l0", [8, 16, 32, 64], 0.9),
        ("l1", [8, 16, 32], 1.85),
    ])
    def test_orders_and_curl(self, monkeypatch, jittered_square, pair, levels, bound):
        monkeypatch.setattr(mesh2d, "build_uniform_square", jittered_square)
        rep = verify.run_convergence_study(pair, levels)
        assert all(r.h > 1.05 * math.sqrt(2) / r.n for r in rep.rows)  # jittered
        for col in verify.ERROR_COLUMNS:
            assert rep.orders_lsq[col] >= bound, col
        assert max(r.curl_inf for r in rep.rows) <= 1e-12


class TestBattery:
    def test_negative_control_broken_alpha_fails(self, monkeypatch):
        real = material.alpha
        monkeypatch.setattr(
            material, "alpha", lambda x, params: np.minimum(real(x, params), 1.0)
        )
        by_name = {r.name: r for r in verify.check_material_bounds()}
        assert not by_name["alpha-bounds"].passed

    def test_negative_control_broken_langevin_branch_fails(self, monkeypatch):
        # a 1% error on the series side of the small-y switch only
        real = material.langevin
        monkeypatch.setattr(
            material, "langevin",
            lambda y: np.where(np.asarray(y) < 1e-2, 1.01, 1.0) * real(y),
        )
        [result] = verify.check_branch_crossovers()
        assert result.name == "branch-crossover"
        assert not result.passed

    def test_infsup_constant_positive_and_stable(self):
        b4 = verify.infsup_constant("l0", 4)
        b8 = verify.infsup_constant("l0", 8)
        assert 0.4 < b8 < b4 < 0.7
        # the battery's constants, each as printed (6 decimals) and to 1e-6
        # relative of its full value (the printed l1 ones round off by more):
        # a wrong coupling of the two components' Schur terms moves them by
        # less than the loose bounds above can see
        pinned = {  # (printed, full value) at each battery level
            "l0": [("0.657044", 0.6570439940), ("0.577339", 0.5773393374),
                   ("0.528196", 0.5281962050)],
            "l1": [("0.366939", 0.3669394929), ("0.365896", 0.3658958570),
                   ("0.365444", 0.3654436465)],
        }
        for pair, values in pinned.items():
            for n, (printed, beta) in zip(verify.INFSUP_LEVELS, values):
                got = verify.infsup_constant(pair, n)
                assert f"{got:.6f}" == printed
                assert got == pytest.approx(beta, rel=1e-6)

    @pytest.mark.parametrize("pair", ["l0", "l1"])
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_infsup_constant_matches_dense_oracle(self, pair, n):
        # N=16 is the battery's finest level, where the growth of the
        # pivot-free factorization is largest
        assert verify.infsup_constant(pair, n) == pytest.approx(
            _dense_infsup_constant(pair, n), rel=1e-12
        )

    @pytest.mark.parametrize("pair", ["l0", "l1"])
    def test_infsup_pencil_holds_the_nonzeros_of_the_sparse_sum(self, monkeypatch, pair):
        # the velocity blocks of the factored pencil are (A + M)[free][:, free]
        # as scipy's sum gives it, exact zeros dropped, so that the ordering
        # and fill of the factor follow the operator and not the pattern
        pencils = []
        real = verify.linalg.factor
        monkeypatch.setattr(verify.linalg, "factor", lambda a: pencils.append(a) or real(a))
        verify.infsup_constant(pair, 8)
        _, _, v_fam, w_fam = driver.PAIRS[pair]
        v = fespace.build_space(mesh2d.build_uniform_square(8), v_fam, components=2)
        sys = assembly.assemble_stokes_blocks(v, fespace.build_space(v.mesh, w_fam), 1.0)
        free = ~v.dirichlet_scalar
        x = (sys.A + assembly.assemble_scalar_mass(v))[free][:, free]
        h = x.shape[0]
        [pencil] = pencils
        for block in (pencil[:h, :h], pencil[h:2 * h, h:2 * h]):
            block = sp.csr_matrix(block)
            assert block.nnz == x.nnz
            assert np.array_equal(block.indices, x.indices)

    @pytest.mark.parametrize("pair", ["l0", "l1"])
    def test_infsup_constant_factors_the_shifted_pencil_once(self, monkeypatch, pair):
        factors, eigsh_kwargs = [], []
        real_factor, real_eigsh = verify.linalg.factor, verify.spla.eigsh

        def factor(a):
            lu = real_factor(a)
            factors.append(lu)
            return lu

        def eigsh(a, **kwargs):
            eigsh_kwargs.append(kwargs)
            return real_eigsh(a, **kwargs)

        monkeypatch.setattr(verify.linalg, "factor", factor)
        monkeypatch.setattr(verify.spla, "eigsh", eigsh)
        for n in verify.INFSUP_LEVELS:
            factors.clear()
            eigsh_kwargs.clear()
            verify.infsup_constant(pair, n)
            # one factor of the pencil, by the package's one LU (its options
            # are tested in tests/test_linalg.py), handed to eigsh
            [lu] = factors
            [kw] = eigsh_kwargs
            assert kw["OPinv"] is not None
        # the finest l1 factor: ~219k entries; scipy's default COLAMD with
        # partial pivoting gives 357k
        if pair == "l1":
            assert lu.nnz < 300_000

    def test_negative_control_hydrostatic_mode_lost_fails(self, monkeypatch):
        # one free entry of the P0 pair's divergence scaled by 1.5:
        # B_f' 1 != 0 and B_f' has no kernel left, so the smallest eigenvalue
        # is no longer the hydrostatic zero. (A whole row scaled by d would
        # only move the kernel to D^-1 1, and the zero would stay.)
        real = assembly.assemble_stokes_blocks

        def broken(v_space, w_space, eta):
            sys = real(v_space, w_space, eta)
            if w_space.family == "P0":
                b = sp.csr_matrix(sys.B, copy=True)
                b.data[np.argmax(abs(b.data) * sys.free_u[b.indices])] *= 1.5
                sys.B = b
            return sys

        monkeypatch.setattr(verify.assembly, "assemble_stokes_blocks", broken)
        by_name = {r.name: r for r in verify.check_infsup()}
        assert not by_name["inf-sup-l0"].passed
        assert "hydrostatic" in by_name["inf-sup-l0"].detail
        assert by_name["inf-sup-l1"].passed

    def test_stability_check_warm_starts_oseen_sweeps(self, monkeypatch):
        counts = []
        real = driver.linalg.solve_saddle

        def counting(sys, p0=None):
            u, p, report = real(sys, p0)
            counts.append(report.iterations)
            return u, p, report

        monkeypatch.setattr(driver.linalg, "solve_saddle", counting)
        results = verify.check_stability_bounds()
        assert [r.name for r in results if r.passed] == [
            "stability-potential", "stability-velocity-energy"
        ]
        # Stokes seed plus three sweeps; 18 + 3 * 22 = 84 when each sweep
        # started from p = 0
        assert len(counts) == 4 and sum(counts) <= 50


def _dense_infsup_constant(pair, n):
    """Reference inf-sup constant: the dense Schur complement and generalized eigh.

    The velocity Gram matrix is block_diag(x, x), so S = sum_c B_c x^-1 B_c'
    has one term per component; the smallest eigenvalue of S p = lam Mp p
    belongs to the constant pressure mode.
    """
    _, _, v_fam, w_fam = driver.PAIRS[pair]
    mesh = mesh2d.build_uniform_square(n)
    v = fespace.build_space(mesh, v_fam, components=2)
    w = fespace.build_space(mesh, w_fam)
    sys = assembly.assemble_stokes_blocks(v, w, eta=1.0)
    free = ~v.dirichlet_scalar
    x = (sys.A + assembly.assemble_scalar_mass(v))[free][:, free].toarray()
    mp = assembly.assemble_scalar_mass(w).toarray()
    cho = scipy.linalg.cho_factor(x)
    b_cs = np.split(sys.B[:, v.free_mask].toarray(), 2, axis=1)
    s_mat = sum(b_c @ scipy.linalg.cho_solve(cho, b_c.T) for b_c in b_cs)
    eigs = scipy.linalg.eigh(s_mat, mp, eigvals_only=True)
    return float(np.sqrt(max(eigs[1], 0.0)))
