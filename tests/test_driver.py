import numpy as np
import pytest

from ferrofem import assembly, driver, fespace, linalg, material, refelem, verify
from ferrofem.driver import FhdConfig
from ferrofem.fespace import FEField
from ferrofem.material import MaterialParams

CASE = verify.case_2d_l0()


def make_cfg(n=8, **kw):
    kw.setdefault("case", CASE)
    return FhdConfig(n=n, pair=kw.pop("pair", "l0"), **kw)


def zero_external(pts):
    return np.zeros((len(pts), 2))


def poisson_seed(prob):
    """The potential chain's seed, solved by the calls of its first step."""
    a_ff, b_f, expand = linalg.reduce_dirichlet(prob.K1, prob.rhs_phi, prob.S)
    x, rep = linalg.solve_spd(a_ff, b_f, prob.phi_factor)
    return FEField(prob.S, expand(x)), rep


def stokes_seed(prob):
    """The flow chain's seed: the saddle system without convection."""
    u, p, rep = linalg.solve_saddle(prob.saddle)
    return FEField(prob.V, u), FEField(prob.W, p), rep


class TestConfig:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            FhdConfig(n=4)
        with pytest.raises(ValueError):
            FhdConfig(n=4, case=CASE, h_ext=zero_external)

    def test_rejects_unknown_pair(self):
        with pytest.raises(ValueError):
            FhdConfig(n=4, pair="l2", case=CASE)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            FhdConfig(n=4, case=CASE, picard_iters=0)


class TestInitialGuesses:
    def test_zero_data_zero_potential(self):
        cfg = FhdConfig(n=4, h_ext=zero_external)
        phi, rep = poisson_seed(driver.Problem(cfg))
        assert np.abs(phi.coeffs).max() == 0.0

    def test_poisson_guess_independent_of_magnetization_constants(self):
        # with an applied field the seed operator and data never touch the
        # magnetization law, so Ms and gamma cannot influence the seed
        def h_ext(pts):
            x, y = pts[:, 0], pts[:, 1]
            return np.stack(
                [x * (1 - x) * np.cos(np.pi * y), y * (1 - y) * np.cos(np.pi * x)],
                axis=1,
            )

        phi_a, _ = poisson_seed(driver.Problem(
            FhdConfig(n=6, params=MaterialParams(Ms=1.0, gamma=1.0), h_ext=h_ext)
        ))
        phi_b, _ = poisson_seed(driver.Problem(
            FhdConfig(n=6, params=MaterialParams(Ms=3.0, gamma=2.0), h_ext=h_ext)
        ))
        assert np.array_equal(phi_a.coeffs, phi_b.coeffs)
        assert np.abs(phi_a.coeffs).max() > 0

    def test_poisson_seed_gap_bounded_and_killed_by_sweeps(self):
        # the seed converges to the (fixed) continuous gap between the linear
        # and nonlinear solutions, about 0.0495 in the H1 seminorm here; the
        # sweeps then contract it below the discretization error
        gaps = []
        for n in (8, 16):
            prob = driver.Problem(make_cfg(n=n, picard_iters=6))
            phi0, _ = poisson_seed(prob)
            phi, _ = driver.picard_elliptic(prob)
            gaps.append(prob.grad_norm_phi(phi0.coeffs - phi.coeffs))
        assert all(g < 0.06 for g in gaps)
        assert abs(gaps[1] - gaps[0]) < 0.2 * gaps[0]  # level-independent limit

    def test_stokes_guess_zero_force(self):
        cfg = FhdConfig(n=4, h_ext=zero_external)
        u, p, rep = stokes_seed(driver.Problem(cfg))
        assert np.abs(u.coeffs).max() == 0.0
        assert np.abs(p.coeffs).max() == 0.0

    def test_stokes_guess_divergence_orthogonal_and_mean_free(self):
        prob = driver.Problem(make_cfg(n=8))
        u, p, rep = stokes_seed(prob)
        div = prob.saddle.B @ u.coeffs
        assert np.abs(div).max() < 1e-10
        assert abs(prob.saddle.mean @ p.coeffs) < 1e-12 * max(np.abs(p.coeffs).max(), 1)


class TestPicard:
    def test_zero_rhs_fixed_point(self):
        cfg = FhdConfig(n=4, h_ext=zero_external, picard_iters=3)
        phi, info = driver.picard_elliptic(driver.Problem(cfg))
        assert np.abs(phi.coeffs).max() == 0.0

    def test_converges_to_nonlinear_solution(self):
        # the nonlinear residual vanishes at stagnation
        cfg = make_cfg(n=8, picard_iters=30)
        prob = driver.Problem(cfg)
        phi, info = driver.picard_elliptic(prob)
        a = assembly.assemble_weighted_stiffness(prob.S, phi, cfg.params)
        res = (prob.rhs_phi - a @ phi.coeffs)[prob.S.free_mask]
        assert np.linalg.norm(res) <= 1e-9
        assert info["updates"][-1] < 1e-12

    def test_two_sweeps_close_to_six(self):
        phi2, _ = driver.picard_elliptic(driver.Problem(make_cfg(n=16)))
        prob6 = driver.Problem(make_cfg(n=16, picard_iters=6))
        phi6, _ = driver.picard_elliptic(prob6)
        err, _ = verify.field_error(phi6, CASE.grad_phi, "grad")
        gap = prob6.grad_norm_phi(phi2.coeffs - phi6.coeffs)
        assert gap <= 0.05 * err

    def test_external_mode_stability_bound(self):
        prm = MaterialParams(mu0=3.0)

        def h_ext(pts):
            x, y = pts[:, 0], pts[:, 1]
            return np.stack(
                [x * (1 - x) * np.cos(np.pi * y), y * (1 - y) * np.cos(np.pi * x)],
                axis=1,
            )

        prob = driver.Problem(FhdConfig(n=8, params=prm, h_ext=h_ext, picard_iters=4))
        phi, _ = driver.picard_elliptic(prob)
        he_norm = verify.field_error(prob.U.zero_field(), h_ext)[1]
        assert prob.grad_norm_phi(phi.coeffs) <= he_norm / prm.mu0 * (1 + 1e-10)


def _count_splu(monkeypatch):
    calls = []
    real = driver.linalg.spla.splu

    def counting(*args, **kwargs):
        calls.append(args[0].shape[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(driver.linalg.spla, "splu", counting)
    return calls


class TestFactorReuse:
    @pytest.mark.parametrize(
        "pair, n, picard_iters, oseen_iters, factorizations",
        [("l0", 8, 2, 2, 4), ("l1", 4, 8, 6, 8)],
    )
    def test_one_potential_factor_per_level(
        self, monkeypatch, pair, n, picard_iters, oseen_iters, factorizations
    ):
        # the Poisson seed plus the Stokes seed and one velocity block per
        # Oseen sweep; no Picard sweep and no projection factors
        case = CASE if pair == "l0" else verify.case_2d_l1()
        calls = _count_splu(monkeypatch)
        sol = driver.solve_fhd(FhdConfig(
            n=n, pair=pair, case=case, picard_iters=picard_iters,
            oseen_iters=oseen_iters,
        ))
        assert len(calls) == factorizations == 2 + oseen_iters
        reports = sol.diagnostics["potential"]["reports"]
        assert reports[0].iterations == 0 < reports[1].iterations
        assert len({r.fill for r in reports}) == 1
        assert all(r.iterations > 0 for r in sol.diagnostics["recovery_reports"].values())

    def test_cg_sweeps_match_direct_sweeps(self, monkeypatch):
        params = MaterialParams(gamma=4.0, eta=0.5)
        cfg = FhdConfig(
            n=16, pair="l1", params=params, case=verify.case_2d_l1(), picard_iters=8
        )
        phi_cg, info_cg = driver.picard_elliptic(driver.Problem(cfg))
        real = driver.linalg.solve_spd
        monkeypatch.setattr(
            driver.linalg,
            "solve_spd",
            lambda a, b, precond, x0=None: real(a, b, driver.linalg.ReusedFactor()),
        )
        phi_lu, info_lu = driver.picard_elliptic(driver.Problem(cfg))
        assert all(r.iterations == 0 for r in info_lu["reports"])
        assert info_cg["updates"] == pytest.approx(info_lu["updates"], rel=1e-8)
        scale = np.abs(phi_lu.coeffs).max()
        assert np.abs(phi_cg.coeffs - phi_lu.coeffs).max() <= 1e-9 * scale

    def test_strong_nonlinearity_stays_under_cap(self, monkeypatch):
        cfg = make_cfg(n=16, params=MaterialParams(gamma=100.0, Ms=10.0), picard_iters=8)
        calls = _count_splu(monkeypatch)
        _, info = driver.picard_elliptic(driver.Problem(cfg))
        counts = [r.iterations for r in info["reports"][1:]]
        assert len(counts) == 8
        assert max(counts) < driver.linalg.CG_MAXITER
        assert len(calls) == 1

    def test_cap_refactors_and_stays_ok(self, monkeypatch):
        cfg = make_cfg(n=8, picard_iters=3)
        phi_ref, _ = driver.picard_elliptic(driver.Problem(cfg))
        monkeypatch.setattr(driver.linalg, "CG_MAXITER", 1)
        calls = _count_splu(monkeypatch)
        phi, info = driver.picard_elliptic(driver.Problem(cfg))
        assert len(calls) > 1  # a sweep whose CG hit the cap factored its matrix
        assert len(info["reports"]) == 4  # the seed and every sweep returned
        scale = np.abs(phi_ref.coeffs).max()
        assert np.abs(phi.coeffs - phi_ref.coeffs).max() <= 1e-9 * scale


def _chain(name, prob, start):
    """One call of a chain: its iterate, the iterate's coefficients, its info."""
    if name == "potential":
        phi, info = driver.picard_elliptic(prob, start)
        return phi, phi.coeffs, info
    u, p, info = driver.oseen_ns(prob, start)
    return (u, p), np.concatenate([u.coeffs, p.coeffs]), info


class TestFixedPointLoop:
    @pytest.mark.parametrize("chain", ["potential", "flow"])
    @pytest.mark.parametrize("pair, n", [("l0", 8), ("l1", 4)])
    def test_chained_one_sweep_calls_equal_one_call(self, monkeypatch, chain, pair, n):
        # the one-sweep-at-a-time pattern of verify.check_stability_bounds:
        # the seed factor and the pressure warm start carry over the calls
        sweeps = 3
        case = CASE if pair == "l0" else verify.case_2d_l1()

        def problem(iters):
            return driver.Problem(FhdConfig(
                n=n, pair=pair, case=case, picard_iters=iters, oseen_iters=iters
            ))

        whole_prob = problem(sweeps)
        x, whole, info = _chain(chain, whole_prob, None)
        assert len(info["reports"]) == sweeps + 1
        assert len(info["updates"]) == sweeps
        _, _, resumed = _chain(chain, whole_prob, x)
        assert len(resumed["reports"]) == len(resumed["updates"]) == sweeps

        prob = problem(1)
        calls = _count_splu(monkeypatch)
        x, reports, updates = None, [], []
        for k in range(sweeps):
            x, chained, step_info = _chain(chain, prob, x)
            assert len(step_info["reports"]) == (2 if k == 0 else 1)
            assert len(step_info["updates"]) == 1
            reports += step_info["reports"]
            updates += step_info["updates"]
        assert np.array_equal(chained, whole)
        assert np.array_equal(updates, info["updates"])
        assert [r.iterations for r in reports] == [r.iterations for r in info["reports"]]
        # the potential chain factors its seed alone; the flow chain factors
        # the seed's velocity block and each sweep's
        assert len(calls) == (1 if chain == "potential" else sweeps + 1)


class TestOseen:
    def test_zero_force_zero_solution(self):
        cfg = FhdConfig(n=4, h_ext=zero_external, oseen_iters=2)
        u, p, info = driver.oseen_ns(driver.Problem(cfg))
        assert np.abs(u.coeffs).max() == 0.0

    def test_energy_identity_zero_bc(self):
        def f(pts):
            return np.stack([np.sin(np.pi * pts[:, 1]), np.sin(np.pi * pts[:, 0])], axis=1)

        prm = MaterialParams(eta=0.5)
        cfg = FhdConfig(n=8, params=prm, h_ext=zero_external, body_force=f, oseen_iters=3)
        prob = driver.Problem(cfg)
        u, p, info = driver.oseen_ns(prob)
        energy = prm.eta * prob.grad_norm_u(u.coeffs) ** 2
        work = float(prob.saddle.rhs_u @ u.coeffs)
        assert energy <= work * (1 + 1e-10)
        assert energy == pytest.approx(work, rel=1e-9)

    def test_iterates_divergence_orthogonal(self):
        prob = driver.Problem(make_cfg(n=8, oseen_iters=3))
        u, p, info = driver.oseen_ns(prob)
        # (div u_h, q_h) = 0 for every pressure basis function (the full
        # field including the lifted boundary values is discretely solenoidal)
        assert np.abs(prob.saddle.B @ u.coeffs).max() < 1e-10


class TestRecovery:
    def test_zero_potential_recovers_zeros(self):
        cfg = FhdConfig(n=4, h_ext=zero_external)
        sol = driver.solve_fhd(cfg)
        for field in (sol.phi, sol.H, sol.M, sol.u, sol.psi):
            assert np.abs(field.coeffs).max() < 1e-14
        assert np.allclose(sol.p.coeffs, sol.p_tilde.coeffs, atol=1e-14)

    def test_curl_free_identity_coefficient_path(self):
        sol = driver.solve_fhd(make_cfg(n=16))
        assert verify.curl_inf(sol.H) <= 1e-12

    @pytest.mark.parametrize("pair", ["l0", "l1"])
    def test_mass_path_cross_validates_gradient_path(self, pair):
        case = CASE if pair == "l0" else verify.case_2d_l1()
        sol = driver.solve_fhd(FhdConfig(n=8, pair=pair, case=case))
        h_mass = verify.project_gradient(sol.phi, sol.H.space)
        scale = np.abs(sol.H.coeffs).max()
        assert np.abs(sol.H.coeffs - h_mass.coeffs).max() <= 1e-9 * scale

    @pytest.mark.parametrize("pair", ["l0", "l1"])
    def test_mass_cg_counts_do_not_grow_with_n(self, pair):
        case = CASE if pair == "l0" else verify.case_2d_l1()
        counts = {}
        for n in (8, 32):
            sol = driver.solve_fhd(FhdConfig(n=n, pair=pair, case=case))
            counts[n] = {
                k: r.iterations for k, r in sol.diagnostics["recovery_reports"].items()
            }
        for key in ("M", "psi"):
            assert 1 <= counts[8][key] <= 50
            assert counts[32][key] <= counts[8][key] + 2

    def test_magnetization_saturates_before_projection(self):
        cfg = make_cfg(n=8)
        sol = driver.solve_fhd(cfg)
        rule = refelem.quadrature(4)
        hv, _ = fespace.eval_field(sol.H, fespace.tabulate(sol.H.space, rule))
        m = material.magnetization(hv, cfg.params)
        assert np.sqrt((m * m).sum(axis=-1)).max() < cfg.params.Ms

    def test_pressure_composition_and_mean(self):
        cfg = make_cfg(n=8)
        sol = driver.solve_fhd(cfg)
        setup_mean = assembly.assemble_stokes_blocks(
            sol.u.space, sol.p.space, cfg.params.eta
        ).mean
        assert abs(setup_mean @ sol.p.coeffs) < 1e-12
        # p = p_tilde + mu0 psi up to the constant shift
        shift = sol.p.coeffs - (sol.p_tilde.coeffs + cfg.params.mu0 * sol.psi.coeffs)
        assert np.abs(shift - shift[0]).max() < 1e-12

    def test_small_gamma_pressure_keeps_its_digits(self):
        # beta(0) = Ms ln(gamma) / gamma is -3.5e16 at gamma = 1e-15; psi is
        # taken relative to it, so p_tilde survives the sum p_tilde + mu0 psi
        errs = {
            gamma: verify.run_convergence_study(
                "l0", [4, 8], params=MaterialParams(gamma=gamma)
            ).column("err_p_l2")
            for gamma in (1e-9, 1e-15)
        }
        assert errs[1e-15] == pytest.approx(errs[1e-9], rel=1e-6)

    def test_external_field_full_solve(self):
        prm = MaterialParams(mu0=2.0, Ms=2.0, gamma=0.5)

        def h_ext(pts):
            x, y = pts[:, 0], pts[:, 1]
            return np.stack(
                [x * (1 - x) * np.cos(np.pi * y), y * (1 - y) * np.cos(np.pi * x)],
                axis=1,
            )

        sol = driver.solve_fhd(FhdConfig(n=8, params=prm, h_ext=h_ext))
        assert np.abs(sol.phi.coeffs).max() > 0
        assert verify.curl_inf(sol.H) <= 1e-12
        assert np.abs(sol.u.coeffs).max() == 0.0  # no body force
        assert np.abs(sol.psi.coeffs).max() > 0
        # with zero flow the total pressure is the mean-shifted magnetic part
        expect = prm.mu0 * sol.psi.coeffs
        expect = expect - np.average(expect, weights=sol.p.space.mesh.areas)
        assert np.abs(sol.p.coeffs - expect).max() < 1e-12


class TestSolveFhd:
    @pytest.mark.parametrize(
        "func, stage",
        [
            ("oseen_ns", "navier-stokes"),
            ("picard_elliptic", "potential"),
            ("recover_fields", "recovery"),
        ],
    )
    def test_stage_error_tagged(self, monkeypatch, func, stage):
        # every solver call of solve_fhd runs inside a stage, so a study
        # sees only StageError
        cfg = make_cfg(n=4)

        def boom(*a, **k):
            raise driver.linalg.SolverError("forced")

        monkeypatch.setattr(driver, func, boom)
        with pytest.raises(driver.StageError, match=f"stage '{stage}' failed: forced"):
            driver.solve_fhd(cfg)

    def test_decoupled_chains_independent(self):
        cfg = make_cfg(n=8)
        sol = driver.solve_fhd(cfg)
        prob = driver.Problem(cfg)
        phi, _ = driver.picard_elliptic(prob)
        u, p, _ = driver.oseen_ns(prob)
        assert np.array_equal(sol.phi.coeffs, phi.coeffs)
        assert np.array_equal(sol.u.coeffs, u.coeffs)
        assert np.array_equal(sol.p_tilde.coeffs, p.coeffs)

    def test_deterministic(self):
        a = driver.solve_fhd(make_cfg(n=8))
        b = driver.solve_fhd(make_cfg(n=8))
        for fa, fb in ((a.phi, b.phi), (a.u, b.u), (a.p, b.p), (a.M, b.M)):
            assert np.array_equal(fa.coeffs, fb.coeffs)

    def test_galerkin_residual_of_last_sweep(self):
        cfg = make_cfg(n=8, picard_iters=1)
        prob = driver.Problem(cfg)
        phi_prev, _ = driver.picard_elliptic(prob)
        phi, _ = driver.picard_elliptic(prob, phi_prev)
        a = assembly.assemble_weighted_stiffness(prob.S, phi_prev, cfg.params)
        res = (prob.rhs_phi - a @ phi.coeffs)[prob.S.free_mask]
        assert np.linalg.norm(res) <= 1e-9 * max(np.linalg.norm(prob.rhs_phi), 1.0)
