"""Acceptance suite: every exit criterion at its stated tolerance.

Each test appends one pass/fail line to the terminal summary (see
conftest.pytest_terminal_summary) in addition to its assertions.
"""

import math
import time

from conftest import record_acceptance
from ferrofem import assembly, cli, driver, fespace, verify
from ferrofem.driver import FhdConfig

# frozen reference values for the default study: relative errors of the
# lowest-order pair on N = 4..128 and the matching order row
REFERENCE_L0 = {
    "err_phi_h1": [0.3943, 0.2023, 0.1018, 0.0510, 0.0255, 0.0128],
    "err_H_hcurl": [0.3943, 0.2023, 0.1018, 0.0510, 0.0255, 0.0128],
    "err_M_l2": [0.3941, 0.2023, 0.1018, 0.0510, 0.0255, 0.0128],
    "err_u_h1h": [0.7424, 0.4385, 0.2352, 0.1207, 0.0609, 0.0305],
    "err_p_l2": [0.3083, 0.1524, 0.0717, 0.0342, 0.0167, 0.0083],
}
REFERENCE_L0_ORDERS = {
    "err_phi_h1": 0.9900,
    "err_H_hcurl": 0.9900,
    "err_M_l2": 0.9899,
    "err_u_h1h": 0.9207,
    "err_p_l2": 1.0439,
}
REL_TOL = {  # pressure gets extra slack for the mean-normalization convention
    "err_phi_h1": 0.10,
    "err_H_hcurl": 0.10,
    "err_M_l2": 0.10,
    "err_u_h1h": 0.10,
    "err_p_l2": 0.15,
}
ORDER_TOL = 0.10


def _criterion(num, label, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    record_acceptance(f"[{tag}] criterion {num} ({label}): {detail}")
    return passed


class TestCriterion1TableReproduction:
    def test_reference_errors_and_orders(self, l0_full_study):
        rep = l0_full_study
        assert [row.n for row in rep.rows] == [4, 8, 16, 32, 64, 128]
        worst = {}
        for col, refs in REFERENCE_L0.items():
            got = rep.column(col)
            rel = max(abs(g - r) / r for g, r in zip(got, refs))
            worst[col] = rel
            assert rel <= REL_TOL[col], f"{col}: worst relative deviation {rel:.3f}"
        order_gaps = {}
        for col, ref in REFERENCE_L0_ORDERS.items():
            gap = abs(rep.orders_lsq[col] - ref)
            order_gaps[col] = gap
            assert gap <= ORDER_TOL, f"{col}: order {rep.orders_lsq[col]:.4f} vs {ref}"
        assert rep.elapsed <= 600.0
        _criterion(
            1,
            "reference table reproduction",
            True,
            f"worst entry deviation {max(worst.values()) * 100:.2f}%, "
            f"worst order gap {max(order_gaps.values()):.4f}, "
            f"runtime {rep.elapsed:.0f}s",
        )


class TestCriterion2CurlConstraint:
    def test_curl_infinity_norm_every_level(self, l0_full_study):
        worst = max(row.curl_inf for row in l0_full_study.rows)
        ok = worst <= 1e-10
        ok_exact = worst <= 1e-12  # coefficient-identity recovery path
        _criterion(
            2,
            "exact curl-free constraint",
            ok and ok_exact,
            f"max |curl H_h| over levels = {worst:.2e}",
        )
        assert ok and ok_exact


class TestCriterion3SecondOrderRates:
    def test_l1_orders_at_least_1p9(self, l1_study):
        rep = l1_study
        orders = {col: rep.orders_lsq[col] for col in verify.ERROR_COLUMNS}
        ok = all(v >= 1.9 for v in orders.values())
        assert rep.elapsed <= 300.0
        _criterion(
            3,
            "second-order rates (higher-order pair)",
            ok,
            "orders "
            + ", ".join(f"{k.split('_')[1]}={v:.3f}" for k, v in orders.items())
            + f", runtime {rep.elapsed:.0f}s",
        )
        assert ok


class TestCriterion4PropertyBattery:
    def test_full_battery(self):
        t0 = time.time()
        results = verify.run_property_battery(seed=42)
        elapsed = time.time() - t0
        failed = [r.name for r in results if not r.passed]
        ok = not failed and elapsed <= 60.0
        _criterion(
            4,
            "property battery",
            ok,
            f"{len(results)} checks, failed: {failed or 'none'}, runtime {elapsed:.1f}s",
        )
        assert failed == []
        assert elapsed <= 60.0


def _discretization_errors(sol, case):
    """Absolute discretization errors in the same norms as the study columns."""
    norms = verify._error_norms(sol, case)
    return {name: norms[name][0] for name in verify.ERROR_COLUMNS}


def _solution_distance(a, b):
    """Norm distances between two solves on the same mesh, per error column."""
    k1 = assembly.assemble_weighted_stiffness(a.phi.space)
    mass_u = assembly.assemble_edge_mass(a.H.space)
    mass_w = assembly.assemble_scalar_mass(a.p.space)
    kv = assembly.assemble_stokes_blocks(a.u.space, a.p_tilde.space, 1.0).A
    mv = assembly.assemble_scalar_mass(a.u.space)

    def qnorm(mat, vec):
        # mat is a scalar block, applied to each component of vec
        return math.sqrt(max(float(vec @ fespace.componentwise(mat, vec)), 0.0))

    du = a.u.coeffs - b.u.coeffs
    return {
        "err_phi_h1": qnorm(k1, a.phi.coeffs - b.phi.coeffs),
        "err_H_hcurl": qnorm(mass_u, a.H.coeffs - b.H.coeffs),
        "err_M_l2": qnorm(mass_u, a.M.coeffs - b.M.coeffs),
        "err_u_h1h": math.hypot(qnorm(kv, du), qnorm(mv, du)),
        "err_p_l2": qnorm(mass_w, a.p.coeffs - b.p.coeffs),
    }


class TestCriterion5IterationSufficiency:
    def test_two_sweeps_within_5pct_of_discretization_error(self):
        case = verify.case_2d_l0()
        sol2 = driver.solve_fhd(
            FhdConfig(n=16, pair="l0", case=case, picard_iters=2, oseen_iters=2)
        )
        sol6 = driver.solve_fhd(
            FhdConfig(n=16, pair="l0", case=case, picard_iters=6, oseen_iters=6)
        )
        gaps = _solution_distance(sol2, sol6)
        errs = _discretization_errors(sol6, case)
        ratios = {k: gaps[k] / errs[k] for k in gaps}
        ok = all(v <= 0.05 for v in ratios.values())
        _criterion(
            5,
            "two fixed-point sweeps suffice",
            ok,
            "gap/error " + ", ".join(f"{k.split('_')[1]}={v:.1e}" for k, v in ratios.items()),
        )
        assert ok, ratios


class TestCriterion6Determinism:
    def test_default_run_bit_identical(self, tmp_path):
        outputs = []
        t0 = time.time()
        for tag in ("first", "second"):
            config = cli.RunConfig()
            assert cli.cmd_run(config, tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json") == 0
            outputs.append((tmp_path / f"{tag}.csv").read_bytes())
        lines = outputs[0].decode().strip().split("\n")
        assert len(lines) == 1 + 6 + 2  # header, six levels, two order footers
        ok = outputs[0] == outputs[1]
        _criterion(
            6,
            "bit-identical reruns (reference mode)",
            ok,
            f"two default runs, {len(outputs[0])} bytes each, "
            f"total {time.time() - t0:.0f}s",
        )
        assert ok
