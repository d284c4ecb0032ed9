"""Manufactured solutions, error norms, convergence studies, property battery.

The study machinery reproduces the shipped reference tables: relative errors
of the potential (H1 seminorm), magnetic field (H(curl) graph norm),
magnetization (L2), velocity (broken H1) and pressure (L2) on a doubling
sequence of uniform meshes, plus observed orders (pairwise and least-squares
fits of log-error against log-h).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly, driver, fespace, linalg, material, mesh2d, refelem
from .driver import FhdConfig
from .fespace import FEField
from .material import MaterialParams

ERROR_QUAD_DEGREE = 8
_DIV_GUARD = 1e-14

ERROR_COLUMNS = ("err_phi_h1", "err_H_hcurl", "err_M_l2", "err_u_h1h", "err_p_l2")


# ---------------------------------------------------------------------------
# manufactured cases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManufacturedCase:
    """Analytic fields of one verification problem on the unit square.

    All evaluators map an (n, 2) point array to values: scalars (n,),
    vectors (n, 2), matrices (n, 2, 2). The magnetic field is ``grad_phi``;
    the derived fields (potential flux, magnetization, pressure potential,
    flow forcing) are consistent with the governing equations by construction.
    """

    name: str
    params: MaterialParams
    phi: object
    grad_phi: object
    hess_phi: object
    u: object
    grad_u: object
    lap_u: object
    p: object
    grad_p: object

    def M(self, pts):
        return material.magnetization(self.grad_phi(pts), self.params)

    def psi(self, pts):
        h = self.grad_phi(pts)
        return material.beta(np.sqrt((h * h).sum(axis=-1)), self.params)

    def flux(self, pts):
        """Flux of the potential equation, alpha(|grad phi|) grad(phi)."""
        g = self.grad_phi(pts)
        return material.alpha(np.sqrt((g * g).sum(axis=-1)), self.params)[:, None] * g

    def p_tilde(self, pts):
        return self.p(pts) - self.params.mu0 * self.psi(pts)

    def grad_psi(self, pts):
        # grad beta(|H|) = Hess(phi) @ M for curl-free H
        return np.einsum("nij,nj->ni", self.hess_phi(pts), self.M(pts))

    def f(self, pts):
        """Flow forcing from the strong momentum equation."""
        prm = self.params
        conv = np.einsum("nij,nj->ni", self.grad_u(pts), self.u(pts))
        return (
            prm.rho * conv
            - prm.eta * self.lap_u(pts)
            + self.grad_p(pts)
            - prm.mu0 * self.grad_psi(pts)
        )


def _flow_fields():
    pi = np.pi

    def u(pts):
        return np.stack([np.sin(pi * pts[:, 1]), np.sin(pi * pts[:, 0])], axis=1)

    def grad_u(pts):
        n = pts.shape[0]
        g = np.zeros((n, 2, 2))
        g[:, 0, 1] = pi * np.cos(pi * pts[:, 1])
        g[:, 1, 0] = pi * np.cos(pi * pts[:, 0])
        return g

    def lap_u(pts):
        return -(pi**2) * np.stack(
            [np.sin(pi * pts[:, 1]), np.sin(pi * pts[:, 0])], axis=1
        )

    def p(pts):
        x, y = pts[:, 0], pts[:, 1]
        return 60.0 * x * x * y - 20.0 * y**3 - 5.0

    def grad_p(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack([120.0 * x * y, 60.0 * x * x - 60.0 * y * y], axis=1)

    return u, grad_u, lap_u, p, grad_p


def case_2d_l0(params: MaterialParams | None = None) -> ManufacturedCase:
    """Lowest-order verification case: polynomial potential, unit parameters by default."""
    u, grad_u, lap_u, p, grad_p = _flow_fields()

    def phi(pts):
        x, y = pts[:, 0], pts[:, 1]
        return (x * x - x) * (y * y - y)

    def grad_phi(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack(
            [(2.0 * x - 1.0) * (y * y - y), (x * x - x) * (2.0 * y - 1.0)], axis=1
        )

    def hess_phi(pts):
        x, y = pts[:, 0], pts[:, 1]
        out = np.empty((pts.shape[0], 2, 2))
        out[:, 0, 0] = 2.0 * (y * y - y)
        out[:, 1, 1] = 2.0 * (x * x - x)
        out[:, 0, 1] = out[:, 1, 0] = (2.0 * x - 1.0) * (2.0 * y - 1.0)
        return out

    return ManufacturedCase(
        name="l0-unit-square",
        params=params or MaterialParams(),
        phi=phi,
        grad_phi=grad_phi,
        hess_phi=hess_phi,
        u=u,
        grad_u=grad_u,
        lap_u=lap_u,
        p=p,
        grad_p=grad_p,
    )


def case_2d_l1(params: MaterialParams | None = None) -> ManufacturedCase:
    """Smooth higher-order case: trigonometric potential, same flow family.

    The potential amplitude keeps |grad phi| of the same size as in the
    lowest-order case so the magnetization law is exercised away from both
    of its asymptotes. Unit parameters by default.
    """
    u, grad_u, lap_u, p, grad_p = _flow_fields()
    pi = np.pi
    scale = 0.1  # potential amplitude

    def phi(pts):
        return scale * np.sin(pi * pts[:, 0]) * np.sin(pi * pts[:, 1])

    def grad_phi(pts):
        x, y = pts[:, 0], pts[:, 1]
        return scale * pi * np.stack(
            [np.cos(pi * x) * np.sin(pi * y), np.sin(pi * x) * np.cos(pi * y)], axis=1
        )

    def hess_phi(pts):
        x, y = pts[:, 0], pts[:, 1]
        ss = np.sin(pi * x) * np.sin(pi * y)
        cc = np.cos(pi * x) * np.cos(pi * y)
        out = np.empty((pts.shape[0], 2, 2))
        out[:, 0, 0] = out[:, 1, 1] = -scale * pi * pi * ss
        out[:, 0, 1] = out[:, 1, 0] = scale * pi * pi * cc
        return out

    return ManufacturedCase(
        name="l1-unit-square",
        params=params or MaterialParams(),
        phi=phi,
        grad_phi=grad_phi,
        hess_phi=hess_phi,
        u=u,
        grad_u=grad_u,
        lap_u=lap_u,
        p=p,
        grad_p=grad_p,
    )


CASES = {"l0": case_2d_l0, "l1": case_2d_l1}


# ---------------------------------------------------------------------------
# error norms
# ---------------------------------------------------------------------------


def _quadrature(mesh):
    """The error rule on one mesh: ``(rule, points, w)``.

    ``points`` are the physical quadrature points as an (nt * nq, 2) array,
    ``w`` (nt, nq) the rule weights times the element Jacobian determinants.
    """
    rule = refelem.quadrature(ERROR_QUAD_DEGREE)
    points = fespace.quad_points(mesh, rule).reshape(-1, 2)
    return rule, points, rule.weights[None, :] * mesh.det[:, None]


def _relative(err, ref):
    """``err / ref``, or ``err`` itself when the exact norm vanishes."""
    return err / ref if ref >= _DIV_GUARD else err


def _squares(field: FEField, exact, part, quad, evals=None):
    """Squared error and squared exact norm of one field over ``quad``'s elements.

    ``exact`` is an evaluator on an (n, 2) point array, or holds its values at
    the rule's points already; ``evals`` is the field's ``eval_field`` output
    at that rule, evaluated here when not given.
    """
    rule, points, w = quad
    vals, second = evals or fespace.eval_field(field, fespace.tabulate(field.space, rule))
    terms = [(second if part == "grad" else vals, exact)]
    if part == "hcurl":
        terms.append((second, np.zeros(second.shape)))
    err2 = ref2 = 0.0
    for approx, ex in terms:
        ex = np.asarray(ex(points) if callable(ex) else ex).reshape(approx.shape)
        diff = (approx - ex).reshape(*w.shape, -1)  # pointwise squared magnitudes
        ex = ex.reshape(diff.shape)  # summed by einsum, with no squared temporary
        err2 += float(np.einsum("tq,tqk,tqk->", w, diff, diff))
        ref2 += float(np.einsum("tq,tqk,tqk->", w, ex, ex))
    return err2, ref2


def _on(space, field: FEField) -> FEField:
    """``field`` on ``space``, a restriction of its own space (itself for one block)."""
    return field if space is field.space else FEField(space, field.coeffs)


def _block_norms(blocks) -> dict:
    """``(err, ref)`` per key from ``blocks``, one ``{key: (err^2, ref^2)}`` per element block."""
    sums = {}
    for block in blocks:
        for key, (e2, r2) in block.items():
            err2, ref2 = sums.get(key, (0.0, 0.0))
            sums[key] = err2 + e2, ref2 + r2
    return {key: (math.sqrt(max(e2, 0.0)), math.sqrt(max(r2, 0.0)))
            for key, (e2, r2) in sums.items()}


def field_error(field: FEField, exact, part: str = "value"):
    """Error and exact norm ``(err, ref)`` of one field in one norm.

    ``part`` picks the norm: "value" is the L2 norm, "grad" the H1 seminorm
    (element-wise for two-component fields), "hcurl" the H(curl) graph norm
    of an edge field against a curl-free exact field (every H here is a
    gradient). ``exact`` is an evaluator on an (n, 2) point array.
    """
    return _block_norms(
        {part: _squares(_on(s, field), exact, part, _quadrature(s.mesh))}
        for (s,) in fespace.element_blocks(field.space)
    )[part]


def _error_squares(sol: driver.FhdSolution, case: ManufacturedCase):
    """Per element block, the squares of every error column's parts.

    One point set and one tabulation per distinct space (H and M share
    theirs); each discrete and each exact field is evaluated once, grad(phi)
    serving the phi, H and M columns.
    """
    fields = sol.phi, sol.H, sol.M, sol.p, sol.u
    shared = sol.M.space is sol.H.space
    for spaces in fespace.element_blocks(*(f.space for f in fields)):
        phi, H, M, p, u = (_on(s, f) for s, f in zip(spaces, fields))
        quad = rule, points, _ = _quadrature(phi.space.mesh)
        grad_phi = case.grad_phi(points)
        tab = fespace.tabulate(H.space, rule)
        u_evals = fespace.eval_field(u, fespace.tabulate(u.space, rule))
        yield {
            "err_phi_h1": _squares(phi, grad_phi, "grad", quad),
            "err_H_hcurl": _squares(H, grad_phi, "hcurl", quad, fespace.eval_field(H, tab)),
            "err_M_l2": _squares(M, material.magnetization(grad_phi, case.params), "value",
                                 quad, fespace.eval_field(M, tab) if shared else None),
            "err_p_l2": _squares(p, case.p, "value", quad),
            "u_l2": _squares(u, case.u, "value", quad, u_evals),
            "u_semi": _squares(u, case.grad_u, "grad", quad, u_evals),
        }


def _error_norms(sol: driver.FhdSolution, case: ManufacturedCase) -> dict:
    """``(err, ref)`` of every error column: the error and the exact norm.

    The squares are summed over element blocks (:func:`_error_squares`);
    the velocity column is the broken H1 norm, L2 plus element-wise seminorm.
    """
    norms = _block_norms(_error_squares(sol, case))
    (l2, ref_l2), (semi, ref_semi) = norms.pop("u_l2"), norms.pop("u_semi")
    norms["err_u_h1h"] = math.hypot(semi, l2), math.hypot(ref_l2, ref_semi)
    return norms


def measure_errors(sol: driver.FhdSolution, case: ManufacturedCase) -> dict:
    """Relative error columns of one solve against the exact fields.

    The velocity column is the broken H1 norm (L2 plus element-wise
    seminorm) relative to the full H1 norm of the exact velocity; the
    magnetic-field column is the H(curl) graph norm, which collapses to the
    L2 norm because both curls vanish identically. A column whose exact norm
    vanishes stays absolute.
    """
    return {name: _relative(*norms) for name, norms in _error_norms(sol, case).items()}


def curl_inf(field: FEField) -> float:
    """Max-norm of the (element-wise constant) curl of an edge field."""
    rule = refelem.quadrature(1)
    _, curls = fespace.eval_field(field, fespace.tabulate(field.space, rule))
    return float(np.abs(curls).max())


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


def convergence_orders(errors, hs):
    """Pairwise observed orders and the least-squares slope of log e vs log h."""
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if errors.shape != hs.shape or errors.size < 2:
        raise ValueError("need matching error/h sequences of length >= 2")
    if np.any(errors <= 0.0) or np.any(hs <= 0.0):
        raise ValueError("errors and mesh sizes must be positive")
    pairwise = [float(v) for v in np.log(errors[:-1] / errors[1:]) / np.log(hs[:-1] / hs[1:])]
    slope = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
    return pairwise, slope


@dataclass
class StudyRow:
    n: int
    h: float
    errors: dict
    curl_inf: float
    diagnostics: dict = dc_field(default_factory=dict)
    timings: dict = dc_field(default_factory=dict)  # seconds; not reproducible


@dataclass
class StudyReport:
    pair: str
    rows: list
    orders_pairwise: dict = dc_field(default_factory=dict)
    orders_lsq: dict = dc_field(default_factory=dict)

    def column(self, name):
        return [row.errors[name] for row in self.rows]

    def hs(self):
        return [row.h for row in self.rows]

    def finalize(self):
        if len(self.rows) >= 2:
            hs = self.hs()
            for name in ERROR_COLUMNS:
                errors = self.column(name)
                # an error that underflowed to zero has no log, so no order
                ok = all(e > 0.0 for e in errors)
                pw, lsq = convergence_orders(errors, hs) if ok else (None, None)
                self.orders_pairwise[name] = pw
                self.orders_lsq[name] = lsq
        return self


class StudyError(RuntimeError):
    """Raised when a study level fails; carries the partial report."""

    def __init__(self, report: StudyReport, n: int, cause: Exception):
        super().__init__(f"study failed at N={n}: {cause}")
        self.report = report
        self.failed_level = n


def _solve_level(pair, n, params, picard_iters, oseen_iters) -> StudyRow:
    case = CASES[pair](params)
    cfg = FhdConfig(n=n, case=case, pair=pair, picard_iters=picard_iters,
                    oseen_iters=oseen_iters)
    t0 = time.perf_counter()
    sol = driver.solve_fhd(cfg)
    t1 = time.perf_counter()
    errors = measure_errors(sol, case)
    t2 = time.perf_counter()
    chains = {c: sol.diagnostics[c]["reports"] for c in ("potential", "flow")}
    diagnostics = {
        "grad_phi_norm": sol.diagnostics["grad_phi_norm"],
        "grad_u_norm": sol.diagnostics["grad_u_norm"],
        "sweep_updates": {c: sol.diagnostics[c]["updates"] for c in chains},
    }
    recovery = sol.diagnostics["recovery_reports"]
    for key, attr in (
        ("solve_residuals", "residual_norm"),
        ("solve_iterations", "iterations"),
        ("solve_fill", "fill"),
    ):
        diagnostics[key] = {c: [getattr(r, attr) for r in rs] for c, rs in chains.items()}
        if attr != "fill":  # recovery factors nothing
            diagnostics[key]["recovery"] = {k: getattr(r, attr) for k, r in recovery.items()}
    return StudyRow(
        n=n,
        h=mesh2d.mesh_size(sol.phi.space.mesh),
        errors=errors,
        curl_inf=curl_inf(sol.H),
        diagnostics=diagnostics,
        timings={
            "solve_s": t1 - t0, "errors_s": t2 - t1, **sol.diagnostics["timings"],
        },
    )


def run_convergence_study(
    pair: str,
    levels,
    params: MaterialParams | None = None,
    picard_iters: int = 2,
    oseen_iters: int = 2,
) -> StudyReport:
    """One full solve per mesh level plus error norms and observed orders."""
    levels = list(levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly ascending")
    report = StudyReport(pair=pair, rows=[])
    for n in levels:
        try:
            report.rows.append(_solve_level(pair, n, params, picard_iters, oseen_iters))
        except driver.StageError as exc:
            raise StudyError(report.finalize(), n, exc) from exc
    return report.finalize()


# ---------------------------------------------------------------------------
# property battery
# ---------------------------------------------------------------------------


# the battery's sizes; like the inf-sup level window, part of the criteria
PROPERTY_N = 8  # mesh of the form-bound, skew and stability checks
PROPERTY_SAMPLES = 100  # random fields (form bounds) and vector pairs (skew)
COMMUTING_N = 5
INFSUP_LEVELS = (4, 8, 16)
CR_KERNEL_N = 4


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail):
    return PropertyResult(name, bool(passed), detail)


def check_material_bounds() -> list:
    """Langevin-coefficient bounds: 1 < alpha <= 1 + gamma*Ms/3, 0 < beta' <= Ms."""
    params = MaterialParams()
    xs = np.logspace(-12, 6, 1000)
    a = material.alpha(xs, params)
    upper = 1.0 + params.gamma * params.Ms / 3.0
    res = [
        _result(
            "alpha-bounds",
            np.all(a > 1.0) and np.all(a <= upper + 1e-12),
            f"alpha in ({a.min():.6g}, {a.max():.6g}], sup {upper:.6g}",
        ),
        _result(
            "alpha-sup-at-zero",
            abs(a.max() - upper) <= 1e-6 * upper,
            f"max alpha {a.max():.9g} vs limit {upper:.9g}",
        ),
    ]
    bp = material.beta_prime_fd(xs, params)
    res.append(
        _result(
            "beta-derivative-bounds",
            np.all(bp > 0.0) and np.all(bp <= params.Ms + 1e-8),
            f"beta' in ({bp.min():.3g}, {bp.max():.9g}], Ms {params.Ms}",
        )
    )
    return res


def check_branch_crossovers() -> list:
    """The material law's branches match the closed forms across both switches.

    The two windows straddle the series switch (y = 1e-2) and the
    exp-identity switch (y = 30). There the closed forms coth y - 1/y and
    ln(sinh y / y) are accurate to ~3e-14, so a wrong branch shows as a gap.
    """
    params = MaterialParams()  # gamma = Ms = 1: beta(y) = ln(sinh y / y)
    ys = np.concatenate([np.linspace(0.5e-2, 2e-2, 41), np.linspace(25.0, 35.0, 41)])
    gap = max(
        np.abs(material.langevin(ys) - (1.0 / np.tanh(ys) - 1.0 / ys)).max(),
        np.abs(material.beta(ys, params) - np.log(np.sinh(ys) / ys)).max(),
    )
    return [_result("branch-crossover", gap <= 1e-12, f"max branch gap {gap:.3e}")]


def check_form_bounds(seed: int = 42) -> list:
    """Coercivity/continuity of the weighted form on random discrete fields."""
    rng = np.random.default_rng(seed)
    params = MaterialParams()
    mesh = mesh2d.build_uniform_square(PROPERTY_N)
    s = fespace.build_space(mesh, "P1")
    k1 = assembly.assemble_weighted_stiffness(s)
    c1 = 1.0 + params.gamma * params.Ms / 3.0
    coercive = True
    continuous = True
    worst_c, worst_b = 0.0, np.inf
    for _ in range(PROPERTY_SAMPLES):
        w = FEField(s, rng.standard_normal(s.n_dofs))
        a_w = assembly.assemble_weighted_stiffness(s, w, params)
        x = rng.standard_normal(s.n_dofs)
        tau = rng.standard_normal(s.n_dofs)
        ref = float(x @ (k1 @ x))
        val = float(x @ (a_w @ x))
        coercive &= val >= ref * (1.0 - 1e-12)
        worst_b = min(worst_b, val / max(ref, 1e-300))
        bound = c1 * math.sqrt(max(ref, 0.0)) * math.sqrt(max(tau @ (k1 @ tau), 0.0))
        val2 = abs(float(x @ (a_w @ tau)))
        continuous &= val2 <= bound * (1.0 + 1e-12)
        worst_c = max(worst_c, val2 / max(bound, 1e-300))
    return [
        _result("form-coercivity", coercive, f"min a(w;x,x)/|x|^2 = {worst_b:.12f}"),
        _result("form-continuity", continuous, f"max |a|/(C1 |x||tau|) = {worst_c:.12f}"),
    ]


def check_convection_skew(seed: int = 42) -> list:
    """Exact skew-symmetry of the convection matrix and b(w; v, v) = 0."""
    rng = np.random.default_rng(seed)
    mesh = mesh2d.build_uniform_square(PROPERTY_N)
    v_space = fespace.build_space(mesh, "CR", components=2)
    worst_sym, worst_diag = 0.0, 0.0
    for _ in range(10):
        w = FEField(v_space, rng.standard_normal(v_space.n_dofs))
        nmat = assembly.assemble_convection(v_space, w, rho=1.0)
        scale = max(abs(nmat).max(), 1.0)
        asym = abs(nmat + nmat.T)
        worst_sym = max(worst_sym, (asym.max() / scale) if asym.nnz else 0.0)
        for _ in range(PROPERTY_SAMPLES // 10):
            v = rng.standard_normal(v_space.n_dofs)
            u = rng.standard_normal(v_space.n_dofs)
            nv = fespace.componentwise(nmat, v)
            worst_diag = max(worst_diag, abs(float(v @ nv)) / (scale * float(v @ v)))
            lhs = float(v @ fespace.componentwise(nmat, u))
            rhs = -float(u @ nv)
            worst_sym = max(worst_sym, abs(lhs - rhs) / max(scale * abs(u @ v), 1.0))
    ok = worst_sym <= 1e-13 and worst_diag <= 1e-13
    return [
        _result(
            "convection-skew", ok, f"asym {worst_sym:.2e}, b(w;v,v) {worst_diag:.2e}"
        )
    ]


def project_gradient(phi: FEField, edge_space: fespace.FESpace) -> FEField:
    """Edge-mass L2 projection of grad(phi) by Jacobi CG (the mass route to H)."""
    mass = assembly.assemble_edge_mass(edge_space)
    rhs = assembly.assemble_edge_rhs(edge_space, (phi, None))
    coeffs, _ = linalg.solve_spd(mass, rhs, "jacobi")
    return FEField(edge_space, coeffs)


def check_commuting_diagram(seed: int = 42) -> list:
    """Edge interpolation, inclusion and projection of gradients match G phi."""
    rng = np.random.default_rng(seed)
    mesh = mesh2d.build_uniform_square(COMMUTING_N)
    res = []
    # random cubic polynomial: exact for both interpolation quadratures
    c = rng.standard_normal(10)

    def f(pts):
        x, y = pts[:, 0], pts[:, 1]
        return (
            c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y
            + c[6] * x**3 + c[7] * x * x * y + c[8] * x * y * y + c[9] * y**3
        )

    def grad_f(pts):
        x, y = pts[:, 0], pts[:, 1]
        gx = c[1] + 2 * c[3] * x + c[4] * y + 3 * c[6] * x * x + 2 * c[7] * x * y + c[8] * y * y
        gy = c[2] + c[4] * x + 2 * c[5] * y + c[7] * x * x + 2 * c[8] * x * y + 3 * c[9] * y * y
        return np.stack([gx, gy], axis=1)

    for s_fam, u_fam, _, _ in driver.PAIRS.values():
        s = fespace.build_space(mesh, s_fam)
        u = fespace.build_space(mesh, u_fam)
        g = fespace.gradient_matrix(s, u)
        lhs = fespace.interpolate_edge(u, grad_f).coeffs
        rhs = g @ fespace.interpolate_nodal(s, f).coeffs
        gap = np.abs(lhs - rhs).max()
        res.append(
            _result(f"commuting-diagram-{s_fam}-{u_fam}", gap <= 1e-12, f"gap {gap:.2e}")
        )
        # pointwise identity of the gradient inclusion for random coefficients
        phi = FEField(s, rng.standard_normal(s.n_dofs))
        h = FEField(u, g @ phi.coeffs)
        rule = refelem.quadrature(4)
        _, gp = fespace.eval_field(phi, fespace.tabulate(s, rule))
        hv, _ = fespace.eval_field(h, fespace.tabulate(u, rule))
        gap2 = np.abs(hv - gp).max() / max(np.abs(gp).max(), 1.0)
        res.append(
            _result(f"gradient-inclusion-{s_fam}-{u_fam}", gap2 <= 1e-12, f"gap {gap2:.2e}")
        )
        proj = project_gradient(phi, u).coeffs
        gap3 = np.abs(proj - h.coeffs).max() / np.abs(h.coeffs).max()
        res.append(
            _result(f"gradient-projection-{s_fam}-{u_fam}", gap3 <= 1e-9, f"gap {gap3:.2e}")
        )
    return res


def infsup_constant(pair: str, n: int) -> float:
    """Numerical inf-sup constant of the velocity/pressure pair at level n.

    beta^2 is the smallest nonzero eigenvalue of S p = lam Mp p with
    S = sum_c B_c X^-1 B_c' (Chapelle & Bathe 1993), X = K + M the free
    scalar velocity Gram matrix and B_c the divergence columns of velocity
    component c. With Mp = R R', this is the standard problem
    C y = lam y, C = R^-1 S R^-T, y = R' p, in pressure space. Shift-invert
    Lanczos on it (Lehoucq, Sorensen & Yang 1998, section 3.2) needs only
    (C - sigma I)^-1 = R' (S - sigma Mp)^-1 R, and (S - sigma Mp)^-1 f is the
    pressure part of the solve with the sparse symmetric pencil

        [[-X, 0, -B1'], [0, -X, -B2'], [-B1, -B2, -sigma Mp]]

    and right-hand side (0, 0, f), since its velocity rows give
    u_c = -X^-1 B_c' p. The solve takes the two eigenvalues nearest a fixed
    negative shift: since every eigenvalue is >= 0, these are the
    hydrostatic zero (constant pressure) and beta^2. The hydrostatic Ritz
    value must be zero to round-off, else SolverError is raised.
    """
    _, _, v_fam, w_fam = driver.PAIRS[pair]
    mesh = mesh2d.build_uniform_square(n)
    v = fespace.build_space(mesh, v_fam, components=2)
    w = fespace.build_space(mesh, w_fam)
    sys = assembly.assemble_stokes_blocks(v, w, eta=1.0)
    pattern = v.pattern()
    # -X without the entries of A + M that are exactly zero (CR on right
    # triangles), as a sparse sum would drop them: kept, they change the
    # minimum-degree order and add fill (l0 N=16: 49k -> 61k entries)
    neg_x = -pattern.restrict(pattern.add(sys.A, assembly.assemble_scalar_mass(v)))
    neg_x.eliminate_zeros()
    b1, b2 = sys.B_free[:, : neg_x.shape[0]], sys.B_free[:, neg_x.shape[0] :]
    mp = assembly.assemble_scalar_mass(w)
    # sigma < 0: every eigenvalue is >= 0, so the two nearest sigma are always
    # the hydrostatic 0 and beta^2 (sigma = +0.1 at l1 N=16 gives beta^2 and
    # the next one, 0.13355 and 0.13408); and the pencil is symmetric
    # quasi-definite, so it is factored once, by linalg.factor (eigsh's own
    # factor, COLAMD with partial pivoting, holds 357k entries at l1 N=16
    # against 219k here)
    sigma = -0.05
    shifted = sp.bmat(
        [[neg_x, None, -b1.T], [None, neg_x, -b2.T], [-b1, -b2, -sigma * mp]], format="csc"
    )
    lu = linalg.factor(shifted)
    # linalg.factor does not pivot and orders symmetrically, so Mp's factor
    # is U = D L' with perm_r == perm_c, and R = (L D^1/2)[perm_r]
    mp_lu = linalg.factor(mp)
    r = (mp_lu.L @ sp.diags(np.sqrt(mp_lu.U.diagonal())))[mp_lu.perm_r].tocsr()
    r_t = r.T.tocsr()
    n_p = mp.shape[0]
    rhs = np.zeros(shifted.shape[0])

    def shift_invert(y):  # R' (S - sigma Mp)^-1 R y
        rhs[-n_p:] = r @ y
        return r_t @ lu.solve(rhs)[-n_p:]

    opinv = spla.LinearOperator(mp.shape, shift_invert, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n_p)  # ARPACK's default is random
    # scipy's default of 20 Lanczos vectors breaks down where the pressure
    # space has fewer dofs (N < 4)
    ncv = min(20, n_p - 1)
    # with OPinv and no M, eigsh reads only the shape and dtype of its A
    lam_min, lam_max = sorted(
        spla.eigsh(opinv, k=2, M=None, sigma=sigma, v0=v0, ncv=ncv, OPinv=opinv,
                   return_eigenvectors=False)
    )
    if abs(lam_min) > 1e-10 * lam_max:
        raise linalg.SolverError(
            f"N={n}: hydrostatic eigenvalue {lam_min:.3e} not zero beside {lam_max:.3e}"
        )
    return float(np.sqrt(lam_max))


def check_infsup() -> list:
    """Inf-sup constants stay bounded below under refinement.

    A degenerate pair loses a constant factor per refinement (beta ~ h^s);
    a stable pair settles, with shrinking per-level drops. The check demands
    a drop of at most 10% on the finest pair and non-increasing drops across
    the window, which tolerates the pre-asymptotic transient of the
    nonconforming pair on the coarsest mesh (beta_4..32 = 0.657, 0.577,
    0.528, 0.499, settling near 0.50).
    """
    res = []
    for pair in driver.PAIRS:
        try:
            betas = [infsup_constant(pair, n) for n in INFSUP_LEVELS]
        except linalg.SolverError as exc:
            res.append(_result(f"inf-sup-{pair}", False, str(exc)))
            continue
        drops = [1.0 - b2 / b1 for b1, b2 in zip(betas, betas[1:])]
        ok = drops[-1] <= 0.10 and all(
            d2 <= d1 + 1e-9 for d1, d2 in zip(drops, drops[1:])
        )
        res.append(
            _result(
                f"inf-sup-{pair}",
                ok,
                "beta = "
                + ", ".join(f"{b:.6f}" for b in betas)
                + "; drops "
                + ", ".join(f"{100 * d:.1f}%" for d in drops),
            )
        )
    return res


def check_stability_bounds() -> list:
    """Discrete energy bounds of the two solve chains under an applied field.

    The data is an applied field H_e (the flux H_e / mu0) and a body force,
    with zero boundary velocity. Each chain starts from its seed and then
    advances one sweep per call on one problem, so the seed factor and the
    pressure warm start carry over.
    """
    res = []
    params = MaterialParams(mu0=2.0, Ms=1.5, gamma=1.0, rho=1.0, eta=0.7)
    n_sweeps = 3

    def h_ext(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack(
            [x * (1 - x) * np.cos(np.pi * y), y * (1 - y) * np.cos(np.pi * x)], axis=1
        )

    def body_force(pts):
        return np.stack([np.sin(np.pi * pts[:, 1]), np.sin(np.pi * pts[:, 0])], axis=1)

    data = SimpleNamespace(params=params, flux=lambda pts: h_ext(pts) / params.mu0,
                           u=lambda pts: np.zeros((len(pts), 2)), f=body_force)
    prob = driver.Problem(FhdConfig(n=PROPERTY_N, case=data, picard_iters=1, oseen_iters=1))
    he_norm = field_error(prob.U.zero_field(), h_ext)[1]  # L2 norm of H_e

    phi = None  # the first call solves the seed, then one sweep
    ok_phi = True
    worst = 0.0
    for _ in range(n_sweeps):
        phi, _ = driver.picard_elliptic(prob, phi)
        ratio = prob.grad_norm_phi(phi.coeffs) / (he_norm / params.mu0)
        worst = max(worst, ratio)
        ok_phi &= ratio <= 1.0 + 1e-10
    res.append(
        _result(
            "stability-potential", ok_phi, f"max |grad phi| mu0/|H_e| = {worst:.6f}"
        )
    )

    start = None
    ok_u = True
    worst_u = 0.0
    for _ in range(n_sweeps):
        u, p, _ = driver.oseen_ns(prob, start)
        start = (u, p)
        energy = params.eta * prob.grad_norm_u(u.coeffs) ** 2
        work = float(prob.saddle.rhs_u @ u.coeffs)
        worst_u = max(worst_u, energy / max(work, 1e-300))
        ok_u &= energy <= work * (1.0 + 1e-10)
    res.append(
        _result(
            "stability-velocity-energy", ok_u, f"max eta|grad u|^2/(f,u) = {worst_u:.12f}"
        )
    )
    return res


def check_cr_kernel() -> list:
    """Broken H1 seminorm is a norm on the zero-trace CR space."""
    mesh = mesh2d.build_uniform_square(CR_KERNEL_N)
    v = fespace.build_space(mesh, "CR", components=2)
    k = assembly.assemble_stokes_blocks(v, fespace.build_space(mesh, "P0"), 1.0).A
    # the vector seminorm is the scalar one per component
    lam_min = float(np.linalg.eigvalsh(v.pattern().restrict(k).toarray())[0])
    return [
        _result("cr-seminorm-kernel", lam_min > 1e-12, f"lambda_min {lam_min:.3e}")
    ]


def run_property_battery(seed: int = 42) -> list:
    """The full invariant battery; each entry prints one pass/fail line."""
    return [
        *check_material_bounds(),
        *check_branch_crossovers(),
        *check_form_bounds(seed),
        *check_convection_skew(seed),
        *check_commuting_diagram(seed),
        *check_infsup(),
        *check_stability_bounds(),
        *check_cr_kernel(),
    ]
