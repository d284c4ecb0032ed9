"""Decoupled fixed-point solve producing all seven discrete fields.

Stages, in the order they run:

1. Oseen sweeps on the Navier-Stokes saddle system (convecting velocity
   frozen at the previous iterate).
2. Picard sweeps on the nonlinear potential equation (coefficient frozen at
   the previous iterate). The seed matrix is the only one factored; each
   sweep runs CG preconditioned by that factor and started from the
   previous iterate.
3. Magnetic field recovery H = grad(phi) through the exact coefficient
   identity of the gradient inclusion matrix (so curl H vanishes to
   round-off).
4. Edge-space L2 projection of the magnetization and pressure-space
   projection of the magnetic pressure potential, each by Jacobi-
   preconditioned CG on its mass matrix.
5. Total pressure p = p_tilde + mu0 * psi, shifted to zero mean.

Stages 1 and 2 run one fixed-point loop, ``_fixed_point``, whose first step
from no iterate is the chain's seed: the Stokes solution, the plain Poisson
solution.

The potential chain and the flow chain are independent of each other; only
the recovery stage consumes both. The flow chain runs first so that the
seed factor, kept alive through the Picard sweeps, is allocated after the
flow chain's per-sweep factorizations and freed before recovery: in the
other order the heap fragments around it and the peak resident memory of a
study rises by up to 7%.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import assembly, fespace, linalg, material, mesh2d
from .fespace import FEField
from .material import MaterialParams

# element pairs: potential, edge, velocity, pressure
PAIRS = {
    "l0": ("P1", "NE0", "CR", "P0"),
    "l1": ("P2", "NE1", "P2", "P1"),
}


@dataclass
class FhdConfig:
    """One solve: mesh level, element pair, data source and iteration counts.

    Exactly one of ``case`` (manufactured solution object providing
    ``grad_phi``, ``u`` and ``f`` evaluators) or ``h_ext`` (applied magnetic
    field with H_e . n = 0 on the boundary) must be set; in external mode
    ``body_force`` optionally drives the flow and the velocity boundary
    values are zero.
    """

    n: int
    pair: str = "l0"
    params: MaterialParams = dc_field(default_factory=MaterialParams)
    picard_iters: int = 2
    oseen_iters: int = 2
    case: object | None = None
    h_ext: object | None = None
    body_force: object | None = None

    def __post_init__(self):
        if self.pair not in PAIRS:
            raise ValueError(f"unknown element pair {self.pair!r}")
        if self.picard_iters < 1 or self.oseen_iters < 1:
            raise ValueError("iteration counts must be >= 1")
        if (self.case is None) == (self.h_ext is None):
            raise ValueError("set exactly one of case or h_ext")


@dataclass
class FhdSolution:
    """All recovered discrete fields plus per-stage diagnostics."""

    phi: FEField
    H: FEField
    M: FEField
    u: FEField
    p_tilde: FEField
    psi: FEField
    p: FEField
    diagnostics: dict


class Problem:
    """One mesh level's spaces, matrices, data vectors and kept potential factor."""

    def __init__(self, cfg: FhdConfig):
        self.cfg = cfg
        s_fam, u_fam, v_fam, w_fam = PAIRS[cfg.pair]
        self.mesh = mesh2d.build_uniform_square(cfg.n)
        self.S = fespace.build_space(self.mesh, s_fam)
        self.U = fespace.build_space(self.mesh, u_fam)
        self.V = fespace.build_space(self.mesh, v_fam, components=2)
        self.W = fespace.build_space(self.mesh, w_fam)
        self.G = fespace.gradient_matrix(self.S, self.U)

        self.K1 = assembly.assemble_weighted_stiffness(self.S)  # alpha == 1
        # the potential chain's one factor per level: the Poisson seed's
        self.phi_factor = linalg.ReusedFactor()
        # the Stokes system, with this level's velocity load and boundary values
        self.saddle = assembly.assemble_stokes_blocks(self.V, self.W, cfg.params.eta)
        if cfg.case is not None:
            self.rhs_phi = assembly.elliptic_rhs_manufactured(
                self.S, cfg.case.grad_phi, cfg.params
            )
            f = cfg.case.f
            uex = fespace.interpolate_nodal(self.V, cfg.case.u)
            self.saddle.g = np.where(self.V.free_mask, 0.0, uex.coeffs)
        else:
            self.rhs_phi = assembly.elliptic_rhs_external(self.S, cfg.h_ext, cfg.params)
            f = cfg.body_force
        if f is not None:
            self.saddle.rhs_u = assembly.assemble_ns_rhs(self.V, f)

    def grad_norm_phi(self, coeffs) -> float:
        return float(np.sqrt(max(coeffs @ (self.K1 @ coeffs), 0.0)))

    def grad_norm_u(self, coeffs) -> float:
        visc_energy = coeffs @ fespace.componentwise(self.saddle.A, coeffs)
        return float(np.sqrt(max(visc_energy / self.cfg.params.eta, 0.0)))


def _fixed_point(step, start, iters: int, update):
    """``iters`` sweeps ``x, report = step(x)`` from ``start``, or from ``step(None)``.

    Returns the last iterate and ``{"reports", "updates"}``: every solve's
    report, and ``update(old, new)`` per sweep.
    """
    x, reports, updates = start, [], []
    if x is None:
        x, report = step(None)
        reports.append(report)
    for _ in range(iters):
        x_next, report = step(x)
        reports.append(report)
        updates.append(update(x, x_next))
        x = x_next
    return x, {"reports": reports, "updates": updates}


def picard_elliptic(prob: Problem, phi0: FEField | None = None):
    """Frozen-coefficient sweeps on the nonlinear potential equation.

    Runs ``picard_iters`` sweeps from ``phi0``, or from the Poisson seed
    (alpha == 1, same data and BC; its factor is kept) when it is None. Each
    sweep is a CG solve preconditioned by the problem's kept factor (the
    first sweep factors its own matrix when there is none) and started from
    the previous iterate. Returns ``(phi, info)`` with every solve's report
    and each sweep's H1-seminorm update.
    """
    cfg = prob.cfg
    free = prob.S.free_mask

    def step(phi):
        if phi is None:
            a_mat, x0 = prob.K1, None
        else:
            a_mat = assembly.assemble_weighted_stiffness(prob.S, phi, cfg.params)
            x0 = phi.coeffs[free]
        a_ff, b_f, expand = linalg.reduce_dirichlet(a_mat, prob.rhs_phi, prob.S)
        x, report = linalg.solve_spd(a_ff, b_f, prob.phi_factor, x0)
        return FEField(prob.S, expand(x)), report

    return _fixed_point(step, phi0, cfg.picard_iters,
                        lambda old, new: prob.grad_norm_phi(new.coeffs - old.coeffs))


def oseen_ns(prob: Problem, start: tuple[FEField, FEField] | None = None):
    """Oseen sweeps: convecting field frozen at the previous iterate.

    Runs ``oseen_iters`` sweeps from ``start = (u, p)``, or from the Stokes
    seed when it is None. Each sweep's Schur GMRES starts from the previous
    pressure. ``info`` is as in :func:`picard_elliptic`, with velocity updates.
    """
    rho = prob.cfg.params.rho

    def step(up):
        if up is None:
            sys, p0 = prob.saddle, None
        else:
            u, p = up
            conv = assembly.assemble_convection(prob.V, u, rho)
            oseen = prob.V.pattern().add(prob.saddle.A, conv)
            sys, p0 = replace(prob.saddle, A=oseen), p.coeffs
        u_coeffs, p_coeffs, report = linalg.solve_saddle(sys, p0=p0)
        return (FEField(prob.V, u_coeffs), FEField(prob.W, p_coeffs)), report

    (u, p), info = _fixed_point(step, start, prob.cfg.oseen_iters,
                                lambda old, new: prob.grad_norm_u(new[0].coeffs - old[0].coeffs))
    return u, p, info


def recover_fields(
    prob: Problem, phi: FEField, u: FEField, p_tilde: FEField
) -> FhdSolution:
    """Steps 3-5: magnetic field, magnetization, pressure potential, pressure.

    H rides the coefficient identity H = G phi (exactly curl-free). M and psi
    are L2 projections of M(H) and beta(|H|) - beta(0), whose loads and
    quadrature come from :mod:`assembly`: psi is the pressure potential
    relative to zero field. The constant beta(0) = Ms ln(gamma) / gamma
    would only be shifted out of p with its mean, and at small gamma it is
    large enough to swamp p_tilde in the sum. Every mass matrix is solved by
    Jacobi-preconditioned CG; the stage factors nothing.
    """
    params = prob.cfg.params
    reports = {}

    H = FEField(prob.U, prob.G @ phi.coeffs)

    mass_u = assembly.assemble_edge_mass(prob.U)
    rhs_m = assembly.assemble_edge_rhs(
        prob.U, (H, lambda vals: material.magnetization(vals, params))
    )
    m_coeffs, reports["M"] = linalg.solve_spd(mass_u, rhs_m, "jacobi")
    M = FEField(prob.U, m_coeffs)

    beta0 = material.beta(0.0, params)

    def psi_data(vals):
        return material.beta(np.sqrt((vals * vals).sum(axis=-1)), params) - beta0

    rhs_psi = assembly.assemble_scalar_rhs(prob.W, (H, psi_data))
    mass_w = assembly.assemble_scalar_mass(prob.W)
    psi_coeffs, reports["psi"] = linalg.solve_spd(mass_w, rhs_psi, "jacobi")
    psi = FEField(prob.W, psi_coeffs)

    p_coeffs = p_tilde.coeffs + params.mu0 * psi_coeffs
    volume = float(prob.saddle.mean.sum())
    p_coeffs = p_coeffs - (prob.saddle.mean @ p_coeffs) / volume
    p = FEField(prob.W, p_coeffs)

    diagnostics = {
        "recovery_reports": reports,
        "grad_phi_norm": prob.grad_norm_phi(phi.coeffs),
        "grad_u_norm": prob.grad_norm_u(u.coeffs),
    }
    return FhdSolution(
        phi=phi, H=H, M=M, u=u, p_tilde=p_tilde, psi=psi, p=p,
        diagnostics=diagnostics,
    )


class StageError(RuntimeError):
    """A solver failure tagged with the pipeline stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")


def solve_fhd(cfg: FhdConfig) -> FhdSolution:
    """Run the full five-step decoupled solve for one configuration.

    Load vectors without a finite 2-norm (overflowing material constants)
    stop the solve in stage ``setup``, before any solver sees them.
    ``diagnostics["potential"]``/``["flow"]`` hold each chain's ``info``, and
    ``diagnostics["timings"]`` the wall time of the set-up (the
    :class:`Problem` and the load check), potential, flow and recovery
    stages (``setup_s``, ``picard_s``, ``flow_s``, ``recovery_s``, seconds).
    """
    t_setup = time.perf_counter()
    prob = Problem(cfg)
    # every solver measures its residual against the load's 2-norm
    for name, load in (("rhs_phi", prob.rhs_phi), ("rhs_u", prob.saddle.rhs_u)):
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(load)
        if not np.isfinite(norm):
            cause = ValueError(f"load vector {name} is not finite (2-norm {norm})")
            raise StageError("setup", cause)
    t0 = time.perf_counter()
    try:
        u, p_tilde, ns_info = oseen_ns(prob)
    except linalg.SolverError as exc:
        raise StageError("navier-stokes", exc) from exc
    t1 = time.perf_counter()
    try:
        phi, phi_info = picard_elliptic(prob)
    except linalg.SolverError as exc:
        raise StageError("potential", exc) from exc
    prob.phi_factor.lu = None  # the seed factor lives through the Picard stage only
    t2 = time.perf_counter()
    try:
        sol = recover_fields(prob, phi, u, p_tilde)
    except linalg.SolverError as exc:
        raise StageError("recovery", exc) from exc
    sol.diagnostics["potential"] = phi_info
    sol.diagnostics["flow"] = ns_info
    sol.diagnostics["timings"] = {
        "setup_s": t0 - t_setup, "picard_s": t2 - t1, "flow_s": t1 - t0,
        "recovery_s": time.perf_counter() - t2,
    }
    return sol
