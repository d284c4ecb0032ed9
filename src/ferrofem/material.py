"""Langevin magnetization law and the derived diffusion/pressure coefficients.

The magnetization of the fluid is M = Ms * L(gamma*H) * H/|H| with the
Langevin function L(y) = coth(y) - 1/y. Everything downstream needs the two
scalar functions

    alpha(x) = 1 + Ms/x * L(gamma*x)      (nonlinear diffusion coefficient)
    beta(x)  = Ms/gamma * ln(sinh(gamma*x)/x)   (magnetic pressure potential)

both of which are delicate near 0 (cancellation) and for large arguments
(sinh overflow). All functions accept scalars or arrays and are branch-wise
stable: a truncated series below y = 1e-2 and exp-based identities above
y = 30 keep the two branches consistent to ~1e-14 at both crossovers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# series branch below, closed form above; chosen so both branches carry
# absolute error well under 1e-12 at the switch
_SMALL = 1e-2
_LARGE = 30.0
# e^{-2y} is 0 in double precision beyond y ~ 372.6; the large branches clamp
# y here first, so that -2y cannot overflow for y near the largest double
_EXP_ZERO = 400.0


@dataclass(frozen=True)
class MaterialParams:
    """Physical constants of the model.

    ``gamma`` is tied to the initial susceptibility by gamma = 3*chi0/Ms;
    give either ``chi0`` or ``gamma`` (or consistent values of both). With
    neither, gamma = 1.
    """

    mu0: float = 1.0
    Ms: float = 1.0
    gamma: float = field(default=None)  # type: ignore[assignment]
    chi0: float = field(default=None)  # type: ignore[assignment]
    rho: float = 1.0
    eta: float = 1.0

    def __post_init__(self):
        def check_positive(names):
            for name in names:
                v = getattr(self, name)
                if v is not None and not (np.isfinite(v) and v > 0.0):
                    raise ValueError(f"{name} must be strictly positive, got {v}")

        # the given values first, so that an error names one the user set
        # rather than gamma or chi0 derived from it
        check_positive(("mu0", "Ms", "gamma", "chi0", "rho", "eta"))
        if self.gamma is None:
            gamma = 1.0 if self.chi0 is None else 3.0 * self.chi0 / self.Ms
            object.__setattr__(self, "gamma", gamma)
        if self.chi0 is None:
            object.__setattr__(self, "chi0", self.gamma * self.Ms / 3.0)
        check_positive(("gamma", "chi0"))  # a derived value can overflow or underflow
        if abs(self.gamma - 3.0 * self.chi0 / self.Ms) > 1e-12 * max(1.0, self.gamma):
            raise ValueError(
                f"inconsistent parameters: gamma={self.gamma} but 3*chi0/Ms="
                f"{3.0 * self.chi0 / self.Ms}"
            )
        # the recovery subtracts beta(0), which overflows below gamma ~ 4e-306 at Ms = 1
        with np.errstate(over="ignore", invalid="ignore"):
            beta0 = beta(0.0, self)
        if not np.isfinite(beta0):
            raise ValueError(
                f"beta(0) = Ms ln(gamma)/gamma is not finite for gamma={self.gamma}, "
                f"Ms={self.Ms}"
            )


def _check_nonnegative(x, name):
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError(f"{name} must be nonnegative")
    return x


def _langevin_over_y(y):
    """L(y)/y, continuous at 0 with value 1/3. ``y`` is a validated array."""
    out = np.empty_like(y)
    small = y < _SMALL
    large = y > _LARGE
    mid = ~(small | large)

    ys = y[small]
    y2 = ys * ys
    out[small] = 1.0 / 3.0 - y2 / 45.0 + 2.0 * y2 * y2 / 945.0

    ym = y[mid]
    out[mid] = (1.0 / np.tanh(ym) - 1.0 / ym) / ym

    yl = y[large]
    # coth(y) = 1 + 2 e^{-2y} / (1 - e^{-2y}), overflow-free
    e = np.exp(-2.0 * np.minimum(yl, _EXP_ZERO))
    out[large] = (1.0 + 2.0 * e / (1.0 - e) - 1.0 / yl) / yl
    return out


def _log_sinh_over_y(y):
    """ln(sinh(y)/y), continuous at 0 with value 0. ``y`` validated array."""
    out = np.empty_like(y)
    small = y < _SMALL
    large = y > _LARGE
    mid = ~(small | large)

    ys = y[small]
    y2 = ys * ys
    out[small] = y2 / 6.0 - y2 * y2 / 180.0

    ym = y[mid]
    out[mid] = np.log(np.sinh(ym) / ym)

    yl = y[large]
    e = np.exp(-2.0 * np.minimum(yl, _EXP_ZERO))
    # ln sinh(y) = y - ln 2 + ln(1 - e^{-2y})
    out[large] = yl - np.log(2.0) + np.log1p(-e) - np.log(yl)
    return out


def langevin(y):
    """Langevin function L(y) = coth(y) - 1/y for y >= 0.

    Continuous at 0 with L(0) = 0, strictly increasing, bounded by 1.
    """
    y = _check_nonnegative(y, "langevin argument")
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    out = y * _langevin_over_y(y)
    return float(out[0]) if scalar else out


def alpha(x, params: MaterialParams):
    """Diffusion coefficient alpha(x) = 1 + Ms/x * (coth(gamma x) - 1/(gamma x)).

    Continuous at 0 with alpha(0) = 1 + gamma*Ms/3 and decreasing to 1 as
    x -> infinity; always strictly above 1.
    """
    x = _check_nonnegative(x, "field magnitude")
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    # Ms/x * L(gamma x) = gamma*Ms * L(y)/y with y = gamma x
    out = 1.0 + params.gamma * params.Ms * _langevin_over_y(params.gamma * x)
    return float(out[0]) if scalar else out


def beta(x, params: MaterialParams):
    """Pressure potential beta(x) = Ms/gamma * ln(sinh(gamma x)/x) for x >= 0.

    Finite everywhere: beta(0) = Ms/gamma * ln(gamma), and the large-x branch
    avoids sinh overflow.
    """
    x = _check_nonnegative(x, "field magnitude")
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    # ln(sinh(gamma x)/x) = ln(sinh(y)/y) + ln(gamma) with y = gamma x
    out = (params.Ms / params.gamma) * (
        _log_sinh_over_y(params.gamma * x) + np.log(params.gamma)
    )
    return float(out[0]) if scalar else out


def magnetization(hvec, params: MaterialParams):
    """Field-parallel magnetization M(H) = (alpha(|H|) - 1) * H.

    Accepts a single vector (2,) or an array (..., 2); returns the same
    shape. Saturates: |M| = Ms * L(gamma |H|) < Ms, with M(0) = 0.
    """
    hvec = np.asarray(hvec, dtype=float)
    h = np.sqrt(np.sum(hvec * hvec, axis=-1))
    fac = params.gamma * params.Ms * _langevin_over_y(
        np.atleast_1d(params.gamma * h)
    ).reshape(h.shape)
    return fac[..., None] * hvec


def beta_prime_fd(x, params: MaterialParams):
    """Central finite-difference derivative of beta (diagnostic only)."""
    x = np.atleast_1d(_check_nonnegative(x, "field magnitude"))
    h = 1e-6 * np.maximum(x, 1.0)  # relative step
    lo = np.maximum(x - h, 0.0)
    return (beta(x + h, params) - beta(lo, params)) / (x + h - lo)

