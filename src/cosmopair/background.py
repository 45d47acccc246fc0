"""Cosmological background and the closed-form pair-creation benchmark.

Everything here is dimensionless: units with H = 1 and k = 1, conformal time
y = k*eta, and a single scale parameter x = |k*eta_e| > 0 locating the sudden
de Sitter -> radiation matching at y_e = -x.  The scale factor and its first
derivative are continuous at y_e while a''/a jumps, so the in/out mode mixing
has a closed form and serves as the benchmark for the time-stepped engines.

The independent cross-check is `bogoliubov_ode_oracle`, which integrates the
mode equation v'' + (1 - 2/y^2) v = 0 through the transition and extracts the
mixing coefficients by matching onto plane waves in the radiation era.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModeParams",
    "BogoliubovPair",
    "OdeIntegrationError",
    "OracleMismatchError",
    "scale_factor",
    "omega_squared",
    "bogoliubov_analytic",
    "n_k_analytic",
    "multi_pair_probability",
    "bogoliubov_ode_oracle",
]


class OdeIntegrationError(RuntimeError):
    """Adaptive step control could not meet the requested tolerance."""


class OracleMismatchError(RuntimeError):
    """Extracted mixing coefficients drift between radiation-era probes."""


#: Largest |y| of an evolution window, and 1 / MAX_ABS_Y the smallest x: the
#: de Sitter coefficient -1/y^2 of every slice stays a finite, nonzero float.
MAX_ABS_Y = 1e150


@dataclass(frozen=True)
class ModeParams:
    """Dimensionless problem definition for one comoving mode pair.

    x is |k*eta_e|; the transition sits at y_e = -x, which must lie strictly
    inside the evolution window (y_i, y_f).  Defaults start deep in the
    de Sitter era and stop two conformal-time units after the transition.
    """

    x: float
    y_i: float = -80.0
    y_f: float | None = None
    n_steps: int = 1

    def __post_init__(self):
        if not self.x > 0:
            raise ValueError(f"x must be positive, got {self.x}")
        if self.x < 1.0 / MAX_ABS_Y:
            raise ValueError(f"x = {self.x} is too small: it must be at least {1.0 / MAX_ABS_Y:g}")
        if self.y_f is None:
            object.__setattr__(self, "y_f", -self.x + 2.0)
        if not (abs(self.y_i) <= MAX_ABS_Y and abs(self.y_f) <= MAX_ABS_Y):
            raise ValueError(
                f"window (y_i, y_f) = ({self.y_i}, {self.y_f}) must be finite "
                f"and within +-{MAX_ABS_Y:g}"
            )
        if not self.y_i < -self.x < self.y_f:
            raise ValueError(
                f"transition y_e = {-self.x} must lie inside (y_i, y_f) = "
                f"({self.y_i}, {self.y_f})"
            )
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def y_e(self) -> float:
        return -self.x


@dataclass(frozen=True)
class BogoliubovPair:
    """In/out mode-mixing coefficients; |beta|^2 is the pair number per mode."""

    alpha: complex
    beta: complex

    @property
    def n_k(self) -> float:
        return abs(self.beta) ** 2

    @property
    def normalization_defect(self) -> float:
        """|alpha|^2 - |beta|^2 - 1; zero for a canonical transformation."""
        return abs(self.alpha) ** 2 - abs(self.beta) ** 2 - 1.0


def scale_factor(y: float, x: float) -> float:
    """Piecewise scale factor: -1/y before the transition, linear after.

    Both branches give a(-x) = 1/x and matching first derivatives; only the
    second derivative jumps.  Valid for y < 0 in the de Sitter branch (always
    true there since y <= -x < 0).
    """
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    if y <= -x:
        # y <= -x < 0, so the 1/y pole is never reached.
        return -1.0 / y
    return (2.0 + y / x) / x


def omega_squared(y: float, x: float) -> float:
    """Dimensionless effective frequency squared of the mode equation.

    1 - 2/y^2 in the de Sitter era, exactly 1 in the radiation era.  At the
    matching point y = -x the radiation value is returned, consistent with
    the midpoint branch rule used by the step schedule.
    """
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    if y < -x:
        return 1.0 - 2.0 / y**2
    return 1.0


def bogoliubov_analytic(x: float) -> BogoliubovPair:
    """Closed-form mixing coefficients of the sudden matching at y_e = -x.

    Continuity of the mode and its derivative at the transition gives
    alpha = 1 + i/x - 1/(2 x^2) and beta = exp(2ix) / (2 x^2).
    """
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    alpha = 1.0 + 1j / x - 1.0 / (2.0 * x**2)
    beta = cmath.exp(2j * x) / (2.0 * x**2)
    return BogoliubovPair(alpha=alpha, beta=beta)


def n_k_analytic(x: float) -> float:
    """Late-time pair number per mode, 1/(4 x^4).

    Evaluated as 1/(4*(x*x)*(x*x)) so that doubling x scales the result by
    exactly 1/16 in floating point.
    """
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    x2 = x * x
    x4 = 4.0 * x2 * x2
    if x4 == 0.0 or math.isinf(1.0 / x4):
        raise ValueError(f"x = {x} is too small: 1/(4 x^4) overflows")
    return 1.0 / x4


def multi_pair_probability(n_k: float) -> float:
    """Weight of two-or-more-pair states for mean occupation n_k.

    (n_k / (1 + n_k))^2 for a two-mode squeezed state; this is the error
    budget of the one-excitation-per-mode truncation and is reported next to
    every simulated point.
    """
    if n_k < 0:
        raise ValueError(f"n_k must be nonnegative, got {n_k}")
    return (n_k / (1.0 + n_k)) ** 2


def _in_mode(y: float) -> tuple[complex, complex]:
    """Positive-frequency de Sitter mode (1/sqrt2)(1 - i/y) e^{-iy} and v'."""
    phase = cmath.exp(-1j * y)
    v = (1.0 - 1j / y) * phase / math.sqrt(2.0)
    dv = (1j / y**2 - 1j - 1.0 / y) * phase / math.sqrt(2.0)
    return v, dv


def _match_plane_waves(y: float, v: complex, dv: complex) -> tuple[complex, complex]:
    """Solve v = (alpha e^{-iy} + beta e^{iy})/sqrt2 and its derivative."""
    alpha = (v + 1j * dv) * cmath.exp(1j * y) / math.sqrt(2.0)
    beta = (v - 1j * dv) * cmath.exp(-1j * y) / math.sqrt(2.0)
    return alpha, beta


def bogoliubov_ode_oracle(
    x: float, y_i: float = -80.0, tol: float = 1e-10
) -> BogoliubovPair:
    """Numerical cross-check of `bogoliubov_analytic` via the mode equation.

    Integrates v'' + (1 - 2/y^2) v = 0 from deep de Sitter (positive-frequency
    initial data at y_i) up to the matching point, continues with v'' + v = 0,
    and reads off (alpha, beta) by matching onto plane waves at two
    radiation-era probes.  The integration is split at exactly y = -x so the
    kink in the coefficient never sits inside an integrator step.

    Raises OdeIntegrationError if step control fails and OracleMismatchError
    if the two probes disagree on |beta|^2 by more than 10*tol relative.
    """
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    if y_i > -10.0 * x:
        raise ValueError(f"y_i = {y_i} is not deep de Sitter (need y_i <= {-10.0 * x})")
    if not 1e-12 <= tol <= 1e-6:
        raise ValueError(f"tol must be in [1e-12, 1e-6], got {tol}")
    # Imported here: scipy.integrate is most of the package's import time,
    # and nothing else needs it.
    from scipy.integrate import solve_ivp

    y_e = -x
    probes = (y_e + 0.5, y_e + 1.5)

    def rhs_de_sitter(y, s):
        return [s[1], -(1.0 - 2.0 / y**2) * s[0]]

    def rhs_radiation(y, s):
        return [s[1], -s[0]]

    v0, dv0 = _in_mode(y_i)
    sol1 = solve_ivp(
        rhs_de_sitter,
        (y_i, y_e),
        np.array([v0, dv0], dtype=complex),
        method="DOP853",
        rtol=tol,
        atol=tol,
    )
    if not sol1.success:
        raise OdeIntegrationError(f"de Sitter segment failed: {sol1.message}")

    sol2 = solve_ivp(
        rhs_radiation,
        (y_e, probes[-1]),
        sol1.y[:, -1],
        method="DOP853",
        rtol=tol,
        atol=tol,
        t_eval=probes,
    )
    if not sol2.success:
        raise OdeIntegrationError(f"radiation segment failed: {sol2.message}")

    pairs = [
        _match_plane_waves(y, sol2.y[0, i], sol2.y[1, i]) for i, y in enumerate(probes)
    ]
    n1, n2 = (abs(b) ** 2 for _, b in pairs)
    if abs(n1 - n2) > 10.0 * tol * max(n1, n2):
        raise OracleMismatchError(
            f"|beta|^2 drifts between probes: {n1!r} vs {n2!r} at y = {probes}"
        )
    alpha, beta = pairs[0]
    return BogoliubovPair(alpha=alpha, beta=beta)
