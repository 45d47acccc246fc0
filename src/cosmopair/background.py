"""Cosmological background and the closed-form pair-creation benchmark.

Everything here is dimensionless: units with H = 1 and k = 1, conformal time
y = k*eta, and a single scale parameter x = |k*eta_e| > 0 locating the sudden
de Sitter -> radiation matching at y_e = -x.  The scale factor and its first
derivative are continuous at y_e while a''/a jumps, so the in/out mode mixing
has a closed form and serves as the benchmark for the time-stepped engines.

The independent cross-check is `bogoliubov_ode_oracle`, which integrates the
mode equation v'' + (1 - 2/y^2) v = 0 up to the transition and extracts the
mixing coefficients there by matching onto the radiation-era plane waves.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

__all__ = [
    "ModeParams",
    "BogoliubovPair",
    "OdeIntegrationError",
    "bogoliubov_analytic",
    "n_k_analytic",
    "multi_pair_probability",
    "bogoliubov_ode_oracle",
]


class OdeIntegrationError(RuntimeError):
    """Adaptive step control could not meet the requested tolerance."""


#: Largest |y| of an evolution window, and 1 / MAX_ABS_Y the smallest x: the
#: de Sitter coefficient -1/y^2 of every slice stays a finite, nonzero float.
MAX_ABS_Y = 1e150

#: In-mode start and DOP853 tolerance (rtol = atol) of `bogoliubov_ode_oracle`.
ORACLE_Y_I = -80.0
ORACLE_TOL = 1e-10


@dataclass(frozen=True)
class ModeParams:
    """Dimensionless problem definition for one comoving mode pair.

    x is |k*eta_e|; the transition sits at y_e = -x, which must lie strictly
    inside the evolution window (y_i, y_f).  Defaults start deep in the
    de Sitter era and stop two conformal-time units after the transition.
    n_steps = 0 is the window of the vacuum preparation alone.
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
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {self.n_steps}")


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


def bogoliubov_ode_oracle(x: float) -> BogoliubovPair:
    """Numerical cross-check of `bogoliubov_analytic` via the mode equation.

    Integrates v'' + (1 - 2/y^2) v = 0 from positive-frequency initial data
    deep in de Sitter, at ORACLE_Y_I, up to the transition y_e = -x, and reads
    off (alpha, beta) there by matching v and v' onto the radiation-era plane
    waves e^{-iy} and e^{iy}, which solve v'' + v = 0 exactly.  Stopping at
    y_e keeps the kink in the coefficient out of every integrator step.

    Raises OdeIntegrationError if step control fails.
    """
    if not 0 < x <= -ORACLE_Y_I / 10.0:
        raise ValueError(f"x must be in (0, {-ORACLE_Y_I / 10.0:g}] so that the in-mode "
                         f"starts deep in de Sitter, at y_i = {ORACLE_Y_I} <= -10 x; got {x}")
    # Imported here: scipy.integrate is most of the package's import time,
    # and nothing else needs it.
    from scipy.integrate import solve_ivp

    def rhs(y, s):
        return [s[1], -(1.0 - 2.0 / y**2) * s[0]]

    sol = solve_ivp(rhs, (ORACLE_Y_I, -x), _in_mode(ORACLE_Y_I), method="DOP853",
                    rtol=ORACLE_TOL, atol=ORACLE_TOL)
    if not sol.success:
        raise OdeIntegrationError(f"mode-equation integration failed: {sol.message}")
    return BogoliubovPair(*_match_plane_waves(-x, *sol.y[:, -1]))
