"""Uniform conformal-time grid and per-slice split-step angles.

The evolution window [y_i, y_f] is cut into n_steps equal slices and the
dimensionless generator coefficients are evaluated at each slice midpoint:
cz = 1 - 1/y^2 and ca = -1/y^2 in the de Sitter era, cz = 1 and ca = 0 in
the radiation era.  A slice whose midpoint has crossed y_e = -x counts as
radiation even if the slice itself straddles the transition; the ambiguity
of that single slice shrinks as the grid is refined.

The schedule is stored as float64 columns (one entry per slice), so its
memory is a few dozen bytes per slice.  `CoeffSchedule.angles` is the one
split-step angle formula: the matrix engine, the statevector runner and the
circuit synthesizer all read their rotation angles there, so the angles are
byte-identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .background import ModeParams

__all__ = ["CoeffSchedule", "build_schedule"]


@dataclass(frozen=True, eq=False)
class CoeffSchedule:
    """Immutable slice coefficients for one evolution window.

    Columns hold one read-only float64 (or bool) entry per slice.
    """

    params: ModeParams
    dy: float
    y_mid: np.ndarray
    cz: np.ndarray
    ca: np.ndarray
    radiation: np.ndarray

    def __len__(self) -> int:
        return len(self.y_mid)

    def boundaries(self) -> np.ndarray:
        """Slice-boundary times y_0 .. y_N (length n_steps + 1)."""
        return self.params.y_i + np.arange(len(self) + 1) * self.dy

    def angles(self, start: int = 0, stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Split-step angles (theta_z_half, theta_a) of slices start .. stop-1.

        The slice propagator is exp(-i theta_z_half Z) exp(-i theta_a A)
        exp(-i theta_z_half Z) with theta_z_half = cz*dy/2 and theta_a = ca*dy,
        returned as two float64 arrays; each entry equals the same formula
        evaluated on Python floats.
        """
        return self.cz[start:stop] * self.dy / 2.0, self.ca[start:stop] * self.dy


def build_schedule(params: ModeParams) -> CoeffSchedule:
    """Evaluate midpoint coefficients on the uniform grid of `params`.

    Every column entry equals the scalar formula y_i + (n + 0.5) * dy,
    ca = -1.0 / y_mid**2, cz = 1.0 + ca evaluated on Python floats:
    `np.float_power` is the libm `pow` behind `y**2`, which `y * y` is not.
    """
    if params.n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {params.n_steps}")
    dy = (params.y_f - params.y_i) / params.n_steps
    y_mid = params.y_i + (np.arange(params.n_steps) + 0.5) * dy
    radiation = y_mid >= -params.x
    de_sitter = ~radiation
    ca = np.zeros_like(y_mid)
    ca[de_sitter] = -1.0 / np.float_power(y_mid[de_sitter], 2.0)
    cz = np.ones_like(y_mid)
    cz[de_sitter] = 1.0 + ca[de_sitter]
    for column in (y_mid, cz, ca, radiation):
        column.flags.writeable = False
    return CoeffSchedule(
        params=params, dy=dy, y_mid=y_mid, cz=cz, ca=ca, radiation=radiation
    )

