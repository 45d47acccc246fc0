"""Uniform conformal-time grid and per-slice split-step angles.

The evolution window [y_i, y_f] is cut into n_steps equal slices and the
dimensionless generator coefficients are evaluated at each slice midpoint:
cz = 1 - 1/y^2 and ca = -1/y^2 in the de Sitter era, cz = 1 and ca = 0 in
the radiation era.  A slice whose midpoint has crossed y_e = -x counts as
radiation even if the slice itself straddles the transition; the ambiguity
of that single slice shrinks as the grid is refined.

A schedule holds no per-slice array: `CoeffSchedule.columns` evaluates
the columns of any range of slices on demand, entry by entry with the same
formula, so a range gives the bytes of the full columns.  An engine that
walks the slices in chunks therefore needs memory for one chunk, whatever
the step count.  Midpoints never decrease, so a schedule is de Sitter
slices, then radiation slices from `CoeffSchedule.switch` on.
`CoeffSchedule.angles` is the one split-step angle formula: the matrix
engine, the statevector runner and the circuit synthesizer all read their
rotation angles there, so the angles are byte-identical by construction.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .background import ModeParams

__all__ = ["CoeffSchedule", "build_schedule"]


@dataclass(frozen=True, eq=False)
class CoeffSchedule:
    """Slice coefficients of one evolution window, evaluated on demand."""

    params: ModeParams
    dy: float

    def __len__(self) -> int:
        return self.params.n_steps

    def columns(self, start: int = 0, stop: int | None = None) -> tuple[np.ndarray, ...]:
        """(y_mid, cz, ca, radiation) of slices start .. stop-1.

        Every entry equals the scalar formula y_i + (n + 0.5) * dy,
        ca = -1.0 / y_mid**2, cz = 1.0 + ca evaluated on Python floats:
        `np.float_power` is the libm `pow` behind `y**2`, which `y * y` is
        not.  Radiation slices, whose midpoint has reached -x, have ca = 0
        and cz = 1.
        """
        slices = range(len(self))[start:stop]
        y_mid = self.params.y_i + (np.arange(slices.start, slices.stop) + 0.5) * self.dy
        radiation = y_mid >= -self.params.x
        de_sitter = ~radiation
        ca = np.zeros_like(y_mid)
        ca[de_sitter] = -1.0 / np.float_power(y_mid[de_sitter], 2.0)
        cz = np.ones_like(y_mid)
        cz[de_sitter] = 1.0 + ca[de_sitter]
        for column in (y_mid, cz, ca, radiation):
            column.flags.writeable = False
        return y_mid, cz, ca, radiation

    @property
    def switch(self) -> int:
        """The first radiation slice, or len(self) if there is none: a bisection
        on the scalar midpoint formula of `columns`, so no column is evaluated."""
        y_i, dy, x = self.params.y_i, self.dy, self.params.x
        return bisect.bisect_left(range(len(self)), True, key=lambda k: y_i + (k + 0.5) * dy >= -x)

    def angles(self, start: int = 0, stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Split-step angles (theta_z_half, theta_a) of slices start .. stop-1.

        The slice propagator is exp(-i theta_z_half Z) exp(-i theta_a A)
        exp(-i theta_z_half Z) with theta_z_half = cz*dy/2 and theta_a = ca*dy,
        returned as two float64 arrays; each entry equals the same formula
        evaluated on Python floats.
        """
        _, cz, ca, _ = self.columns(start, stop)
        return cz * self.dy / 2.0, ca * self.dy


def build_schedule(params: ModeParams) -> CoeffSchedule:
    """The uniform grid of `params`: n_steps slices of width (y_f - y_i) / n_steps.

    A window of no slices (the preparation alone) takes the width of one.
    """
    return CoeffSchedule(params=params, dy=(params.y_f - params.y_i) / max(params.n_steps, 1))
