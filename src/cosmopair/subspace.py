"""Exact matrix propagation on the four-dimensional physical subspace.

Basis order is (|0101>, |1001>, |0110>, |1010>): encoded vacuum, one quantum
in the +k mode, one in the -k mode, and the correlated pair.  The number
generator is diag(0, 1, 1, 2); the pair generator couples only vacuum <->
pair.  Because the pair generator squares to a projector on that block, its
exponential has an exact cos/sin form and each split step is assembled from
closed-form factors rather than a generic matrix exponential.

`evolve` starts from the encoded vacuum, computes those closed-form entries
for a chunk of slices at once and advances the state slice by slice in
Python complex arithmetic.  From the vacuum the single-quantum amplitudes
are exactly 0, so it carries only the (vacuum, pair) block.  The
operations are those of `strang_step_unitary(theta_zh, theta_a) @ psi` on
the slice's `CoeffSchedule.angles`, so both give the same bits.  Memory
is one chunk of per-slice values, plus the (n_steps + 1, 4) population
array when the caller asks for it.  The `matrix` sweep row and `verify`
read only the final state and ask for none, so their memory does not grow
with the step count.

This engine is the high-resolution reference for the circuit implementation
and also produces the time-resolved pair-occupation trajectory: populations
at the slice boundaries `CoeffSchedule.boundaries()`.
"""

from __future__ import annotations

import numpy as np

from .schedule import CoeffSchedule

__all__ = [
    "PHYS_LABELS",
    "PHYS_INDICES",
    "Z_PHYS",
    "A_PHYS",
    "EVOLVE_CHUNK",
    "strang_step_unitary",
    "evolve",
]

#: Physical four-qubit basis labels, qubit 0 leftmost.
PHYS_LABELS = ("0101", "1001", "0110", "1010")

#: Computational-basis indices of the physical labels (MSB-first bit order).
PHYS_INDICES = tuple(int(s, 2) for s in PHYS_LABELS)

#: Total-occupation generator on the physical basis.
Z_PHYS = np.diag([0.0, 1.0, 1.0, 2.0])

#: Pair creation/annihilation generator: vacuum <-> pair swap.
A_PHYS = np.zeros((4, 4))
A_PHYS[0, 3] = A_PHYS[3, 0] = 1.0

#: Slices whose propagator entries `evolve` computes in one numpy pass.
EVOLVE_CHUNK = 4096


def _step_entries(theta_zh: np.ndarray, theta_a: np.ndarray) -> tuple[np.ndarray, ...]:
    """Nonzero propagator entries (u00, u03, u30, u33, u11, u22) per slice.

    Takes equal-length angle arrays.  Each entry is (z_i * u_ij) * z_j with
    z = exp(-1j theta_zh diag(Z)) and u the pair rotation: cos(theta_a) on
    the (vacuum, pair) diagonal, -1j sin(theta_a) off it, and 1 for the
    single-quantum states.  The arithmetic runs in numpy array loops, whose
    complex products can round differently from numpy's scalar ones.
    """
    z0, z1, z2, z3 = np.exp((-1j * theta_zh)[:, None] * Z_PHYS.diagonal()).T
    c, s = np.cos(theta_a), np.sin(theta_a)
    return (
        (z0 * c) * z0,
        (z0 * (-1j * s)) * z3,
        (z3 * (-1j * s)) * z0,
        (z3 * c) * z3,
        z1 * z1,
        z2 * z2,
    )


def strang_step_unitary(theta_zh: float, theta_a: float) -> np.ndarray:
    """Closed-form 4x4 propagator of one symmetric split slice of these angles."""
    entries = _step_entries(np.array([theta_zh]), np.array([theta_a]))
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0], u[0, 3], u[3, 0], u[3, 3], u[1, 1], u[2, 2] = (e[0] for e in entries)
    return u


def evolve(
    schedule: CoeffSchedule, *, populations: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Apply the slice propagators to the encoded vacuum; record the populations if asked.

    Returns the final 4-component state and, with `populations`, the
    (n_steps + 1, 4) populations (p_vac, p_plus, p_minus, p_pair) at the
    slice boundaries `schedule.boundaries()`, row 0 being the vacuum; None
    without.  The final state is the same either way, bit for bit.
    """
    n_steps = len(schedule)
    pops = np.zeros((n_steps + 1, 4)) if populations else None
    if populations:
        pops[0, 0] = 1.0
    p0, p3 = 1.0 + 0j, 0j
    for start in range(0, n_steps, EVOLVE_CHUNK):
        entries = _step_entries(*schedule.angles(start, start + EVOLVE_CHUNK))[:4]
        states = []
        for u00, u03, u30, u33 in zip(*(e.tolist() for e in entries)):
            # the (vacuum, pair) block of u @ psi, without its zero entries
            p0, p3 = u00 * p0 + u03 * p3, u30 * p0 + u33 * p3
            if populations:
                states += (p0, p3)
        if populations:
            block = np.array(states).reshape(-1, 2)
            pops[start + 1 : start + 1 + len(block), ::3] = np.abs(block) ** 2
    return np.array([p0, 0j, 0j, p3]), pops
