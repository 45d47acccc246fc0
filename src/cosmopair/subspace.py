"""Exact matrix propagation on the four-dimensional physical subspace.

Basis order is (|0101>, |1001>, |0110>, |1010>): encoded vacuum, one quantum
in the +k mode, one in the -k mode, and the correlated pair.  The number
generator is diag(0, 1, 1, 2); the pair generator couples only vacuum <->
pair.  Because the pair generator squares to a projector on that block, its
exponential has an exact cos/sin form and each split step is assembled from
closed-form factors rather than a generic matrix exponential.

`propagate` is the one loop that advances a pure state slice by slice, for
both noiseless engines.  It starts from the encoded vacuum and takes the
slices' (vacuum, pair) propagator entries chunk by chunk, advancing the
state in Python complex arithmetic.  From the vacuum the single-quantum
amplitudes are exactly 0, so it carries only the (vacuum, pair) block.
`pair_chunks` streams the closed-form entries of a schedule's slices:
the operations are those of `strang_step_unitary(theta_zh, theta_a) @ psi`
on the slice's `CoeffSchedule.angles`, so both give the same bits.
`statevector.run_schedule` streams the same block of its compiled circuit
slices instead.  `propagate` hands each chunk's amplitudes to its caller
and keeps none, so its memory is one chunk of per-slice values whatever the
step count.  `evolve` runs the loop for the final state alone, without
building any per-slice list: the `matrix` sweep row and `verify` read only
that.

This engine is the high-resolution reference for the circuit implementation
and also produces the time-resolved pair-occupation trajectory: the
amplitudes at the slice boundaries y_i + n * dy, n = 0 .. n_steps.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from .schedule import CoeffSchedule

__all__ = [
    "PHYS_LABELS",
    "PHYS_INDICES",
    "Z_PHYS",
    "A_PHYS",
    "EVOLVE_CHUNK",
    "strang_step_unitary",
    "pair_chunks",
    "propagate",
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

#: Slices whose propagator entries `pair_chunks` computes in one numpy pass.
EVOLVE_CHUNK = 4096


def _pair_entries(theta_zh: np.ndarray, theta_a: np.ndarray) -> tuple[np.ndarray, ...]:
    """(vacuum, pair) propagator entries (u00, u03, u30, u33) per slice.

    Takes equal-length angle arrays.  Each entry is (z_i * u_ij) * z_j with
    z = exp(-1j theta_zh diag(Z)) and u the pair rotation: cos(theta_a) on
    the diagonal, -1j sin(theta_a) off it.  The arithmetic runs in numpy
    array loops, whose complex products can round differently from numpy's
    scalar ones.
    """
    z0, z3 = np.exp((-1j * theta_zh)[:, None] * Z_PHYS.diagonal()[::3]).T
    c, s = np.cos(theta_a), np.sin(theta_a)
    return (z0 * c) * z0, (z0 * (-1j * s)) * z3, (z3 * (-1j * s)) * z0, (z3 * c) * z3


def strang_step_unitary(theta_zh: float, theta_a: float) -> np.ndarray:
    """Closed-form 4x4 propagator of one symmetric split slice of these angles.

    The single-quantum states only pick up the phases z_1^2 and z_2^2.
    """
    z = np.exp(-1j * theta_zh * Z_PHYS.diagonal())
    u = np.diag(z * z)
    entries = _pair_entries(np.array([theta_zh]), np.array([theta_a]))
    u[0, 0], u[0, 3], u[3, 0], u[3, 3] = (e[0] for e in entries)
    return u


def pair_chunks(schedule: CoeffSchedule) -> Iterator[tuple[np.ndarray, ...]]:
    """(u00, u03, u30, u33) of `strang_step_unitary` for each chunk of `schedule`'s slices."""
    for start in range(0, len(schedule), EVOLVE_CHUNK):
        yield _pair_entries(*schedule.angles(start, start + EVOLVE_CHUNK))


def propagate(chunks: Iterable[Iterable[np.ndarray]], *,
              record: bool = True) -> Iterator[np.ndarray]:
    """Carry the encoded vacuum through the slices of `chunks`, one chunk at a time.

    Each chunk holds four equal-length arrays, the (vacuum, pair) propagator
    entries (u00, u03, u30, u33) of its slices in order.  Yields (m, 2)
    complex arrays of (vacuum, pair) amplitudes: first the (1, 2) vacuum,
    then for each chunk of m slices the state after each of them, so that
    the rows run over the slice boundaries.  Without `record` each chunk
    yields only the (1, 2) state after its last slice and no per-slice list
    is built; the bits are the same either way.
    """
    p0, p3 = 1.0 + 0j, 0j
    yield np.array([[p0, p3]])
    for entries in chunks:
        states = []
        for u00, u03, u30, u33 in zip(*(e.tolist() for e in entries)):
            # the (vacuum, pair) block of u @ psi, without its zero entries
            p0, p3 = u00 * p0 + u03 * p3, u30 * p0 + u33 * p3
            if record:
                states += (p0, p3)
        yield np.array(states if record else (p0, p3)).reshape(-1, 2)


def evolve(schedule: CoeffSchedule) -> np.ndarray:
    """The final 4-component state of `propagate`, which builds no per-slice list for it."""
    for block in propagate(pair_chunks(schedule), record=False):
        pass
    (p0, p3), = block
    return np.array([p0, 0j, 0j, p3])
