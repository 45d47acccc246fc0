"""Small-register statevector simulator with seeded shot sampling.

Amplitude layout: qubit j is bit j counted from the left of the bitstring,
i.e. the most significant bit of the flat index, so printed bitstrings read
exactly like ket labels.  Registers up to 20 qubits are supported; the dense
unitary builder is restricted to 12.  `run_circuit` replays any circuit gate
by gate; `run_schedule` gives the same final state for the circuit of a
coefficient schedule from slice-fused kernels, without building the circuit.

Shot sampling draws one multinomial per request from a Philox counter-based
generator seeded through numpy's SeedSequence, so identical (probs, shots,
seed) give identical counts on every platform.  Probabilities below 1e-15
are clamped to zero before sampling.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .circuits import Circuit, Gate
from .encoding import VACUUM_PREP, step_template
from .subspace import PHYS_LABELS

__all__ = [
    "StateVector",
    "CountsTable",
    "Observables",
    "apply_gate",
    "run_circuit",
    "run_schedule",
    "SCHEDULE_CHUNK",
    "probabilities",
    "sample_counts",
    "observables_from_counts",
    "observables_from_probabilities",
    "counts_to_csv",
    "observables_record",
    "circuit_unitary",
    "counts_rng",
    "derived_seed",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        if not 1 <= n_qubits <= 20:
            raise ValueError(f"n_qubits must be in [1, 20], got {n_qubits}")
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(n_qubits=n_qubits, amplitudes=amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _mat_1q(gate: Gate) -> np.ndarray:
    if gate.name == "X":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if gate.name == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2
    if gate.name == "S":
        return np.diag([1.0, 1j])
    if gate.name == "SDG":
        return np.diag([1.0, -1j])
    if gate.name == "RZ":
        return np.diag([np.exp(-0.5j * gate.angle), np.exp(0.5j * gate.angle)])
    if gate.name == "RX":
        c, s = np.cos(gate.angle / 2.0), np.sin(gate.angle / 2.0)
        return np.array([[c, -1j * s], [-1j * s, c]])
    raise ValueError(f"not a single-qubit gate: {gate.name}")


def _apply_1q_inplace(amps: np.ndarray, n: int, q: int, mat: np.ndarray):
    # Leading axes (qubits before q, and any batch of states) fold into one.
    view = amps.reshape(-1, 2, 2 ** (n - 1 - q))
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = mat[0, 0] * a0 + mat[0, 1] * a1
    view[:, 1, :] = mat[1, 0] * a0 + mat[1, 1] * a1


def _apply_cnot_inplace(amps: np.ndarray, n: int, control: int, target: int):
    view = amps.reshape((-1,) + (2,) * n)  # leading batch axis, maybe of one
    sel: list = [slice(None)] * (n + 1)
    sel[1 + control] = 1
    i0, i1 = sel.copy(), sel.copy()
    i0[1 + target] = 0
    i1[1 + target] = 1
    tmp = view[tuple(i0)].copy()
    view[tuple(i0)] = view[tuple(i1)]
    view[tuple(i1)] = tmp


def _apply_gate_inplace(amps: np.ndarray, n: int, gate: Gate):
    if gate.name == "CNOT":
        _apply_cnot_inplace(amps, n, *gate.qubits)
    else:
        _apply_1q_inplace(amps, n, gate.qubits[0], _mat_1q(gate))


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Return a new state with one gate applied."""
    for q in gate.qubits:
        if not 0 <= q < state.n_qubits:
            raise ValueError(f"qubit {q} out of range for {state.n_qubits} qubits")
    amps = state.amplitudes.copy()
    _apply_gate_inplace(amps, state.n_qubits, gate)
    return StateVector(n_qubits=state.n_qubits, amplitudes=amps)


def run_circuit(circuit: Circuit) -> StateVector:
    """Apply every gate in order starting from |0...0>."""
    state = StateVector.zero(circuit.n_qubits)
    amps = state.amplitudes
    for gate in circuit.gates:
        _apply_gate_inplace(amps, circuit.n_qubits, gate)
    return state


# ---------------------------------------------------------------------------
# Slice-fused engine for schedule circuits
# ---------------------------------------------------------------------------

#: Slices fused per batch; fixes the working set whatever the step count.
SCHEDULE_CHUNK = 128

_DIM = 16  # four-qubit register
_BIT = [1 << (3 - q) for q in range(4)]  # qubit q's bit in the state index


def _monomial_action(gate: Gate, rz: tuple[int, float] | None = None):
    """Permutation and phase-angle basis of one X, S, SDG, RZ or CNOT gate.

    The gate maps basis state i to perm[i] with phase exp(1j * phi[i]), where
    phi = coef[0] + theta_zh * coef[1] + theta_a * coef[2].  For a template
    RZ, `rz` is its (angle source, term coefficient).
    """
    idx = np.arange(_DIM)
    coef = np.zeros((3, _DIM))
    if gate.name == "CNOT":
        control, target = (_BIT[q] for q in gate.qubits)
        return np.where(idx & control, idx ^ target, idx), coef
    bit = (idx & _BIT[gate.qubits[0]]) != 0
    if gate.name == "X":
        return idx ^ _BIT[gate.qubits[0]], coef
    if gate.name in ("S", "SDG"):
        coef[0, bit] = np.pi / 2 if gate.name == "S" else -np.pi / 2
        return idx, coef
    if gate.name == "RZ" and rz is not None:
        # RZ(2 theta c) = diag(exp(-1j theta c), exp(+1j theta c)).
        source, c = rz
        coef[1 + source] = np.where(bit, c, -c)
        return idx, coef
    raise ValueError(f"not a fusable monomial gate: {gate}")


@functools.lru_cache(maxsize=2)
def _slice_kernels(with_pair: bool) -> tuple[tuple[tuple, ...], float]:
    """Compile a slice template into fused kernels and a final scale.

    Each maximal run of monomial gates becomes one ("mono", inverse
    permutation or None, constant phases, theta coefficients or None)
    kernel, and each H an ("H", qubit) index-pair kernel.  H is applied
    unnormalized and the block rescaled once by _INV_SQRT2**n_H: the same
    rounded constant `run_circuit` applies per H, so the two engines share
    its slight norm drift and agree to rounding.
    """
    template = step_template(with_pair)
    rz = {i: (source, coeff) for i, source, coeff in template.angles}
    identity = np.arange(_DIM)
    kernels: list[tuple] = []
    perm, coef = identity, np.zeros((3, _DIM))

    def flush():
        nonlocal perm, coef
        if np.any(perm != identity) or np.any(coef):
            # Gather form: new[j] = exp(1j * phi[inv[j]]) * old[inv[j]].
            inv = np.argsort(perm)
            coef = coef[:, inv]
            kernels.append((
                "mono",
                None if np.array_equal(inv, identity) else inv,
                np.exp(1j * coef[0]),
                coef[1:] if np.any(coef[1:]) else None,
            ))
        perm, coef = identity, np.zeros((3, _DIM))

    for i, gate in enumerate(template.gates):
        if gate.name == "H":
            flush()
            kernels.append(("H", gate.qubits[0]))
            continue
        g_perm, g_coef = _monomial_action(gate, rz.get(i))
        # Appending a gate: perm' = g_perm[perm], phi' = phi + g_phi[perm].
        coef = coef + g_coef[:, perm]
        perm = g_perm[perm]
    flush()
    n_h = sum(1 for k in kernels if k[0] == "H")
    return tuple(kernels), _INV_SQRT2**n_h


def _slice_unitaries(with_pair: bool, thetas: np.ndarray) -> np.ndarray:
    """(len(thetas), 16, 16) stack of slice unitaries for (theta_zh, theta_a) rows."""
    kernels, scale = _slice_kernels(with_pair)
    m = len(thetas)
    u = np.broadcast_to(np.eye(_DIM, dtype=complex), (m, _DIM, _DIM)).copy()
    for kernel in kernels:
        if kernel[0] == "H":
            view = u.reshape(m, 2 ** kernel[1], 2, -1)
            a0, a1 = view[:, :, 0, :], view[:, :, 1, :]
            total = a0 + a1
            np.subtract(a0, a1, out=a1)
            a0[...] = total
            continue
        _, inv, const_phase, theta_coef = kernel
        if inv is not None:
            u = np.take(u, inv, axis=1)  # C-ordered, so the H reshape is a view
        if theta_coef is None:
            u *= const_phase[:, None]
        else:
            u *= (const_phase * np.exp(1j * (thetas @ theta_coef)))[:, :, None]
    if scale != 1.0:
        u *= scale
    return u


def run_schedule(schedule) -> StateVector:
    """Final state of `build_full_circuit(schedule)`, without building it.

    Takes SCHEDULE_CHUNK slices at a time, reads their angle columns,
    builds each slice's 16x16 unitary from its template's fused kernels
    (one numpy op per kernel for the whole chunk), and chains the unitaries
    on the prepared vacuum.  Agrees with gate-by-gate `run_circuit` to
    rounding; takes a CoeffSchedule (an empty sequence gives the vacuum).
    """
    state = StateVector.zero(4)
    for gate in VACUUM_PREP:
        _apply_gate_inplace(state.amplitudes, 4, gate)
    amps = state.amplitudes
    for start in range(0, len(schedule), SCHEDULE_CHUNK):
        thetas = np.column_stack(schedule.angles(start, start + SCHEDULE_CHUNK))
        with_pair = thetas[:, 1] != 0.0
        blocks = np.empty((len(thetas), _DIM, _DIM), dtype=complex)
        for shape in (False, True):
            rows = np.nonzero(with_pair == shape)[0]
            if rows.size:
                blocks[rows] = _slice_unitaries(shape, thetas[rows])
        for block in blocks:
            amps = block @ amps
    return StateVector(n_qubits=4, amplitudes=amps)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of a circuit; verification tool, limited to 12 qubits."""
    n = circuit.n_qubits
    if n > 12:
        raise ValueError(f"dense unitary limited to 12 qubits, got {n}")
    # Evolve all basis states at once as a batch of rows, then transpose.
    rows = np.eye(2**n, dtype=complex)
    for gate in circuit.gates:
        _apply_gate_inplace(rows, n, gate)
    return rows.T.copy()


def probabilities(state: StateVector) -> dict[str, float]:
    """|amplitude|^2 keyed by bitstring; entries below 1e-15 are dropped."""
    p = np.abs(state.amplitudes) ** 2
    total = p.sum()
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"state is not normalized (sum of probs = {total})")
    n = state.n_qubits
    return {
        format(i, f"0{n}b"): float(p[i]) for i in np.nonzero(p >= 1e-15)[0]
    }


def counts_rng(*entropy: int) -> np.random.Generator:
    """The package-wide sampling generator: Philox keyed via SeedSequence.

    `counts_rng(s)` and `counts_rng(s, i)` key the stream by `[s]` and
    `[s, i]`; `SeedSequence(s)` and `SeedSequence([s])` are the same state.
    """
    return np.random.Generator(
        np.random.Philox(seed=np.random.SeedSequence([int(e) for e in entropy]))
    )


def derived_seed(*entropy: int) -> int:
    """A child seed (per sweep row, noise factor, ...) from SeedSequence(entropy)."""
    return int(np.random.SeedSequence([int(e) for e in entropy]).generate_state(1)[0])


@dataclass(frozen=True)
class CountsTable:
    """Measurement outcomes of a finite-shot run; zero-count strings omitted."""

    shots: int
    counts: dict[str, int]
    seed: int

    def frequency(self, bitstring: str) -> float:
        return self.counts.get(bitstring, 0) / self.shots


def sample_counts(probs: Mapping[str, float], shots: int, seed: int) -> CountsTable:
    """One multinomial draw over the outcome distribution.

    Keys are processed in lexicographic order, so dict ordering never affects
    the draw.  Negative entries below -1e-12 are rejected; tiny negatives are
    clamped to zero and the distribution renormalized.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    keys = sorted(probs)
    p = np.array([probs[k] for k in keys], dtype=float)
    if np.any(p < -1e-12):
        raise ValueError(f"negative probability: min = {p.min()}")
    p = np.clip(p, 0.0, None)
    p[p < 1e-15] = 0.0
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total}, expected 1")
    p /= total
    draws = counts_rng(seed).multinomial(shots, p)
    counts = {k: int(c) for k, c in zip(keys, draws) if c > 0}
    return CountsTable(shots=shots, counts=counts, seed=int(seed))


@dataclass(frozen=True)
class Observables:
    """Mode occupations, pair probability, and subspace leakage."""

    n_plus: float
    n_minus: float
    p_pair: float
    leakage: float
    stderr_pair: float


def observables_from_probabilities(probs: Mapping[str, float]) -> Observables:
    """Occupations from an outcome distribution (stderr 0)."""
    p = {s: float(probs.get(s, 0.0)) for s in PHYS_LABELS}
    return Observables(
        n_plus=p["1001"] + p["1010"],
        n_minus=p["0110"] + p["1010"],
        p_pair=p["1010"],
        leakage=1.0 - sum(p.values()),
        stderr_pair=0.0,
    )


def observables_from_counts(counts: CountsTable) -> Observables:
    """Occupations from measured frequencies, with the binomial p_pair stderr."""
    obs = observables_from_probabilities(
        {s: counts.frequency(s) for s in PHYS_LABELS}
    )
    stderr = float(np.sqrt(obs.p_pair * (1.0 - obs.p_pair) / counts.shots))
    return replace(obs, stderr_pair=stderr)


def counts_to_csv(table: CountsTable) -> str:
    """`bitstring,count` lines sorted lexicographically by bitstring."""
    lines = ["bitstring,count"]
    lines.extend(f"{s},{table.counts[s]}" for s in sorted(table.counts))
    return "\n".join(lines) + "\n"


def observables_record(
    obs: Observables, *, x: float, n_steps: int, shots: int | None, seed: int | None
) -> dict:
    """Flat JSON-ready record of one observables extraction."""
    return {
        "x": x,
        "n_steps": n_steps,
        "shots": shots,
        "seed": seed,
        "n_plus": obs.n_plus,
        "n_minus": obs.n_minus,
        "p_pair": obs.p_pair,
        "leakage": obs.leakage,
        "stderr_pair": obs.stderr_pair,
    }
