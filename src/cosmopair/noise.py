"""Synthetic stochastic-Pauli gate noise and per-qubit readout confusion.

The model is deliberately simple: after every gate a uniformly random
non-identity Pauli is injected on the gate's operands with a fixed
probability (p1 per single-qubit gate, p2 per CNOT), and measurement sends
each true bit through a per-qubit 2x2 column-stochastic confusion matrix
C[observed][true].  Default magnitudes follow published backend calibration
medians: readout flip 1.49e-2, two-qubit error 2.80e-3, with p1 = p2/10.

Noise amplification for extrapolation scales the Pauli rates directly
(`scaled`), which in a stochastic-Pauli simulator is the exact semantic
target that hardware gate folding only approximates.

`run_noisy_circuit` draws per-shot trajectories from independent streams
keyed by (seed, shot index), in a fixed documented order, so runs are
reproducible and do not depend on how shots are batched.  It works in two
passes.  The draw pass takes every shot's draws up front, since none depends
on the state, and lists each injection as a (gate, state row, Pauli) event.
The state pass walks the gate list once over a (1 + injected shots, 2**n)
array: row 0 is the ideal trajectory, read by every clean shot, and each
injected shot has a row of its own.  Each gate is one kernel call on the
whole array, followed by its Paulis, applied to the rows injected there one
group of equal Paulis at a time.  Every shot is then sampled from its row's
cumulative probabilities and read out through its pre-drawn uniforms.  Each
amplitude sees the same floating-point operations as in a per-shot replay,
so counts equal that replay's exactly; memory grows with the number of
injected shots, not with the gate count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit
from .encoding import _PAULI_MATS
from .statevector import (
    CountsTable,
    _apply_1q_inplace,
    _apply_gate_inplace,
    counts_rng,
    probabilities,
    run_circuit,
    sample_counts,
)

__all__ = ["NoiseModel", "apply_readout_noise", "run_noisy_circuit"]


@dataclass(frozen=True)
class NoiseModel:
    """Per-qubit readout confusion plus stochastic Pauli gate-error rates."""

    readout: tuple[np.ndarray, ...]
    p1: float
    p2: float

    def __post_init__(self):
        for p in (self.p1, self.p2):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"Pauli rate {p} outside [0, 1]")
        mats = tuple(np.asarray(c, dtype=float) for c in self.readout)
        object.__setattr__(self, "readout", mats)
        for q, c in enumerate(mats):
            if c.shape != (2, 2):
                raise ValueError(f"readout matrix for qubit {q} is not 2x2")
            if not np.all(np.isfinite(c)):
                raise ValueError(f"readout matrix for qubit {q} has non-finite entries")
            if np.any(c < 0.0) or np.any(c > 1.0):
                raise ValueError(f"readout matrix for qubit {q} has entries outside [0, 1]")
            if np.max(np.abs(c.sum(axis=0) - 1.0)) > 1e-12:
                raise ValueError(f"readout matrix for qubit {q} is not column-stochastic")

    @property
    def n_qubits(self) -> int:
        return len(self.readout)

    @property
    def is_gate_noiseless(self) -> bool:
        return self.p1 == 0.0 and self.p2 == 0.0

    @classmethod
    def default(cls, n_qubits: int = 4) -> "NoiseModel":
        return cls.symmetric(n_qubits=n_qubits, epsilon=1.49e-2, p2=2.80e-3)

    @classmethod
    def noiseless(cls, n_qubits: int = 4) -> "NoiseModel":
        return cls.symmetric(n_qubits=n_qubits, epsilon=0.0, p2=0.0, p1=0.0)

    @classmethod
    def symmetric(
        cls,
        n_qubits: int = 4,
        epsilon: float = 1.49e-2,
        p2: float = 2.80e-3,
        p1: float | None = None,
    ) -> "NoiseModel":
        """Uniform symmetric bit-flip readout with rate epsilon on every qubit."""
        c = np.array([[1.0 - epsilon, epsilon], [epsilon, 1.0 - epsilon]])
        return cls(
            readout=tuple(c.copy() for _ in range(n_qubits)),
            p1=p2 / 10.0 if p1 is None else p1,
            p2=p2,
        )

    def scaled(self, factor: float) -> "NoiseModel":
        """Amplify the Pauli rates by `factor`; readout is unchanged."""
        if factor < 0:
            raise ValueError(f"noise factor must be nonnegative, got {factor}")
        return NoiseModel(readout=self.readout, p1=self.p1 * factor, p2=self.p2 * factor)

    def to_json(self) -> str:
        return json.dumps(
            {
                "readout": [c.tolist() for c in self.readout],
                "p1": self.p1,
                "p2": self.p2,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "NoiseModel":
        """Parse `to_json` output; any malformed document raises ValueError."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("noise model must be a JSON object")
        missing = [k for k in ("readout", "p1", "p2") if k not in obj]
        if missing:
            raise ValueError(f"noise model is missing key(s) {', '.join(missing)}")
        if not isinstance(obj["readout"], list) or not obj["readout"]:
            raise ValueError("noise model 'readout' must be a nonempty list of 2x2 matrices")
        try:
            return cls(
                readout=tuple(np.asarray(c, dtype=float) for c in obj["readout"]),
                p1=float(obj["p1"]),
                p2=float(obj["p2"]),
            )
        except TypeError as exc:
            raise ValueError(f"noise model has a non-numeric entry: {exc}") from None


def apply_readout_noise(
    probs: dict[str, float], model: NoiseModel
) -> dict[str, float]:
    """Push an outcome distribution through the tensor-product confusion.

    Returns the full distribution over all 2^n strings (tiny entries kept),
    normalized to the input total.
    """
    n = model.n_qubits
    if n > 16:
        raise ValueError("dense confusion product limited to 16 qubits")
    p = np.zeros(2**n)
    for s, v in probs.items():
        if len(s) != n:
            raise ValueError(f"bitstring {s!r} does not match {n} qubits")
        p[int(s, 2)] = v
    t = p.reshape((2,) * n)
    for q, c in enumerate(model.readout):
        t = np.moveaxis(np.tensordot(c, t, axes=([1], [q])), 0, q)
    flat = t.reshape(-1)
    return {format(i, f"0{n}b"): float(flat[i]) for i in range(2**n)}


def run_noisy_circuit(
    circuit: Circuit, model: NoiseModel, shots: int, seed: int
) -> CountsTable:
    """Monte-Carlo trajectory sampling of the circuit under the noise model.

    Per shot, an independent stream keyed by (seed, shot index) draws, in
    order: one uniform per gate deciding Pauli injection after that gate, one
    choice per injection (3 single-qubit / 15 two-qubit non-identity Paulis),
    one uniform selecting the measured string, and one uniform per qubit for
    the readout flip.  No draw depends on the state, so every shot's draws
    are taken first; then one pass over the gates evolves the ideal state and
    every injected shot's state together (see the module docstring).  When
    both gate rates are zero the trajectory state is the ideal one for every
    shot, so the exact noisy distribution is sampled directly through
    `sample_counts` with the same seed.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if circuit.n_qubits != model.n_qubits:
        raise ValueError(
            f"model covers {model.n_qubits} qubits, circuit has {circuit.n_qubits}"
        )
    if model.is_gate_noiseless:
        return sample_counts(
            apply_readout_noise(probabilities(run_circuit(circuit)), model), shots, seed
        )

    n = circuit.n_qubits
    gates = circuit.gates
    rates = np.array(
        [model.p2 if g.name == "CNOT" else model.p1 for g in gates]
    )

    # Draw pass.  Row 0 of the state array is the ideal trajectory, read by
    # every clean shot; each injected shot gets a row of its own.
    events: dict[int, list[tuple[int, tuple[str, ...]]]] = {}  # gate -> (row, Pauli)
    shot_rows = np.zeros(shots, dtype=np.intp)
    uniforms = np.empty((shots, 1 + n))  # measurement, then one per qubit readout
    n_rows = 1
    for shot in range(shots):
        rng = counts_rng(seed, shot)
        injected = np.nonzero(rng.random(len(gates)) < rates)[0]
        if injected.size:
            for k in injected.tolist():
                events.setdefault(k, []).append((n_rows, _draw_pauli(rng, gates[k])))
            shot_rows[shot] = n_rows
            n_rows += 1
        uniforms[shot] = rng.random(1 + n)

    # State pass: each gate once on every row, then its Paulis, one gather,
    # kernel call and scatter per distinct Pauli.
    states = np.zeros((n_rows, 2**n), dtype=complex)
    states[:, 0] = 1.0
    for k, gate in enumerate(gates):
        _apply_gate_inplace(states, n, gate)
        groups: dict[tuple[str, ...], list[int]] = {}
        for row, pauli in events.pop(k, ()):
            groups.setdefault(pauli, []).append(row)
        for pauli, rows in groups.items():
            block = states[rows]
            for q, letter in zip(gate.qubits, pauli):
                if letter != "I":
                    _apply_1q_inplace(block, n, q, _PAULI_MATS[letter])
            states[rows] = block

    # Sampling: the first index whose cumulative weight exceeds u * total,
    # i.e. searchsorted(cum, u * cum[-1], side="right"), for every shot.
    cum = np.cumsum(np.abs(states) ** 2, axis=1)[shot_rows]
    true = np.count_nonzero(cum <= (uniforms[:, 0] * cum[:, -1])[:, None], axis=1)
    shift = n - 1 - np.arange(n)
    true_bits = (true[:, None] >> shift) & 1
    # Qubit q reads 0 when its uniform falls below C_q[0][true bit].
    p_read0 = np.array([c[0] for c in model.readout])
    read1 = uniforms[:, 1:] >= p_read0[np.arange(n), true_bits]
    observed, freq = np.unique((read1 << shift).sum(axis=1), return_counts=True)
    counts = {format(int(i), f"0{n}b"): int(c) for i, c in zip(observed, freq)}
    return CountsTable(shots=shots, counts=counts, seed=int(seed))


def _draw_pauli(rng: np.random.Generator, gate) -> tuple[str, ...]:
    """A uniformly random non-identity Pauli on the gate's operands, one letter each."""
    if gate.name == "CNOT":
        pair = int(rng.integers(15)) + 1  # 1..15 over {I,X,Y,Z}^2, skipping II
        return ("IXYZ"[pair // 4], "IXYZ"[pair % 4])
    return ("XYZ"[int(rng.integers(3))],)
