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

Injecting a uniformly random non-identity Pauli with probability p is
exactly the depolarizing channel on the gate's operands, so
`noisy_distributions` evolves the density matrix through the circuit and
returns the exact outcome distribution, readout included, for each of a
list of models: one pass over the gates for all of them, whatever the shot
count.  The shots of a stochastic-Pauli model are independent and
identically distributed, so a noisy run's counts are one `sample_counts`
draw over that distribution; one distribution serves every run of the same
circuit and noise level.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit
from .statevector import _apply_1q_inplace, _apply_cnot_inplace, _apply_gate_inplace, _mat_1q

__all__ = ["NoiseModel", "apply_readout_noise", "noisy_distributions"]


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


def apply_readout_noise(probs: np.ndarray, model: NoiseModel) -> np.ndarray:
    """Push an outcome distribution through the tensor-product confusion.

    Takes and returns the 2^n basis-indexed array (tiny entries kept); the
    total is preserved.
    """
    n = model.n_qubits
    if n > 16:
        raise ValueError("dense confusion product limited to 16 qubits")
    p = np.asarray(probs, dtype=float)
    if p.shape != (2**n,):
        raise ValueError(f"distribution of shape {p.shape} does not match {n} qubits")
    t = p.reshape((2,) * n)
    for q, c in enumerate(model.readout):
        t = np.moveaxis(np.tensordot(c, t, axes=([1], [q])), 0, q)
    return t.reshape(-1)


def noisy_distributions(circuit: Circuit, models: list[NoiseModel]) -> list[np.ndarray]:
    """Exact outcome distribution of the circuit under each noise model, in order.

    Each model's density matrix rho is one row of a stack, held as a 2n-qubit
    vector (row qubits 0..n-1, column qubits n..2n-1) from |0...0><0...0|.
    Each gate is applied once to the stack as U on the row qubits and conj(U)
    on the column qubits (rho -> U rho U^dagger), then the depolarizing map on
    its operands at each row's rate, which is exactly the injection of a
    uniformly random non-identity Pauli with the gate's rate.  Each diag(rho)
    goes through its own model's readout.  A row's arithmetic is that of a
    batch of one, bit for bit.  Limited to 12 qubits: the 4**n entries of rho
    are those of a dense unitary.
    """
    n = circuit.n_qubits
    for model in models:
        if n != model.n_qubits:
            raise ValueError(f"model covers {model.n_qubits} qubits, circuit has {n}")
    if n > 12:
        raise ValueError(f"dense density matrix limited to 12 qubits, got {n}")
    p1 = np.array([model.p1 for model in models])
    p2 = np.array([model.p2 for model in models])
    rho = np.zeros((len(models), 4**n), dtype=complex)
    rho[:, 0] = 1.0
    for gate in circuit.gates:
        _apply_gate_inplace(rho, 2 * n, gate)
        columns = tuple(q + n for q in gate.qubits)
        if gate.name == "CNOT":
            _apply_cnot_inplace(rho, 2 * n, *columns)
            _depolarize(rho, n, gate.qubits, p2)
        else:
            _apply_1q_inplace(rho, 2 * n, columns[0], _mat_1q(gate).conj())
            _depolarize(rho, n, gate.qubits, p1)
    diags = rho.reshape(-1, 2**n, 2**n).diagonal(axis1=1, axis2=2).real
    return [apply_readout_noise(diag, model) for diag, model in zip(diags, models)]


def _depolarize(rho: np.ndarray, n: int, qubits: tuple[int, ...], p: np.ndarray):
    """rho -> (1 - p d²/(d²-1)) rho + (p d/(d²-1)) Tr_Q(rho) ⊗ I_Q on Q = qubits.

    rho is a stack of rows, and p holds one rate per row.  With
    d = 2**len(qubits) this equals (1 - p) rho + p/(d²-1) Σ P rho P over the
    d² - 1 non-identity Paulis P on Q, since Σ over all d² Paulis gives
    d Tr_Q(rho) ⊗ I_Q.
    """
    d = 2 ** len(qubits)
    t = rho.reshape((-1,) + (2,) * (2 * n))
    diagonal = []  # the index of each (row, column) entry of Q with row == column
    for bits in itertools.product((0, 1), repeat=len(qubits)):
        sel: list = [slice(None)] * (2 * n + 1)
        for q, b in zip(qubits, bits):
            sel[1 + q] = sel[1 + n + q] = b
        diagonal.append(tuple(sel))
    traced = sum(t[s] for s in diagonal)
    rho *= (1.0 - p * d * d / (d * d - 1))[:, None]
    spread = (p * d / (d * d - 1)).reshape((-1,) + (1,) * (traced.ndim - 1))
    for s in diagonal:
        t[s] += spread * traced
