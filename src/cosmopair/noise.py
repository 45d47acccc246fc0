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
exactly the depolarizing channel on the gate's operands, a diagonal scale of
the real Pauli coefficients Tr(P rho) that `noisy_distributions` evolves:
it returns the exact outcome distribution, readout included, for each of a
list of models, in one pass over the gates for all of them, whatever the
shot count.  The shots of a stochastic-Pauli model are independent and
identically distributed, so a noisy run's counts are one `sample_counts`
draw over that distribution; one distribution serves every run of the same
circuit and noise level.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate
from .encoding import PauliString, pauli_to_matrix
from .statevector import circuit_unitary

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

    Each model's density matrix rho is one row of a real array of its Pauli
    coefficients c_P = Tr(P rho), one axis over (I, X, Y, Z) per qubit, from
    c_P = 1 on the 2^n strings over {I, Z} (|0...0>).  A gate on k qubits is
    one product of its transfer matrix over its qubits' axes, then its
    depolarizing map: the coefficient of every non-identity Pauli on them
    scales by 1 - p d²/(d²-1) at each row's rate.  diag(rho) is the per-qubit
    Walsh map [[1/2, 1/2], [1/2, -1/2]] of the {I, Z} coefficients, and goes
    through its row's readout.  A row's arithmetic is that of a batch of one,
    bit for bit.  Limited to 12 qubits, as a dense unitary is: 4**n entries.
    """
    n = circuit.n_qubits
    for model in models:
        if n != model.n_qubits:
            raise ValueError(f"model covers {model.n_qubits} qubits, circuit has {n}")
    if n > 12:
        raise ValueError(f"dense density matrix limited to 12 qubits, got {n}")
    keep1 = 1.0 - np.array([model.p1 for model in models])[:, None, None] * 4 / 3  # d = 2
    keep2 = 1.0 - np.array([model.p2 for model in models])[:, None, None] * 16 / 15  # d = 4
    iz = (slice(None),) + (slice(None, None, 3),) * n  # the letters I and Z of every qubit
    coeffs = np.zeros((len(models),) + (4,) * n)
    coeffs[iz] = 1.0
    for gate in circuit.gates:
        build = _fixed_transfer if gate.angle is None else _transfer
        transfer = build(gate.name, len(gate.qubits), gate.angle)
        order = [a for a in range(n + 1) if a - 1 not in gate.qubits] + [1 + q for q in gate.qubits]
        moved = coeffs.transpose(order)  # the gate's axes last
        rows = moved.reshape(len(models), 4**n // len(transfer), len(transfer)) @ transfer.T
        rows[..., 1:] *= keep2 if gate.name == "CNOT" else keep1
        coeffs = rows.reshape(moved.shape).transpose(sorted(range(n + 1), key=order.__getitem__))
    walsh = coeffs[iz]
    for axis in range(1, n + 1):
        i, z = np.split(walsh, 2, axis=axis)
        walsh = 0.5 * np.concatenate([i + z, i - z], axis=axis)
    diags = walsh.reshape(len(models), 2**n)
    return [apply_readout_noise(diag, model) for diag, model in zip(diags, models)]


def _transfer(name: str, k: int, angle: float | None) -> np.ndarray:
    """R_ab = Tr(P_a U P_b U^dagger) / 2^k of a gate on qubits 0, ..., k - 1."""
    u = circuit_unitary(Circuit(k, [Gate(name, tuple(range(k)), angle)]))
    images = (u @ _paulis(k) @ u.conj().T).reshape(4**k, -1)
    return (_paulis(k).reshape(4**k, -1).conj() @ images.T).real / 2**k  # Tr(A^dagger B) = <A, B>


#: `_transfer` of the angle-free gate kinds, built once per kind; shared, never written.
_fixed_transfer = functools.cache(_transfer)


@functools.cache
def _paulis(k: int) -> np.ndarray:
    """The 4^k Paulis on k qubits; a's base-4 digits, qubit 0 first, run over (I, X, Y, Z)."""
    letters = ("".join("IXYZ"[i] for i in digits) for digits in np.ndindex((4,) * k))
    return np.array([pauli_to_matrix(PauliString(s, 1.0), k) for s in letters])
