"""Four-qubit embedding of the pair generators and per-slice gate synthesis.

Each mode occupies two qubits with the one-hot encoding 01 = empty, 10 =
occupied, so the encoded vacuum is |0101>.  The embedded number operator is
diagonal (identity, single-Z, and ZZ strings); the embedded pair operator is
the rank-two swap |1010><0101| + h.c., whose Pauli expansion is eight
four-letter strings over {X, Y} with coefficients +-1/8.  All eight strings
commute (any two differ in an even number of positions), so the product of
their individual rotations reproduces the pair-generator exponential exactly
and each time slice maps to one fixed gate block with step-dependent angles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate

__all__ = [
    "PauliString",
    "PauliSum",
    "zq_pauli_sum",
    "aq_pauli_sum",
    "pauli_to_matrix",
    "synthesize_pauli_rotation",
    "VACUUM_PREP",
    "StepTemplate",
    "step_template",
    "synthesize_step",
    "build_full_circuit",
    "phase_aligned_distance",
]

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliString:
    """Real coefficient times a tensor product of I/X/Y/Z letters.

    Position in `letters` is the qubit index; qubit 0 is the leftmost tensor
    factor (most significant bit of the state index).
    """

    letters: str
    coeff: float

    def __post_init__(self):
        if not self.letters or any(c not in _PAULI_MATS for c in self.letters):
            raise ValueError(f"invalid Pauli letters {self.letters!r}")

    @property
    def is_identity(self) -> bool:
        return set(self.letters) == {"I"}

    def active_qubits(self) -> list[int]:
        return [q for q, c in enumerate(self.letters) if c != "I"]


@dataclass(frozen=True)
class PauliSum:
    terms: tuple[PauliString, ...]

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)


def zq_pauli_sum() -> PauliSum:
    """Embedded number operator: 7 diagonal terms including the identity."""
    return PauliSum(
        terms=(
            PauliString("IIII", 0.5),
            PauliString("ZIII", -0.25),
            PauliString("IZII", 0.25),
            PauliString("IIZI", -0.25),
            PauliString("IIIZ", 0.25),
            PauliString("ZZII", -0.25),
            PauliString("IIZZ", -0.25),
        )
    )


def aq_pauli_sum() -> PauliSum:
    """Embedded pair operator: 8 mutually commuting XY strings, +-1/8 each."""
    return PauliSum(
        terms=(
            PauliString("XXXX", 0.125),
            PauliString("XXYY", 0.125),
            PauliString("XYXY", -0.125),
            PauliString("XYYX", 0.125),
            PauliString("YXXY", 0.125),
            PauliString("YXYX", -0.125),
            PauliString("YYXX", 0.125),
            PauliString("YYYY", 0.125),
        )
    )


def pauli_to_matrix(p: PauliSum | PauliString, n_qubits: int) -> np.ndarray:
    """Dense Kronecker expansion, for verification at small register sizes."""
    if n_qubits > 12:
        raise ValueError(f"dense expansion limited to 12 qubits, got {n_qubits}")
    terms = p.terms if isinstance(p, PauliSum) else (p,)
    out = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    for term in terms:
        if len(term.letters) != n_qubits:
            raise ValueError(
                f"term {term.letters!r} does not act on {n_qubits} qubits"
            )
        m = np.array([[term.coeff]], dtype=complex)
        for letter in term.letters:
            m = np.kron(m, _PAULI_MATS[letter])
        out += m
    return out


# Basis changes taking each letter to Z, as (before, after) gate name lists.
_BASIS_CHANGE = {
    "X": (("H",), ("H",)),
    "Y": (("SDG", "H"), ("H", "S")),
    "Z": ((), ()),
}


def synthesize_pauli_rotation(p: PauliString, angle: float) -> list[Gate]:
    """Gate fragment implementing exp(-i * angle * P) for one Pauli string.

    Basis changes rotate every letter to Z, a CNOT ladder accumulates parity
    on the highest-index active qubit, RZ(2*angle) applies the phase there,
    and the mirror unwinds.  The string's own coefficient is not consulted;
    fold it into `angle`.
    """
    active = p.active_qubits()
    if not active:
        raise ValueError("cannot synthesize a rotation of the identity string")

    before: list[Gate] = []
    after_blocks: list[list[Gate]] = []
    for q in active:
        pre, post = _BASIS_CHANGE[p.letters[q]]
        before.extend(Gate(name, (q,)) for name in pre)
        after_blocks.append([Gate(name, (q,)) for name in post])
    # Mirror unwinding reverses the qubit order but not the per-qubit gates.
    after = [g for block in reversed(after_blocks) for g in block]

    ladder = [
        Gate("CNOT", (active[i], active[i + 1])) for i in range(len(active) - 1)
    ]
    target = active[-1]
    return (
        before
        + ladder
        + [Gate("RZ", (target,), angle=2.0 * angle)]
        + ladder[::-1]
        + after
    )


#: Vacuum preparation |0000> -> |0101> that opens every full circuit.
VACUUM_PREP = (Gate("X", (1,)), Gate("X", (3,)))

#: Index of the angle source of a template RZ: theta_z_half or theta_a.
THETA_ZH, THETA_A = 0, 1


@dataclass(frozen=True)
class StepTemplate:
    """The gate sequence of one slice with its RZ angles left symbolic.

    Every slice of a given shape emits the same gates; only the RZ angles
    change.  `gates` holds the slice with each RZ angle set to 0.0, and
    `angles` lists, per RZ, its position, its angle source (THETA_ZH or
    THETA_A) and the term coefficient, so the RZ angle of a concrete slice
    is 2.0 * (theta * coeff).
    """

    gates: tuple[Gate, ...]
    angles: tuple[tuple[int, int, float], ...]

    def instantiate(self, theta_zh: float, theta_a: float) -> list[Gate]:
        """The slice's gates with every RZ angle filled in."""
        gates = list(self.gates)
        thetas = (theta_zh, theta_a)
        for i, source, coeff in self.angles:
            angle = 2.0 * (thetas[source] * coeff)
            gates[i] = Gate("RZ", gates[i].qubits, angle=angle)
        return gates


@functools.lru_cache(maxsize=2)
def step_template(with_pair: bool) -> StepTemplate:
    """Slice template: Z half-block, the pair block if `with_pair`, Z half-block.

    Built from `synthesize_pauli_rotation` over the number and pair Pauli
    sums; the identity number term is a global phase and emits nothing.
    """
    z_terms = [(t, THETA_ZH) for t in zq_pauli_sum() if not t.is_identity]
    a_terms = [(t, THETA_A) for t in aq_pauli_sum()] if with_pair else []
    gates: list[Gate] = []
    angles = []
    for term, source in z_terms + a_terms + z_terms:
        fragment = synthesize_pauli_rotation(term, 0.0)
        rz = next(i for i, g in enumerate(fragment) if g.name == "RZ")
        angles.append((len(gates) + rz, source, term.coeff))
        gates.extend(fragment)
    return StepTemplate(gates=tuple(gates), angles=tuple(angles))


def synthesize_step(theta_zh: float, theta_a: float) -> Circuit:
    """One symmetric split slice: Z half-block, pair block, Z half-block.

    Takes the slice's `CoeffSchedule.angles`.  The pair block is the exact
    product of the eight commuting string rotations.  Radiation-era slices
    (theta_a = 0) emit no four-qubit rotations at all, leaving a purely
    diagonal circuit.
    """
    return Circuit(4, step_template(theta_a != 0.0).instantiate(theta_zh, theta_a))


def build_full_circuit(schedule) -> Circuit:
    """Vacuum preparation followed by one template instance per slice.

    Walks a CoeffSchedule's angle columns as Python floats, so every RZ angle
    is a float; each gate is range-checked once, by the returned Circuit.  An
    empty sequence gives the preparation-only circuit.
    """
    gates = list(VACUUM_PREP)
    slices = zip(*(a.tolist() for a in schedule.angles())) if len(schedule) else ()
    for theta_zh, theta_a in slices:
        gates += step_template(theta_a != 0.0).instantiate(theta_zh, theta_a)
    return Circuit(4, gates)


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max-entry distance between matrices after removing a global phase."""
    a = np.asarray(a)
    b = np.asarray(b)
    ij = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    ref = b[ij]
    if abs(ref) < 1e-300:
        return float(np.max(np.abs(a - b)))
    phase = a[ij] / ref
    if abs(phase) < 1e-300:
        return float(np.max(np.abs(a - b)))
    phase /= abs(phase)
    return float(np.max(np.abs(a - phase * b)))
