"""Four-qubit embedding of the pair generators and per-slice gate synthesis.

Each mode occupies two qubits with the one-hot encoding 01 = empty, 10 =
occupied, so the encoded vacuum is |0101>.  The embedded number operator is
diagonal (identity, single-Z, and ZZ strings); the embedded pair operator is
the rank-two swap |1010><0101| + h.c., whose Pauli expansion is eight
four-letter strings over {X, Y} with coefficients +-1/8.  All eight strings
commute (any two differ in an even number of positions), so the product of
their individual rotations reproduces the pair-generator exponential exactly
and each time slice maps to one fixed gate block with step-dependent angles.

`step_template` cuts each block shape at its RZ gates (`StepTemplate`,
whose `rz_angles` is the one RZ-angle formula), and `slice_chunks` walks a
schedule in runs of one shape for the circuit builder and both fast
engines.  `slice_cuts` is the one place that says where those runs end;
the noisy channel batches rows whose schedules have equal cuts.
`build_full_circuit` streams a schedule's circuit gate by gate, so no
step count makes it hold more than one chunk of RZ angles.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .circuits import N_QUBITS, Gate

__all__ = [
    "PauliString",
    "zq_pauli_sum",
    "aq_pauli_sum",
    "pauli_to_matrix",
    "synthesize_pauli_rotation",
    "VACUUM_PREP",
    "SCHEDULE_CHUNK",
    "StepTemplate",
    "step_template",
    "slice_cuts",
    "slice_chunks",
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

    One letter per register qubit: position in `letters` is the qubit index;
    qubit 0 is the leftmost tensor factor (most significant bit of the state
    index).
    """

    letters: str
    coeff: float

    def __post_init__(self):
        if len(self.letters) != N_QUBITS or any(c not in _PAULI_MATS for c in self.letters):
            raise ValueError(f"invalid Pauli letters {self.letters!r}: need {N_QUBITS} of IXYZ")

    @property
    def is_identity(self) -> bool:
        return set(self.letters) == {"I"}

    def active_qubits(self) -> list[int]:
        return [q for q, c in enumerate(self.letters) if c != "I"]


def zq_pauli_sum() -> tuple[PauliString, ...]:
    """Embedded number operator: 7 diagonal terms including the identity."""
    return (
        PauliString("IIII", 0.5),
        PauliString("ZIII", -0.25),
        PauliString("IZII", 0.25),
        PauliString("IIZI", -0.25),
        PauliString("IIIZ", 0.25),
        PauliString("ZZII", -0.25),
        PauliString("IIZZ", -0.25),
    )


def aq_pauli_sum() -> tuple[PauliString, ...]:
    """Embedded pair operator: 8 mutually commuting XY strings, +-1/8 each."""
    return (
        PauliString("XXXX", 0.125),
        PauliString("XXYY", 0.125),
        PauliString("XYXY", -0.125),
        PauliString("XYYX", 0.125),
        PauliString("YXXY", 0.125),
        PauliString("YXYX", -0.125),
        PauliString("YYXX", 0.125),
        PauliString("YYYY", 0.125),
    )


def pauli_to_matrix(p: PauliString | Sequence[PauliString]) -> np.ndarray:
    """Dense Kronecker expansion of one string or their sum on the register."""
    terms = (p,) if isinstance(p, PauliString) else p
    out = np.zeros((2**N_QUBITS, 2**N_QUBITS), dtype=complex)
    for term in terms:
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

#: Slices per batch of `slice_chunks`; fixes the engines' working set whatever the step count.
SCHEDULE_CHUNK = 128


@dataclass(frozen=True, eq=False)
class StepTemplate:
    """The gate sequence of one slice, cut at its RZ gates.

    Every slice of a given shape emits the same gates; only the RZ angles
    change.  `runs` holds the fixed gate runs before, between and after the
    RZs (one more run than RZs, any of them maybe empty), and `rzs` lists,
    per RZ in gate order, its `Gate.qubits` (shared by every instance),
    angle source and term coefficient.
    """

    runs: tuple[tuple[Gate, ...], ...]
    rzs: tuple[tuple[tuple[int], int, float], ...]

    def rz_angles(self, thetas) -> np.ndarray:
        """RZ angles 2 * (theta * coeff) of (theta_zh, theta_a) rows, one column per RZ."""
        source = [s for _, s, _ in self.rzs]
        coeff = np.array([c for _, _, c in self.rzs])
        return 2.0 * (np.asarray(thetas, dtype=float)[:, source] * coeff)

    def instantiate(self, angles) -> list[Gate]:
        """The slice's gates with the RZs at `angles`, one `rz_angles` row."""
        gates = []
        for run, (qubits, _, _), angle in zip(self.runs, self.rzs, angles):
            gates += run
            gates.append(Gate("RZ", qubits, angle=angle))
        gates += self.runs[-1]
        return gates


@functools.lru_cache(maxsize=2)
def step_template(with_pair: bool) -> StepTemplate:
    """Slice template: Z half-block, the pair block if `with_pair`, Z half-block.

    Built from `synthesize_pauli_rotation` over the number and pair Pauli
    sums; the identity number term is a global phase and emits nothing.
    """
    z_terms = [(t, THETA_ZH) for t in zq_pauli_sum() if not t.is_identity]
    a_terms = [(t, THETA_A) for t in aq_pauli_sum()] if with_pair else []
    runs, rzs = [()], []
    for term, source in z_terms + a_terms + z_terms:
        fragment = synthesize_pauli_rotation(term, 0.0)
        i = next(i for i, g in enumerate(fragment) if g.name == "RZ")
        runs[-1] += tuple(fragment[:i])
        runs.append(tuple(fragment[i + 1:]))
        rzs.append((fragment[i].qubits, source, term.coeff))
    return StepTemplate(runs=tuple(runs), rzs=tuple(rzs))


def slice_cuts(schedule) -> tuple[int, int]:
    """(slices, `CoeffSchedule.switch`: the first radiation slice, or slices if there is none).

    `slice_chunks` cuts a schedule at the switch and at every multiple of
    SCHEDULE_CHUNK, and nowhere else: schedules with equal cuts are chunked
    alike, which is how the noisy channel batches their rows.
    """
    return len(schedule), schedule.switch


def slice_chunks(schedule):
    """(template, rz_angles) of each run of slices of one shape, one row per slice.

    A run ends at every multiple of SCHEDULE_CHUNK, at the first radiation
    slice (`slice_cuts`) and at the end, and nowhere else.
    """
    n, switch = slice_cuts(schedule)
    cuts = sorted({*range(0, n, SCHEDULE_CHUNK), switch, n})
    for lo, hi in zip(cuts, cuts[1:]):
        template = step_template(lo < switch)
        yield template, template.rz_angles(np.column_stack(schedule.angles(lo, hi)))


def build_full_circuit(schedule) -> Iterator[Gate]:
    """The gates of the vacuum preparation, then of one template instance per slice.

    A generator: walks `slice_chunks` and takes each row of RZ angles as
    Python floats.  A schedule of no slices gives the preparation alone.
    """
    yield from VACUUM_PREP
    for template, angles in slice_chunks(schedule):
        for row in angles.tolist():
            yield from template.instantiate(row)


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
