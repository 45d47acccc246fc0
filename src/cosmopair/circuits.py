"""Gate records, circuits over a small fixed gate set, and text serialization.

Gate set: X, H, S, Sdg, RZ(theta), CNOT.  Qubit 0 is the leftmost
position of a measurement bitstring (most significant bit of the state
index).  The text format is one gate per line, `NAME q[,q2][,angle]`, angles
in radians with 17 significant digits so files round-trip bit-exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

__all__ = ["GATE_NAMES", "Gate", "Circuit", "circuit_to_text", "circuit_from_text"]

#: name -> (number of qubits, takes an angle)
GATE_NAMES = {
    "X": (1, False),
    "H": (1, False),
    "S": (1, False),
    "SDG": (1, False),
    "RZ": (1, True),
    "CNOT": (2, False),
}


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.name not in GATE_NAMES:
            raise ValueError(f"unknown gate {self.name!r}")
        n_q, takes_angle = GATE_NAMES[self.name]
        if len(self.qubits) != n_q:
            raise ValueError(f"{self.name} takes {n_q} qubit(s), got {self.qubits}")
        if takes_angle != (self.angle is not None):
            raise ValueError(f"{self.name}: angle mismatch (angle={self.angle})")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.name}: repeated qubit in {self.qubits}")


@dataclass
class Circuit:
    """Ordered gate list on a fixed register; indices are validated on add."""

    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        if not 1 <= self.n_qubits <= 20:
            raise ValueError(f"n_qubits must be in [1, 20], got {self.n_qubits}")
        for g in self.gates:
            self._check(g)

    def _check(self, gate: Gate):
        for q in gate.qubits:
            if not 0 <= q < self.n_qubits:
                raise ValueError(
                    f"qubit {q} out of range for {self.n_qubits}-qubit circuit"
                )

    def add(self, name: str, *qubits: int, angle: float | None = None) -> "Circuit":
        gate = Gate(name=name, qubits=tuple(qubits), angle=angle)
        self._check(gate)
        self.gates.append(gate)
        return self

    @property
    def gate_count(self) -> int:
        return len(self.gates)

    def depth(self) -> int:
        """Greedy layering depth: gates on disjoint qubits share a layer."""
        frontier = [0] * self.n_qubits
        for g in self.gates:
            layer = 1 + max(frontier[q] for q in g.qubits)
            for q in g.qubits:
                frontier[q] = layer
        return max(frontier, default=0)


def circuit_to_text(circuit: Circuit) -> str:
    """Serialize one gate per line; header line carries the register size."""
    lines = [f"QUBITS {circuit.n_qubits}"]
    for g in circuit.gates:
        parts = [str(q) for q in g.qubits]
        if g.angle is not None:
            parts.append(f"{g.angle:.17g}")
        lines.append(f"{g.name} {','.join(parts)}")
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    """Parse `circuit_to_text` output; a malformed line is a ValueError naming it.

    The header is exactly `QUBITS n`; each gate line must hold exactly the
    gate's qubits, as integers inside the register, and, for RZ, one finite
    angle.
    """
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    first = lines[0] if lines else ""
    head = re.fullmatch(r"QUBITS\s+(\d+)", first, re.ASCII)
    if head is None:
        raise ValueError(f"circuit text must start with a 'QUBITS n' line, got {first!r}")
    circuit = Circuit(n_qubits=int(head[1]))
    for ln in lines[1:]:
        name, _, rest = ln.partition(" ")
        fields = rest.split(",")
        try:
            if name not in GATE_NAMES:
                raise ValueError("unknown gate")
            n_q, takes_angle = GATE_NAMES[name]
            if len(fields) != n_q + takes_angle:
                raise ValueError(f"{len(fields)} fields, expected {n_q + takes_angle}")
            angle = float(fields[n_q]) if takes_angle else None
            if angle is not None and not math.isfinite(angle):
                raise ValueError("non-finite angle")
            circuit.add(name, *(int(f) for f in fields[:n_q]), angle=angle)
        except ValueError as exc:
            raise ValueError(f"gate line {ln!r}: {exc}") from None
    return circuit
