"""The register's gate records, and circuit text serialization.

The register is N_QUBITS = 4 qubits, one momentum pair; `Gate` checks
every qubit against it, so nothing else carries a qubit count.  A circuit
is any iterable of gates, a generator included: `gate_count_and_depth`
measures one in a single pass and `circuit_to_text` writes one in chunks,
so no circuit is held whole.

Gate set: X, H, S, Sdg, RZ(theta), CNOT.  Qubit 0 is the leftmost
position of a measurement bitstring (most significant bit of the state
index).  The text format is a `QUBITS 4` header, then one gate per line,
`NAME q[,q2][,angle]`, angles in radians with 17 significant digits so files
round-trip bit-exactly.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

__all__ = [
    "N_QUBITS", "GATE_NAMES", "Gate", "gate_count_and_depth", "circuit_to_text",
    "circuit_from_text",
]

#: Qubits of the register: one mode pair, two qubits per mode.
N_QUBITS = 4

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
        for q in self.qubits:
            if not 0 <= q < N_QUBITS:
                raise ValueError(f"qubit {q} out of range for the {N_QUBITS}-qubit register")


def gate_count_and_depth(gates: Iterable[Gate]) -> tuple[int, int]:
    """(gates, greedy layering depth) in one pass: gates on disjoint qubits share a layer."""
    frontier = [0] * N_QUBITS
    count = 0
    for count, g in enumerate(gates, 1):
        layer = 1 + max(map(frontier.__getitem__, g.qubits))
        for q in g.qubits:
            frontier[q] = layer
    return count, max(frontier)


def _gate_line(g: Gate) -> str:
    parts = [str(q) for q in g.qubits]
    if g.angle is not None:
        parts.append(f"{g.angle:.17g}")
    return f"{g.name} {','.join(parts)}\n"


def circuit_to_text(gates: Iterable[Gate]) -> Iterator[str]:
    """The `QUBITS 4` header, then one line per gate, as chunks of a few thousand lines."""
    yield f"QUBITS {N_QUBITS}\n"
    lines = map(_gate_line, gates)
    while chunk := "".join(itertools.islice(lines, 4096)):
        yield chunk


def circuit_from_text(text: str) -> list[Gate]:
    """Parse `circuit_to_text` output; a malformed line is a ValueError naming it.

    The header is exactly `QUBITS 4`; each gate line must hold exactly the
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
    if head is None or int(head[1]) != N_QUBITS:
        raise ValueError(
            f"circuit text must start with a 'QUBITS {N_QUBITS}' line, got {first!r}")
    gates = []
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
            gates.append(Gate(name, tuple(int(f) for f in fields[:n_q]), angle))
        except ValueError as exc:
            raise ValueError(f"gate line {ln!r}: {exc}") from None
    return gates
