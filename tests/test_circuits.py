"""Gate records, circuit validation, and the text round-trip."""

import pytest

from cosmopair.circuits import Circuit, Gate, circuit_from_text, circuit_to_text


def test_gate_validation():
    Gate("X", (0,))
    Gate("RZ", (1,), angle=0.5)
    Gate("CNOT", (0, 1))
    with pytest.raises(ValueError):
        Gate("X", (0, 1))
    with pytest.raises(ValueError):
        Gate("RZ", (0,))  # missing angle
    with pytest.raises(ValueError):
        Gate("X", (0,), angle=1.0)  # spurious angle
    with pytest.raises(ValueError):
        Gate("CNOT", (1, 1))  # control == target
    with pytest.raises(ValueError):
        Gate("T", (0,))


def test_circuit_index_validation():
    c = Circuit(n_qubits=2)
    c.add("X", 0).add("CNOT", 0, 1)
    with pytest.raises(ValueError):
        c.add("X", 2)
    with pytest.raises(ValueError):
        Circuit(n_qubits=21)


def test_depth_counts_parallel_layers():
    c = Circuit(n_qubits=4)
    c.add("X", 0).add("X", 1).add("CNOT", 0, 1).add("X", 3)
    assert c.depth() == 2
    assert c.gate_count == 4


def test_text_round_trip():
    c = Circuit(n_qubits=4)
    c.add("X", 1)
    c.add("H", 0)
    c.add("SDG", 2)
    c.add("RZ", 3, angle=-0.05133175791223)
    c.add("RZ", 0, angle=3.141592653589793)
    c.add("CNOT", 2, 3)
    text = circuit_to_text(c)
    back = circuit_from_text(text)
    assert back.n_qubits == 4
    assert back.gates == c.gates
    # Serialization is stable under a second round trip.
    assert circuit_to_text(back) == text


def test_text_parser_skips_comments_and_rejects_garbage():
    text = "# metadata line\nQUBITS 2\nX 0\n"
    assert circuit_from_text(text).gates == [Gate("X", (0,))]
    with pytest.raises(ValueError):
        circuit_from_text("X 0\n")
    with pytest.raises(ValueError):
        circuit_from_text("QUBITS 2\nFOO 0\n")
    with pytest.raises(ValueError, match="QUBITS n"):
        circuit_from_text("QUBITS 2 7\nX 0\n")
    with pytest.raises(ValueError, match="QUBITS n' line, got 'QUBITS x'"):
        circuit_from_text("QUBITS x\nX 0\n")


@pytest.mark.parametrize(
    "line",
    ["X 0,1", "H 0,0.5", "CNOT 0,1,2", "RZ 0", "RZ 0,nan", "X 0.5", "RZ 0,abc", "RX 0,0.5"],
)
def test_text_parser_rejects_malformed_gate_lines(line):
    with pytest.raises(ValueError, match=f"gate line '{line}'"):
        circuit_from_text(f"QUBITS 3\n{line}\n")


def test_angle_serialization_is_bit_exact():
    angle = -0.051331757912230754
    c = Circuit(n_qubits=1)
    c.add("RZ", 0, angle=angle)
    assert circuit_from_text(circuit_to_text(c)).gates[0].angle == angle
