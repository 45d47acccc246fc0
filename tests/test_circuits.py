"""Gate records, the register check, and the text round-trip."""

import pytest

from cosmopair.circuits import Gate, circuit_from_text, circuit_to_text, gate_count_and_depth


def to_text(gates) -> str:
    return "".join(circuit_to_text(gates))


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
    Gate("X", (3,))
    Gate("CNOT", (0, 3))
    for qubits in ((4,), (-1,), (0, 4)):
        with pytest.raises(ValueError, match="out of range for the 4-qubit register"):
            Gate("CNOT" if len(qubits) == 2 else "X", qubits)


def test_depth_counts_parallel_layers():
    gates = [Gate("X", (0,)), Gate("X", (1,)), Gate("CNOT", (0, 1)), Gate("X", (3,))]
    assert gate_count_and_depth(gates) == (4, 2)
    assert gate_count_and_depth(iter(gates)) == (4, 2)  # one pass over a stream
    assert gate_count_and_depth([]) == (0, 0)


def test_text_round_trip():
    gates = [
        Gate("X", (1,)),
        Gate("H", (0,)),
        Gate("SDG", (2,)),
        Gate("RZ", (3,), angle=-0.05133175791223),
        Gate("RZ", (0,), angle=3.141592653589793),
        Gate("CNOT", (2, 3)),
    ]
    text = to_text(gates)
    assert text.startswith("QUBITS 4\n")
    back = circuit_from_text(text)
    assert back == gates
    # Serialization is stable under a second round trip.
    assert to_text(back) == text


def test_text_is_written_in_chunks():
    gates = [Gate("X", (k % 4,)) for k in range(10000)]
    chunks = list(circuit_to_text(iter(gates)))
    assert chunks[0] == "QUBITS 4\n" and len(chunks) > 2
    assert "".join(chunks[1:]) == "".join(f"X {k % 4}\n" for k in range(10000))
    assert list(circuit_to_text([])) == ["QUBITS 4\n"]


def test_text_parser_skips_comments_and_rejects_garbage():
    text = "# metadata line\nQUBITS 4\nX 0\n"
    assert circuit_from_text(text) == [Gate("X", (0,))]
    with pytest.raises(ValueError):
        circuit_from_text("X 0\n")
    with pytest.raises(ValueError):
        circuit_from_text("QUBITS 4\nFOO 0\n")
    with pytest.raises(ValueError, match="QUBITS 4"):
        circuit_from_text("QUBITS 4 7\nX 0\n")
    with pytest.raises(ValueError, match="QUBITS 4' line, got 'QUBITS x'"):
        circuit_from_text("QUBITS x\nX 0\n")


@pytest.mark.parametrize("header", ["QUBITS 2", "QUBITS 5", "QUBITS 0"])
def test_text_parser_rejects_another_register(header):
    with pytest.raises(ValueError, match=f"'QUBITS 4' line, got '{header}'"):
        circuit_from_text(f"{header}\nX 0\n")


@pytest.mark.parametrize(
    "line",
    ["X 0,1", "H 0,0.5", "CNOT 0,1,2", "RZ 0", "RZ 0,nan", "X 0.5", "RZ 0,abc", "RX 0,0.5",
     "X 4", "CNOT 0,4", "X -1"],
)
def test_text_parser_rejects_malformed_gate_lines(line):
    with pytest.raises(ValueError, match=f"gate line '{line}'"):
        circuit_from_text(f"QUBITS 4\n{line}\n")


def test_angle_serialization_is_bit_exact():
    angle = -0.051331757912230754
    (back,) = circuit_from_text(to_text([Gate("RZ", (0,), angle=angle)]))
    assert back.angle == angle
