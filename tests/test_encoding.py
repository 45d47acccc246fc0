"""Operator embedding, rotation synthesis, and circuit/matrix equivalence."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitstrings import labelled
from cosmopair.background import ModeParams
from cosmopair.circuits import gate_count_and_depth
import cosmopair.encoding as encoding
from cosmopair.encoding import (
    PauliString,
    aq_pauli_sum,
    build_full_circuit,
    pauli_to_matrix,
    phase_aligned_distance,
    slice_chunks,
    slice_cuts,
    step_template,
    synthesize_pauli_rotation,
    zq_pauli_sum,
)
from cosmopair.schedule import build_schedule
from cosmopair.statevector import circuit_unitary, probabilities, run_circuit
from cosmopair.subspace import A_PHYS, PHYS_INDICES, Z_PHYS, evolve, strang_step_unitary

IDX = np.array(PHYS_INDICES)


def restrict(m: np.ndarray) -> np.ndarray:
    return m[np.ix_(IDX, IDX)]


def slice_circuits(schedule) -> list:
    """(angles, gates) of each slice: its `CoeffSchedule.angles`, and its
    `slice_chunks` template instantiated at its row of RZ angles."""
    thetas = zip(*(a.tolist() for a in schedule.angles()))
    gates = (t.instantiate(row) for t, rz in slice_chunks(schedule) for row in rz.tolist())
    return list(zip(thetas, gates, strict=True))


class TestPauliTables:
    def test_number_operator_term_structure(self):
        terms = list(zq_pauli_sum())
        assert len(terms) == 7
        assert terms[0].letters == "IIII" and terms[0].coeff == 0.5
        singles = {t.letters: t.coeff for t in terms[1:5]}
        assert singles == {"ZIII": -0.25, "IZII": 0.25, "IIZI": -0.25, "IIIZ": 0.25}
        doubles = {t.letters: t.coeff for t in terms[5:]}
        assert doubles == {"ZZII": -0.25, "IIZZ": -0.25}

    def test_pair_operator_term_structure(self):
        terms = list(aq_pauli_sum())
        assert len(terms) == 8
        for t in terms:
            assert abs(t.coeff) == 0.125
            assert set(t.letters) <= {"X", "Y"}
            assert t.letters.count("Y") % 2 == 0

    def test_pair_terms_mutually_commute(self):
        mats = [pauli_to_matrix(t) for t in aq_pauli_sum()]
        for i, a in enumerate(mats):
            for b in mats[i + 1 :]:
                assert np.max(np.abs(a @ b - b @ a)) < 1e-14


class TestDenseExpansion:
    def test_leftmost_factor_convention(self):
        # Z on qubit 0 acts on the leading index bit.
        m = pauli_to_matrix(PauliString("ZIII", 1.0))
        assert np.array_equal(np.diag(m).real, [1] * 8 + [-1] * 8)

    def test_hermiticity(self):
        for p in (zq_pauli_sum(), aq_pauli_sum()):
            m = pauli_to_matrix(p)
            assert np.max(np.abs(m - m.conj().T)) < 1e-14

    def test_number_operator_restriction(self):
        sub = restrict(pauli_to_matrix(zq_pauli_sum()))
        assert np.array_equal(sub.real, Z_PHYS)
        assert not np.any(sub.imag)

    def test_pair_operator_restriction_and_offsubspace(self):
        dense = pauli_to_matrix(aq_pauli_sum())
        sub = restrict(dense)
        assert np.array_equal(sub.real, A_PHYS)
        assert sub[0, 3] == 1.0  # vacuum <-> pair element
        # Embedding is exactly the rank-two swap: nothing anywhere else.
        off = dense.copy()
        off[np.ix_(IDX, IDX)] = 0.0
        assert not np.any(off)

    def test_rejects_large_register(self):
        # A string is one letter per register qubit, so no larger one exists.
        for letters in ("Z" * 13, "ZZZ", "", "ZZZW"):
            with pytest.raises(ValueError, match="need 4 of IXYZ"):
                PauliString(letters, 1.0)


class TestRotationSynthesis:
    def test_rejects_identity_string(self):
        with pytest.raises(ValueError):
            synthesize_pauli_rotation(PauliString("IIII", 1.0), 0.1)

    def test_zero_angle_is_identity(self):
        c = synthesize_pauli_rotation(PauliString("XYZI", 1.0), 0.0)
        assert phase_aligned_distance(circuit_unitary(c), np.eye(16)) < 1e-12

    def test_zz_half_turn(self):
        c = synthesize_pauli_rotation(PauliString("ZZII", 1.0), np.pi / 2)
        target = -1j * pauli_to_matrix(PauliString("ZZII", 1.0))
        assert phase_aligned_distance(circuit_unitary(c), target) < 1e-12

    def test_four_qubit_x_string(self):
        p = PauliString("XXXX", 1.0)
        c = synthesize_pauli_rotation(p, 0.1)
        expected = np.cos(0.1) * np.eye(16) - 1j * np.sin(0.1) * pauli_to_matrix(p)
        assert np.max(np.abs(circuit_unitary(c) - expected)) < 1e-12

    @settings(deadline=None, max_examples=40)
    @given(
        letters=st.text(alphabet="IXYZ", min_size=4, max_size=4),
        angle=st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_random_strings_match_dense_form(self, letters, angle):
        if set(letters) == {"I"}:
            return
        p = PauliString(letters, 1.0)
        c = synthesize_pauli_rotation(p, angle)
        expected = np.cos(angle) * np.eye(16) - 1j * np.sin(angle) * pauli_to_matrix(p)
        assert np.max(np.abs(circuit_unitary(c) - expected)) < 1e-12


class TestStepSynthesis:
    def test_radiation_step_is_diagonal(self):
        sched = build_schedule(ModeParams(x=2.0, y_i=-2.5, y_f=-0.5, n_steps=4))
        assert sched.columns()[2][-1] == 0.0
        _, circuit = slice_circuits(sched)[-1]
        assert all(g.name in ("RZ", "CNOT") for g in circuit)
        u = circuit_unitary(circuit)
        off = u - np.diag(np.diag(u))
        assert np.max(np.abs(off)) < 1e-12

    @pytest.mark.parametrize("x,n_steps", [(1.3, 1), (2.0, 5), (3.0, 20)])
    def test_step_unitaries_match_subspace_engine(self, x, n_steps):
        sched = build_schedule(ModeParams(x=x, n_steps=n_steps))
        for angles, gates in slice_circuits(sched):
            dense = circuit_unitary(gates)
            dist = phase_aligned_distance(restrict(dense), strang_step_unitary(*angles))
            assert dist < 1e-10

    def test_pair_block_preserves_physical_subspace(self):
        for theta in (0.01, 0.1, 1.0):
            c = [g for term in aq_pauli_sum()
                 for g in synthesize_pauli_rotation(term, theta * term.coeff)]
            u = circuit_unitary(c)
            outside = np.setdiff1d(np.arange(16), IDX)
            leak = np.max(np.abs(u[np.ix_(outside, IDX)]))
            assert leak < 1e-12


class TestFullCircuit:
    def test_empty_schedule_prepares_vacuum(self):
        circuit = list(build_full_circuit(build_schedule(ModeParams(x=2.0, n_steps=0))))
        assert [g.name for g in circuit] == ["X", "X"]
        probs = probabilities(run_circuit(circuit))
        assert labelled(probs) == {"0101": 1.0}

    def test_two_step_structure(self):
        sched = build_schedule(ModeParams(x=2.0, n_steps=2))
        circuit = list(build_full_circuit(sched))
        (_, first), (_, second) = slice_circuits(sched)
        # Preparation plus two equal-shape split-step blocks.
        assert circuit == [*circuit[:2], *first, *second]
        assert len(circuit) == 2 + 2 * len(first) and len(first) == len(second)

    def test_single_step_gate_count_regression(self):
        # Frozen from the synthesis rules: 2 preparation X gates, two Z
        # half-blocks of 10 gates, and 8 four-qubit rotations of 15..23 gates.
        sched = build_schedule(ModeParams(x=2.0, n_steps=1))
        assert gate_count_and_depth(build_full_circuit(sched)) == (174, 92)

    @pytest.mark.parametrize("x,n_steps", [(1.3, 1), (2.0, 10), (2.0, 100)])
    def test_full_circuit_matches_matrix_engine(self, x, n_steps):
        sched = build_schedule(ModeParams(x=x, n_steps=n_steps))
        final = evolve(sched)
        probs = probabilities(run_circuit(build_full_circuit(sched)))
        for i, j in enumerate(IDX):
            assert abs(probs[j] - abs(final[i]) ** 2) < 1e-10

    def test_single_step_pair_population(self):
        sched = build_schedule(ModeParams(x=1.3, n_steps=1))
        probs = probabilities(run_circuit(build_full_circuit(sched)))
        assert probs[0b1010] == pytest.approx(0.0026326481467, abs=1e-9)


class TestSliceChunks:
    """The one walk over a schedule's slices, shared by the circuit and both engines."""

    @pytest.mark.parametrize(
        "x, y_i, n_steps, chunk, bounds",
        [
            # Radiation from slice 96 (51): the runs cross 128 and 256 and
            # end in a one-slice chunk.
            (1.3, -2.5, 257, 128, [0, 96, 128, 256, 257]),
            (2.0, -2.5, 257, 128, [0, 51, 128, 256, 257]),
            (2.0, -10.0, 7, 4, [0, 4, 6, 7]),
            (2.0, -80.0, 4, 4, [0, 4]),
        ],
    )
    def test_cuts_templates_and_angles(self, monkeypatch, x, y_i, n_steps, chunk, bounds):
        monkeypatch.setattr(encoding, "SCHEDULE_CHUNK", chunk)
        sched = build_schedule(ModeParams(x=x, y_i=y_i, n_steps=n_steps))
        chunks = list(slice_chunks(sched))
        assert np.cumsum([0] + [len(angles) for _, angles in chunks]).tolist() == bounds
        for (template, angles), start, stop in zip(chunks, bounds, bounds[1:]):
            radiation = sched.columns(start, stop)[3].tolist()
            assert radiation == [radiation[0]] * len(radiation)
            assert template is step_template(not radiation[0])
            for thetas, row in zip(zip(*(a.tolist() for a in sched.angles(start, stop))),
                                   angles.tolist()):
                # The Python-float formula of a slice's RZ angles, bit for bit.
                assert row == [2.0 * (thetas[s] * c) for _, s, c in template.rzs]

    def test_cuts_evaluate_no_column(self):
        # The switch of a million slices from a bisection: no 8 MB column.
        sched = build_schedule(ModeParams(x=2.0, y_i=-10.0, n_steps=10**6))
        tracemalloc.start()
        try:
            assert slice_cuts(sched) == (10**6, 800_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024

    def test_empty_sequence_yields_nothing(self):
        sched = build_schedule(ModeParams(x=2.0, n_steps=0))
        assert slice_cuts(sched) == (0, 0)
        assert list(slice_chunks(sched)) == []

    def test_equal_cuts_exactly_when_chunked_alike(self):
        # `slice_cuts` is the key that the noisy channel groups rows by.
        rng = np.random.default_rng(5)
        params = [ModeParams(x=float(rng.choice([1.3, 1.32, 1.6, 2.0, 2.02])),
                             y_i=float(rng.choice([-2.5, -3.0, -10.0])),
                             n_steps=int(rng.choice([1, 127, 128, 129, 256, 257, 300])))
                  for _ in range(60)]
        rows = []
        for p in params:
            sched = build_schedule(p)
            shape = [(template, len(angles)) for template, angles in slice_chunks(sched)]
            rows.append((p, slice_cuts(sched), shape))
        alike_apart = unlike_same_steps = 0
        for (p, key_p, shape_p), (q, key_q, shape_q) in itertools.combinations(rows, 2):
            assert (key_p == key_q) == (shape_p == shape_q)
            alike_apart += key_p == key_q and p != q
            unlike_same_steps += key_p != key_q and p.n_steps == q.n_steps
        assert alike_apart > 0 and unlike_same_steps > 0
