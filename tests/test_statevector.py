"""Gate kernels, probability extraction, seeded sampling, and observables."""

import contextlib
import functools
import hashlib
import itertools
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitstrings import dist, labelled
from cosmopair.background import ModeParams
from cosmopair.circuits import Gate
import cosmopair.encoding as encoding
from cosmopair.encoding import StepTemplate, build_full_circuit, step_template
from cosmopair.schedule import build_schedule
import cosmopair.statevector as statevector
from cosmopair.statevector import (
    NotNormalizedError,
    circuit_unitary,
    counts_rng,
    derived_seed,
    observables_from_counts,
    observables_from_probabilities,
    probabilities,
    run_circuit,
    run_schedule,
    sample_counts,
)

GATE_EXAMPLES = [
    Gate("X", (0,)),
    Gate("H", (0,)),
    Gate("S", (0,)),
    Gate("SDG", (0,)),
    Gate("RZ", (0,), angle=0.7321),
]


class TestGates:
    def test_x_flips(self):
        out = run_circuit([Gate("X", (0,))])
        assert labelled(out) == {"1000": 1.0}

    def test_h_twice_is_identity(self):
        rx = [Gate("H", (1,)), Gate("RZ", (1,), angle=0.4), Gate("H", (1,))]  # RX(0.4)
        state = run_circuit(rx)
        twice = run_circuit([*rx, Gate("H", (1,)), Gate("H", (1,))])
        assert np.max(np.abs(twice - state)) < 1e-15

    def test_rz_full_turn_is_global_phase(self):
        h = Gate("H", (0,))
        state = run_circuit([h])
        turned = run_circuit([h, Gate("RZ", (0,), angle=2 * np.pi)])
        assert np.allclose(turned, -state)
        probs_before = np.abs(state) ** 2
        probs_after = np.abs(turned) ** 2
        assert np.allclose(probs_before, probs_after)

    @pytest.mark.parametrize("gate", GATE_EXAMPLES)
    def test_single_qubit_unitarity(self, gate):
        u = circuit_unitary([gate])
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-14

    @given(angle=st.floats(min_value=-7.0, max_value=7.0))
    def test_rotation_unitarity_random_angles(self, angle):
        u = circuit_unitary([Gate("RZ", (0,), angle=angle)])
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-14

    def test_cnot_truth_table(self):
        u = circuit_unitary([Gate("CNOT", (0, 1))]).real
        # Qubit 0 is the leftmost bit: |10..> -> |11..>, |11..> -> |10..>.
        expected = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        )
        assert np.array_equal(u, np.kron(expected, np.eye(4)))

    def test_rejects_bad_qubit_index(self):
        with pytest.raises(ValueError, match="out of range"):
            run_circuit([Gate("X", (5,))])

    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40),
           st.floats(min_value=-3.0, max_value=3.0))
    def test_random_circuits_preserve_norm(self, picks, angle):
        gates = []
        names = ["X", "H", "S", "SDG", "RZ", "CNOT"]
        for k, pick in enumerate(picks):
            name = names[pick]
            q = k % 4
            if name == "CNOT":
                gates.append(Gate(name, (q, (q + 1) % 4)))
            else:
                gates.append(Gate(name, (q,), angle if name == "RZ" else None))
        assert abs(np.linalg.norm(run_circuit(gates)) - 1.0) < 1e-12


def _oracle(gate: Gate) -> np.ndarray:
    """The gate's dense 16x16 matrix, a sum of np.kron products of 2x2 matrices."""
    def kron(on):  # {qubit: 2x2}, identity elsewhere; qubit 0 is the leftmost factor
        return functools.reduce(np.kron, [on.get(q, np.eye(2)) for q in range(4)])

    x = np.array([[0, 1], [1, 0]])
    if gate.name == "CNOT":
        control, target = gate.qubits
        return kron({control: np.diag([1, 0])}) + kron({control: np.diag([0, 1]), target: x})
    theta = gate.angle or 0.0
    return kron({gate.qubits[0]: {
        "X": x,
        "H": np.array([[1, 1], [1, -1]]) / np.sqrt(2.0),
        "S": np.diag([1, 1j]),
        "SDG": np.diag([1, -1j]),
        "RZ": np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]),
    }[gate.name]})


class TestGateKernel:
    """`_apply_gate_inplace` against each gate's dense matrix, row by row.

    Case (name, n) takes every placement of the gate on the register whose
    highest qubit is n - 1, so the cases of a gate cover each placement once.
    """

    @pytest.mark.parametrize("name, n", [(name, n) for name in ("X", "H", "S", "SDG", "RZ", "CNOT")
                                         for n in range(1 + (name == "CNOT"), 5)])
    def test_matches_dense_matrix(self, name, n):
        rng = np.random.default_rng(17 * n + len(name))
        arity = 2 if name == "CNOT" else 1
        for qubits in itertools.permutations(range(n), arity):
            if max(qubits) != n - 1:
                continue
            gate = Gate(name, qubits, float(rng.uniform(-7.0, 7.0)) if name == "RZ" else None)
            states = rng.normal(size=(5, 16)) + 1j * rng.normal(size=(5, 16))
            states /= np.linalg.norm(states, axis=1, keepdims=True)
            expected = np.array([_oracle(gate) @ row for row in states])
            statevector._apply_gate_inplace(states, gate)
            if name in ("H", "RZ"):
                assert np.max(np.abs(states - expected)) < 1e-15
            else:  # moves and exact products: equal bit for bit, up to the sign of a zero
                assert np.array_equal(states, expected)


class TestProbabilities:
    def test_basis_state(self):
        c = [Gate("X", (1,)), Gate("X", (3,))]
        assert labelled(probabilities(run_circuit(c))) == {"0101": 1.0}

    def test_bell_pair(self):
        probs = probabilities(run_circuit([Gate("H", (0,)), Gate("CNOT", (0, 1))]))
        assert probs == pytest.approx(dist({"0000": 0.5, "1100": 0.5}))

    def test_evolved_state_supports_only_even_sector(self):
        sched = build_schedule(ModeParams(x=2.0, n_steps=50))
        probs = probabilities(run_circuit(build_full_circuit(sched)))
        assert np.all(np.delete(probs, [0b0101, 0b1010]) < 1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalizedError):
            probabilities(np.array([2.0, 0.0], dtype=complex))


class TestSampling:
    def test_deterministic_point_mass(self):
        counts = sample_counts(dist({"0101": 1.0}), 100, seed=123)
        assert labelled(counts) == {"0101": 100}

    def test_shot_count_limits(self):
        # numpy's multinomial sampler counts in a C long: 2**63 - 1 at most.
        counts = sample_counts(dist({"0": 0.5, "1": 0.5}), 2**63 - 1, seed=1)
        assert int(counts.sum()) == 2**63 - 1
        for shots in (2**63, 2**70):
            with pytest.raises(ValueError, match=f"shots must be <= {2**63 - 1}"):
                sample_counts(dist({"0": 1.0}), shots, seed=1)

    def test_same_seed_same_counts(self):
        probs = dist({"0101": 0.9, "1010": 0.1})
        a = sample_counts(probs, 8192, seed=7)
        b = sample_counts(probs, 8192, seed=7)
        assert np.array_equal(a, b)
        c = sample_counts(probs, 8192, seed=8)
        assert not np.array_equal(c, a)

    def test_zero_probability_states_get_no_counts(self):
        # numpy hands the last category of a draw what the others leave; over
        # the whole array, 66 of these shots landed on zero-probability states.
        literal = {"0001": 72 / 305, "0100": 94 / 305, "0110": 88 / 305, "1001": 51 / 305}
        counts = sample_counts(dist(literal), 2**62, seed=3)
        support = [int(s, 2) for s in literal]
        assert int(counts.sum()) == 2**62
        assert not np.any(np.delete(counts, support))
        expected = counts_rng(3).multinomial(2**62, list(literal.values()))
        assert counts[support].tolist() == expected.tolist()

    def test_frozen_generator_vector(self):
        # Philox(SeedSequence(7)) regression pin: flags any silent change of
        # generator, seeding path, or key ordering.
        counts = sample_counts(dist({"0101": 0.9, "1010": 0.1}), 1000, seed=7)
        assert labelled(counts) == {"0101": 893, "1010": 107}

    def test_binomial_scale(self):
        shots = 131072
        counts = sample_counts(dist({"0101": 0.9, "1010": 0.1}), shots, seed=7)
        sigma = np.sqrt(0.1 * 0.9 / shots)
        assert abs(counts[0b1010] / shots - 0.1) < 4 * sigma

    def test_total_is_shots(self):
        counts = sample_counts(dist({"0101": 0.5, "0110": 0.25, "1010": 0.25}), 999, seed=1)
        assert counts.sum() == 999

    def test_clamps_tiny_negatives(self):
        counts = sample_counts(dist({"01": 1.0, "10": -1e-13}), 50, seed=0)
        assert labelled(counts) == {"01": 50}

    def test_rejects_real_negatives(self):
        with pytest.raises(ValueError):
            sample_counts(dist({"01": 1.1, "10": -0.1}), 50, seed=0)

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            sample_counts(dist({"01": 0.5}), 50, seed=0)

    def test_seed_streams_are_keyed_by_seed_sequence(self):
        def philox(entropy):
            return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(entropy)))

        assert np.array_equal(counts_rng(7).random(4), philox(7).random(4))
        assert np.array_equal(counts_rng(7, 3).random(4), philox([7, 3]).random(4))
        assert derived_seed(5, 1, 2) == int(
            np.random.SeedSequence([5, 1, 2]).generate_state(1)[0]
        )


class TestObservables:
    def test_vacuum_counts(self):
        counts = dist({"0101": 4096}, int)
        obs = observables_from_counts(counts)
        assert (obs.n_plus, obs.n_minus, obs.p_pair, obs.leakage) == (0, 0, 0, 0)

    def test_pair_fraction(self):
        counts = dist({"0101": 4000, "1010": 96}, int)
        obs = observables_from_counts(counts)
        assert obs.p_pair == pytest.approx(96 / 4096)
        assert obs.n_plus == obs.p_pair and obs.n_minus == obs.p_pair
        assert obs.leakage == pytest.approx(0.0, abs=1e-15)
        assert obs.stderr_pair == pytest.approx(
            np.sqrt(obs.p_pair * (1 - obs.p_pair) / 4096)
        )

    def test_counts_and_distribution_share_one_definition(self):
        literal = {"0101": 900, "1001": 30, "0110": 20, "1010": 40, "1111": 10}
        counts = dist(literal, int)
        from_counts = observables_from_counts(counts)
        exact = observables_from_probabilities(dist({s: c / 1000 for s, c in literal.items()}))
        assert (from_counts.n_plus, from_counts.n_minus, from_counts.p_pair,
                from_counts.leakage) == (exact.n_plus, exact.n_minus, exact.p_pair,
                                         exact.leakage)
        assert exact.stderr_pair == 0.0
        assert from_counts.stderr_pair == np.sqrt(0.04 * 0.96 / 1000)

    def test_frequencies_round_once_above_2_53_shots(self):
        # A float division rounds the shot count first, then the quotient.
        shots = 2**60 + 75
        counts = dist({"0101": shots - 7, "1010": 7}, int)
        obs = observables_from_counts(counts)
        assert obs.p_pair == 7 / shots != np.float64(7) / np.float64(shots)

    def test_unphysical_string_counts_as_leakage(self):
        counts = dist({"0101": 4000, "0000": 96}, int)
        obs = observables_from_counts(counts)
        assert obs.p_pair == 0.0
        assert obs.leakage == pytest.approx(96 / 4096)

    @pytest.mark.parametrize(
        "counts", [dist({"0101": 0.9, "1010": 0.1}), np.zeros(16, dtype=np.int64)],
        ids=["probabilities", "no_shots"],
    )
    def test_rejects_what_is_not_a_draw(self, counts):
        # int() of a probability would truncate every frequency to zero.
        with pytest.raises(ValueError, match="counts must"):
            observables_from_counts(counts)


class TestSerialization:
    def test_counts_csv_sorted(self):
        from cosmopair.statevector import counts_to_csv

        counts = dist({"1010": 3, "0101": 7}, int)
        assert counts_to_csv(counts) == "bitstring,count\n0101,7\n1010,3\n"


class TestEngineEquivalence:
    @pytest.mark.parametrize("x", [1.3, 2.0])
    @pytest.mark.parametrize("n_steps", [1, 10, 100])
    def test_populations_match_matrix_engine(self, x, n_steps):
        from cosmopair.subspace import PHYS_INDICES, evolve

        sched = build_schedule(ModeParams(x=x, n_steps=n_steps))
        final = evolve(sched)
        probs = probabilities(run_circuit(build_full_circuit(sched)))
        for i, j in enumerate(PHYS_INDICES):
            assert abs(probs[j] - abs(final[i]) ** 2) < 1e-10

    def test_noiseless_leakage_vanishes(self):
        sched = build_schedule(ModeParams(x=1.5, n_steps=100))
        probs = probabilities(run_circuit(build_full_circuit(sched)))
        leak = 1.0 - sum(probs[[0b0101, 0b1001, 0b0110, 0b1010]])
        assert abs(leak) < 1e-10


def gatewise_digest(amps) -> str:
    """sha256 of an amplitude array's bytes, with -0.0 read as 0.0."""
    return hashlib.sha256((amps + 0.0).tobytes()).hexdigest()


class TestGateByGateBytes:
    """Gate-by-gate bytes, pinned: `tests/test_golden.py` sees only `run_schedule`.

    Taken before each gate kind got its own in-place kernel; only signed
    zeros may differ from them.
    """

    @pytest.mark.parametrize(
        "x, n_steps, digest",
        [
            (1.3, 1, "af27337ff2e005edf3a782c7ab1d201e3fd3ef1b5c65767d9ecc431625712e3b"),
            (1.3, 10, "611fbd71863e3f8859e343af01d60cc4ce487ca21c08c1192d2c3aa285cebf08"),
            (1.3, 257, "82062de5518945b7d6bff230795a642d824964567c8aa674655769925d6f5417"),
            (2.0, 1, "6c8943eaf6b7432997783916cc8b67096c25e09d825dfb796fb72e7871bba9a6"),
            (2.0, 10, "32895d3b67c85e1c1f43cdfd172307da4f8fb5cd4843004a4aa444fcd9366059"),
            (2.0, 257, "25b58b03ccdf18e58ea4205cabcc9fbd5f1aa3956781365b17a5df2b1e952151"),
        ],
    )
    def test_run_circuit(self, x, n_steps, digest):
        circuit = build_full_circuit(build_schedule(ModeParams(x, n_steps=n_steps)))
        assert gatewise_digest(run_circuit(circuit)) == digest

    @pytest.mark.parametrize(
        "with_pair, digest",
        [
            (False, "3a0f786b9d4c2242a3b8e2dd274652562fdc38975cc8224a18bf97841b059d12"),
            (True, "a7ce222ab21c4d3e516b8e9c5f77ae9080a900adc073b6ef374bd08526d2e5f5"),
        ],
    )
    def test_template_runs(self, with_pair, digest):
        # The fixed runs that `run_schedule` compiles, each through `circuit_unitary`.
        runs = step_template(with_pair).runs
        unitaries = np.stack([circuit_unitary(run) for run in runs])
        assert gatewise_digest(unitaries) == digest


def _window(x, y_i, y_f, n_steps):
    """Schedule over any window; ModeParams insists the transition is inside."""
    return build_schedule(SimpleNamespace(x=x, y_i=y_i, y_f=y_f, n_steps=n_steps))


SCHEDULE_WINDOWS = {
    "de_sitter": lambda n: _window(2.0, -80.0, -3.0, n),  # y_f < -x
    "radiation": lambda n: _window(2.0, -2.0, 0.0, n),  # y_i >= -x
    "default": lambda n: build_schedule(ModeParams(x=2.0, n_steps=n)),
}


@contextlib.contextmanager
def _full_polynomial():
    """Compile slice maps with every term kept, as before void terms were dropped."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(statevector, "_VOID_TERM", 0.0)
        statevector._slice_map.cache_clear()
        try:
            yield
        finally:
            statevector._slice_map.cache_clear()


def _compiled_unitaries(template, angles) -> np.ndarray:
    """(slices, 16, 16) stack of `template`'s compiled slice maps at rows of
    its RZ angles, every entry evaluated as `_block_entries` evaluates its four."""
    out, inn, refs, powers, coeffs = statevector._slice_map(template)
    phases = np.exp(0.5j * angles[:, refs, None] * powers.T).prod(axis=1)
    u = phases[:, :1] * coeffs[0]
    for t in range(1, len(coeffs)):
        u += phases[:, t:t + 1] * coeffs[t]
    u = u.reshape(-1, 16, 16)
    return (statevector._diagonal(angles, *out)[:, :, None] * u
            * statevector._diagonal(angles, *inn)[:, None, :])


def _max_amplitude_diff(sched) -> float:
    fused = run_schedule(sched)
    gatewise = run_circuit(build_full_circuit(sched))
    return float(np.max(np.abs(fused - gatewise)))


class TestRunSchedule:
    """The segment runner against gate-by-gate replay of the same circuit."""

    @pytest.mark.parametrize("window", sorted(SCHEDULE_WINDOWS))
    @pytest.mark.parametrize("n_steps", [1, 7, 1000])
    def test_matches_gate_by_gate(self, window, n_steps):
        sched = SCHEDULE_WINDOWS[window](n_steps)
        radiation = set(sched.columns()[3].tolist())
        if window == "de_sitter":
            assert radiation == {False}
        if window == "radiation":
            assert radiation == {True}
        assert _max_amplitude_diff(sched) < 1e-12

    def test_default_window_changes_template_inside_a_chunk(self):
        # The N=1000 case above spans several chunks, and its de Sitter to
        # radiation switch falls strictly inside one of them.
        sched = SCHEDULE_WINDOWS["default"](1000)
        first = int(np.argmax(sched.columns()[3]))
        assert len(sched) > encoding.SCHEDULE_CHUNK
        assert first % encoding.SCHEDULE_CHUNK != 0

    def test_small_chunks(self, monkeypatch):
        # Chunks of 4 over 7 slices, the radiation slice inside the second.
        monkeypatch.setattr(encoding, "SCHEDULE_CHUNK", 4)
        sched = build_schedule(ModeParams(x=2.0, y_i=-10.0, n_steps=7))
        assert sched.columns()[3][-2:].tolist() == [False, True]
        assert _max_amplitude_diff(sched) < 1e-12

    @settings(deadline=None, max_examples=40)
    @given(
        with_pair=st.booleans(),
        thetas=st.lists(
            st.tuples(*[st.just(0.0) | st.floats(-1e3, 1e3)] * 2), min_size=1, max_size=5
        ),
    )
    def test_blocks_match_instantiated_template(self, with_pair, thetas):
        template = step_template(with_pair)
        self._assert_blocks_match(template, template.rz_angles(thetas))

    @staticmethod
    def _assert_blocks_match(template, angles=None):
        # The compiled maps on all 256 entries, and the (vacuum, pair) entries
        # that `run_schedule` computes, bit for bit those of the full maps.
        if angles is None:
            angles = template.rz_angles([[0.3, -0.7], [1.1, 0.05]])
        maps = _compiled_unitaries(template, angles)
        for u, row in zip(maps, angles.tolist()):
            gatewise = circuit_unitary(template.instantiate(row))
            assert np.max(np.abs(u - gatewise)) < 1e-14
        block = maps[:, [5, 5, 10, 10], [5, 10, 5, 10]].T
        assert statevector._block_entries(template, angles).tobytes() == block.tobytes()

    @pytest.mark.parametrize("with_pair", [True, False])
    def test_block_is_decoupled_in_the_compiled_map(self, with_pair):
        # The premise of `run_schedule`: every coefficient coupling the
        # (vacuum, pair) block to the other 14 states is rounding residue,
        # at most 3.3e-31, and exactly 0 for the radiation shape.  The edge
        # diagonals are phases, so the slice maps couple no more than that.
        template = step_template(with_pair)
        _, _, _, _, coeffs = statevector._slice_map(template)
        in_block = np.isin(np.arange(16), [0b0101, 0b1010])
        cross = in_block[:, None] != in_block[None, :]  # the 2 * 2 * 14 couplings
        coupling = np.abs(coeffs.reshape(-1, 16, 16)[:, cross])
        assert coupling.sum(axis=0).max() <= 1e-30
        maps = _compiled_unitaries(template, template.rz_angles([[0.3, -0.7], [1.1, 0.05]]))
        leak = np.abs(maps[:, cross])
        assert leak.max() <= 1e-30
        if not with_pair:
            assert not np.any(coupling) and not np.any(leak)

    def test_segments_of_permuting_runs(self):
        # The real templates open with an RZ; this one opens with a fixed
        # run, and its runs permute and hold H.
        template = StepTemplate(
            runs=(
                (Gate("CNOT", (0, 1)), Gate("CNOT", (1, 0))),
                (Gate("X", (2,)), Gate("S", (3,)), Gate("H", (1,)), Gate("CNOT", (1, 3)),
                 Gate("SDG", (0,))),
                (Gate("H", (0,)), Gate("CNOT", (3, 2))),
            ),  # the first run's permutation is a 3-cycle, not an involution
            rzs=(((1,), 0, 0.25), ((3,), 1, -0.125)),
        )
        self._assert_blocks_match(template)

    def test_folded_permutations_keep_gate_order(self):
        # Each permutation run here fails to commute with the run before it,
        # into which it is folded; the last run is one of them.
        template = StepTemplate(
            runs=(
                (Gate("H", (0,)),),
                (Gate("CNOT", (0, 1)), Gate("X", (2,))),
                (Gate("CNOT", (1, 2)), Gate("H", (1,))),
                (Gate("CNOT", (2, 0)),),
            ),
            rzs=(((0,), 0, 0.5), ((1,), 1, -0.25), ((2,), 0, 0.125)),
        )
        assert len(statevector._slice_segments(template)) == 2
        self._assert_blocks_match(template)

    def test_permuting_runs_fold_away(self):
        # CNOT ladders fold into their neighbours: the radiation shape is one
        # diagonal, the pair shape one stacked product per basis change.
        (run, rzs, neg), = statevector._slice_segments(step_template(False))
        assert np.array_equal(run, np.eye(16)) and rzs.shape == (12,)
        assert len(statevector._slice_segments(step_template(True))) == 10

    def test_slice_maps(self):
        # The pair shape: its eight pair RZs at +-theta_a/4 give nine powers
        # of exp(0.5j * angle) of the first, exp(1j * k * theta_a / 8) for
        # k = -8, -6, ..., 8, of which k = -8, 0, 8 are kept and the six void
        # ones dropped; the Z half-blocks stay edge diagonals, the opening one
        # carried through the empty, so permuting, run before it.
        out, inn, refs, powers, coeffs = statevector._slice_map(step_template(True))
        assert out[0].tolist() == list(range(14, 20)) and inn[0].tolist() == list(range(6))
        assert refs.tolist() == [6] and powers.ravel().tolist() == [-8, 0, 8]
        assert coeffs.shape == (3, 256)
        # The radiation shape: one diagonal around the identity.
        out, inn, refs, powers, coeffs = statevector._slice_map(step_template(False))
        assert out[0].tolist() == list(range(12)) and inn[0].size == 0
        assert refs.size == 0 and powers.shape == (1, 0)
        assert np.array_equal(coeffs.reshape(16, 16), np.eye(16))

    @pytest.mark.parametrize("x", [1.3, 2.0, 2.3])
    @pytest.mark.parametrize("y_i, n_steps", [
        (-80.0, 1), (-80.0, 57), (-80.0, 257), (-80.0, 1000),
        (-10.0, 10), (-10.0, 57), (-10.0, 1000), (-2.5, 257), (-2.5, 1000),
    ])
    def test_dropped_terms_move_no_reported_bit(self, x, y_i, n_steps):
        # The golden windows: from -80, the 10-slice radiation window from
        # -10 and the 257-slice chunk window from -2.5.  Dropping the void
        # terms moves amplitudes by about 1e-27, below every probability that
        # sampling reads (1e-15) and below p_pair and leakage.
        sched = build_schedule(ModeParams(x=x, y_i=y_i, n_steps=n_steps))
        with _full_polynomial():
            full = run_schedule(sched)
        amps = run_schedule(sched)
        assert np.max(np.abs(amps - full)) < 1e-24
        p_full, p = np.abs(full) ** 2, np.abs(amps) ** 2
        read = p_full >= 1e-15
        assert np.array_equal(p >= 1e-15, read)
        assert p[read].tobytes() == p_full[read].tobytes()
        obs, obs_full = observables_from_probabilities(p), observables_from_probabilities(p_full)
        assert (obs.p_pair, obs.leakage) == (obs_full.p_pair, obs_full.leakage)

    def test_full_polynomial_keeps_all_nine_terms(self):
        with _full_polynomial():
            _, _, _, powers, coeffs = statevector._slice_map(step_template(True))
        assert powers.ravel().tolist() == list(range(-8, 9, 2)) and coeffs.shape == (9, 256)
        void = np.abs(coeffs[[1, 2, 3, 5, 6, 7]]).max()
        assert 0.0 < void < 1e-30  # rounding residue, 1e-28 below the 0.5 of k = +-8
        assert np.abs(coeffs[[0, 8]]).max() == pytest.approx(0.5)

    def test_empty_schedule_is_prepared_vacuum(self):
        sched = build_schedule(ModeParams(x=2.0, n_steps=0))
        amps = run_schedule(sched)
        assert np.array_equal(amps, run_circuit(build_full_circuit(sched)))
        assert amps[0b0101] == 1.0

    def test_memory_does_not_grow_with_steps(self):
        def peak(n_steps):
            sched = SCHEDULE_WINDOWS["default"](n_steps)
            tracemalloc.start()
            try:
                run_schedule(sched)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(1000), peak(20000)
        assert large <= small + 64 * 1024
        assert large < 4 * 1024 * 1024

    def test_stacked_products_stay_on_one_thread(self):
        # No product in run_schedule may start a BLAS thread.  Summing the
        # slice polynomials as one (slices, 9) @ (9, 256) product, or building
        # the slices as one tall (m*16, 16) product, lets OpenBLAS start a
        # second thread: CPU about 2x wall instead of 1x.
        src = str(Path(statevector.__file__).resolve().parents[1])
        # Importing cosmopair sets OPENBLAS_NUM_THREADS=1 in this process's
        # environment unless it was set, and the child would inherit it: one
        # thread would hide the second thread this test exists to catch.  The
        # child gets two, what OpenBLAS starts by default on two CPUs.
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": "2",
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        # OpenBLAS's worker threads spin for a while after the library loads,
        # so the timed region starts after a warm-up run and once this process
        # uses no CPU while it sleeps.
        code = textwrap.dedent("""
            import time
            from cosmopair.background import ModeParams
            from cosmopair.schedule import build_schedule
            from cosmopair.statevector import run_schedule
            sched = build_schedule(ModeParams(x=2.0, n_steps=2000))
            run_schedule(sched)
            for _ in range(100):
                cpu = time.process_time()
                time.sleep(0.05)
                if time.process_time() - cpu < 0.005:
                    break
            wall, cpu = time.perf_counter(), time.process_time()
            run_schedule(sched)
            print(time.process_time() - cpu, time.perf_counter() - wall)
        """)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        cpu, wall = map(float, out.stdout.split())
        assert cpu <= 1.3 * wall, (cpu, wall)
