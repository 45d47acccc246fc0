"""Noise model validation, readout channel, and the exact noisy channel.

The channel is checked against two references that do not use its Pauli
coefficients: a per-shot Monte-Carlo replay of the same stochastic-Pauli
model, by a chi-squared test of the replay's counts, and a dense density
matrix evolved gate by gate through each unitary and the Pauli sum of each
depolarizing map.
"""

import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
from functools import cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from bitstrings import dist, labelled
from dispatch_probe import (
    distributions_digest,
    openblas_core_types,
    schedule_digest,
    wide_simd_targets,
)

import cosmopair
import cosmopair.encoding as encoding
import cosmopair.noise as noise
from cosmopair.background import ModeParams
from cosmopair.circuits import Gate
from cosmopair.encoding import PauliString, build_full_circuit, pauli_to_matrix
from cosmopair.noise import (
    NoiseModel,
    _gate_run,
    apply_readout_noise,
    noisy_distributions,
)
from cosmopair.schedule import build_schedule
from cosmopair.statevector import (
    _apply_gate_inplace,
    circuit_unitary,
    counts_rng,
    observables_from_counts,
    probabilities,
    run_circuit,
    run_schedule,
    sample_counts,
)
from cosmopair.subspace import PHYS_INDICES, evolve, pair_chunks, propagate


def circuit_of(params):
    """The schedule circuit the channel stands for, as a list of gates."""
    return list(build_full_circuit(build_schedule(params)))


def single_step_circuit(x=1.3, n_steps=1):
    return circuit_of(ModeParams(x=x, n_steps=n_steps))


def channel(params, model):
    """The channel's distribution of one window under one model: a 1 x 1 grid."""
    return noisy_distributions([build_schedule(params)], [model])[0, 0]


def hand_built_two_qubit():
    """Two CNOTs on qubits 0 and 1; each H, RZ(theta), H is RX(theta)."""
    rx = [Gate("H", (0,)), Gate("RZ", (0,), angle=0.7), Gate("H", (0,))]
    return [*rx, Gate("H", (1,)), Gate("CNOT", (1, 0)), Gate("H", (1,)),
            Gate("RZ", (1,), angle=-1.9), Gate("H", (1,)), Gate("CNOT", (0, 1)), Gate("H", (0,))]


def test_hand_built_two_qubit_bytes():
    """Its gate-by-gate bytes on qubits 0 and 1, pinned as in
    test_statevector.TestGateByGateBytes: entries 0, 4, 8, 12, where qubits
    2 and 3 read 0, taken when the circuit ran on a two-qubit register."""
    circuit, two = hand_built_two_qubit(), np.arange(0, 16, 4)
    digests = [hashlib.sha256((a + 0.0).tobytes()).hexdigest()
               for a in (run_circuit(circuit)[two], circuit_unitary(circuit)[np.ix_(two, two)])]
    assert digests == ["b07c98cc83638c64f3963d7bced7df70c177993c6c259971aef79d8ae48d58a9",
                       "a609e9787e22f8c2b80de968f691c6d96d9fef1ff0c0fceccb86f61dea9a7bbe"]


# ---------------------------------------------------------------------------
# Reference: per-shot Monte-Carlo trajectories of the same model.  Each shot
# draws an injection mask, one uniformly random non-identity Pauli per
# injection, the measured string and the readout flips; an injected shot
# replays every gate after its first injection on its own vector, from the
# stored ideal state after that gate.
# ---------------------------------------------------------------------------

PAULI_2X2 = {"X": np.array([[0, 1], [1, 0]], dtype=complex),
             "Y": np.array([[0, -1j], [1j, 0]]),
             "Z": np.diag([1.0, -1.0]).astype(complex)}


def apply_pauli(amps, q, letter):
    """Pauli `letter` on qubit q of a state or a batch of states, by its 2x2 matrix."""
    m = PAULI_2X2[letter]
    view = amps.reshape(-1, 2, 2 ** (3 - q))
    a0, a1 = view[:, 0].copy(), view[:, 1].copy()
    view[:, 0], view[:, 1] = m[0, 0] * a0 + m[0, 1] * a1, m[1, 0] * a0 + m[1, 1] * a1


def _replay_inject(rng, amps, gate):
    if gate.name == "CNOT":
        pair = int(rng.integers(15)) + 1
        for q, letter in zip(gate.qubits, ("IXYZ"[pair // 4], "IXYZ"[pair % 4])):
            if letter != "I":
                apply_pauli(amps, q, letter)
    else:
        apply_pauli(amps, gate.qubits[0], "XYZ"[int(rng.integers(3))])


def replay_noisy_circuit(gates, model, shots, seed):
    n = 4
    rates = np.array([model.p2 if g.name == "CNOT" else model.p1 for g in gates])
    prefixes = np.empty((len(gates) + 1, 2**n), dtype=complex)
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    prefixes[0] = state
    for k, gate in enumerate(gates):
        _apply_gate_inplace(state, gate)
        prefixes[k + 1] = state
    ideal_cum = np.cumsum(np.abs(prefixes[-1]) ** 2)

    counts = np.zeros(2**n, dtype=np.int64)
    for shot in range(shots):
        rng = counts_rng(seed, shot)
        injected = np.nonzero(rng.random(len(gates)) < rates)[0]
        if injected.size == 0:
            cum = ideal_cum
        else:
            first = int(injected[0])
            amps = prefixes[first + 1].copy()
            inject_set = set(int(g) for g in injected)
            _replay_inject(rng, amps, gates[first])
            for k in range(first + 1, len(gates)):
                _apply_gate_inplace(amps, gates[k])
                if k in inject_set:
                    _replay_inject(rng, amps, gates[k])
            cum = np.cumsum(np.abs(amps) ** 2)
        index = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        observed = sum(
            int(rng.random() >= model.readout[q][0, (index >> (n - 1 - q)) & 1]) << (n - 1 - q)
            for q in range(n)
        )
        counts[observed] += 1
    return counts


def assert_counts_follow(counts, probs):
    """Pearson chi-squared of the counts against `probs`, below its 1 - 1e-6 quantile.

    Bins are taken in increasing expected count and merged until each group
    expects at least 5 shots; a short last group joins the one before it.
    """
    assert counts.shape == probs.shape
    groups, expected, observed = [], 0.0, 0
    for e, o in sorted(zip((int(counts.sum()) * probs).tolist(), counts.tolist())):
        expected, observed = expected + e, observed + o
        if expected >= 5.0:
            groups.append((expected, observed))
            expected, observed = 0.0, 0
    if expected:
        e, o = groups.pop()
        groups.append((e + expected, o + observed))
    stat = sum((o - e) ** 2 / e for e, o in groups)
    assert stat < chi2.isf(1e-6, len(groups) - 1), (stat, len(groups) - 1)


# ---------------------------------------------------------------------------
# Reference: the dense 16 x 16 density matrix of each model.  Each gate
# applies U rho U^dagger, U its `circuit_unitary` on the whole register, then
# its depolarizing map as the Pauli sum it stands for,
# (1 - p) rho + p/(d²-1) Σ P rho P over the d² - 1 non-identity Paulis P on
# the gate's qubits, from `pauli_to_matrix`; the diagonal goes through the
# model's readout.  `circuit_unitary`'s H is the rounded 1/sqrt(2), so each H
# scales rho by the same factor, which takes the trace to 1 - 1.4e-13 at
# N = 12; dividing the diagonal by the trace takes that factor out of the
# reference, not the channel, whose tableau H is exact.
# ---------------------------------------------------------------------------

@cache
def _gate_paulis(qubits):
    """The non-identity Pauli matrices on `qubits` of the register."""
    paulis = []
    for code in range(1, 4 ** len(qubits)):
        letters = ["I"] * 4
        for j, q in enumerate(reversed(qubits)):
            letters[q] = "IXYZ"[(code >> 2 * j) & 3]
        paulis.append(pauli_to_matrix(PauliString("".join(letters), 1.0)))
    return paulis


def dense_reference(circuit, models):
    rho = np.zeros((len(models), 16, 16), dtype=complex)
    rho[:, 0, 0] = 1.0
    for gate in circuit:
        u = circuit_unitary([gate])
        rho = u @ rho @ u.conj().T
        paulis = _gate_paulis(gate.qubits)
        p = np.array([m.p2 if gate.name == "CNOT" else m.p1 for m in models])[:, None, None]
        rho = (1.0 - p) * rho + p / len(paulis) * sum(pauli @ rho @ pauli for pauli in paulis)
    diagonals = rho.diagonal(axis1=1, axis2=2).real
    return [apply_readout_noise(d / d.sum(), m) for d, m in zip(diagonals, models)]


_GATE_NAMES = ("X", "H", "S", "SDG", "RZ", "CNOT")


@st.composite
def _gates(draw):
    name = draw(st.sampled_from(_GATE_NAMES))
    if name == "CNOT":
        control = draw(st.integers(0, 3))
        target = draw(st.integers(0, 3).filter(lambda t: t != control))
        return Gate(name, (control, target))
    angle = draw(st.floats(-7.0, 7.0)) if name == "RZ" else None
    return Gate(name, (draw(st.integers(0, 3)),), angle)


_C0 = np.array([[0.97, 0.05], [0.03, 0.95]])
_C1 = _C0[::-1, ::-1].copy()

#: One model at each rate corner, keep = 1 (p = 0), keep = 0 (p1 = 3/4,
#: p2 = 15/16) and keep < 0 (p = 1), all under one asymmetric readout.
CORNERS = [NoiseModel(readout=(_C0, _C1, _C1, _C0), p1=p1, p2=p2)
           for p1, p2 in ((0.0, 0.0), (0.75, 15 / 16), (1.0, 1.0))]


def mixed_batch():
    """(params, models): a grid of windows at x in {1.3, 2.2} and N in {1, 3, 10}
    by models at the rate corners keep = 1 (p = 0), keep = 0 (p1 = 3/4,
    p2 = 15/16) and keep < 0 (p = 1), and under two readouts."""
    models = [
        NoiseModel.symmetric(),
        NoiseModel.symmetric(epsilon=0.02, p2=0.0, p1=0.0),
        NoiseModel.symmetric(epsilon=0.02, p2=15 / 16, p1=0.75),
        NoiseModel.symmetric(epsilon=0.02, p2=1.0, p1=1.0),
        NoiseModel(readout=(_C0, _C1, _C1, _C0), p1=3e-4, p2=3e-3),
        NoiseModel(readout=(_C1, _C0, _C0, _C1), p1=3e-4, p2=3e-3),
    ]
    return [ModeParams(x=x, n_steps=n) for x in (1.3, 2.2) for n in (1, 3, 10)], models


class TestNoiseModel:
    def test_default_magnitudes(self):
        m = NoiseModel.symmetric()
        assert m.p2 == 2.80e-3
        assert m.p1 == 2.80e-4
        assert m.readout[0][1, 0] == 1.49e-2
        assert len(m.readout) == 4

    def test_scaling_touches_rates_only(self):
        m = NoiseModel.symmetric().scaled(1.5)
        assert m.p2 == pytest.approx(4.2e-3)
        assert m.p1 == pytest.approx(4.2e-4)
        assert m.readout[0][1, 0] == 1.49e-2

    def test_json_round_trip(self):
        m = NoiseModel.symmetric(epsilon=0.02, p2=1e-3, p1=2e-4)
        back = NoiseModel.from_json(m.to_json())
        assert back.p1 == m.p1 and back.p2 == m.p2
        for a, b in zip(back.readout, m.readout):
            assert np.array_equal(a, b)

    def test_rejects_non_stochastic_confusion(self):
        bad = np.array([[0.9, 0.0], [0.2, 1.0]])
        with pytest.raises(ValueError):
            NoiseModel(readout=(bad,), p1=0.0, p2=0.0)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            NoiseModel.symmetric(epsilon=0.0, p2=1.5)

    @pytest.mark.parametrize("qubits", [1, 3, 5])
    def test_rejects_another_register(self, qubits):
        with pytest.raises(ValueError, match=f"covers {qubits} qubits, the register has 4"):
            NoiseModel(readout=(_C0,) * qubits, p1=0.0, p2=0.0)
        # A bad matrix is named before the count of matrices.
        with pytest.raises(ValueError, match="qubit 0 is not column-stochastic"):
            NoiseModel(readout=(0.5 * _C0,) * qubits, p1=0.0, p2=0.0)

    def test_symmetric_takes_rates_by_keyword_only(self):
        # symmetric(4) once set the register size; it must not now set epsilon.
        with pytest.raises(TypeError):
            NoiseModel.symmetric(4)


class TestReadoutChannel:
    def test_identity_confusion_is_identity(self):
        model = NoiseModel.symmetric(epsilon=0.0, p2=0.0, p1=0.0)
        probs = dist({"0101": 0.7, "1010": 0.3})
        noisy = labelled(apply_readout_noise(probs, model))
        assert noisy["0101"] == pytest.approx(0.7)
        assert noisy["1010"] == pytest.approx(0.3)
        assert sum(noisy.values()) == pytest.approx(1.0, abs=1e-12)

    def test_single_qubit_column_action(self):
        c = np.array([[0.99, 0.02], [0.01, 0.98]])
        model = NoiseModel(readout=(c, np.eye(2), np.eye(2), np.eye(2)), p1=0.0, p2=0.0)
        noisy = apply_readout_noise(dist({"0000": 1.0}), model)
        assert labelled(noisy) == pytest.approx({"0000": 0.99, "1000": 0.01})

    def test_four_qubit_point_mass_matches_enumeration(self):
        eps = 0.01
        model = NoiseModel.symmetric(epsilon=eps, p2=0.0, p1=0.0)
        noisy = labelled(apply_readout_noise(dist({"0101": 1.0}), model))
        # Brute force over all 16 outcomes.
        for i in range(16):
            s = format(i, "04b")
            flips = sum(a != b for a, b in zip(s, "0101"))
            expected = eps**flips * (1 - eps) ** (4 - flips)
            assert noisy[s] == pytest.approx(expected, abs=1e-15)
        physical = sum(noisy[s] for s in ("0101", "1001", "0110", "1010"))
        # Physical strings sit at Hamming distances 0, 2, 2, 4 from 0101.
        expected_physical = (1 - eps) ** 4 + 2 * eps**2 * (1 - eps) ** 2 + eps**4
        assert 1.0 - physical == pytest.approx(1.0 - expected_physical, abs=1e-12)

    @settings(deadline=None, max_examples=20)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=16, max_size=16))
    def test_preserves_normalization(self, weights):
        total = sum(weights)
        if total == 0.0:
            return
        probs = np.array(weights) / total
        noisy = apply_readout_noise(probs, NoiseModel.symmetric())
        assert sum(noisy.tolist()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("shape", [(2, 3, 16), (0, 16)])
    def test_a_batch_is_read_out_row_by_row(self, shape):
        rows = np.random.default_rng(0).random(shape)
        model = NoiseModel(readout=(_C0, _C1, _C1, _C0), p1=0.0, p2=0.0)
        batch = apply_readout_noise(rows, model)
        assert batch.shape == shape
        for index in np.ndindex(shape[:-1]):
            assert np.array_equal(batch[index], apply_readout_noise(rows[index], model))

    @pytest.mark.parametrize("shape", [(8,), (32,), (4, 4)])
    def test_rejects_a_distribution_of_the_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="does not match 4 qubits"):
            apply_readout_noise(np.full(shape, 1.0 / np.prod(shape)), NoiseModel.symmetric())


class TestNoisyRunner:
    def test_zero_rate_model_equals_ideal_sampling(self):
        model = NoiseModel.symmetric(epsilon=0.0, p2=0.0, p1=0.0)
        noisy = sample_counts(channel(ModeParams(x=1.3), model), 4096, seed=11)
        ideal = sample_counts(probabilities(run_circuit(single_step_circuit())), 4096, seed=11)
        assert np.array_equal(noisy, ideal)

    def test_deterministic_under_seed(self):
        params = ModeParams(x=1.3)
        model = NoiseModel.symmetric()
        a = sample_counts(channel(params, model), 512, seed=5)
        b = sample_counts(channel(params, model), 512, seed=5)
        assert np.array_equal(a, b)
        c = sample_counts(channel(params, model), 512, seed=6)
        assert not np.array_equal(c, a)

    def test_default_rates_produce_leakage_and_bias(self):
        probs = channel(ModeParams(x=1.3), NoiseModel.symmetric())
        obs = observables_from_counts(sample_counts(probs, 8192, seed=0))
        assert obs.leakage > 0.05  # noise floor, far above the ideal 0
        assert obs.p_pair > 0.0026  # biased above the ideal single-step value

    def test_always_inject_moves_distribution(self):
        model = NoiseModel.symmetric(epsilon=0.0, p2=1.0, p1=1.0)
        probs = channel(ModeParams(x=1.3), model)
        obs = observables_from_counts(sample_counts(probs, 2048, seed=0))
        # Saturated injection scrambles the state far from the ideal output.
        assert obs.leakage > 0.3

    def test_shots_accounted(self):
        probs = channel(ModeParams(x=1.3), NoiseModel.symmetric())
        counts = sample_counts(probs, 777, 3)
        assert counts.sum() == 777
        assert counts.dtype == np.int64

    def test_rejects_mismatched_register(self):
        # A model of another register is refused when it is made.
        with pytest.raises(ValueError):
            channel(ModeParams(x=1.3), NoiseModel(readout=(_C0, _C1), p1=0.0, p2=0.0))

    @pytest.mark.parametrize("shots", [0, -3])
    def test_rejects_nonpositive_shots(self, shots):
        probs = channel(ModeParams(x=1.3), NoiseModel.symmetric())
        with pytest.raises(ValueError, match="shots must be >= 1"):
            sample_counts(probs, shots, 0)


class TestBatchedRunMatchesReplay:
    """Per-shot replay counts follow the law the run draws all shots from at once.

    The noisy run is one multinomial draw over `noisy_distributions`; the
    replay's counts are chi-squared tested against that distribution.
    """

    @pytest.mark.parametrize("x, n_steps", [(1.3, 1), (1.3, 2), (2.2, 1), (2.2, 2)])
    def test_schedule_circuits(self, x, n_steps):
        params = ModeParams(x=x, n_steps=n_steps)
        circuit = circuit_of(params)
        for seed, factor in enumerate((1.0, 2.0, 5.0)):
            model = NoiseModel.symmetric().scaled(factor)
            assert_counts_follow(
                replay_noisy_circuit(circuit, model, 600, seed), channel(params, model)
            )

    @pytest.mark.parametrize(
        "p1, p2, shots", [(1.0, 1.0, 300), (0.0, 0.05, 600), (0.02, 0.0, 600)],
        ids=["saturated", "p2-only", "p1-only"],
    )
    def test_rate_corners(self, p1, p2, shots):
        model = NoiseModel.symmetric(epsilon=0.02, p2=p2, p1=p1)
        assert_counts_follow(
            replay_noisy_circuit(single_step_circuit(2.0), model, shots, seed=3),
            channel(ModeParams(x=2.0), model),
        )

    def test_memory_does_not_grow_with_gate_count(self):
        # The replay keeps one stored state per gate (G+1 rows of 16); the
        # exact channel keeps the 256 real Pauli coefficients of each model's
        # rho and applies the slices' folds as it goes, whatever the gate
        # count.
        model = NoiseModel.symmetric()
        peaks = {}
        for n_steps in (1, 20):
            params = ModeParams(x=2.0, n_steps=n_steps)
            sample_counts(channel(params, model), 32, 0)
            tracemalloc.start()
            sample_counts(channel(params, model), 32, 0)
            peaks[n_steps] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        prefix_bytes = (len(single_step_circuit(2.0, 20)) + 1) * 16 * 16
        assert peaks[20] - peaks[1] < 128 * 1024 < prefix_bytes


class TestNoisyDistribution:
    @pytest.mark.parametrize("x", [1.3, 2.2])
    def test_zero_gate_rates_give_the_ideal_distribution(self, x):
        c0 = np.array([[0.97, 0.05], [0.03, 0.95]])
        c1 = c0[::-1, ::-1].copy()
        model = NoiseModel(readout=(c0, c1, c1, c0), p1=0.0, p2=0.0)
        exact = channel(ModeParams(x=x, n_steps=2), model)
        # run_circuit's H is the rounded 1/sqrt(2): each H scales the whole
        # state by the same factor, about 1 - 2.5e-14 in all here.  Dividing
        # by the total takes that factor out of the reference, not the channel.
        ideal = probabilities(run_circuit(single_step_circuit(x, 2)))
        ideal = apply_readout_noise(ideal / ideal.sum(), model)
        assert exact.shape == ideal.shape
        assert np.max(np.abs(exact - ideal)) < 1e-14

    def test_rejects_mismatched_register(self):
        with pytest.raises(ValueError, match="model covers 2 qubits"):
            channel(ModeParams(x=1.3), NoiseModel(readout=(_C0, _C1), p1=0.0, p2=0.0))

    def test_empty_grids(self):
        models = [NoiseModel.symmetric(), NoiseModel.symmetric().scaled(2.0)]
        params = [ModeParams(x=1.3), ModeParams(x=2.2, n_steps=3)]
        schedules = list(map(build_schedule, params))
        for grid, shape in ((noisy_distributions([], models), (0, 2, 16)),
                            (noisy_distributions(schedules, []), (2, 0, 16)),
                            (noisy_distributions([], []), (0, 0, 16))):
            assert grid.shape == shape and grid.dtype == np.float64


class TestBatchIsExact:
    """Each entry of a grid is its (window, model) pass alone, bit for bit,
    and a window's rows are those of its circuit."""

    @pytest.mark.parametrize("n_steps", [1, 3])
    @pytest.mark.parametrize("x", [1.3, 2.2])
    def test_rows_equal_one_model_passes(self, x, n_steps):
        params = ModeParams(x=x, n_steps=n_steps)
        c0 = np.array([[0.97, 0.05], [0.03, 0.95]])
        c1 = c0[::-1, ::-1].copy()
        models = [NoiseModel.symmetric().scaled(f) for f in (1.0, 1.5, 2.0, 5.0)] + [
            NoiseModel.symmetric(epsilon=0.02, p2=0.0, p1=0.0),
            NoiseModel.symmetric(epsilon=0.02, p2=1.0, p1=1.0),
            NoiseModel(readout=(c0, c1, c1, c0), p1=3e-4, p2=3e-3),
            NoiseModel(readout=(c1, c0, c0, c1), p1=3e-4, p2=3e-3),
        ]
        (batch,) = noisy_distributions([build_schedule(params)], models)
        assert batch.shape == (len(models), 16)
        for model, row in zip(models, batch):
            assert np.array_equal(row, channel(params, model))
        # The rows differ, the last two through their readout alone.
        assert len({tuple(row.tolist()) for row in batch}) == len(models)

    def test_rows_at_every_x_equal_one_row_passes(self):
        params, models = mixed_batch()
        grid = noisy_distributions(list(map(build_schedule, params)), models)
        assert grid.shape == (len(params), len(models), 16)
        for i, j in np.ndindex(grid.shape[:2]):
            assert np.array_equal(grid[i, j], channel(params[i], models[j]))

    def test_readout_of_every_entry_is_its_own_model_alone(self):
        # The readout runs once per model over all windows; an identity
        # readout leaves each entry's distribution before the readout.
        params, models = mixed_batch()
        c2 = np.array([[0.9, 0.25], [0.1, 0.75]])
        models.append(NoiseModel(readout=(c2, _C1, c2, _C0), p1=1e-3, p2=1e-2))
        bare = [NoiseModel(readout=(np.eye(2),) * 4, p1=m.p1, p2=m.p2) for m in models]
        schedules = list(map(build_schedule, params))
        grid, rows = noisy_distributions(schedules, models), noisy_distributions(schedules, bare)
        for i, j in np.ndindex(grid.shape[:2]):
            assert np.array_equal(grid[i, j], apply_readout_noise(rows[i, j], models[j]))

    @pytest.mark.parametrize(
        "params",
        [ModeParams(x=1.3, n_steps=3), ModeParams(x=2.2, n_steps=10),
         ModeParams(x=2.0, y_i=-10.0, n_steps=10), ModeParams(x=1.3, y_i=-10.0, n_steps=10)],
        ids=["1.3-3", "2.2-10", "radiation-2.0", "radiation-1.3"],
    )
    def test_schedule_rows_equal_the_rows_of_its_circuit(self, params):
        # The rows of the circuit are those of its dense density matrix.  The
        # radiation windows end in two radiation slices, so their folds join
        # slices of both shapes.
        models = mixed_batch()[1]
        (rows,) = noisy_distributions([build_schedule(params)], models)
        for row, ref in zip(rows, dense_reference(circuit_of(params), models)):
            assert np.max(np.abs(row - ref)) < 1e-13

    @pytest.mark.parametrize("chunk", [4, 7])
    def test_rows_do_not_depend_on_the_chunk_size(self, monkeypatch, chunk):
        # Radiation from slice 96 (51), so the runs cross the chunk bounds.
        params = [ModeParams(x=x, y_i=-2.5, n_steps=257) for x in (1.3, 2.0)]
        models = [NoiseModel.symmetric(), NoiseModel.symmetric().scaled(2.0)]
        schedules = list(map(build_schedule, params))
        default = noisy_distributions(schedules, models)
        monkeypatch.setattr(encoding, "SCHEDULE_CHUNK", chunk)
        assert np.array_equal(noisy_distributions(schedules, models), default)

    def test_rejects_a_mismatched_model_in_the_batch(self, monkeypatch):
        def no_walk(schedule):
            raise AssertionError("a schedule was walked before the models were checked")

        monkeypatch.setattr(noise, "slice_chunks", no_walk)
        with pytest.raises(ValueError, match="model covers 2 qubits"):
            models = [NoiseModel.symmetric(), NoiseModel(readout=(_C0, _C1), p1=0.0, p2=0.0)]
            noisy_distributions([build_schedule(ModeParams(x=x)) for x in (1.3, 2.2)], models)


class TestDenseReference:
    """The channel agrees with the dense density matrix to rounding."""

    @pytest.mark.parametrize("n_steps", [1, 3, 10])
    @pytest.mark.parametrize("x", [1.3, 2.2])
    def test_schedule_circuits(self, x, n_steps):
        params = ModeParams(x=x, n_steps=n_steps)
        c0 = np.array([[0.97, 0.05], [0.03, 0.95]])
        c1 = c0[::-1, ::-1].copy()
        models = [NoiseModel.symmetric().scaled(f) for f in (1.0, 2.0)] + [
            NoiseModel.symmetric(epsilon=0.02, p2=0.0, p1=0.0),
            NoiseModel.symmetric(epsilon=0.02, p2=1.0, p1=1.0),
            NoiseModel(readout=(c0, c1, c1, c0), p1=3e-4, p2=3e-3),
            NoiseModel(readout=(c1, c0, c0, c1), p1=3e-4, p2=3e-3),
        ]
        (exact,) = noisy_distributions([build_schedule(params)], models)
        reference = dense_reference(circuit_of(params), models)
        assert len(exact) == len(reference) == len(models)
        for row, ref in zip(exact, reference):
            assert np.max(np.abs(row - ref)) < 1e-13

    def test_one_batch_of_rows_at_every_x(self):
        params, models = mixed_batch()
        grid = noisy_distributions(list(map(build_schedule, params)), models)
        for p, rows in zip(params, grid):
            for row, ref in zip(rows, dense_reference(circuit_of(p), models)):
                assert np.max(np.abs(row - ref)) < 1e-13

    @settings(deadline=None, max_examples=20)
    @given(
        st.floats(0.5, 5.0),
        st.floats(1e-6, 1.0),
        st.floats(1e-3, 5.0),
        st.integers(1, 12),
        st.sampled_from([encoding.SCHEDULE_CHUNK, 4]),
    )
    def test_random_windows(self, x, before, after, n_steps, chunk):
        # y_i from just below the transition y_e = -x down to -40, y_f above
        # it; a chunk of 4 slices cuts the runs within the window.
        params = ModeParams(x=x, y_i=-x - before * (40.0 - x), y_f=-x + after, n_steps=n_steps)
        with mock.patch.object(encoding, "SCHEDULE_CHUNK", chunk):
            (rows,) = noisy_distributions([build_schedule(params)], CORNERS)
        for row, ref in zip(rows, dense_reference(circuit_of(params), CORNERS)):
            assert np.max(np.abs(row - ref)) < 1e-13


class TestNoiselessChannelOracle:
    """The noiseless channel as the reference for both engines.

    With identity readout and zero rates the channel gives the exact outcome
    distribution of the schedule circuit from Pauli-coefficient gathers,
    signs and cos/sin rotations: no 1/sqrt(2) of H, no complex product and no
    BLAS call, so it shares none of the engines' rounding.
    """

    @pytest.mark.parametrize("n_steps, xs", [(1000, (1.3, 2.0, 2.2827)), (5000, (2.0,))])
    def test_engines_match_the_channel(self, n_steps, xs):
        params = [ModeParams(x=x, n_steps=n_steps) for x in xs]
        exact = NoiseModel(readout=(np.eye(2),) * 4, p1=0.0, p2=0.0)
        channel = noisy_distributions(list(map(build_schedule, params)), [exact])[:, 0]
        phys = list(PHYS_INDICES)
        for p, probs in zip(params, channel):
            sched = build_schedule(p)
            matrix = np.abs(evolve(sched)) ** 2
            # 6e-15 to 8e-15 at N = 1000, 5.2e-14 at N = 5000.
            assert np.max(np.abs(probs[phys] - matrix)) < 1e-13
            assert 1.0 - np.sum(probs[phys]) < 1e-15  # no leakage at all
            # run_schedule's H drift: its p_pair is off by 1.0e-13 to
            # 7.7e-13 (8.4e-13 at N = 5000) and its norm by about 1e-11 per
            # 1000 slices, all on the vacuum.
            statevector = np.abs(run_schedule(sched)) ** 2
            per_1000 = n_steps / 1000
            assert abs(statevector[PHYS_INDICES[3]] - probs[PHYS_INDICES[3]]) < 2e-12 * per_1000
            assert np.max(np.abs(statevector - probs)) < 1.2e-11 * per_1000

    def test_zero_slices_give_the_prepared_vacuum(self):
        # A window of no slices is the vacuum preparation alone, here in the
        # matrix engine and the channel; test_encoding and test_statevector
        # check the circuit and `run_schedule` on the same window.
        sched = build_schedule(ModeParams(x=2.0, n_steps=0))
        (amplitudes,) = propagate(pair_chunks(sched))
        assert evolve(sched).tolist() == [1.0, 0.0, 0.0, 0.0] and amplitudes.tolist() == [[1.0, 0.0]]
        exact = NoiseModel(readout=(np.eye(2),) * 4, p1=0.0, p2=0.0)
        assert labelled(noisy_distributions([sched], [exact])[0, 0]) == {"0101": 1.0}


class TestTableau:
    """Each gate's Pauli action from the tableau rules equals U^dagger P_a U =
    sign[a] P_src[a] of its dense `circuit_unitary`, for every Pauli string,
    so also the signs that never reach the diagonal from |0000>.  Case n
    takes every gate placement whose highest qubit is n - 1."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_gate_on_every_qubit_tuple(self, n):
        letters = ["".join("IXYZ"[d] for d in digits) for digits in np.ndindex((4,) * 4)]
        paulis = [pauli_to_matrix(PauliString(s, 1.0)) for s in letters]
        for name in _GATE_NAMES:
            for qubits in itertools.permutations(range(n), 2 if name == "CNOT" else 1):
                if max(qubits) != n - 1:
                    continue
                run = _gate_run(name, qubits)
                acts = [int(any(s[q] != "I" for q in qubits)) for s in letters]
                idle = [0] * len(letters)
                assert (run.a.tolist(), run.b.tolist()) == (
                    (idle, acts) if name == "CNOT" else (acts, idle))
                if name == "RZ":  # the depolarizing alone
                    assert run.src.tolist() == list(range(256))
                    assert run.sign.tolist() == [1] * 256
                    continue
                u = circuit_unitary([Gate(name, qubits)])
                for a, pauli in enumerate(paulis):
                    image = u.conj().T @ pauli @ u
                    assert np.max(np.abs(image - run.sign[a] * paulis[run.src[a]])) < 1e-12, (
                        name, qubits, letters[a])


def _probe(*argv, **env) -> list[str]:
    """The dispatch probe's output for `argv`, run in a fresh interpreter under `env`."""
    src = str(Path(cosmopair.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        **env,
    }
    probe = str(Path(__file__).with_name("dispatch_probe.py"))
    out = subprocess.run(
        [sys.executable, probe, *argv], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.split()


def test_distributions_do_not_depend_on_numpy_simd_dispatch():
    """The channel's bytes stay the same with numpy's AVX2/AVX-512 loops disabled.

    Only targets the running numpy reports as enabled are disabled through
    NPY_DISABLE_CPU_FEATURES (numpy refuses to start when asked to disable a
    baseline feature).  The channel's arithmetic is separate real multiplies
    and adds, `np.cos` and `np.sin`, none of which rounds differently there.
    """
    wide = wide_simd_targets()
    if not wide:
        pytest.skip("numpy reports no enabled AVX2/AVX-512 dispatch target to disable")
    assert _probe(NPY_DISABLE_CPU_FEATURES=" ".join(wide)) == ["-", distributions_digest()]


def test_distributions_do_not_depend_on_the_blas_kernel():
    """The channel's bytes stay the same whichever kernel OpenBLAS runs.

    The probe runs once per OPENBLAS_CORETYPE this CPU can execute (SSE3,
    AVX2, AVX-512 kernels): the channel makes no BLAS product, and the
    readout is per-qubit multiplies and adds, not `tensordot`.
    """
    cores = openblas_core_types()
    if len(cores) < 2:
        pytest.skip(f"this CPU runs {len(cores)} of the OpenBLAS core types compared")
    digests = {core: _probe(OPENBLAS_CORETYPE=core)[-1] for core in cores}
    assert set(digests.values()) == {distributions_digest()}, digests


def test_schedule_runner_does_not_depend_on_the_blas_kernel():
    """`run_schedule`'s bytes stay the same whichever kernel OpenBLAS runs.

    It feeds the (vacuum, pair) entries of its compiled slices to
    `subspace.propagate`, which advances the state in Python complex
    arithmetic: no BLAS product, unlike a 16x16 `block @ amps` chain,
    whose bits the SSE3 kernel moves.
    """
    cores = openblas_core_types()
    if len(cores) < 2:
        pytest.skip(f"this CPU runs {len(cores)} of the OpenBLAS core types compared")
    digests = {core: _probe("schedule", OPENBLAS_CORETYPE=core)[-1] for core in cores}
    assert set(digests.values()) == {schedule_digest()}, digests


class TestBatchedKernels:
    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(_gates(), min_size=1, max_size=12),
        st.integers(1, 9),
        st.integers(0, 2**32 - 1),
    )
    def test_batch_is_bitwise_row_by_row(self, gates, batch, seed):
        # The drawn gates, then one of every kind, each followed by a Pauli.
        every_kind = [Gate("X", (0,)), Gate("H", (1,)), Gate("S", (2,)), Gate("SDG", (3,)),
                      Gate("RZ", (1,), 0.9), Gate("CNOT", (3, 0))]
        rng = np.random.default_rng(seed)
        states = rng.normal(size=(batch, 16)) + 1j * rng.normal(size=(batch, 16))
        rows = [row.copy() for row in states]
        for gate in gates + every_kind:
            _apply_gate_inplace(states, gate)
            for row in rows:
                _apply_gate_inplace(row, gate)
            letter = "XYZ"[int(rng.integers(3))]
            q = int(rng.integers(4))
            apply_pauli(states, q, letter)
            for row in rows:
                apply_pauli(row, q, letter)
        assert states.tobytes() == np.array(rows).tobytes()
