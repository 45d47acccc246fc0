"""Noise model validation, readout channel, and Monte-Carlo trajectories."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosmopair.background import ModeParams
from cosmopair.circuits import Circuit
from cosmopair.encoding import build_full_circuit
from cosmopair.noise import NoiseModel, apply_readout_noise, run_noisy_circuit
from cosmopair.schedule import build_schedule
from cosmopair.statevector import (
    observables_from_counts,
    probabilities,
    run_circuit,
    sample_counts,
)


def single_step_circuit(x=1.3):
    return build_full_circuit(build_schedule(ModeParams(x=x, n_steps=1)))


class TestNoiseModel:
    def test_default_magnitudes(self):
        m = NoiseModel.default(4)
        assert m.p2 == 2.80e-3
        assert m.p1 == 2.80e-4
        assert m.readout[0][1, 0] == 1.49e-2
        assert m.n_qubits == 4

    def test_scaling_touches_rates_only(self):
        m = NoiseModel.default(4).scaled(1.5)
        assert m.p2 == pytest.approx(4.2e-3)
        assert m.p1 == pytest.approx(4.2e-4)
        assert m.readout[0][1, 0] == 1.49e-2

    def test_json_round_trip(self):
        m = NoiseModel.symmetric(4, epsilon=0.02, p2=1e-3, p1=2e-4)
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
            NoiseModel.symmetric(1, epsilon=0.0, p2=1.5)


class TestReadoutChannel:
    def test_identity_confusion_is_identity(self):
        model = NoiseModel.noiseless(4)
        probs = {"0101": 0.7, "1010": 0.3}
        noisy = apply_readout_noise(probs, model)
        assert noisy["0101"] == pytest.approx(0.7)
        assert noisy["1010"] == pytest.approx(0.3)
        assert sum(noisy.values()) == pytest.approx(1.0, abs=1e-12)

    def test_single_qubit_column_action(self):
        c = np.array([[0.99, 0.02], [0.01, 0.98]])
        model = NoiseModel(readout=(c,), p1=0.0, p2=0.0)
        noisy = apply_readout_noise({"0": 1.0}, model)
        assert noisy["0"] == pytest.approx(0.99)
        assert noisy["1"] == pytest.approx(0.01)

    def test_four_qubit_point_mass_matches_enumeration(self):
        eps = 0.01
        model = NoiseModel.symmetric(4, epsilon=eps, p2=0.0, p1=0.0)
        noisy = apply_readout_noise({"0101": 1.0}, model)
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
        probs = {format(i, "04b"): w / total for i, w in enumerate(weights)}
        noisy = apply_readout_noise(probs, NoiseModel.default(4))
        assert sum(noisy.values()) == pytest.approx(1.0, abs=1e-12)


class TestNoisyRunner:
    def test_zero_rate_model_equals_ideal_sampling(self):
        circuit = single_step_circuit()
        model = NoiseModel.noiseless(4)
        noisy = run_noisy_circuit(circuit, model, 4096, seed=11)
        ideal = sample_counts(probabilities(run_circuit(circuit)), 4096, seed=11)
        assert noisy.counts == ideal.counts

    def test_deterministic_under_seed(self):
        circuit = single_step_circuit()
        model = NoiseModel.default(4)
        a = run_noisy_circuit(circuit, model, 512, seed=5)
        b = run_noisy_circuit(circuit, model, 512, seed=5)
        assert a.counts == b.counts
        c = run_noisy_circuit(circuit, model, 512, seed=6)
        assert c.counts != a.counts

    def test_default_rates_produce_leakage_and_bias(self):
        circuit = single_step_circuit()
        model = NoiseModel.default(4)
        obs = observables_from_counts(run_noisy_circuit(circuit, model, 8192, seed=0))
        assert obs.leakage > 0.05  # noise floor, far above the ideal 0
        assert obs.p_pair > 0.0026  # biased above the ideal single-step value

    def test_always_inject_moves_distribution(self):
        circuit = single_step_circuit()
        model = NoiseModel.symmetric(4, epsilon=0.0, p2=1.0, p1=1.0)
        obs = observables_from_counts(run_noisy_circuit(circuit, model, 2048, seed=0))
        # Saturated injection scrambles the state far from the ideal output.
        assert obs.leakage > 0.3

    def test_noisy_path_replays_the_circuit_once(self, monkeypatch):
        # The prefix states already end in the ideal state; a separate
        # ideal run is needed only on the gate-noiseless shortcut.
        import cosmopair.noise as noise

        def no_ideal_run(circuit):
            raise AssertionError("ideal circuit replayed on the noisy path")

        monkeypatch.setattr(noise, "run_circuit", no_ideal_run)
        table = run_noisy_circuit(single_step_circuit(), NoiseModel.default(4), 64, 3)
        assert table.shots == 64

    def test_shots_accounted(self):
        table = run_noisy_circuit(single_step_circuit(), NoiseModel.default(4), 777, 3)
        assert sum(table.counts.values()) == 777
        assert table.shots == 777

    def test_rejects_mismatched_register(self):
        model = NoiseModel.default(2)
        with pytest.raises(ValueError):
            run_noisy_circuit(single_step_circuit(), model, 16, 0)
