"""Readout correction round trips and linear zero-noise extrapolation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitstrings import dist
from cosmopair.background import ModeParams
from cosmopair.mitigation import (
    SingularConfusionError,
    _restricted_confusion,
    linear_extrapolate,
    mitigate_readout,
    zne_estimate,
)
from cosmopair.noise import NoiseModel, apply_readout_noise, noisy_distributions
from cosmopair.schedule import build_schedule
from cosmopair.statevector import (
    derived_seed,
    observables_from_counts,
    sample_counts,
)


def reference_confusion(observed: list[str], model: NoiseModel) -> np.ndarray:
    """The restricted confusion matrix entry by entry, over bitstrings."""
    m = np.empty((len(observed), len(observed)))
    for i, obs in enumerate(observed):
        for j, true in enumerate(observed):
            v = 1.0
            for q, c in enumerate(model.readout):
                v *= c[int(obs[q]), int(true[q])]
            m[i, j] = v
    return m


_C0 = np.array([[0.97, 0.05], [0.03, 0.95]])
_ASYMMETRIC = NoiseModel(
    readout=(_C0, _C0[::-1, ::-1].copy(), np.array([[0.99, 0.02], [0.01, 0.98]]),
             np.array([[0.985, 0.0], [0.015, 1.0]])),
    p1=0.0, p2=0.0,
)


class TestRestrictedConfusion:
    """The vectorized matrix is the entry-by-entry loop, bit for bit."""

    @pytest.mark.parametrize(
        "model", [NoiseModel.symmetric(), _ASYMMETRIC], ids=["default", "asymmetric"]
    )
    def test_four_qubit_models(self, model):
        rng = np.random.default_rng(0)
        subsets = [range(16), [5, 9, 6, 10], [0], [15, 0], [3, 12, 7]]
        subsets += [sorted(rng.choice(16, size=k, replace=False)) for k in (2, 5, 11)]
        for subset in subsets:
            observed = [format(i, "04b") for i in subset]
            got = _restricted_confusion(np.array(subset, dtype=np.int64), model)
            assert np.array_equal(got, reference_confusion(observed, model))

    def test_one_qubit_model(self):
        # Readout noise on qubit 0 alone; the subsets differ in that qubit.
        c = np.array([[0.99, 0.02], [0.01, 0.98]])
        model = NoiseModel(readout=(c, np.eye(2), np.eye(2), np.eye(2)), p1=0.0, p2=0.0)
        for subset in ([0], [8], [0, 8]):
            got = _restricted_confusion(np.array(subset, dtype=np.int64), model)
            assert np.array_equal(got, reference_confusion([f"{i:04b}" for i in subset], model))


class TestReadoutMitigation:
    def test_identity_model_returns_frequencies(self):
        counts = dist({"0101": 75, "1010": 25}, int)
        fixed = mitigate_readout(counts, NoiseModel.symmetric(epsilon=0.0, p2=0.0, p1=0.0))
        assert fixed.quasi == pytest.approx(dist({"0101": 0.75, "1010": 0.25}))
        assert fixed.clipped == pytest.approx(dist({"0101": 0.75, "1010": 0.25}))
        assert not fixed.ill_conditioned

    def test_stderr_under_identity_readout_is_binomial(self):
        counts = dist({"0101": 75, "1010": 25}, int)
        fixed = mitigate_readout(counts, NoiseModel.symmetric(epsilon=0.0, p2=0.0, p1=0.0))
        binomial = np.sqrt(0.75 * 0.25 / 100)
        assert fixed.quasi_stderr == pytest.approx(dist({"0101": binomial, "1010": binomial}))

    def test_stderr_stays_finite_at_huge_shot_counts(self):
        # At 2**57 shots the variance sum_i (M^-1)_ki^2 f_i - q_k^2 is a
        # difference of near-equal terms that rounds below zero here.
        counts = np.zeros(16, dtype=np.int64)
        counts[[4, 10, 11]] = 3, 2**57, 2
        stderr = mitigate_readout(counts, NoiseModel.symmetric()).quasi_stderr
        assert np.all(np.isfinite(stderr)) and np.all(stderr >= 0.0)

    def test_zero_off_the_observed_states(self):
        counts = dist({"0101": 60, "1010": 3, "0000": 1}, int)
        fixed = mitigate_readout(counts, _ASYMMETRIC)
        unobserved = counts == 0
        assert fixed.quasi.shape == fixed.clipped.shape == (16,)
        assert not np.any(fixed.quasi[unobserved]) and not np.any(fixed.clipped[unobserved])
        assert np.all(fixed.quasi[~unobserved] != 0.0)

    @pytest.mark.parametrize("shape", [(8,), (32,), (4, 4)])
    def test_rejects_weights_of_the_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="do not match 4 qubits"):
            mitigate_readout(np.ones(shape), NoiseModel.symmetric())

    def test_single_qubit_exact_recovery(self):
        c = np.array([[0.99, 0.02], [0.01, 0.98]])
        model = NoiseModel(readout=(c, np.eye(2), np.eye(2), np.eye(2)), p1=0.0, p2=0.0)
        fixed = mitigate_readout(dist({"0000": 0.99, "1000": 0.01}), model)
        assert fixed.quasi[0] == pytest.approx(1.0, abs=1e-12)
        assert fixed.quasi[0b1000] == pytest.approx(0.0, abs=1e-12)

    def test_four_qubit_round_trip(self):
        model = NoiseModel.symmetric()
        true = {"0101": 0.92, "1010": 0.05, "1001": 0.02, "0110": 0.01}
        noisy = apply_readout_noise(dist(true), model)
        fixed = mitigate_readout(noisy, model)
        for s, v in true.items():
            assert fixed.quasi[int(s, 2)] == pytest.approx(v, abs=1e-10)
            assert fixed.clipped[int(s, 2)] == pytest.approx(v, abs=1e-10)

    @settings(deadline=None, max_examples=20)
    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=16, max_size=16))
    def test_round_trip_random_distributions(self, weights):
        true = np.array(weights) / sum(weights)
        model = NoiseModel.symmetric()
        fixed = mitigate_readout(apply_readout_noise(true, model), model)
        assert fixed.quasi == pytest.approx(true, abs=1e-10)

    def test_leakage_restored_on_exact_distribution(self):
        # Readout noise leaks an in-subspace state; correcting the exact noisy
        # distribution removes the leakage again.
        model = NoiseModel.symmetric(epsilon=0.02, p2=0.0, p1=0.0)
        true = dist({"0101": 0.997, "1010": 0.003})
        noisy = apply_readout_noise(true, model)
        physical = [0b0101, 0b1001, 0b0110, 0b1010]
        leak_noisy = 1.0 - sum(noisy[physical].tolist())
        assert leak_noisy > 0.0
        fixed = mitigate_readout(noisy, model)
        leak_fixed = 1.0 - sum(fixed.clipped[physical].tolist())
        assert abs(leak_fixed) < 1e-10

    def test_clipped_variant_is_renormalized(self):
        counts = dist({"0101": 63, "1010": 1}, int)
        fixed = mitigate_readout(counts, NoiseModel.symmetric())
        assert fixed.clipped.sum() == pytest.approx(1.0)
        assert fixed.clipped.min() >= 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mitigate_readout(np.zeros(16), NoiseModel.symmetric())

    def test_singular_model_raises(self):
        c = np.array([[0.5, 0.5], [0.5, 0.5]])
        model = NoiseModel(readout=(c, np.eye(2), np.eye(2), np.eye(2)), p1=0.0, p2=0.0)
        with pytest.raises(SingularConfusionError):
            mitigate_readout(dist({"0000": 0.5, "1000": 0.5}), model)


class TestLinearExtrapolation:
    def test_three_collinear_points(self):
        intercept, _ = linear_extrapolate(
            (1.0, 1.5, 2.0), (0.0125, 0.0175, 0.0225), (1.0, 1.0, 1.0)
        )
        assert intercept == pytest.approx(0.0025, abs=1e-15)

    @given(
        a=st.floats(min_value=-1.0, max_value=1.0),
        b=st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_affine_recovery_is_exact(self, a, b):
        factors = (1.0, 1.5, 2.0)
        values = [a + b * f for f in factors]
        intercept, _ = linear_extrapolate(factors, values, (1.0, 1.0, 1.0))
        assert intercept == pytest.approx(a, abs=1e-12)

    def test_weighted_fit_uses_errors(self):
        factors = (1.0, 1.5, 2.0)
        values = (0.01, 0.02, 0.03)
        _, stderr = linear_extrapolate(factors, values, (1e-3, 1e-3, 1e-3))
        assert stderr > 0.0

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            linear_extrapolate((1.0,), (0.5,), (1.0,))


@pytest.fixture(scope="module")
def params():
    return ModeParams(x=1.3, n_steps=1)


def run_zne(params, model, factors, shots, seed):
    """`zne_estimate` over the exact distribution of `params`' circuit at each factor."""
    models = [model.scaled(f) for f in factors]
    (levels,) = noisy_distributions([build_schedule(params)], models)
    return zne_estimate(factors, levels, shots, seed)


class TestZNE:

    def test_factor_validation(self, params):
        probs = noisy_distributions([build_schedule(params)], [NoiseModel.symmetric()])[0, 0]
        with pytest.raises(ValueError):
            zne_estimate((1.0,), [probs], 64, 0)
        with pytest.raises(ValueError):
            zne_estimate((1.0, 1.0), [probs] * 2, 64, 0)
        with pytest.raises(ValueError):
            zne_estimate((0.5, 1.0), [probs] * 2, 64, 0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                zne_estimate((1.0, bad), [probs] * 2, 64, 0)

    def test_one_distribution_per_factor(self, params):
        probs = noisy_distributions([build_schedule(params)], [NoiseModel.symmetric()])[0, 0]
        with pytest.raises(ValueError, match="1 distributions for 2 noise factors"):
            zne_estimate((1.0, 2.0), [probs], 64, 0)

    def test_zero_noise_model_reproduces_ideal(self, params):
        model = NoiseModel.symmetric(epsilon=0.0, p2=0.0, p1=0.0)
        result = run_zne(params, model, (1.0, 1.5, 2.0), 20000, 4)["p_pair"]
        ideal = 0.0026326481467
        sigma = np.sqrt(ideal * (1 - ideal) / 20000)
        for v in result.values:
            assert abs(v - ideal) < 4 * sigma
        assert abs(result.extrapolated - ideal) < 4 * sigma

    def test_deterministic(self, params):
        model = NoiseModel.symmetric()
        a = run_zne(params, model, (1.0, 1.5, 2.0), 512, 9)
        b = run_zne(params, model, (1.0, 1.5, 2.0), 512, 9)
        assert a == b

    def test_values_increase_with_amplification(self, params):
        # Gate noise inflates the pair estimate, so amplified runs sit higher.
        model = NoiseModel.symmetric()
        result = run_zne(params, model, (1.0, 2.0), 20000, 2)["p_pair"]
        assert result.values[1] > result.values[0]
        assert result.extrapolated < result.values[0]

    def test_both_observables_come_from_the_same_runs(self, params):
        model = NoiseModel.symmetric()
        result = run_zne(params, model, (1.0, 2.0), 256, 7)
        for i, factor in enumerate((1.0, 2.0)):
            probs = noisy_distributions([build_schedule(params)], [model.scaled(factor)])[0, 0]
            counts = sample_counts(probs, 256, derived_seed(7, i))
            obs = observables_from_counts(counts)
            assert result["p_pair"].values[i] == obs.p_pair
            assert result["leakage"].values[i] == obs.leakage
            for name in ("p_pair", "leakage"):
                v = result[name].values[i]
                assert result[name].stderrs[i] == max(np.sqrt(v * (1 - v) / 256), 1 / 256)

    def test_leakage_extrapolates_toward_zero(self, params):
        model = NoiseModel.symmetric(epsilon=0.0, p2=2.8e-3)
        result = run_zne(params, model, (1.0, 1.5, 2.0), 20000, 3)["leakage"]
        assert result.extrapolated < result.values[0]
