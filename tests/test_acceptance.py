"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL table.
All tolerances are fixed here; nothing is deferred to later calibration.
"""

import time

import numpy as np
import pytest

from bitstrings import dist
from cosmopair.background import (
    ModeParams,
    bogoliubov_ode_oracle,
    multi_pair_probability,
    n_k_analytic,
)
from cosmopair.cli import main
from cosmopair.encoding import (
    aq_pauli_sum,
    build_full_circuit,
    pauli_to_matrix,
    phase_aligned_distance,
    slice_chunks,
    zq_pauli_sum,
)
from cosmopair.mitigation import linear_extrapolate, mitigate_readout, zne_estimate
from cosmopair.noise import NoiseModel, apply_readout_noise, noisy_distributions
from cosmopair.schedule import build_schedule
from cosmopair.statevector import (
    circuit_unitary,
    observables_from_counts,
    probabilities,
    run_circuit,
    sample_counts,
)
from cosmopair.subspace import (
    A_PHYS,
    PHYS_INDICES,
    Z_PHYS,
    evolve,
    strang_step_unitary,
)

REFERENCE_X = (1.3, 1.5, 1.8, 2.0, 2.2)
REFERENCE_N_K = (0.0875, 0.0494, 0.0238, 0.0156, 0.0107)
REFERENCE_N_K_SINGLE_STEP = (0.0026, 0.0026, 0.0025, 0.0025, 0.0025)

#: Fixed base seed for every statistical criterion in this module.
SEED = 5


def report(number: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"acceptance criterion {number:02d} [{name}]: {status}{suffix}")
    assert passed, f"criterion {number} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def statevector_runs():
    """Outcome distributions of every noiseless circuit run used by criteria
    2, 3, and 7."""
    runs = {}
    combos = [(x, 1) for x in REFERENCE_X]
    combos += [(x, n) for x in (1.3, 2.0, 3.0) for n in (1, 10, 100, 1000)]
    for x, n in dict.fromkeys(combos):
        sched = build_schedule(ModeParams(x=x, n_steps=n))
        runs[(x, n)] = probabilities(run_circuit(build_full_circuit(sched)))
    return runs


@pytest.fixture(scope="module")
def matrix_runs():
    """Final subspace states for the same grid plus the large-N reference."""
    runs = {}
    combos = [(x, 1) for x in REFERENCE_X]
    combos += [(x, n) for x in (1.3, 2.0, 3.0) for n in (1, 10, 100, 1000)]
    combos += [(x, n) for x in (2.2, 2.5, 3.0) for n in (2500, 5000)]
    for x, n in dict.fromkeys(combos):
        final = evolve(build_schedule(ModeParams(x=x, n_steps=n)))
        runs[(x, n)] = final
    return runs


def test_criterion_01_analytic_benchmark():
    t0 = time.perf_counter()
    got = tuple(round(n_k_analytic(x), 4) for x in REFERENCE_X)
    elapsed = time.perf_counter() - t0
    report(
        1,
        "analytic benchmark",
        got == REFERENCE_N_K and elapsed < 1e-3,
        f"{got} in {elapsed * 1e6:.0f} us",
    )


def test_criterion_02_single_step_values(statevector_runs, matrix_runs):
    t0 = time.perf_counter()
    ok = True
    details = []
    for x, expected in zip(REFERENCE_X, REFERENCE_N_K_SINGLE_STEP):
        sched = build_schedule(ModeParams(x=x, n_steps=1))
        theta_a = float(sched.columns()[2][0]) * sched.dy  # the split-step theta_a
        closed_form = np.sin(theta_a) ** 2
        from_matrix = abs(matrix_runs[(x, 1)][3]) ** 2
        from_circuit = statevector_runs[(x, 1)][0b1010]
        ok &= round(from_matrix, 4) == expected
        ok &= round(from_circuit, 4) == expected
        ok &= abs(from_matrix - closed_form) < 1e-12
        ok &= abs(from_circuit - closed_form) < 1e-9
        details.append(f"{from_matrix:.6f}")
    elapsed = time.perf_counter() - t0
    report(2, "ideal single-step values", ok and elapsed < 1.0, ", ".join(details))


def test_criterion_03_engine_equivalence(statevector_runs, matrix_runs):
    t0 = time.perf_counter()
    worst = 0.0
    for x in (1.3, 2.0, 3.0):
        for n in (1, 10, 100, 1000):
            probs = statevector_runs[(x, n)]
            final = matrix_runs[(x, n)]
            for i, j in enumerate(PHYS_INDICES):
                worst = max(worst, abs(probs[j] - abs(final[i]) ** 2))
    elapsed = time.perf_counter() - t0
    report(
        3,
        "engine equivalence",
        worst < 1e-10 and elapsed < 120.0,
        f"max population difference {worst:.2e}",
    )


def test_criterion_04_large_n_consistency(matrix_runs):
    xs = (2.2, 2.5, 3.0)
    residual = {}
    for x in xs:
        for n in (2500, 5000):
            p_pair = abs(matrix_runs[(x, n)][3]) ** 2
            residual[(x, n)] = abs(p_pair - n_k_analytic(x)) / n_k_analytic(x)
    within_bar = all(residual[(x, 2500)] < 0.05 for x in xs)
    # The discretized transition snaps to the nearest slice, so the pointwise
    # residual is not monotone in N; the worst case over the x set is.
    doubling_shrinks = max(residual[(x, 5000)] for x in xs) < max(
        residual[(x, 2500)] for x in xs
    )
    bounds = [multi_pair_probability(n_k_analytic(x)) for x in xs]
    monotone_in_validity = all(
        residual[(a, 2500)] > residual[(b, 2500)]
        for a, b in zip(xs, xs[1:])
    ) and bounds == sorted(bounds, reverse=True)
    report(
        4,
        "large-N consistency",
        within_bar and doubling_shrinks and monotone_in_validity,
        "residuals at N=2500: "
        + ", ".join(f"x={x}: {residual[(x, 2500)]:.3%}" for x in xs),
    )


def test_criterion_05_ode_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for x in (1.0, 1.5, 2.0, 3.0, 5.0):
        pair = bogoliubov_ode_oracle(x)
        worst = max(worst, abs(pair.n_k - n_k_analytic(x)) / n_k_analytic(x))
    elapsed = time.perf_counter() - t0
    report(
        5,
        "mode-equation oracle",
        worst < 1e-6 and elapsed < 10.0,
        f"max relative error {worst:.2e} in {elapsed:.1f}s",
    )


def test_criterion_06_encoding_faithfulness():
    t0 = time.perf_counter()
    idx = np.array(PHYS_INDICES)
    zq = pauli_to_matrix(zq_pauli_sum())[np.ix_(idx, idx)]
    aq = pauli_to_matrix(aq_pauli_sum())[np.ix_(idx, idx)]
    exact = (
        np.array_equal(zq.real, Z_PHYS)
        and np.array_equal(aq.real, A_PHYS)
        and not np.any(zq.imag)
        and not np.any(aq.imag)
    )
    mats = [pauli_to_matrix(t) for t in aq_pauli_sum()]
    commute = max(
        float(np.max(np.abs(a @ b - b @ a)))
        for i, a in enumerate(mats)
        for b in mats[i + 1 :]
    )
    step_dist = 0.0
    for x, n in ((1.3, 1), (2.0, 3)):
        sched = build_schedule(ModeParams(x=x, n_steps=n))
        thetas = zip(*(a.tolist() for a in sched.angles()))
        slices = (t.instantiate(row) for t, rz in slice_chunks(sched) for row in rz.tolist())
        for angles, gates in zip(thetas, slices, strict=True):
            dense = circuit_unitary(gates)[np.ix_(idx, idx)]
            step_dist = max(
                step_dist, phase_aligned_distance(dense, strang_step_unitary(*angles))
            )
    elapsed = time.perf_counter() - t0
    report(
        6,
        "encoding faithfulness",
        exact and commute < 1e-14 and step_dist < 1e-10 and elapsed < 5.0,
        f"commutator {commute:.1e}, step distance {step_dist:.1e}",
    )


def test_criterion_07_noiseless_structural_invariants(statevector_runs):
    worst_leak = 0.0
    worst_single = 0.0
    for probs in statevector_runs.values():
        leak = 1.0 - sum(probs[list(PHYS_INDICES)].tolist())
        worst_leak = max(worst_leak, abs(leak))
        worst_single = max(worst_single, probs[0b1001], probs[0b0110])
    report(
        7,
        "noiseless structural invariants",
        worst_leak < 1e-10 and worst_single < 1e-12,
        f"max leakage {worst_leak:.1e}, max single-particle {worst_single:.1e}",
    )


def test_criterion_08_shot_statistics():
    t0 = time.perf_counter()
    sched = build_schedule(ModeParams(x=2.0, n_steps=500))
    probs = probabilities(run_circuit(build_full_circuit(sched)))
    p_true = probs[0b1010]
    shot_list = (8192, 32768, 131072)

    within = True
    mean_abs_error = []
    for si, shots in enumerate(shot_list):
        errors = []
        for rep in range(20):
            table = sample_counts(probs, shots, seed=SEED * 100000 + si * 1000 + rep)
            p_hat = observables_from_counts(table).p_pair
            errors.append(abs(p_hat - p_true))
            if rep == 0:
                sigma = np.sqrt(p_true * (1.0 - p_true) / shots)
                within &= abs(p_hat - p_true) <= 4.0 * sigma
        mean_abs_error.append(np.mean(errors))
    slope = float(np.polyfit(np.log(shot_list), np.log(mean_abs_error), 1)[0])
    elapsed = time.perf_counter() - t0
    report(
        8,
        "shot statistics",
        within and -0.6 <= slope <= -0.4 and elapsed < 300.0,
        f"log-log slope {slope:+.3f} in {elapsed:.0f}s",
    )


def test_criterion_09_mitigation_properties():
    t0 = time.perf_counter()
    # (a) Readout round trip on an exact distribution.
    model = NoiseModel.symmetric()
    true = {"0101": 0.96, "1010": 0.025, "1001": 0.01, "0110": 0.005}
    fixed = mitigate_readout(apply_readout_noise(dist(true), model), model)
    round_trip = max(abs(fixed.quasi[int(s, 2)] - v) for s, v in true.items())

    # (b1) Exactly affine observable: intercept to machine precision.
    intercept, _ = linear_extrapolate((1.0, 1.5, 2.0), (0.0125, 0.0175, 0.0225), (1.0, 1.0, 1.0))
    affine_exact = abs(intercept - 0.0025) < 1e-15

    # (b2) Stochastic model in the small-p2 regime (p2 <= 3e-3): the linear
    # premise needs the per-trajectory injection probability to stay small,
    # which holds at p2 = 1e-3 but not at the default 2.8e-3, where the
    # saturation curvature of the injection process biases the intercept.
    params = ModeParams(x=1.3, n_steps=1)
    ideal = probabilities(run_circuit(build_full_circuit(build_schedule(params))))[0b1010]
    stochastic_model = NoiseModel.symmetric(epsilon=1.49e-2, p2=1e-3)
    factors = (1.0, 1.5, 2.0)
    models = [stochastic_model.scaled(f) for f in factors]
    (levels,) = noisy_distributions([build_schedule(params)], models)
    zne = zne_estimate(factors, levels, 100000, SEED)["p_pair"]
    pull = abs(zne.extrapolated - ideal) / zne.extrapolated_stderr
    elapsed = time.perf_counter() - t0
    report(
        9,
        "mitigation properties",
        round_trip < 1e-10 and affine_exact and pull < 3.0 and elapsed < 300.0,
        f"round trip {round_trip:.1e}, ZNE pull {pull:.2f} sigma in {elapsed:.0f}s",
    )


def test_criterion_10_determinism(tmp_path, capsys):
    code_a = main(["verify"])
    out_a = capsys.readouterr().out
    code_b = main(["verify"])
    out_b = capsys.readouterr().out
    verify_ok = code_a == 0 and code_b == 0 and out_a == out_b

    args = ["sweep", "--x", "2.0", "--methods", "shots", "--n-steps", "20",
            "--shots", "2048", "--seed", str(SEED)]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    files_ok = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("sweep.csv", "sweep.json")
    )
    report(10, "determinism", verify_ok and files_ok)
