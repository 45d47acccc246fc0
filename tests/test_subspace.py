"""Matrix propagation on the physical subspace: step form, trajectories, convergence."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from cosmopair import subspace
from cosmopair.background import ModeParams, n_k_analytic
from cosmopair.schedule import build_schedule
from cosmopair.subspace import (
    A_PHYS,
    Z_PHYS,
    evolve,
    pair_chunks,
    propagate,
    strang_step_unitary,
)

#: The encoded vacuum |0101>, where `evolve` starts.
VACUUM = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)


def make_step(cz, ca, dy):
    """Split-step angles (theta_zh, theta_a) of one slice, on Python floats."""
    return cz * dy / 2.0, ca * dy


def amplitudes(schedule):
    """(n_steps + 1, 2) (vacuum, pair) amplitudes at the slice boundaries."""
    return np.concatenate(list(propagate(pair_chunks(schedule))))


def populations(schedule):
    """(n_steps + 1, 4) populations (p_vac, p_plus, p_minus, p_pair) at the
    slice boundaries; from the vacuum p_plus and p_minus are 0."""
    pops = np.zeros((len(schedule) + 1, 4))
    pops[:, ::3] = np.abs(amplitudes(schedule)) ** 2
    return pops


# ---------------------------------------------------------------------------
# Reference: the per-slice engine that the chunked propagation replaced.  Each
# slice builds its 4x4 propagator with numpy and multiplies the state by it.
# ---------------------------------------------------------------------------

def _reference_step_unitary(theta_zh, theta_a):
    z_half = np.exp(-1j * theta_zh * np.array([0.0, 1.0, 1.0, 2.0]))
    u = np.zeros((4, 4), dtype=complex)
    c, s = np.cos(theta_a), np.sin(theta_a)
    u[0, 0] = u[3, 3] = c
    u[0, 3] = u[3, 0] = -1j * s
    u[1, 1] = u[2, 2] = 1.0
    return (z_half[:, None] * u) * z_half[None, :]


def _reference_evolve(schedule, psi):
    """The 4-component state at every slice boundary, the vacuum first."""
    states = [psi]
    _, cz_column, ca_column, _ = schedule.columns()
    for cz, ca in zip(cz_column.tolist(), ca_column.tolist()):
        psi = _reference_step_unitary(*make_step(cz, ca, schedule.dy)) @ psi
        states.append(psi)
    return np.array(states)


def _assert_evolve_matches_reference(schedule):
    ref = _reference_evolve(schedule, VACUUM)
    assert np.array_equal(evolve(schedule), ref[-1])
    assert np.array_equal(amplitudes(schedule), ref[:, ::3])
    assert not np.any(ref[:, 1:3])


class TestChunkedEngine:
    """The chunked evolve against the per-slice loop, bit for bit."""

    @pytest.mark.parametrize("x", [1.5, 2.0])
    def test_matches_per_slice_loop(self, x):
        sched = build_schedule(ModeParams(x=x, n_steps=20_000))
        assert len(sched) > 4 * subspace.EVOLVE_CHUNK
        _assert_evolve_matches_reference(sched)

    def test_chunk_edges(self, monkeypatch):
        # Chunks of 7 over 50 slices: the last chunk is short, and the de
        # Sitter to radiation switch falls inside one.
        monkeypatch.setattr(subspace, "EVOLVE_CHUNK", 7)
        sched = build_schedule(ModeParams(x=2.0, y_i=-10.0, n_steps=50))
        first_rad = int(np.argmax(sched.columns()[3]))
        assert first_rad % 7 != 0
        _assert_evolve_matches_reference(sched)

    def test_final_state_path_is_bit_identical(self):
        # Without recording the same loop runs: the same final bits, and
        # one (1, 2) state for the vacuum and for each of the 5 chunks.
        sched = build_schedule(ModeParams(x=1.5, n_steps=20_000))
        blocks = list(propagate(pair_chunks(sched), record=False))
        assert [b.shape for b in blocks] == [(1, 2)] * 6
        assert blocks[-1].tobytes() == amplitudes(sched)[-1:].tobytes()
        final = evolve(sched)
        assert final[::3].tobytes() == blocks[-1].tobytes() and not np.any(final[1:3])

    @given(
        cz=st.floats(min_value=-2.0, max_value=2.0),
        ca=st.floats(min_value=-2.0, max_value=2.0),
        dy=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_step_unitary_matches_reference(self, cz, ca, dy):
        step = make_step(cz, ca, dy)
        assert np.array_equal(strang_step_unitary(*step), _reference_step_unitary(*step))

    def test_memory_grows_only_by_the_populations(self, monkeypatch):
        # With small chunks the working set is a few kilobytes, so a per-slice
        # Python object that outlived its chunk would show as growth.  A
        # caller that keeps no chunk keeps no population: nothing may grow.
        monkeypatch.setattr(subspace, "EVOLVE_CHUNK", 256)

        def peak(n_steps):
            sched = build_schedule(ModeParams(x=2.0, n_steps=n_steps))
            tracemalloc.start()
            try:
                rows = sum(len(block) for block in propagate(pair_chunks(sched)))
                return rows, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (small_rows, small), (large_rows, large) = peak(1000), peak(20_000)
        assert (small_rows, large_rows) == (1001, 20_001)
        assert large <= small + 64 * 1024

    def test_final_state_memory_does_not_grow(self, monkeypatch):
        monkeypatch.setattr(subspace, "EVOLVE_CHUNK", 256)

        def peak(n_steps):
            sched = build_schedule(ModeParams(x=2.0, n_steps=n_steps))
            tracemalloc.start()
            try:
                evolve(sched)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20_000) <= peak(1000) + 64 * 1024


class TestOperators:
    def test_hermitian(self):
        assert np.array_equal(Z_PHYS, Z_PHYS.T)
        assert np.array_equal(A_PHYS, A_PHYS.T)

    def test_pair_generator_squares_to_projector(self):
        assert np.array_equal(A_PHYS @ A_PHYS, np.diag([1.0, 0.0, 0.0, 1.0]))

    def test_generators_do_not_commute(self):
        assert np.max(np.abs(Z_PHYS @ A_PHYS - A_PHYS @ Z_PHYS)) > 0.5


class TestStepUnitary:
    def test_identity_step(self):
        u = strang_step_unitary(*make_step(cz=0.0, ca=0.0, dy=1.0))
        assert np.allclose(u, np.eye(4), atol=1e-15)

    @given(
        cz=st.floats(min_value=-2.0, max_value=2.0),
        ca=st.floats(min_value=-2.0, max_value=2.0),
        dy=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_matches_matrix_exponential_factors(self, cz, ca, dy):
        theta_zh, theta_a = make_step(cz, ca, dy)
        expected = (
            expm(-1j * theta_zh * Z_PHYS)
            @ expm(-1j * theta_a * A_PHYS)
            @ expm(-1j * theta_zh * Z_PHYS)
        )
        assert np.max(np.abs(strang_step_unitary(theta_zh, theta_a) - expected)) < 1e-12

    @given(
        cz=st.floats(min_value=-2.0, max_value=2.0),
        ca=st.floats(min_value=-2.0, max_value=2.0),
        dy=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_unitarity(self, cz, ca, dy):
        u = strang_step_unitary(*make_step(cz, ca, dy))
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-14

    @given(
        theta_a=st.floats(min_value=-3.0, max_value=3.0),
        cz=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_pair_population_from_vacuum_is_sin_squared(self, theta_a, cz):
        # Number-operator phases are diagonal and drop out of populations.
        step = make_step(cz=cz, ca=theta_a, dy=1.0)
        psi = strang_step_unitary(*step) @ VACUUM
        assert abs(psi[3]) ** 2 == pytest.approx(np.sin(theta_a) ** 2, abs=1e-12)


class TestEvolve:
    def test_zero_angle_step_is_identity_on_populations(self):
        sched = build_schedule(ModeParams(x=2.0, y_i=-80.0, y_f=0.0, n_steps=80))
        # Radiation-era slice alone leaves the vacuum invariant.
        _, cz, ca, _ = sched.columns()
        step = make_step(float(cz[-1]), float(ca[-1]), sched.dy)
        final = strang_step_unitary(*step) @ VACUUM
        assert abs(final[0]) ** 2 == pytest.approx(1.0, abs=1e-14)

    def test_single_step_closed_form(self):
        sched = build_schedule(ModeParams(x=1.3, n_steps=1))
        final, pops = evolve(sched), populations(sched)
        _, cz, ca, _ = sched.columns()
        _, theta_a = make_step(float(cz[0]), float(ca[0]), sched.dy)
        assert abs(final[3]) ** 2 == pytest.approx(np.sin(theta_a) ** 2, abs=1e-15)
        # sin^2(-80.7 / 39.65^2), frozen from the closed form checked above.
        assert abs(final[3]) ** 2 == pytest.approx(0.0026326481467, abs=1e-12)
        assert round(abs(final[3]) ** 2, 4) == 0.0026
        assert pops.shape == (2, 4)

    def test_norm_preserved_over_long_evolution(self):
        sched = build_schedule(ModeParams(x=2.0, n_steps=2500))
        final = evolve(sched)
        assert abs(np.linalg.norm(final) - 1.0) < 1e-10

    def test_parity_sector_never_populated(self):
        # From the vacuum the pair generator never reaches |1001> or |0110>:
        # the full 4x4 slice product keeps p_plus and p_minus exactly 0.0 at
        # every slice boundary, which is why `propagate` carries the
        # (vacuum, pair) block alone.
        sched = build_schedule(ModeParams(x=1.5, n_steps=20_000))
        assert not np.any(_reference_evolve(sched, VACUUM)[:, 1:3])

    def test_rows_sum_to_one(self):
        sched = build_schedule(ModeParams(x=1.5, n_steps=300))
        pops = populations(sched)
        assert np.max(np.abs(pops.sum(axis=1) - 1.0)) < 1e-10

    def test_high_resolution_reference_x2(self):
        # Frozen by this engine at N=2500; deviation from 1/(4x^4) is the
        # truncation floor (-3.6%) plus the grid snap of the transition.
        sched = build_schedule(ModeParams(x=2.0, n_steps=2500))
        final = evolve(sched)
        p_pair = abs(final[3]) ** 2
        assert p_pair == pytest.approx(0.0145988, abs=2e-7)
        assert abs(p_pair - n_k_analytic(2.0)) / n_k_analytic(2.0) < 0.08

    def test_trajectory_shape_flat_rise_plateau(self):
        sched = build_schedule(ModeParams(x=1.5, n_steps=2500))
        p = populations(sched)[:, 3]
        y = sched.params.y_i + np.arange(len(sched) + 1) * sched.dy
        # Flat and tiny deep in the de Sitter era.
        assert np.max(p[y < -15.0]) < 1e-3
        # Rising near the transition: value just before -x is well below final.
        before = p[np.searchsorted(y, -3.0)]
        at_transition = p[np.searchsorted(y, -1.5)]
        assert before < at_transition < p[-1] * 1.05
        # Plateau after the transition: pair-creation coefficient vanishes.
        rad = p[y >= -1.4]
        assert np.max(rad) - np.min(rad) < 1e-12
        # Final plateau near the benchmark within the truncation budget.
        assert p[-1] == pytest.approx(n_k_analytic(1.5), rel=0.10)


class TestSecondOrderConvergence:
    def test_straddle_free_quadrupling_ratio(self):
        # Window chosen so the transition sits exactly on a slice boundary for
        # every N used; the split-step error then scales cleanly as 1/N^2 and
        # |P(N) - P(4N)| shrinks 16x when N quadruples.
        x, y_i = 3.0, -80.0
        y_f = y_i + 77.0 * 250.0 / 240.0
        p = {}
        for n in (250, 500, 1000, 2000, 4000):
            sched = build_schedule(ModeParams(x=x, y_i=y_i, y_f=y_f, n_steps=n))
            final = evolve(sched)
            p[n] = abs(final[3]) ** 2
        err = {n: abs(p[n] - p[4 * n]) for n in (250, 500, 1000)}
        assert err[250] / err[500] == pytest.approx(4.0, rel=0.2)
        assert err[500] / err[1000] == pytest.approx(4.0, rel=0.2)
        assert err[250] / err[1000] == pytest.approx(16.0, rel=0.2)


class TestParticleNumber:
    def test_symmetric_occupations_from_vacuum_evolution(self):
        # n_plus = p_plus + p_pair and n_minus = p_minus + p_pair: from the
        # vacuum both equal the pair population at every slice boundary.
        sched = build_schedule(ModeParams(x=2.0, n_steps=100))
        _, p_plus, p_minus, p_pair = populations(sched).T
        assert np.array_equal(p_plus + p_pair, p_pair)
        assert np.array_equal(p_minus + p_pair, p_pair)
