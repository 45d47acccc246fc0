"""Grid construction, midpoint branch selection, and split-step angles."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosmopair.background import ModeParams
from cosmopair.schedule import CoeffSchedule, build_schedule


# ---------------------------------------------------------------------------
# Reference: the per-step loop that the columnar build_schedule replaced, one
# record per slice evaluated on Python floats.
# ---------------------------------------------------------------------------

def _reference_steps(params):
    dy = (params.y_f - params.y_i) / params.n_steps
    steps = []
    for n in range(params.n_steps):
        y_mid = params.y_i + (n + 0.5) * dy
        if y_mid >= -params.x:
            cz, ca, radiation = 1.0, 0.0, True
        else:
            ca = -1.0 / y_mid**2
            cz, radiation = 1.0 + ca, False
        steps.append(SimpleNamespace(y_mid=y_mid, dy=dy, cz=cz, ca=ca, radiation=radiation))
    return steps


def _reference_angles(cz, ca, dy):
    """The split-step angles of each slice, on Python floats."""
    return [(c * dy / 2.0, a * dy) for c, a in zip(cz, ca)]


def _reference_boundaries(params):
    dy = (params.y_f - params.y_i) / params.n_steps
    return [params.y_i + n * dy for n in range(params.n_steps + 1)]


def _assert_matches_reference(params):
    sched = build_schedule(params)
    ref = _reference_steps(params)
    y_mid, cz, ca, radiation = sched.columns()
    # Columns bit for bit; array_equal takes -0.0 == 0.0, so the sign of ca
    # is compared on its own.
    assert np.array_equal(y_mid, [s.y_mid for s in ref])
    assert np.array_equal(cz, [s.cz for s in ref])
    assert np.array_equal(ca, [s.ca for s in ref])
    assert np.array_equal(np.signbit(ca), [np.signbit(s.ca) for s in ref])
    assert np.array_equal(radiation, [s.radiation for s in ref])
    assert sched.dy == ref[0].dy
    assert np.array_equal(sched.boundaries(), _reference_boundaries(params))
    return sched, ref


class TestColumnarSchedule:
    @settings(max_examples=60, deadline=None)
    @given(
        x=st.floats(min_value=0.6, max_value=5.0),
        n_steps=st.integers(min_value=1, max_value=3000),
        y_i=st.floats(min_value=-500.0, max_value=-6.0),
    )
    def test_columns_equal_scalar_loop(self, x, n_steps, y_i):
        sched, ref = _assert_matches_reference(ModeParams(x=x, y_i=y_i, n_steps=n_steps))
        expected = _reference_angles([s.cz for s in ref], [s.ca for s in ref], ref[0].dy)
        assert list(zip(*(a.tolist() for a in sched.angles()))) == expected

    @pytest.mark.parametrize("x", [1.5, 2.0])
    def test_columns_equal_scalar_loop_at_100k_steps(self, x):
        # y * y and np.power(y, 2) differ from Python's y**2 on dozens of
        # these midpoints; the columns must not.
        _assert_matches_reference(ModeParams(x=x, n_steps=100_000))

    def test_windows_with_one_branch(self):
        for params in (
            SimpleNamespace(x=2.0, y_i=-80.0, y_f=-3.0, n_steps=50),  # de Sitter only
            SimpleNamespace(x=2.0, y_i=-2.0, y_f=0.0, n_steps=50),  # radiation only
        ):
            _assert_matches_reference(params)

    def test_column_ranges_equal_the_full_columns(self):
        # Engines evaluate the schedule one chunk at a time; each range must
        # give the bytes of the same slices of the full columns.
        sched = build_schedule(ModeParams(x=2.0, n_steps=100_000))
        full = sched.columns()
        cuts = [0, 1, 4096, 4097, 97_500, 97_501, 99_999, 100_000]
        for start, stop in zip(cuts, cuts[1:]):
            for part, column in zip(sched.columns(start, stop), full):
                assert part.tobytes() == column[start:stop].tobytes()
        assert [len(c) for c in sched.columns(99_990, 200_000)] == [10] * 4

    def test_columns_are_read_only(self):
        sched = build_schedule(ModeParams(x=2.0, n_steps=3))
        for column in sched.columns():
            with pytest.raises(ValueError):
                column[0] = 0.0

    def test_angle_columns_equal_strang_angles(self):
        sched = build_schedule(ModeParams(x=1.5, n_steps=1000))
        theta_zh, theta_a = sched.angles(100, 900)
        _, cz, ca, _ = sched.columns()
        expected = np.array(_reference_angles(cz[100:900].tolist(), ca[100:900].tolist(), sched.dy))
        assert np.array_equal(theta_zh, expected[:, 0])
        assert np.array_equal(theta_a, expected[:, 1])
        tail = sched.angles(990, 2000)  # a chunk may run past the end
        assert len(tail[0]) == len(tail[1]) == 10


def _first_radiation(sched) -> int:
    """The first True of the evaluated radiation column, or its length."""
    return int(np.searchsorted(sched.columns()[3], True))


class TestSwitch:
    """`switch` bisects on the scalar midpoint formula; it must equal the
    first radiation slice of the evaluated column."""

    @pytest.mark.parametrize(
        "x, y_i, n_steps",
        [(x, -80.0, n) for x in (1.3, 2.0) for n in (1, 2, 1000)]
        + [(x, -10.0, 10) for x in (1.3, 2.0)] + [(x, -2.5, 257) for x in (1.3, 2.0)],
    )
    def test_golden_windows(self, x, y_i, n_steps):
        sched = build_schedule(ModeParams(x=x, y_i=y_i, n_steps=n_steps))
        assert sched.switch == _first_radiation(sched)

    def test_midpoint_exactly_on_the_transition_is_radiation(self):
        sched = build_schedule(ModeParams(x=2.0, y_i=-4.5, y_f=-0.5, n_steps=4))
        assert sched.columns()[0].tolist() == [-4.0, -3.0, -2.0, -1.0]
        assert sched.switch == _first_radiation(sched) == 2

    def test_no_radiation_slice(self):
        sched = build_schedule(ModeParams(x=2.0, n_steps=1))  # midpoint -39
        assert sched.switch == _first_radiation(sched) == 1

    def test_seeded_random_windows(self):
        # Windows on either side of the transition or across it, so the
        # switch runs from 0 to n_steps.
        rng = np.random.default_rng(23)
        switches = set()
        for _ in range(300):
            x = float(rng.uniform(0.5, 5.0))
            y_i = -x - float(rng.uniform(-1.0, 200.0))
            y_f = y_i + float(rng.uniform(0.1, 300.0))
            n_steps = int(rng.integers(1, 3000))
            sched = build_schedule(SimpleNamespace(x=x, y_i=y_i, y_f=y_f, n_steps=n_steps))
            assert sched.switch == _first_radiation(sched)
            switches.add(sched.switch == 0 or sched.switch == n_steps)
        assert switches == {True, False}

    def test_a_million_slices(self):
        sched = build_schedule(ModeParams(x=2.0, y_i=-10.0, n_steps=10**6))
        assert sched.switch == _first_radiation(sched) == 800_000


def test_two_step_grid_hand_values():
    # Midpoints -60 and -20; the second interval [-40, 0] straddles the
    # transition at -2 but its midpoint selects the de Sitter branch.
    sched = build_schedule(ModeParams(x=2.0, y_i=-80.0, y_f=0.0, n_steps=2))
    y_mid, cz, ca, radiation = sched.columns()
    assert y_mid.tolist() == [-60.0, -20.0]
    assert not radiation.any()
    assert ca.tolist() == pytest.approx([-1.0 / 3600.0, -1.0 / 400.0])
    assert cz.tolist() == pytest.approx([1 - 1 / 3600, 1 - 1 / 400])


def test_radiation_step():
    sched = build_schedule(ModeParams(x=2.0, y_i=-80.0, y_f=0.0, n_steps=80))
    y_mid, cz, ca, radiation = sched.columns()
    assert y_mid[-1] == pytest.approx(-0.5)
    assert radiation[-1]
    assert ca[-1] == 0.0
    assert cz[-1] == 1.0


def test_single_step_hardware_schedule():
    sched = build_schedule(ModeParams(x=1.3, y_i=-80.0, y_f=0.7, n_steps=1))
    y_mid, cz, ca, radiation = sched.columns()
    assert len(sched) == 1
    assert y_mid[0] == pytest.approx(-39.65)
    assert sched.dy == pytest.approx(80.7)
    assert not radiation[0]
    assert ca[0] == pytest.approx(-1.0 / 39.65**2)
    (theta_zh,), (theta_a,) = sched.angles()
    assert theta_a == pytest.approx(-80.7 / 39.65**2)
    assert theta_a == pytest.approx(-0.051332, abs=1e-6)
    assert theta_zh == pytest.approx(cz[0] * 80.7 / 2.0)


def test_branch_decided_by_midpoint_sign():
    # Midpoint exactly at the transition counts as radiation (half-open rule).
    sched = build_schedule(ModeParams(x=2.0, y_i=-3.0, y_f=-1.0, n_steps=1))
    y_mid, _, _, radiation = sched.columns()
    assert y_mid[0] == -2.0
    assert radiation[0]


def test_zero_slice_schedule():
    # The vacuum preparation alone: no slice, one boundary at y_i.
    sched = build_schedule(ModeParams(x=2.0, n_steps=0))
    assert (len(sched), sched.switch, sched.boundaries().tolist()) == (0, 0, [-80.0])
    assert [c.shape for c in sched.columns()] == [(0,)] * 4


def _one_slice(y_i, dy):
    # One slice of width dy from y_i, whatever the window says: dy = 0 too.
    return CoeffSchedule(ModeParams(x=2.0, y_i=y_i, n_steps=1), dy)


def test_strang_angles_trivial_cases():
    rad = _one_slice(y_i=-2.01, dy=0.1)  # midpoint -1.96: radiation, cz = 1, ca = 0
    assert rad.columns()[3].tolist() == [True]
    assert [a.tolist() for a in rad.angles()] == [[0.05], [0.0]]
    degenerate = _one_slice(y_i=-10.0, dy=0.0)  # cz = 0.99, ca = -0.01
    _, cz, ca, _ = degenerate.columns()
    assert cz.tolist() == [0.99] and ca.tolist() == [-0.01]
    assert [a.tolist() for a in degenerate.angles()] == [[0.0], [0.0]]


@given(
    x=st.floats(min_value=0.6, max_value=5.0),
    n_steps=st.integers(min_value=1, max_value=400),
)
def test_grid_properties(x, n_steps):
    params = ModeParams(x=x, n_steps=n_steps)
    sched = build_schedule(params)
    assert len(sched) == n_steps
    # Total width matches the window.
    assert sum([sched.dy] * len(sched)) == pytest.approx(
        params.y_f - params.y_i, abs=1e-12
    )
    # A contiguous de Sitter prefix followed by a radiation suffix.
    columns = sched.columns()
    radiation = columns[3].tolist()
    if True in radiation:
        first_rad = radiation.index(True)
        assert not any(radiation[:first_rad])
        assert all(radiation[first_rad:])
    # Per-branch coefficient relations.
    for y_mid, cz, ca, rad in zip(*columns[:3], radiation):
        if rad:
            assert ca == 0.0 and cz == 1.0
            assert y_mid >= -x
        else:
            assert ca == pytest.approx(-1.0 / y_mid**2)
            assert cz == pytest.approx(1.0 + ca)
            assert ca < 0.0
            assert y_mid < -x


@given(
    x=st.floats(min_value=0.6, max_value=5.0),
    n_steps=st.integers(min_value=1, max_value=200),
)
def test_refinement_places_coarse_midpoints_between_fine(x, n_steps):
    coarse = build_schedule(ModeParams(x=x, n_steps=n_steps)).columns()[0]
    fine = build_schedule(ModeParams(x=x, n_steps=2 * n_steps)).columns()[0]
    for n, y_mid in enumerate(coarse):
        mid = (fine[2 * n] + fine[2 * n + 1]) / 2.0
        assert y_mid == pytest.approx(mid, abs=1e-12)


def test_adiabatic_flat_space_limit():
    # Deep de Sitter midpoints give ca -> 0 and cz -> 1.
    sched = build_schedule(ModeParams(x=2.0, y_i=-1e8, y_f=0.0, n_steps=10))
    _, cz, ca, radiation = sched.columns()
    assert not radiation[0]
    assert ca[0] == pytest.approx(0.0, abs=1e-14)
    assert cz[0] == pytest.approx(1.0, abs=1e-14)


def test_boundaries_bracket_midpoints():
    sched = build_schedule(ModeParams(x=2.0, n_steps=7))
    bounds = sched.boundaries()
    assert len(bounds) == 8
    assert bounds[0] == -80.0 and bounds[-1] == pytest.approx(0.0)
    for n, y_mid in enumerate(sched.columns()[0]):
        assert bounds[n] < y_mid < bounds[n + 1]
