"""Background quantities, closed-form benchmark, and the mode-equation oracle."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosmopair
from cosmopair.background import (
    BogoliubovPair,
    ModeParams,
    bogoliubov_analytic,
    bogoliubov_ode_oracle,
    multi_pair_probability,
    n_k_analytic,
)


class TestModeParams:
    def test_defaults(self):
        p = ModeParams(x=2.0)
        assert p.y_i == -80.0
        assert p.y_f == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"x": -1.0},
            {"x": 0.0},
            {"x": 2.0, "y_i": -1.0},  # transition outside window
            {"x": 2.0, "y_f": -3.0},
            {"x": 2.0, "n_steps": 0},
            {"x": 2.0, "y_i": -1e155},  # -1/y^2 of a slice would overflow
            {"x": 2.0, "y_i": float("-inf")},
            {"x": 2.0, "y_i": float("nan")},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModeParams(**kwargs)


class TestBogoliubovAnalytic:
    def test_x_equal_one(self):
        pair = bogoliubov_analytic(1.0)
        assert pair.alpha == pytest.approx(0.5 + 1.0j)
        assert pair.n_k == pytest.approx(0.25)
        assert abs(pair.alpha) ** 2 - pair.n_k == pytest.approx(1.0)

    def test_table_value_x2(self):
        assert bogoliubov_analytic(2.0).n_k == pytest.approx(1.0 / 64.0)
        assert round(bogoliubov_analytic(2.0).n_k, 4) == 0.0156

    def test_adiabatic_limit(self):
        pair = bogoliubov_analytic(1e6)
        assert abs(pair.beta) < 1e-12
        assert pair.alpha == pytest.approx(1.0, abs=1e-5)

    @given(st.floats(min_value=0.5, max_value=10.0))
    def test_normalization(self, x):
        assert abs(bogoliubov_analytic(x).normalization_defect) < 1e-12


class TestNkAnalytic:
    @pytest.mark.parametrize(
        "x,expected", [(1.3, 0.0875), (2.2, 0.0107), (1.0, 0.25)]
    )
    def test_reference_values(self, x, expected):
        assert round(n_k_analytic(x), 4) == expected

    @pytest.mark.parametrize("x", [1e-80, 1e-200, 5e-324])
    def test_rejects_x_whose_closed_form_overflows(self, x):
        with pytest.raises(ValueError, match="too small"):
            n_k_analytic(x)

    def test_matches_beta_squared(self):
        for x in np.geomspace(0.5, 10.0, 17):
            assert abs(n_k_analytic(x) - bogoliubov_analytic(x).n_k) < 1e-14

    @given(st.floats(min_value=0.5, max_value=50.0))
    def test_quartic_scaling_is_exact(self, x):
        assert n_k_analytic(x) == 16.0 * n_k_analytic(2.0 * x)

    @given(
        st.floats(min_value=0.5, max_value=49.0),
        st.floats(min_value=1.001, max_value=1.5),
    )
    def test_strictly_decreasing(self, x, ratio):
        assert n_k_analytic(x * ratio) < n_k_analytic(x)


class TestMultiPairProbability:
    def test_zero(self):
        assert multi_pair_probability(0.0) == 0.0

    def test_small_occupation_bound(self):
        # For n_k < 0.01 the omitted weight stays below 1e-4.
        val = multi_pair_probability(0.01)
        assert val == pytest.approx((0.01 / 1.01) ** 2)
        assert val < 1e-4

    def test_unit_occupation(self):
        assert multi_pair_probability(1.0) == 0.25

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            multi_pair_probability(-0.1)


class TestOdeOracle:
    @pytest.mark.parametrize("x,expected", [(2.0, 1.0 / 64.0), (5.0, 4.0e-4)])
    def test_against_closed_form(self, x, expected):
        pair = bogoliubov_ode_oracle(x, -80.0, 1e-10)
        assert pair.n_k == pytest.approx(expected, abs=1e-9)

    def test_alpha_magnitude(self):
        pair = bogoliubov_ode_oracle(1.0, -80.0, 1e-10)
        assert abs(pair.alpha) ** 2 == pytest.approx(1.25, abs=1e-8)

    @pytest.mark.parametrize("x", [1.0, 1.5, 2.0, 3.0, 5.0])
    def test_relative_error_budget(self, x):
        pair = bogoliubov_ode_oracle(x, -80.0, 1e-10)
        rel = abs(pair.n_k - n_k_analytic(x)) / n_k_analytic(x)
        assert rel < 1e-6

    def test_full_pair_close_to_analytic(self):
        got = bogoliubov_ode_oracle(2.0, -80.0, 1e-10)
        want = bogoliubov_analytic(2.0)
        assert got.alpha == pytest.approx(want.alpha, abs=1e-7)
        assert got.beta == pytest.approx(want.beta, abs=1e-7)

    def test_rejects_shallow_start(self):
        with pytest.raises(ValueError):
            bogoliubov_ode_oracle(2.0, -15.0, 1e-10)

    def test_rejects_out_of_range_tol(self):
        with pytest.raises(ValueError):
            bogoliubov_ode_oracle(2.0, -80.0, 1e-3)


def test_bogoliubov_pair_is_plain_container():
    pair = BogoliubovPair(alpha=1.0 + 0j, beta=0j)
    assert pair.n_k == 0.0
    assert pair.normalization_defect == 0.0


def test_cli_import_leaves_scipy_integrate_unloaded():
    # Only the ODE oracle integrates; importing scipy.integrate up front
    # made up most of the CLI's start-up time.
    src = str(Path(cosmopair.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, cosmopair.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
