"""Subcommand behavior: file contents, determinism, exit codes."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import cosmopair.cli
from cosmopair.background import ModeParams, n_k_analytic
from cosmopair.circuits import circuit_from_text
from cosmopair.cli import main
from cosmopair.encoding import zq_pauli_sum, PauliString
from cosmopair.noise import NoiseModel, noisy_distributions
from cosmopair.schedule import build_schedule
from cosmopair.selfcheck import format_report, run_checks
from cosmopair.subspace import pair_chunks, propagate


def read_csv_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def run_must_fail_fast(tmp_path, argv, timeout=10):
    """Run `cosmopair *argv --out-dir tmp_path/out` in a subprocess.

    For calls that must be refused before any run: one that runs instead is
    killed after `timeout` seconds, its output directory with whatever it
    streamed so far is deleted, and the test fails.  Returns the finished
    process and the output directory.
    """
    out = tmp_path / "out"
    src = str(Path(cosmopair.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cosmopair", *argv, "--out-dir", str(out)],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        shutil.rmtree(out, ignore_errors=True)
        pytest.fail(f"cosmopair {' '.join(argv)} still ran after {timeout} s")
    return proc, out


def assert_too_large_exits_2(tmp_path, command):
    # 10**15 slices: petabytes of output, refused by the free-space check.
    proc, out = run_must_fail_fast(tmp_path, [command, "--x", "2", "--n-steps", str(10**15)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: --n-steps 1000000000000000 needs at least ")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


def _no_run(*args, **kwargs):
    raise AssertionError("a run started before --factors was checked")


class TestSweep:
    def test_analytic_single_point(self, tmp_path, capsys):
        assert main(["sweep", "--x", "2.0", "--methods", "analytic",
                     "--out-dir", str(tmp_path)]) == 0
        rows = read_csv_rows(tmp_path / "sweep.csv")
        assert len(rows) == 1
        assert rows[0]["method"] == "analytic"
        assert float(rows[0]["n_k"]) == 0.015625
        assert float(rows[0]["multi_pair_bound"]) == pytest.approx(
            (0.015625 / 1.015625) ** 2
        )

    def test_engine_rows_agree(self, tmp_path):
        assert main(["sweep", "--x", "3.0", "--methods", "matrix,statevector",
                     "--n-steps", "50", "--out-dir", str(tmp_path)]) == 0
        rows = read_csv_rows(tmp_path / "sweep.csv")
        by_method = {r["method"]: float(r["n_k"]) for r in rows}
        assert abs(by_method["matrix"] - by_method["statevector"]) < 1e-10

    def test_metadata_header_and_json_mirror(self, tmp_path):
        main(["sweep", "--x", "1.5", "--methods", "analytic",
              "--out-dir", str(tmp_path)])
        text = (tmp_path / "sweep.csv").read_text()
        assert text.startswith("# cosmopair ")
        assert "# command: sweep" in text
        doc = json.loads((tmp_path / "sweep.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["parameters"]["x_grid"] == [1.5]
        assert doc["rows"][0]["n_k"] == pytest.approx(1 / (4 * 1.5**4))

    def test_default_grid_is_forty_log_points(self, tmp_path):
        main(["sweep", "--methods", "analytic", "--out-dir", str(tmp_path)])
        rows = read_csv_rows(tmp_path / "sweep.csv")
        xs = [float(r["x"]) for r in rows]
        assert len(xs) == 40
        assert xs[0] == pytest.approx(1.0) and xs[-1] == pytest.approx(5.0)
        ratios = np.diff(np.log(xs))
        assert np.allclose(ratios, ratios[0])

    def test_seeded_methods_are_deterministic(self, tmp_path):
        args = ["sweep", "--x", "2.0", "--methods", "shots", "--n-steps", "20",
                "--shots", "2048", "--seed", "9"]
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a/sweep.csv").read_bytes() == (tmp_path / "b/sweep.csv").read_bytes()
        assert (tmp_path / "a/sweep.json").read_bytes() == (tmp_path / "b/sweep.json").read_bytes()

    def test_unknown_method_exits_2(self, tmp_path, capsys):
        assert main(["sweep", "--x", "2.0", "--methods", "magic",
                     "--out-dir", str(tmp_path)]) == 2
        assert "unknown method" in capsys.readouterr().err

    def test_nonpositive_x_exits_2(self, tmp_path):
        assert main(["sweep", "--x", "-1.0", "--methods", "analytic",
                     "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("x", ["nan", "inf", "1.3,-inf"])
    def test_nonfinite_x_exits_2(self, tmp_path, capsys, x):
        assert main(["sweep", "--x", x, "--methods", "analytic",
                     "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: x grid must be nonempty, finite and positive")
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["trajectory", "--x=1e-200", "--n-steps=1"], "too small"),
            (["sweep", "--x=1e-100", "--methods", "analytic"], "too small"),
            (["dump-circuit", "--x=0.8", "--y-i=-1e206"], "must be finite and within"),
            # Below x = 1e-150, -1/y^2 overflows at a de Sitter midpoint.
            (["dump-schedule", "--x=1e-160", "--y-i=-4e-160", "--y-f=0"], "too small"),
            (["dump-circuit", "--x=1e-160", "--y-i=-4e-160", "--y-f=0"], "too small"),
            # Two rows from one seed and one draw, shown as two samples.
            (["sweep", "--x=2", "--methods", "analytic,analytic,shots,shots", "--n-steps=3"],
             "method 'analytic' appears more than once"),
            # --n-steps is checked even when no requested method takes steps.
            (["sweep", "--x=2", "--methods", "analytic", "--n-steps=-5"],
             "n_steps must be >= 1, got -5"),
            # noise-study shares sweep's check; the commands that take
            # --n-steps 0, the preparation alone, refuse only a negative count.
            (["noise-study", "--x=2", "--n-steps=0"], "n_steps must be >= 1, got 0"),
            (["noise-study", "--x=2", "--n-steps=-1"], "n_steps must be >= 1, got -1"),
            (["trajectory", "--x=2", "--n-steps=-1"], "n_steps must be >= 0, got -1"),
            (["dump-schedule", "--x=2", "--n-steps=-1"], "n_steps must be >= 0, got -1"),
            (["dump-circuit", "--x=2", "--n-steps=-1"], "n_steps must be >= 0, got -1"),
            # The range options are checked even when --x overrides them.
            (["sweep", "--x=2", "--methods", "analytic", "--x-points=0"],
             "--x-points must be >= 1, got 0"),
            (["sweep", "--x=2", "--methods", "analytic", "--x-min=-1"],
             "--x-min must be finite and positive, got -1.0"),
            (["sweep", "--x=2", "--methods", "analytic", "--x-max=nan"],
             "--x-max must be finite and positive, got nan"),
        ],
        ids=["trajectory_tiny_x", "sweep_tiny_x", "dump_circuit_huge_window",
             "dump_schedule_tiny_window", "dump_circuit_tiny_window", "sweep_repeated_method",
             "sweep_negative_steps", "noise_study_zero_steps", "noise_study_negative_steps",
             "trajectory_negative_steps", "dump_schedule_negative_steps",
             "dump_circuit_negative_steps", "sweep_x_points_with_x", "sweep_x_min_with_x",
             "sweep_x_max_with_x"],
    )
    def test_out_of_range_input_exits_2(self, tmp_path, capsys, argv, message):
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "factors, message",
        [("1", "at least two"), ("1,nan", "finite"), ("1,inf", "finite"),
         ("2,1", "strictly increasing"), ("0.5,1", ">= 1")],
    )
    def test_bad_factors_exit_2_before_any_run(self, tmp_path, capsys, monkeypatch,
                                               factors, message):
        import cosmopair.cli as cli

        monkeypatch.setattr(cli, "noisy_distributions", _no_run)
        monkeypatch.setattr(cli, "zne_estimate", _no_run)
        assert main(["sweep", "--x", "2.0", "--methods", "analytic,noisy,zne",
                     "--factors", factors, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--x", "2.0", "--methods", "shots", "--n-steps", "2", "--seed=-1"],
            ["noise-study", "--x", "2.0", "--seed=-7"],
        ],
        ids=["sweep", "noise_study"],
    )
    def test_negative_seed_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        import cosmopair.cli as cli

        for name in ("run_schedule", "noisy_distributions"):
            monkeypatch.setattr(cli, name, _no_run)
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == 2
        seed = argv[-1].split("=")[1]
        assert capsys.readouterr().err == f"error: --seed must be >= 0, got {seed}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid, message",
        [
            (["--x-min=-1.5", "--x-max=2", "--x-points=2"], "--x-min must be finite and positive"),
            (["--x-min=1", "--x-max=nan"], "--x-max must be finite and positive"),
            (["--x-min=0", "--x-max=inf"], "--x-min must be finite and positive"),
            (["--x-min=1", "--x-max=2", "--x-points=0"], "--x-points must be >= 1"),
            (["--x-min=1", "--x-max=2", "--x-points=-4"], "--x-points must be >= 1"),
        ],
        ids=["negative_min", "nan_max", "zero_min", "zero_points", "negative_points"],
    )
    def test_bad_x_range_is_one_error_line(self, tmp_path, capsys, grid, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["sweep", *grid, "--methods", "analytic", "--out-dir", str(tmp_path)])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}, got ") and err.count("\n") == 1

    def test_scaled_pauli_rates_checked_before_any_run(self, tmp_path, capsys, monkeypatch):
        import cosmopair.cli as cli
        import cosmopair.mitigation as mitigation

        for module, name in ((cli, "noisy_distributions"), (mitigation, "sample_counts")):
            monkeypatch.setattr(module, name, _no_run)
        # 500 x the default p2 = 2.8e-3 is a rate of 1.4.
        assert main(["sweep", "--x", "1.3,2.0", "--methods", "analytic,zne",
                     "--factors", "1,500", "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: noise factor 500: Pauli rate 1.4 outside [0, 1]\n"
        assert not (tmp_path / "sweep.csv").exists()
        # Without a zne row the factors are never applied to the model.
        assert main(["sweep", "--x", "1.3", "--methods", "analytic",
                     "--factors", "1,500", "--out-dir", str(tmp_path)]) == 0

    def test_workers_option_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--x", "2.0", "--methods", "analytic", "--workers", "2",
                  "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_negative_exponent_window_needs_the_equals_form(self, tmp_path):
        # argparse reads a spaced "-1e3" as an option name, not as --y-i's value.
        assert main(["sweep", "--x", "2", "--methods", "analytic", "--y-i=-1e3",
                     "--out-dir", str(tmp_path / "joined")]) == 0
        header = (tmp_path / "joined" / "sweep.csv").read_text().splitlines()[2]
        assert header.startswith("# parameters: ") and '"y_i": -1000.0' in header
        src = str(Path(cosmopair.cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        spaced = subprocess.run(
            [sys.executable, "-m", "cosmopair", "sweep", "--x", "2", "--methods", "analytic",
             "--y-i", "-1e3", "--out-dir", str(tmp_path / "spaced")],
            env=env, capture_output=True, text=True,
        )
        assert spaced.returncode == 2
        assert "argument --y-i: expected one argument" in spaced.stderr
        assert "Traceback" not in spaced.stderr
        assert not (tmp_path / "spaced").exists()

    def test_stray_tmp_directory_does_not_break_sweep(self, tmp_path):
        (tmp_path / "sweep.csv.tmp").mkdir()
        assert main(["sweep", "--x", "2.0", "--methods", "analytic",
                     "--out-dir", str(tmp_path)]) == 0
        assert read_csv_rows(tmp_path / "sweep.csv")[0]["method"] == "analytic"
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["sweep.csv", "sweep.csv.tmp", "sweep.json"]

    def test_state_that_is_not_normalized_exits_3(self, tmp_path, capsys, monkeypatch):
        # Norm drift is a numerical failure, not bad usage.
        import cosmopair.cli as cli

        drifted = np.zeros(16, dtype=complex)
        drifted[0b0101] = 1.0 + 1e-6
        monkeypatch.setattr(cli, "run_schedule", lambda schedule: drifted)
        out = tmp_path / "out"
        assert main(["sweep", "--x", "2.0", "--methods", "statevector", "--n-steps", "3",
                     "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: state is not normalized") and err.count("\n") == 1
        assert not out.exists()

    def test_single_step_statevector_five_points(self, tmp_path):
        assert main(["sweep", "--x", "1.3,1.5,1.8,2.0,2.2", "--n-steps", "1",
                     "--methods", "statevector", "--out-dir", str(tmp_path)]) == 0
        rows = read_csv_rows(tmp_path / "sweep.csv")
        got = [round(float(r["n_k"]), 4) for r in rows]
        assert got == [0.0026, 0.0026, 0.0025, 0.0025, 0.0025]

    @pytest.mark.parametrize("x", [1.3, 2.0])
    def test_mitigated_stderr_is_the_spread_of_mitigated_p_pair(self, x):
        # The readout inversion spreads the counts' error: the raw binomial
        # stderr is about 5% below the spread of the mitigated p_pair here.
        # With the delta-method stderr the two agree to under 1% over these
        # 2,000 fixed seeds; a sample standard deviation of 2,000 draws is
        # itself uncertain by about 1.6%.
        import cosmopair.cli as cli

        model = NoiseModel.symmetric()
        (levels,) = noisy_distributions([build_schedule(ModeParams(x=x, n_steps=1))], [model])
        rows = np.array([cli._mitigated_row(levels={1.0: levels[0]}, shots=4096, seed=seed,
                                            model=model)[:2] for seed in range(2000)])
        assert rows[:, 1].mean() == pytest.approx(rows[:, 0].std(), rel=0.02)


class TestTrajectory:
    def test_grid_too_large_to_allocate_exits_2(self, tmp_path):
        # The rows are streamed, so nothing fails to allocate: the size
        # check must refuse the grid before the first slice.
        assert_too_large_exits_2(tmp_path, "trajectory")

    def test_columns_and_plateau_column(self, tmp_path):
        assert main(["trajectory", "--x", "2.0", "--n-steps", "40",
                     "--out-dir", str(tmp_path)]) == 0
        rows = read_csv_rows(tmp_path / "trajectory_x2.csv")
        assert len(rows) == 41
        assert list(rows[0]) == ["y", "p_vac", "p_plus", "p_minus", "p_pair", "n_k_analytic"]
        assert float(rows[0]["y"]) == -80.0
        assert float(rows[0]["p_vac"]) == 1.0
        assert all(float(r["n_k_analytic"]) == 0.015625 for r in rows)

    def test_default_x_values(self, tmp_path):
        assert main(["trajectory", "--n-steps", "10", "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "trajectory_x1.5.csv").exists()
        assert (tmp_path / "trajectory_x2.csv").exists()

    def test_degenerate_zero_steps(self, tmp_path):
        assert main(["trajectory", "--x", "2.0", "--n-steps", "0",
                     "--out-dir", str(tmp_path)]) == 0
        rows = read_csv_rows(tmp_path / "trajectory_x2.csv")
        assert len(rows) == 1
        assert float(rows[0]["p_pair"]) == 0.0

    def test_streamed_rows_match_per_row_formatting(self, tmp_path):
        # Several propagation chunks, the last one short.  The reference is
        # per-row formatting of the boundaries and of every population.
        x, n_steps = 1.5, 10_001
        assert main(["trajectory", "--x", "1.5", "--n-steps", str(n_steps),
                     "--out-dir", str(tmp_path)]) == 0
        sched = build_schedule(ModeParams(x=x, n_steps=n_steps))
        populations = np.zeros((n_steps + 1, 4))
        populations[:, ::3] = np.abs(np.concatenate(list(propagate(pair_chunks(sched))))) ** 2
        boundaries = sched.params.y_i + np.arange(n_steps + 1) * sched.dy
        rows = [
            ",".join(repr(v) for v in (float(t), *(float(p) for p in pops), n_k_analytic(x)))
            for t, pops in zip(boundaries, populations)
        ]
        lines = (tmp_path / "trajectory_x1.5.csv").read_text().split("\n")
        assert lines[3] == "y,p_vac,p_plus,p_minus,p_pair,n_k_analytic"
        assert lines[4:] == rows + [""]

    def test_failed_stream_leaves_no_file(self, tmp_path, capsys):
        from cosmopair.cli import _write_set

        def chunks():
            yield "partial\n"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            _write_set(tmp_path, [("t.csv", chunks())])
        assert list(tmp_path.iterdir()) == []
        # The first file is complete, the second one's stream fails: neither stays.
        with pytest.raises(OSError, match="disk full"):
            _write_set(tmp_path, [("a.csv", "a\n"), ("t.csv", chunks())])
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().out == ""
        _write_set(tmp_path, [("t.csv", iter(["a\n", "b\n"]))])
        assert (tmp_path / "t.csv").read_text() == "a\nb\n"
        assert capsys.readouterr().out == f"wrote {tmp_path / 't.csv'}\n"

    def test_failure_at_a_later_x_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        import cosmopair.cli as cli

        real_propagate, calls = cli.propagate, []

        def propagate(chunks):
            calls.append(chunks)
            if len(calls) == 2:
                raise ValueError("second x fails")
            return real_propagate(chunks)

        monkeypatch.setattr(cli, "propagate", propagate)
        assert main(["trajectory", "--x", "1.5,2.0", "--n-steps", "10",
                     "--out-dir", str(tmp_path)]) == 2
        assert len(calls) == 2
        assert capsys.readouterr().err == "error: second x fails\n"
        assert list(tmp_path.glob("trajectory_x*.csv")) == []
        assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []

    def test_longer_wavelength_ends_higher(self, tmp_path):
        # Final pair occupation decreases with x, consistent with 1/(4x^4).
        assert main(["trajectory", "--n-steps", "2500", "--out-dir", str(tmp_path)]) == 0
        final = {}
        for name, x in (("trajectory_x1.5.csv", 1.5), ("trajectory_x2.csv", 2.0)):
            rows = read_csv_rows(tmp_path / name)
            final[x] = float(rows[-1]["p_pair"])
        assert final[2.0] < final[1.5]


class TestNoiseStudy:
    def test_zero_noise_model_matches_ideal(self, tmp_path):
        model_file = tmp_path / "model.json"
        model_file.write_text(NoiseModel.symmetric(epsilon=0.0, p2=0.0, p1=0.0).to_json())
        assert main(["noise-study", "--x", "1.3", "--shots", "4096", "--seed", "0",
                     "--model-file", str(model_file), "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "noise_study.json").read_text())
        (entry,) = doc["results"]
        ideal = entry["ideal"]["p_pair"]
        sigma = np.sqrt(ideal * (1 - ideal) / 4096)
        assert abs(entry["raw"]["n_k"] - ideal) < 4 * sigma
        assert entry["zne"]["factors"] == [1.0, 1.5, 2.0]

    def test_default_model_mitigation_reduces_leakage(self, tmp_path):
        assert main(["noise-study", "--x", "1.3", "--shots", "4096", "--seed", "1",
                     "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "noise_study.json").read_text())
        (entry,) = doc["results"]
        assert entry["raw"]["leakage"] > entry["mitigated"]["leakage"]
        assert entry["raw"]["leakage"] > 0.05

    def test_missing_model_file_exits_2(self, tmp_path, capsys):
        assert main(["noise-study", "--x", "1.3",
                     "--model-file", str(tmp_path / "absent.json"),
                     "--out-dir", str(tmp_path)]) == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"p1": 0, "p2": 0}', "missing key(s) readout"),
            ('{"readout": [[[1, 0, 0], [0, 1, 0]]], "p1": 0, "p2": 0}', "not 2x2"),
            ('{"readout": [[[1, 0], [0, 1]]], "p1": 0, "p2": 0}', "covers 1 qubits"),
            ('{"readout": [[[NaN, 0], [0, 1]], [[1, 0], [0, 1]], [[1, 0], [0, 1]], '
             '[[1, 0], [0, 1]]], "p1": 0, "p2": 0}', "non-finite"),
        ],
        ids=["missing_readout", "readout_not_2x2", "wrong_qubit_count", "nan_readout"],
    )
    def test_invalid_model_file_exits_2(self, tmp_path, capsys, doc, message):
        model_file = tmp_path / "model.json"
        model_file.write_text(doc)
        assert main(["sweep", "--x", "2.0", "--methods", "analytic",
                     "--model-file", str(model_file), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["noise-study", "--x", "1.3", "--shots", "256"],
            ["sweep", "--x", "1.3", "--methods", "mitigated", "--shots", "256"],
        ],
        ids=["noise_study", "sweep_mitigated"],
    )
    def test_singular_readout_exits_3(self, tmp_path, capsys, argv):
        # A 0.5 flip makes every readout column equal, so the restricted
        # confusion matrix is singular: a numerical failure, not bad usage.
        model_file = tmp_path / "model.json"
        model_file.write_text(NoiseModel.symmetric(epsilon=0.5).to_json())
        out = tmp_path / "out"
        assert main(argv + ["--model-file", str(model_file), "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "singular" in err
        assert not out.exists()

    def test_factors_checked_before_any_run(self, tmp_path, capsys, monkeypatch):
        import cosmopair.cli as cli
        import cosmopair.mitigation as mitigation

        for module, name in ((cli, "run_schedule"), (cli, "noisy_distributions"),
                             (mitigation, "sample_counts")):
            monkeypatch.setattr(module, name, _no_run)
        assert main(["noise-study", "--x", "1.3,1.5,2.0", "--factors", "1",
                     "--out-dir", str(tmp_path)]) == 2
        assert "need at least two noise factors" in capsys.readouterr().err
        assert not tmp_path.joinpath("noise_study.json").exists()

    def test_scaled_pauli_rates_checked_before_any_run(self, tmp_path, capsys, monkeypatch):
        import cosmopair.cli as cli
        import cosmopair.mitigation as mitigation

        for module, name in ((cli, "run_schedule"), (cli, "noisy_distributions"),
                             (mitigation, "sample_counts")):
            monkeypatch.setattr(module, name, _no_run)
        assert main(["noise-study", "--x", "1.3,2.0", "--factors", "1,500",
                     "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: noise factor 500: Pauli rate 1.4 outside [0, 1]\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["noise-study", "--x", "2.0", "--shots", "0"],
            ["noise-study", "--x", "2.0", "--shots", "-3"],
            ["sweep", "--x", "2.0", "--methods", "noisy", "--shots", "0"],
        ],
        ids=["noise_study_zero", "noise_study_negative", "sweep_noisy_zero"],
    )
    def test_nonpositive_shots_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: shots must be >= 1") and err.count("\n") == 1
        assert not out.exists()

    def test_failed_counts_write_leaves_no_manifest(self, tmp_path, capsys):
        (tmp_path / "counts_x1.3.csv").mkdir()
        assert main(["noise-study", "--x", "1.3", "--shots", "64",
                     "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "noise_study.json").exists()

    def test_deterministic(self, tmp_path):
        args = ["noise-study", "--x", "1.3", "--shots", "1024", "--seed", "4"]
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        for name in ("noise_study.json", "counts_x1.3.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_counts_file_matches_shots(self, tmp_path):
        assert main(["noise-study", "--x", "1.3", "--shots", "512", "--seed", "2",
                     "--out-dir", str(tmp_path)]) == 0
        lines = [
            ln for ln in (tmp_path / "counts_x1.3.csv").read_text().splitlines()
            if ln and not ln.startswith("#")
        ]
        assert lines[0] == "bitstring,count"
        body = [ln.split(",") for ln in lines[1:]]
        assert [b[0] for b in body] == sorted(b[0] for b in body)
        assert sum(int(c) for _, c in body) == 512


class TestDumps:
    def test_schedule_dump_values(self, tmp_path):
        assert main(["dump-schedule", "--x", "1.3", "--n-steps", "1",
                     "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "schedule_x1.3_n1.json").read_text())
        (step,) = doc["steps"]
        assert step["y_mid"] == pytest.approx(-39.65)
        assert step["dy"] == pytest.approx(80.7)
        assert step["branch"] == "de_sitter"
        assert step["ca"] == pytest.approx(-1 / 39.65**2)

    def test_schedule_dump_zero_steps(self, tmp_path):
        # As dump-circuit and trajectory: the window of --n-steps 1, no slices.
        assert main(["dump-schedule", "--x", "2.0", "--n-steps", "0",
                     "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "schedule_x2_n0.json").read_text())
        assert doc["steps"] == []
        assert doc["parameters"] == {"x": 2.0, "n_steps": 0, "y_i": -80.0, "y_f": 0.0}

    @pytest.mark.parametrize("n_steps", [0, 1, 4, 9])
    def test_schedule_dump_streams_the_json_document(self, tmp_path, monkeypatch, n_steps):
        # Chunks of 4 slices: none, one short, one whole and a short last
        # chunk; over y_i = -4 the last slices are radiation slices.
        monkeypatch.setattr(cosmopair.cli, "_SCHEDULE_CHUNK", 4)
        assert main(["dump-schedule", "--x", "2.0", "--y-i=-4", "--n-steps", str(n_steps),
                     "--out-dir", str(tmp_path)]) == 0
        sched = build_schedule(ModeParams(x=2.0, y_i=-4.0, n_steps=n_steps))
        steps = [
            {"index": n, "y_mid": y_mid, "dy": sched.dy, "cz": cz, "ca": ca,
             "branch": "radiation" if radiation else "de_sitter"}
            for n, (y_mid, cz, ca, radiation) in enumerate(
                zip(*(c.tolist() for c in sched.columns())))
        ]
        if n_steps >= 4:
            assert {step["branch"] for step in steps} == {"de_sitter", "radiation"}
        doc = {
            "schema_version": 1,
            "tool": "cosmopair",
            "version": cosmopair.__version__,
            "command": "dump-schedule",
            "parameters": {"x": 2.0, "n_steps": n_steps, "y_i": -4.0, "y_f": 0.0},
            "steps": steps,
        }
        text = (tmp_path / f"schedule_x2_n{n_steps}.json").read_text()
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_schedule_dump_too_large_exits_2(self, tmp_path):
        assert_too_large_exits_2(tmp_path, "dump-schedule")

    def test_circuit_dump_too_large_exits_2(self, tmp_path):
        # Without the check the header's walk over the gates runs first, for
        # hours, and prints nothing.
        assert_too_large_exits_2(tmp_path, "dump-circuit")

    def test_circuit_dump_round_trips(self, tmp_path):
        assert main(["dump-circuit", "--x", "2.0", "--n-steps", "1",
                     "--out-dir", str(tmp_path)]) == 0
        text = (tmp_path / "circuit_x2_n1.txt").read_text()
        circuit = circuit_from_text(text)
        assert len(circuit) == 174
        assert [g.name for g in circuit[:2]] == ["X", "X"]
        assert [g.qubits for g in circuit[:2]] == [(1,), (3,)]

    def test_circuit_dump_golden_bytes(self, tmp_path):
        # sha256 of the files as synthesized before slice templates existed.
        assert main(["dump-circuit", "--x", "1.3,2.0", "--n-steps", "3",
                     "--out-dir", str(tmp_path)]) == 0
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()
        }
        assert digests == {
            "circuit_x1.3_n3.txt": "fb91616547292068021c7bbcc39589c13b841707b570cce55396ce5aa21857b8",
            "circuit_x2_n3.txt": "bb9779d6a3b245be21039423e3f246df59a676bd8179fe4693162c22a00880d6",
        }

    def test_circuit_dump_zero_steps(self, tmp_path):
        assert main(["dump-circuit", "--x", "2.0", "--n-steps", "0",
                     "--out-dir", str(tmp_path)]) == 0
        circuit = circuit_from_text((tmp_path / "circuit_x2_n0.txt").read_text())
        assert len(circuit) == 2

    def test_circuit_dump_memory_does_not_grow_with_steps(self, tmp_path):
        # The header comes from one walk of the gates and the body is
        # streamed from a second: no list of gates or text is held.  The
        # first run fills the slice-template caches.
        peaks = {}
        for n_steps in (50, 50, 500):
            argv = ["dump-circuit", "--x", "2.0", "--n-steps", str(n_steps),
                    "--out-dir", str(tmp_path / str(n_steps))]
            tracemalloc.start()
            assert main(argv) == 0
            peaks[n_steps] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert abs(peaks[500] - peaks[50]) < 1024 * 1024


class TestMatrixRowMemory:
    def test_matrix_sweep_memory_does_not_grow_with_steps(self, tmp_path):
        # The row reads the final state only: no populations are recorded and
        # the schedule is evaluated one chunk at a time.  Holding the 1e5
        # populations alone would add 3.2 MB.
        peaks = {}
        for n_steps in (10_000, 10_000, 100_000):
            argv = ["sweep", "--x", "2.0", "--methods", "matrix", "--n-steps", str(n_steps),
                    "--out-dir", str(tmp_path / str(n_steps))]
            tracemalloc.start()
            assert main(argv) == 0
            peaks[n_steps] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert abs(peaks[100_000] - peaks[10_000]) < 1024 * 1024


class TestStreamedMemory:
    @pytest.mark.parametrize("command", ["trajectory", "dump-schedule"])
    def test_memory_does_not_grow_with_steps(self, tmp_path, command):
        # Both stream one chunk of slices at a time.  Holding the 1e5
        # populations and boundaries of a trajectory would add 4 MB, the
        # per-slice step dicts of a schedule dump about 150 MB.
        peaks = {}
        for n_steps in (10_000, 10_000, 100_000):
            argv = [command, "--x", "2.0", "--n-steps", str(n_steps),
                    "--out-dir", str(tmp_path / str(n_steps))]
            tracemalloc.start()
            assert main(argv) == 0
            peaks[n_steps] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert abs(peaks[100_000] - peaks[10_000]) < 1024 * 1024


class TestOutputSizeCheck:
    """`trajectory`, `dump-schedule` and `dump-circuit` refuse, before any run,
    a set of files whose lower size bound exceeds the free space."""

    @pytest.mark.parametrize("command, bound", [
        ("trajectory", cosmopair.cli._TRAJECTORY_ROW_BYTES),
        ("dump-schedule", cosmopair.cli._SCHEDULE_STEP_BYTES),
        ("dump-circuit", cosmopair.cli._CIRCUIT_SLICE_BYTES),
    ])
    @pytest.mark.parametrize("y_i", ["-80", "-3"])
    def test_each_slice_adds_at_least_the_bound(self, tmp_path, command, bound, y_i):
        # Over y_i = -3 almost every slice is a radiation slice, the
        # shortest kind in a circuit.
        sizes = {}
        for n_steps in (10, 60):
            out = tmp_path / str(n_steps)
            assert main([command, "--x", "1.3,2.0", f"--y-i={y_i}", "--n-steps", str(n_steps),
                         "--out-dir", str(out)]) == 0
            sizes[n_steps] = [p.stat().st_size for p in sorted(out.iterdir())]
        assert all(size >= 60 * bound for size in sizes[60])
        assert all(large - small >= 50 * bound for small, large in zip(sizes[10], sizes[60]))

    def test_free_space_of_the_nearest_existing_ancestor(self, tmp_path, capsys, monkeypatch):
        seen = []

        def disk_usage(path):
            seen.append(Path(path))
            return SimpleNamespace(free=999)

        monkeypatch.setattr(shutil, "disk_usage", disk_usage)
        out = tmp_path / "a" / "b"
        # Two files of at least 24 bytes per row: 960 bytes fit, 1008 do not.
        argv = ["trajectory", "--x", "1.5,2.0", "--out-dir", str(out)]
        assert main(argv + ["--n-steps", "20"]) == 0
        assert main(argv + ["--n-steps", "21"]) == 2
        assert seen == [tmp_path, out]
        assert capsys.readouterr().err == (
            f"error: --n-steps 21 needs at least 1008 bytes of output, but {out} has 999 bytes free\n")
        assert sorted(p.name for p in out.iterdir()) == ["trajectory_x1.5.csv", "trajectory_x2.csv"]


class TestChecksBeforeAnyRun:
    """`sweep` and `noise-study` reject bad input before any engine starts."""

    @pytest.fixture(autouse=True)
    def no_engines(self, monkeypatch):
        import cosmopair.cli as cli

        for name in ("build_schedule", "evolve", "run_schedule", "noisy_distributions"):
            monkeypatch.setattr(cli, name, _no_run)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--x", "2.0", "--methods", "matrix,noisy", "--n-steps", "200000",
              "--shots", "0"], "shots must be >= 1, got 0"),
            (["noise-study", "--x", "2.0", "--shots", "0"], "shots must be >= 1, got 0"),
            (["sweep", "--x", "2", "--methods", "shots", "--n-steps", "3",
              "--shots", str(2**63)], f"shots must be <= {2**63 - 1}, got {2**63}"),
            (["noise-study", "--x", "2", "--shots", str(2**63)],
             f"shots must be <= {2**63 - 1}, got {2**63}"),
            (["sweep", "--x", "2.0,2.0", "--methods", "analytic,shots", "--n-steps", "3"],
             "x = 2.0 appears more than once"),
            (["sweep", "--x", "2.0,3.0", "--y-i=-2.5", "--methods", "matrix"],
             "transition y_e = -3.0 must lie inside (y_i, y_f) = (-2.5, -1.0)"),
            (["sweep", "--x", "2.0", "--methods", ","], "method list must be nonempty, got ','"),
            (["noise-study", "--x", "1e-100,2.0", "--shots", "10"],
             "x = 1e-100 is too small: 1/(4 x^4) overflows"),
        ],
        ids=["sweep_shots", "noise_study_shots", "sweep_huge_shots", "noise_study_huge_shots",
             "sweep_repeated_x", "sweep_late_window",
             "sweep_no_methods", "noise_study_tiny_x"],
    )
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestOneSchedulePerWindow:
    """`noise-study` builds each x's schedule once, for the channel and its
    ideal row, and no engine evaluates a whole column to cut it."""

    def test_noise_study(self, tmp_path, capsys, monkeypatch):
        import cosmopair.cli as cli
        from cosmopair.schedule import CoeffSchedule

        built, evaluated = [], []
        columns = CoeffSchedule.columns

        def counted_build(params):
            built.append(params.x)
            return build_schedule(params)

        def counted_columns(self, *args):
            evaluated.append(self.params.x)
            return columns(self, *args)

        monkeypatch.setattr(cli, "build_schedule", counted_build)
        monkeypatch.setattr(CoeffSchedule, "columns", counted_columns)
        assert main(["noise-study", "--out-dir", str(tmp_path)]) == 0
        xs = (1.3, 1.5, 1.8, 2.0, 2.2)
        assert built == list(xs)
        # One chunk for the channel and one for the ideal row.
        assert {x: evaluated.count(x) for x in evaluated} == dict.fromkeys(xs, 2)


class TestNoiseLevelsComputedOnce:
    """A command computes every noise level of every x its rows need in one channel pass."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """The (p1, p2) of every model of every exact-channel pass, in call order;
        `passes.rows` holds the (x, p2) of every entry of each pass's grid,
        x-major, and `passes.models` its model objects."""
        import cosmopair.cli as cli
        import cosmopair.noise as noise

        calls = _Passes()
        channel = noise.noisy_distributions

        def counted(schedules, models):
            calls.append([(model.p1, model.p2) for model in models])
            calls.rows.append([(s.params.x, model.p2) for s in schedules for model in models])
            calls.models.append(list(models))
            return channel(schedules, models)

        monkeypatch.setattr(cli, "noisy_distributions", counted)
        monkeypatch.setattr(noise, "noisy_distributions", counted)
        return calls

    def test_noise_study(self, tmp_path, capsys, passes):
        assert main(["noise-study", "--shots", "512", "--out-dir", str(tmp_path)]) == 0
        p2 = 2.8e-3
        assert len(passes) == 1
        assert passes.rows == [[(x, p2 * f) for x in (1.3, 1.5, 1.8, 2.0, 2.2)
                                for f in (1.0, 1.5, 2.0)]]
        assert len({id(model) for model in passes.models[0]}) == len(passes.models[0]) == 3

    def test_golden_sweep_noisy_rows(self, tmp_path, capsys, passes):
        argv = ["sweep", "--x", "1.3,2.3", "--methods", "analytic,noisy,mitigated,zne",
                "--n-steps", "2", "--shots", "300", "--seed", "7"]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 0
        p2 = 2.8e-3
        assert passes.rows == [[(x, p2 * f) for x in (1.3, 2.3) for f in (1.0, 1.5, 2.0)]]

    def test_noisy_rows_never_scale_the_model(self, tmp_path, capsys, passes):
        assert main(["sweep", "--x", "2.0", "--methods", "noisy", "--factors", "1,500",
                     "--out-dir", str(tmp_path)]) == 0
        assert passes == [[(2.8e-4, 2.8e-3)]]

    def test_noisy_and_zne_rows_share_one_pass(self, tmp_path, capsys, passes):
        assert main(["sweep", "--x", "2.0", "--methods", "noisy,zne", "--factors", "1.5,3",
                     "--out-dir", str(tmp_path)]) == 0
        p2 = 2.8e-3
        assert [[r[1] for r in rates] for rates in passes] == [[p2, p2 * 1.5, p2 * 3.0]]

    def test_deep_rows_are_built_one_group_at_a_time(self, tmp_path, capsys, monkeypatch):
        # At 20000 slices a schedule is about 0.5 MB, and a running group
        # holds one per x.  The slice loop stops after its first step, once it
        # holds its group's angle columns: this checks what is held around the
        # evolution, not its arithmetic.
        import cosmopair.noise as noise

        def first_step_only(coeffs, steps, scale):
            next(steps)
            return coeffs

        monkeypatch.setattr(noise, "_evolve", first_step_only)
        peaks = {}
        for points in (4, 4, 40):  # the first run fills the caches of the folds
            argv = ["sweep", "--x-points", str(points), "--methods", "noisy",
                    "--n-steps", "20000", "--out-dir", str(tmp_path / str(points))]
            tracemalloc.start()
            assert main(argv) == 0
            peaks[points] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peaks[40] - peaks[4] < 1024 * 1024


class _Passes(list):
    def __init__(self):
        super().__init__()
        self.rows = []
        self.models = []


class TestPerXFiles:
    @pytest.mark.parametrize(
        "argv, label",
        [
            (["trajectory", "--x", "2.0,2.0000001", "--n-steps", "4"], "x2"),
            (["noise-study", "--x", "1.3,1.3000001", "--shots", "300"], "x1.3"),
            (["dump-schedule", "--x", "1.3000001,1.3"], "x1.3"),
            (["dump-circuit", "--x", "2.0,2.0000001"], "x2"),
        ],
        ids=["trajectory", "noise_study", "dump_schedule", "dump_circuit"],
    )
    def test_shared_file_label_exits_2_before_any_run(self, tmp_path, capsys, argv, label):
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"share the file label {label}\n") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["trajectory", "--y-i", "5"], "transition y_e = -2.0 must lie inside"),
            (["dump-circuit", "--y-f=-7"], "transition y_e = -2.0 must lie inside"),
            (["trajectory", "--y-i=-1e300"], "must be finite and within"),
            (["dump-circuit", "--y-i=-1e300"], "must be finite and within"),
        ],
        ids=["trajectory_y_i", "dump_circuit_y_f", "trajectory_huge", "dump_circuit_huge"],
    )
    def test_zero_steps_still_check_the_window(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert main(argv + ["--x", "2.0", "--n-steps", "0", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["trajectory", "noise-study", "dump-schedule",
                                         "dump-circuit"])
    @pytest.mark.parametrize("option", ["--x-min=3", "--x-max=4", "--x-points=2"])
    def test_grid_range_options_are_sweep_only(self, tmp_path, capsys, command, option):
        with pytest.raises(SystemExit) as exc:
            main([command, option, "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert option.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestBlasThreads:
    def test_import_pins_openblas_to_one_thread(self):
        # Every BLAS product is at most 16x16, so an OpenBLAS worker pool
        # (numpy's, and scipy's that verify loads) would only spin.  Fresh
        # processes, since this one may have loaded numpy before cosmopair.
        if not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2:
            pytest.skip("needs /proc/self/task and at least two CPUs")
        code = textwrap.dedent("""
            import contextlib, io, os, sys
            import cosmopair.cli
            threads = [len(os.listdir("/proc/self/task"))]
            if sys.argv[1] == "verify":
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cosmopair.cli.main(["verify"]) == 0
                threads.append(len(os.listdir("/proc/self/task")))
            print(os.environ["OPENBLAS_NUM_THREADS"], *threads)
        """)
        src = str(Path(cosmopair.cli.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])

        def run(env, stage):
            return subprocess.run([sys.executable, "-c", code, stage], env=env,
                                  capture_output=True, text=True, check=True).stdout.split()

        assert run(env, "verify") == ["1", "1", "1"]
        assert run({**env, "OPENBLAS_NUM_THREADS": "2"}, "import")[0] == "2"


class TestVerify:
    def test_passes_and_is_deterministic(self, capsys):
        assert main(["verify"]) == 0
        first = capsys.readouterr().out
        assert main(["verify"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "9/9 checks passed" in first

    def test_corrupted_operator_fails_named_check(self):
        # Negative control: corrupt one number-operator coefficient.
        terms = list(zq_pauli_sum())
        terms[1] = PauliString(terms[1].letters, -0.35)
        results = run_checks(zq_terms=tuple(terms))
        failed = [r.name for r in results if not r.passed]
        assert "number_operator_embedding" in failed
        report = format_report(results)
        assert "number_operator_embedding" in report and "FAIL" in report

    def test_failed_ode_integration_exits_3(self, monkeypatch, capsys):
        import scipy.integrate

        monkeypatch.setattr(scipy.integrate, "solve_ivp", lambda *a, **k: SimpleNamespace(
            success=False, message="step size too small"))
        assert main(["verify"]) == 3
        captured = capsys.readouterr()
        assert captured.err == ("error: mode-equation integration failed: "
                                "step size too small\n")
        assert "Traceback" not in captured.out + captured.err
