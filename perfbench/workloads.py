"""The three benchmark workloads: inputs from a seed, CLI argv, checks.

Each workload drives only `cosmopair.cli.main` with flags documented in the
README (never `--workers`, never `scripts/`).  `prepare` runs once before the
timed calls and computes the reference values and the fixed work count;
`check` runs after each timed call, outside the timed region, and returns
the problems found, the call's `err_vs_analytic` (the largest relative
deviation from the closed form 1/(4 x^4) among the rows it is taken from)
and extra figures for the report.

Why these workloads:

* sweep-deep: gate synthesis and per-gate statevector dispatch take almost
  all the time, noise and mitigation stay idle.  Two x per call, so the
  CLI's default thread pool runs two circuits at once.
* noise-shallow: the per-shot Monte-Carlo loop of the noisy runs takes
  almost all the time; the circuit is 176 gates, so synthesis and the ideal
  run cost almost nothing.
* trajectory-long: no circuit at all; schedule building, the 4x4 engine
  and writing one CSV row per slice, with memory growing with N.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from pathlib import Path

import numpy as np

#: The CLI's default sweep grid (--x-min 1, --x-max 5, --x-points 40).
GRID = tuple(float(v) for v in np.geomspace(1.0, 5.0, 40))

#: x at and above which the closed form is compared (README budgets).
X_COMPARE = 2.2

#: README default step count of the statevector sweep method.
STATEVECTOR_STEPS = 1000


def analytic(x: float) -> float:
    return 1.0 / (4.0 * x**4)


def rel_err(value: float, x: float) -> float:
    return abs(value - analytic(x)) / analytic(x)


def _xs(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _data_lines(path: Path) -> list[str]:
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def _csv_rows(path: Path) -> list[dict]:
    return list(csv.DictReader(io.StringIO("\n".join(_data_lines(path)))))


def _parameters(path: Path) -> dict:
    for line in path.read_text().splitlines():
        if line.startswith("# parameters: "):
            return json.loads(line[len("# parameters: "):])
        if not line.startswith("#"):
            break
    raise ValueError(f"{path.name}: no parameters header")


def _nonfinite(obj, where: str) -> list[str]:
    """Paths of numbers in a JSON value that are not finite, or are None."""
    if obj is None:
        return [where]
    if isinstance(obj, bool) or isinstance(obj, str):
        return []
    if isinstance(obj, (int, float)):
        return [] if math.isfinite(obj) else [where]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _nonfinite(v, f"{where}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _nonfinite(v, f"{where}[{i}]")]
    return [where]


class SweepDeep:
    name = "sweep-deep"
    why = (
        "deep circuits: gate synthesis and per-gate statevector dispatch take "
        "almost all the time, under the CLI's default thread pool"
    )
    work_unit = "gates simulated"

    def inputs(self, seed: int) -> dict:
        high = next(i for i, x in enumerate(GRID) if x >= X_COMPARE)
        low = random.Random(seed).randrange(high)
        return {"x": [GRID[low], GRID[high]]}

    def argv(self, inputs: dict, seed: int, out: Path) -> list[str]:
        return [
            "sweep", "--x", _xs(inputs["x"]),
            "--methods", "analytic,matrix,statevector",
            "--seed", str(seed), "--out-dir", str(out),
        ]

    def prepare(self, inputs: dict, main, scratch: Path) -> dict:
        """Matrix-engine n_k at the statevector step count, and the gate count."""
        xs = _xs(inputs["x"])
        steps = str(STATEVECTOR_STEPS)
        ref_dir = scratch / "matrix"
        if main(["sweep", "--x", xs, "--methods", "matrix", "--n-steps", steps,
                 "--out-dir", str(ref_dir)]) != 0:
            raise RuntimeError("reference sweep failed")
        n_k = {float(r["x"]): float(r["n_k"]) for r in _csv_rows(ref_dir / "sweep.csv")}
        circ_dir = scratch / "circuits"
        if main(["dump-circuit", "--x", xs, "--n-steps", steps,
                 "--out-dir", str(circ_dir)]) != 0:
            raise RuntimeError("reference dump-circuit failed")
        gates = sum(
            _parameters(p)["gate_count"] for p in sorted(circ_dir.glob("circuit_x*.txt"))
        )
        return {"n_k": n_k, "work": gates}

    def check(self, inputs: dict, ref: dict, out: Path):
        rows = _csv_rows(out / "sweep.csv")
        problems, errs = [], []
        for x in inputs["x"]:
            by_method = {r["method"]: r for r in rows if float(r["x"]) == x}
            for method in ("analytic", "matrix", "statevector"):
                if method not in by_method:
                    problems.append(f"x={x}: no {method} row")
                    continue
                n_k = float(by_method[method]["n_k"])
                if not math.isfinite(n_k):
                    problems.append(f"x={x} {method}: n_k={n_k}")
                    continue
                if method != "analytic" and x >= X_COMPARE:
                    errs.append(rel_err(n_k, x))
            sv = by_method.get("statevector")
            if sv is None:
                continue
            if int(sv["n_steps"]) != STATEVECTOR_STEPS:
                problems.append(f"x={x}: statevector n_steps {sv['n_steps']}")
            diff = abs(float(sv["n_k"]) - ref["n_k"][x])
            if not diff <= 1e-10:
                problems.append(f"x={x}: statevector n_k off the matrix engine by {diff:.3g}")
        return problems, max(errs) if errs else None, {}


class NoiseShallow:
    name = "noise-shallow"
    why = (
        "shallow noisy circuits: the per-shot Monte-Carlo loop takes almost all "
        "the time, synthesis and the ideal run almost none"
    )
    work_unit = "noisy shots"

    #: The CLI's default noise-study x set, factors used, shots per run.
    X_DEFAULT = (1.3, 1.5, 1.8, 2.0, 2.2)
    FACTORS = "1,1.5,2"
    SHOTS = 512

    def inputs(self, seed: int) -> dict:
        return {"shots": self.SHOTS, "factors": self.FACTORS}

    def argv(self, inputs: dict, seed: int, out: Path) -> list[str]:
        return [
            "noise-study", "--shots", str(inputs["shots"]),
            "--factors", inputs["factors"],
            "--seed", str(seed), "--out-dir", str(out),
        ]

    def prepare(self, inputs: dict, main, scratch: Path) -> dict:
        """One raw run plus one run per factor, at every x."""
        n_runs = 1 + len(inputs["factors"].split(","))
        return {"work": len(self.X_DEFAULT) * n_runs * inputs["shots"]}

    def check(self, inputs: dict, ref: dict, out: Path):
        doc = json.loads((out / "noise_study.json").read_text())
        results = doc["results"]
        problems = [f"non-finite estimate at {p}" for p in _nonfinite(results, "results")]
        if [r["x"] for r in results] != list(self.X_DEFAULT):
            problems.append(f"x set {[r['x'] for r in results]}")
        errs, zne_errs = [], []
        for r in results:
            x = r["x"]
            counts = _csv_rows(out / f"counts_x{x:g}.csv")
            total = sum(int(c["count"]) for c in counts)
            if total != inputs["shots"]:
                problems.append(f"x={x}: counts sum to {total}, not {inputs['shots']}")
            if x >= X_COMPARE:
                errs.append(rel_err(r["ideal"]["p_pair"], x))
                zne_errs.append(rel_err(r["zne"]["n_k"], x))
        extra = {"zne_err_vs_analytic": max(zne_errs) if zne_errs else None}
        return problems, max(errs) if errs else None, extra


class TrajectoryLong:
    name = "trajectory-long"
    why = (
        "long trajectories: schedule build, the 4x4 engine and one CSV row per "
        "slice, no circuit; memory grows with the step count"
    )
    work_unit = "slices evolved and written"

    #: The CLI's default trajectory x values.
    X_DEFAULT = (1.5, 2.0)
    STEPS = 100_000

    def inputs(self, seed: int) -> dict:
        # The trajectory subcommand is deterministic and takes no --seed.  The
        # step count stays fixed: the grid-snapping jitter of the final p_pair
        # moves err_vs_analytic by about 2% between nearby N.
        return {"n_steps": self.STEPS}

    def argv(self, inputs: dict, seed: int, out: Path) -> list[str]:
        return ["trajectory", "--n-steps", str(inputs["n_steps"]), "--out-dir", str(out)]

    def prepare(self, inputs: dict, main, scratch: Path) -> dict:
        """Final p_pair of the matrix engine at the same N, one x at a time."""
        p_pair = {}
        for x in self.X_DEFAULT:
            ref_dir = scratch / f"x{x:g}"
            if main(["sweep", "--x", repr(x), "--methods", "matrix",
                     "--n-steps", str(inputs["n_steps"]), "--out-dir", str(ref_dir)]) != 0:
                raise RuntimeError("reference sweep failed")
            (row,) = _csv_rows(ref_dir / "sweep.csv")
            p_pair[x] = float(row["n_k"])
        return {"p_pair": p_pair, "work": len(self.X_DEFAULT) * inputs["n_steps"]}

    def check(self, inputs: dict, ref: dict, out: Path):
        n = inputs["n_steps"]
        problems, err = [], None
        for x in self.X_DEFAULT:
            lines = _data_lines(out / f"trajectory_x{x:g}.csv")
            rows = lines[1:]
            if len(rows) != n + 1:
                problems.append(f"x={x}: {len(rows)} rows, not {n + 1}")
            bad_sum = bad_value = 0
            last = None
            for line in rows:
                values = [float(v) for v in line.split(",")]
                if not all(math.isfinite(v) for v in values):
                    bad_value += 1
                if not abs(sum(values[1:5]) - 1.0) <= 1e-12:
                    bad_sum += 1
                last = values
            if bad_value:
                problems.append(f"x={x}: {bad_value} rows with non-finite values")
            if bad_sum:
                problems.append(f"x={x}: {bad_sum} rows whose populations miss 1 by >1e-12")
            if last is None:
                continue
            diff = abs(last[4] - ref["p_pair"][x])
            if not diff <= 1e-12:
                problems.append(f"x={x}: last p_pair off the matrix engine by {diff:.3g}")
            if x == max(self.X_DEFAULT):
                err = rel_err(last[4], x)
        return problems, err, {}


WORKLOADS = {w.name: w for w in (SweepDeep(), NoiseShallow(), TrajectoryLong())}
