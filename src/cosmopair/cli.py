"""Reproduction driver: one subcommand per headline result.

Subcommands and their outputs (all plot-ready CSV/JSON, no rendering):

    sweep          pair number vs x for a chosen set of methods
                   -> sweep.csv + sweep.json
    trajectory     time-resolved pair occupation for each x
                   -> trajectory_x<X>.csv
    noise-study    raw / readout-mitigated / extrapolated estimates with
                   leakage under a synthetic noise model -> noise_study.json
    dump-schedule  per-slice coefficients -> schedule_x<X>_n<N>.json
    dump-circuit   synthesized gate list -> circuit_x<X>_n<N>.txt
    verify         built-in check suite; exit 0 iff all pass

Every file starts with a metadata header (tool version, parameters, seed)
sufficient to regenerate it bit-exactly.  Each command but `verify` yields
its files, and `main` writes them as one set: all of them or none.
`trajectory`, `dump-schedule` and `dump-circuit` take `--n-steps 0`, a
schedule of no slices: the vacuum preparation alone.  `sweep` and
`noise-study` need at least one slice.  Those three commands yield each
file as a stream of text chunks, formatted one chunk of slices at a time,
so their memory does not grow with `--n-steps`; before any run they refuse
a set of files that cannot fit in the free space under `--out-dir`.
Exit codes: 0 success, 1 verification failure, 2 usage error (a grid too
large to allocate and files too large for the free space among them),
3 numerical failure (singular readout correction, failed ODE integration,
a state that is not normalized).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import sys
from collections.abc import Iterable, Iterator
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .background import (
    ModeParams,
    OdeIntegrationError,
    multi_pair_probability,
    n_k_analytic,
)
from .circuits import circuit_to_text, gate_count_and_depth
from .encoding import build_full_circuit
from .mitigation import (
    SingularConfusionError,
    mitigate_readout,
    validate_factors,
    zne_estimate,
)
from .noise import NoiseModel, noisy_distributions
from .schedule import build_schedule
from .selfcheck import format_report, run_checks
from .statevector import (
    NotNormalizedError,
    check_shots,
    counts_to_csv,
    derived_seed,
    observables_from_counts,
    observables_from_probabilities,
    probabilities,
    run_schedule,
    sample_counts,
)
from .subspace import PHYS_INDICES, evolve, propagate

SCHEMA_VERSION = 1

SWEEP_COLUMNS = (
    "x", "n_steps", "method", "shots", "seed", "n_k", "stderr", "leakage", "multi_pair_bound",
)

TRAJECTORY_COLUMNS = ("y", "p_vac", "p_plus", "p_minus", "p_pair", "n_k_analytic")

#: Lower bounds on the bytes one slice adds to a file of `trajectory` (a row
#: of six fields of at least 3 characters), `dump-schedule` (a step) and
#: `dump-circuit` (at least 20 gates of at least 4 bytes).
_TRAJECTORY_ROW_BYTES = 24
_SCHEDULE_STEP_BYTES = 128
_CIRCUIT_SLICE_BYTES = 80

#: Schedule slices formatted per chunk of streamed `dump-schedule` text.
_SCHEDULE_CHUNK = 4096

#: One `dump-schedule` step as `json.dumps(..., indent=2, sort_keys=True)`
#: writes it inside the document's `steps` list.
_SCHEDULE_STEP = """
    {
      "branch": "%s",
      "ca": %r,
      "cz": %r,
      "dy": %r,
      "index": %d,
      "y_mid": %r
    }"""


class UsageError(Exception):
    pass


def _write_set(out_dir: Path, files: Iterable[tuple[str, str | Iterable[str]]]):
    """Write a command's (file name, text) pairs into `out_dir` as one set.

    Each text is one string or an iterable of string chunks, streamed into a
    uniquely named temp file beside its target.  `out_dir` is made when the
    first file arrives; the files are renamed in order only once the last is
    written, so a command that fails part way leaves none of them.
    """
    staged = []
    try:
        for name, text in files:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / name
            tmp = path.with_name(f".{name}.{os.urandom(8).hex()}.tmp")
            with open(tmp, "x") as f:
                staged.append((tmp, path))
                f.writelines([text] if isinstance(text, str) else text)
            del text  # freed before the next file's text is made
        for tmp, path in staged:
            os.replace(tmp, path)
            print(f"wrote {path}")
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def _metadata_lines(command: str, parameters: dict) -> list[str]:
    return [
        f"# cosmopair {__version__}",
        f"# command: {command}",
        f"# parameters: {json.dumps(parameters, sort_keys=True)}",
    ]


def _json_envelope(command: str, parameters: dict, **payload) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": "cosmopair",
        "version": __version__,
        "command": command,
        "parameters": parameters,
        **payload,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_x_grid(args) -> list[float]:
    if "x_points" in args:  # sweep's range options, checked also when --x overrides them
        for option, value in (("--x-min", args.x_min), ("--x-max", args.x_max)):
            if not (np.isfinite(value) and value > 0):
                raise UsageError(f"{option} must be finite and positive, got {value}")
        if args.x_points < 1:
            raise UsageError(f"--x-points must be >= 1, got {args.x_points}")
    if args.x is not None:
        xs = [float(v) for v in args.x.split(",") if v]
    else:
        xs = [float(v) for v in np.geomspace(args.x_min, args.x_max, args.x_points)]
    if not xs or not all(np.isfinite(x) and x > 0 for x in xs):
        raise UsageError(f"x grid must be nonempty, finite and positive, got {xs}")
    return xs


def _file_grid(args, slice_bytes: int = 0) -> list[float]:
    """Sorted x grid of a command writing a file per x; checked before any run.

    With `slice_bytes`, a lower bound on the bytes each slice adds to a file,
    the set must also fit in the free space of --out-dir's nearest existing
    ancestor, so a step count far too large fails here and not part way.
    """
    xs = sorted(_parse_x_grid(args))
    for a, b in zip(xs, xs[1:]):  # :g rounds monotonically, so ties are adjacent
        if f"{a:g}" == f"{b:g}":
            raise UsageError(f"x = {a!r} and x = {b!r} share the file label x{a:g}")
    for x in xs:  # the window alone: --n-steps is checked by the command
        _mode_params(x, args, 0)
    need = len(xs) * slice_bytes * args.n_steps
    if need > 0:
        where = Path(args.out_dir).absolute()
        while not where.exists():
            where = where.parent
        free = shutil.disk_usage(where).free
        if need > free:
            raise UsageError(f"--n-steps {args.n_steps} needs at least {need} bytes of output, "
                             f"but {where} has {free} bytes free")
    return xs


def _noise_inputs(args, zne: bool) -> tuple[NoiseModel, tuple[float, ...]]:
    """Check --n-steps (at least one slice, if given), --seed and --shots,
    then load the model and check --factors; with `zne`, the model's rates
    at the largest factor too."""
    if args.n_steps is not None and args.n_steps < 1:
        raise UsageError(f"n_steps must be >= 1, got {args.n_steps}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    if args.shots is not None:
        check_shots(args.shots)
    model = _load_model(args.model_file)
    factors = validate_factors(float(v) for v in args.factors.split(",") if v)
    if zne:
        try:
            model.scaled(max(factors))
        except ValueError as exc:
            raise UsageError(f"noise factor {max(factors):g}: {exc}") from None
    return model, factors


def _load_model(path: str | None) -> NoiseModel:
    if path is None:
        return NoiseModel.symmetric()
    file = Path(path)
    if not file.exists():
        raise UsageError(f"noise model file not found: {file}")
    try:
        return NoiseModel.from_json(file.read_text())
    except ValueError as exc:
        raise UsageError(f"{file}: {exc}") from None


def _mode_params(x: float, args, n_steps: int) -> ModeParams:
    return ModeParams(x=x, y_i=args.y_i, y_f=args.y_f, n_steps=n_steps)


def _x_parameters(params: ModeParams) -> dict:
    """Metadata parameters of a per-x output file: `params`' window and slices."""
    return {"x": params.x, "n_steps": params.n_steps, "y_i": params.y_i, "y_f": params.y_f}


def _noisy_levels(schedules: list, model: NoiseModel, factors: Iterable[float]) -> list[dict]:
    """[{f: distribution}]: the exact distribution of each schedule's circuit
    under `model.scaled(f)` for each distinct f in `factors`, all of them in
    one channel call."""
    factors = tuple(dict.fromkeys(factors))
    models = [model.scaled(f) for f in factors]  # one per level, shared by every schedule
    return [dict(zip(factors, row)) for row in noisy_distributions(schedules, models)]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# A row function takes the point's inputs by keyword, those it reads by name,
# and returns (n_k, stderr, leakage).

def _analytic_row(x, **_):
    return n_k_analytic(x), None, None


def _matrix_row(schedule, **_):
    final = evolve(schedule)
    return float((np.abs(final) ** 2)[3]), None, 0.0


def _statevector_row(schedule, **_):
    obs = observables_from_probabilities(probabilities(run_schedule(schedule)))
    return obs.p_pair, None, obs.leakage


def _shots_row(schedule, shots, seed, **_):
    probs = probabilities(run_schedule(schedule))
    obs = observables_from_counts(sample_counts(probs, shots, seed))
    return obs.p_pair, obs.stderr_pair, obs.leakage


def _noisy_row(levels, shots, seed, **_):
    obs = observables_from_counts(sample_counts(levels[1.0], shots, seed))
    return obs.p_pair, obs.stderr_pair, obs.leakage


def _mitigated_row(levels, shots, seed, model, **_):
    fixed = mitigate_readout(sample_counts(levels[1.0], shots, seed), model)
    obs = observables_from_probabilities(fixed.clipped)
    return obs.p_pair, float(fixed.quasi_stderr[PHYS_INDICES[3]]), obs.leakage


def _zne_row(levels, shots, seed, factors, **_):
    zne = zne_estimate(factors, [levels[f] for f in factors], shots, seed)
    p_pair = zne["p_pair"]
    return p_pair.extrapolated, p_pair.extrapolated_stderr, zne["leakage"].extrapolated


#: method -> (default --n-steps, default --shots, row function), in the order
#: that derives row seeds and sorts rows.  None: no steps, or no sampling.  The
#: noisy methods share one step count, so one channel pass serves them all.
_SWEEP_METHODS = {
    "analytic": (None, None, _analytic_row),
    "matrix": (2500, None, _matrix_row),
    "statevector": (1000, None, _statevector_row),
    "shots": (500, 8192, _shots_row),
    "noisy": (1, 4096, _noisy_row),
    "mitigated": (1, 4096, _mitigated_row),
    "zne": (1, 4096, _zne_row),
}
METHODS = tuple(_SWEEP_METHODS)


def _n_steps(args, method: str) -> int | None:
    default = _SWEEP_METHODS[method][0]
    return default if default is None or args.n_steps is None else args.n_steps


def _sweep_grid(args) -> list[float]:
    """Sorted x grid of `sweep`; no x repeated, every window checked before any run."""
    xs = sorted(_parse_x_grid(args))
    for a, b in zip(xs, xs[1:]):
        if a == b:
            raise UsageError(f"x = {a!r} appears more than once")
    for x in xs:
        n_k_analytic(x)  # an x whose closed form overflows fails here
        _mode_params(x, args, 0)  # the window alone: `_noise_inputs` checks --n-steps
    return xs


def cmd_sweep(args) -> Iterator[tuple[str, str]]:
    methods = [m for m in args.methods.split(",") if m]
    if not methods:
        raise UsageError(f"method list must be nonempty, got {args.methods!r}")
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}; choose from {METHODS}")
        if methods.count(m) > 1:
            raise UsageError(f"method {m!r} appears more than once")
    x_grid = _sweep_grid(args)
    model, factors = _noise_inputs(args, zne="zne" in methods)
    needed = ((1.0,) if {"noisy", "mitigated"} & set(methods) else ()) + (
        factors if "zne" in methods else ())

    noisy = [build_schedule(_mode_params(x, args, _n_steps(args, "noisy")))
             for x in x_grid if needed]
    levels = dict(zip(x_grid, _noisy_levels(noisy, model, needed))) if needed else {}
    rows = []
    for xi, x in enumerate(x_grid):
        for m in methods:
            _, default_shots, row = _SWEEP_METHODS[m]
            n_steps = _n_steps(args, m)
            shots = default_shots if default_shots is None or args.shots is None else args.shots
            seed = derived_seed(args.seed, xi, METHODS.index(m))
            schedule = None if n_steps is None else build_schedule(_mode_params(x, args, n_steps))
            estimate = row(x=x, schedule=schedule, shots=shots, seed=seed, model=model,
                           factors=factors, levels=levels.get(x))
            rows.append(dict(zip(SWEEP_COLUMNS, (
                x, n_steps or 0, m, shots, None if shots is None else seed, *estimate,
                multi_pair_probability(n_k_analytic(x))))))
    rows.sort(key=lambda r: (r["x"], METHODS.index(r["method"])))

    parameters = {
        "x_grid": x_grid,
        "methods": methods,
        "n_steps": args.n_steps,
        "shots": args.shots,
        "seed": args.seed,
        "factors": args.factors,
        "model_file": args.model_file,
        "y_i": args.y_i,
        "y_f": args.y_f,
    }
    lines = _metadata_lines("sweep", parameters)
    lines.append(",".join(SWEEP_COLUMNS))
    lines.extend(",".join(_fmt(r[c]) for c in SWEEP_COLUMNS) for r in rows)
    yield "sweep.csv", "\n".join(lines) + "\n"
    yield "sweep.json", _json_envelope("sweep", parameters, rows=rows)


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------

def _trajectory_csv(header: list[str], schedule, n_k_an: float) -> Iterator[str]:
    """CSV text of a trajectory: the header, then the rows of each chunk that
    `propagate` yields, formatted as they arrive.

    A row's y is the boundary y_i + n * dy, the bytes of
    `schedule.boundaries()`, and its populations are the squared amplitudes.
    From the vacuum p_plus and p_minus are exactly 0.0, and n_k_analytic is
    one constant, so the row template holds them as text.
    """
    yield "\n".join([*header, ",".join(TRAJECTORY_COLUMNS)]) + "\n"
    row = f"%r,%r,0.0,0.0,%r,{_fmt(n_k_an)}\n"
    y_i, dy, start = schedule.params.y_i, schedule.dy, 0
    for block in propagate(schedule):
        stop = start + len(block)
        values = np.column_stack((y_i + np.arange(start, stop) * dy, np.abs(block) ** 2))
        yield (row * len(block)) % tuple(values.ravel().tolist())
        start = stop


def cmd_trajectory(args) -> Iterator[tuple[str, Iterator[str]]]:
    for x in _file_grid(args, _TRAJECTORY_ROW_BYTES):
        params = _mode_params(x, args, args.n_steps)
        header = _metadata_lines("trajectory", _x_parameters(params))
        yield f"trajectory_x{x:g}.csv", _trajectory_csv(
            header, build_schedule(params), n_k_analytic(x))


# ---------------------------------------------------------------------------
# noise-study
# ---------------------------------------------------------------------------

def cmd_noise_study(args) -> Iterator[tuple[str, str]]:
    x_grid = _file_grid(args)
    n_steps, shots = args.n_steps, args.shots
    model, factors = _noise_inputs(args, zne=True)

    n_k = [n_k_analytic(x) for x in x_grid]  # an x whose closed form overflows fails before any run
    schedules = [build_schedule(_mode_params(x, args, n_steps)) for x in x_grid]
    levels = _noisy_levels(schedules, model, (1.0, *factors))
    results = []
    for xi, (x, n_k_an, schedule, level) in enumerate(zip(x_grid, n_k, schedules, levels)):
        ideal = observables_from_probabilities(probabilities(run_schedule(schedule)))

        seed = derived_seed(args.seed, xi)
        counts = sample_counts(level[1.0], shots, seed)
        raw = observables_from_counts(counts)
        fixed = mitigate_readout(counts, model)
        mitigated = observables_from_probabilities(fixed.clipped)
        quasi = observables_from_probabilities(fixed.quasi)
        zne = zne_estimate(factors, [level[f] for f in factors], shots, seed)

        counts_meta = {"x": x, "n_steps": n_steps, "shots": shots, "seed": seed}
        results.append({
            **counts_meta,
            "analytic_n_k": n_k_an,
            "multi_pair_bound": multi_pair_probability(n_k_an),
            "ideal": {"p_pair": ideal.p_pair, "leakage": ideal.leakage},
            "raw": {"n_k": raw.p_pair, "stderr": raw.stderr_pair, **asdict(raw), **counts_meta},
            "mitigated": {
                "n_k": mitigated.p_pair,
                "n_k_quasi": quasi.p_pair,
                "leakage": mitigated.leakage,
                "leakage_quasi": quasi.leakage,
                "condition_number": fixed.condition_number,
                "ill_conditioned": fixed.ill_conditioned,
            },
            "zne": {
                "n_k": zne["p_pair"].extrapolated,
                "stderr": zne["p_pair"].extrapolated_stderr,
                "leakage": zne["leakage"].extrapolated,
                "leakage_stderr": zne["leakage"].extrapolated_stderr,
                "factors": list(factors),
                "p_pair_values": list(zne["p_pair"].values),
                "p_pair_stderrs": list(zne["p_pair"].stderrs),
                "leakage_values": list(zne["leakage"].values),
            },
        })
        counts_text = "\n".join(_metadata_lines("noise-study", counts_meta)) + "\n"
        yield f"counts_x{x:g}.csv", counts_text + counts_to_csv(counts)

    parameters = {
        "x_grid": x_grid,
        "n_steps": n_steps,
        "shots": shots,
        "seed": args.seed,
        "factors": list(factors),
        "model_file": args.model_file,
        "model": json.loads(model.to_json()),
        "y_i": args.y_i,
        "y_f": args.y_f,
    }
    # The manifest names the counts files, so it is renamed only after them.
    yield "noise_study.json", _json_envelope("noise-study", parameters, results=results)


# ---------------------------------------------------------------------------
# dumps and verify
# ---------------------------------------------------------------------------

def _schedule_json(envelope: str, schedule) -> Iterator[str]:
    """The schedule dump in chunks: `envelope`, a JSON document whose only
    empty list is `steps`, with the steps streamed in between its brackets.
    The text is that of the whole document through `_json_envelope`: every
    value is a finite float, an int or a plain string."""
    head, tail = envelope.split("[]")
    yield head + "["
    for start in range(0, len(schedule), _SCHEDULE_CHUNK):
        columns = schedule.columns(start, start + _SCHEDULE_CHUNK)
        y_mid, cz, ca, radiation = (c.tolist() for c in columns)
        yield ("," if start else "") + ",".join(
            _SCHEDULE_STEP % ("radiation" if r else "de_sitter", a, z, schedule.dy, n, y)
            for n, y, z, a, r in zip(itertools.count(start), y_mid, cz, ca, radiation))
    yield ("\n  ]" if len(schedule) else "]") + tail


def cmd_dump_schedule(args) -> Iterator[tuple[str, Iterator[str]]]:
    for x in _file_grid(args, _SCHEDULE_STEP_BYTES):
        params = _mode_params(x, args, args.n_steps)
        envelope = _json_envelope("dump-schedule", _x_parameters(params), steps=[])
        yield f"schedule_x{x:g}_n{params.n_steps}.json", _schedule_json(
            envelope, build_schedule(params))


def cmd_dump_circuit(args) -> Iterator[tuple[str, Iterator[str]]]:
    """Each file's header from one walk of the circuit, its gates streamed from a second."""
    for x in _file_grid(args, _CIRCUIT_SLICE_BYTES):
        params = _mode_params(x, args, args.n_steps)
        schedule = build_schedule(params)
        gate_count, depth = gate_count_and_depth(build_full_circuit(schedule))
        parameters = {**_x_parameters(params), "gate_count": gate_count, "depth": depth}
        header = "\n".join(_metadata_lines("dump-circuit", parameters)) + "\n"
        yield f"circuit_x{x:g}_n{params.n_steps}.txt", itertools.chain(
            [header], circuit_to_text(build_full_circuit(schedule)))


def cmd_verify(_args) -> int:
    results = run_checks()
    sys.stdout.write(format_report(results))
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, default_x: str | None):
    p.add_argument("--x", default=default_x, help="comma-separated x values")
    p.add_argument("--n-steps", type=int, default=None)
    p.add_argument("--y-i", type=float, default=-80.0, help="grid start")
    p.add_argument(
        "--y-f", type=float, default=None, help="grid end (default -x + 2)"
    )
    p.add_argument("--out-dir", default="out")


def _add_noise_options(p: argparse.ArgumentParser, shots: int | None):
    """The sampling and noise options of `sweep` and `noise-study`."""
    p.add_argument("--shots", type=int, default=shots)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--factors", default="1,1.5,2")
    p.add_argument("--model-file", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosmopair",
        description="Pair creation in a sudden de Sitter-to-radiation transition: "
        "benchmark, Trotterized engines, sampling, and mitigation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="pair number vs x for chosen methods")
    _add_common(p, default_x=None)
    p.add_argument("--x-min", type=float, default=1.0)
    p.add_argument("--x-max", type=float, default=5.0)
    p.add_argument("--x-points", type=int, default=40)
    p.add_argument("--methods", default="analytic,matrix,statevector")
    _add_noise_options(p, shots=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("trajectory", help="time-resolved pair occupation")
    _add_common(p, default_x="1.5,2.0")
    p.set_defaults(func=cmd_trajectory, n_steps=2500)

    p = sub.add_parser("noise-study", help="raw/mitigated/extrapolated estimates")
    _add_common(p, default_x="1.3,1.5,1.8,2.0,2.2")
    _add_noise_options(p, shots=4096)
    p.set_defaults(func=cmd_noise_study, n_steps=1)

    p = sub.add_parser("dump-schedule", help="per-slice coefficients as JSON")
    _add_common(p, default_x="2.0")
    p.set_defaults(func=cmd_dump_schedule, n_steps=1)

    p = sub.add_parser("dump-circuit", help="synthesized gate list as text")
    _add_common(p, default_x="2.0")
    p.set_defaults(func=cmd_dump_circuit, n_steps=1)

    p = sub.add_parser("verify", help="run the built-in check suite")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.func is cmd_verify:
            return cmd_verify(args)
        _write_set(Path(args.out_dir), args.func(args))
        return 0
    except (SingularConfusionError, OdeIntegrationError,
            NotNormalizedError) as exc:  # before ValueError, which NotNormalizedError is
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError, OSError, MemoryError) as exc:  # MemoryError: a grid too large
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
