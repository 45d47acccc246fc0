"""Fuzz `cosmopair.cli.main` over argv and model-file JSON.

Every run must end in exit 0 (success), 2 (usage error) or 3 (numerical
failure), never in a traceback.  On exit 0 every JSON output must hold only
finite numbers and every circuit file must read back.  Inputs are kept
cheap: at most 32 shots and 2 steps per run.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cosmopair.circuits import circuit_from_text
from cosmopair.cli import METHODS, main

_any_float = st.floats(allow_nan=True, allow_infinity=True)


def _mostly(valid, other):
    """Mostly `valid`, sometimes `other`, so that most runs get far."""
    return st.integers(0, 15).flatmap(lambda i: other if i == 0 else valid)


def _csv(values):
    return values.map(lambda vs: ",".join(repr(float(v)) for v in vs))


_x_text = _csv(st.lists(_mostly(st.floats(0.5, 6.0), _any_float), min_size=1, max_size=2))
_factors_text = _csv(_mostly(
    st.lists(st.floats(1.0, 5.0), min_size=2, max_size=3, unique=True).map(sorted),
    st.lists(_any_float, max_size=3),
))

_valid_model = st.builds(
    lambda eps, p1, p2: {
        "readout": [[[1 - eps, eps], [eps, 1 - eps]]] * 4, "p1": p1, "p2": p2
    },
    st.floats(0.0, 0.5),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
_json_values = st.recursive(
    st.none() | st.booleans() | _any_float | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["readout", "p1", "p2", "x"]), inner, max_size=4),
    max_leaves=12,
)
_model_text = st.one_of(
    _valid_model.map(json.dumps),
    _json_values.map(json.dumps),
    st.text(max_size=20),
)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(
        ["sweep", "noise-study", "trajectory", "dump-schedule", "dump-circuit"]
    ))
    # "--opt=value" keeps a negative value from reading as an option.
    if draw(st.integers(0, 15)) == 0:
        # A tiny window: at its one midpoint, -1/y^2 is near or past overflow.
        x = draw(st.floats(1e-200, 1e-140))
        argv = [command, "--n-steps=1", f"--x={x!r}", f"--y-i={-4 * x!r}", "--y-f=0"]
    else:
        argv = [command, f"--n-steps={draw(_mostly(st.integers(1, 2), st.integers(-2, 0)))}"]
        if command == "sweep" and draw(st.booleans()):
            x_end = _mostly(st.floats(0.5, 6.0), _any_float)
            argv += [f"--x-min={draw(x_end)!r}", f"--x-max={draw(x_end)!r}",
                     f"--x-points={draw(_mostly(st.integers(1, 3), st.integers(-1, 0)))}"]
        else:
            argv += [f"--x={draw(_x_text)}"]
        if draw(st.booleans()):
            argv += [f"--y-i={draw(_mostly(st.floats(-100.0, -10.0), _any_float))!r}"]
    if command in ("sweep", "noise-study"):
        argv += [f"--shots={draw(_mostly(st.integers(-3, 32), st.integers(2**63, 2**70)))}",
                 f"--seed={draw(_mostly(st.integers(0, 2**40), st.integers(-2, -1)))}"]
        if draw(st.booleans()):
            argv += [f"--factors={draw(_factors_text)}"]
    if command == "sweep":
        methods = draw(st.lists(st.sampled_from(METHODS + ("bogus",)), min_size=1, max_size=3))
        argv += ["--methods", ",".join(methods)]
    model = draw(st.none() | _model_text) if command in ("sweep", "noise-study") else None
    return argv, model


@settings(
    deadline=None, max_examples=30, suppress_health_check=[HealthCheck.too_slow]
)
@given(_argv())
def test_cli_exits_cleanly(case):
    argv, model = case
    with tempfile.TemporaryDirectory() as tmp:
        if model is not None:
            Path(tmp, "model.json").write_text(model)
            argv = argv + ["--model-file", str(Path(tmp, "model.json"))]
        try:
            code = main(argv + ["--out-dir", str(Path(tmp, "out"))])
        except SystemExit as exc:  # argparse rejecting argv
            code = exc.code
        assert code in (0, 2, 3), (argv, model, code)
        if code == 0:
            for path in Path(tmp, "out").iterdir():
                if path.suffix == ".json":
                    json.loads(path.read_text(), parse_constant=_reject_constant)
                elif path.name.startswith("circuit_"):
                    circuit_from_text(path.read_text())


def _reject_constant(name):
    raise ValueError(f"{name} in a JSON output")
