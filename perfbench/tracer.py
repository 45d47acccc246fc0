"""In-memory span tracer for the cosmopair layers, installed from outside.

For the length of one traced CLI call the tracer replaces, in the module
namespaces of `cosmopair.cli`, `cosmopair.mitigation` and `cosmopair.noise`,
the public functions those modules import by name with wrappers that record
one span per call: name, start, end, thread and parent.  No program file is
edited.  A name that a later version of the program no longer has is skipped
and its layer is reported as "not measured" instead of failing the run.

Spans stay in memory; `Tracer.dump` turns them into plain data when the run
ends.  A span opened in a thread that has no open span of its own (the sweep
thread pool) takes the call's root span as its parent.

A layer's self time is its span time minus the time its child spans cover
(the union of their intervals), so for the root span `cli` it is the CLI's
wall time not covered by any layer span.  Without concurrent layer spans the
self times of one call add up to its wall time exactly; with them, their sum
exceeds the wall time by `concurrent_s`, the time counted more than once.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import statistics
import threading
import time
from dataclasses import dataclass, field

ROOT = "cli"

#: (module, attribute, layer) for every wrapped name.
WRAPPED = (
    ("cosmopair.cli", "build_schedule", "schedule.build"),
    ("cosmopair.cli", "build_full_circuit", "encoding.synth"),
    ("cosmopair.cli", "run_circuit", "statevector.run"),
    ("cosmopair.noise", "run_circuit", "statevector.run"),
    ("cosmopair.cli", "evolve", "subspace.evolve"),
    ("cosmopair.cli", "run_noisy_circuit", "noise.run"),
    ("cosmopair.mitigation", "run_noisy_circuit", "noise.run"),
    ("cosmopair.cli", "mitigate_readout", "mitigation.readout"),
    ("cosmopair.cli", "linear_extrapolate", "mitigation.fit"),
)

#: Gate kinds timed one by one by the kernel probe.
GATE_KINDS = ("X", "H", "S", "SDG", "RZ", "CNOT")

#: Rate scale of the clean-shot probe: small enough that no shot is ever
#: injected, nonzero so that the noiseless shortcut is not taken.
CLEAN_SCALE = 1e-9

# Errors a counter extractor may hit when a wrapped function's signature or
# return type has changed; the counter is then left out, never the call.
_COUNTER_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


@dataclass
class Span:
    name: str
    start: float
    thread: int
    parent: int | None
    end: float = math.nan
    counts: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        clipped = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(i, ())
            if e > span.start and s < span.end
        ]
        out.append(span.duration - union_length(clipped))
    return out


def summarize_call(spans: list[Span], root: int) -> dict:
    """Per-layer self time and counters of one traced call.

    `span_overlap` is the summed layer self time over the root's wall time;
    `concurrent_s` is how much the self times of all spans exceed that wall
    time because layer spans ran at the same time in different threads.
    """
    own = self_times(spans)
    wall = spans[root].duration
    layer_s: dict[str, float] = {}
    layer_total: dict[str, float] = {}
    counts: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        if i == root:
            continue
        layer_s[span.name] = layer_s.get(span.name, 0.0) + own[i]
        layer_total[span.name] = layer_total.get(span.name, 0.0) + span.duration
        bucket = counts.setdefault(span.name, {})
        for key, value in span.counts.items():
            bucket[key] = bucket.get(key, 0) + value
    layers_total = sum(layer_s.values())
    self_sum = own[root] + layers_total
    noise_runs = [s.info for s in spans if s.name == "noise.run" and s.info]
    conditions = [s.info["condition_number"] for s in spans if "condition_number" in s.info]
    return {
        "wall_s": wall,
        "cli_self_s": own[root],
        "layer_self_s": layer_s,
        "layer_total_s": layer_total,
        "counts": counts,
        "span_overlap": layers_total / wall if wall > 0 else math.nan,
        "self_sum_s": self_sum,
        "concurrent_s": self_sum - wall,
        "injected_frac": injected_by_factor(noise_runs),
        "condition_number_max": max(conditions) if conditions else None,
        "spans": len(spans),
    }


def injected_by_factor(noise_runs: list[dict]) -> dict[str, float]:
    """Mean injected fraction per noise factor, keyed `f<factor>`.

    The factor of a run is its two-qubit rate over the smallest one seen,
    which is the unamplified model's.
    """
    if not noise_runs:
        return {}
    base = min(r["p2"] for r in noise_runs)
    groups: dict[str, list[float]] = {}
    for r in noise_runs:
        factor = round(r["p2"] / base, 6) if base > 0 else 1.0
        groups.setdefault(f"f{factor:g}", []).append(r["q"])
    return {k: statistics.fmean(v) for k, v in groups.items()}


def _gate_counts(circuit) -> tuple[int, int]:
    n_cnot = sum(1 for g in circuit.gates if g.name == "CNOT")
    return n_cnot, len(circuit.gates) - n_cnot


def injected_fraction(n_cnot: int, n_1q: int, p1: float, p2: float) -> float:
    """Exact probability that a shot gets at least one Pauli injection."""
    return 1.0 - (1.0 - p2) ** n_cnot * (1.0 - p1) ** n_1q


def shot_split(
    total_s: float,
    runs: int,
    shots: int,
    injected: float,
    clean_shot_s: float,
    fixed_run_s: float,
) -> float | None:
    """Cost of one injected shot, from the total time of the noisy runs.

    `total_s` covers `runs` noisy runs with `shots` shots in all, of which
    `injected` are expected to carry an injection.  Each run pays
    `fixed_run_s` once and every clean shot `clean_shot_s`; the rest of the
    time is charged to the injected shots.  Returns None without any.
    """
    if injected <= 0:
        return None
    clean = (shots - injected) * clean_shot_s + runs * fixed_run_s
    return (total_s - clean) / injected


# Counter extractors: (bound arguments, result) -> (summed counts, run info).

def _count_schedule(bound, result):
    return {"steps": len(result)}, {}


def _count_synth(bound, result):
    return {"gates": len(result.gates)}, {}


def _count_run(bound, result):
    return {"gates": len(bound.arguments["circuit"].gates)}, {}


def _count_evolve(bound, result):
    return {"slices": len(bound.arguments["schedule"])}, {}


def _count_noise(bound, result):
    args = bound.arguments
    model = args["model"]
    n_cnot, n_1q = _gate_counts(args["circuit"])
    shots = int(args["shots"])
    q = injected_fraction(n_cnot, n_1q, model.p1, model.p2)
    return {"shots": shots, "runs": 1, "injected": shots * q}, {"p2": model.p2, "q": q}


def _count_readout(bound, result):
    return {}, {"condition_number": float(result.condition_number)}


_COUNTERS = {
    "schedule.build": _count_schedule,
    "encoding.synth": _count_synth,
    "statevector.run": _count_run,
    "subspace.evolve": _count_evolve,
    "noise.run": _count_noise,
    "mitigation.readout": _count_readout,
}


class Tracer:
    """Spans of one traced CLI call, plus the names it could not wrap."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.wrapped: list[str] = []
        self.table = WRAPPED
        self.first_args: dict[str, dict] = {}
        self.counter_errors: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.root_index: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.root_index
        span = Span(name, 0.0, threading.get_ident(), parent)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        span.start = self.clock()
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack().pop()

    @contextlib.contextmanager
    def root(self):
        """The call's root span; spans of threads without one nest under it."""
        self.root_index = self.open(ROOT)
        try:
            yield self.root_index
        finally:
            self.close(self.root_index)

    def install(self, wrapped=WRAPPED) -> None:
        self.table = wrapped
        for module_name, attr, layer in wrapped:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(name)
                continue
            setattr(module, attr, self._wrap(original, layer))
            self._saved.append((module, attr, original))
            self.wrapped.append(name)

    def missing_layers(self) -> dict[str, str]:
        """Layers none of whose names could be wrapped, with the reason."""
        out = {}
        for layer in dict.fromkeys(lay for _, _, lay in self.table):
            names = [f"{m}.{a}" for m, a, lay in self.table if lay == layer]
            if not any(n in self.wrapped for n in names):
                out[layer] = "not measured: " + ", ".join(names) + " not found"
        return out

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, layer: str):
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None
        counter = _COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if signature is not None:
                self._record(layer, index, signature, counter, args, kwargs, result)
            return result

        return traced

    def _record(self, layer, index, signature, counter, args, kwargs, result):
        try:
            bound = signature.bind(*args, **kwargs)
            if layer not in self.first_args:
                self.first_args[layer] = dict(bound.arguments)
            if counter is not None:
                span = self.spans[index]
                span.counts, span.info = counter(bound, result)
        except _COUNTER_ERRORS as exc:
            self.counter_errors.append(f"{layer}: {exc!r}")

    def dump(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "thread": s.thread,
                "parent": s.parent,
                "counts": s.counts,
                "info": s.info,
            }
            for s in self.spans
        ]


def _median_time(fn, repeats: int, clock) -> float:
    samples = []
    for _ in range(repeats):
        t0 = clock()
        fn()
        samples.append(clock() - t0)
    return statistics.median(samples)


def kernel_probe(
    run_circuit, circuit, n_gates: int = 2000, repeats: int = 3, clock=time.perf_counter
) -> dict[str, float | None]:
    """Nanoseconds per gate of `run_circuit` for each gate kind of `circuit`.

    Each kind's gates, taken in order from the circuit and repeated up to
    `n_gates`, form one probe circuit; the cost of running an empty circuit
    is subtracted.  A kind the circuit lacks maps to None.
    """
    make = type(circuit)
    n_qubits = circuit.n_qubits
    empty = make(n_qubits=n_qubits, gates=[])
    base = _median_time(lambda: run_circuit(empty), repeats, clock)
    out: dict[str, float | None] = {}
    for kind in GATE_KINDS:
        gates = [g for g in circuit.gates if g.name == kind][:n_gates]
        if not gates:
            out[kind] = None
            continue
        reps = -(-n_gates // len(gates))
        probe = make(n_qubits=n_qubits, gates=(gates * reps)[:n_gates])
        t = _median_time(lambda: run_circuit(probe), repeats, clock)
        out[kind] = (t - base) / n_gates * 1e9
    return out


def clean_shot_probe(
    run_noisy_circuit, circuit, model, shots: int, seed: int,
    repeats: int = 3, clock=time.perf_counter,
) -> tuple[float, float]:
    """(seconds per clean shot, fixed seconds per run) of `run_noisy_circuit`.

    Runs the circuit under the model with its Pauli rates scaled by
    CLEAN_SCALE at two shot counts; the slope is the cost of one clean shot
    and the intercept the cost paid once per run.
    """
    quiet = model.scaled(CLEAN_SCALE)
    small, large = shots, 4 * shots
    t_small = _median_time(
        lambda: run_noisy_circuit(circuit, quiet, small, seed), repeats, clock
    )
    t_large = _median_time(
        lambda: run_noisy_circuit(circuit, quiet, large, seed), repeats, clock
    )
    per_shot = (t_large - t_small) / (large - small)
    return per_shot, t_small - small * per_shot
