"""Metric tables of the benchmark and the per-layer figures of a traced run.

`END_TO_END` is printed by an untraced run (`--trace 0`), `PER_LAYER` by a
traced one (`--trace 1`); BENCHMARK.json lists the same names and units.
Per-layer times are the median over the traced calls of a run.  The
per-shot noise figures use the whole time of the noisy runs (their nested
ideal statevector run included), as the clean-shot probe does.

A per-layer figure that cannot be measured on a workload (a ratio whose
base is zero there, or a layer whose wrapped names are gone) is printed as
0 and listed with its reason under `not_measured` in the report line.
"""

from __future__ import annotations

import statistics

from tracer import shot_split

#: (name, unit, better, bound).  The times are CPU seconds (user + system,
#: all threads) of the measured process: on a shared host the wall clock also
#: counts time the host gives to other guests, which spread wall-clock run
#: times by up to 25% between runs of the same code.  Wall-clock figures are
#: in the report line.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_cpu_s", "s", "lower", 0.25),
    ("run_cpu_s_p90", "s", "lower", 0.25),
    ("work_per_cpu_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("err_vs_analytic", "ratio", "lower", 0.02),
)

#: (name, unit, better)
PER_LAYER = (
    ("setup.import_background_s", "s", "lower"),
    ("schedule.build_s", "s", "lower"),
    ("schedule.steps", "count", "lower"),
    ("encoding.synth_s", "s", "lower"),
    ("circuits.gates", "count", "lower"),
    ("encoding.ns_per_gate", "ns", "lower"),
    ("statevector.run_s", "s", "lower"),
    ("statevector.ns_per_gate", "ns", "lower"),
    ("statevector.ns_per_gate.X", "ns", "lower"),
    ("statevector.ns_per_gate.H", "ns", "lower"),
    ("statevector.ns_per_gate.S", "ns", "lower"),
    ("statevector.ns_per_gate.SDG", "ns", "lower"),
    ("statevector.ns_per_gate.RZ", "ns", "lower"),
    ("statevector.ns_per_gate.CNOT", "ns", "lower"),
    ("subspace.evolve_s", "s", "lower"),
    ("subspace.ns_per_slice", "ns", "lower"),
    ("noise.run_s", "s", "lower"),
    ("noise.shots", "count", "lower"),
    ("noise.us_per_shot", "us", "lower"),
    ("noise.us_per_clean_shot", "us", "lower"),
    ("noise.us_per_injected_shot", "us", "lower"),
    ("noise.injected_frac.f1", "ratio", "lower"),
    ("noise.injected_frac.f1.5", "ratio", "lower"),
    ("noise.injected_frac.f2", "ratio", "lower"),
    ("mitigation.readout_s", "s", "lower"),
    ("mitigation.fit_s", "s", "lower"),
    ("mitigation.condition_number_max", "ratio", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("cli.span_overlap", "ratio", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.cpu_s", "s", "lower"),
    ("trace.untraced_cpu_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.concurrent_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    rank = -(-9 * len(ordered) // 10)
    return ordered[max(rank, 1) - 1]


def _ratio(num, den, scale):
    if num is None or not den:
        return None
    return num / den * scale


def per_layer(
    summaries: list[dict],
    traced_cpu: list[float],
    untraced_cpu: list[float],
    out_bytes: list[int],
    kernel: dict,
    clean: tuple[float, float] | None,
    missing_layers: dict[str, str],
) -> tuple[dict, dict]:
    """Per-layer values (None where not measured) and the reasons for None.

    `summaries` are `tracer.summarize_call` results of the traced calls,
    `kernel` maps gate kinds to ns per gate (or a reason string), `clean` is
    `tracer.clean_shot_probe`'s (s per clean shot, s per run) or None.
    """
    values: dict[str, float | None] = {}
    why: dict[str, str] = {}

    def layer_s(layer):
        return median_or_none(s["layer_self_s"].get(layer, 0.0) for s in summaries)

    def layer_total(layer):
        return median_or_none(s["layer_total_s"].get(layer, 0.0) for s in summaries)

    last = summaries[-1] if summaries else {"counts": {}, "injected_frac": {}}

    def count(layer, key):
        return last["counts"].get(layer, {}).get(key, 0)

    def put(name, value, reason):
        values[name] = value
        if value is None:
            why[name] = reason

    put("schedule.build_s", layer_s("schedule.build"), "no traced call")
    put("schedule.steps", count("schedule.build", "steps"), "")
    synth = layer_s("encoding.synth")
    put("encoding.synth_s", synth, "no traced call")
    gates = count("encoding.synth", "gates")
    put("circuits.gates", gates, "")
    put("encoding.ns_per_gate", _ratio(synth, gates, 1e9), "no gates synthesized")
    run = layer_s("statevector.run")
    put("statevector.run_s", run, "no traced call")
    put(
        "statevector.ns_per_gate",
        _ratio(run, count("statevector.run", "gates"), 1e9),
        "no gates run",
    )
    for kind, value in kernel.items():
        name = f"statevector.ns_per_gate.{kind}"
        if isinstance(value, str):
            put(name, None, value)
        else:
            put(name, value, f"no {kind} gate in the workload's circuit")
    evolve = layer_s("subspace.evolve")
    put("subspace.evolve_s", evolve, "no traced call")
    put(
        "subspace.ns_per_slice",
        _ratio(evolve, count("subspace.evolve", "slices"), 1e9),
        "no slices evolved",
    )

    put("noise.run_s", layer_s("noise.run"), "no traced call")
    shots = count("noise.run", "shots")
    noise_total = layer_total("noise.run")
    put("noise.shots", shots, "")
    put("noise.us_per_shot", _ratio(noise_total, shots, 1e6), "no noisy shots")
    injected = count("noise.run", "injected")
    if clean is None or not shots:
        reason = "no noisy shots" if not shots else "clean-shot probe did not run"
        put("noise.us_per_clean_shot", None, reason)
        put("noise.us_per_injected_shot", None, reason)
    else:
        clean_shot_s, fixed_run_s = clean
        put("noise.us_per_clean_shot", clean_shot_s * 1e6, "")
        injected_s = shot_split(
            noise_total, count("noise.run", "runs"), shots, injected,
            clean_shot_s, fixed_run_s,
        )
        put(
            "noise.us_per_injected_shot",
            None if injected_s is None else injected_s * 1e6,
            "no injected shots expected",
        )
    for label in ("f1", "f1.5", "f2"):
        put(
            f"noise.injected_frac.{label}",
            last["injected_frac"].get(label),
            f"no noisy run at noise factor {label[1:]}",
        )

    put("mitigation.readout_s", layer_s("mitigation.readout"), "no traced call")
    put("mitigation.fit_s", layer_s("mitigation.fit"), "no traced call")
    put(
        "mitigation.condition_number_max",
        last.get("condition_number_max"),
        "no readout mitigation",
    )

    put("cli.self_s", median_or_none(s["cli_self_s"] for s in summaries), "no traced call")
    put("cli.out_bytes", median_or_none(out_bytes), "no successful traced call")
    put("cli.span_overlap", median_or_none(s["span_overlap"] for s in summaries), "no traced call")

    # trace.run_s is the wall time the span times add up to; the overhead
    # compares CPU times, which the host's load moves less.
    put("trace.run_s", median_or_none(s["wall_s"] for s in summaries), "no traced call")
    traced = median_or_none(traced_cpu)
    untraced = median_or_none(untraced_cpu)
    put("trace.cpu_s", traced, "no traced call")
    put("trace.untraced_cpu_s", untraced, "no untraced call")
    put(
        "trace.overhead",
        None if traced is None or not untraced else traced / untraced - 1.0,
        "needs a traced and an untraced call",
    )
    put("trace.self_sum_s", median_or_none(s["self_sum_s"] for s in summaries), "no traced call")
    put("trace.concurrent_s", median_or_none(s["concurrent_s"] for s in summaries), "no traced call")

    # A layer whose wrapped names are all gone is not measured at all.
    for name in values:
        layer = source_layer(name)
        if layer in missing_layers:
            values[name] = None
            why[name] = missing_layers[layer]
    return values, why


#: Per-layer figure name prefix -> the wrapped layer its spans come from.
_SOURCES = (
    ("schedule.", "schedule.build"),
    ("encoding.", "encoding.synth"),
    ("circuits.", "encoding.synth"),
    ("statevector.", "statevector.run"),
    ("subspace.", "subspace.evolve"),
    ("noise.", "noise.run"),
    ("mitigation.fit", "mitigation.fit"),
    ("mitigation.", "mitigation.readout"),
)


def source_layer(name: str) -> str | None:
    """The wrapped layer whose spans a per-layer figure is taken from."""
    return next((layer for prefix, layer in _SOURCES if name.startswith(prefix)), None)
