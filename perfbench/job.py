"""One benchmark job inside the child process: timed CLI calls and checks.

Calls repeat until the time budget is spent, with at least MIN_CALLS.  All
calls of a job get the same argv, so their outputs must be byte-identical:
the first call's outputs are checked in full, and a later call whose output
files hash the same shares that verdict; one that differs is checked in full
and counted as failed.  A
traced job alternates untraced and traced calls, so that the tracing
overhead compares calls made under the same conditions, and then runs the
layer probes (per-gate-kind kernel cost, clean-shot cost) on the inputs the
traced calls passed to the wrapped functions.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import resource
import shutil
import time
from pathlib import Path

import numpy
import scipy

import metrics
import tracer
from workloads import WORKLOADS

MIN_CALLS = 2


def _call(main, argv, trace: tracer.Tracer | None):
    """Run one CLI call; returns (wall seconds, CPU seconds, error or None).

    CPU seconds are this process's user and system time over all threads.
    """
    error = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        if trace is None:
            code = main(argv)
        else:
            with trace.root():
                code = main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
        code = None
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if error is None and code != 0:
        error = f"exit code {code}"
    return wall, cpu, error


def _hashes(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    cpus = os.cpu_count() or 1
    return {
        "nproc": cpus,
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # concurrent.futures' default max_workers, which the CLI's sweep
        # pool uses because the benchmark never passes --workers.
        "cli_pool_threads": min(32, cpus + 4),
    }


def _probes(first_args: dict) -> tuple[dict, tuple[float, float] | None]:
    """Kernel cost per gate kind and the clean-shot cost, where they apply."""
    kernel: dict[str, float | str | None] = {}
    run_circuit = getattr(importlib.import_module("cosmopair.statevector"), "run_circuit", None)
    circuit = first_args.get("statevector.run", {}).get("circuit")
    if run_circuit is None:
        kernel = {k: "not measured: cosmopair.statevector.run_circuit not found"
                  for k in tracer.GATE_KINDS}
    elif circuit is None:
        kernel = {k: "not measured: no circuit run on this workload" for k in tracer.GATE_KINDS}
    else:
        kernel = tracer.kernel_probe(run_circuit, circuit)
    clean = None
    noisy = first_args.get("noise.run")
    run_noisy = getattr(importlib.import_module("cosmopair.noise"), "run_noisy_circuit", None)
    if noisy is not None and run_noisy is not None:
        clean = tracer.clean_shot_probe(
            run_noisy, noisy["circuit"], noisy["model"], int(noisy["shots"]), int(noisy["seed"])
        )
    return kernel, clean


def _verdict(workload, inputs, ref, out: Path, checked: dict | None) -> dict:
    """Check one call's outputs; reuse `checked`'s verdict for identical bytes."""
    files = _hashes(out)
    if checked is not None and files == checked["files"]:
        problems, err, extra = list(checked["problems"]), checked["err"], checked["extra"]
    else:
        try:
            problems, err, extra = workload.check(inputs, ref, out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems, err, extra = [f"check failed: {type(exc).__name__}: {exc}"], None, {}
        if checked is not None:
            problems.append("outputs differ from the first call's with the same --seed")
    return {
        "problems": problems, "err": err, "extra": extra, "files": files,
        "out_bytes": sum(p.stat().st_size for p in out.iterdir() if p.is_file()),
    }


def run(job: dict, main) -> dict:
    workload = WORKLOADS[job["workload"]]
    seed, seconds, trace = job["seed"], job["seconds"], job["trace"]
    work_dir = Path(job["work_dir"])
    inputs = workload.inputs(seed)

    t0 = time.perf_counter()
    ref = workload.prepare(inputs, main, work_dir / "ref")
    shutil.rmtree(work_dir / "ref", ignore_errors=True)
    prepare_s = time.perf_counter() - t0

    calls, summaries, dumps = [], [], []
    first_args: dict = {}
    missing, missing_layers, checked = [], {}, None
    start = time.perf_counter()
    while True:
        index = len(calls)
        traced = bool(trace) and index % 2 == 1
        out = work_dir / f"call{index}"
        argv = workload.argv(inputs, seed, out)
        trace_obj = tracer.Tracer() if traced else None
        if trace_obj is not None:
            trace_obj.install()
        try:
            wall, cpu, error = _call(main, argv, trace_obj)
        finally:
            if trace_obj is not None:
                trace_obj.uninstall()
        record = {"wall_s": wall, "cpu_s": cpu, "traced": traced, "problems": [], "err": None}
        if error is not None:
            record["problems"].append(error)
        else:
            record.update(_verdict(workload, inputs, ref, out, checked))
            checked = checked or record
        shutil.rmtree(out, ignore_errors=True)
        if trace_obj is not None:
            summaries.append(tracer.summarize_call(trace_obj.spans, trace_obj.root_index))
            dumps.append({"call": index, "spans": trace_obj.dump(),
                          "counter_errors": trace_obj.counter_errors})
            missing, missing_layers = trace_obj.missing, trace_obj.missing_layers()
            for layer, args in trace_obj.first_args.items():
                first_args.setdefault(layer, args)
        calls.append(record)
        elapsed = time.perf_counter() - start
        if len(calls) >= MIN_CALLS and elapsed + elapsed / len(calls) > seconds:
            break

    result = {
        "inputs": inputs,
        "argv": workload.argv(inputs, seed, Path("<out>")),
        "work": ref["work"],
        "work_unit": workload.work_unit,
        "prepare_s": prepare_s,
        "calls": calls,
        "machine": machine(),
    }
    if trace:
        t_probe = time.perf_counter()
        kernel, clean = _probes(first_args)
        values, why = metrics.per_layer(
            summaries,
            [c["cpu_s"] for c in calls if c["traced"]],
            [c["cpu_s"] for c in calls if not c["traced"]],
            [c.get("out_bytes") for c in calls if c["traced"]],
            kernel,
            clean,
            missing_layers,
        )
        result.update(
            per_layer=values, not_measured=why, missing_names=missing,
            summaries=summaries, spans=dumps, probe_s=time.perf_counter() - t_probe,
        )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result
