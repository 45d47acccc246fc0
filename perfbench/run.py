"""Benchmark of the cosmopair CLI, one workload per run.

Run from the root of a checkout that holds `src/cosmopair`:

    python3 perfbench/run.py --workload sweep-deep --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for why each was chosen): sweep-deep,
noise-shallow, trajectory-long.  Every process below is started and waited
for one at a time, so the load stays inside one child process:

1. Set-up: SETUP_CHILDREN fresh children, each timed from spawn until
   `import cosmopair.cli` is done.  With --trace 1
   they run under `python -X importtime`, which gives the import time of
   `cosmopair.background` (numpy and scipy included).
2. The job child (also a set-up sample) computes the workload's reference
   values, then calls `cosmopair.cli.main` repeatedly for --seconds, checking
   each call's outputs outside the timed region.  With --trace 1 it
   alternates untraced and traced calls and then runs the layer probes.

The output is one report line (JSON: seed, machine, argv, wall-clock and
CPU samples, output sha256 sums, failures, not-measured figures; also
written under .perfbench/) and, last, the result line:
{"correct", "attempted", "failed", "metrics"}.  End-to-end metrics are
printed with --trace 0, per-layer metrics with --trace 1.  End-to-end times
are CPU seconds of the measured process (see metrics.END_TO_END for why);
the report line has the wall-clock figures next to them.  Exit code 1 means
the benchmark could not run (for example, no program to run in this
directory); then no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
SETUP_CHILDREN = 3
#: Every run ends within this many seconds, or fails.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _read_line(fd: int, deadline: float) -> str:
    buf = b""
    while not buf.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0:
            raise BenchError("child process timed out")
        ready, _, _ = select.select([fd], [], [], left)
        if not ready:
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            raise BenchError("child process ended without answering")
        buf += chunk
    return buf.decode()


class Child:
    """One worker process and the read end of its answer pipe."""

    def __init__(self, root: Path, args: list[str], importtime: bool = False, stderr=None):
        read_fd, write_fd = os.pipe()
        cmd = [sys.executable]
        if importtime:
            cmd += ["-X", "importtime"]
        cmd += [str(WORKER), args[0], str(root / "src"), str(write_fd), *args[1:]]
        self.read_fd = read_fd
        self.t0 = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                cmd, cwd=root, pass_fds=(write_fd,),
                stdout=subprocess.DEVNULL, stderr=stderr,
            )
        finally:
            os.close(write_fd)

    def wait_ready(self, deadline: float) -> tuple[float, float]:
        """(wall seconds from spawn, child's CPU seconds) until the CLI imported."""
        word, _, cpu = _read_line(self.read_fd, deadline).partition(" ")
        wall = time.perf_counter() - self.t0
        if word != "ready":
            raise BenchError("child process did not get ready")
        return wall, float(cpu)

    def answer(self, deadline: float) -> dict:
        return json.loads(_read_line(self.read_fd, deadline))

    def close(self, deadline: float) -> int:
        """Wait for the child, killing it at the deadline; its exit code."""
        try:
            self.proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            os.close(self.read_fd)
        return self.proc.returncode


def _background_import_s(log: Path) -> float | None:
    """Cumulative import time of cosmopair.background from -X importtime."""
    for line in log.read_text().splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "cosmopair.background":
            return int(parts[1]) / 1e6
    return None


def measure_setup(root: Path, work: Path, trace: bool, deadline: float):
    """(wall, CPU) set-up seconds of fresh children, and background import times."""
    samples, background = [], []
    for i in range(SETUP_CHILDREN):
        log = work / f"setup{i}.log"
        with open(log, "w") as err:
            child = Child(root, ["setup"], importtime=trace, stderr=err)
            try:
                ready = child.wait_ready(deadline)
            except BenchError as exc:
                child.close(deadline)
                tail = log.read_text().strip().splitlines()[-1:]
                raise BenchError(f"{exc}: {' '.join(tail)}") from None
            if child.close(deadline) != 0:
                raise BenchError(f"set-up child exited with code {child.proc.returncode}")
        samples.append(ready)
        if trace:
            background.append(_background_import_s(log))
    return samples, background


def run_job(root: Path, job: dict, deadline: float) -> tuple[tuple[float, float], dict]:
    child = Child(root, ["job", json.dumps(job)])
    try:
        ready = child.wait_ready(deadline)
        result = child.answer(deadline)
    finally:
        code = child.close(deadline)
    if code != 0:
        raise BenchError(f"job child exited with code {code}")
    return ready, result


def _metric(name: str, value) -> dict:
    return {"value": value, "unit": metrics.UNITS[name]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd().resolve()
    if not (root / "src" / "cosmopair" / "cli.py").is_file():
        print(f"error: no src/cosmopair/cli.py under {root}", file=sys.stderr)
        return 1
    work = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    job = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "work_dir": str(work / "job"),
    }
    try:
        setup, background = measure_setup(root, work, bool(args.trace), deadline)
        ready, result = run_job(root, job, deadline)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup.append(ready)

    calls = result["calls"]
    failed = sum(1 for c in calls if c["problems"])
    walls = [c["wall_s"] for c in calls]
    cpus = [c["cpu_s"] for c in calls]
    run_s = statistics.median(walls)
    report = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": result["argv"],
        "inputs": result["inputs"],
        "machine": result["machine"],
        "work": result["work"],
        "work_unit": result["work_unit"],
        "setup_samples_wall_s": [w for w, _ in setup],
        "setup_samples_cpu_s": [c for _, c in setup],
        "run_samples_wall_s": walls,
        "run_samples_cpu_s": cpus,
        "run_samples": len(walls),
        "wall_clock": {
            "setup_s": statistics.median(w for w, _ in setup),
            "run_s": run_s,
            "run_s_p90": metrics.p90(walls),
            "work_per_s": result["work"] / run_s,
            "fail_frac": failed / len(calls),
        },
        "p90_note": f"nearest-rank p90 of {len(walls)} calls; fewer than ten calls lie beyond it",
        "prepare_s": result["prepare_s"],
        "failures": [c["problems"] for c in calls if c["problems"]],
        "files_sha256": next((c["files"] for c in calls if "files" in c), {}),
        "extra": next((c.get("extra") for c in calls if c.get("extra")), {}),
    }
    if args.trace:
        values = dict(result["per_layer"])
        why = dict(result["not_measured"])
        values["setup.import_background_s"] = metrics.median_or_none(background)
        if values["setup.import_background_s"] is None:
            why["setup.import_background_s"] = "not measured: no cosmopair.background in -X importtime"
        report.update(
            not_measured=why,
            missing_names=result["missing_names"],
            summaries=result["summaries"],
            probe_s=result["probe_s"],
        )
        shown = {
            name: _metric(name, 0 if values.get(name) is None else values[name])
            for name, _, _ in metrics.PER_LAYER
        }
    else:
        errs = [c["err"] for c in calls if c["err"] is not None]
        run_cpu_s = statistics.median(cpus)
        values = {
            "setup_s": statistics.median(c for _, c in setup),
            "run_cpu_s": run_cpu_s,
            "run_cpu_s_p90": metrics.p90(cpus),
            "work_per_cpu_s": result["work"] / run_cpu_s,
            "peak_rss_mb": result["peak_rss_mb"],
            "err_vs_analytic": statistics.median(errs) if errs else None,
        }
        shown = {name: _metric(name, values[name]) for name, *_ in metrics.END_TO_END}
    (work / "report.json").write_text(
        json.dumps({**report, "metrics": values, "spans": result.get("spans", [])}, indent=1)
    )
    shutil.rmtree(work / "job", ignore_errors=True)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": shown,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
