"""Child process of perfbench/run.py.

    python3 perfbench/worker.py setup SRC FD
    python3 perfbench/worker.py job SRC FD JOB_JSON

Imports `cosmopair.cli` from SRC and writes "ready <CPU seconds>" to the
pipe FD as soon as the CLI is importable: the end of the set-up the parent
measures, and the CPU time the process has used up to there.  In `job`
mode it then runs the job: the workload's reference computation, timed CLI
calls until the time budget is spent (each followed by its correctness
check, outside the timed region), and in a traced job the layer probes.
The result goes to FD as one JSON line.
"""

import os
import sys
import time


def main() -> int:
    mode, src, fd = sys.argv[1], os.path.realpath(sys.argv[2]), int(sys.argv[3])
    sys.path.insert(0, src)
    import cosmopair.cli

    if not os.path.realpath(cosmopair.cli.__file__).startswith(src + os.sep):
        print(f"error: cosmopair imported from outside {src}", file=sys.stderr)
        return 3
    with os.fdopen(fd, "w") as ctl:
        ctl.write(f"ready {time.process_time()!r}\n")
        ctl.flush()
        if mode == "setup":
            return 0
        # The benchmark's own modules load after "ready", outside set-up time.
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import json

        import job

        result = job.run(json.loads(sys.argv[4]), cosmopair.cli.main)
        ctl.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
