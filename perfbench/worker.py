"""One benchmark case in a fresh interpreter: import kbx, run one CLI command.

Usage: python3 worker.py RESULT_FILE TRACE -- KBX_ARGS...

Writes RESULT_FILE as JSON with the CLI's report text, the exception type if
``cli.run`` raised, the process CPU time and the monotonic clock after the
import and after the command, the worker's max RSS and, with TRACE=1, the
per-layer spans and counters.  A fresh process per case means each command
starts with empty module-level caches, as a user's ``kbx`` call does.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def peak_rss_kb() -> int:
    """This process's own peak resident set.  ``ru_maxrss`` would do, except
    that on Linux it starts from the parent's peak when the parent forked
    with a larger one; VmHWM belongs to the image this process exec'd."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    result_file, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    from kbx import cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = {"error": None}
    buf = io.StringIO()
    ready, ready_cpu = time.monotonic(), time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            cli.run(argv)
    except Exception as exc:  # an internal fault is a benchmark result, not a crash
        out["error"] = type(exc).__name__
        traceback.print_exc(limit=3)
    done, done_cpu = time.monotonic(), time.process_time()
    out.update(
        ready=ready,
        done=done,
        ready_cpu=ready_cpu,
        done_cpu=done_cpu,
        report=buf.getvalue(),
        maxrss_kb=peak_rss_kb(),
        layers=tracer.summary() if tracer else None,
    )
    with open(result_file, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
