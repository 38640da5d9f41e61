"""Start the authormine CLI as its console script does, noting when the log is opened.

    python3 bench/launch.py STAMP LOG [--trace TRACE.json [--peaks]] -- <authormine args>

`authormine.cli.main` runs with the given arguments.  An audit hook takes
the CLOCK_MONOTONIC time of the first `open` of LOG: everything before it
(interpreter start, `import authormine`, config validation) is the
command's set-up, and everything after it is the command's work.
CLOCK_MONOTONIC is one clock for every process, so the parent can
subtract it from its own readings.

When the command returns, STAMP gets a JSON object with that time
(`opened`, null if the log was never opened) and the process's peak RSS
in KiB (`peak_kb`, VmHWM of /proc/self/status).  VmHWM belongs to this
process's own address space.  The rusage maximum (`ru_maxrss`, also as
returned by wait4) does not: at exec, Linux folds the high-water mark of
the address space being replaced into it, and a child started by
subprocess (vfork) replaces its parent's, so ru_maxrss would never read
below run.py's own peak.

With --trace the layers are wrapped by tracer.py and the spans are
written to TRACE.json; --peaks also takes the tracemalloc peaks.
"""

import json
import os
import sys
import time


def main() -> int:
    stamp, log, *args = sys.argv[1:]
    split = args.index("--")
    options, argv = args[:split], args[split + 1:]
    opened: list[float] = []

    def on_open(event: str, event_args: tuple) -> None:
        if event == "open" and not opened and isinstance(event_args[0], (str, os.PathLike)) \
                and os.fspath(event_args[0]) == log:
            opened.append(time.monotonic())

    sys.addaudithook(on_open)
    from authormine import cli

    tracer = None
    if options[:1] == ["--trace"]:
        import tracer as tracing
        tracer = tracing.Tracer(peaks="--peaks" in options)
        tracing.install(tracer)
    code = cli.main(argv)
    if tracer is not None:
        tracer.dump(options[1])
    with open(stamp, "w", encoding="utf-8") as fh:
        json.dump({"opened": opened[0] if opened else None, "peak_kb": peak_kb()}, fh)
    return code


def peak_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main())
