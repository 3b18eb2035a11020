"""One cold run of a workload in a fresh interpreter.

Usage: python3 perfbench/child.py '<json spec>'

The spec lists the CLI argv of each command and whether to trace.  The
child times `import qabel.cli` (the checkout's `src/` comes first on the
path), runs every command through `qabel.cli.run_command` with the program's
caches cold, and prints one JSON object on stdout: set-up and wall time,
peak RSS, per-check latencies, each command's stdout and exit code, and
the trace summary when tracing.
"""
from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _timed_checks(registry, sink: list):
    """Wrap registry.check_identity, which verify looks up as a module global."""
    check = registry.check_identity
    perf = time.perf_counter

    def check_identity(identity_id, params):
        t0 = perf()
        try:
            return check(identity_id, params)
        finally:
            sink.append(perf() - t0)

    registry.check_identity = check_identity


def _peak_rss_mb(resource) -> float:
    """This process's own peak RSS.

    Linux carries the parent's RSS at fork into the child's ru_maxrss when
    the child execs, so the harness's memory would leak into it.  VmHWM is
    the high-water mark of the exec'd image alone.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str]) -> int:
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import qabel.cli as cli
    setup_s = time.perf_counter() - t0

    import io
    import json
    import resource
    import traceback

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"qabel imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    spec = json.loads(argv[1])
    if spec.get("corrupt"):
        import faults

        faults.corrupt_g2()
    tracer = None
    check_s: list[float] = []
    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    else:
        _timed_checks(cli.registry, check_s)

    commands = []
    t_run = time.perf_counter()
    for cmd in spec["commands"]:
        err = io.StringIO()
        try:
            out, code = cli.run_command(list(cmd), stderr=err)
            exc = None
        except Exception:
            out, code, exc = "", None, traceback.format_exc()
        commands.append({"argv": cmd, "stdout": out, "code": code, "exception": exc,
                         "stderr": err.getvalue()[-2000:]})
    wall_s = time.perf_counter() - t_run
    rss_mb = _peak_rss_mb(resource)

    result = {"setup_s": setup_s, "wall_s": wall_s, "rss_mb": rss_mb,
              "check_s": check_s, "commands": commands}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        if spec.get("spans_out"):
            tracer.write_spans(spec["spans_out"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
