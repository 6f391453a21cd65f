"""One timed sample in a fresh interpreter, with its own speed probes.

    python3 perfbench/child.py setup
    python3 perfbench/child.py cli ARGS...

run.py starts this with PYTHONPATH pointing at src/. A ``refclock.Meter``
probes the host's speed around and during the work, in this process, and
the last line of stderr reports it: ``perfbench {"probe_s": s, "spent": s}``
(mean probe time, total time in probes). The parent subtracts "spent" from
the process's wall time.
"""

import json
import sys

import refclock


def main(argv) -> int:
    job, args = argv[0], argv[1:]
    code = 0
    with refclock.Meter() as meter:
        if job == "setup":
            import socperf
            socperf.builtin_dataset()
        elif job == "cli":
            import runpy
            sys.argv = ["socperf", *args]
            try:
                runpy.run_module("socperf", run_name="__main__", alter_sys=True)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            sys.stdout.flush()
        else:
            raise SystemExit(f"unknown job {job!r}")
    report = {"probe_s": sum(meter.probes) / len(meter.probes), "spent": meter.spent}
    print("perfbench " + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
