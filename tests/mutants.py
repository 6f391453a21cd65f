"""A register of the mutants that the tests must kill.

Each entry changes one text of a file under src/socperf, where a written
proof or contract depends on it, and names the tests that must then fail.
The runner copies src, tests, perfbench and pyproject.toml to a temporary
directory, applies one mutant to the copy and runs `pytest -x` on the
named tests there: a failing run kills the mutant, a passing run lets it
survive. The working tree is never written.

Run it from the repository root, on a tree whose tests pass, as

    PYTHONPATH=src python3 tests/mutants.py [word ...]

to run every mutant, or only those whose name holds one of the words. A
mutant takes up to about 25 s. It exits 1 if a mutant expected to be killed
survives, or if a text to replace is not found exactly once. Pytest does
not collect this file, and it needs only the standard library and pytest.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "perfbench", "pyproject.toml")

SIM = "src/socperf/sim.py"
CALIBRATE = "src/socperf/calibrate.py"
SIM_TESTS = ("tests/test_sim.py", "tests/test_acceptance.py")
CALIBRATE_TESTS = ("tests/test_calibrate.py",)


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    survives: bool = False  # an open survivor: no test kills it yet


REGISTER = [
    Mutant("gaps-tie-rule-dropped", SIM,
           "stop = tie if below else t", "stop = t", SIM_TESTS),
    Mutant("nth-sum-tie-branch-dropped", SIM,
           "if t % 1 == 0.5 and units % 2:", "if False:", SIM_TESTS),
    Mutant("high-water-equal-rate-count", SIM,
           "first += q < r", "first += q <= r", SIM_TESTS),
    Mutant("frame-log-edge", SIM,
           "while p[-1] <= edge:", "while p[-1] < edge:", SIM_TESTS),
    # The proof of _plain_run's window puts c_r at or above
    # int(start/s_r) - 1, and int(start/s_r) can pass c_r.
    Mutant("plain-run-window-0", SIM,
           "int(start / s) - 1", "int(start / s) - 0", SIM_TESTS),
    # The proof of _high_water's bound needs a margin above 1.5u; whether
    # u is enough is not known.
    Mutant("high-water-margin-1u", SIM,
           "(s + 2 * ulp) / (sq - 2 * ulp)", "(s + ulp) / (sq - ulp)",
           SIM_TESTS, survives=True),
    Mutant("high-water-margin-dropped", SIM,
           "(s + 2 * ulp) / (sq - 2 * ulp)", "s / sq", SIM_TESTS),
    Mutant("search-no-clamp", CALIBRATE,
           "x[c] = min(hi, max(lo, here + k * step))", "x[c] = here + k * step",
           CALIBRATE_TESTS),
    Mutant("search-ties-move", CALIBRATE,
           "(got := score(x)) < best", "(got := score(x)) <= best",
           CALIBRATE_TESTS),
    Mutant("search-rescores-the-current-value", CALIBRATE,
           "if x[c] != here and (got := score(x)) < best",
           "if (got := score(x)) < best", CALIBRATE_TESTS),
    # The bisection needs the simulated throughput not to rise with the
    # overhead; with the shortest busy time as the makespan it can.
    Mutant("simulated-makespan-from-min-busy", CALIBRATE,
           "frames / max(busy)", "frames / min(busy)", CALIBRATE_TESTS),
    Mutant("bisection-30-halvings", CALIBRATE,
           "for _ in range(80):", "for _ in range(30):", CALIBRATE_TESTS),
    Mutant("bisection-40-halvings", CALIBRATE,
           "for _ in range(80):", "for _ in range(40):", CALIBRATE_TESTS),
    Mutant("bisection-keeps-the-worse-end", CALIBRATE,
           "x[0] = min(lo, hi, key=", "x[0] = max(lo, hi, key=",
           CALIBRATE_TESTS),
    Mutant("bisection-tie-keeps-the-higher-overhead", CALIBRATE,
           "x[0] = min(lo, hi, key=", "x[0] = min(hi, lo, key=",
           CALIBRATE_TESTS),
    Mutant("bisection-capped-at-a-quarter-second", CALIBRATE,
           "if hi >= _OVERHEAD_CAP * unit:", "if hi >= 0.25 * unit:",
           CALIBRATE_TESTS),
    # A throughput-only fit is the simulation, which the closed form at the
    # cap overestimates by the end-of-stream tail.
    Mutant("refusal-throughput-only-on-the-closed-form", CALIBRATE,
           "sum(_closed_form(rates, slowest)) if target_shares else 0.0",
           "sum(_closed_form(rates, slowest))", CALIBRATE_TESTS),
    # The run at the cap can pass the float range where the fit's own
    # runs do not, so only a doubling that reaches the cap simulates it.
    Mutant("refusal-simulates-the-cap-unconditionally", CALIBRATE,
           "sum(_closed_form(rates, slowest)) if target_shares else 0.0",
           "_simulated(rates, slowest, frames)[0]", CALIBRATE_TESTS),
]


def run(mutant: Mutant) -> str:
    """killed, survived, or why the mutant could not be applied."""
    with tempfile.TemporaryDirectory(prefix="socperf-mutant-") as tmp:
        for name in COPIED:
            source, copy = os.path.join(ROOT, name), os.path.join(tmp, name)
            if os.path.isdir(source):
                shutil.copytree(source, copy, ignore=shutil.ignore_patterns(
                    "__pycache__", ".pytest_cache"))
            else:
                shutil.copy(source, copy)
        path = os.path.join(tmp, mutant.path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(mutant.old) != 1:
            return f"not applied: the old text occurs {text.count(mutant.old)} times"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tmp, env=dict(os.environ, PYTHONPATH=os.path.join(tmp, "src")),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if done.returncode in (0, 1):
        return ("survived", "killed")[done.returncode]
    return f"not run: pytest exited {done.returncode}"


def main(words: list[str]) -> int:
    bad = 0
    for mutant in REGISTER:
        if words and not any(word in mutant.name for word in words):
            continue
        start = time.monotonic()
        outcome = run(mutant)
        expected = "survived" if mutant.survives else "killed"
        note = "" if outcome == expected else "  <- expected " + expected
        bad += outcome != expected and outcome != "killed"
        print(f"{mutant.name:42} {outcome:9} {time.monotonic() - start:5.1f} s"
              f"{note}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
