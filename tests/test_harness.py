"""Smoke test of the benchmark harness in perfbench/ against this tree.

One recorded long-stream phase and one block of the request mix run
through perfbench/stages.py with its golden values; every operation must
pass its check. This is what `python3 perfbench/run.py` does, a few
seconds of it.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import checks  # noqa: E402
import stages  # noqa: E402

SRC = os.path.join(ROOT, "src")


def test_events_phase_and_a_mix_block_pass_their_checks():
    socperf = stages.bind(SRC)
    golden = checks.load_golden()
    outcomes = stages.Outcomes()
    ns_per_frame = stages.stream_phase(socperf, golden, "events", 0, outcomes)
    assert ns_per_frame > 0
    mix = stages.RequestMix(socperf, golden, 5,
                            os.path.join(SRC, "socperf", "data"))
    for _ in range(stages.BLOCK_OPS):
        mix.run(mix.next_op(), outcomes)
    assert outcomes.attempted == 1 + stages.BLOCK_OPS
    assert (outcomes.failed, outcomes.wrong) == (0, 0), outcomes.reasons


def test_binding_loads_every_traced_module():
    # A traced run reports the metrics of a function whose home module is
    # not loaded as null, and a result line with a null metric is not a
    # result. So binding, in a fresh interpreter, must load every traced
    # function's module, whether or not the run goes on to call it.
    code = ("import json, sys, stages, tracing; stages.bind(sys.argv[1]); "
            "print(json.dumps(sorted(name for name, (home, attr, _) "
            "in tracing.TRACED.items() "
            "if not callable(getattr(sys.modules.get(home), attr, None)))))")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "perfbench"))
    done = subprocess.run([sys.executable, "-c", code, SRC], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == []
