"""Smoke test of the benchmark harness in perfbench/ against this tree.

One recorded long-stream phase and one block of the request mix run
through perfbench/stages.py with its golden values; every operation must
pass its check. This is what `python3 perfbench/run.py` does, a few
seconds of it.
"""

import os
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
