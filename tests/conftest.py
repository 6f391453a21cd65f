import pytest

import socperf.sim as SIM


@pytest.fixture
def heap_run(monkeypatch):
    """simulate held to the event loop, the oracle of the running sums. With
    _WALK_STEPS_PER_FRAME at 0 a run's walk budget is -8k^2 for k
    components, below 0 at any N, and a run with a negative budget never
    takes the sums."""
    def run(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(SIM, "_WALK_STEPS_PER_FRAME", 0)
            return SIM.simulate(*args, **kwargs)
    return run
