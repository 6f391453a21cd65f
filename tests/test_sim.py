import heapq
import itertools
import math
import random
import tracemalloc
from bisect import bisect_right
from collections import deque
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from socperf import (
    MalformedDocument,
    Scenario,
    UnknownComponent,
    UnsupportedPair,
    builtin_dataset,
    effective_rates,
    load_platform,
    load_network_profile,
    load_scenario,
    network_by_id,
    platform_by_id,
    simulate,
)
import socperf.sim as SIM
from socperf.sim import (_MAX_FRAMES, _MAX_JITTER_CV, EventLog,
                         ReorderBuffer, _nth_sum, _plain_run)

EXYNOS = platform_by_id("exynos5422")
KIRIN = platform_by_id("kirin970")
ALEXNET = network_by_id("alexnet")
MOBILENET = network_by_id("mobilenet")


def synthetic_platform(rates_and_powers):
    components = []
    for i, (rate, power) in enumerate(rates_and_powers):
        components.append({
            "id": f"c{i}", "kind": "big-cpu", "peak_compute_gops": 100.0,
            "sustainable_bandwidth_gbs": 1.0, "active_power_w": power,
            "frequency_ghz": 1.0,
        })
    return load_platform({"platform": {
        "id": "synth", "bus_peak_bandwidth_gbs": 10.0, "components": components,
    }})


def synthetic_network(rates):
    throughput = {f"c{i}": rate for i, rate in enumerate(rates)}
    return load_network_profile({"network": {
        "id": "synthnet",
        "layers": [{"name": "l0", "kind": "conv", "gops": 1.0,
                    "mem_access_bytes": 1e6}],
        "throughput": throughput,
    }})


def greedy_oracle(rates, n_frames, overhead=0.0, draws=None):
    """Independent recomputation of the greedy schedule.

    Scan-based: every frame goes to the component that becomes free
    earliest, ties to the lexicographically first id. No heap, no buffer.
    With draws, frame f runs for 1/rate * draws[f] + overhead (the f-th
    jitter draw). Returns the frames, the makespan and the busy time of
    each component, and per frame (component, claim time, completion
    time), all of which a simulation must match bit for bit.
    """
    ids = sorted(rates)
    free = {c: 0.0 for c in ids}
    counts = {c: 0 for c in ids}
    busy = {c: 0.0 for c in ids}
    log = []
    makespan = 0.0
    for frame in range(n_frames):
        comp = min(ids, key=lambda c: free[c])
        service = (1.0 / rates[comp] + overhead if draws is None  # per frame
                   else 1.0 / rates[comp] * draws[frame] + overhead)
        finish = free[comp] + service
        log.append((comp, free[comp], finish))
        free[comp] = finish
        counts[comp] += 1
        busy[comp] += service
        makespan = max(makespan, finish)
    return counts, makespan, busy, log


def jitter_draws(scenario):
    """The lognormal factors a jittered scenario draws, frame by frame."""
    draw = random.Random(scenario.jitter_seed).lognormvariate
    sigma = math.sqrt(math.log(1.0 + scenario.jitter_cv ** 2))
    return [draw(-0.5 * sigma * sigma, sigma)
            for _ in range(scenario.frame_count)]


def logged(events):
    """The claims, the completions and the releases of events, each as
    (component, time, frame), in the order the run made them."""
    return tuple([(e.component_id, e.time, e.frame)
                  for e in events if e.kind == kind]
                 for kind in ("claim", "complete", "release"))


def oracle_events(log):
    """What logged() gives for a run that matches an oracle log: the claims
    lowest frame first, the completions by time, then component id (the
    heap's rank order), then frame, and the releases lowest frame first,
    frame f's at the latest (time, component id) completion of frames
    0..f."""
    latest = itertools.accumulate(
        ((finish, comp) for comp, _, finish in log), max)
    return ([(comp, start, frame) for frame, (comp, start, _) in enumerate(log)],
            sorted(((comp, finish, frame)
                    for frame, (comp, _, finish) in enumerate(log)),
                   key=lambda c: (c[1], c[0], c[2])),
            [(comp, finish, frame)
             for frame, (finish, comp) in enumerate(latest)])


# -- effective rates and contention -------------------------------------------

def test_effective_rate_no_contention():
    scenario = Scenario("exynos5422", "alexnet", ("a15",), 10)
    assert effective_rates(scenario, EXYNOS, ALEXNET) == {"a15": 3.1}


def test_effective_rate_explicit_factor():
    scenario = Scenario("kirin970", "alexnet", ("a53", "g72"), 10,
                        contention={"a53": 0.5})
    rates = effective_rates(scenario, KIRIN, ALEXNET)
    assert rates["a53"] == pytest.approx(1.1)
    assert list(rates) == ["a53", "g72"]  # engagement order
    explicit = Scenario("kirin970", "alexnet", ("a53", "g72"), 10,
                        contention={"a53": 0.9})
    rates = effective_rates(explicit, KIRIN, ALEXNET)
    assert rates["a53"] == ALEXNET.rate("a53") * 0.9
    assert rates["g72"] == ALEXNET.rate("g72") * 1.0
    # Contention is the one way to set a factor.
    with pytest.raises(TypeError, match="host_contention_default"):
        Scenario("kirin970", "alexnet", ("a53", "g72"), 10,
                 host_contention_default=0.5)


def test_effective_rate_unsupported_pair():
    scenario = Scenario("kirin970", "mobilenet", ("npu",), 10)
    with pytest.raises(UnsupportedPair):
        effective_rates(scenario, KIRIN, MOBILENET)
    # every engaged id is looked up on the platform before any rate
    scenario = Scenario("kirin970", "mobilenet", ("npu", "a7"), 10)
    with pytest.raises(UnknownComponent, match="a7"):
        effective_rates(scenario, KIRIN, MOBILENET)


# -- the simulator against its oracles -----------------------------------------

def test_zero_overhead_throughput_approaches_rate_sum():
    scenario = Scenario("exynos5422", "alexnet", ("a7", "a15", "t628"), 10000)
    result = simulate(scenario, EXYNOS, ALEXNET)
    assert result.throughput == pytest.approx(12.0, rel=1e-3)
    assert result.throughput <= 12.0


def test_single_component_degenerates_to_measured_rate():
    for comp_id in ("a7", "a15", "t628"):
        scenario = Scenario("exynos5422", "alexnet", (comp_id,), 500)
        result = simulate(scenario, EXYNOS, ALEXNET)
        assert result.throughput == pytest.approx(ALEXNET.rate(comp_id), rel=1e-12)
        assert result.composition == {comp_id: 1.0}
        assert result.reorder_high_water == 1


def test_simulate_matches_hand_schedule_20_frames():
    scenario = Scenario("exynos5422", "alexnet", ("a7", "a15", "t628"), 20)
    result = simulate(scenario, EXYNOS, ALEXNET)
    counts, makespan, _, _ = greedy_oracle(
        {"a7": 1.1, "a15": 3.1, "t628": 7.8}, 20)
    assert result.frames_per_component == counts
    assert result.makespan_s == makespan
    assert result.throughput == 20 / makespan


def test_small_instance_exhaustive_oracle():
    rate_sets = [
        (1.0,), (2.5,), (1.0, 1.0), (1.0, 3.0), (0.4, 5.0),
        (1.0, 2.0, 4.0), (3.0, 3.0, 3.0), (0.2, 1.3, 2.1), (5.0, 0.7, 2.2),
    ]
    for rates in rate_sets:
        platform = synthetic_platform([(r, 1.0) for r in rates])
        network = synthetic_network(rates)
        ids = tuple(f"c{i}" for i in range(len(rates)))
        for n_frames in range(1, 7):
            for overhead in (0.0, 0.05):
                scenario = Scenario("synth", "synthnet", ids, n_frames,
                                    dispatch_overhead_s=overhead)
                result = simulate(scenario, platform, network,
                                  record_events=True)
                counts, makespan, busy, log = greedy_oracle(
                    dict(zip(ids, rates)), n_frames, overhead)
                assert result.frames_per_component == counts
                assert result.makespan_s == makespan
                assert result.busy_time_s == busy
                assert logged(result.events) == oracle_events(log)


@pytest.mark.parametrize("overhead", [0.0, 0.002])
def test_greedy_oracle_matches_every_bundled_engagement(overhead):
    platforms, networks = builtin_dataset()
    checked = 0
    # 60 and 240 frames are the short runs of the benchmark's request mix.
    for frames, platform, network in itertools.product(
            (60, 240, 3000), platforms, networks):
        usable = [c.id for c in platform.components if network.supports(c.id)]
        for r in range(1, len(usable) + 1):
            for engaged in itertools.combinations(usable, r):
                result = simulate(
                    Scenario(platform.id, network.id, engaged, frames,
                             dispatch_overhead_s=overhead),
                    platform, network, record_events=True)
                *expected, log = greedy_oracle(
                    {cid: network.rate(cid) for cid in engaged}, frames,
                    overhead)
                assert [result.frames_per_component, result.makespan_s,
                        result.busy_time_s] == expected, (engaged, frames)
                # each frame's component and completion time, and every
                # claim, bit for bit
                assert logged(result.events) == oracle_events(log), (
                    engaged, frames)
                checked += 1
    assert checked == 3 * 102


def test_composition_follows_rate_ratios():
    scenario = Scenario("exynos5422", "alexnet", ("a7", "a15", "t628"), 10000)
    result = simulate(scenario, EXYNOS, ALEXNET)
    shares = result.composition
    assert shares == {cid: count / 10000
                      for cid, count in result.frames_per_component.items()}
    assert shares["t628"] == pytest.approx(7.8 / 12.0, abs=0.01)
    assert shares["a15"] == pytest.approx(3.1 / 12.0, abs=0.01)
    assert shares["a7"] == pytest.approx(1.1 / 12.0, abs=0.01)
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)
    assert sum(result.frames_per_component.values()) == 10000


def test_dispatch_overhead_slows_everyone():
    fast = simulate(Scenario("exynos5422", "alexnet", ("a7", "a15", "t628"),
                             4000), EXYNOS, ALEXNET)
    slow = simulate(Scenario("exynos5422", "alexnet", ("a7", "a15", "t628"),
                             4000, dispatch_overhead_s=0.02), EXYNOS, ALEXNET)
    assert slow.throughput < fast.throughput
    expected = sum(1.0 / (1.0 / r + 0.02) for r in (1.1, 3.1, 7.8))
    assert slow.throughput == pytest.approx(expected, rel=2e-3)


def test_in_order_release_and_event_log():
    scenario = Scenario("kirin970", "alexnet", ("a53", "a73", "g72", "npu"), 200)
    result = simulate(scenario, KIRIN, ALEXNET, record_events=True)
    releases = [e.frame for e in result.events if e.kind == "release"]
    assert releases == list(range(200))
    claims = [e.frame for e in result.events if e.kind == "claim"]
    assert claims == list(range(200))  # lowest-numbered first, in claim order
    completes = [e for e in result.events if e.kind == "complete"]
    assert len(completes) == 200
    times = [e.time for e in result.events]
    assert times == sorted(times)


def test_work_conservation_from_event_log():
    scenario = Scenario("kirin970", "squeezenet", ("a53", "a73", "g72", "npu"),
                        300)
    network = network_by_id("squeezenet")
    result = simulate(scenario, KIRIN, network, record_events=True)
    events = tuple(result.events)
    # Every claim, as an independent scan of the greedy rule makes it: the
    # lowest unclaimed frame, by the component free first, when it is free.
    _, _, _, log = greedy_oracle(
        effective_rates(scenario, KIRIN, network), scenario.frame_count)
    assert logged(events)[0] == oracle_events(log)[0]
    claimed = 0
    total = scenario.frame_count
    for idx, event in enumerate(events):
        if event.kind == "claim":
            claimed += 1
        if event.kind == "complete" and claimed < total:
            # while unclaimed frames remain, the completing component
            # immediately claims the next one
            follow = [e for e in events[idx + 1:] if e.kind != "release"]
            assert follow, "completion with frames left but no further claims"
            nxt = follow[0]
            assert nxt.kind == "claim"
            assert nxt.component_id == event.component_id
            assert nxt.time == event.time


def test_throughput_never_exceeds_rate_sum():
    rng = random.Random(99)
    for _ in range(200):
        n_comp = rng.randint(1, 4)
        rates = [rng.uniform(0.2, 50.0) for _ in range(n_comp)]
        platform = synthetic_platform([(r, 1.0) for r in rates])
        network = synthetic_network(rates)
        ids = tuple(f"c{i}" for i in range(n_comp))
        scenario = Scenario("synth", "synthnet", ids,
                            rng.randint(1, 300),
                            dispatch_overhead_s=rng.choice((0.0, 0.01)))
        result = simulate(scenario, platform, network)
        bound = sum(effective_rates(scenario, platform, network).values())
        assert result.throughput <= bound * (1 + 1e-12)


def test_monotone_in_engaged_set_at_n10000():
    platforms, networks = builtin_dataset()
    for platform in platforms:
        ids = [c.id for c in platform.components]
        for network in networks:
            usable = [c for c in ids if network.supports(c)]
            results = {}
            for r in range(1, len(usable) + 1):
                for engaged in itertools.combinations(usable, r):
                    scenario = Scenario(platform.id, network.id, engaged, 10000)
                    key = frozenset(engaged)
                    results[key] = simulate(scenario, platform, network).throughput
            for engaged, thr in results.items():
                for extra in usable:
                    if extra in engaged:
                        continue
                    superset = engaged | {extra}
                    assert results[superset] >= thr, (
                        platform.id, network.id, engaged, extra)


def test_determinism_bit_identical():
    scenario = Scenario("kirin970", "alexnet", ("a53", "a73", "g72", "npu"),
                        5000, dispatch_overhead_s=0.001,
                        contention={"a53": 0.3, "a73": 0.2})
    a = simulate(scenario, KIRIN, ALEXNET)
    b = simulate(scenario, KIRIN, ALEXNET)
    assert a.makespan_s == b.makespan_s
    assert a.throughput == b.throughput
    assert a.frames_per_component == b.frames_per_component
    assert a.busy_time_s == b.busy_time_s
    assert a.energy_j == b.energy_j
    assert a.reorder_high_water == b.reorder_high_water
    # Recorded runs compare equal, events included.
    recorded = simulate(scenario, KIRIN, ALEXNET, record_events=True)
    assert recorded == simulate(scenario, KIRIN, ALEXNET, record_events=True)
    other = simulate(Scenario("kirin970", "alexnet", scenario.engaged, 5000),
                     KIRIN, ALEXNET, record_events=True)
    assert recorded.events != other.events


def test_jitter_seeded_and_in_order():
    base = dict(platform_id="exynos5422", network_id="alexnet",
                engaged=("a7", "a15", "t628"), frame_count=500,
                jitter_cv=0.3)
    a = simulate(Scenario(jitter_seed=1, **base), EXYNOS, ALEXNET,
                 record_events=True)
    b = simulate(Scenario(jitter_seed=1, **base), EXYNOS, ALEXNET)
    c = simulate(Scenario(jitter_seed=2, **base), EXYNOS, ALEXNET)
    assert a.makespan_s == b.makespan_s
    assert a.makespan_s != c.makespan_s
    # Without a seed a jittered run is seeded with 0, so it repeats.
    unseeded = Scenario(**base)
    d = simulate(unseeded, EXYNOS, ALEXNET)
    assert simulate(unseeded, EXYNOS, ALEXNET).makespan_s == d.makespan_s
    assert simulate(Scenario(jitter_seed=0, **base), EXYNOS,
                    ALEXNET).makespan_s == d.makespan_s
    releases = [e.frame for e in a.events if e.kind == "release"]
    assert releases == list(range(500))
    # frame f runs for the f-th draw
    *fields, log = greedy_oracle({"a7": 1.1, "a15": 3.1, "t628": 7.8}, 500,
                                 draws=jitter_draws(a.scenario))
    assert [a.frames_per_component, a.makespan_s, a.busy_time_s] == fields
    assert logged(a.events) == oracle_events(log)


@pytest.mark.parametrize("overhead,makespan,busy,frames,high_water", [
    (0.0, "66.85327031190056",
     ("66.85327031190056", "66.78265763894622", "66.69524722914849",
      "66.71348520735167"), (147, 510, 2173, 2170), 39),
    (0.002, "70.74506255526205",
     ("70.74506255526205", "70.63478180751945", "70.58158272228238",
      "70.56482704909342"), (155, 528, 2157, 2160), 37),
])
def test_seeded_jitter_run_is_pinned(overhead, makespan, busy, frames,
                                     high_water):
    # Recorded before the event loop was rewritten around per-rank lists;
    # any change in the order or the arithmetic of the jitter draws shows
    # here, since jittered runs have no other golden value.
    engaged = ("a53", "a73", "g72", "npu")
    scenario = Scenario("kirin970", "alexnet", engaged, 5000,
                        dispatch_overhead_s=overhead, jitter_seed=7,
                        jitter_cv=0.1)
    result = simulate(scenario, KIRIN, ALEXNET)
    assert repr(result.makespan_s) == makespan
    assert {cid: repr(t) for cid, t in result.busy_time_s.items()} == dict(
        zip(engaged, busy))
    assert result.frames_per_component == dict(zip(engaged, frames))
    assert result.reorder_high_water == high_water


DRAWS = 5000
# One component per draw, all at rate 1: each frame is a claim at time 0,
# so frame f completes at exactly the f-th factor.
DRAW_RUN = (synthetic_platform([(1.0, 1.0)] * DRAWS),
            synthetic_network([1.0] * DRAWS))


@pytest.mark.parametrize("cv", [1e-9, 0.01, 0.1, 1, 3, 1e3, _MAX_JITTER_CV])
@pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 40])
def test_jitter_factors_are_the_stdlib_lognormal_draws(seed, cv):
    sigma = math.sqrt(math.log(1.0 + cv ** 2))
    draw = random.Random(seed).lognormvariate
    scenario = Scenario("synth", "synthnet",
                        tuple(f"c{i}" for i in range(DRAWS)), DRAWS,
                        jitter_seed=seed, jitter_cv=cv)
    times = simulate(scenario, *DRAW_RUN, record_events=True).events.times
    assert ([repr(t) for t in times]
            == [repr(draw(-0.5 * sigma * sigma, sigma)) for _ in range(DRAWS)])


def assert_jittered_run_is_the_oracle_run(frames, overhead):
    scenario = Scenario("kirin970", "alexnet", ("a53", "a73", "g72", "npu"),
                        frames, dispatch_overhead_s=overhead, jitter_seed=7,
                        jitter_cv=0.3)
    result = simulate(scenario, KIRIN, ALEXNET, record_events=True)
    *fields, log = greedy_oracle(effective_rates(scenario, KIRIN, ALEXNET),
                                 frames, overhead, draws=jitter_draws(scenario))
    assert [result.frames_per_component, result.makespan_s,
            result.busy_time_s] == fields
    assert logged(result.events) == oracle_events(log)


@pytest.mark.parametrize("overhead", [0.0, 0.002])
@pytest.mark.parametrize("frames", [1, 2, 3])
def test_jittered_run_shorter_than_its_engagement_draws_at_time_0(frames,
                                                                   overhead):
    # Fewer frames than components: every draw is a claim at time 0.
    assert_jittered_run_is_the_oracle_run(frames, overhead)


@pytest.mark.parametrize("overhead", [0.0, 0.002])
@pytest.mark.parametrize("frames", [4, 5])
def test_jittered_run_at_the_seam_of_its_claims(frames, overhead):
    # N = k and N = k + 1: the last claim at time 0, then the first claim
    # made as a completion leaves the heap.
    assert_jittered_run_is_the_oracle_run(frames, overhead)


def test_ties_resolve_by_component_id_order():
    platform = synthetic_platform([(2.0, 1.0), (2.0, 1.0)])
    network = synthetic_network([2.0, 2.0])
    result = simulate(Scenario("synth", "synthnet", ("c0", "c1"), 9),
                      platform, network, record_events=True)
    first_claims = [e for e in result.events if e.kind == "claim"][:2]
    assert [e.component_id for e in first_claims] == ["c0", "c1"]
    assert result.frames_per_component == {"c0": 5, "c1": 4}


# -- scenario validation -------------------------------------------------------

def test_scenario_validation():
    with pytest.raises(MalformedDocument):
        Scenario("p", "n", (), 10)
    with pytest.raises(MalformedDocument,
                       match="frames must be an integer <= 10000000"):
        Scenario("p", "n", ("a",), _MAX_FRAMES + 1)
    with pytest.raises(MalformedDocument):
        Scenario("p", "n", ("a", "a"), 10)
    with pytest.raises(MalformedDocument):
        Scenario("p", "n", ("a",), 0)
    with pytest.raises(MalformedDocument):
        Scenario("p", "n", ("a",), 10, dispatch_overhead_s=-1.0)
    with pytest.raises(MalformedDocument):
        Scenario("p", "n", ("a",), 10, contention={"a": 0.0})
    with pytest.raises(MalformedDocument):
        Scenario("p", "n", ("a",), 10, contention={"a": 1.5})
    with pytest.raises(MalformedDocument):
        Scenario("p", "n", ("a",), 10, jitter_cv=-0.1)


def test_unsupported_engagement_propagates():
    scenario = Scenario("kirin970", "mobilenet", ("a53", "npu"), 10)
    with pytest.raises(UnsupportedPair):
        simulate(scenario, KIRIN, MOBILENET)


@pytest.mark.parametrize("passed, message", [
    ({"platform": EXYNOS},
     "scenario names platform 'kirin970' but got 'exynos5422'"),
    ({"network": network_by_id("googlenet")},
     "scenario names network 'alexnet' but got 'googlenet'"),
])
def test_simulate_refuses_a_profile_the_scenario_does_not_name(passed,
                                                               message):
    scenario = Scenario("kirin970", "alexnet", ("a53",), 10)
    with pytest.raises(MalformedDocument) as exc:
        simulate(scenario, **passed)
    assert str(exc.value) == message


def test_simulate_shows_a_long_id_it_was_handed_by_its_head_and_length():
    long_id = "x" * 10**6
    shown = "'" + "x" * 59 + "... (1000002 characters)"
    with pytest.raises(MalformedDocument) as exc:
        simulate(Scenario("kirin970", "alexnet", ("a53",), 10),
                 replace(KIRIN, id=long_id))
    assert str(exc.value) == f"scenario names platform 'kirin970' but got {shown}"
    with pytest.raises(MalformedDocument) as exc:
        simulate(Scenario("exynos5422", long_id, ("a7",), 10), EXYNOS, ALEXNET)
    assert str(exc.value) == f"scenario names network {shown} but got 'alexnet'"


def test_contention_for_unengaged_component_rejected():
    with pytest.raises(MalformedDocument,
                       match="scenario contention: component must be one "
                             "of a15, got 't628'"):
        Scenario("exynos5422", "alexnet", ("a15",), 10,
                 contention={"t628": 0.5})


def traced_run(frames, record_events=False, **jitter):
    """A run of the four kirin970 components and the peak bytes it
    allocated."""
    scenario = Scenario("kirin970", "alexnet", ("a53", "a73", "g72", "npu"),
                        frames, **jitter)
    tracemalloc.start()
    try:
        result = simulate(scenario, KIRIN, ALEXNET, record_events)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_plain_run_allocates_nothing_per_frame():
    result, peak = traced_run(10 ** 5)
    assert result.events is None
    assert peak < 16 * 1024


def test_jittered_run_allocates_nothing_per_frame():
    # The jitter factors are drawn one at a time, never buffered.
    _, peak = traced_run(10 ** 5, jitter_seed=7, jitter_cv=0.1)
    assert peak < 16 * 1024


def test_recorded_run_keeps_a_small_frame_log():
    # The log holds a rank byte and a completion time per frame, 9 bytes
    # per frame; the merge that fills it holds one chunk of sums at a time.
    frames = 10 ** 5
    result, peak = traced_run(frames, record_events=True)
    assert result.events is not None
    assert peak <= 9.5 * frames


@pytest.mark.parametrize("jitter", [{}, {"jitter_seed": 7, "jitter_cv": 0.1}],
                         ids=["jitter_free", "jittered"])
def test_recorded_event_loop_run_keeps_a_small_frame_log(monkeypatch, jitter):
    # The event loop keeps nothing per frame but the log.
    monkeypatch.setattr(SIM, "_WALK_STEPS_PER_FRAME", 0)
    frames = 10 ** 5
    result, peak = traced_run(frames, record_events=True, **jitter)
    assert result.events is not None
    assert peak <= 9.5 * frames


def test_recorded_run_above_the_frame_cap_is_refused():
    with pytest.raises(MalformedDocument,
                       match="scenario: frames must be an integer "
                             "<= 10000000, got 10000001"):
        simulate(Scenario("kirin970", "alexnet", ("a53", "npu"),
                          _MAX_FRAMES + 1), KIRIN, ALEXNET, record_events=True)


def test_recorded_run_with_300_components():
    # Ranks past 255 need more than a byte each.
    rates = [0.5 + (i * 37 % 101) / 10.0 for i in range(300)]
    platform = synthetic_platform([(r, 1.0) for r in rates])
    ids = tuple(f"c{i}" for i in range(300))
    result = simulate(Scenario("synth", "synthnet", ids, 1000),
                      platform, synthetic_network(rates), record_events=True)
    *fields, log = greedy_oracle(dict(zip(ids, rates)), 1000)
    assert [result.frames_per_component, result.makespan_s,
            result.busy_time_s] == fields
    assert logged(result.events) == oracle_events(log)
    releases = [e.frame for e in result.events if e.kind == "release"]
    assert releases == list(range(1000))


@pytest.mark.parametrize("jitter_cv", [0.0, 0.3])
@pytest.mark.parametrize("platform_id", ["exynos5422", "kirin970"])
def test_frame_log_columns_restate_the_result(platform_id, jitter_cv):
    platform = platform_by_id(platform_id)
    engaged = tuple(c.id for c in platform.components
                    if ALEXNET.supports(c.id))
    scenario = Scenario(platform_id, "alexnet", engaged, 3000,
                        jitter_seed=3, jitter_cv=jitter_cv)
    result = simulate(scenario, platform, ALEXNET, record_events=True)
    log = result.events
    assert [f.name for f in fields(EventLog)] == ["ids", "ranks", "times"]
    assert log.ids == tuple(sorted(engaged))
    assert len(log.ranks) == len(log.times) == 3000
    # Frame f ran on ids[ranks[f]] and completed at times[f]; a component
    # runs back to back from time 0, so its busy time is its last one.
    frames = dict.fromkeys(log.ids, 0)
    last = dict.fromkeys(log.ids, 0.0)
    for rank, time in zip(log.ranks, log.times):
        cid = log.ids[rank]
        frames[cid] += 1
        last[cid] = max(last[cid], time)
    assert frames == result.frames_per_component
    assert last == result.busy_time_s
    assert max(log.times) == result.makespan_s
    assert simulate(scenario, platform, ALEXNET,
                    record_events=True).events == log
    slower = replace(scenario, dispatch_overhead_s=1e-3)
    assert simulate(slower, platform, ALEXNET,
                    record_events=True).events != log
    assert log.__eq__(tuple(log)) is NotImplemented
    for name in ("ids", "ranks", "times"):
        with pytest.raises(FrozenInstanceError):
            setattr(log, name, getattr(log, name))


def test_recorded_result_repr_stays_short():
    result = simulate(Scenario("kirin970", "alexnet", ("a53", "npu"), 10 ** 6),
                      KIRIN, ALEXNET, record_events=True)
    assert len(repr(result)) < 1024


# -- the running sums of a plain run ------------------------------------------

def last_claim_oracle(service, claims):
    """The frames each rank runs and when it completes its last, from a
    walk over every completion in (time, rank) order on the running sums."""
    heap = [(s, r) for r, s in enumerate(service)]
    heapq.heapify(heap)
    done = [0] * len(service)
    for _ in range(claims):
        time, r = heapq.heappop(heap)
        done[r] += 1
        heapq.heappush(heap, (time + service[r], r))
    return [n + 1 for n in done], [time for time, _ in sorted(
        heap, key=lambda entry: entry[1])]


def ulps_apart(s, k):
    """k service times from s down, each one ulp below the last."""
    service = [s]
    for _ in range(k - 1):
        service.append(math.nextafter(service[-1], 0.0))
    return service


# Service times whose running sums cross many powers of two: kirin970's
# on alexnet, bare and with 1 ms of overhead; subnormal ones; ones whose
# sums land exactly halfway between two floats (1 + k*2^-52 for odd k,
# odd*2^-60 once the sum passes 2^-7); and one whose sums pass the float
# range at n = 8.
NTH_SUM_SERVICE = (
    [1 / r + h for r in (2.2, 7.6, 32.5) for h in (0.0, 1e-3)]
    + [5e-324, 1e-323, 2.0 ** -1022]
    + [1 + k * 2.0 ** -52 for k in (1, 2, 3, 5, 7)]
    + [odd * 2.0 ** -60 for odd in (1, 3, 2 ** 51 + 1, 2 ** 52 - 1, 3 ** 33)]
    + [1.7e308 / 7])


def test_nth_sum_equals_repeated_addition():
    for s in NTH_SUM_SERVICE:
        sums = [0.0, *itertools.accumulate(itertools.repeat(s, 2000))]
        assert [_nth_sum(s, n) for n in range(2001)] == sums, s.hex()
    # Halfway steps whose sum crosses 2^-1021 at n = 446 onto an odd
    # multiple of the new spacing: the step at n = 447 adds q units of it,
    # and every later one q + 1.
    s = float.fromhex("0x0.012688b70e62bp-1022")
    sums = list(itertools.accumulate(itertools.repeat(s, 449)))
    assert [_nth_sum(s, n) for n in range(446, 450)] == sums[445:]
    for s in (1 / 2.2, 1 / 32.5 + 1e-3, 2.0 ** -1022 / 3):
        total = 0.0
        for n, m in itertools.pairwise((0, 10 ** 4, 10 ** 6, 10 ** 7)):
            total = deque(itertools.accumulate(itertools.repeat(s, m - n),
                                               initial=total), maxlen=1)[0]
            assert _nth_sum(s, m) == total, (s.hex(), m)


def seeded_service_times(rng, cases):
    """Seeded service times over the whole exponent range, subnormal and
    overflowing sums included. Half have a random 53-bit mantissa; the
    others end in an odd bit up to 12 places higher, so their sums first
    land halfway between two floats after up to 2^13 additions."""
    for _ in range(cases):
        mantissa = rng.getrandbits(52) | 1 << 52
        if rng.random() < 0.5:
            shift = rng.randint(1, 12)
            mantissa = (mantissa >> shift | 1) << shift
        yield math.ldexp(mantissa, rng.randint(-1126, 971))


def test_nth_sum_equals_repeated_addition_on_seeded_exponents():
    rng = random.Random(24)
    for s in seeded_service_times(rng, 3000):
        n = rng.choice((rng.randint(0, 64), rng.randint(0, 6000)))
        sums = list(itertools.accumulate(itertools.repeat(s, n), initial=0.0))
        for m in {n, *rng.choices(range(n + 1), k=4)}:
            assert _nth_sum(s, m) == sums[m], (s.hex(), m)


@pytest.mark.parametrize("service,claims", [
    # Reciprocals that sum past the float range, a 2:1 pair far out, ties
    # within and across ranks, and service times one ulp apart.
    ([1e-308, 1e-308], 100), ([5e-309, 1e-300, 3e-308], 1000),
    ([1.0, 2.0], 10 ** 5), ([0.5, 0.25, 0.5], 999),
    ([1.0, math.nextafter(1.0, 2.0)], 5000),
    # The cases the window's proof leans on. A few claims, so the merge
    # starts at or near time 0.
    ([3.0, 1.0], 1), ([1.0, 2.0, 3.0], 7),
    # One fast rank among slow ones whose next sums fall just past the
    # start, so the merge pops several sums of the fast rank.
    ([1000.0] * 7 + [1.0], 876), ([1.0] + [1000.0] * 7, 876),
    pytest.param([1.0] + [3.0] * 63, 133, id="[1.0] + [3.0] * 63-133"),
    # 64 ranks, 8 one ulp apart, and subnormal service times, from the
    # least a rate allows to the least float.
    pytest.param([1.0 + i / 64 for i in range(64)], 10 ** 4,
                 id="64 ranks 1/64 apart-10000"),
    pytest.param(ulps_apart(1 / 3, 8), 10 ** 5, id="8 ranks 1 ulp apart-100000"),
    ([5.6e-309, 1.1e-308, 1.7e-308], 10 ** 4),
    ([5e-324, 1e-323, 1.5e-323, 5e-324], 1000)], ids=repr)
def test_last_claim_equals_a_heap_walk(service, claims):
    assert (_plain_run(service, claims + len(service))
            == last_claim_oracle(service, claims))


def last_claim_stress_cases(rng, cases):
    """Seeded (service, claims) cases for the window of _plain_run: 1 to
    12 ranks spread around one magnitude, one ulp apart, one fast rank
    among slow ones, or in small integer ratios that tie; magnitudes from
    the least a rate allows (2^-1024) to near the top of the float range,
    where the sums overflow; claims near k + 4 or up to 3,000."""
    for _ in range(cases):
        k, pattern = rng.randint(1, 12), rng.randrange(4)
        base = rng.choice((rng.uniform(2.0 ** -1024, 2.0 ** -1022),
                           rng.uniform(1.0, 2.0) * 2.0 ** rng.randint(-60, 60),
                           rng.uniform(1e306, 1.7e308)))
        if pattern == 0:
            service = [base * rng.uniform(0.5, 1.0) for _ in range(k)]
        elif pattern == 1:
            service = ulps_apart(base, k)
        elif pattern == 2:
            service = [base] * k
            service[rng.randrange(k)] = base / rng.choice((8.0, 1000.0))
        else:
            service = [base / rng.choice((1, 2, 3, 4, 6)) for _ in range(k)]
        claims = rng.choice((rng.randint(0, 2 * k + 10),
                             k + 4 + rng.randint(-2, 2), rng.randint(0, 3000)))
        yield service, claims


def test_last_claim_equals_a_heap_walk_on_seeded_stress_cases():
    refused = 0
    for service, claims in last_claim_stress_cases(random.Random(23), 1500):
        want = last_claim_oracle(service, claims)
        try:
            got = _plain_run(service, claims + len(service))
        except MalformedDocument:
            # Refused only where the makespan passes the float range.
            assert max(want[1]) == math.inf, (service, claims)
            refused += 1
            continue
        assert got == want, (service, claims)
    assert refused >= 10, refused


def test_plain_run_counts_at_once_only_sums_up_to_start(monkeypatch):
    # The window's proof: the first low_r sums of each rank, counted
    # without a merge, end at or before start = claims / sum(1/s_r). For
    # s_r = 0.1 and 10^6 claims, start/s_r rounds up to 10^6 while the
    # 10^6-fold sum is 100000.0000013, past start: there int(start/s_r)
    # counts one sum too many.
    drawn = []

    def recorded(s, n):
        drawn.append((s, n))
        return _nth_sum(s, n)
    monkeypatch.setattr(SIM, "_nth_sum", recorded)
    cases = [([0.1], 10 ** 6), ([0.1, 0.3], 10 ** 6),
             *last_claim_stress_cases(random.Random(23), 1500)]
    for service, claims in cases:
        drawn.clear()
        try:
            _plain_run(service, claims + len(service))
        except MalformedDocument:
            continue  # the start passes the float range
        scale = min(service)
        start = claims / sum(scale / s for s in service) * scale
        for s, n in drawn:  # n = low_r + 1
            assert _nth_sum(s, n - 1) <= start, (service, claims, s)


def outcome(run, *args, **kwargs):
    """What run(*args, **kwargs) returns, or the refusal's text."""
    try:
        return run(*args, **kwargs)
    except MalformedDocument as exc:
        return str(exc)


def sums_families():
    """(name, scenario, platform, network) of seeded jitter-free runs."""
    platforms, networks = builtin_dataset()
    for platform in platforms:
        for network in networks:
            usable = [c.id for c in platform.components
                      if network.supports(c.id)]
            for engaged in (e for k in range(1, len(usable) + 1)
                            for e in itertools.combinations(usable, k)):
                yield ("bundled", Scenario(platform.id, network.id, engaged,
                                           2000, 1e-3), platform, network)
    rng = random.Random(22)
    cases = [("random", [rng.uniform(0.3, 60.0) for _ in range(k)],
              rng.choice([0.0, 1e-3, rng.uniform(0.0, 0.25)]))
             for k in range(1, 9) for _ in range(6)]
    for k in range(1, 9):
        rate = rng.uniform(0.3, 60.0)
        cases.append(("identical", [rate] * k, 0.0))
        cases.append(("1e-9 apart", [rate * (1 + i * 1e-9) for i in range(k)],
                      1e-3))
        cases.append(("1 ulp apart",
                      [1 / s for s in ulps_apart(1 / rate, k)], 0.0))
    cases.append(("32 identical", [3.0] * 32, 1e-3))
    # Rates in small integer ratios complete frames at equal times, where
    # a rank below another goes first, and repeat some rates exactly.
    cases += [("exact ties", rates, 0.0) for rates in (
        [6.0, 4.0, 1.0, 3.0], [2.0, 3.0, 1.0, 2.0, 6.0], [6.0, 1.0, 6.0, 1.0],
        [6.0, 3.0, 3.0], [3.0, 0.5, 0.5, 3.0, 3.0], [9.0, 3.0, 3.0])]
    # Subnormal service times, alone (throughput past the float range),
    # beside a normal one and beside one so long that the slow rank's
    # weight in the guessed run underflows; overheads that put the sums
    # past the range, at 10^4 frames only in the last sum or long before
    # the last claim.
    cases += [("subnormal", [1.5e308, 1.2e308], 0.0),
              ("subnormal", [1.5e308, 1.0], 0.0),
              ("subnormal", [1.5e308, 1e-17], 0.0),
              ("overflowing", [1.0], 1.798e304),
              ("overflowing", [1.0], 1e306),
              ("overflowing", [1.0, 2.0], 1e306),
              ("overflowing", [2.0, 3.0, 5.0], 1e305)]
    for name, rates, overhead in cases:
        k = len(rates)
        platform = synthetic_platform([(rate, 1.0) for rate in rates])
        network = synthetic_network(rates)
        ids = tuple(f"c{i}" for i in range(k))
        # N = 2k^2 is the fewest frames that take the running sums.
        for frames in sorted({k, k + 1, 2 * k * k - 1, 2 * k * k, 999, 1000,
                              10 ** 4}):
            yield name, Scenario("synth", "synthnet", ids, frames, overhead), \
                platform, network


def test_plain_run_equals_the_heap_run_field_for_field(heap_run):
    # A plain run takes the running sums where it can, and must give the
    # event loop's result or refusal.
    refused = 0
    for name, scenario, platform, network in sums_families():
        plain = outcome(simulate, scenario, platform, network)
        assert plain == outcome(heap_run, scenario, platform, network), (
            name, scenario)
        refused += isinstance(plain, str)
    assert refused == 15


def test_run_past_the_float_range_is_refused_before_its_sums_grow():
    # 10^5 frames of 1e306 s each: the sums leave the float range long
    # before the last claim, and no window of them is kept.
    platform = synthetic_platform([(1.0, 1.0)])
    network = synthetic_network([1.0])
    tracemalloc.start()
    try:
        with pytest.raises(MalformedDocument,
                           match="makespan_s must be finite and > 0, got inf"):
            simulate(Scenario("synth", "synthnet", ("c0",), 10 ** 5, 1e306),
                     platform, network)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def recorded_paths(monkeypatch):
    """What each _high_water call returned, None for a run that fell back
    to the event loop, and how many runs took the running sums (called
    _plain_run)."""
    calls, claimed = [], []
    high_water, plain_run = SIM._high_water, SIM._plain_run

    def recording(*args):
        calls.append(high_water(*args))
        return calls[-1]

    def claiming(*args):
        claimed.append(None)
        return plain_run(*args)

    monkeypatch.setattr(SIM, "_high_water", recording)
    monkeypatch.setattr(SIM, "_plain_run", claiming)
    return calls, claimed


def seeded_rates(k, seed):
    rng = random.Random(seed)
    return [rng.uniform(0.3, 60.0) for _ in range(k)]


# path is "sums" for a run that takes them, "loop" for one that takes the
# event loop at once, and "walk over budget" for one that takes the sums,
# finds its walk over the budget and then takes the event loop.
@pytest.mark.parametrize("rates,frames,path", [
    ("kirin970", 10 ** 4, "sums"),
    ("kirin970", 240, "sums"),
    # N = 2k^2 = 32 frames is the fewest that four components take the
    # sums at.
    ("kirin970", 31, "loop"),
    ("kirin970", 32, "sums"),
    # Rates 1e-9 apart, falling in id order: the slowest rank is the last,
    # its first completion has c - f = 1, below every other rank's bound,
    # and walking them all would cost more than the heap loop. Rising, the
    # slowest rank is the first, its first completion has c - f = 8, which
    # meets every bound, and no rank is walked.
    ([3.0 * (1 - i * 1e-9) for i in range(8)], 10 ** 4, "walk over budget"),
    ([3.0 * (1 + i * 1e-9) for i in range(8)], 10 ** 4, "sums"),
    # The bound visits alone, k * k at 8 steps each, exceed the budget of
    # 4 steps per frame from 23 ranks at 1,000 frames and from 71 at 10^4.
    ([0.3 + 0.9 * i for i in range(64)], 1000, "loop"),
    # 25 ranks rising 1e-9 apart walk none; their bounds take the whole
    # budget at 1,250 frames and pass it at 1,249.
    ([3.0 * (1 + i * 1e-9) for i in range(25)], 1250, "sums"),
    ([3.0 * (1 + i * 1e-9) for i in range(25)], 1249, "loop"),
    (seeded_rates(64, 64), 10 ** 4, "walk over budget"),
    (seeded_rates(100, 100), 10 ** 4, "loop"),
    (seeded_rates(200, 200), 10 ** 4, "loop"),
], ids=["kirin970_at_1e4", "kirin970_at_240", "kirin970_at_31",
        "kirin970_at_32", "near_equal_x8_falling",
        "near_equal_x8_rising", "x64_at_1e3", "x25_at_1250", "x25_at_1249",
        "seeded_x64_at_1e4", "seeded_x100_at_1e4", "seeded_x200_at_1e4"])
def test_each_family_takes_its_path(monkeypatch, heap_run, rates, frames,
                                    path):
    if rates == "kirin970":
        run = (Scenario("kirin970", "alexnet", ("a53", "a73", "g72", "npu"),
                        frames), KIRIN, ALEXNET)
    else:
        ids = tuple(f"c{i}" for i in range(len(rates)))
        run = (Scenario("synth", "synthnet", ids, frames),
               synthetic_platform([(rate, 1.0) for rate in rates]),
               synthetic_network(rates))
    calls, claimed = recorded_paths(monkeypatch)
    result = simulate(*run)
    # A run takes the sums, and plans its walk, at most once; the walk
    # gives the high water or None.
    assert len(calls) == len(claimed)
    assert calls == {"sums": [result.reorder_high_water], "loop": [],
                     "walk over budget": [None]}[path]
    assert result == heap_run(*run)


def test_high_water_bound_keeps_its_rounding_margin(heap_run):
    # A rate one ulp below twice the other. The fast rank's (c1) rounded
    # sums keep pace with twice the slow rank's: its 16th ties the slow
    # rank's 8th, at 8/3 s, and goes second, and its 18th comes one ulp
    # before the slow rank's 9th, at 3 s. So c1 completes three frames
    # between two of c0's, and the high water is 3. Bounding that count
    # by the bare quotient of the service times, one ulp below 2, would
    # report 2.
    rates = [3.0, math.nextafter(6.0, 0.0)]
    run = (Scenario("synth", "synthnet", ("c0", "c1"), 1000),
           synthetic_platform([(rate, 1.0) for rate in rates]),
           synthetic_network(rates))
    result = simulate(*run)
    assert result.reorder_high_water == 3
    assert result == heap_run(*run)


def extreme_runs(cases, seed):
    """(scenario, platform, network) of seeded jitter-free runs of 1 to 8
    components at 1,000 to 5,000 frames, with rates at 10^+-300: spread
    around one magnitude, 1e-12 apart, each at its own magnitude, or in
    small integer ratios that tie exactly; overheads of 0 or 10^[-320,
    300], and one active power in five at 10^+-300."""
    rng = random.Random(seed)

    def magnitude():
        return 10.0 ** rng.uniform(-300.0, 300.0)

    for _ in range(cases):
        k, m, pattern = rng.randint(1, 8), magnitude(), rng.randrange(4)
        if pattern == 0:
            rates = [m * rng.uniform(0.5, 2.0) for _ in range(k)]
        elif pattern == 1:
            rates = [m * (1 + i * 1e-12) for i in range(k)]
            rates.sort(reverse=rng.random() < 0.5)
        elif pattern == 2:
            rates = [magnitude() for _ in range(k)]
        else:  # a power of two keeps the ratios exact
            scale = 2.0 ** rng.randint(-990, 990)
            rates = [scale * rng.choice((1, 2, 3, 4, 6)) for _ in range(k)]
        powers = [magnitude() if rng.random() < 0.2 else 1.0 for _ in rates]
        overhead = rng.choice((0.0, 10.0 ** rng.uniform(-320.0, 300.0)))
        frames = rng.choice((1000, 1001, 1500, 2000, 5000))
        yield (Scenario("synth", "synthnet", tuple(f"c{i}" for i in range(k)),
                        frames, overhead),
               synthetic_platform(list(zip(rates, powers))),
               synthetic_network(rates))


def test_plain_runs_at_extreme_magnitudes_equal_the_heap_run(monkeypatch,
                                                            heap_run):
    calls, _ = recorded_paths(monkeypatch)
    refused = 0
    for run in extreme_runs(300, 26):
        plain = outcome(simulate, *run)
        assert plain == outcome(heap_run, *run), run[0]
        refused += isinstance(plain, str)
    # Most runs take the sums and walk within budget; some are refused.
    walked = sum(high_water is not None for high_water in calls)
    assert walked >= 150 and refused >= 10, (walked, refused)


def test_recorded_plain_run_logs_what_the_heap_run_logs(monkeypatch,
                                                        heap_run):
    # Every field and both log columns, or the refusal, bit for bit.
    merges = []  # one None per run that took the frame log's merge
    frame_log = SIM._frame_log
    monkeypatch.setattr(SIM, "_frame_log",
                        lambda *args: merges.append(frame_log(*args)))
    runs = [family[1:] for family in sums_families()]
    for run in [*runs, *extreme_runs(300, 26), *extreme_runs(300, 99)]:
        recorded = outcome(simulate, *run, record_events=True)
        assert recorded == outcome(heap_run, *run, record_events=True), run[0]
    assert len(merges) == 823  # of 1,282 runs


@pytest.mark.parametrize("chunk", [1, 64])
def test_recorded_plain_run_at_a_chunk_edge(monkeypatch, heap_run, chunk):
    # Two equal ranks complete together at every whole second, and the
    # last sums of both fall at frames/2 s, c1's after c0's. Some of these
    # counts put them on a chunk edge, whose sums that chunk takes.
    edges = set()

    def bisect(sums, edge):
        edges.add(edge)
        return bisect_right(sums, edge)

    monkeypatch.setattr(SIM, "_CHUNK_FRAMES", chunk)
    monkeypatch.setattr(SIM, "bisect_right", bisect)
    platform = synthetic_platform([(1.0, 1.0)] * 2)
    network = synthetic_network([1.0] * 2)
    met = 0
    for frames in range(2000, 2260, 2):
        edges.clear()
        run = (Scenario("synth", "synthnet", ("c0", "c1"), frames), platform,
               network)
        assert (simulate(*run, record_events=True)
                == heap_run(*run, record_events=True)), frames
        met += frames / 2 in edges
    assert met >= 2, met


@pytest.mark.parametrize("rates,frames", [
    # One rank 100 times faster than 39 others.
    ([100.0] + [1.0 + i / 100 for i in range(39)], 10 ** 5),
    # Ranks past 255 take two bytes each.
    ([1.0 + i / 1000 for i in range(300)], 2 * 10 ** 5),
], ids=["one_fast_among_40", "x300"])
def test_recorded_plain_run_of_many_ranks(monkeypatch, heap_run, rates,
                                          frames):
    run = (Scenario("synth", "synthnet",
                    tuple(f"c{i}" for i in range(len(rates))), frames),
           synthetic_platform([(r, 1.0) for r in rates]),
           synthetic_network(rates))
    calls, _ = recorded_paths(monkeypatch)
    result = simulate(*run, record_events=True)
    assert calls == [result.reorder_high_water]  # it took the sums
    assert result.events.ranks.itemsize == 1 + (len(rates) > 256)
    assert result == heap_run(*run, record_events=True)


def test_engaged_component_not_on_the_platform_rejected():
    scenario = Scenario("exynos5422", "alexnet", ("a15", "npu"), 10)
    with pytest.raises(UnknownComponent, match="npu"):
        simulate(scenario, EXYNOS, ALEXNET)


def test_derating_that_underflows_a_rate_is_refused():
    # 0.2 imgs/s * 5e-324 is 0.0 in floats.
    scenario = Scenario("exynos5422", "resnet50", ("a7", "t628"), 100,
                        contention={"a7": 5e-324})
    with pytest.raises(MalformedDocument,
                       match="effective rate: a7 must be finite and > 0"):
        simulate(scenario)


def test_overhead_that_overflows_the_makespan_is_refused():
    scenario = Scenario("kirin970", "alexnet", ("a53", "npu"), 10000,
                        dispatch_overhead_s=1e308)
    with pytest.raises(MalformedDocument,
                       match="makespan_s must be finite and > 0, got inf"):
        simulate(scenario, KIRIN, ALEXNET)


def test_overhead_that_overflows_the_energy_is_refused():
    scenario = Scenario("kirin970", "alexnet", ("npu",), 1,
                        dispatch_overhead_s=1.7e308)
    with pytest.raises(MalformedDocument,
                       match="energy_j must be finite and > 0, got inf"):
        simulate(scenario, KIRIN, ALEXNET)


@pytest.mark.parametrize("power,message", [
    (5e-324, "energy_j must be finite and > 0, got 0.0"),
    (1e-320, "energy_efficiency must be finite and > 0, got inf"),
])
def test_tiny_power_that_breaks_the_energy_is_refused(power, message):
    platform = synthetic_platform([(4.0, power)])
    network = synthetic_network([4.0])
    with pytest.raises(MalformedDocument, match=message):
        simulate(Scenario("synth", "synthnet", ("c0",), 1), platform, network)


def test_load_scenario_document(tmp_path):
    doc = {
        "platform": "exynos5422",
        "network": "alexnet",
        "components": ["a7", "a15", "t628"],
        "frames": 1000,
        "dispatch_overhead_s": 0.002,
        "contention": {"a7": 0.5},
        "jitter": {"seed": 7, "cv": 0.1},
    }
    path = tmp_path / "scenario.json"
    import json

    path.write_text(json.dumps(doc))
    scenario = load_scenario(path)
    assert scenario.engaged == ("a7", "a15", "t628")
    assert scenario.frame_count == 1000
    assert scenario.dispatch_overhead_s == 0.002
    assert scenario.contention == {"a7": 0.5}
    assert scenario.jitter_seed == 7 and scenario.jitter_cv == 0.1
    with pytest.raises(MalformedDocument):
        load_scenario({"platform": "x"})


SCENARIO_DOC = {"platform": "exynos5422", "network": "alexnet",
                "components": ["a7", "t628"], "frames": 120}


@pytest.mark.parametrize("change,message", [
    ({"frames": 2.7}, "scenario: frames must be an integer >= 1, got 2.7"),
    ({"frames": True}, "scenario: frames must be an integer >= 1, got True"),
    ({"components": "a7"},
     "scenario: components must be a non-empty list of non-empty strings, "
     "got 'a7'"),
    ({"contention": [1]}, "scenario: contention must be an object, got [1]"),
    ({"contention": {"a7": "0.5"}},
     "scenario contention: a7 must be in (0, 1], got '0.5'"),
    ({"dispatch_overhead_s": "0.002"},
     "scenario: dispatch_overhead_s must be finite and >= 0, got '0.002'"),
    ({"jitter": {"seed": [1], "cv": 0.1}},
     "scenario jitter: seed must be an integer >= 0, got [1]"),
    ({"jitter": {"cv": 0.1, "sd": 2}},
     "scenario: jitter key must be one of seed, cv, got 'sd'"),
    ({"bogus": 1},
     "scenario key must be one of platform, network, components, frames, "
     "dispatch_overhead_s, contention, jitter, got 'bogus'"),
    ({"host_contention_default": 0.5},
     "scenario key must be one of platform, network, components, frames, "
     "dispatch_overhead_s, contention, jitter, got 'host_contention_default'"),
])
def test_load_scenario_refuses_what_it_would_misread(change, message):
    for doc in ({**SCENARIO_DOC, **change},
                {"scenario": {**SCENARIO_DOC, **change}}):
        with pytest.raises(MalformedDocument) as exc:
            load_scenario(doc)
        assert str(exc.value) == message


def test_scenario_document_numbers_are_stored_as_floats():
    scenario = load_scenario({**SCENARIO_DOC, "dispatch_overhead_s": 0,
                              "contention": {"a7": 1}})
    assert type(scenario.dispatch_overhead_s) is float
    assert type(scenario.contention["a7"]) is float
    with pytest.raises(MalformedDocument, match="got 'x'"):
        load_scenario({"scenario": SCENARIO_DOC, "x": 1})


def test_scenario_contention_is_a_read_only_copy():
    factors = {"a7": 0.5}
    scenario = Scenario("exynos5422", "alexnet", ("a7", "t628"), 10,
                        contention=factors)
    factors["a7"] = 0.1
    assert scenario.contention == {"a7": 0.5}
    with pytest.raises(TypeError):
        scenario.contention["a7"] = 0.1


# -- reorder buffer -------------------------------------------------------------

def test_reorder_buffer_releases_in_sequence():
    buffer = ReorderBuffer()
    assert buffer.push(1) == []
    assert buffer.push(2) == []
    assert buffer.high_water == 2
    assert buffer.push(0) == [0, 1, 2]
    assert buffer.high_water == 3
    assert buffer.push(3) == [3]
    assert buffer.next_expected == 4


def test_reorder_buffer_rejects_duplicates():
    buffer = ReorderBuffer()
    buffer.push(0)
    with pytest.raises(MalformedDocument):
        buffer.push(0)


def test_simulate_releases_in_sequence_behind_slow_head():
    # c0 serves a frame in 2.5 s and c1 in 0.25 s (rates 0.4 and 4, ratio
    # 10); both are binary fractions, so every completion time is exact.
    # c0 claims frame 0 at t = 0 and c1 completes frames 1..9 at 0.25k,
    # all held. At t = 2.5 c0's frame 0 ties with c1's frame 10; c0 has
    # the lower rank and pops first, so occupancy is 9 held + the arriving
    # head = 10 and frames 0..9 are released together. Frame 10 then
    # passes straight through. Each later 2.5 s round repeats this, and
    # the last rounds hold fewer, so high water = 10.
    platform = synthetic_platform([(0.4, 1.0), (4.0, 1.0)])
    network = synthetic_network([0.4, 4.0])
    result = simulate(Scenario("synth", "synthnet", ("c0", "c1"), 40),
                      platform, network, record_events=True)
    releases = [e for e in result.events if e.kind == "release"]
    assert [e.frame for e in releases] == list(range(40))
    head_done = next(e for e in result.events
                     if e.kind == "complete" and e.frame == 0)
    assert (head_done.time, head_done.component_id) == (2.5, "c0")
    assert releases[0].time == head_done.time
    burst = [(e.component_id, e.frame) for e in releases
             if e.time == head_done.time]
    assert burst == [("c0", frame) for frame in range(10)] + [("c1", 10)]
    assert result.reorder_high_water == 10


# -- energy ----------------------------------------------------------------------

def test_energy_simple_arithmetic():
    # 40 frames of 0.25 s each: 10 s busy at 2 W
    result = simulate(Scenario("synth", "synthnet", ("c0",), 40),
                      synthetic_platform([(4.0, 2.0)]), synthetic_network([4.0]))
    assert result.busy_time_s == {"c0": 10.0}
    assert result.energy_per_component_j == {"c0": 20.0}
    assert result.energy_j == 20.0
    assert result.energy_efficiency == 2.0


def test_equal_components_match_single_efficiency():
    platform = synthetic_platform([(5.0, 2.0), (5.0, 2.0)])
    network = synthetic_network([5.0, 5.0])
    pair = simulate(Scenario("synth", "synthnet", ("c0", "c1"), 100),
                    platform, network)
    solo = simulate(Scenario("synth", "synthnet", ("c0",), 100),
                    platform, network)
    assert pair.energy_efficiency == pytest.approx(solo.energy_efficiency,
                                                   rel=1e-9)


def test_coexec_efficiency_between_component_extremes():
    scenario = Scenario("exynos5422", "alexnet", ("a7", "a15", "t628"), 5000)
    result = simulate(scenario, EXYNOS, ALEXNET)
    effs = {
        cid: ALEXNET.rate(cid) / EXYNOS.component(cid).active_power_w
        for cid in scenario.engaged
    }
    assert min(effs.values()) < result.energy_efficiency < max(effs.values())


def test_busy_time_includes_overhead():
    scenario = Scenario("exynos5422", "alexnet", ("a15",), 100,
                        dispatch_overhead_s=0.01)
    result = simulate(scenario, EXYNOS, ALEXNET)
    assert result.busy_time_s["a15"] == pytest.approx(100 * (1 / 3.1 + 0.01))
    assert result.energy_j == pytest.approx(4.5 * result.busy_time_s["a15"])


# -- gain --------------------------------------------------------------------------

def gain_pct(scenario):
    """Throughput gain in percent over the best engaged measured rate."""
    best = max(ALEXNET.rate(cid) for cid in scenario.engaged)
    throughput = simulate(scenario, EXYNOS, ALEXNET).throughput
    return 100.0 * (throughput - best) / best


def test_gain_single_component_is_zero():
    scenario = Scenario("exynos5422", "alexnet", ("t628",), 2000)
    assert gain_pct(scenario) == pytest.approx(0.0, abs=1e-9)


def test_gain_formula_zero_overhead():
    scenario = Scenario("exynos5422", "alexnet", ("a7", "a15", "t628"), 10000)
    gain = gain_pct(scenario)
    # zero overhead: (12.0 - 7.8) / 7.8, give or take the stream tail
    assert gain == pytest.approx(100 * (12.0 - 7.8) / 7.8, abs=0.2)


def test_concurrent_runs_match_serial():
    from concurrent.futures import ThreadPoolExecutor

    scenarios = [
        Scenario("exynos5422", "alexnet", engaged, 2000,
                 dispatch_overhead_s=overhead)
        for engaged in (("a7",), ("a7", "a15"), ("a7", "a15", "t628"),
                        ("a15", "t628"))
        for overhead in (0.0, 0.005)
    ]
    serial = [simulate(s, EXYNOS, ALEXNET) for s in scenarios]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda s: simulate(s, EXYNOS, ALEXNET),
                                 scenarios))
    for a, b in zip(serial, threaded):
        assert a.makespan_s == b.makespan_s
        assert a.frames_per_component == b.frames_per_component
        assert a.energy_j == b.energy_j
