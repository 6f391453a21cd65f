import json
import random
import sys
import tracemalloc
from dataclasses import fields, replace
from itertools import combinations
from pathlib import Path

import pytest

from socperf import (InfeasibleTarget, MalformedDocument, Scenario,
                     builtin_dataset, network_by_id, observations_for_table,
                     platform_by_id, simulate)
from socperf.calibrate import CalibrationResult, calibrate
from socperf.cli import _observed
from test_sim import heap_run, synthetic_network, synthetic_platform  # noqa: F401

# The module, not the function that the package re-exports under its name.
CALIBRATE = sys.modules["socperf.calibrate"]

EXYNOS = platform_by_id("exynos5422")
KIRIN = platform_by_id("kirin970")
ALEXNET = network_by_id("alexnet")


def test_fit_throughput_only_exynos_alexnet():
    fit = calibrate(EXYNOS, ALEXNET, {"throughput": 10.3},
                    ("a7", "a15", "t628"))
    assert fit.scenario.dispatch_overhead_s > 0
    assert abs(fit.residual_throughput_rel) < 0.02
    assert fit.result.throughput == pytest.approx(10.3, rel=0.02)
    assert fit.scenario.contention == {"a15": 1.0, "a7": 1.0}
    assert fit.residual_composition is None


def test_target_at_rate_sum_needs_no_overhead():
    fit = calibrate(EXYNOS, ALEXNET, {"throughput": 12.0},
                    ("a7", "a15", "t628"))
    assert fit.scenario.dispatch_overhead_s == 0.0
    assert all(f == 1.0 for f in fit.scenario.contention.values())


def test_target_above_bound_is_infeasible():
    with pytest.raises(InfeasibleTarget):
        calibrate(EXYNOS, ALEXNET, {"throughput": 20.0}, ("a7", "a15", "t628"))


@pytest.mark.parametrize("rates,target,bound", [
    ((1.0, 1000.0), 500.0, "200"),
    ((1e-300, 1.0), 0.5, "2e-298"),
])
def test_target_above_what_the_first_claims_allow_is_infeasible(rates, target,
                                                                 bound):
    # c0 claims frame 0 at time 0 and holds it for 1/rate of c0, so 200
    # frames run at no more than 200 times that rate.
    platform = synthetic_platform([(rate, 1.0) for rate in rates])
    with pytest.raises(InfeasibleTarget) as exc:
        calibrate(platform, synthetic_network(rates), {"throughput": target},
                  ("c0", "c1"), frames=200)
    assert str(exc.value).startswith(
        f"target {target} imgs/s exceeds the zero-overhead bound {bound} ")


def test_an_infeasible_target_shows_a_long_id_by_its_head_and_length():
    network = replace(ALEXNET, id="x" * 10**6)
    with pytest.raises(InfeasibleTarget) as exc:
        calibrate(EXYNOS, network, {"throughput": 20.0}, ("a7", "a15", "t628"))
    message = str(exc.value)
    assert len(message) < 300 and "zero-overhead bound" in message
    assert "x" * 59 + "... (1000002 characters)" in message


def test_seed_factor_of_a_rate_that_underflows_the_target_is_finite():
    # One frame goes to c0 alone; the seed of c1's factor divides by
    # 1e-300 * (1 / 1e200), which underflows to 0.
    platform = synthetic_platform([(1.0, 1.0), (1.0, 1.0)])
    fit = calibrate(platform, synthetic_network((1e200, 1e-300)),
                    {"throughput": 1e200, "composition": {"c1": 1.0}},
                    ("c0", "c1"), frames=1)
    assert fit.result.frames_per_component == {"c0": 1, "c1": 0}
    assert fit.objective == pytest.approx(1.0 / CALIBRATE.COMPOSITION_SCALE)


def test_rate_without_a_finite_service_time_is_refused():
    # 1/1e-320 overflows, and so does 1/(1e-306 * 1e-3) at the factor
    # floor that a composition target lets the search reach.
    platform = synthetic_platform([(1.0, 1.0), (1.0, 1.0)])
    for rate, target in ((1e-320, {"throughput": 1e-320}),
                         (1e-306, {"throughput": 1e-306,
                                   "composition": {"c0": 0.5}})):
        with pytest.raises(MalformedDocument, match=(
                "^calibrate slowest service time: c0 must be finite and > 0, "
                "got inf$")):
            calibrate(platform, synthetic_network((rate, rate)), target,
                      ("c0", "c1"), frames=10)


def test_equal_rates_near_1e200_fit_their_target():
    # Absolute steps of 1e-3 s and 2e-4 s once left this fit at objective
    # 50, far coarser than its 1e-200 s service times.
    platform = synthetic_platform([(1.0, 1.0), (1.0, 1.0)])
    fit = calibrate(platform, synthetic_network((1e200, 1e200)),
                    {"throughput": 1e200}, ("c0", "c1"), frames=200)
    assert fit.objective < 1e-6
    assert fit.result.throughput == pytest.approx(1e200, rel=1e-6)


def test_rates_that_sum_past_the_float_range_are_refused():
    # 1e308 + 1e308 is inf, which once left this fit at objective 50; the
    # 8e307 pair sums to 1.6e308 and still fits.
    platform = synthetic_platform([(1.0, 1.0), (1.0, 1.0)])
    with pytest.raises(MalformedDocument, match=(
            "^calibrate: rate sum must be finite and > 0, got inf$")):
        calibrate(platform, synthetic_network((1e308, 1e308)),
                  {"throughput": 1e308}, ("c0", "c1"), frames=200)
    fit = calibrate(platform, synthetic_network((8e307, 8e307)),
                    {"throughput": 8e307}, ("c0", "c1"), frames=200)
    assert fit.objective < 1e-6
    assert fit.result.throughput == pytest.approx(8e307, rel=1e-6)


@pytest.mark.parametrize("j", [-40, -3, 1, 40])
def test_fit_is_covariant_under_a_power_of_two_time_scale(monkeypatch, j):
    # Rates and target times 2**(16*j) fit the overhead times 2**(-16*j),
    # with the same factors, simulations and residuals, bit for bit.
    sims = []
    monkeypatch.setattr(CALIBRATE, "simulate", lambda *args: sims.append(
        args[0]) or simulate(*args))
    scale = 2.0 ** (16 * j)
    rng = random.Random(11)
    for board in range(4):
        rates = [rng.uniform(0.5, 40.0) for _ in range(rng.randint(2, 3))]
        ids = tuple(f"c{i}" for i in range(len(rates)))
        platform = synthetic_platform([(rate, 1.0) for rate in rates])
        target = {"throughput": rng.uniform(0.5, 0.95) * sum(rates)}
        if board % 2:
            target["composition"] = {"c0": rng.uniform(0.05, 0.3)}
        fits = []
        for factor in (1.0, scale):
            del sims[:]
            fit = calibrate(
                platform, synthetic_network([r * factor for r in rates]),
                {**target, "throughput": target["throughput"] * factor}, ids,
                frames=500)
            fits.append((fit, len(sims)))
        (base, base_sims), (scaled, scaled_sims) = fits
        assert scaled_sims == base_sims
        assert (scaled.scenario.dispatch_overhead_s
                == base.scenario.dispatch_overhead_s / scale)
        assert scaled.scenario.contention == base.scenario.contention
        assert scaled.objective == base.objective
        assert scaled.residual_throughput_rel == base.residual_throughput_rel
        assert scaled.residual_composition == base.residual_composition
        assert scaled.result.composition == base.result.composition
        assert scaled.result.throughput == base.result.throughput * scale


def test_fit_with_composition_targets():
    observed = {
        "throughput": 63.7,
        "composition": {"a73": 0.0190, "a53": 0.0095, "g72": 0.4747,
                        "npu": 0.4968},
    }
    fit = calibrate(KIRIN, ALEXNET, observed, ("a53", "a73", "g72", "npu"))
    assert fit.result.throughput == pytest.approx(63.7, rel=0.02)
    assert fit.result.composition["g72"] == pytest.approx(0.4747, abs=0.03)
    assert fit.result.composition["npu"] == pytest.approx(0.4968, abs=0.03)
    # only CPU clusters get fitted availability factors
    assert set(fit.scenario.contention) == {"a53", "a73"}
    assert all(0 < f <= 1 for f in fit.scenario.contention.values())
    assert fit.residual_composition is not None


def test_calibration_deterministic():
    observed = {"throughput": 10.3}
    a = calibrate(EXYNOS, ALEXNET, observed, ("a7", "a15", "t628"))
    b = calibrate(EXYNOS, ALEXNET, observed, ("a7", "a15", "t628"))
    assert a.scenario.dispatch_overhead_s == b.scenario.dispatch_overhead_s
    assert a.scenario.contention == b.scenario.contention
    assert a.result.throughput == b.result.throughput


def test_calibration_result_scenario_round_trip():
    fit = calibrate(EXYNOS, ALEXNET, {"throughput": 10.3},
                    ("a7", "a15", "t628"))
    assert fit.result.scenario is fit.scenario
    assert simulate(fit.scenario, EXYNOS, ALEXNET) == fit.result
    scenario = replace(fit.scenario, frame_count=2000)
    assert scenario.dispatch_overhead_s == fit.scenario.dispatch_overhead_s
    assert scenario.engaged == ("a7", "a15", "t628")
    assert [f.name for f in fields(CalibrationResult)] == [
        "scenario", "objective", "residual_throughput_rel",
        "residual_composition", "result"]


def test_target_below_overhead_cap_is_infeasible():
    with pytest.raises(InfeasibleTarget, match="1048.58 s overhead cap"):
        calibrate(KIRIN, ALEXNET, {"throughput": 1e-300}, ("a53", "npu"))


def test_target_needing_more_than_a_quarter_second_overhead_still_fits():
    # The closed form at 0.25 s overhead is 2.55 imgs/s here; the seed
    # reaches past it, so a lower target is fitted, not refused.
    fit = calibrate(EXYNOS, network_by_id("resnet50"), {"throughput": 2.32},
                    ("a7", "a15", "t628"))
    assert fit.scenario.dispatch_overhead_s > 0.25
    assert abs(fit.residual_throughput_rel) < 0.02


@pytest.mark.parametrize("observed,engaged,message", [
    ({}, ("a7", "t628"), "target throughput must be finite and > 0, got None"),
    (None, ("a7", "t628"), "target must be an object, got None"),
    ({"throughput": 10.3, "compositon": {"a7": 0.1}}, ("a7", "a15", "t628"),
     "target key must be one of throughput, composition, got 'compositon'"),
    ({"throughput": 3.0}, "a15", "calibrate: components must be a non-empty "
     "list of non-empty strings, got 'a15'"),
], ids=["empty_target", "no_target", "misspelt_key", "bare_string_engaged"])
def test_calibrate_refuses_malformed_input(observed, engaged, message):
    with pytest.raises(MalformedDocument) as exc:
        calibrate(EXYNOS, ALEXNET, observed, engaged)
    assert str(exc.value) == message


def test_fit_whose_run_overflows_the_float_range_is_refused():
    # At 1e-306 imgs/s, 10^4 frames take some 10^310 s: the running sums
    # pass the float range, as the jitter-free run of the same scenario does.
    platform = synthetic_platform([(1.0, 1.0)] * 2)
    network = synthetic_network([1.1e-306, 3.1e-306])
    message = "scenario result: makespan_s must be finite and > 0, got inf"
    with pytest.raises(MalformedDocument) as exc:
        calibrate(platform, network, {"throughput": 1e-306}, ("c0", "c1"))
    assert str(exc.value) == message
    with pytest.raises(MalformedDocument) as exc:
        simulate(Scenario(platform.id, network.id, ("c0", "c1"), 10000),
                 platform, network)
    assert str(exc.value) == message


def record_fits(monkeypatch, heap_run, fits):
    """Run calibrate on each (observation, target scale, frames) and return
    the number of simulate calls of each fit and, for every x that
    _simulated scored, its result and the jitter-free run of x. The run is
    heap_run's, so it comes from the event loop and not from the running
    sums that _simulated shares with a plain run."""
    sims, scored = [], []
    simulate, simulated = CALIBRATE.simulate, CALIBRATE._simulated

    def counting_simulate(*args, **kwargs):
        sims[-1] += 1
        return simulate(*args, **kwargs)

    def recording_simulated(rates, x, frames):
        got = simulated(rates, x, frames)
        # x = [overhead, factor of each component of rates, in its order]
        scored.append((got, dict(zip(rates, x[1:])), x[0], frames))
        return got

    monkeypatch.setattr(CALIBRATE, "simulate", counting_simulate)
    monkeypatch.setattr(CALIBRATE, "_simulated", recording_simulated)
    pairs = []
    for obs, scale, frames in fits:
        platform = platform_by_id(obs.platform_id)
        network = network_by_id(obs.network_id)
        observed = _observed(obs)
        observed["throughput"] *= scale
        sims.append(0)
        calibrate(platform, network, observed, obs.engaged, frames=frames)
        for got, factors, overhead, n in scored:
            pairs.append((got, heap_run(
                Scenario(platform.id, network.id, obs.engaged, n, overhead,
                         factors), platform, network)))
        scored.clear()
    return sims, pairs


@pytest.mark.parametrize("table,total_sims", [(2, 14), (3, 8)])
def test_calibration_simulates_at_most_twice_per_fit(monkeypatch, heap_run,
                                                     table, total_sims):
    # The acceptance fits of criteria 3 and 4 use these same targets. The
    # fit simulates where its polish starts and, if it moved, where it ends.
    fits = [(obs, 1.0, 10000) for obs in observations_for_table(table)]
    sims, _ = record_fits(monkeypatch, heap_run, fits)
    assert max(sims) <= 2
    assert sum(sims) == total_sims


@pytest.mark.parametrize("frames,scales,tables", [
    (10000, (1.0,), (2, 3)),
    (300, (0.8, 0.9, 1.0), (2, 3)),
    (20000, (0.9,), (3,)),
])
def test_simulated_equals_simulate_on_every_scored_candidate(
        monkeypatch, heap_run, frames, scales, tables):
    fits = [(obs, scale, frames) for table in tables
            for obs in observations_for_table(table) for scale in scales]
    _, pairs = record_fits(monkeypatch, heap_run, fits)
    assert pairs
    assert [(got, run.throughput, run.composition) for got, run in pairs
            if got != (run.throughput, run.composition)] == []


@pytest.mark.parametrize("rates", [
    (1.0, 1.0), (3.0, 3.0, 3.0, 3.0), (2.0, 1.0), (1.0, 2.0, 2.0, 1.0),
    (1.0, 2.0, 4.0), (1e-3, 40.0)], ids=repr)
def test_simulated_equals_simulate_on_ties_and_short_runs(heap_run, rates):
    # Equal and 2:1 rates complete frames at the same times, so ties pop in
    # id order; N <= k leaves components without a frame, and 1e-3 against
    # 40 leaves the slow one a single frame. heap_run's run is the loop's.
    k = len(rates)
    engaged = tuple(f"c{i}" for i in reversed(range(k)))
    platform = synthetic_platform([(1.0, 1.0)] * k)
    network = synthetic_network(rates)
    rates_by_id = {cid: network.rate(cid) for cid in engaged}
    rng = random.Random(k)
    for frames in (1, k - 1, k, k + 1, k + 2, 50, 1001):
        for overhead in (0.0, 1e-3, 0.25, rng.uniform(0.0, 0.1)):
            for factors in ((1.0,) * k, (0.5,) * k,
                            tuple(rng.uniform(0.01, 1.0) for _ in range(k))):
                x = [overhead, *factors]
                contention = dict(zip(engaged, factors))
                run = heap_run(Scenario(platform.id, network.id, engaged,
                                        frames, overhead, contention),
                               platform, network)
                assert CALIBRATE._simulated(rates_by_id, x, frames) == (
                    run.throughput, run.composition)


def test_simulated_keeps_no_per_frame_state():
    rates = {"a53": 4.0, "a73": 9.0, "g72": 30.0, "npu": 29.0}
    tracemalloc.start()
    try:
        CALIBRATE._simulated(rates, [1e-3, 1.0, 0.9, 1.0, 1.0], 10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


# The fit recovery corpus. Each objective in CORPUS was recorded by
# corpus_objectives() before any later change to the fit; a change that
# lowers one may record it again, and none may raise one.
CORPUS = Path(__file__).with_name("fit_corpus.json")
CORPUS_OVERHEADS = (0.0, 1e-3, 1e-2, 0.1, 0.3, 1.0)
CORPUS_FRAMES = 2000


def corpus_cases():
    """(case, platform, network, engaged, target) of every bundled
    engagement of two or more components at each overhead of
    CORPUS_OVERHEADS: a throughput target and, when a CPU cluster is
    engaged, a throughput and composition target at CPU factors drawn in
    [0.3, 1]. Each target is the jitter-free simulation of its case."""
    platforms, networks = builtin_dataset()
    for platform in platforms:
        for network in networks:
            ids = [c.id for c in platform.components if network.supports(c.id)]
            for engaged in (e for k in range(2, len(ids) + 1)
                            for e in combinations(ids, k)):
                cpus = [c for c in engaged if platform.component(c).is_cpu]
                for overhead in CORPUS_OVERHEADS:
                    case = (f"{platform.id}/{network.id}/{'+'.join(engaged)}"
                            f"/{overhead!r}")
                    rng = random.Random(case)
                    kinds = {"throughput": {}}
                    if cpus:
                        kinds["composition"] = {
                            cid: rng.uniform(0.3, 1.0) for cid in cpus}
                    for kind, contention in kinds.items():
                        run = simulate(Scenario(
                            platform.id, network.id, engaged, CORPUS_FRAMES,
                            overhead, contention), platform, network)
                        target = {"throughput": run.throughput}
                        if contention:
                            target["composition"] = dict(run.composition)
                        yield f"{case}/{kind}", platform, network, engaged, target


def corpus_objectives() -> dict[str, float]:
    return {case: calibrate(platform, network, target, engaged,
                            frames=CORPUS_FRAMES).objective
            for case, platform, network, engaged, target in corpus_cases()}


def test_no_corpus_fit_is_refused_or_scores_worse_than_recorded():
    recorded = json.loads(CORPUS.read_text())
    objectives = corpus_objectives()  # a refused fit raises here
    assert len(objectives) == 792
    assert objectives.keys() == recorded.keys()
    assert {case: (got, recorded[case]) for case, got in objectives.items()
            if not got <= recorded[case]} == {}
