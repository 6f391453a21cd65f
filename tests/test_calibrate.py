import json
import math
import random
import sys
import tracemalloc
from dataclasses import fields, replace
from itertools import combinations
from pathlib import Path

import pytest

from socperf import (InfeasibleTarget, MalformedDocument, Scenario,
                     builtin_dataset, effective_rates, network_by_id,
                     observations_for_table, platform_by_id, simulate)
from socperf.calibrate import CalibrationResult, calibrate
from socperf.cli import _observed
from test_sim import synthetic_network, synthetic_platform

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
    # The closed form at 0.25 s overhead is 2.55 imgs/s here; the bisection
    # doubles past it, so a lower target is fitted, not refused.
    fit = calibrate(EXYNOS, network_by_id("resnet50"), {"throughput": 2.32},
                    ("a7", "a15", "t628"))
    assert fit.scenario.dispatch_overhead_s > 0.25
    assert abs(fit.residual_throughput_rel) < 0.02
    assert off_the_crossing(fit, EXYNOS, network_by_id("resnet50"), 2.32) is None


def test_throughput_only_target_below_the_closed_form_at_the_cap_fits():
    # The end-of-stream tail puts the simulated throughput at the cap 17%
    # below the closed form's at 10 frames; a target between the two is
    # reached below the cap, since the fit is the simulation.
    rates = effective_rates(Scenario(EXYNOS.id, ALEXNET.id, ("a7", "a15", "t628"),
                                     10), EXYNOS, ALEXNET)
    cap = [CALIBRATE._OVERHEAD_CAP, 1.0, 1.0, 1.0]
    assert (throughput_at(rates, 10)(cap[0]) < 0.0026218
            < sum(CALIBRATE._closed_form(rates, cap)))
    fit = calibrate(EXYNOS, ALEXNET, {"throughput": 0.0026218},
                    ("a7", "a15", "t628"), frames=10)
    assert fit.scenario.dispatch_overhead_s == pytest.approx(953.4, abs=0.1)
    assert off_the_crossing(fit, EXYNOS, ALEXNET, 0.0026218) is None


def test_throughput_only_target_below_the_simulation_at_the_cap_is_refused():
    rates = effective_rates(Scenario(EXYNOS.id, ALEXNET.id, ("a7", "a15", "t628"),
                                     10), EXYNOS, ALEXNET)
    at_cap = throughput_at(rates, 10)(CALIBRATE._OVERHEAD_CAP)
    fit = calibrate(EXYNOS, ALEXNET, {"throughput": at_cap},
                    ("a7", "a15", "t628"), frames=10)
    assert off_the_crossing(fit, EXYNOS, ALEXNET, at_cap) is None
    target = math.nextafter(at_cap, 0.0)
    with pytest.raises(InfeasibleTarget) as exc:
        calibrate(EXYNOS, ALEXNET, {"throughput": target},
                  ("a7", "a15", "t628"), frames=10)
    assert str(exc.value) == (
        f"target {target} imgs/s is below the 0.002384 imgs/s that 'alexnet' "
        "on 'exynos5422' ('a7', 'a15', 't628') reaches at the 1048.58 s "
        "overhead cap; measurements and model disagree")


@pytest.mark.parametrize("rates", [(1e-305, 1e-305), (1e-305, 3e-306),
                                   (3e-306, 1e-305), (3e-306, 3e-306)],
                         ids=repr)
def test_fits_of_rates_near_the_float_range_complete(rates):
    # The time unit here is 2**1008 s, so the run at the overhead cap of
    # about 2.9e306 s passes the float range from 120 frames on; a fit
    # that does not double its overhead up to the cap never simulates it.
    # At 3e-306 imgs/s a composition fit is refused, as the factor floor
    # leaves a component no finite service time.
    platform = synthetic_platform([(1.0, 1.0)] * 2)
    network = synthetic_network(rates)
    for frames in (60, 100, 120, 150, 200, 400, 1000):
        if rates == (3e-306, 3e-306) and frames == 1000:
            continue  # its run at overhead 0 passes the float range
        target = 0.9 * sum(rates)
        fit = calibrate(platform, network, {"throughput": target},
                        ("c0", "c1"), frames=frames)
        assert off_the_crossing(fit, platform, network, target) is None
        if rates == (1e-305, 1e-305):
            fit = calibrate(platform, network, {"throughput": target,
                                                "composition": {"c0": 0.5}},
                            ("c0", "c1"), frames=frames)
            assert fit.objective < 1e-12


@pytest.mark.parametrize("rates", [(a, b) for a in (1e-305, 3e-306, 1e-300)
                                   for b in (1e-305, 3e-306, 1e-300)], ids=repr)
def test_targets_below_the_cap_floor_near_the_float_range_fit_or_are_refused(
        rates):
    # Below the closed form at the cap, at its factor floor, a composition
    # target is refused; a throughput-only one fits where the simulation
    # reaches it, or is refused on one line, as below the simulation at
    # the cap or as a run whose makespan passes the float range.
    platform = synthetic_platform([(1.0, 1.0)] * 2)
    network = synthetic_network(rates)
    named = dict(zip(("c0", "c1"), rates))
    cap = CALIBRATE._OVERHEAD_CAP * CALIBRATE._unit(named)
    for frames in (10, 200, 10 ** 4):
        for scale in (0.999, 0.9, 0.5, 1e-3):
            for factor, target in ((1.0, {}), (1e-3, {"composition": {"c0": 0.5}})):
                target["throughput"] = scale * sum(CALIBRATE._closed_form(
                    named, [cap, factor, factor]))
                try:
                    calibrate(platform, network, target, ("c0", "c1"),
                              frames=frames)
                    assert "composition" not in target
                except (InfeasibleTarget, MalformedDocument) as exc:
                    assert "\n" not in str(exc)


@pytest.mark.parametrize("rate, frames, scale, overhead", [
    (3e-306, 200, None, "2.87631e+306"),  # at the cap of the doubling
    (1e-305, 10 ** 4, 0.5, "0"),
], ids=repr)
def test_a_throughput_only_run_past_the_float_range_refuses_the_target(
        rate, frames, scale, overhead):
    # A target that is not met before the fit's run passes the float range,
    # in the doubling or at overhead 0, is refused on one line that names
    # it and the engagement, as a target below the run at the cap is.
    platform = synthetic_platform([(1.0, 1.0)] * 2)
    network = synthetic_network([rate] * 2)
    named = {"c0": rate, "c1": rate}
    cap = CALIBRATE._OVERHEAD_CAP * CALIBRATE._unit(named)
    target = (0.1 * 2 * rate if scale is None else
              scale * sum(CALIBRATE._closed_form(named, [cap, 1.0, 1.0])))
    with pytest.raises(InfeasibleTarget) as exc:
        calibrate(platform, network, {"throughput": target}, ("c0", "c1"),
                  frames=frames)
    assert str(exc.value) == (
        f"target {target} imgs/s is not reached before the run of 'synthnet' "
        f"on 'synth' ('c0', 'c1') passes the float range at the {overhead} s "
        "overhead; measurements and model disagree")


def throughput_at(rates, frames):
    """The simulated throughput of a throughput-only fit's candidate, as a
    function of its overhead: every factor is 1.0."""
    return lambda h: CALIBRATE._simulated(rates, [h] + [1.0] * len(rates),
                                          frames)[0]


def off_the_crossing(fit, platform, network, target):
    """None if the throughput-only fit ends on one of the two adjacent
    overheads where the simulated throughput falls from above target to at
    most target, scoring no worse than the other (the lower on a tie), or
    on overhead 0 if that already gives at most target; else what is off."""
    scenario = fit.scenario
    throughput = throughput_at(effective_rates(scenario, platform, network),
                               scenario.frame_count)

    def score(h):
        return CALIBRATE._objective(throughput(h), (), target, [])
    h = scenario.dispatch_overhead_s
    if fit.objective != score(h):
        return "objective", fit.objective, score(h)
    if h == 0.0 and throughput(h) <= target:
        return None
    if throughput(h) > target:  # the lower end
        lo, hi = h, math.nextafter(h, math.inf)
        ok = throughput(hi) <= target and score(lo) <= score(hi)
    else:
        lo, hi = math.nextafter(h, 0.0), h
        ok = throughput(lo) > target and score(hi) < score(lo)
    return None if ok else (scenario, throughput(lo), throughput(hi), target)


def table2_engagements():
    """(observation, platform, network, rates) of each table-2 fit, the
    rates at factor 1.0, as a throughput-only fit scores them."""
    for obs in observations_for_table(2):
        platform = platform_by_id(obs.platform_id)
        network = network_by_id(obs.network_id)
        yield obs, platform, network, effective_rates(
            Scenario(platform.id, network.id, obs.engaged, 1), platform, network)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, "table2"])
def test_simulated_throughput_never_rises_with_the_overhead(k):
    # Families: equal, few-valued and seeded rates on k components at N
    # below k, at 2k^2 and above; the ten table-2 engagements at N = 10^4.
    # Each is scored at seeded overheads in order and along a run of
    # adjacent floats.
    rng = random.Random(repr(k))
    if k == "table2":
        families = [(rates, 10000) for *_, rates in table2_engagements()]
    else:
        families = []
        for rates in ([2.0] * k, [rng.choice((1.0, 3.0, 7.5)) for _ in range(k)],
                      *([rng.uniform(0.3, 60.0) for _ in range(k)]
                        for _ in range(3))):
            for frames in (max(1, k - 1), 2 * k * k,
                           2 * k * k + rng.randint(1, 300), 2000):
                families.append(({f"c{i}": rate for i, rate in enumerate(rates)},
                                 frames))
    rises = []
    for rates, frames in families:
        throughput = throughput_at(rates, frames)
        start = rng.uniform(0.0, 0.05)
        adjacent = [start]
        for _ in range(200):
            adjacent.append(math.nextafter(adjacent[-1], math.inf))
        for overheads in ([0.0] + sorted(rng.uniform(0.0, 0.5)
                                         for _ in range(200)), adjacent):
            got = list(map(throughput, overheads))
            rises += [(rates, frames, h) for h, before, after
                      in zip(overheads[1:], got, got[1:]) if after > before]
    assert rises == []


@pytest.mark.parametrize("scale", [0.8, 0.9, 1.0])
def test_table2_fits_end_where_the_simulated_throughput_crosses_the_target(
        scale):
    off = []
    for obs, platform, network, _ in table2_engagements():
        target = obs.coexec_imgs_s * scale
        fit = calibrate(platform, network, {"throughput": target}, obs.engaged)
        off.append(off_the_crossing(fit, platform, network, target))
    assert off == [None] * 10


def test_throughput_only_corpus_fits_end_where_the_throughput_crosses():
    off = [off_the_crossing(
               calibrate(platform, network, target, engaged,
                         frames=CORPUS_FRAMES),
               platform, network, target["throughput"])
           for _, platform, network, engaged, target in corpus_cases()
           if "composition" not in target]
    assert len(off) == 408
    assert [o for o in off if o is not None] == []


def test_a_tie_between_the_two_ends_keeps_the_lower_overhead():
    # A target midway between the throughputs at two adjacent overheads
    # scores the same at both; seeded overheads give such ties.
    ties = 0
    for obs, platform, network, rates in table2_engagements():
        throughput = throughput_at(rates, 200)
        rng = random.Random(obs.network_id)
        for _ in range(100):
            lo = rng.uniform(0.001, 0.05)
            high, low = throughput(lo), throughput(math.nextafter(lo, 1.0))
            target = 0.5 * (high + low)
            if low < target < high and high - target == target - low:
                fit = calibrate(platform, network, {"throughput": target},
                                obs.engaged, frames=200)
                assert fit.scenario.dispatch_overhead_s == lo
                ties += 1
                break
    assert ties >= 5


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
    # The fit refuses its target; the run refuses its makespan.
    platform = synthetic_platform([(1.0, 1.0)] * 2)
    network = synthetic_network([1.1e-306, 3.1e-306])
    with pytest.raises(InfeasibleTarget) as exc:
        calibrate(platform, network, {"throughput": 1e-306}, ("c0", "c1"))
    assert str(exc.value) == (
        "target 1e-306 imgs/s is not reached before the run of 'synthnet' on "
        "'synth' ('c0', 'c1') passes the float range at the 0 s overhead; "
        "measurements and model disagree")
    with pytest.raises(MalformedDocument) as exc:
        simulate(Scenario(platform.id, network.id, ("c0", "c1"), 10000),
                 platform, network)
    assert str(exc.value) == (
        "scenario result: makespan_s must be finite and > 0, got inf")


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


@pytest.mark.parametrize("table,total_sims", [(2, 20), (3, 4)])
def test_calibration_simulates_at_most_twice_per_fit(monkeypatch, heap_run,
                                                     table, total_sims):
    # The acceptance fits of criteria 3 and 4 use these same targets. A
    # throughput-only fit (table 2) simulates at overhead 0 and where its
    # bisection ends; a composition fit (table 3) only where its polish
    # ends.
    fits = [(obs, 1.0, 10000) for obs in observations_for_table(table)]
    sims, _ = record_fits(monkeypatch, heap_run, fits)
    assert max(sims) <= 2
    assert sum(sims) == total_sims
    if table == 3:
        assert sims == [1] * len(fits)


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


def test_search_clamps_a_candidate_onto_its_bound():
    # Each coordinate scores lowest past a bound, so the search ends on it.
    def score(x):
        return abs(x[0] + 1.0) + abs(x[1] - 2.0) + abs(x[2] + 5.0)
    _, x = CALIBRATE._search(score, [0.05, 0.5, 0.5], [0, 1, 2],
                             [0.1, 0.2, 0.2], 0.25)
    assert x == [0.0, 1.0, CALIBRATE._MIN_FACTOR]
    assert CALIBRATE._search(lambda x: -x[0], [0.1], [0], [0.1], 0.25) == (
        -0.25, [0.25])


def test_search_keeps_the_first_of_equal_scores():
    # Candidates come in the order current, -3..-1 and 1..3 steps.
    def tie(*values):
        return lambda x: 0.0 if x[0] in values else 1.0
    assert CALIBRATE._search(tie(0.5, 0.625), [0.5], [0], [0.125], 1.0,
                             rounds=1) == (0.0, [0.5])
    assert CALIBRATE._search(tie(0.25, 0.75), [0.5], [0], [0.125], 1.0,
                             rounds=1) == (0.0, [0.25])


@pytest.mark.parametrize("seed", range(20))
def test_search_never_scores_above_its_start(seed):
    def score(x):  # jagged: a draw seeded by the point
        return random.Random(repr(x)).random()
    rng = random.Random(seed)
    start = [rng.uniform(0.0, 0.3), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)]
    got, x = CALIBRATE._search(score, start, [0, 2], [0.05, 0.1], 0.25)
    assert got == score(x) <= score(start)
    assert x[1] == start[1]  # not a searched coordinate


@pytest.mark.parametrize("rounds", [1, 3, 7])
def test_search_scores_the_start_once_and_each_candidate_off_it(rounds):
    # Off the bounds every round scores 6 candidates per coordinate; at
    # the overhead's floor and a factor's ceiling, 3 of them clamp onto
    # the current value and are not scored.
    calls = []

    def counted(score):
        return lambda x: calls.append(x) or score(x)
    CALIBRATE._search(counted(lambda x: (x[0] - 0.1) ** 2 + (x[1] - 0.5) ** 2),
                      [0.1, 0.5], [0, 1], [0.01, 0.01], 1.0, rounds)
    assert len(calls) == 1 + rounds * 6 * 2
    calls.clear()
    CALIBRATE._search(counted(lambda x: x[0] - x[1]), [0.0, 1.0], [0, 1],
                      [0.01, 0.01], 1.0, rounds)
    assert len(calls) == 1 + rounds * (6 * 2 - 3 - 3)


# The fit recovery corpus. Each objective in CORPUS was recorded by
# corpus_objectives() before any later change to the fit; a change that
# lowers one may record it again with record_corpus(), and none may raise
# one.
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


def record_corpus() -> tuple[int, int]:
    """Rewrite CORPUS with the lower of each recorded objective and the
    one the fit reaches now, so no entry can rise; return how many went
    down and how many fits score above their record."""
    recorded = json.loads(CORPUS.read_text())
    objectives = corpus_objectives()
    assert objectives.keys() == recorded.keys()
    CORPUS.write_text(json.dumps(
        {case: min(old, objectives[case]) for case, old in recorded.items()},
        indent=1) + "\n")
    return (sum(objectives[case] < old for case, old in recorded.items()),
            sum(objectives[case] > old for case, old in recorded.items()))


if __name__ == "__main__":  # PYTHONPATH=src python3 tests/test_calibrate.py
    print("%d corpus objectives went down, %d fits score above their record"
          % record_corpus())
