"""Acceptance suite: one test (or test group) per acceptance criterion,
each printing a PASS/FAIL line with the measured numbers.

Two criteria check bounds derived from the greedy shared-queue model
(work-conserving claims of the lowest unclaimed frame, in-order release)
rather than targets the model disclaims:

* criterion 2: with zero overhead, rates r_i and S = sum r_i, every
  component is busy from t = 0 until the last claim at T, so it has made
  ceil(T * r_i) >= T * r_i claims before T and S * T <= N - 1; the frame
  claimed at T finishes within 1/r_min. Hence
  N/S <= makespan <= (N - 1)/S + 1/r_min, asserted for all 102 bundled
  engagements at N = 10,000. The relative throughput shortfall is then at
  most (S/r_min - 1)/(N - 1 + S/r_min): a slow CPU cluster claiming one of
  the last frames puts a few accelerator-heavy engagements outside a 0.1%
  band (worst 0.30%), which the report still prints.
* criterion 7, reorder high-water: occupancy is not bounded by the
  component count (the report still prints how often it exceeds it), but
  by the configuration. The recorded high water must equal a replay of
  the completion events, and on jitter-free runs it must not exceed
  min(N, max_j(1 + sum_{i != j} floor(s_j / s_i))) with s_i the service
  time: while the head frame runs on j, component i completes at most
  floor(s_j / s_i) of the later frames the buffer holds back.
"""

import itertools
import math
import random
import time

import pytest

from socperf import (
    LayerProfile,
    RooflineModel,
    Scenario,
    attach_trace,
    attainable,
    builtin_dataset,
    builtin_trace,
    classify,
    effective_rates,
    empirical_oi,
    load_network_profile,
    load_platform,
    network_by_id,
    platform_by_id,
    quantize_profile,
    simulate,
    theoretical_oi,
)
from socperf.calibrate import calibrate
from socperf.cli import main
from socperf.dataset import observations_for_table
from test_sim import greedy_oracle, jitter_draws, logged, oracle_events

PLATFORMS = {p.id: p for p in builtin_dataset()[0]}
NETWORKS = {n.id: n for n in builtin_dataset()[1]}


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    return ok


# -- criterion 1: dataset fidelity ---------------------------------------------

TABLE1_GOLDEN = {
    "alexnet":    ["1.1", "3.1", "7.8", "2.2", "7.6", "32.5", "32.5"],
    "googlenet":  ["0.9", "3.4", "5.2", "3", "7.1", "19.9", "34.4"],
    "mobilenet":  ["1.5", "5.7", "8.5", "6.5", "17.7", "29.1", "Not Supported"],
    "resnet50":   ["0.2", "1.3", "2.1", "1.5", "2.8", "8.4", "21.9"],
    "squeezenet": ["1.5", "5", "8", "6.8", "15.7", "43", "49.3"],
}


def test_criterion_1_dataset_fidelity(tmp_path):
    out = tmp_path / "table1.csv"
    start = time.monotonic()
    code = main(["tables", "--which", "1", "--out", str(out)])
    elapsed = time.monotonic() - start
    assert code == 0
    lines = out.read_text().strip().splitlines()
    cells_ok = 0
    mismatches = []
    for line in lines[1:]:
        parts = line.split(",")
        golden = TABLE1_GOLDEN[parts[0]]
        for got, want in zip(parts[1:], golden):
            if want == "Not Supported":
                match = got == want
            else:
                match = float(got) == float(want)
            if match:
                cells_ok += 1
            else:
                mismatches.append((parts[0], got, want))
    ok = cells_ok == 35 and not mismatches and elapsed < 1.0
    report(1, ok, f"{cells_ok}/35 cells exact, runtime {elapsed:.3f}s (< 1s)")
    assert not mismatches
    assert cells_ok == 35
    assert elapsed < 1.0


# -- criterion 2: closed-form rate-sum oracle ------------------------------------

def test_criterion_2_rate_sum_oracle():
    n = 10000
    start = time.monotonic()
    checked = 0
    failures = []
    within_band = 0
    worst = 0.0
    worst_tail = 0.0
    for platform in PLATFORMS.values():
        comp_ids = [c.id for c in platform.components]
        for network in NETWORKS.values():
            usable = [c for c in comp_ids if network.supports(c)]
            for r in range(1, len(usable) + 1):
                for engaged in itertools.combinations(usable, r):
                    scenario = Scenario(platform.id, network.id, engaged, n)
                    result = simulate(scenario, platform, network)
                    target = sum(
                        effective_rates(scenario, platform, network).values())
                    err = abs(result.throughput - target) / target
                    worst = max(worst, err)
                    within_band += err <= 0.001
                    checked += 1
                    lower = n / target
                    upper = (n - 1) / target + 1 / min(
                        network.rate(cid) for cid in engaged)
                    makespan = result.makespan_s
                    if r > 1:  # one component: the bracket is the point N/r
                        worst_tail = max(
                            worst_tail, (makespan - lower) / (upper - lower))
                    if not (lower * (1 - 1e-12) <= makespan
                            <= upper * (1 + 1e-9)):
                        failures.append(
                            f"{platform.id}/{network.id}/{'+'.join(engaged)}"
                            f" makespan={makespan!r} outside "
                            f"[{lower!r}, {upper!r}]")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 10.0
    report(2, ok,
           f"{checked - len(failures)}/{checked} engagements with makespan in "
           f"[N/S, (N-1)/S + 1/r_min] at N={n}, worst tail "
           f"{worst_tail:.10f} of its bound; {within_band}/{checked} within "
           f"0.1% of the rate sum, worst {worst * 100:.3f}%; "
           f"runtime {elapsed:.2f}s (< 10s)"
           + (f"; outside: {failures}" if failures else ""))
    assert elapsed < 10.0
    assert not failures, (
        "zero-overhead greedy makespan must lie in [N/S, (N-1)/S + 1/r_min] "
        f"(S = engaged rate sum, r_min = slowest engaged rate): {failures}")


# -- criteria 3 and 4: co-execution reproduction ----------------------------------

@pytest.fixture(scope="module")
def table2_fits():
    fits = []
    for obs in observations_for_table(2):
        platform = PLATFORMS[obs.platform_id]
        network = NETWORKS[obs.network_id]
        fits.append((obs, calibrate(platform, network,
                                    {"throughput": obs.coexec_imgs_s},
                                    obs.engaged)))
    return fits


@pytest.fixture(scope="module")
def table3_fits():
    fits = []
    for obs in observations_for_table(3):
        platform = PLATFORMS[obs.platform_id]
        network = NETWORKS[obs.network_id]
        observed = {
            "throughput": obs.coexec_imgs_s,
            "composition": {k: v / 100 for k, v in obs.composition_pct.items()},
        }
        fits.append((obs, calibrate(platform, network, observed, obs.engaged)))
    return fits


def test_criterion_3_cpu_gpu_coexec_reproduction(table2_fits):
    bad = []
    details = []
    for obs, fit in table2_fits:
        thr_err = abs(fit.result.throughput - obs.coexec_imgs_s) / obs.coexec_imgs_s
        best = NETWORKS[obs.network_id].rate(obs.best_single_id)
        gain_sim = 100 * (fit.result.throughput - best) / best
        gain_err = abs(gain_sim - obs.gain_pct)
        details.append(
            f"{obs.platform_id}/{obs.network_id} thr {thr_err * 100:.2f}% "
            f"gain {gain_err:.2f}pp")
        if thr_err > 0.02 or gain_err > 2.0:
            bad.append(details[-1])
    report(3, not bad,
           f"10 runs, throughput within 2% and gain within 2pp: "
           f"{'; '.join(details)}")
    assert not bad, bad


def test_criterion_4_full_soc_coexec_reproduction(table3_fits):
    bad = []
    details = []
    for obs, fit in table3_fits:
        thr_err = abs(fit.result.throughput - obs.coexec_imgs_s) / obs.coexec_imgs_s
        comp_errs = {
            cid: abs(fit.result.composition[cid] * 100 - obs.composition_pct[cid])
            for cid in ("g72", "npu")
        }
        details.append(
            f"{obs.network_id}: thr {fit.result.throughput:.2f} vs "
            f"{obs.coexec_imgs_s} ({thr_err * 100:.2f}%), g72 "
            f"{comp_errs['g72']:.2f}pp, npu {comp_errs['npu']:.2f}pp, "
            f"h={fit.dispatch_overhead_s * 1e3:.2f}ms, factors={ {k: round(v, 3) for k, v in sorted(fit.contention.items())} }")
        if thr_err > 0.02 or any(e > 3.0 for e in comp_errs.values()):
            bad.append(details[-1])
    report(4, not bad, "residuals: " + " | ".join(details))
    assert not bad, bad


# -- criterion 5: roofline properties ----------------------------------------------

def test_criterion_5_roofline_properties():
    problems = []

    traced = attach_trace(NETWORKS["alexnet"], builtin_trace())
    for layer in traced.layers:
        if empirical_oi(layer) < theoretical_oi(layer):
            problems.append(f"OI_e < OI_t for {layer.name}")

    rng = random.Random(1885)
    for _ in range(1000):
        bw = rng.uniform(0.05, 50.0)
        ceiling = rng.uniform(0.5, 2000.0)
        oi = 10 ** rng.uniform(-2, 3)
        model = RooflineModel("m", bw, ceiling)
        independent = ceiling if oi * bw > ceiling else oi * bw
        if attainable(model, oi) != independent:
            problems.append(f"attainable mismatch at oi={oi}")

    exynos = PLATFORMS["exynos5422"]
    ridges = {
        cid: RooflineModel.for_component(exynos.component(cid)).ridge_oi
        for cid in ("t628", "a15", "a7")
    }
    # stated to three significant digits; compare at that precision and
    # against the exact constant divisions
    if round(ridges["t628"], 2) != 9.37 or abs(ridges["t628"] - 57.6 / 6.15) > 1e-12:
        problems.append(f"t628 ridge {ridges['t628']}")
    if round(ridges["a15"], 2) != 9.30 or abs(ridges["a15"] - 32.0 / 3.44) > 1e-12:
        problems.append(f"a15 ridge {ridges['a15']}")
    if round(ridges["a7"], 1) != 45.7 or abs(ridges["a7"] - 22.4 / 0.49) > 1e-12:
        problems.append(f"a7 ridge {ridges['a7']}")

    a15_model = RooflineModel.for_component(exynos.component("a15"))
    fc_like = LayerProfile("fc_like", "fc", gops=0.0755,
                           mem_access_bytes=151_000_000)
    conv_like = LayerProfile("conv_like", "conv", gops=0.2108,
                             mem_access_bytes=1_920_000)
    if classify(a15_model, theoretical_oi(fc_like)) != "memory":
        problems.append("fc-style layer not memory-bound on the big cluster")
    if classify(a15_model, theoretical_oi(conv_like)) != "compute":
        problems.append("early conv-style layer not compute-bound on the big cluster")

    report(5, not problems,
           f"OI_e>=OI_t on {len(traced.layers)} traced layers, 1000 random "
           f"attainable checks, ridges t628={ridges['t628']:.4f} "
           f"a15={ridges['a15']:.4f} a7={ridges['a7']:.4f}, fc/conv "
           f"classification on the big cluster"
           + (f"; problems: {problems}" if problems else ""))
    assert not problems, problems


# -- criterion 6: quantization invariance ------------------------------------------

def test_criterion_6_quantization_invariance():
    checked = 0
    problems = []
    for network in NETWORKS.values():
        quantized = quantize_profile(network, 32, 8)
        for before, after in zip(network.layers, quantized.layers):
            if after.mem_access_bytes != before.mem_access_bytes * 0.25:
                problems.append(f"{network.id}/{before.name} bytes not x0.25")
            a, b = theoretical_oi(before), theoretical_oi(after)
            if abs(a - b) > 1e-12 * a:
                problems.append(f"{network.id}/{before.name} OI drifted")
            checked += 1
    report(6, not problems,
           f"{checked} layers over 5 networks: bytes scale exactly 0.25, "
           f"OI_t preserved to 1e-12 relative"
           + (f"; problems: {problems}" if problems else ""))
    assert not problems, problems


# -- criterion 7: scheduler properties ----------------------------------------------

def _random_scenario_corpus():
    """10,000 seeded scenarios over synthetic components plus checks that
    need only one pass. Returns accumulated violation summaries."""
    rng = random.Random(20250810)
    stats = {
        "count": 0,
        "in_order": [],
        "work_conservation": [],
        "throughput_bound": [],
        "determinism": [],
        "high_water": [],
        "high_water_max_ratio": 0.0,
        "high_water_replay": [],
        "high_water_bound": [],
        "jitter_free": 0,
        "oracle": [],
        "high_water_bound_max_frac": 0.0,
    }
    for index in range(10000):
        n_comp = rng.randint(1, 4)
        rates = [round(rng.uniform(0.2, 60.0), 3) for _ in range(n_comp)]
        ids = tuple(f"c{i}" for i in range(n_comp))
        components = [{
            "id": cid, "kind": "big-cpu", "peak_compute_gops": 100.0,
            "sustainable_bandwidth_gbs": 1.0, "active_power_w": 1.0,
            "frequency_ghz": 1.0,
        } for cid in ids]
        platform = load_platform({"platform": {
            "id": "synth", "bus_peak_bandwidth_gbs": 10.0,
            "components": components,
        }})
        network = load_network_profile({"network": {
            "id": "synthnet",
            "layers": [{"name": "l0", "kind": "conv", "gops": 1.0,
                        "mem_access_bytes": 1e6}],
            "throughput": dict(zip(ids, rates)),
        }})
        cv = 0.0 if rng.random() < 0.7 else rng.uniform(0.05, 0.4)
        scenario = Scenario(
            "synth", "synthnet", ids, rng.randint(1, 120),
            dispatch_overhead_s=rng.choice((0.0, 0.0, 0.002, 0.02)),
            contention={ids[0]: rng.uniform(0.2, 1.0)} if rng.random() < 0.3 else {},
            jitter_seed=index, jitter_cv=cv,
        )
        result = simulate(scenario, platform, network, record_events=True)
        stats["count"] += 1
        tag = f"#{index} k={n_comp} n={scenario.frame_count}"

        releases = [e.frame for e in result.events if e.kind == "release"]
        if releases != list(range(scenario.frame_count)):
            stats["in_order"].append(tag)

        claimed = 0
        ok = True
        events = tuple(result.events)
        for pos, event in enumerate(events):
            if event.kind == "claim":
                claimed += 1
            elif event.kind == "complete" and claimed < scenario.frame_count:
                follow = next(
                    (e for e in events[pos + 1:] if e.kind != "release"), None)
                if follow is None or follow.kind != "claim" \
                        or follow.component_id != event.component_id \
                        or follow.time != event.time:
                    ok = False
                    break
        # The claims and completions against the oracle's scan, which
        # draws frame f's jitter f-th like the simulator.
        effective = effective_rates(scenario, platform, network)
        *fields, log = greedy_oracle(
            effective, scenario.frame_count, scenario.dispatch_overhead_s,
            jitter_draws(scenario) if cv else None)
        if not ok or logged(events) != oracle_events(log):
            stats["work_conservation"].append(tag)

        if cv == 0.0:
            if result.throughput > sum(effective.values()) * (1 + 1e-12):
                stats["throughput_bound"].append(tag)
            if fields != [result.frames_per_component, result.makespan_s,
                          result.busy_time_s]:
                stats["oracle"].append(tag)

        rerun = simulate(scenario, platform, network)
        if (rerun.makespan_s != result.makespan_s
                or rerun.frames_per_component != result.frames_per_component
                or rerun.busy_time_s != result.busy_time_s):
            stats["determinism"].append(tag)

        high_water = result.reorder_high_water
        if high_water > n_comp:
            stats["high_water"].append(f"{tag} high_water={high_water}")
            stats["high_water_max_ratio"] = max(
                stats["high_water_max_ratio"], high_water / n_comp)

        replayed = _replay_high_water(events, scenario.frame_count)
        if replayed != high_water:
            stats["high_water_replay"].append(
                f"{tag} high_water={high_water} replay={replayed}")

        if cv == 0.0:
            services = [
                1.0 / (rate * scenario.contention.get(cid, 1.0))
                + scenario.dispatch_overhead_s
                for cid, rate in zip(ids, rates)]
            cap = min(scenario.frame_count, _occupancy_bound(services))
            stats["jitter_free"] += 1
            stats["high_water_bound_max_frac"] = max(
                stats["high_water_bound_max_frac"], high_water / cap)
            if high_water > cap:
                stats["high_water_bound"].append(
                    f"{tag} high_water={high_water} bound={cap}")
    return stats


def _replay_high_water(events, n_frames):
    """Largest reorder occupancy, recomputed from the completion order.

    At each completion the occupancy is the number of completed frames
    numbered at or above the lowest frame not completed before it, the
    arriving frame included. One pass, linear in the number of events.
    """
    done = bytearray(n_frames)
    head = 0  # lowest frame not yet completed
    held = 0  # completed frames numbered >= head
    peak = 0
    for event in events:
        if event.kind != "complete":
            continue
        done[event.frame] = 1
        held += 1
        peak = max(peak, held)
        while head < n_frames and done[head]:
            head += 1
            held -= 1
    return peak


def _occupancy_bound(services):
    """Jitter-free reorder occupancy bound, independent of the frame count.

    While the head frame runs on component j (for s_j), every frame it
    holds back was claimed after it, so component i can complete at most
    floor(s_j / s_i) of them; the head itself counts once. The 1e-9 guard
    absorbs the rounding of repeated service-time sums at exact ratios.
    """
    return max(
        1 + sum(math.floor(s_j / s_i + 1e-9)
                for i, s_i in enumerate(services) if i != j)
        for j, s_j in enumerate(services))


@pytest.fixture(scope="module")
def scheduler_stats():
    return _random_scenario_corpus()


def test_criterion_7_in_order_delivery(scheduler_stats):
    bad = scheduler_stats["in_order"]
    report("7/in-order", not bad,
           f"{scheduler_stats['count'] - len(bad)}/{scheduler_stats['count']} "
           f"scenarios released frames as 0,1,2,...")
    assert not bad, bad[:10]


def test_criterion_7_work_conservation(scheduler_stats):
    bad = scheduler_stats["work_conservation"]
    report("7/work-conservation", not bad,
           f"{scheduler_stats['count'] - len(bad)}/{scheduler_stats['count']} "
           f"scenarios never idled a component while frames remained and "
           f"claimed every frame as an independent greedy scan does")
    assert not bad, bad[:10]


def test_criterion_7_throughput_bound(scheduler_stats):
    bad = scheduler_stats["throughput_bound"]
    report("7/throughput-bound", not bad,
           "throughput <= engaged rate sum on every jitter-free scenario")
    assert not bad, bad[:10]


def test_criterion_7_determinism(scheduler_stats):
    bad = scheduler_stats["determinism"]
    report("7/determinism", not bad,
           f"{scheduler_stats['count'] - len(bad)}/{scheduler_stats['count']} "
           f"scenarios bit-identical across two runs")
    assert not bad, bad[:10]


def test_criterion_7_small_instance_oracle(scheduler_stats):
    # greedy_oracle is an independent scan, with no heap and no buffer;
    # the corpus compares it with every jitter-free scenario
    rng = random.Random(321)
    mismatches = []
    cases = 0
    for _ in range(200):
        n_comp = rng.randint(1, 3)
        rates = {f"c{i}": round(rng.uniform(0.3, 20.0), 3)
                 for i in range(n_comp)}
        platform = load_platform({"platform": {
            "id": "synth", "bus_peak_bandwidth_gbs": 10.0,
            "components": [{
                "id": cid, "kind": "big-cpu", "peak_compute_gops": 10.0,
                "sustainable_bandwidth_gbs": 1.0, "active_power_w": 1.0,
                "frequency_ghz": 1.0} for cid in rates],
        }})
        network = load_network_profile({"network": {
            "id": "synthnet",
            "layers": [{"name": "l0", "kind": "conv", "gops": 1.0,
                        "mem_access_bytes": 1e6}],
            "throughput": rates,
        }})
        overhead = rng.choice((0.0, 0.01))
        for n_frames in range(1, 7):
            scenario = Scenario("synth", "synthnet", tuple(sorted(rates)),
                                n_frames, dispatch_overhead_s=overhead)
            result = simulate(scenario, platform, network)
            *expected, _ = greedy_oracle(rates, n_frames, overhead)
            cases += 1
            if [result.frames_per_component, result.makespan_s,
                    result.busy_time_s] != expected:
                mismatches.append((rates, n_frames, overhead))
    corpus_bad = scheduler_stats["oracle"]
    jitter_free = scheduler_stats["jitter_free"]
    report("7/small-instance-oracle", not (mismatches or corpus_bad),
           f"{cases} exhaustive greedy schedules (N<=6, components<=3) and "
           f"{jitter_free - len(corpus_bad)}/{jitter_free} jitter-free corpus "
           f"scenarios match the simulator exactly")
    assert not mismatches, mismatches[:5]
    assert not corpus_bad, corpus_bad[:10]


def test_criterion_7_reorder_high_water(scheduler_stats):
    replay_bad = scheduler_stats["high_water_replay"]
    bound_bad = scheduler_stats["high_water_bound"]
    count = scheduler_stats["count"]
    jitter_free = scheduler_stats["jitter_free"]
    over_k = len(scheduler_stats["high_water"])
    report("7/reorder-high-water", not (replay_bad or bound_bad),
           f"{count - len(replay_bad)}/{count} scenarios match a replay of "
           f"their completions; {jitter_free - len(bound_bad)}/{jitter_free} "
           f"jitter-free scenarios within min(N, max_j(1 + sum_i!=j "
           f"floor(s_j/s_i))), worst "
           f"{scheduler_stats['high_water_bound_max_frac']:.3f} of it; "
           f"{count - over_k}/{count} <= component count, worst ratio "
           f"{scheduler_stats['high_water_max_ratio']:.1f}")
    assert not replay_bad, (
        "reorder_high_water differs from the occupancy replayed from the "
        "completion events: " + str(replay_bad[:10]))
    assert not bound_bad, (
        "jitter-free reorder occupancy exceeds the service-time bound: "
        + str(bound_bad[:10]))


# -- criterion 8: energy properties ---------------------------------------------------

def test_criterion_8_energy_efficiency(table2_fits, table3_fits):
    problems = []
    details = []
    for fits in (table2_fits, table3_fits):
        for obs, fit in fits:
            platform = PLATFORMS[obs.platform_id]
            network = NETWORKS[obs.network_id]
            effs = {
                cid: network.rate(cid) / platform.component(cid).active_power_w
                for cid in obs.engaged
            }
            co = fit.result.energy_efficiency
            if not (min(effs.values()) <= co <= max(effs.values())):
                problems.append(
                    f"{obs.platform_id}/{obs.network_id}: {co:.3f} outside "
                    f"[{min(effs.values()):.3f}, {max(effs.values()):.3f}]")
            if obs.platform_id == "kirin970" and obs.table == 2:
                big = effs["a73"]
                if co <= big:
                    problems.append(
                        f"kirin970/{obs.network_id}: co-execution {co:.3f} "
                        f"imgs/J does not beat the big cluster {big:.3f}")
                details.append(f"{obs.network_id} {co:.2f}>{big:.2f}")
    report(8, not problems,
           f"14 runs inside [min,max] of engaged component efficiencies; "
           f"high-end CPU+GPU beats the big cluster alone: {', '.join(details)}"
           + (f"; problems: {problems}" if problems else ""))
    assert not problems, problems
