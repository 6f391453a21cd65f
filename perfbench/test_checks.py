"""Tests for the benchmark's own output checks and tracing.

    python3 -m pytest perfbench/test_checks.py
"""

import dataclasses
import json
import math
import os
import sys
import time
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import stages  # noqa: E402
import tracing  # noqa: E402

SRC = os.path.join(os.path.dirname(HERE), "src")
socperf = stages.bind(SRC)
GOLDEN = checks.load_golden()
DATA = os.path.join(SRC, "socperf", "data")


def pool_result(frames=240, overhead=0.0025):
    engaged = ("a53", "a73", "g72", "npu")
    key = checks.pool_key("kirin970", "alexnet", engaged, frames, overhead)
    result = socperf.simulate(socperf.Scenario(
        "kirin970", "alexnet", engaged, frames, dispatch_overhead_s=overhead))
    return key, result


class SimResultChecks(unittest.TestCase):
    def test_golden_result_passes(self):
        key, result = pool_result()
        self.assertIsNone(checks.check_sim_digest(GOLDEN, key, result))

    def test_perturbed_results_fail(self):
        key, result = pool_result()
        busy = dict(result.busy_time_s, g72=result.busy_time_s["g72"] * (1 + 1e-15))
        frames = dict(result.frames_per_component, a53=result.frames_per_component["a53"] + 1)
        for perturbed in (
            dataclasses.replace(result, makespan_s=math.nextafter(result.makespan_s, 0)),
            dataclasses.replace(result, busy_time_s=busy),
            dataclasses.replace(result, frames_per_component=frames),
            dataclasses.replace(result, reorder_high_water=result.reorder_high_water + 1),
        ):
            self.assertIsNotNone(checks.check_sim_digest(GOLDEN, key, perturbed))

    def test_unknown_key_fails(self):
        _, result = pool_result()
        self.assertIn("no golden value", checks.check_sim_digest(GOLDEN, "nope", result))

    def test_stream_fields_compare_exactly(self):
        want = GOLDEN["stream"]["200000"]
        fake = types.SimpleNamespace(
            makespan_s=want["makespan_s"], frames_per_component=dict(want["frames"]),
            busy_time_s=dict(want["busy_s"]), reorder_high_water=want["high_water"])
        self.assertIsNone(checks.check_sim_fields(want, fake, "stream"))
        fake.makespan_s = math.nextafter(fake.makespan_s, math.inf)
        self.assertIn("makespan_s", checks.check_sim_fields(want, fake, "stream"))

    def test_jitter_result_needs_every_frame(self):
        ok = types.SimpleNamespace(
            frames_per_component={"a53": 3, "npu": 7}, makespan_s=1.0,
            busy_time_s={"a53": 0.5, "npu": 0.9}, reorder_high_water=2)
        self.assertIsNone(checks.check_jitter_result(ok, 10, ("a53", "npu")))
        self.assertIsNotNone(checks.check_jitter_result(ok, 11, ("a53", "npu")))
        nan = types.SimpleNamespace(**vars(ok))
        nan.makespan_s = math.nan
        self.assertIsNotNone(checks.check_jitter_result(nan, 10, ("a53", "npu")))

    def test_events_must_release_in_order(self):
        result = socperf.simulate(socperf.Scenario(
            "kirin970", "alexnet", ("a53", "npu"), 50), record_events=True)
        self.assertIsNone(checks.check_events(result, 50))
        swapped = list(result.events)
        releases = [i for i, e in enumerate(swapped) if e.kind == "release"]
        a, b = releases[0], releases[1]
        swapped[a], swapped[b] = swapped[b], swapped[a]
        self.assertIsNotNone(checks.check_events(
            dataclasses.replace(result, events=tuple(swapped)), 50))


class DocumentChecks(unittest.TestCase):
    def test_json_rejects_nan_and_infinity(self):
        self.assertIsNone(checks.check_json(b'{"a": 1.5}', "x"))
        self.assertIsNotNone(checks.check_json(b'{"a": NaN}', "x"))
        self.assertIsNotNone(checks.check_json(b'{"a": -Infinity}', "x"))

    def test_table1_must_be_byte_identical(self):
        text = GOLDEN["table1_csv"]
        self.assertIsNone(checks.check_table(1, text, GOLDEN))
        self.assertIsNotNone(checks.check_table(1, text.replace("32.5", "32.6", 1), GOLDEN))

    def test_fit_tables_must_meet_paper_bounds(self):
        header = ("residual_throughput_pct,share_sim_npu_pct,share_meas_npu_pct")
        good = header + "\n" + "\n".join(["-1.9,50,52.5"] * 4) + "\n"
        self.assertIsNone(checks.check_table(3, good, GOLDEN))
        self.assertEqual(checks.table_residuals(good), (1.9, 2.5))
        self.assertIn("throughput residual",
                      checks.check_table(3, good.replace("-1.9", "2.1", 1), GOLDEN))
        self.assertIn("share residual",
                      checks.check_table(3, good.replace("52.5", "53.5", 1), GOLDEN))
        self.assertIn("rows", checks.check_table(2, good, GOLDEN))


class RequestMixAccounting(unittest.TestCase):
    def setUp(self):
        self.mix = stages.RequestMix(socperf, GOLDEN, 7, DATA)
        self.outcomes = stages.Outcomes()

    def test_valid_requests_pass_their_checks(self):
        for _ in range(60):
            op = self.mix.next_op()
            if op.valid:
                self.mix.run(op, self.outcomes)
        self.assertGreater(self.outcomes.attempted, 40)
        self.assertEqual(self.outcomes.failed, 0, self.outcomes.reasons)

    def test_every_block_holds_each_invalid_case_once(self):
        for _ in range(2):
            block = [self.mix.next_op() for _ in range(stages.BLOCK_OPS)]
            invalid = sorted(op.kind for op in block if not op.valid)
            self.assertEqual(len(invalid), len(self.mix.invalid_cases))
            self.assertEqual(len(set(invalid)), len(invalid))

    def test_user_documents_are_rescaled_copies(self):
        for _ in range(20):
            self.mix.run(self.mix._user_sim(), self.outcomes)
        self.assertEqual((self.outcomes.attempted, self.outcomes.failed), (20, 0))

    def test_wrong_output_of_a_valid_request_is_wrong(self):
        op = stages.Op("sim_bundled", lambda: 1, lambda out: "differs")
        self.mix.run(op, self.outcomes)
        self.assertEqual((self.outcomes.failed, self.outcomes.wrong), (1, 1))

    def test_accepted_invalid_input_fails_without_a_wrong_result(self):
        for case in self.mix.invalid_cases:
            self.mix.run(case(), self.outcomes)
        self.assertEqual(self.outcomes.attempted, 10)
        self.assertEqual(self.outcomes.wrong, 0)
        refused = {"mobilenet_on_npu", "contention_above_one", "missing_frames"}
        for reason in self.outcomes.reasons:
            self.assertFalse(any(name in reason for name in refused), reason)

    def test_crash_on_invalid_input_is_a_failure(self):
        op = stages.Op("invalid:x", lambda: 1 / 0, lambda out: "accepted", valid=False)
        self.mix.run(op, self.outcomes)
        self.assertEqual(self.outcomes.failed, 1)
        op = stages.Op("invalid:y", lambda: socperf.load_scenario("{}"),
                       lambda out: "accepted", valid=False)
        self.mix.run(op, self.outcomes)
        self.assertEqual(self.outcomes.failed, 1)


class ChildProcesses(unittest.TestCase):
    def test_cold_table_is_checked_and_reports_its_reference_clock(self):
        outcomes = stages.Outcomes()
        elapsed, scale, text = stages.cold_table(SRC, 1, GOLDEN, outcomes)
        self.assertEqual(text, GOLDEN["table1_csv"])
        self.assertEqual((outcomes.attempted, outcomes.failed), (1, 0))
        self.assertGreater(elapsed, 0)
        self.assertGreater(scale, 0)
        stages.cold_table(SRC, 1, GOLDEN, outcomes, previous="other output")
        self.assertEqual(outcomes.failed, 1)

    def test_scale_is_one_at_nominal_speed(self):
        self.assertEqual(refclock.scale(refclock.NOMINAL_S), 1.0)
        self.assertEqual(refclock.scale(2 * refclock.NOMINAL_S), 0.5)

    def test_meter_probes_during_work_and_leaves_them_out(self):
        with refclock.Meter() as meter:
            mark = meter.mark()
            deadline = time.perf_counter() + 4 * refclock.PERIOD_S
            while time.perf_counter() < deadline:
                pass
            elapsed = meter.elapsed(mark)
        self.assertGreaterEqual(len(meter.probes), 2 * refclock.AROUND + 2)
        self.assertLess(elapsed, 4 * refclock.PERIOD_S)
        self.assertGreater(meter.scale(), 0)


class LayerProbes(unittest.TestCase):
    def test_probes_report_every_grid_point(self):
        saved = stages.GRID_SIZES, stages.REPLAY_FRAMES
        stages.GRID_SIZES, stages.REPLAY_FRAMES = {"n1e4": 200, "n1e6": 300}, 500
        try:
            probes = stages.layer_probes(socperf)
        finally:
            stages.GRID_SIZES, stages.REPLAY_FRAMES = saved
        self.assertEqual(len([k for k in probes if k.startswith("sim.ns_per_frame.")]), 8)
        self.assertEqual(probes["sim.reorder.high_water"], 32)
        self.assertTrue(all(v > 0 for v in probes.values()))


class Tracing(unittest.TestCase):
    def test_wrappers_cover_calibration_and_are_removed(self):
        calibrate_module = sys.modules["socperf.calibrate"]
        original = calibrate_module.simulate
        tracer = tracing.Tracer()
        with tracer:
            self.assertIsNot(calibrate_module.simulate, original)
            platform = socperf.platform_by_id("exynos5422")
            network = socperf.network_by_id("alexnet")
            socperf.calibrate(platform, network, {"throughput": 10.3},
                              ("a7", "a15", "t628"), frames=200)
        self.assertIs(calibrate_module.simulate, original)
        fit = [i for i, s in enumerate(tracer.spans) if s[0] == "calibrate.calibrate"]
        self.assertEqual(len(fit), 1)
        sims = [s for s in tracer.spans if s[0] == "sim.simulate" and s[3] == fit[0]]
        self.assertGreaterEqual(len(sims), 2)
        self.assertTrue(all(s[5] == 200 for s in sims))

    def test_missing_function_is_reported_absent(self):
        tracer = tracing.Tracer()
        with tracer:
            socperf.simulate(socperf.Scenario("kirin970", "alexnet", ("npu",), 5))
        tracer.present.discard("dataset.builtin_dataset")
        metrics = tracing.layer_metrics(tracer, 1, 10 ** 6)
        self.assertIsNone(metrics["dataset.builtin_dataset.calls"])
        self.assertEqual(metrics["sim.simulate.calls"], 1)
        self.assertEqual(metrics["sim.frames"], 5)
        self.assertEqual(metrics["calibrate.fits"], 0)
        json.dumps(metrics)


class RunPlan(unittest.TestCase):
    def test_plan_depends_only_on_workload_and_seconds(self):
        for focus in run.STAGES:
            order = run.plan(focus, 36)
            self.assertEqual(order, run.plan(focus, 36))
            for stage, least in run.MIN_UNITS.items():
                self.assertGreaterEqual(order.count(stage), least)
            others = [order.count(stage) * run.UNIT_S[stage]
                      for stage in run.STAGES if stage != focus]
            self.assertGreaterEqual(order.count(focus) * run.UNIT_S[focus], min(others))


if __name__ == "__main__":
    unittest.main()
