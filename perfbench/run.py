"""socperf benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a socperf checkout; the program is imported from
src/. With --trace 0 the run times every end-to-end metric listed in
BENCHMARK.json; with --trace 1 it records spans around the calls into
socperf's modules and reports every per-layer metric. Every output is
checked. The last line of stdout is the result as one JSON object; the
lines before it are a readable report. Workloads, metrics and baseline
numbers are described in perfbench/NOTES.md.
"""

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

import checks
import refclock
import stages
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(SRC, "socperf", "data")
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")

# Every workload reports every end-to-end metric, so each runs all three
# stages; its own stage gets the largest share of the time.
WORKLOADS = {"paper_tables": "tables", "long_stream": "stream", "request_mix": "mix"}
STAGES = ("tables", "stream", "mix")

# A request_mix seed kept out of development: re-check a claimed gain on it.
HELD_OUT_SEEDS = {"request_mix": 104729}

SAMPLES = ("setup", "table1", "table2", "table3", "stream", "jitter", "events", "mix")
FOCUS_SHARE = 0.5
# Seconds one unit of each stage takes, with the set-up launch after it, on
# the host the benchmark was built on (2-vCPU shared virtual machine): a
# pass of the three cold tables, a pass of the three stream phases, or
# MIX_UNIT_OPS requests. A run's plan follows from --seconds and these, not
# from the clock, so every run of a workload attempts the same operations.
UNIT_S = {"tables": 4.2, "stream": 4.4, "mix": 1.25}
# Passes every stage makes at least, so no median rests on one sample; the
# stream phases, the noisiest timings, get one more.
# Two mix units are 1,200 requests, so p99 has at least 12 samples beyond it.
MIN_UNITS = {"tables": 2, "stream": 3, "mix": 2}
MIX_UNIT_OPS = 600
# The jitter phase takes a third of the time of the other two; a stream
# pass runs it this many times, each with its own seed.
JITTER_RUNS = 2
# Table 1 takes a tenth of the time of tables 2 and 3, and a short cold
# process times less steadily; a pass runs it this many times.
TABLE1_RUNS = 3
MIX_TRACE_OPS = 1000
TRACE_PASS_PAIRS = 2


def plan(focus: str, seconds: float) -> list:
    """The order of a run's units: the focus stage gets FOCUS_SHARE of the
    nominal time and the other two split the rest. The stage furthest
    behind its count runs next, so each stage's samples spread over the run.
    """
    counts = {}
    for stage in STAGES:
        share = FOCUS_SHARE if stage == focus else (1 - FOCUS_SHARE) / 2
        counts[stage] = max(MIN_UNITS[stage], round(share * seconds / UNIT_S[stage]))
    done = dict.fromkeys(STAGES, 0)
    order = []
    for _ in range(sum(counts.values())):
        stage = min((name for name in STAGES if done[name] < counts[name]),
                    key=lambda name: (done[name] + 0.5) / counts[name])
        order.append(stage)
        done[stage] += 1
    return order


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def make_stamp(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEEDS.get(args.workload) == args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg_1m_at_start": round(os.getloadavg()[0], 2),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    peaks = (resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return max(peaks) / 1024.0


class TimedRun:
    """One untraced run: set-up launches and the three stages, interleaved
    in the order plan() gives."""

    def __init__(self, socperf, golden, workload, seed, seconds):
        self.socperf, self.golden, self.seed = socperf, golden, seed
        self.focus = WORKLOADS[workload]
        self.seconds = seconds
        self.rng = random.Random(f"{workload}:{seed}")
        self.outcomes = stages.Outcomes()
        # Timings normalised to the reference speed, and as measured.
        self.samples = {name: [] for name in SAMPLES}
        self.raw = {name: [] for name in SAMPLES}
        self.tables = {}
        self.mix = stages.RequestMix(socperf, golden, seed, DATA)
        self.unit_s = {stage: [] for stage in STAGES}

    def keep(self, name, raw, scale):
        if raw is not None:
            self.raw[name].append(raw)
            self.samples[name].append(raw * scale)

    def tables_pass(self):
        order = [1] * TABLE1_RUNS + [2, 3]
        self.rng.shuffle(order)
        for which in order:
            elapsed, scale, text = stages.cold_table(
                SRC, which, self.golden, self.outcomes, self.tables.get(which))
            self.tables.setdefault(which, text)
            self.keep(f"table{which}", elapsed, scale)

    def stream_pass(self):
        """The three phases, jitter JITTER_RUNS times, each with its own speed probes."""
        for phase in stages.STREAM_PHASES + ("jitter",) * (JITTER_RUNS - 1):
            jitter_seed = self.seed * 1000 + len(self.samples["jitter"])
            with refclock.Meter() as meter:
                ns = stages.stream_phase(self.socperf, self.golden, phase, jitter_seed,
                                         self.outcomes, meter)
            self.keep(phase, ns, meter.scale())

    def mix_pass(self):
        """Requests in blocks, each block scaled by the speed probed while it ran."""
        for _ in range(MIX_UNIT_OPS // stages.BLOCK_OPS):
            with refclock.Meter() as meter:
                block = [self.mix.run(self.mix.next_op(), self.outcomes, meter)
                         for _ in range(stages.BLOCK_OPS)]
            scale = meter.scale()
            self.raw["mix"].extend(block)
            self.samples["mix"].extend(latency * scale for latency in block)

    def run(self) -> dict:
        stages.setup_sample(SRC, self.outcomes)  # warms the bytecode cache
        units = {"tables": self.tables_pass, "stream": self.stream_pass, "mix": self.mix_pass}
        for stage in plan(self.focus, self.seconds):
            start = time.perf_counter()
            units[stage]()
            # One set-up launch after every unit spreads them over the run.
            self.keep("setup", *stages.setup_sample(SRC, self.outcomes))
            self.unit_s[stage].append(time.perf_counter() - start)
        return self.metrics()

    def metrics(self) -> dict:
        s, median = self.samples, statistics.median
        fit_resid = max(checks.table_residuals(self.tables[2])[0],
                        checks.table_residuals(self.tables[3])[0])
        latencies = s["mix"]
        return {
            "setup_s": median(s["setup"]),
            "table1_s": median(s["table1"]),
            "table2_s": median(s["table2"]),
            "table3_s": median(s["table3"]),
            "fit_resid_max_pct": fit_resid,
            "share_resid_max_pp": checks.table_residuals(self.tables[3])[1],
            "stream_ns_per_frame": median(s["stream"]),
            "jitter_ns_per_frame": median(s["jitter"]),
            "events_ns_per_frame": median(s["events"]),
            "peak_rss_mb": peak_rss_mb(),
            "mix_ops_per_s": len(latencies) / sum(latencies),
            "mix_p50_us": median(latencies) * 1e6,
            "mix_p99_us": statistics.quantiles(latencies, n=100)[98] * 1e6,
        }

    def notes(self, stamp) -> list:
        """Sample counts, and medians as measured before normalisation."""
        counts = ", ".join(f"{name} {len(values)}" for name, values in self.raw.items())
        raw = ", ".join(f"{name} {statistics.median(values):.6g}"
                        for name, values in self.raw.items())
        units = ", ".join(f"{stage} {len(times)} x {statistics.median(times):.3g}"
                          for stage, times in self.unit_s.items())
        return [f"samples: {counts}", f"medians as measured (s, ns/frame): {raw}",
                f"units x median seconds, with their set-up launch (UNIT_S): {units}"]


class TracedRun:
    """Untraced and traced passes of the workload's own stage, then layer probes.

    The passes alternate, untraced first, and trace_overhead_pct compares
    the fastest of each kind. Spans and per-layer metrics come from the
    last traced pass.
    """

    def __init__(self, socperf, golden, workload, seed):
        self.socperf, self.golden, self.seed = socperf, golden, seed
        self.workload = workload
        self.focus = WORKLOADS[workload]
        self.outcomes = stages.Outcomes()
        self.tracer = None

    def unit(self, tracer) -> int:
        """The focus stage at a fixed size; returns the operation count."""
        if self.focus == "tables":
            for which in (1, 2, 3):
                tracer.op = which
                stages.inprocess_table(self.socperf, which, self.golden, self.outcomes)
            return 3
        if self.focus == "stream":
            for op, phase in enumerate(stages.STREAM_PHASES):
                tracer.op = op
                stages.stream_phase(self.socperf, self.golden, phase, self.seed * 1000,
                                    self.outcomes)
            return 3
        mix = stages.RequestMix(self.socperf, self.golden, self.seed, DATA)
        for op in range(MIX_TRACE_OPS):
            tracer.op = op
            mix.run(mix.next_op(), self.outcomes)
        return MIX_TRACE_OPS

    def run(self) -> dict:
        untraced, traced = [], []
        for _ in range(TRACE_PASS_PAIRS):
            start = time.perf_counter_ns()
            self.unit(tracing.Tracer())
            untraced.append(time.perf_counter_ns() - start)
            self.tracer = tracing.Tracer()
            with self.tracer:
                start = time.perf_counter_ns()
                ops = self.unit(self.tracer)
                traced.append(time.perf_counter_ns() - start)
        metrics = tracing.layer_metrics(self.tracer, ops, traced[-1])
        metrics.update(stages.layer_probes(self.socperf))
        metrics["trace_overhead_pct"] = 100.0 * (min(traced) - min(untraced)) / min(untraced)
        return metrics

    def notes(self, stamp) -> list:
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"trace-{self.workload}-{self.seed}.json")
        self.tracer.write(path, stamp)
        return [f"spans: {len(self.tracer.spans)} written to {os.path.relpath(path, ROOT)}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "socperf", "__init__.py")):
        print(f"perfbench: no socperf sources under {SRC}; run from a socperf checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    stamp = make_stamp(args)
    # One CPU for this process and its children, so the speed probes
    # run where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    socperf = stages.bind(SRC)
    golden = checks.load_golden()
    if args.trace:
        bench = TracedRun(socperf, golden, args.workload, args.seed)
        listed = spec["per_layer"]
    else:
        bench = TimedRun(socperf, golden, args.workload, args.seed, args.seconds)
        listed = spec["end_to_end"]
    values = bench.run()
    if set(values) != {m["name"] for m in listed}:
        raise RuntimeError(f"metric names differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ {m['name'] for m in listed})}")

    outcomes = bench.outcomes
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for line in bench.notes(stamp):
        print(line)
    for metric in listed:
        value = values[metric["name"]]
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{metric['name']:40s} {shown:>14s} {metric['unit']:<9s} "
              f"({metric['better']} is better)")
    print(f"attempted {outcomes.attempted}, failed {outcomes.failed}, "
          f"error_rate {outcomes.failed / outcomes.attempted:.4f}, "
          f"wrong results on valid inputs {outcomes.wrong}")
    for reason, count in sorted(outcomes.reasons.items()):
        print(f"  failed x{count}: {reason}")
    print(json.dumps({
        "correct": outcomes.wrong == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
