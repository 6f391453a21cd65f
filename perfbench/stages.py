"""The work the benchmark times: cold CLI tables, long streams, a request mix.

Each stage checks every output it produces and reports operations to an
``Outcomes`` tally. Only calls into socperf are timed; generating inputs
and checking outputs happen outside the timed regions.
"""

import collections
import copy
import gc
import importlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

import checks
import refclock


class Outcomes:
    """Attempted and failed operations, with the reason for each failure.

    A wrong result for a valid input makes the whole run incorrect. An
    invalid input that is accepted, or refused with an unexpected
    exception, is a failed operation but says nothing about the results
    of valid work.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons = collections.Counter()

    def record(self, reason, valid=True):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.wrong += valid
            self.reasons[reason] += 1


def bind(src: str):
    """Import socperf, with the modules the package does not import, from src."""
    sys.path.insert(0, src)
    importlib.import_module("socperf.cli")
    importlib.import_module("socperf.emit")
    return sys.modules["socperf"]


def child_env(src: str) -> dict:
    # A fixed hash seed keeps set and dict layouts, and so timings, alike
    # from one child process to the next.
    return dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")


# ---------------------------------------------------------------------------
# Set-up and cold CLI tables
# ---------------------------------------------------------------------------

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")


def run_child(src: str, args):
    """Run child.py; returns (process, seconds of work, scale to nominal speed, report).

    The seconds of work are the process's wall time less the time the
    child spent in its speed probes. report is None when the child did
    not get as far as reporting.
    """
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, CHILD, *args], env=child_env(src),
                          capture_output=True)
    wall = time.perf_counter() - start
    last = proc.stderr.rstrip().rsplit(b"\n", 1)[-1]
    if not last.startswith(b"perfbench "):
        return proc, wall, 1.0, None
    report = json.loads(last[len(b"perfbench "):])
    return proc, wall - report["spent"], refclock.scale(report["probe_s"]), report


def setup_sample(src: str, outcomes: Outcomes):
    """A fresh interpreter imports socperf and loads the dataset; (seconds, scale)."""
    proc, elapsed, scale, report = run_child(src, ["setup"])
    outcomes.record(None if proc.returncode == 0 and report else
                    f"set-up exited {proc.returncode}: {proc.stderr[-200:]!r}")
    return elapsed, scale


def cold_table(src: str, which: int, golden: dict, outcomes: Outcomes, previous=None):
    """One cold `socperf tables --which N`; returns (seconds, scale, stdout).

    previous is this table's output from an earlier run in the same
    benchmark run, which the output must repeat byte for byte.
    """
    proc, elapsed, scale, report = run_child(src, ["cli", "tables", "--which", str(which)])
    text = proc.stdout.decode("utf-8", "replace")
    if proc.returncode != 0 or report is None or b"Traceback" in proc.stderr:
        reason = f"tables --which {which} exited {proc.returncode}: {proc.stderr[-200:]!r}"
    elif previous is not None and text != previous:
        reason = f"tables --which {which}: output changed between identical runs"
    else:
        reason = checks.check_table(which, text, golden)
    outcomes.record(reason)
    return elapsed, scale, text


def inprocess_table(socperf, which: int, golden: dict, outcomes: Outcomes):
    """`socperf tables --which N` through cli.main in this process."""
    saved = sys.stdout
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    try:
        code = sys.modules["socperf.cli"].main(["tables", "--which", str(which)])
        sys.stdout.flush()
        text = sys.stdout.buffer.getvalue().decode("utf-8")
    finally:
        sys.stdout = saved
    outcomes.record(f"tables --which {which} returned {code}" if code
                    else checks.check_table(which, text, golden))


# ---------------------------------------------------------------------------
# Long streams
# ---------------------------------------------------------------------------

STREAM_FRAMES = 1_000_000
JITTER_FRAMES = 200_000
EVENTS_FRAMES = 200_000
JITTER_CV = 0.1
STREAM_PHASES = ("stream", "jitter", "events")


def stream_phase(socperf, golden: dict, phase: str, jitter_seed: int,
                 outcomes: Outcomes, meter=None) -> float:
    """One long-stream phase; returns host ns per frame, less meter's probes."""
    meter = meter or refclock.Meter()
    args = (checks.STREAM_PLATFORM, checks.STREAM_NETWORK, checks.STREAM_ENGAGED)
    if phase == "stream":
        frames, scenario = STREAM_FRAMES, socperf.Scenario(*args, STREAM_FRAMES)
    elif phase == "jitter":
        frames, scenario = JITTER_FRAMES, socperf.Scenario(
            *args, JITTER_FRAMES, jitter_seed=jitter_seed, jitter_cv=JITTER_CV)
    else:
        frames, scenario = EVENTS_FRAMES, socperf.Scenario(*args, EVENTS_FRAMES)
    mark = meter.mark()
    result = socperf.simulate(scenario, record_events=phase == "events")
    ns_per_frame = meter.elapsed(mark) * 1e9 / frames
    if phase == "jitter":
        reason = checks.check_jitter_result(result, frames, checks.STREAM_ENGAGED)
    else:
        reason = checks.check_sim_fields(golden["stream"][str(frames)], result, phase)
        if phase == "events":
            reason = reason or checks.check_events(result, frames)
    outcomes.record(reason)
    del result
    gc.collect()
    return ns_per_frame


# ---------------------------------------------------------------------------
# Request mix
# ---------------------------------------------------------------------------

# Every block of BLOCK_OPS requests holds each of the ten invalid cases
# once (5%), at seeded positions, so every block fails the same number of
# requests. The valid requests are drawn with VALID_WEIGHTS: bundled
# simulations, user-document simulations, roofline requests.
BLOCK_OPS = 200
VALID_WEIGHTS = (35, 30, 30)
USER_RATE_EXPONENTS = (-1, 0, 1, 2)


def roofline_output(socperf, platform_id, component_id, network_id, fmt) -> bytes:
    """What `socperf roofline` prints at its default grid, through module bindings."""
    roofline, emit = sys.modules["socperf.roofline"], sys.modules["socperf.emit"]
    lo, hi, samples = checks.ROOFLINE_GRID
    model = socperf.RooflineModel.for_component(
        socperf.platform_by_id(platform_id).component(component_id))
    points = []
    if network_id is not None:
        profile = socperf.network_by_id(network_id)
        points.extend(roofline.layer_points(profile, model))
        points.append(roofline.network_point(profile, model))
    rows = roofline.roofline_series(model, points, roofline.log_spaced(lo, hi, samples))
    if fmt == "csv":
        return emit.roofline_rows_to_csv(rows)
    if fmt == "json":
        return emit.emit_json(rows)
    return emit.emit_svg_roofline(rows, f"{platform_id}/{component_id} roofline")


class Op:
    """One request: call() is timed, check(output) is not."""

    __slots__ = ("kind", "call", "check", "valid")

    def __init__(self, kind, call, check, valid=True):
        self.kind, self.call, self.check, self.valid = kind, call, check, valid


class RequestMix:
    """A seeded stream of short requests against the library API."""

    def __init__(self, socperf, golden: dict, seed, data_dir: str):
        self.S = socperf
        self.E = sys.modules["socperf.emit"]
        self.P = sys.modules["socperf.profiles"]
        self.golden = golden
        self.rng = random.Random(f"request_mix:{seed}")
        self.plan = []
        platforms, networks = socperf.builtin_dataset()
        self.engagements = list(checks.engagements(platforms, networks))
        self.roofline_cases = list(checks.roofline_cases(platforms, networks))
        self.docs = {}
        for item in platforms + networks:
            with open(os.path.join(data_dir, f"{item.id}.json"), encoding="utf-8") as fh:
                self.docs[item.id] = json.load(fh)
        # Invalid inputs. Each must be refused with a socperf error, or the
        # ValueError the CLI also maps to exit 1; a document must be refused
        # by the loader that reads it. The first seven are accepted at the
        # commit that introduced the benchmark (ROADMAP item 2) and count as
        # failed requests.
        self.rejections = (socperf.SocPerfError, ValueError)
        self.invalid_cases = [
            lambda: self._library_case("overhead_nan", dispatch_overhead_s=math.nan),
            lambda: self._library_case("overhead_inf", dispatch_overhead_s=math.inf),
            lambda: self._library_case("cv_nan", jitter_seed=1, jitter_cv=math.nan),
            lambda: self._library_case("cv_inf", jitter_seed=1, jitter_cv=math.inf),
            lambda: self._document_case("frames_fraction", frames=2.7),
            lambda: self._document_case("components_string", components="a7"),
            self._zero_target,
            lambda: self._library_case("mobilenet_on_npu", network="mobilenet",
                                       engaged=("g72", "npu")),
            lambda: self._document_case("contention_above_one", contention={"a7": 1.5}),
            lambda: self._document_case("missing_frames", frames=None),
        ]

    def next_op(self) -> Op:
        if not self.plan:
            kinds = (self._bundled_sim, self._user_sim, self._roofline)
            self.plan = self.rng.choices(kinds, VALID_WEIGHTS,
                                         k=BLOCK_OPS - len(self.invalid_cases))
            self.plan.extend(self.invalid_cases)
            self.rng.shuffle(self.plan)
        return self.plan.pop()()

    def _pool_entry(self):
        rng = self.rng
        pid, nid, engaged = rng.choice(self.engagements)
        return pid, nid, engaged, rng.choice(checks.POOL_FRAMES), rng.choice(checks.POOL_OVERHEADS)

    def _bundled_sim(self) -> Op:
        """simulate(Scenario(...)) on a bundled board, emitted as the CLI would."""
        S, E = self.S, self.E
        pid, nid, engaged, frames, overhead = entry = self._pool_entry()
        fmt = self.rng.choice(("json", "csv"))
        key = checks.pool_key(*entry)

        def call():
            result = S.simulate(S.Scenario(pid, nid, engaged, frames,
                                           dispatch_overhead_s=overhead))
            if fmt == "json":
                return result, E.emit_json(E.sim_result_payload(result))
            return result, E.sim_result_to_csv(result)

        def check(out):
            result, payload = out
            return (checks.check_sim_digest(self.golden, key, result)
                    or (fmt == "json" and checks.check_json(payload, key)) or None)

        return Op("sim_bundled", call, check)

    def _user_sim(self) -> Op:
        """Platform, network and scenario documents a user wrote.

        They are copies of a bundled board and network under new ids, with
        every measured rate scaled by 2**k and the overhead by 2**-k. Time
        then scales exactly by 2**-k, so the golden value of the bundled
        original checks the result bit for bit.
        """
        S, E, P, rng = self.S, self.E, self.P, self.rng
        pid, nid, engaged, frames, overhead = entry = self._pool_entry()
        scale = 2.0 ** rng.choice(USER_RATE_EXPONENTS)
        tag = rng.randrange(10 ** 6)
        platform_doc = copy.deepcopy(self.docs[pid])
        platform_doc["platform"]["id"] = f"user-{pid}-{tag}"
        rng.shuffle(platform_doc["platform"]["components"])
        network_doc = copy.deepcopy(self.docs[nid])
        body = network_doc["network"]
        body["id"] = f"user-{nid}-{tag}"
        body["throughput"] = {cid: value if isinstance(value, str) else value * scale
                              for cid, value in body["throughput"].items()}
        components = list(engaged)
        rng.shuffle(components)
        scenario_doc = {"platform": platform_doc["platform"]["id"], "network": body["id"],
                        "components": components, "frames": frames,
                        "dispatch_overhead_s": overhead / scale}
        if rng.random() < 0.5:
            scenario_doc = {"scenario": scenario_doc}
        texts = [json.dumps(doc) for doc in (platform_doc, network_doc, scenario_doc)]
        key = checks.pool_key(*entry)

        def call():
            platform = P.load_platform(texts[0])
            network = P.load_network_profile(texts[1])
            scenario = S.load_scenario(texts[2])
            result = S.simulate(scenario, platform, network)
            return result, E.emit_json(E.sim_result_payload(result))

        def check(out):
            result, payload = out
            return (checks.check_sim_digest(self.golden, key, result, scale)
                    or checks.check_json(payload, key))

        return Op("sim_user", call, check)

    def _roofline(self) -> Op:
        """The `socperf roofline` pipeline: series plus CSV, JSON or SVG."""
        pid, cid, nid = case = self.rng.choice(self.roofline_cases)
        fmt = self.rng.choice(checks.ROOFLINE_FORMATS)
        key = checks.roofline_key(*case, fmt)

        def call():
            return roofline_output(self.S, *case, fmt)

        def check(payload):
            return (checks.check_bytes_digest(self.golden, key, payload)
                    or (fmt == "json" and checks.check_json(payload, key)) or None)

        return Op("roofline", call, check)

    def _refused(self, name, call) -> Op:
        def check(_):
            return f"invalid input accepted: {name}"
        return Op("invalid:" + name, call, check, valid=False)

    def _library_case(self, name, **fields) -> Op:
        S, E = self.S, self.E
        engaged = fields.pop("engaged", ("a53", "npu"))
        network = fields.pop("network", "alexnet")

        def call():
            result = S.simulate(S.Scenario("kirin970", network, engaged, 120, **fields))
            return E.emit_json(E.sim_result_payload(result))

        return self._refused(name, call)

    def _document_case(self, name, **changes) -> Op:
        doc = {"platform": "exynos5422", "network": "alexnet",
               "components": ["a7", "t628"], "frames": 120}
        doc.update(changes)
        doc = {k: v for k, v in doc.items() if v is not None}
        text = json.dumps({"scenario": doc})
        return self._refused(name, lambda: self.S.load_scenario(text))

    def _zero_target(self) -> Op:
        S = self.S
        fit = S.calibrate if callable(S.calibrate) else S.calibrate.calibrate

        def call():
            return fit(S.platform_by_id("exynos5422"), S.network_by_id("alexnet"),
                       {"throughput": 0.0}, ("a7", "t628"))

        return self._refused("zero_target", call)

    def run(self, op: Op, outcomes: Outcomes, meter=None) -> float:
        """Run one request; returns its latency in seconds, less meter's probes."""
        meter = meter or refclock.Meter()
        output = error = None
        mark = meter.mark()
        try:
            output = op.call()
        except Exception as exc:  # every exception is an outcome to classify
            error = exc
        elapsed = meter.elapsed(mark)
        if error is None:
            reason = op.check(output)
        elif op.valid:
            reason = f"{op.kind}: {type(error).__name__}: {error}"
        elif isinstance(error, self.rejections):
            reason = None
        else:
            reason = f"{op.kind}: unexpected {type(error).__name__}"
        outcomes.record(reason, op.valid)
        return elapsed


# ---------------------------------------------------------------------------
# Layer probes for the traced run
# ---------------------------------------------------------------------------

GRID_ENGAGED = {1: ("npu",), 2: ("g72", "npu"), 3: ("a73", "g72", "npu"),
                4: ("a53", "a73", "g72", "npu")}
GRID_SIZES = {"n1e4": 10_000, "n1e6": 1_000_000}
GRID_REPEATS = {"n1e4": 11, "n1e6": 1}
FIXED_CALLS = 200
REPLAY_FRAMES = 50_000
REPLAY_REPEATS = 5


def layer_probes(socperf) -> dict:
    """Event-loop cost per frame on a k x N grid, fixed cost, reorder replay."""
    platform = socperf.platform_by_id(checks.STREAM_PLATFORM)
    network = socperf.network_by_id(checks.STREAM_NETWORK)
    out = {}
    for k, engaged in GRID_ENGAGED.items():
        for size, frames in GRID_SIZES.items():
            sc = socperf.Scenario(platform.id, network.id, engaged, frames)
            samples = []
            for _ in range(GRID_REPEATS[size]):
                start = time.perf_counter_ns()
                socperf.simulate(sc, platform, network)
                samples.append((time.perf_counter_ns() - start) / frames)
            out[f"sim.ns_per_frame.k{k}.{size}"] = statistics.median(samples)

    one = socperf.Scenario(platform.id, network.id, checks.STREAM_ENGAGED, 1)
    samples = []
    for _ in range(FIXED_CALLS):
        start = time.perf_counter_ns()
        socperf.simulate(one, platform, network)
        samples.append((time.perf_counter_ns() - start) / 1e3)
    out["sim.fixed_us"] = statistics.median(samples)

    buffer_type = getattr(sys.modules["socperf.sim"], "ReorderBuffer", None)
    out["sim.reorder.push_ns"] = out["sim.reorder.high_water"] = None
    if buffer_type is not None:
        sc = socperf.Scenario(platform.id, network.id, checks.STREAM_ENGAGED, REPLAY_FRAMES)
        events = socperf.simulate(sc, platform, network, record_events=True).events
        order = [e.frame for e in events if e.kind == "complete"]
        del events
        samples = []
        for _ in range(REPLAY_REPEATS):
            buffer = buffer_type()
            push = buffer.push
            start = time.perf_counter_ns()
            for frame in order:
                push(frame)
            samples.append((time.perf_counter_ns() - start) / len(order))
        out["sim.reorder.push_ns"] = statistics.median(samples)
        out["sim.reorder.high_water"] = buffer.high_water
    return out

