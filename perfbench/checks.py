"""Output checks for the benchmark, and the golden values they compare to.

Golden values were recorded from the jitter-free simulator and the CLI at
the commit that introduced the benchmark (``python3 perfbench/checks.py
--record`` rewrites them; do that only when the model changes on
purpose). Every checker returns ``None`` when the output is right and a
one-line reason when it is not.
"""

import hashlib
import itertools
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

# Paper bounds on a calibrated fit (acceptance criteria 3 and 4).
FIT_BOUND_PCT = 2.0
SHARE_BOUND_PP = 3.0

# Pool of jitter-free simulations the request mix draws from. Every entry
# has a golden digest, so each result the mix produces is checked exactly.
POOL_FRAMES = (60, 240)
POOL_OVERHEADS = (0.0, 0.0025)

# Long-stream scenario (kirin970/alexnet, full SoC) and its golden sizes.
STREAM_PLATFORM = "kirin970"
STREAM_NETWORK = "alexnet"
STREAM_ENGAGED = ("a53", "a73", "g72", "npu")
STREAM_GOLDEN_FRAMES = (1_000_000, 200_000)

ROOFLINE_FORMATS = ("csv", "json", "svg")
ROOFLINE_GRID = (0.1, 1000.0, 97)  # the CLI defaults: oi-min, oi-max, samples


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def pool_key(platform_id, network_id, engaged, frames, overhead) -> str:
    return f"{platform_id}/{network_id}/{'+'.join(engaged)}/{frames}/{overhead!r}"


def roofline_key(platform_id, component_id, network_id, fmt) -> str:
    return f"{platform_id}/{component_id}/{network_id or '-'}/{fmt}"


def engagements(platforms, networks):
    """Every (platform, network, engaged) the bundled boards can run."""
    for platform in platforms:
        ids = [c.id for c in platform.components]
        for network in networks:
            for k in range(1, len(ids) + 1):
                for engaged in itertools.combinations(ids, k):
                    if all(network.supports(cid) for cid in engaged):
                        yield platform.id, network.id, engaged


def roofline_cases(platforms, networks):
    for platform in platforms:
        for comp in platform.components:
            for network in (None,) + tuple(networks):
                if network is not None and not network.supports(comp.id):
                    continue
                yield platform.id, comp.id, None if network is None else network.id


# ---------------------------------------------------------------------------
# Simulation results
# ---------------------------------------------------------------------------

def sim_fields(result, scale: float = 1.0) -> dict:
    """The jitter-free SimResult fields the benchmark holds bit-identical.

    scale multiplies the time fields; it is a power of two when a result
    of a rescaled user document is compared with its bundled original,
    so the multiplication is exact.
    """
    frames = result.frames_per_component
    return {
        "makespan_s": result.makespan_s * scale,
        "frames": {cid: frames[cid] for cid in sorted(frames)},
        "busy_s": {cid: result.busy_time_s[cid] * scale
                   for cid in sorted(result.busy_time_s)},
        "high_water": result.reorder_high_water,
    }


def sim_digest(fields: dict) -> str:
    text = "|".join([
        repr(fields["makespan_s"]),
        ",".join(f"{cid}:{n}" for cid, n in fields["frames"].items()),
        ",".join(f"{cid}:{t!r}" for cid, t in fields["busy_s"].items()),
        str(fields["high_water"]),
    ])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_sim_digest(golden: dict, key: str, result, scale: float = 1.0):
    want = golden["sims"].get(key)
    if want is None:
        return f"no golden value for {key}"
    got = sim_digest(sim_fields(result, scale))
    if got != want:
        return f"{key}: SimResult fields differ from golden ({got} != {want})"
    return None


def check_sim_fields(want: dict, result, label: str):
    got = sim_fields(result)
    for name in ("makespan_s", "frames", "busy_s", "high_water"):
        if got[name] != want[name]:
            return f"{label}: {name} is {got[name]!r}, golden {want[name]!r}"
    return None


def check_jitter_result(result, frames: int, engaged):
    """A jittered run has no golden value; check what must hold anyway."""
    done = result.frames_per_component
    if sorted(done) != sorted(engaged) or sum(done.values()) != frames:
        return f"jitter run: frames per component {done} do not sum to {frames}"
    if not (math.isfinite(result.makespan_s) and result.makespan_s > 0):
        return f"jitter run: makespan {result.makespan_s!r} is not finite and > 0"
    if not all(math.isfinite(t) and t > 0 for t in result.busy_time_s.values()):
        return "jitter run: busy time is not finite and > 0"
    if not 1 <= result.reorder_high_water <= frames:
        return f"jitter run: high water {result.reorder_high_water} out of range"
    return None


def check_events(result, frames: int):
    """Recorded events: a claim and a completion per frame, releases in order."""
    events = result.events
    if events is None:
        return "events run: no events recorded"
    claims = sum(1 for e in events if e.kind == "claim")
    completes = sum(1 for e in events if e.kind == "complete")
    released = [e.frame for e in events if e.kind == "release"]
    if claims != frames or completes != frames:
        return f"events run: {claims} claims and {completes} completions for {frames} frames"
    if released != list(range(frames)):
        return "events run: frames were not released in sequence order"
    return None


# ---------------------------------------------------------------------------
# Emitted documents
# ---------------------------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"JSON holds {name}")


def check_json(payload: bytes, label: str):
    """Strict JSON: NaN and Infinity are not JSON."""
    try:
        json.loads(payload, parse_constant=_reject_constant)
    except ValueError as exc:
        return f"{label}: {exc}"
    return None


def check_bytes_digest(golden: dict, key: str, payload: bytes):
    want = golden["roofline"].get(key)
    if want is None:
        return f"no golden value for {key}"
    got = hashlib.sha256(payload).hexdigest()[:16]
    if got != want:
        return f"{key}: output differs from golden ({got} != {want})"
    return None


# ---------------------------------------------------------------------------
# CLI tables
# ---------------------------------------------------------------------------

def parse_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def table_residuals(text: str) -> tuple[float, float]:
    """Worst |throughput residual| in % and worst |share residual| in pp."""
    rows = parse_csv(text)
    resid = max(abs(float(row["residual_throughput_pct"])) for row in rows)
    share = 0.0
    for row in rows:
        for name, value in row.items():
            if name.startswith("share_sim_"):
                meas = row["share_meas_" + name[len("share_sim_"):]]
                share = max(share, abs(float(value) - float(meas)))
    return resid, share


def check_table(which: int, text: str, golden: dict):
    if which == 1:
        if text != golden["table1_csv"]:
            return "tables --which 1: output is not byte-identical to golden"
        return None
    try:
        rows = parse_csv(text)
        resid, share = table_residuals(text)
    except (IndexError, KeyError, ValueError) as exc:
        return f"tables --which {which}: cannot parse output ({exc!r})"
    expected = 10 if which == 2 else 4
    if len(rows) != expected:
        return f"tables --which {which}: {len(rows)} rows, expected {expected}"
    if not resid <= FIT_BOUND_PCT:
        return f"tables --which {which}: throughput residual {resid}% exceeds {FIT_BOUND_PCT}%"
    if not share <= SHARE_BOUND_PP:
        return f"tables --which {which}: share residual {share} pp exceeds {SHARE_BOUND_PP} pp"
    return None


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------

def record(root: str) -> dict:
    """Compute every golden value from the program under root/src."""
    import subprocess

    import stages

    socperf = stages.bind(os.path.join(root, "src"))

    platforms, networks = socperf.builtin_dataset()
    sims = {}
    for pid, nid, engaged in engagements(platforms, networks):
        for frames in POOL_FRAMES:
            for overhead in POOL_OVERHEADS:
                result = socperf.simulate(socperf.Scenario(
                    pid, nid, engaged, frames, dispatch_overhead_s=overhead))
                sims[pool_key(pid, nid, engaged, frames, overhead)] = \
                    sim_digest(sim_fields(result))
    stream = {}
    for frames in STREAM_GOLDEN_FRAMES:
        result = socperf.simulate(socperf.Scenario(
            STREAM_PLATFORM, STREAM_NETWORK, STREAM_ENGAGED, frames))
        stream[str(frames)] = sim_fields(result)
    roofline = {}
    for case in roofline_cases(platforms, networks):
        for fmt in ROOFLINE_FORMATS:
            payload = stages.roofline_output(socperf, *case, fmt)
            roofline[roofline_key(*case, fmt)] = hashlib.sha256(payload).hexdigest()[:16]
    table1 = subprocess.run(
        [sys.executable, "-m", "socperf", "tables", "--which", "1"],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        cwd=root, capture_output=True, check=True, text=True).stdout
    return {"table1_csv": table1, "stream": stream, "roofline": roofline, "sims": sims}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/checks.py --record")
    golden = record(os.path.dirname(HERE))
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden['sims'])} simulation and "
          f"{len(golden['roofline'])} roofline golden values to {GOLDEN_PATH}")
