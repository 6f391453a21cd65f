"""Seeded fuzz of the command line over mutated documents and flag values.

Each case starts from a valid scenario, platform or network document, or a
valid command line, and changes one thing: it drops a key, adds an unknown
key, or puts a value of another type, NaN, an infinity, a negative, a
huge number, a subnormal or the largest float in place of a value. Every
case runs through main() in this process and must exit 0, 1 or 2 with no
traceback and at most one line on stderr; on exit 0 it must have written
strict JSON.

Flag values are passed as --flag=value. Integer flags (--frames, --seed,
--samples) get only small values:
argparse refuses what int() cannot parse with a usage message, and a huge
frame or sample count asks for that much memory.

The library fuzz builds synthetic two-component boards whose numbers are
drawn from 1e-320 (subnormal) to 1e308 and calls Scenario, simulate,
calibrate and the roofline functions on them; each call must return finite
numbers or raise a SocPerfError. It keeps N <= 200 frames, so it
allocates little. One pinned case, an equal pair of rates near 1e200, must
also fit its target.
"""

import copy
import dataclasses
import json
import math
import os
import random
from collections.abc import Mapping
from importlib import resources

import socperf
from socperf.cli import main

SEED = 20261018
DOCUMENT_CASES = 120
FLAG_CASES = 60

ODD_VALUES = (math.nan, math.inf, -math.inf, -1, 0, 1e300, -1e300, True, "7",
              None, [], {}, "unsupported")
ODD_FLAG_VALUES = ("nan", "inf", "-inf", "-1", "0", "1e300", "1e-320",
                   "1.7976931348623157e308")
DATA = os.path.join(os.path.dirname(socperf.__file__), "data")

SCENARIO = {"platform": "exynos5422", "network": "alexnet",
            "components": ["a7", "a15", "t628"], "frames": 200,
            "dispatch_overhead_s": 0.001, "contention": {"a7": 0.5},
            "jitter": {"seed": 7, "cv": 0.1}}
EXYNOS_ALEXNET = ["--platform", "exynos5422", "--network", "alexnet"]
DOCUMENT_COMMANDS = (
    ["simulate", *EXYNOS_ALEXNET, "--components", "a7,a15,t628",
     "--frames", "200"],
    ["simulate", *EXYNOS_ALEXNET, "--components", "a15,t628",
     "--frames", "200", "--format", "csv"],
    ["roofline", "--platform", "exynos5422", "--component", "t628",
     "--network", "alexnet", "--format", "json"],
    ["calibrate", *EXYNOS_ALEXNET, "--components", "a7,t628", "--frames",
     "200", "--target-throughput", "8.0", "--target-composition", "a7=0.1"],
)
# (command line, flag whose value is replaced, values it may take)
FLAG_COMMANDS = (
    (["simulate", "--platform", "kirin970", "--network", "alexnet",
      "--components", "a53,g72,npu", "--frames", "200", "--seed", "3",
      "--cv", "0.1", "--overhead", "0.001", "--contention", "a53=0.5"],
     {"--cv": ODD_FLAG_VALUES, "--overhead": ODD_FLAG_VALUES,
      "--contention": [f"a53={v}" for v in ODD_FLAG_VALUES] + ["a53", "=1"],
      "--frames": ("-1", "0"), "--seed": ("-1", "0"),
      "--components": ("", ",", "a53,a53", "zz", "a53,,npu")}),
    (["calibrate", *EXYNOS_ALEXNET, "--components", "a7,t628", "--frames",
      "200", "--target-throughput", "8.0", "--target-composition", "a7=0.1"],
     {"--target-throughput": ODD_FLAG_VALUES,
      "--target-composition": [f"a7={v}" for v in ODD_FLAG_VALUES]
      + ["t628=1,a7=1", "zz=0.5"],
      "--frames": ("-1", "0")}),
    (["roofline", "--platform", "exynos5422", "--component", "a15",
      "--network", "alexnet", "--format", "svg", "--oi-min", "0.1",
      "--oi-max", "1000", "--samples", "20"],
     {"--oi-min": ODD_FLAG_VALUES, "--oi-max": ODD_FLAG_VALUES,
      "--samples": ("-1", "0", "1")}),
)


def value_paths(node, prefix=()):
    """The path of every value below node, containers included."""
    if isinstance(node, dict):
        entries = list(node.items())
    elif isinstance(node, list):
        entries = list(enumerate(node))
    else:
        return
    for key, child in entries:
        yield prefix + (key,)
        yield from value_paths(child, prefix + (key,))


def mutate(doc, rng):
    """A copy of doc with one change, and a description of the change."""
    doc = copy.deepcopy(doc)
    path = rng.choice(list(value_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    op = rng.choice(("drop", "add", "swap"))
    value = rng.choice(ODD_VALUES)
    if op == "drop":
        del parent[path[-1]]
    elif op == "add" and isinstance(parent, dict):
        parent["bogus"] = value
    elif op == "add":
        parent.append(value)
    else:
        parent[path[-1]] = value
    return doc, f"{op} {'/'.join(map(str, path))} {value!r}"


def bundled(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return json.load(fh)


def document_cases(rng, tmp_path):
    """(argv, SOCPERF_DATA or None, description) of each document case."""
    docs = {"scenario": SCENARIO, "exynos5422": bundled("exynos5422.json"),
            "alexnet": bundled("alexnet.json")}
    for i in range(DOCUMENT_CASES):
        name = rng.choice(sorted(docs))
        doc, change = mutate(docs[name], rng)
        case_dir = tmp_path / f"case{i}"
        case_dir.mkdir()
        if name == "scenario":
            path = case_dir / "scenario.json"
            path.write_text(json.dumps(doc))
            yield ["simulate", "--scenario", str(path)], None, f"scenario: {change}"
            continue
        for other in ("exynos5422", "alexnet"):
            (case_dir / f"{other}.json").write_text(
                json.dumps(doc if other == name else docs[other]))
        yield rng.choice(DOCUMENT_COMMANDS), str(case_dir), f"{name}: {change}"


def flag_cases(rng):
    for _ in range(FLAG_CASES):
        base, choices = rng.choice(FLAG_COMMANDS)
        flag = rng.choice(sorted(choices))
        value = rng.choice(choices[flag])
        at = base.index(flag)
        # --flag=value, so argparse takes "-inf" as a value, not an option
        argv = base[:at] + [f"{flag}={value}"] + base[at + 2:]
        yield argv, None, f"{flag}={value}"


def strict_json(payload: bytes):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(payload, parse_constant=refuse)


def test_cli_fuzz_exits_cleanly(tmp_path, monkeypatch, capsys):
    rng = random.Random(SEED)
    cases = list(document_cases(rng, tmp_path)) + list(flag_cases(rng))
    out = tmp_path / "out"
    failures = []
    for argv, data_dir, change in cases:
        if data_dir is None:
            monkeypatch.delenv("SOCPERF_DATA", raising=False)
        else:
            monkeypatch.setenv("SOCPERF_DATA", data_dir)
        if out.exists():
            out.unlink()
        try:
            code = main(argv + ["--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback at the command line
            code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        problem = None
        if code not in (0, 1, 2):
            problem = f"exit {code}"
        elif "Traceback" in err or err.count("\n") > 1:
            problem = f"stderr {err!r}"
        elif code == 0:
            fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
            if err:
                problem = f"stderr on success {err!r}"
            elif fmt == "json":
                try:
                    strict_json(out.read_bytes())
                except ValueError as exc:
                    problem = f"stdout is not JSON: {exc}"
        if problem:
            failures.append(f"{change} -> {problem}")
    assert not failures, "\n".join(failures)


def test_cli_at_the_float_range_edges_exits_cleanly(tmp_path, monkeypatch, capsys):
    """Command lines that once ended in a traceback or an exit 1: a
    subnormal share target made the seed's overhead infinite, an OI range
    up to the largest float overflowed 10 ** log10(oi_max), and the largest
    float's 4-digit text 1.798e+308 parsed to inf in JSON. An SVG whose log
    performance axis cannot reach half the least value (it was "math domain
    error") or twice the greatest (it drew every point at one height)
    exits 1 naming the value, where CSV and JSON write the table."""
    out = tmp_path / "out"
    assert main(["calibrate", "--platform", "kirin970", "--network", "alexnet",
                 "--components", "a53,npu", "--target-throughput", "30",
                 "--target-composition", "npu=1e-320", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert math.isfinite(strict_json(out.read_bytes())["objective"])
    roofline = ["roofline", "--platform", "kirin970", "--component", "npu",
                "--oi-min", "2", "--oi-max", "1.7976931348623157e308",
                "--samples", "2", "--out", str(out)]
    assert main(roofline + ["--format", "csv"]) == 0
    assert capsys.readouterr().err == ""
    rows = out.read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["2", "225.9", "1.797e+308"]
    assert main(roofline + ["--format", "json"]) == 0
    assert capsys.readouterr().err == ""
    table = strict_json(out.read_bytes())
    assert [row["oi_flops_per_byte"] for row in table] == [2.0, 225.9, 1.797e308]
    assert not list(non_finite(table))
    subnormal = ["roofline", "--platform", "exynos5422", "--component", "a7",
                 "--oi-min", "5e-324", "--oi-max", "1e-323", "--samples", "2",
                 "--out", str(out)]
    assert main(subnormal + ["--format", "csv"]) == 0
    assert out.read_text().splitlines()[1].split(",")[:2] == ["4.941e-324", "0"]
    assert main(subnormal + ["--format", "svg"]) == 1
    assert capsys.readouterr().err == (
        "socperf: roofline SVG: half the least performance must be > 0, got 0.0\n")
    # A component whose ceiling is 1e308: twice it is inf.
    data = tmp_path / "data"
    data.mkdir()
    for item in (resources.files("socperf") / "data").iterdir():
        if item.name.endswith(".json"):
            (data / item.name).write_text(item.read_text())
    doc = json.loads((data / "kirin970.json").read_text())
    doc["platform"]["bus_peak_bandwidth_gbs"] = 1e300
    npu = doc["platform"]["components"][3]
    npu.update(sustainable_bandwidth_gbs=1e300, peak_compute_gops=1e308)
    (data / "kirin970.json").write_text(json.dumps(doc))
    monkeypatch.setenv("SOCPERF_DATA", str(data))
    huge = ["roofline", "--platform", "kirin970", "--component", "npu",
            "--oi-min", "0.1", "--oi-max", "1e10", "--samples", "5", "--out", str(out)]
    assert main(huge + ["--format", "json"]) == 0
    assert strict_json(out.read_bytes())[-1]["roofline_gops"] == 1e308
    assert main(huge + ["--format", "svg"]) == 1
    assert capsys.readouterr().err == (
        "socperf: roofline SVG: twice the greatest performance must be finite, "
        "got 1e+308\n")


# -- library calls at extreme magnitudes ----------------------------------------

LIBRARY_CASES = 200
MAGNITUDES = (1e-320, 1e-300, 1e-200, 1e-20, 1.0, 1e20, 1e200, 1e308)


def non_finite(value, path="result"):
    """The path of every float below value that is not finite."""
    if dataclasses.is_dataclass(value):
        value = vars(value)
    if isinstance(value, Mapping):
        for key, child in value.items():
            yield from non_finite(child, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, child in enumerate(value):
            yield from non_finite(child, f"{path}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        yield f"{path} = {value}"


def checked(problems, what, call, *args, **kwargs):
    """call(*args, **kwargs), or None if it raised a SocPerfError. Any
    other exception, and any non-finite number in the result, is added
    to problems."""
    try:
        result = call(*args, **kwargs)
    except socperf.SocPerfError:
        return None
    except Exception as exc:  # a traceback for a library caller
        problems.append(f"{what}: {type(exc).__name__}: {exc}")
        return None
    problems.extend(f"{what}: {path}" for path in non_finite(result))
    return result


def synthetic_board(rng, draw):
    """A CPU cluster c0 and a second CPU cluster or a GPU, every number
    drawn. The bus peak is drawn at or above both bandwidths, so the board
    always loads."""
    bandwidths = [draw(), draw()]
    kinds = ("big-cpu", rng.choice(("small-cpu", "gpu")))
    components = [{
        "id": f"c{i}", "kind": kind, "peak_compute_gops": draw(),
        "sustainable_bandwidth_gbs": bandwidth, "active_power_w": draw(),
        "frequency_ghz": 1.0}
        for i, (kind, bandwidth) in enumerate(zip(kinds, bandwidths))]
    bus = rng.choice([m for m in MAGNITUDES if m >= max(bandwidths)])
    return socperf.load_platform({"platform": {
        "id": "synth", "bus_peak_bandwidth_gbs": bus,
        "components": components}})


def test_library_calls_at_extreme_magnitudes_stay_finite():
    rng = random.Random(SEED)
    problems = []
    returned = dict.fromkeys(("simulate", "calibrate", "roofline_series"), 0)
    for case in range(LIBRARY_CASES):
        drawn = []

        def draw():
            drawn.append(rng.choice(MAGNITUDES))
            return drawn[-1]

        platform = synthetic_board(rng, draw)
        rates = {"c0": draw(), "c1": draw()}
        network = socperf.load_network_profile({"network": {
            "id": "synthnet", "throughput": rates, "layers": [
                {"name": "l0", "kind": "conv", "gops": draw(),
                 "mem_access_bytes": draw()}]}})
        overhead, derating = draw(), draw()
        low, high = sorted((draw(), draw()))
        engaged = rng.choice((("c0",), ("c1",), ("c0", "c1")))
        frames = rng.choice((1, 2, 3, 50, 200))
        what = f"case {case} {engaged} N={frames} drawn={drawn}"

        scenario = checked(problems, f"{what} Scenario", socperf.Scenario,
                           "synth", "synthnet", engaged, frames,
                           dispatch_overhead_s=overhead,
                           contention={engaged[0]: derating})
        if scenario is not None and checked(
                problems, f"{what} simulate", socperf.simulate, scenario,
                platform, network) is not None:
            returned["simulate"] += 1

        total = sum(rates[c] for c in engaged)
        target = {"throughput": rng.choice(
            MAGNITUDES + (0.1 * total, 0.5 * total, 0.9 * total))}
        if rng.random() < 0.5:
            target["composition"] = {
                rng.choice(engaged): rng.choice((0.0, 0.5, 1.0))}
        if checked(problems, f"{what} calibrate {target}", socperf.calibrate,
                   platform, network, target, engaged,
                   frames=frames) is not None:
            returned["calibrate"] += 1

        model = socperf.RooflineModel.for_component(
            platform.component(engaged[0]))
        points = checked(problems, f"{what} points", lambda: (
            socperf.layer_points(network, model)
            + [socperf.network_point(network, model)])) or []
        grid = checked(problems, f"{what} grid", socperf.log_spaced, low,
                       high, rng.choice((2, 5, 20)))
        if grid is not None and checked(
                problems, f"{what} roofline_series", socperf.roofline_series,
                model, points, grid) is not None:
            returned["roofline_series"] += 1

    # An equal pair near 1e200 is drawn too rarely to count on; its fit
    # once ended at objective 50 (a 100% miss), finite but wrong.
    network = socperf.load_network_profile({"network": {
        "id": "synthnet", "throughput": {"c0": 1e200, "c1": 1e200},
        "layers": [{"name": "l0", "kind": "conv", "gops": 1.0,
                    "mem_access_bytes": 1.0}]}})
    fit = checked(problems, "equal 1e200 pair calibrate", socperf.calibrate,
                  synthetic_board(rng, lambda: 1.0), network,
                  {"throughput": 1e200}, ("c0", "c1"), frames=200)
    if fit is not None and not fit.objective < 1e-6:
        problems.append(f"equal 1e200 pair: objective {fit.objective}")
    assert not problems, "\n".join(problems)
    # Many cases get past the input checks of every call.
    assert all(n >= LIBRARY_CASES // 10 for n in returned.values()), returned
