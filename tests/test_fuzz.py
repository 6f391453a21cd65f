"""Seeded fuzz of the command line over mutated documents and flag values.

Each case starts from a valid scenario, platform or network document, or a
valid command line, and changes one thing: it drops a key, adds an unknown
key, or puts a value of another type, NaN, an infinity, a negative or a
huge number in place of a value. Every case runs through main() in this
process and must exit 0, 1 or 2 with no traceback and at most one line on
stderr; on exit 0 it must have written strict JSON.

Flag values are passed as --flag=value. Integer flags (--frames, --seed,
--samples) get only small values:
argparse refuses what int() cannot parse with a usage message, and a huge
frame or sample count asks for that much memory.
"""

import copy
import json
import math
import os
import random

import socperf
from socperf.cli import main

SEED = 20261018
DOCUMENT_CASES = 120
FLAG_CASES = 60

ODD_VALUES = (math.nan, math.inf, -math.inf, -1, 0, 1e300, -1e300, True, "7",
              None, [], {}, "unsupported")
ODD_FLAG_VALUES = ("nan", "inf", "-inf", "-1", "0", "1e300")
DATA = os.path.join(os.path.dirname(socperf.__file__), "data")

SCENARIO = {"platform": "exynos5422", "network": "alexnet",
            "components": ["a7", "a15", "t628"], "frames": 200,
            "dispatch_overhead_s": 0.001, "contention": {"a7": 0.5},
            "host_contention_default": 0.9, "jitter": {"seed": 7, "cv": 0.1}}
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
