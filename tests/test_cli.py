import hashlib
import json
import math
import random
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path
from xml.etree import ElementTree

import pytest

from socperf import (
    RooflineModel,
    RooflinePoint,
    Scenario,
    UnsupportedFormat,
    builtin_dataset,
    log_spaced,
    network_by_id,
    platform_by_id,
    roofline_series,
    simulate,
)
from socperf.cli import main
from socperf.profiles import shown
from socperf.emit import (
    emit_csv,
    emit_json,
    emit_svg_roofline,
    sig4,
    sim_result_payload,
    sim_result_to_csv,
)
from test_package import run_fresh

README = Path(__file__).resolve().parents[1] / "README.md"

EXYNOS_ALEXNET_ROW = ["1.1", "3.1", "7.8", "2.2", "7.6", "32.5", "32.5"]


def run_cli(args, tmp_path, name="out"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_bytes()


# -- tables ---------------------------------------------------------------------

def test_tables_1_echoes_measured_throughput(tmp_path):
    code, payload = run_cli(["tables", "--which", "1"], tmp_path)
    assert code == 0
    lines = payload.decode().strip().splitlines()
    assert lines[0] == "network,a7,a15,t628,a53,a73,g72,npu"
    rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
    assert rows["alexnet"] == EXYNOS_ALEXNET_ROW
    assert rows["mobilenet"][-1] == "Not Supported"
    assert rows["squeezenet"][-1] == "49.3"
    assert len(rows) == 5


def test_tables_2_reports_fit_and_gain(tmp_path):
    code, payload = run_cli(
        ["tables", "--which", "2", "--format", "json", "--frames", "4000"],
        tmp_path)
    assert code == 0
    rows = json.loads(payload)
    assert len(rows) == 10
    row = next(r for r in rows if r["platform"] == "exynos5422"
               and r["network"] == "alexnet")
    assert row["gain_meas_pct"] == 32.4
    assert row["coexec_sim_imgs_s"] == pytest.approx(10.3, rel=0.02)
    assert abs(row["gain_sim_pct"] - row["gain_meas_pct"]) < 2.0


def test_tables_2_csv_gain_column(tmp_path):
    code, payload = run_cli(
        ["tables", "--which", "2", "--frames", "2000"], tmp_path)
    assert code == 0
    lines = payload.decode().strip().splitlines()
    header = lines[0].split(",")
    gain_col = header.index("gain_meas_pct")
    alexnet = next(l.split(",") for l in lines[1:]
                   if l.startswith("exynos5422,alexnet"))
    assert alexnet[gain_col] == "32.4"


def test_tables_3_reports_composition(tmp_path):
    code, payload = run_cli(
        ["tables", "--which", "3", "--format", "json", "--frames", "4000"],
        tmp_path)
    assert code == 0
    rows = json.loads(payload)
    assert len(rows) == 4
    row = next(r for r in rows if r["network"] == "alexnet")
    assert row["share_meas_g72_pct"] == 47.47
    assert row["share_sim_g72_pct"] == pytest.approx(47.47, abs=3.0)
    assert row["share_sim_npu_pct"] == pytest.approx(49.68, abs=3.0)


# -- simulate ---------------------------------------------------------------------

def test_simulate_flags_json(tmp_path):
    code, payload = run_cli([
        "simulate", "--platform", "exynos5422", "--network", "alexnet",
        "--components", "a7,a15,t628", "--frames", "10000",
    ], tmp_path)
    assert code == 0
    doc = json.loads(payload)
    assert doc["throughput_imgs_per_s"] == pytest.approx(12.0, rel=1e-3)
    assert doc["frames"] == 10000
    assert set(doc["composition"]) == {"a7", "a15", "t628"}


def test_simulate_scenario_file(tmp_path):
    scenario = {
        "platform": "exynos5422", "network": "alexnet",
        "components": ["a15"], "frames": 200,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code, payload = run_cli(["simulate", "--scenario", str(path)], tmp_path)
    assert code == 0
    doc = json.loads(payload)
    assert doc["throughput_imgs_per_s"] == pytest.approx(3.1, rel=1e-6)


# The stdout of jittered runs, recorded while simulate drew its jitter factors
# by random.Random.lognormvariate itself; no other test pins the bytes of a
# jittered payload.
JITTERED_FLAGS = [
    "simulate", "--platform", "exynos5422", "--network", "alexnet",
    "--components", "a7,a15,t628", "--frames", "500", "--cv", "0.2",
    "--seed", "7"]
JITTERED_SCENARIO = {"scenario": {
    "platform": "kirin970", "network": "alexnet",
    "components": ["a53", "a73", "g72", "npu"], "frames": 2000,
    "dispatch_overhead_s": 0.001, "jitter": {"seed": 7, "cv": 0.1}}}


@pytest.mark.parametrize("source, fmt, digest", [
    ("flags", "json",
     "a65a9a61c174039e66e3ffb36ccee3eeba5685660b084e6b69c625447aa8e3bd"),
    ("flags", "csv",
     "5725e29466931d09765caa2108466fe7fe56199f8406b98cece32c3e819c658e"),
    ("scenario", "json",
     "e2a5d1f4ca69fa1457e6d4d0beaf7a97218ffbc4ce2b392d398efd309fe58df6"),
    ("scenario", "csv",
     "6b74b53ee2a05ff240cf0b540fde2179f17f9e33b954b79ee7b0836c97275e8a"),
])
def test_jittered_simulate_stdout_is_pinned(tmp_path, capsysbinary, source,
                                            fmt, digest):
    if source == "flags":
        args = JITTERED_FLAGS
    else:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(JITTERED_SCENARIO))
        args = ["simulate", "--scenario", str(path)]
    assert main(args + ["--format", fmt]) == 0
    out, err = capsysbinary.readouterr()
    assert (hashlib.sha256(out).hexdigest(), err) == (digest, b"")


# The stdout of jitter-free command lines, byte for byte. At 60 and 240
# frames four components take the running sums, whose results must be the
# event loop's; the digests were recorded when both runs took the loop.
KIRIN_X4 = ["--platform", "kirin970", "--network", "alexnet",
            "--components", "a53,a73,g72,npu"]
ROOFLINE_NPU = ["roofline", "--platform", "kirin970", "--component", "npu",
                "--network", "alexnet", "--format"]


@pytest.mark.parametrize("args, digest", [
    (["tables", "--which", "1", "--format", "csv"],
     "6652de0cc736b1c7f16160a2ddb165869dd808b2fa0815544524d8c5a507dc09"),
    (["tables", "--which", "1", "--format", "json"],
     "0344be9ab36f48b8ac70e801c49e7d71762ad3b619c63a377b0fe68b967fb199"),
    (["tables", "--which", "2", "--format", "csv"],
     "0ca453d6aa97917fecd3e85f17cd5295ce6c41f28f35fd53df99c730fdafeace"),
    (["tables", "--which", "2", "--format", "json"],
     "ead65d1a548a8fa19ee3a6b3d6b866de69b6760a84068aae03c4ac9aad0b1c84"),
    (["tables", "--which", "3", "--format", "csv"],
     "3900c3244df49d37cdf3c7f980830b0a022df5f5717852a5b69ef53ca52f9c2a"),
    (["tables", "--which", "3", "--format", "json"],
     "2ebcb3cdcdbde67476f8fabe88230a15b614bc1034e32404a28ad42bd71910a0"),
    (["simulate", *KIRIN_X4, "--frames", "60"],
     "b370c111984e05051935d227337f898d0f9a071abed149dd1d097bf8175e18d4"),
    (["simulate", *KIRIN_X4, "--frames", "240"],
     "5bc361d6b16a0b361b957554fce2ffb3ec50c2ba99fa494d03faa5a208fe5344"),
    (["simulate", *KIRIN_X4, "--frames", "10000"],
     "23fa800b9082d5643ded992dba5cde4990363b2b42355978c782509e0fa532d8"),
    (["simulate", *KIRIN_X4, "--frames", "1000000"],
     "37c0ffeb1b85fd7ea2da67f91c9f6d700d0a9ebd0f6a127530c8a83fa40af1d7"),
    (["simulate", *KIRIN_X4, "--frames", "10000",
      "--contention", "a53=0.8,a73=0.9"],
     "ceaf0b5c11c6ce88f69aa8c19af3e9e97be32eb65e5cf20380284a00dbdbf83a"),
    (["simulate", *KIRIN_X4, "--frames", "100000", "--overhead", "0.001",
      "--format", "csv"],
     "590c5c2300ad195f61f31d35b12d1392b6bcada8b8dbfc70d0122e7b0fa268eb"),
    (["calibrate", *KIRIN_X4, "--target-throughput", "60"],
     "3ec9c8cebd063e19e08574bd9117b7298e1fb4d6f46a77b271a7155581322922"),
    (["calibrate", "--platform", "kirin970", "--network", "googlenet",
      "--components", "a53,g72", "--target-throughput", "20",
      "--target-composition", "a53=0.1,g72=0.9"],
     "62307eee9932bc9102df4e97edec6e6e157154f48a3505aead5e4f50652c0004"),
    ([*ROOFLINE_NPU, "csv"],
     "df00998231134fceb7653fee5c3ba8b41aaf5585735f8020a99e90b578d340ae"),
    ([*ROOFLINE_NPU, "json"],
     "7925ef1f171e89db135fcd774e16fb342df64b3c88b64504655e4e3e1f8594d6"),
    ([*ROOFLINE_NPU, "svg"],
     "176c40ae8ffd658f9567b5291bbd844ba9a98e775ee805a86f034f4210ba4b96"),
], ids=" ".join)
def test_jitter_free_stdout_is_pinned(capsysbinary, args, digest):
    assert main(args) == 0
    out, err = capsysbinary.readouterr()
    assert (hashlib.sha256(out).hexdigest(), err) == (digest, b"")


def test_simulate_csv_per_component_rows(tmp_path):
    code, payload = run_cli([
        "simulate", "--platform", "exynos5422", "--network", "alexnet",
        "--components", "a7,a15", "--frames", "100", "--format", "csv",
    ], tmp_path)
    assert code == 0
    lines = payload.decode().strip().splitlines()
    assert lines[0] == "component,frames,share,busy_s,energy_j"
    assert lines[-1].startswith("total,100,1,")
    assert len(lines) == 4  # header + 2 components + total


def test_simulate_contention_and_overhead_flags(tmp_path):
    code, payload = run_cli([
        "simulate", "--platform", "kirin970", "--network", "alexnet",
        "--components", "a53,g72", "--frames", "40000",
        "--contention", "a53=0.5", "--overhead", "0.001",
    ], tmp_path)
    assert code == 0
    doc = json.loads(payload)
    # steady-state rates 0.5494 + 32.47; the stream tail costs up to
    # (sum/min)/N relative, so 40000 frames keeps it inside 0.2%
    expected = 1 / (1 / 1.1 + 0.001) + 1 / (1 / 32.5 + 0.001)
    assert doc["throughput_imgs_per_s"] == pytest.approx(expected, rel=2e-3)


# -- roofline ---------------------------------------------------------------------

def test_roofline_csv_has_knee(tmp_path):
    code, payload = run_cli([
        "roofline", "--platform", "exynos5422", "--component", "t628",
        "--network", "alexnet", "--format", "csv",
    ], tmp_path)
    assert code == 0
    lines = payload.decode().strip().splitlines()
    assert lines[0] == ("oi_flops_per_byte,roofline_gops,point_label,"
                        "point_oi,point_gops,bound")
    ridge = 57.6 / 6.15
    knee = [l for l in lines[1:] if l.startswith(sig4(ridge))]
    assert knee and ",57.6," in knee[0]
    assert any("alexnet[theoretical]" in l for l in lines)
    assert any("alexnet/fc6" in l for l in lines)


def test_roofline_svg(tmp_path):
    code, payload = run_cli([
        "roofline", "--platform", "exynos5422", "--component", "t628",
        "--format", "svg",
    ], tmp_path, name="plot.svg")
    assert code == 0
    assert payload.startswith(b"<svg")
    assert b"</svg>" in payload
    ElementTree.fromstring(payload)


# -- calibrate ----------------------------------------------------------------------

def test_calibrate_cli_bundled_target(tmp_path):
    code, payload = run_cli([
        "calibrate", "--platform", "exynos5422", "--network", "alexnet",
        "--components", "a7,a15,t628", "--frames", "4000",
    ], tmp_path)
    assert code == 0
    doc = json.loads(payload)
    assert doc["dispatch_overhead_s"] > 0
    assert doc["throughput_imgs_per_s"] == pytest.approx(10.3, rel=0.02)


def test_calibrate_cli_explicit_target(tmp_path):
    code, payload = run_cli([
        "calibrate", "--platform", "exynos5422", "--network", "alexnet",
        "--components", "a7,t628", "--target-throughput", "8.0",
        "--frames", "4000",
    ], tmp_path)
    assert code == 0
    doc = json.loads(payload)
    assert doc["throughput_imgs_per_s"] == pytest.approx(8.0, rel=0.02)


def test_calibrate_cli_no_observation(tmp_path):
    code = main(["calibrate", "--platform", "exynos5422", "--network",
                 "alexnet", "--components", "a7,t628",
                 "--out", str(tmp_path / "x")])
    assert code == 1


# -- exit codes and determinism --------------------------------------------------

def test_unknown_platform_is_validation_error(tmp_path, capsys):
    code = main(["simulate", "--platform", "nope", "--network", "alexnet",
                 "--components", "a7", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "socperf" in capsys.readouterr().err


def test_infeasible_target_is_validation_error(tmp_path):
    code = main(["calibrate", "--platform", "exynos5422", "--network",
                 "alexnet", "--components", "a7,a15,t628",
                 "--target-throughput", "20.0", "--out", str(tmp_path / "x")])
    assert code == 1


def test_missing_scenario_file_is_io_error(tmp_path, capsys):
    absent = tmp_path / "absent.json"
    code = main(["simulate", "--scenario", str(absent),
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert str(absent) in capsys.readouterr().err


def test_scenario_nested_too_deeply_exits_1_naming_the_file(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code = main(["simulate", "--scenario", str(path),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"socperf: {path}: not valid JSON: ")
    assert err.count("\n") == 1


def test_huge_scenario_value_is_shown_in_a_short_line(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"scenario": {
        "platform": "kirin970", "network": "alexnet", "components": ["a53"],
        "frames": [0] * 10**6}}))
    code = main(["simulate", "--scenario", str(path),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"socperf: {path}: scenario: frames must be ")
    assert err.endswith("... (3000000 characters)\n")
    assert err.count("\n") == 1
    assert len(err.encode()) < 256


def test_simulate_without_scenario_names_the_missing_flags(capsys):
    assert main(["simulate", "--platform", "kirin970"]) == 1
    assert capsys.readouterr().err == (
        "socperf: simulate needs --scenario or --platform/--network/"
        "--components (missing: network, components)\n")


def test_simulate_refuses_scenario_flags_beside_a_scenario_file(tmp_path,
                                                               capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(JITTERED_SCENARIO))
    out = tmp_path / "x"
    assert main(["simulate", "--scenario", str(path), "--cv", "0.5",
                 "--frames", "7", "--platform", "kirin970",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "socperf: simulate takes --scenario or scenario flags, not both "
        "(given: --platform, --frames, --cv)\n")
    for flag, value in (("--network", "alexnet"), ("--components", "a53"),
                        ("--overhead", "0"), ("--contention", ""),
                        ("--seed", "0"), ("--frames", "10000")):
        assert main(["simulate", "--scenario", str(path), flag, value,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.endswith(f"(given: {flag})\n")
    assert not out.exists()
    assert main(["simulate", "--scenario", str(path), "--format", "csv",
                 "--out", str(out)]) == 0


@pytest.mark.parametrize("frames", ["7", "10000", "100000000000"])
def test_tables_1_takes_no_frames(tmp_path, capsys, frames):
    out = tmp_path / "x"
    assert main(["tables", "--which", "1", "--frames", frames,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "socperf: tables --which 1 takes no --frames; it prints measured "
        "rates and simulates nothing\n")
    assert not out.exists()


def test_tables_2_and_3_leave_the_frames_rule_to_the_scenario(tmp_path,
                                                              capsys):
    for which in ("2", "3"):
        assert main(["tables", "--which", which, "--frames", "0",
                     "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == (
            "socperf: scenario: frames must be an integer >= 1, got 0\n")


def test_unwritable_output_is_io_error(tmp_path):
    code = main(["tables", "--which", "1", "--out", str(tmp_path)])
    assert code == 2


def test_out_into_missing_directory_is_io_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code = main(["simulate", "--platform", "exynos5422", "--network",
                 "alexnet", "--components", "a15", "--frames", "10",
                 "--out", str(target)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(target) in err
    assert "cannot read" not in err


def test_usage_error_is_one_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--platform", "kirin970", "--network", "alexnet",
              "--components", "a53", "--cv", "-inf"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "socperf: argument --cv: expected one argument\n")


def test_scenario_that_underflows_a_rate_exits_1_naming_it(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "platform": "exynos5422", "network": "resnet50",
        "components": ["a7", "t628"], "frames": 100,
        "contention": {"a7": 5e-324}}))
    code = main(["simulate", "--scenario", str(path),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == (
        "socperf: scenario effective rate: a7 must be finite and > 0, "
        "got 0.0\n")


def test_overhead_that_overflows_exits_1_naming_the_makespan(tmp_path,
                                                              capsys):
    code = main(["simulate", "--platform", "kirin970", "--network", "alexnet",
                 "--components", "a53,npu", "--overhead", "1e308",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == (
        "socperf: scenario result: makespan_s must be finite and > 0, "
        "got inf\n")


def test_target_below_the_overhead_cap_exits_1(tmp_path, capsys):
    code = main(["calibrate", "--platform", "kirin970", "--network", "alexnet",
                 "--components", "a53,npu", "--target-throughput", "1e-300",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("socperf: target 1e-300 imgs/s is below the ")
    assert err.count("\n") == 1


def test_calibrate_rejects_csv_format(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--platform", "kirin970", "--network", "alexnet",
              "--components", "a53,a73,g72,npu", "--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_tables_1_partial_data_dir_names_missing_ids(tmp_path, monkeypatch,
                                                     capsys):
    data = resources.files("socperf") / "data"
    for name in ("exynos5422.json", "alexnet.json"):
        shutil.copy(str(data / name), tmp_path / name)
    monkeypatch.setenv("SOCPERF_DATA", str(tmp_path))
    code = main(["tables", "--which", "1", "--out", str(tmp_path / "t.csv")])
    assert code == 1
    assert capsys.readouterr().err == (
        "socperf: table 1 needs ids the dataset lacks: googlenet, mobilenet, "
        "resnet50, squeezenet, a53, a73, g72, npu\n")


def test_tables_1_skips_a_data_dir_file_that_is_not_json(tmp_path,
                                                         monkeypatch):
    code, bundled = run_cli(["tables", "--which", "1"], tmp_path, "b.csv")
    assert code == 0
    data_dir = tmp_path / "data"
    shutil.copytree(str(resources.files("socperf") / "data"), data_dir)
    (data_dir / "README.txt").write_text("not a document\n")
    monkeypatch.setenv("SOCPERF_DATA", str(data_dir))
    assert run_cli(["tables", "--which", "1"], tmp_path) == (0, bundled)


def test_tables_1_prints_extra_networks_after_the_paper_rows(tmp_path,
                                                             monkeypatch):
    data = resources.files("socperf") / "data"
    for item in data.iterdir():
        if item.name.endswith(".json"):
            shutil.copy(str(item), tmp_path / item.name)
    doc = json.loads((data / "alexnet.json").read_text())
    doc["network"]["id"] = "zzznet"
    (tmp_path / "zzznet.json").write_text(json.dumps(doc))
    monkeypatch.setenv("SOCPERF_DATA", str(tmp_path))
    code, payload = run_cli(["tables", "--which", "1"], tmp_path, "t.csv")
    assert code == 0
    lines = payload.decode().strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == [
        "alexnet", "googlenet", "mobilenet", "resnet50", "squeezenet",
        "zzznet"]
    assert lines[-1].split(",")[1:] == EXYNOS_ALEXNET_ROW


def test_tables_1_prints_a_rate_no_simulation_could_echo(tmp_path,
                                                         monkeypatch):
    # 1e-320 is finite and > 0, but 1/1e-320 overflows to inf.
    data = resources.files("socperf") / "data"
    for item in data.iterdir():
        if item.name.endswith(".json"):
            shutil.copy(str(item), tmp_path / item.name)
    doc = json.loads((data / "alexnet.json").read_text())
    doc["network"]["throughput"]["a7"] = 1e-320
    (tmp_path / "alexnet.json").write_text(json.dumps(doc))
    monkeypatch.setenv("SOCPERF_DATA", str(tmp_path))
    code, payload = run_cli(["tables", "--which", "1"], tmp_path, "t.csv")
    assert code == 0
    alexnet = payload.decode().splitlines()[1].split(",")
    assert alexnet == ["alexnet", "1e-320"] + EXYNOS_ALEXNET_ROW[1:]


@pytest.mark.parametrize("set_value,args,message", [
    (lambda body: body["throughput"].update(a7=1e-320),
     ["calibrate", "--platform", "exynos5422", "--network", "alexnet",
      "--components", "a7", "--target-throughput", "1e-320"],
     "calibrate slowest service time: a7 must be finite and > 0, got inf"),
    (lambda body: body["layers"][0].update(mem_access_bytes=1e-320),
     ["roofline", "--platform", "exynos5422", "--component", "a15",
      "--network", "alexnet"],
     "layer 'conv1': operational intensity over mem_access_bytes must be "
     "finite and > 0, got inf"),
], ids=["calibrate", "roofline"])
def test_subnormal_document_values_exit_1_with_one_line(
        tmp_path, monkeypatch, capsys, set_value, args, message):
    # 1e-320 is finite and > 0, but 1/1e-320 and 1e-320/1e9 are not.
    data = resources.files("socperf") / "data"
    for item in data.iterdir():
        if item.name.endswith(".json"):
            shutil.copy(str(item), tmp_path / item.name)
    doc = json.loads((data / "alexnet.json").read_text())
    set_value(doc["network"])
    (tmp_path / "alexnet.json").write_text(json.dumps(doc))
    monkeypatch.setenv("SOCPERF_DATA", str(tmp_path))
    assert main(args + ["--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"socperf: {message}\n"


@pytest.mark.parametrize("command, message", [
    (["calibrate", "--target-throughput", "1e-306"],
     "target 1e-306 imgs/s is not reached before the run of 'alexnet' on "
     "'exynos5422' ('a7', 'a15') passes the float range at the 0 s overhead; "
     "measurements and model disagree"),
    (["simulate"], "scenario result: makespan_s must be finite and > 0, got inf"),
], ids=["command0", "command1"])
def test_run_past_the_float_range_exits_1_with_one_line(
        tmp_path, monkeypatch, capsys, command, message):
    # Rates of about 1e-306 imgs/s put 10^4 frames past the float range.
    data = resources.files("socperf") / "data"
    for item in data.iterdir():
        if item.name.endswith(".json"):
            shutil.copy(str(item), tmp_path / item.name)
    doc = json.loads((data / "alexnet.json").read_text())
    throughput = doc["network"]["throughput"]
    for cid in throughput:
        throughput[cid] *= 1e-306
    (tmp_path / "alexnet.json").write_text(json.dumps(doc))
    monkeypatch.setenv("SOCPERF_DATA", str(tmp_path))
    args = command[:1] + ["--platform", "exynos5422", "--network", "alexnet",
                          "--components", "a7,a15"] + command[1:]
    assert main(args + ["--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"socperf: {message}\n"


@pytest.mark.parametrize("flag,value", [
    ("--overhead", "nan"), ("--overhead", "inf"),
    ("--cv", "nan"), ("--cv", "inf"),
])
def test_non_finite_scenario_numbers_are_refused(tmp_path, capsys, flag,
                                                 value):
    out = tmp_path / "x.json"
    code = main(["simulate", "--platform", "kirin970", "--network", "alexnet",
                 "--components", "a53,npu", "--frames", "100", "--seed", "1",
                 flag, value, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("socperf: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("target", ["0", "-5", "nan"])
def test_calibrate_refuses_target_that_is_not_finite_and_positive(
        tmp_path, capsys, target):
    code = main(["calibrate", "--platform", "exynos5422", "--network",
                 "alexnet", "--components", "a7,t628",
                 f"--target-throughput={target}",
                 "--out", str(tmp_path / "x.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("socperf: target throughput must be finite and > 0")
    assert err.count("\n") == 1


@pytest.mark.parametrize("args,message", [
    (["simulate", "--platform", "kirin970", "--network", "alexnet",
      "--components", "a53,npu", "--contention", "a53"],
     "socperf: --contention entries look like id=factor, got 'a53'\n"),
    (["calibrate", "--platform", "exynos5422", "--network", "alexnet",
      "--components", "a7,t628", "--target-throughput", "8.0",
      "--target-composition", "a7"],
     "socperf: --target-composition entries look like id=fraction, "
     "got 'a7'\n"),
    (["simulate", "--platform", "kirin970", "--network", "alexnet",
      "--components", "a53,npu", "--contention", "a53=x"],
     "socperf: --contention entries look like id=factor, got 'a53=x'\n"),
    (["simulate", "--platform", "kirin970", "--network", "alexnet",
      "--components", "a53,npu", "--contention", "a53=0.5,a53=0.9"],
     "socperf: --contention names 'a53' twice\n"),
    (["calibrate", "--platform", "exynos5422", "--network", "alexnet",
      "--components", "a7,t628", "--target-throughput", "8.0",
      "--target-composition", "a7=0.1,a7=0.2"],
     "socperf: --target-composition names 'a7' twice\n"),
    (["calibrate", "--platform", "exynos5422", "--network", "alexnet",
      "--components", "a7,a15,t628", "--frames", "400",
      "--target-composition", "a7=0.5"],
     "socperf: --target-composition needs --target-throughput\n"),
    (["calibrate", "--platform", "kirin970", "--network", "alexnet",
      "--components", "a73,g72", "--target-throughput", "20",
      "--target-composition", ","],
     "socperf: --target-composition entries look like id=fraction, got ''\n"),
    (["calibrate", "--platform", "kirin970", "--network", "alexnet",
      "--components", "a73,g72", "--target-throughput", "20",
      "--target-composition", ""],
     "socperf: --target-composition entries look like id=fraction, got ''\n"),
    (["calibrate", "--platform", "kirin970", "--network", "alexnet",
      "--components", "a73,g72", "--target-throughput", "20",
      "--target-composition", "a73=0.25,,g72=0.75"],
     "socperf: --target-composition entries look like id=fraction, got ''\n"),
    (["calibrate", "--platform", "kirin970", "--network", "alexnet",
      "--components", "a73,g72", "--target-throughput", "20",
      "--target-composition", "a73=0.25,g72=0.75,"],
     "socperf: --target-composition entries look like id=fraction, got ''\n"),
    (["simulate", "--platform", "kirin970", "--network", "alexnet",
      "--components", "a53,npu", "--contention", "a53=0.5,"],
     "socperf: --contention entries look like id=factor, got ''\n"),
    (["simulate", "--platform", "kirin970", "--network", "alexnet",
      "--components", "a53,npu", "--contention", ","],
     "socperf: --contention entries look like id=factor, got ''\n"),
    (["simulate", "--platform", "kirin970", "--network", "alexnet",
      "--components", "a53,npu", "--contention", ""],
     "socperf: --contention entries look like id=factor, got ''\n"),
])
def test_malformed_entry_names_its_flag(tmp_path, capsys, args, message):
    assert main(args + ["--out", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("shares,message", [
    ("a7=nan", "target composition: a7 must be in [0, 1], got nan"),
    ("a7=5", "target composition: a7 must be in [0, 1], got 5.0"),
    ("a7=0.1,zz=1",
     "target composition: component must be one of a7, t628, got 'zz'"),
])
def test_calibrate_refuses_composition_shares_outside_the_engagement(
        tmp_path, capsys, shares, message):
    out = tmp_path / "x.json"
    code = main(["calibrate", "--platform", "exynos5422", "--network",
                 "alexnet", "--components", "a7,t628", "--frames", "400",
                 "--target-throughput", "8.0", "--target-composition", shares,
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"socperf: {message}\n"
    assert not out.exists()


def test_calibrate_accepts_a_zero_share(tmp_path):
    code, payload = run_cli([
        "calibrate", "--platform", "exynos5422", "--network", "alexnet",
        "--components", "a7,t628", "--frames", "400",
        "--target-throughput", "8.0", "--target-composition", "a7=0"],
        tmp_path)
    assert code == 0
    assert set(json.loads(payload)["residual_composition"]) == {"a7"}


def test_scenario_file_error_names_the_file(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    base = {"platform": "exynos5422", "network": "alexnet",
            "components": ["a7"], "frames": 100}
    for change, message in (
            ({"frames": 2.7},
             "scenario: frames must be an integer >= 1, got 2.7"),
            ({"host_contention_default": 0.5},
             "scenario key must be one of platform, network, components, "
             "frames, dispatch_overhead_s, contention, jitter, "
             "got 'host_contention_default'")):
        path.write_text(json.dumps({**base, **change}))
        code = main(["simulate", "--scenario", str(path),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == f"socperf: {path}: {message}\n"


def test_scenario_path_that_looks_like_json_is_a_file(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    Path("[draft] s.json").write_text(json.dumps({
        "platform": "exynos5422", "network": "alexnet",
        "components": ["a15"], "frames": 200}))
    assert main(["simulate", "--scenario", "[draft] s.json",
                 "--out", "out.json"]) == 0
    assert json.loads(Path("out.json").read_bytes())["frames"] == 200
    Path("{bad} s.json").write_text("{ not json")
    assert main(["simulate", "--scenario", "{bad} s.json",
                 "--out", "out.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("socperf: {bad} s.json: not valid JSON")
    assert err.count("\n") == 1


@pytest.mark.parametrize("args,message", [
    (["simulate", "--platform", "kirin970", "--network", "alexnet",
      "--components", "a53", "--frames", "10000001"],
     "scenario: frames must be an integer <= 10000000, got 10000001"),
    (["roofline", "--platform", "kirin970", "--component", "a53",
      "--samples", "100001"],
     "OI grid: samples must be an integer <= 100000, got 100001"),
    (["tables", "--which", "2", "--frames", "100000000000"],
     "scenario: frames must be an integer <= 10000000, got 100000000000"),
    (["roofline", "--platform", "kirin970", "--component", "npu",
      "--oi-min", "1", "--oi-max", "1.0000000000000002", "--samples", "5"],
     "OI grid: samples must be few enough for a strictly increasing grid "
     "from oi_min 1.0 to oi_max 1.0000000000000002, got 5"),
    (["roofline", "--platform", "kirin970", "--component", "npu",
      "--oi-min", "5e-324", "--oi-max", "1e-322", "--samples", "40"],
     "OI grid: samples must be few enough for a strictly increasing grid "
     "from oi_min 5e-324 to oi_max 1e-322, got 40"),
])
def test_count_above_its_cap_exits_1(tmp_path, capsys, args, message):
    assert main(args + ["--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"socperf: {message}\n"


def test_byte_identical_reruns(tmp_path):
    _, first = run_cli(["tables", "--which", "1"], tmp_path, "a.csv")
    _, second = run_cli(["tables", "--which", "1"], tmp_path, "b.csv")
    assert first == second
    args = ["simulate", "--platform", "kirin970", "--network", "squeezenet",
            "--components", "a53,a73,g72,npu", "--frames", "3000"]
    _, first = run_cli(args, tmp_path, "c.json")
    _, second = run_cli(args, tmp_path, "d.json")
    assert first == second
    args = ["roofline", "--platform", "exynos5422", "--component", "a15",
            "--network", "alexnet", "--format", "svg"]
    _, first = run_cli(args, tmp_path, "e.svg")
    _, second = run_cli(args, tmp_path, "f.svg")
    assert first == second


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "socperf", "tables", "--which", "1"],
        capture_output=True, timeout=60)
    assert proc.returncode == 0
    assert b"alexnet,1.1,3.1,7.8" in proc.stdout


# -- deferred modules ---------------------------------------------------------------

DEFERRED = ("calibrate", "roofline", "sim")
# Whether a deferred module's top-level code ran, read without loading it.
RAN = (f"[n for n in {DEFERRED!r} if '__builtins__' in "
       "object.__getattribute__(sys.modules['socperf.' + n], '__dict__')]")


@pytest.mark.parametrize("args, ran", [
    (["tables", "--which", "1"], []),
    (["tables", "--which", "2", "--frames", "200"], ["calibrate", "sim"]),
    (["tables", "--which", "3", "--frames", "200"], ["calibrate", "sim"]),
    ([*ROOFLINE_NPU, "svg"], ["roofline"]),
    (["simulate", *KIRIN_X4, "--frames", "60"], ["sim"]),
    (["calibrate", *KIRIN_X4, "--target-throughput", "60", "--frames", "200"],
     ["calibrate", "sim"]),
], ids=" ".join)
def test_a_subcommand_runs_only_the_deferred_modules_it_uses(args, ran):
    assert run_fresh(
        "import io, json, sys\n"
        "import socperf.cli\n"
        f"before = {RAN}\n"
        "sys.stdout = io.TextIOWrapper(io.BytesIO())\n"
        f"code = socperf.cli.main({args!r})\n"
        "sys.stdout = sys.__stdout__\n"
        f"print(json.dumps([before, code, {RAN}]))\n") == [[], 0, ran]


def test_importing_the_cli_puts_every_deferred_module_in_sys_modules():
    # perfbench/ reads these entries, and calibrate's binding of simulate,
    # right after `import socperf.cli`.
    here, same = run_fresh(
        "import json, sys, socperf.cli\n"
        f"here = [f'socperf.{{n}}' in sys.modules for n in {DEFERRED!r}]\n"
        "same = (sys.modules['socperf.calibrate'].simulate\n"
        "        is sys.modules['socperf.sim'].simulate)\n"
        "print(json.dumps([here, same]))\n")
    assert here == [True] * len(DEFERRED) and same


# -- emit -------------------------------------------------------------------------

def test_emit_sim_result_deterministic_and_formats(tmp_path):
    platform = platform_by_id("exynos5422")
    network = network_by_id("alexnet")
    result = simulate(Scenario("exynos5422", "alexnet", ("a7", "a15"), 100),
                      platform, network)
    assert (emit_json(sim_result_payload(result))
            == emit_json(sim_result_payload(result)))
    assert sim_result_to_csv(result).startswith(b"component,")
    args = ["simulate", "--platform", "exynos5422", "--network", "alexnet",
            "--components", "a7,a15", "--frames", "100",
            "--out", str(tmp_path / "x")]
    for fmt in ("svg", "html"):
        with pytest.raises(SystemExit):
            main(args + ["--format", fmt])


def test_custom_platform_sim_result_csv():
    platform = platform_by_id("exynos5422")
    network = network_by_id("alexnet")
    engaged = ("a7", "a15", "t628")
    bundled = simulate(Scenario("exynos5422", "alexnet", engaged, 500),
                       platform, network)
    custom = simulate(Scenario("custom", "alexnet", engaged, 500),
                      replace(platform, id="custom"), network)
    assert sim_result_to_csv(custom) == sim_result_to_csv(bundled)


def test_readme_commands_parse(tmp_path, monkeypatch, capsysbinary):
    """Every socperf command of the README's "Command line" block runs,
    beside the README's scenario file, exits 0 and writes output, and the
    simulate throughput is the one its comment gives."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\s+```sh\n(.*?)```", text, re.S).group(1)
    scenario = re.search(r"Scenario files look like:\s+```json\n(.*?)```",
                         text, re.S).group(1)
    (tmp_path / "scenario.json").write_text(scenario)
    monkeypatch.chdir(tmp_path)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        line, _, comment = line.partition("#")
        if line.strip().startswith("socperf "):
            commands.append((line.split()[1:], comment.strip()))
    assert len(commands) >= 9
    assert [comment for _, comment in commands if comment] == ["~12.0 imgs/s"]
    for argv, comment in commands:
        assert main(argv) == 0, argv
        out, err = capsysbinary.readouterr()
        if "--out" in argv:
            out = Path(argv[argv.index("--out") + 1]).read_bytes()
        assert out and not err, argv
        if comment:
            throughput = json.loads(out)["throughput_imgs_per_s"]
            assert f"~{throughput:.1f} imgs/s" == comment


def test_readme_library_sketch_runs_and_matches_its_comments():
    """The README's "Library sketch" block runs, and its expressions have
    the values its comments give."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library sketch\s+```python\n(.*?)```", text,
                      re.S).group(1)
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    socperf, model = names["socperf"], names["model"]
    assert "model.ridge_oi                          # 9.366 FLOPS/byte" in block
    assert sig4(model.ridge_oi) == "9.366"
    assert "socperf.attainable(model, 2.0)          # 12.3 GOPS/s" in block
    assert socperf.attainable(model, 2.0) == pytest.approx(12.3)
    rates = re.search(r"effective_rates\(.*?\)\s+# (\{.*?\})", block, re.S)
    assert socperf.effective_rates(
        names["scenario"], names["exynos"], names["alexnet"]
    ) == json.loads(rates.group(1)) == {"a7": 1.1, "a15": 3.1, "t628": 7.8}
    assert "# throughput ~= 1.1+3.1+7.8" in block
    assert names["result"].throughput == pytest.approx(12.0, rel=1e-3)


def test_sig4_formatting():
    assert sig4(32.5) == "32.5"
    assert sig4(9.365853658536585) == "9.366"
    assert sig4(0.0001234567) == "0.0001235"
    assert sig4(None) == ""
    assert sig4(12) == "12"
    # A finite value is written as the largest 4-digit text not past it.
    for value in RANGE_EDGES:
        assert float(sig4(value)) == math.copysign(1.797e308, value)
        assert sig4(value) == emit_json(value).decode().strip()


# The top of the float range, either sign: 1.7975e308 and the float below it
# have the 4-digit text 1.797e+308; the float above it and the largest float
# would have 1.798e+308, which parses to inf.
RANGE_EDGES = [sign * edge for sign in (1.0, -1.0) for edge in (
    math.nextafter(1.7975e308, 0.0), 1.7975e308,
    math.nextafter(1.7975e308, math.inf), sys.float_info.max)]


def reference_json(payload) -> bytes:
    """emit_json as it was written before its one-pass writer: a copy of
    the payload with each float rounded, then json.dumps(indent=2)."""
    def rounded(value):
        if isinstance(value, float):  # 1.798e+308 would parse to inf
            return float(f"{value:.4g}".replace("1.798e+308", "1.797e+308"))
        if isinstance(value, dict):
            return {k: rounded(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [rounded(v) for v in value]
        return value
    return (json.dumps(rounded(payload), indent=2, allow_nan=False)
            + "\n").encode("utf-8")


def reference_csv(rows) -> bytes:
    """emit_csv as it was written before its one-pass writer: row by
    row, each row's keys checked against the header before its cells."""
    if not rows:
        raise UnsupportedFormat("a CSV report needs at least one row")
    header = rows[0].keys()
    lines = [",".join(header)]
    for i, row in enumerate(rows):
        if row.keys() != header:
            raise UnsupportedFormat(
                f"CSV row {i} has keys {shown(list(row))}, not the header "
                f"{shown(list(header))}")
        lines.append(",".join([sig4(row[key]) for key in header]))
    return ("\n".join(lines) + "\n").encode("utf-8")


XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def reference_svg(rows, title: str) -> bytes:
    """emit_svg_roofline as it was written before its coordinates were
    computed inline: px and py called once per point."""
    width, height = 720, 480
    line = [(r["oi_flops_per_byte"], r["roofline_gops"])
            for r in rows if r["point_label"] is None]
    points = [(r["point_oi"], r["point_gops"], r["point_label"], r["bound"])
              for r in rows if r["point_label"] is not None]
    if not line:
        raise UnsupportedFormat("roofline SVG needs at least the grid rows")

    xs = [x for x, _ in line] + [p[0] for p in points]
    ys = [y for _, y in line] + [p[1] for p in points]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys) * 0.5, max(ys) * 2.0
    margin = 56
    log_lo_x, log_lo_y = math.log10(lo_x), math.log10(lo_y)
    span_x = math.log10(hi_x) - log_lo_x or 1.0
    span_y = math.log10(hi_y) - log_lo_y or 1.0

    def px(x: float) -> float:
        return margin + (math.log10(x) - log_lo_x) / span_x * (width - 2 * margin)

    def py(y: float) -> float:
        return height - margin - (math.log10(y) - log_lo_y) / span_y * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title.translate(XML_TEXT)}</text>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">'
        f'operational intensity (FLOPS/byte, log)</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {height / 2:.1f})">'
        f'performance (GOPS/s, log)</text>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#888"/>',
    ]
    path = " ".join(
        f"{'M' if i == 0 else 'L'}{px(x):.2f},{py(y):.2f}"
        for i, (x, y) in enumerate(line)
    )
    parts.append(f'<path d="{path}" fill="none" stroke="#1f3b99" stroke-width="2"/>')
    for oi, gops, label, bound in points:
        color = "#b22222" if bound == "memory" else "#1a7a1a"
        parts.append(
            f'<circle cx="{px(oi):.2f}" cy="{py(gops):.2f}" r="4" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{px(oi) + 6:.2f}" y="{py(gops) - 6:.2f}" '
            f'font-family="sans-serif" font-size="10">{label.translate(XML_TEXT)}</text>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def cli_invocations(fmt: str):
    """A CLI invocation for each kind of payload the CLI builds in fmt
    (calibrate writes JSON only)."""
    sim = ["simulate", "--platform", "exynos5422", "--network", "alexnet",
           "--components", "a7,a15,t628", "--frames", "500"]
    fit = ["calibrate", "--platform", "kirin970", "--network", "googlenet",
           "--frames", "500"]
    runs = [["tables", "--which", "1"]]
    runs += [["tables", "--which", which, "--frames", "500"] for which in ("2", "3")]
    runs += [sim, sim + ["--contention", "a15=0.8,t628=0.9", "--overhead", "1e-3"],
             sim + ["--cv", "0.2", "--seed", "7"]]
    if fmt == "json":
        runs += [fit + ["--components", "a53,a73,g72,npu"],
                 fit + ["--components", "a73,g72", "--target-throughput", "20",
                        "--target-composition", "a73=0.25,g72=0.75"]]
    platforms, networks = builtin_dataset()
    for platform in platforms:
        for comp in platform.components:
            roofline = ["roofline", "--platform", platform.id, "--component", comp.id]
            runs.append(roofline + ["--samples", "500"])
            runs += [roofline + ["--network", net.id] for net in networks
                     if net.supports(comp.id)]
    return [run + ["--format", fmt] for run in runs]


def cli_payloads(monkeypatch, tmp_path, fmt: str) -> list:
    """The payload of each of cli_invocations(fmt), as handed to its emitter."""
    payloads = []
    emit = {"json": emit_json, "csv": emit_csv}[fmt]

    def recording(payload):
        payloads.append(payload)
        return emit(payload)
    for module in ("cli", "emit"):  # sim_result_to_csv calls emit_csv in emit
        monkeypatch.setattr(f"socperf.{module}.emit_{fmt}", recording)
    runs = cli_invocations(fmt)
    for args in runs:
        assert main(args + ["--out", str(tmp_path / "out")]) == 0
    assert len(payloads) == len(runs)
    return payloads


def test_emit_json_matches_json_dumps_on_every_cli_payload(tmp_path,
                                                           monkeypatch):
    for payload in cli_payloads(monkeypatch, tmp_path, "json"):
        assert emit_json(payload) == reference_json(payload)


def test_emit_csv_matches_the_row_wise_writer_on_every_cli_payload(tmp_path,
                                                                   monkeypatch):
    for payload in cli_payloads(monkeypatch, tmp_path, "csv"):
        assert emit_csv(payload) == reference_csv(payload)


def test_emit_svg_roofline_matches_the_reference_on_every_cli_roofline(
        tmp_path, monkeypatch):
    tables = []

    def recording(rows, title):
        tables.append((rows, title))
        return emit_svg_roofline(rows, title)
    monkeypatch.setattr("socperf.cli.emit_svg_roofline", recording)
    runs = [args for args in cli_invocations("svg") if args[0] == "roofline"]
    for args in runs:
        assert main(args + ["--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out").read_bytes() == reference_svg(*tables[-1])
    assert len(tables) == len(runs) == 41


def spaced(lo: float, hi: float, samples: int) -> list[float]:
    """log_spaced's samples, repeats included, for a range too narrow for them."""
    step = ((log_hi := math.log10(hi)) - (log_lo := math.log10(lo))) / (samples - 1)
    return [lo, *[10 ** e if (e := log_lo + i * step) < log_hi else hi
                  for i in range(1, samples - 1)], hi]


def test_emit_svg_roofline_matches_the_reference_on_seeded_tables():
    """Rooflines from subnormal to near the top of the float range, with
    labels to escape: the same bytes as the reference wherever its log axis
    can be drawn, and UnsupportedFormat wherever it cannot."""
    rng = random.Random(34)
    labels = ["conv1", "a<b>&c", "&amp;", '"q" \u00e9', "<<>>"]
    drawn, refused = 0, set()
    for _ in range(300):
        scale = 10.0 ** rng.choice((-320, -310, -300, -20, 0, 20, 300, 306, 307))
        model = RooflineModel("c", scale * 10 ** rng.uniform(-3, 1),
                              scale * 10 ** rng.uniform(-3, 1))
        lo = 10 ** rng.uniform(-300, 3) if rng.random() < 0.7 else 5e-324
        # Near 5e-324 the grid's samples round onto the same subnormals,
        # which log_spaced refuses: keep each distinct one.
        grid = sorted(set(spaced(lo, lo * 10 ** rng.uniform(1, 6), rng.randint(2, 40))))
        points = [RooflinePoint(f"{rng.choice(labels)}{i}", 10 ** rng.uniform(-3, 3),
                                scale * 10 ** rng.uniform(-3, 1),
                                rng.choice(("memory", "compute")),
                                rng.choice(("theoretical", "empirical")))
                  for i in range(rng.randint(0, 8))]
        rows = roofline_series(model, points, grid)
        title = f"{rng.choice(labels)} roofline"
        ys = [row["point_gops"] if row["point_label"] else row["roofline_gops"]
              for row in rows]
        if min(ys) * 0.5 > 0.0 and max(ys) * 2.0 < math.inf:
            assert emit_svg_roofline(rows, title) == reference_svg(rows, title)
            drawn += 1
        else:
            with pytest.raises(UnsupportedFormat) as exc:
                emit_svg_roofline(rows, title)
            refused.add(str(exc.value).split(" must")[0])
    assert drawn > 150 and refused == {
        "roofline SVG: half the least performance",
        "roofline SVG: twice the greatest performance"}


def random_json_value(rng: random.Random, depth: int):
    leaves = ["", "plain", "\u00e9t\u00e9 \u2028 \U0001f600", "\x00\x1f\"\\/\t\n",
              -0.0, 0.0, 5e-324, 1e300, -1e300, 2.5, 10**30, -(10**40), 0, 7,
              True, False, None, (), [], {}]
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.3:
            return math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(-1074, 1023))
        return rng.choice(leaves)
    children = [random_json_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    kind = rng.randrange(3)
    if kind == 0:  # mostly str keys, some that json.dumps converts
        keys = [rng.choice((1, -2, 2.5, True, None)) if rng.random() < 0.1
                else f"{rng.choice(leaves[:4])}{i}" for i in range(len(children))]
        return dict(zip(keys, children))
    return children if kind == 1 else tuple(children)


def test_emit_json_matches_json_dumps_on_a_seeded_corpus():
    rng = random.Random(15)
    for _ in range(300):
        value = random_json_value(rng, 5)
        assert emit_json(value) == reference_json(value)


# Keys a row layout must write as text: format characters, a quote, and
# the non-str keys json.dumps converts (1 and True are one dict key).
TABLE_KEYS = ["a", "100%", "%s", "%%", "{0}", "}{", '"q"', "\u00e9", 1, 2.5, True, None]
FloatSub = type("FloatSub", (float,), {})
IntSub = type("IntSub", (int,), {})
# A dict subclass whose items() json.dumps and the row-wise writer follow.
DictSub = type("DictSub", (dict,), {"items": lambda self: [*dict.items(self)][::-1]})


def random_float(rng: random.Random) -> float:
    return rng.choice((0.0, -0.0, 5e-324, 1234.0, 9999.5, 1e16, *RANGE_EDGES,
                       math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(-1074, 1023)),
                       10 ** rng.uniform(-5, 5)))


def random_column(rng: random.Random, size: int, nested: bool) -> list:
    """size cells of one kind: a single scalar type, a mix of them, or
    (when nested) containers, full and empty."""
    kind = rng.randrange(8 if nested else 6)
    cell = [lambda: random_float(rng),
            lambda: rng.choice((None, random_float(rng), "x/y[theoretical]")),
            lambda: rng.choice((True, False)),
            lambda: rng.choice((rng.randint(-10**20, 10**20), IntSub(7))),
            lambda: FloatSub(random_float(rng)),
            lambda: rng.choice(("", "memory", "tab\t\"q\"")),
            lambda: random_json_value(rng, 2),
            lambda: rng.choice(((), [], {}))][kind]
    return [cell() for _ in range(size)]


def random_table(rng: random.Random, keys: list, nested: bool = True) -> list:
    """1-50 dict rows built from one key list, so they share one key order."""
    size = rng.randint(1, 50)
    columns = [random_column(rng, size, nested) for _ in keys]
    return [dict(zip(keys, cells)) for cells in zip(*columns)]


def test_emit_json_matches_json_dumps_on_seeded_tables():
    rng = random.Random(25)
    for case in range(150):
        table = random_table(rng, rng.sample(TABLE_KEYS, rng.randint(1, 6)))
        if case % 5 == 1:  # one row with the same keys in another order
            i = rng.randrange(len(table))
            table[i] = dict(reversed(table[i].items()))
        if case % 5 == 2:
            i = rng.randrange(len(table))
            table[i] = DictSub(table[i])
        for value in (table, {"t": tuple(table), "u": [table, 1.5]}):
            assert emit_json(value) == reference_json(value)
    nested = [{"a": 1.0}]
    for _ in range(60):
        nested = [{"k": 2.5, "t": nested}, {"k": None, "t": []}]
    assert emit_json(nested) == reference_json(nested)


def test_emit_csv_matches_the_row_wise_writer_on_seeded_tables():
    rng = random.Random(26)
    str_keys = [key for key in TABLE_KEYS if isinstance(key, str)]
    for case in range(300):
        keys = rng.sample(str_keys, rng.randint(1, 6))
        table = random_table(rng, keys, nested=False)
        if case % 3 == 1:  # one row with the same keys in another order
            i = rng.randrange(len(table))
            table[i] = dict(reversed(table[i].items()))
        assert emit_csv(table) == reference_csv(table)
    for table in ([{}], [{}] * 3):  # no keys: each row is an empty line
        assert emit_csv(table) == reference_csv(table)
        assert emit_json(table) == reference_json(table)
    mixed = [{}, {"a": 1}]
    assert refusal(emit_csv, mixed) == refusal(reference_csv, mixed)
    assert emit_json(mixed) == reference_json(mixed)


def outcome(write, payload):
    """What write returns on payload, or the class and text of what it
    raises."""
    try:
        return write(payload)
    except (ValueError, TypeError, UnsupportedFormat) as exc:
        return type(exc), str(exc)


def refusal(write, payload) -> tuple:
    """The class and text of what write raises on payload."""
    got = outcome(write, payload)
    if isinstance(got, bytes):
        pytest.fail(f"{write.__name__} wrote a table with a bad value")
    return got


def test_a_bad_table_is_refused_at_its_first_bad_value_in_row_order():
    """NaN, infinities, a set and bytes in a table, and then a row whose
    keys are not the header's, after the first bad cell or before it: both
    writers raise what the row-wise ones raise. A finite float whose 4-digit
    text would parse to inf is drawn among them: both write it as 1.797e+308."""
    rng = random.Random(27)
    big = 1.7976e308  # finite, its 4-digit text 1.798e+308 is not: written as 1.797e+308
    bad = [math.nan, math.inf, -math.inf, big, {1}, b"x"]
    str_keys = [key for key in TABLE_KEYS if isinstance(key, str)]
    written = 0
    for case in range(200):
        keys = rng.sample(str_keys, rng.randint(1, 6))
        table = random_table(rng, keys, nested=False)
        spots = sorted(rng.randrange(len(table)) for _ in range(rng.randint(1, 3)))
        for i in spots:
            table[i][rng.choice(keys)] = rng.choice(bad)
        refused = any(v is b for row in table for v in row.values() for b in bad if b is not big)
        for write, reference in ((emit_json, reference_json), (emit_csv, reference_csv)):
            got = outcome(write, table)
            assert got == outcome(reference, table)
            if not refused:  # big was the only bad value drawn
                assert b"1.797e+308" in got
                written += 1
        at = rng.randint(spots[0] + 1, len(table)) if case % 2 else rng.randint(0, spots[0])
        table.insert(at, {"extra": 1.0})
        assert outcome(emit_json, table) == outcome(reference_json, table)
        assert refusal(emit_csv, table) == refusal(reference_csv, table)
    assert written


def test_emit_json_writes_every_float_as_json_dumps_of_the_rounded_float():
    """A float whose 4-significant-digit text is fixed-point is written as
    that text, any other as the repr of the rounded float: both must equal
    reference_json, bare and inside a dict and a list."""
    edges = [9.9995e-05, 1e-4, 9999.4, 9999.5, 1e4, 1234.0, 5.0, 0.0, -0.0,
             5e-324, 1e16, 1e300] + RANGE_EDGES
    rng = random.Random(20)
    # About 48 floats of either sign in each of the 2,098 binades, the 52
    # subnormal ones included.
    seeded = [math.ldexp(rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 2.0), exp)
              for exp in range(-1074, 1024) for _ in range(48)]
    values = edges + seeded
    for value in edges + seeded[::8]:  # six a binade: json.dumps is slow bare
        assert emit_json(value) == reference_json(value)
    assert emit_json(values) == reference_json(values)
    mapping = {f"k{i}": value for i, value in enumerate(values)}
    assert emit_json(mapping) == reference_json(mapping)
    # Every text of at most 4 significant digits in [1e-4, 1e4), either sign.
    decimals = [sign * float(f"{digits}e{exp}") for sign in (1.0, -1.0)
                for digits in range(1000, 10000) for exp in range(-7, 1)]
    assert emit_json(decimals) == reference_json(decimals)
    subclassed = [type("Sub", (float,), {})(value) for value in edges]
    assert emit_json(subclassed) == reference_json(subclassed)


@pytest.mark.parametrize("depth", range(5))
def test_emit_json_writes_empty_containers_at_every_depth(depth):
    for empty in ({}, [], ()):
        value = empty
        for _ in range(depth):
            value = {"k": [1, value, ()], "e": {}}
        assert emit_json(value) == reference_json(value)


def test_emit_json_refuses_non_finite_values():
    for bad in (float("nan"), float("inf"), -float("inf")):
        value = bad
        for _ in range(4):
            with pytest.raises(ValueError):
                emit_json(value)
            value = {"x": [1.0, value]}


def test_emit_json_refuses_types_json_has_no_form_for():
    for bad in ({1}, b"x", object()):
        value = bad
        for _ in range(3):
            for write in (emit_json, reference_json):
                with pytest.raises(TypeError):
                    write(value)
            value = {"x": [1.0, value]}


def test_emit_svg_roofline_escapes_its_text():
    point = RooflinePoint("conv<1>&x", 2.0, 1.0, "memory", "theoretical")
    rows = roofline_series(RooflineModel("c", 1.0, 10.0), [point],
                           log_spaced(0.1, 100.0, 9))
    root = ElementTree.fromstring(emit_svg_roofline(rows, "a&b"))
    texts = [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "a&b" in texts and "conv<1>&x[theoretical]" in texts


def test_emit_svg_roofline_needs_grid_rows():
    with pytest.raises(UnsupportedFormat) as exc:
        emit_svg_roofline([], "empty")
    assert str(exc.value) == "roofline SVG needs at least the grid rows"


def test_emit_csv_layout():
    payload = emit_csv([{"a": 1, "b": None}, {"a": "x", "b": 2.5}])
    assert payload == b"a,b\n1,\nx,2.5\n"


@pytest.mark.parametrize("rows,error,message", [
    ([], UnsupportedFormat, "a CSV report needs at least one row"),
    ([{"a": 1}, {"a": 2, "b": 3}], UnsupportedFormat,
     "CSV row 1 has keys ['a', 'b'], not the header ['a']"),
    ([{"a": 1, "b": 2}, {"b": 3}], UnsupportedFormat,
     "CSV row 1 has keys ['b'], not the header ['a', 'b']"),
    ([{"a": math.nan}], ValueError, "CSV cells must be finite, got nan"),
    ([{"a": 1.0}, {"a": -math.inf}], ValueError,
     "CSV cells must be finite, got -inf"),
    ([1, 2], UnsupportedFormat, "CSV row 0 is not a mapping, got 1"),
    ([{"a": 1}, 5], UnsupportedFormat, "CSV row 1 is not a mapping, got 5"),
])
def test_emit_csv_refuses_what_is_not_one_table(rows, error, message):
    with pytest.raises(error) as exc:
        emit_csv(rows)
    assert str(exc.value) == message
