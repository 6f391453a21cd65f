import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

from socperf import Scenario, network_by_id, platform_by_id, simulate
from socperf.cli import build_parser, main
from socperf.emit import (
    emit_csv,
    emit_json,
    sig4,
    sim_result_payload,
    sim_result_to_csv,
)

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
        "platform": "kirin970", "network": "alexnet",
        "components": ["a53", "g72", "npu"], "frames": 100,
        "host_contention_default": 1e-200}))
    code = main(["simulate", "--scenario", str(path),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == (
        "socperf: scenario effective rate: a53 must be finite and > 0, "
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
    path.write_text(json.dumps({"platform": "exynos5422", "network": "alexnet",
                                "components": ["a7"], "frames": 2.7}))
    code = main(["simulate", "--scenario", str(path),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"socperf: {path}: scenario: frames must be an integer >= 1, "
        f"got 2.7\n")


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


def test_readme_commands_parse():
    """Every socperf command of the README's "Command line" block parses."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\s+```sh\n(.*?)```", text, re.S).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("socperf "):
            commands.append(line.split()[1:])
    assert len(commands) >= 9
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]


def test_sig4_formatting():
    assert sig4(32.5) == "32.5"
    assert sig4(9.365853658536585) == "9.366"
    assert sig4(0.0001234567) == "0.0001235"
    assert sig4(None) == ""
    assert sig4(12) == "12"


def test_emit_json_refuses_non_finite_values():
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            emit_json({"x": [1.0, value]})


def test_emit_csv_layout():
    payload = emit_csv([{"a": 1, "b": None}, {"a": "x", "b": 2.5}])
    assert payload == b"a,b\n1,\nx,2.5\n"
