import builtins
import json
import os
import shutil

import pytest

import socperf
from socperf import builtin_dataset, network_by_id, platform_by_id
from socperf.cli import main
from socperf.dataset import (
    COEXEC_OBSERVATIONS,
    TABLE1_COMPONENT_ORDER,
    TABLE1_NETWORK_ORDER,
    find_observation,
    observations_for_table,
)

# Measured images/s of each network on each component at peak frequency.
THROUGHPUT_GOLDEN = {
    "alexnet":    {"a7": 1.1, "a15": 3.1, "t628": 7.8, "a53": 2.2, "a73": 7.6, "g72": 32.5, "npu": 32.5},
    "googlenet":  {"a7": 0.9, "a15": 3.4, "t628": 5.2, "a53": 3.0, "a73": 7.1, "g72": 19.9, "npu": 34.4},
    "mobilenet":  {"a7": 1.5, "a15": 5.7, "t628": 8.5, "a53": 6.5, "a73": 17.7, "g72": 29.1, "npu": None},
    "resnet50":   {"a7": 0.2, "a15": 1.3, "t628": 2.1, "a53": 1.5, "a73": 2.8, "g72": 8.4, "npu": 21.9},
    "squeezenet": {"a7": 1.5, "a15": 5.0, "t628": 8.0, "a53": 6.8, "a73": 15.7, "g72": 43.0, "npu": 49.3},
}


def test_every_throughput_cell_exact():
    _, networks = builtin_dataset()
    by_id = {n.id: n for n in networks}
    assert set(by_id) == set(THROUGHPUT_GOLDEN)
    checked = 0
    for nid, row in THROUGHPUT_GOLDEN.items():
        profile = by_id[nid]
        for comp_id, value in row.items():
            if value is None:
                assert not profile.supports(comp_id)
            else:
                assert profile.throughput[comp_id] == value
            checked += 1
    assert checked == 35


def test_component_constants_exact():
    exynos = platform_by_id("exynos5422")
    kirin = platform_by_id("kirin970")
    assert exynos.bus_peak_bandwidth_gbs == 14.9
    assert exynos.component("a15").sustainable_bandwidth_gbs == 3.44
    assert exynos.component("a7").sustainable_bandwidth_gbs == 0.49
    assert exynos.component("t628").sustainable_bandwidth_gbs == 6.15
    assert exynos.component("t628").peak_compute_gops == 57.6
    assert kirin.component("g72").peak_compute_gops == 244.8
    assert kirin.component("npu").peak_compute_gops == 1920.0
    # CPU peaks derive from cores x GHz x 4 FP32 ops per cycle.
    assert exynos.component("a7").peak_compute_gops == pytest.approx(22.4)
    assert exynos.component("a15").peak_compute_gops == pytest.approx(32.0)
    assert kirin.component("a53").peak_compute_gops == pytest.approx(28.8)
    assert kirin.component("a73").peak_compute_gops == pytest.approx(37.76)
    # Cluster frequencies.
    assert exynos.component("a7").frequency_ghz == 1.4
    assert exynos.component("a15").frequency_ghz == 2.0
    assert kirin.component("a53").frequency_ghz == 1.8
    assert kirin.component("a73").frequency_ghz == 2.36


def test_power_estimates_keep_documented_ratios():
    # Absolute watts are estimates; the ratios they must respect are the
    # board-reported Big:Small power ratios (10x and 4x) and the A53
    # cluster drawing roughly twice the A7 cluster.
    exynos = platform_by_id("exynos5422")
    kirin = platform_by_id("kirin970")
    a7 = exynos.component("a7").active_power_w
    a15 = exynos.component("a15").active_power_w
    a53 = kirin.component("a53").active_power_w
    a73 = kirin.component("a73").active_power_w
    assert a15 / a7 == pytest.approx(10.0)
    assert a73 / a53 == pytest.approx(4.0)
    assert a53 / a7 == pytest.approx(2.0)


def test_hosting_relationships():
    exynos = platform_by_id("exynos5422")
    kirin = platform_by_id("kirin970")
    assert exynos.component("t628").host_cluster == "a7"
    assert kirin.component("g72").host_cluster == "a53"
    assert kirin.component("npu").host_cluster == "a53"
    def hosted(cpu_id):
        return [c.id for c in kirin.components if c.host_cluster == cpu_id]
    assert hosted("a53") == ["g72", "npu"]
    assert hosted("a73") == []


def test_coexec_observations_golden():
    assert len(COEXEC_OBSERVATIONS) == 14
    assert len(observations_for_table(2)) == 10
    assert len(observations_for_table(3)) == 4
    obs = find_observation("exynos5422", "alexnet", ("a7", "a15", "t628"))
    assert obs.coexec_imgs_s == 10.3 and obs.gain_pct == 32.4
    obs = find_observation("kirin970", "mobilenet", ("a53", "a73", "g72"))
    assert obs.coexec_imgs_s == 51.5 and obs.gain_pct == 77.1
    obs = find_observation("kirin970", "alexnet", ("a53", "a73", "g72", "npu"))
    assert obs.coexec_imgs_s == 63.7
    assert obs.composition_pct == {"a73": 1.90, "a53": 0.95, "g72": 47.47, "npu": 49.68}
    obs = find_observation("kirin970", "squeezenet", ("a53", "a73", "g72", "npu"))
    assert obs.coexec_imgs_s == 95.1 and obs.gain_pct == 92.9
    assert find_observation("kirin970", "mobilenet", ("a53", "a73", "g72", "npu")) is None


def test_table1_order_covers_both_socs():
    assert TABLE1_COMPONENT_ORDER == ("a7", "a15", "t628", "a53", "a73", "g72", "npu")


def test_data_dir_override(tmp_path, monkeypatch):
    from importlib import resources

    src = resources.files("socperf") / "data"
    for name in ("exynos5422.json", "alexnet.json"):
        shutil.copy(str(src / name), tmp_path / name)
    doc = json.loads((tmp_path / "exynos5422.json").read_text())
    doc["platform"]["bus_peak_bandwidth_gbs"] = 99.0
    (tmp_path / "exynos5422.json").write_text(json.dumps(doc))

    monkeypatch.setenv("SOCPERF_DATA", str(tmp_path))
    platforms, networks = socperf.builtin_dataset()
    assert [p.id for p in platforms] == ["exynos5422"]
    assert platforms[0].bus_peak_bandwidth_gbs == 99.0
    assert [n.id for n in networks] == ["alexnet"]

    monkeypatch.delenv("SOCPERF_DATA")
    platforms, _ = socperf.builtin_dataset()
    assert platforms[0].bus_peak_bandwidth_gbs == 14.9


def bundled_copy(tmp_path, names=("exynos5422.json", "alexnet.json")):
    src = os.path.join(os.path.dirname(socperf.__file__), "data")
    for name in names:
        shutil.copy(os.path.join(src, name), tmp_path / name)


def test_data_dir_is_parsed_once_until_it_changes(tmp_path, monkeypatch):
    first = builtin_dataset()

    def no_file(*args, **kwargs):
        raise AssertionError("the dataset was read again")

    with monkeypatch.context() as m:
        m.setattr(builtins, "open", no_file)
        m.setattr(os, "listdir", no_file)
        second = builtin_dataset()
    assert second == first
    second[0].clear()  # the caller's lists are its own
    assert builtin_dataset() == first

    bundled_copy(tmp_path)
    doc = json.loads((tmp_path / "exynos5422.json").read_text())
    doc["platform"]["bus_peak_bandwidth_gbs"] = 99.0
    (tmp_path / "exynos5422.json").write_text(json.dumps(doc))
    monkeypatch.setenv("SOCPERF_DATA", str(tmp_path))
    assert builtin_dataset()[0][0].bus_peak_bandwidth_gbs == 99.0


def test_data_dir_failure_is_not_cached(tmp_path, monkeypatch):
    bundled_copy(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    monkeypatch.setenv("SOCPERF_DATA", str(tmp_path))
    for _ in range(2):
        with pytest.raises(socperf.MalformedDocument, match="not valid JSON"):
            builtin_dataset()
    bad.unlink()
    platforms, _ = builtin_dataset()
    assert [p.id for p in platforms] == ["exynos5422"]


def test_bundled_directory_loads_in_table_order():
    platforms, networks = builtin_dataset()
    assert [p.id for p in platforms] == ["exynos5422", "kirin970"]
    assert [n.id for n in networks] == list(TABLE1_NETWORK_ORDER)


@pytest.mark.parametrize("content,message", [
    ("{ not json", "not valid JSON"),
    ("[1, 2]", "document must be an object, got [1, 2]"),
    ('{"board": {}}',
     "document kind must be one of platform, network, trace, got 'board'"),
    ('{"platform": {"id": "x"}, "network": {}}',
     "document key must be one of platform, got 'network'"),
])
def test_data_dir_document_errors_name_the_file(tmp_path, monkeypatch,
                                                content, message):
    bundled_copy(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    monkeypatch.setenv("SOCPERF_DATA", str(tmp_path))
    with pytest.raises(socperf.MalformedDocument) as exc:
        builtin_dataset()
    assert str(exc.value).startswith(f"{bad}: {message}")


def test_data_dir_skips_trace_documents(tmp_path, monkeypatch):
    bundled_copy(tmp_path, ("exynos5422.json", "alexnet.json",
                            "alexnet_a15_trace.json"))
    monkeypatch.setenv("SOCPERF_DATA", str(tmp_path))
    platforms, networks = builtin_dataset()
    assert ([p.id for p in platforms], [n.id for n in networks]) == (
        ["exynos5422"], ["alexnet"])


def test_data_dir_trace_documents_are_checked(tmp_path, monkeypatch, capsys):
    bundled_copy(tmp_path)
    bad = tmp_path / "zz_trace.json"
    bad.write_text(json.dumps({"trace": {"component_id": 5, "bogus": True}}))
    monkeypatch.setenv("SOCPERF_DATA", str(tmp_path))
    assert main(["tables", "--which", "1", "--out", str(tmp_path / "t")]) == 1
    assert capsys.readouterr().err == (
        f"socperf: {bad}: trace key must be one of component_id, "
        f"cache_line_bytes, layers, notes, got 'bogus'\n")


@pytest.mark.parametrize("copy_name,kind,item_id", [
    ("zz_board.json", "platform", "exynos5422"),
    ("zz_net.json", "network", "alexnet"),
])
def test_data_dir_id_in_two_files_names_both(tmp_path, monkeypatch,
                                             copy_name, kind, item_id):
    bundled_copy(tmp_path)
    original = tmp_path / ("exynos5422.json" if kind == "platform"
                           else "alexnet.json")
    shutil.copy(original, tmp_path / copy_name)
    monkeypatch.setenv("SOCPERF_DATA", str(tmp_path))
    with pytest.raises(socperf.MalformedDocument) as exc:
        builtin_dataset()
    assert str(exc.value) == (f"{tmp_path / copy_name}: {kind} id "
                              f"{item_id!r} is also defined in {original}")


def test_data_dir_bad_json_exits_1_naming_the_file(tmp_path, monkeypatch,
                                                   capsys):
    bundled_copy(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    monkeypatch.setenv("SOCPERF_DATA", str(tmp_path))
    assert main(["tables", "--which", "1", "--out", str(tmp_path / "t")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"socperf: {bad}: not valid JSON")
    assert err.count("\n") == 1
