import json
import random
from importlib import resources

import pytest

from socperf import (
    BandwidthExceedsBus,
    CacheTrafficInflated,
    CounterTrace,
    DanglingHostCluster,
    DuplicateComponentId,
    LayerMismatch,
    MalformedDocument,
    TraceRecord,
    UnknownComponent,
    attach_trace,
    builtin_trace,
    load_network_profile,
    load_platform,
    load_trace,
    network_by_id,
    platform_by_id,
    quantize_profile,
    serialize_network,
    serialize_platform,
)

DATA = resources.files("socperf") / "data"


def minimal_platform_doc():
    return {
        "platform": {
            "id": "board",
            "bus_peak_bandwidth_gbs": 10.0,
            "components": [
                {
                    "id": "cpu0",
                    "kind": "big-cpu",
                    "peak_compute_gops": 30.0,
                    "sustainable_bandwidth_gbs": 3.0,
                    "active_power_w": 4.0,
                    "frequency_ghz": 2.0,
                },
            ],
        }
    }


def minimal_network_doc():
    return {
        "network": {
            "id": "tiny",
            "layers": [
                {"name": "l0", "kind": "conv", "gops": 1.0, "mem_access_bytes": 1.0},
            ],
            "throughput": {"cpu0": 5.0},
        }
    }


# -- platform loading --------------------------------------------------------

def test_load_bundled_exynos_platform():
    platform = platform_by_id("exynos5422")
    assert platform.bus_peak_bandwidth_gbs == 14.9
    assert {c.id for c in platform.components} == {"a7", "a15", "t628"}
    assert platform.component("t628").host_cluster == "a7"


def test_load_platform_single_component():
    platform = load_platform(minimal_platform_doc())
    assert len(platform.components) == 1
    assert platform.components[0].host_cluster is None


def test_cpu_peak_derived_from_cores_and_frequency():
    doc = minimal_platform_doc()
    comp = doc["platform"]["components"][0]
    del comp["peak_compute_gops"]
    comp["cores"] = 4
    platform = load_platform(doc)
    assert platform.components[0].peak_compute_gops == pytest.approx(4 * 2.0 * 4)


def test_bandwidth_exceeding_bus_rejected():
    doc = minimal_platform_doc()
    doc["platform"]["components"][0]["sustainable_bandwidth_gbs"] = 20.0
    doc["platform"]["bus_peak_bandwidth_gbs"] = 14.9
    with pytest.raises(BandwidthExceedsBus):
        load_platform(doc)


def test_duplicate_component_id_rejected():
    doc = minimal_platform_doc()
    doc["platform"]["components"].append(dict(doc["platform"]["components"][0]))
    with pytest.raises(DuplicateComponentId):
        load_platform(doc)


def test_dangling_host_cluster_rejected():
    doc = minimal_platform_doc()
    doc["platform"]["components"][0]["host_cluster"] = "ghost"
    with pytest.raises(DanglingHostCluster):
        load_platform(doc)


def test_host_cluster_must_be_cpu():
    doc = minimal_platform_doc()
    doc["platform"]["components"].append({
        "id": "gpu0", "kind": "gpu", "peak_compute_gops": 50.0,
        "sustainable_bandwidth_gbs": 5.0, "active_power_w": 2.0,
        "frequency_ghz": 0.6,
    })
    doc["platform"]["components"][0]["host_cluster"] = "gpu0"
    with pytest.raises(DanglingHostCluster):
        load_platform(doc)


def test_malformed_platform_documents():
    with pytest.raises(MalformedDocument):
        load_platform({"nope": {}})
    with pytest.raises(MalformedDocument):
        load_platform('{"platform": {"id": "x"}}')
    with pytest.raises(MalformedDocument):
        load_platform("{ this is not json")
    with pytest.raises(MalformedDocument):
        load_platform('["not", "an", "object"]')


def platform_with(component_changes=(), **body_changes):
    doc = minimal_platform_doc()
    doc["platform"]["components"][0].update(component_changes)
    doc["platform"].update(body_changes)
    return doc


@pytest.mark.parametrize("doc,message", [
    (platform_with({"peak_compute_gops": None, "cores": "4"}),
     "component 'cpu0': cores must be an integer >= 1, got '4'"),
    (platform_with(bus_peak_bandwidth_gbs=1e999),
     "platform 'board': bus_peak_bandwidth_gbs must be finite and > 0, got inf"),
    (platform_with({"active_power_w": True}),
     "component 'cpu0': active_power_w must be finite and > 0, got True"),
    (platform_with({"kind": "dsp"}),
     "component 'cpu0': kind must be one of big-cpu, small-cpu, gpu, npu, "
     "got 'dsp'"),
    (platform_with(components="cpu0"),
     "platform 'board': components must be a non-empty list, got 'cpu0'"),
    (platform_with({"bogus": 1}),
     "platform 'board': component key must be one of id, kind, "
     "peak_compute_gops, cores, sustainable_bandwidth_gbs, active_power_w, "
     "frequency_ghz, host_cluster, got 'bogus'"),
    ({"platform": {}, "bogus": 1},
     "document key must be one of platform, got 'bogus'"),
])
def test_platform_document_values_are_checked(doc, message):
    with pytest.raises(MalformedDocument) as exc:
        load_platform(doc)
    assert str(exc.value) == message


def test_documents_allow_notes_and_refuse_unknown_keys():
    for load, doc in ((load_platform, minimal_platform_doc()),
                      (load_network_profile, minimal_network_doc()),
                      (load_trace, {"trace": {"component_id": "cpu0", "layers": [
                          {"name": "l0", "refill_lines": 1}]}})):
        body = next(iter(doc.values()))
        body["notes"] = "measured"
        load(doc)
        body["bogus"] = 1
        with pytest.raises(MalformedDocument, match="got 'bogus'"):
            load(doc)


def test_error_from_a_document_file_names_the_file_once(tmp_path):
    path = tmp_path / "board.json"
    path.write_text(json.dumps(platform_with(bus_peak_bandwidth_gbs=-1.0)))
    with pytest.raises(MalformedDocument) as exc:
        load_platform(path)
    assert str(exc.value) == (
        f"{path}: platform 'board': bus_peak_bandwidth_gbs must be finite "
        f"and > 0, got -1.0")
    path.write_text("{ not json")
    with pytest.raises(MalformedDocument, match=f"^{path}: not valid JSON"):
        load_platform(str(path))


def test_integer_document_numbers_are_stored_as_floats():
    platform = load_platform(platform_with({"active_power_w": 4}))
    assert type(platform.components[0].active_power_w) is float


# -- network loading ---------------------------------------------------------

@pytest.mark.parametrize("change,message", [
    ({"id": 5}, "network: id must be a non-empty string, got 5"),
    ({"throughput": {"cpu0": "fast"}},
     "network 'tiny' throughput: cpu0 must be finite and > 0, got 'fast'"),
    ({"throughput": [5.0]},
     "network 'tiny': throughput must be an object, got [5.0]"),
    ({"layers": [{"name": "l0", "kind": "conv", "gops": float("nan"),
                  "mem_access_bytes": 1.0}]},
     "layer 'l0': gops must be finite and > 0, got nan"),
    ({"layers": [{"name": "l0", "kind": "conv", "gops": 1.0}]},
     "layer 'l0': mem_access_bytes must be finite and > 0, got None"),
    ({"op_scale": 1.5}, "network 'tiny': op_scale must be in (0, 1], got 1.5"),
    ({"op_scale": 0}, "network 'tiny': op_scale must be in (0, 1], got 0"),
])
def test_network_document_values_are_checked(change, message):
    doc = minimal_network_doc()
    doc["network"].update(change)
    with pytest.raises(MalformedDocument) as exc:
        load_network_profile(doc)
    assert str(exc.value) == message


def test_network_maps_are_read_only():
    profile = network_by_id("alexnet")
    for mapping in (profile.throughput, profile.supported):
        with pytest.raises(TypeError):
            mapping["a7"] = 99.0
    assert profile.rate("a7") == 1.1


def test_load_bundled_alexnet_throughput():
    profile = network_by_id("alexnet")
    assert profile.throughput == {
        "a7": 1.1, "a15": 3.1, "t628": 7.8,
        "a53": 2.2, "a73": 7.6, "g72": 32.5, "npu": 32.5,
    }


def test_single_layer_unit_profile_valid():
    profile = load_network_profile(minimal_network_doc())
    assert profile.total_gops == 1.0
    assert profile.total_mem_access_bytes == 1.0


def test_dram_above_mem_rejected():
    doc = minimal_network_doc()
    doc["network"]["layers"][0]["mem_access_bytes"] = 100.0
    doc["network"]["layers"][0]["dram_access_bytes"] = 200.0
    with pytest.raises(CacheTrafficInflated):
        load_network_profile(doc)


def test_nonpositive_counts_rejected():
    for field, value in (("gops", 0.0), ("mem_access_bytes", -1.0)):
        doc = minimal_network_doc()
        doc["network"]["layers"][0][field] = value
        with pytest.raises(MalformedDocument):
            load_network_profile(doc)


def test_unsupported_pair_is_explicit():
    profile = network_by_id("mobilenet")
    assert profile.supports("npu") is False
    assert "npu" not in profile.throughput
    assert profile.supports("g72") is True


def test_network_totals_are_layer_sums():
    profile = network_by_id("alexnet")
    assert profile.total_gops == pytest.approx(
        sum(l.gops for l in profile.layers), rel=0, abs=0)
    assert profile.total_mem_access_bytes == sum(
        l.mem_access_bytes for l in profile.layers)


# -- round trips --------------------------------------------------------------

def test_platform_round_trip_bundled():
    for pid in ("exynos5422", "kirin970"):
        platform = platform_by_id(pid)
        assert load_platform(serialize_platform(platform)) == platform


def test_network_round_trip_bundled():
    for nid in ("alexnet", "googlenet", "mobilenet", "resnet50", "squeezenet"):
        profile = network_by_id(nid)
        assert load_network_profile(serialize_network(profile)) == profile
        assert "op_scale" not in serialize_network(profile)["network"]
        for bits in (16, 8):
            quantized = quantize_profile(profile, 32, bits)
            assert quantized.quantized
            assert load_network_profile(serialize_network(quantized)) == quantized


def test_serialize_network_writes_back_each_bundled_document():
    for nid in ("alexnet", "googlenet", "mobilenet", "resnet50", "squeezenet"):
        with open(DATA / f"{nid}.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert serialize_network(load_network_profile(doc)) == doc


def test_serialize_platform_writes_back_a_full_document():
    doc = minimal_platform_doc()
    doc["platform"]["notes"] = "every optional key set"
    doc["platform"]["components"].append({
        "id": "gpu0", "kind": "gpu", "peak_compute_gops": 100.0,
        "sustainable_bandwidth_gbs": 5.0, "active_power_w": 2.0,
        "frequency_ghz": 0.8, "host_cluster": "cpu0"})
    assert serialize_platform(load_platform(doc)) == doc


def test_network_round_trip_with_dram_counts():
    profile = attach_trace(network_by_id("alexnet"), builtin_trace())
    assert load_network_profile(serialize_network(profile)) == profile


def test_round_trip_random_documents():
    rng = random.Random(20240811)
    kinds = ("big-cpu", "small-cpu", "gpu", "npu")
    for _ in range(50):
        n_comp = rng.randint(1, 5)
        comps = []
        for i in range(n_comp):
            comps.append({
                "id": f"c{i}",
                "kind": kinds[rng.randrange(4)] if i else "small-cpu",
                "peak_compute_gops": rng.uniform(1, 2000),
                "sustainable_bandwidth_gbs": rng.uniform(0.1, 10),
                "active_power_w": rng.uniform(0.1, 8),
                "frequency_ghz": rng.uniform(0.3, 3),
            })
            if comps[-1]["kind"] in ("gpu", "npu") and rng.random() < 0.5:
                comps[-1]["host_cluster"] = "c0"
        doc = {"platform": {
            "id": "rand", "bus_peak_bandwidth_gbs": 12.0, "components": comps,
        }}
        platform = load_platform(doc)
        assert load_platform(serialize_platform(platform)) == platform

        layers = []
        for i in range(rng.randint(1, 6)):
            mem = rng.uniform(1e3, 1e8)
            layers.append({
                "name": f"l{i}",
                "kind": ("conv", "fc", "other")[rng.randrange(3)],
                "gops": rng.uniform(1e-3, 5),
                "mem_access_bytes": mem,
            })
            if rng.random() < 0.5:
                layers[-1]["dram_access_bytes"] = mem * rng.uniform(0.05, 1.0)
        throughput = {}
        for comp in comps:
            throughput[comp["id"]] = (
                "unsupported" if rng.random() < 0.2 else rng.uniform(0.1, 60))
        net = load_network_profile({"network": {
            "id": "randnet", "layers": layers, "throughput": throughput,
        }})
        assert load_network_profile(serialize_network(net)) == net


def test_load_from_json_text_and_file(tmp_path):
    text = json.dumps(minimal_platform_doc())
    assert load_platform(text).id == "board"
    path = tmp_path / "board.json"
    path.write_text(text)
    assert load_platform(path) == load_platform(text)
    assert load_platform(str(path)) == load_platform(text)
    with open(path) as fh:
        assert load_platform(fh) == load_platform(text)


def test_a_path_string_that_starts_like_json_is_read_as_a_file(
        tmp_path, monkeypatch):
    text = json.dumps(minimal_platform_doc())
    monkeypatch.chdir(tmp_path)
    (tmp_path / "[draft] s.json").write_text(text)
    assert load_platform("[draft] s.json") == load_platform(text)
    (tmp_path / "{bad}.json").write_text("{ not json")
    with pytest.raises(MalformedDocument, match=r"^\{bad\}\.json: not valid"):
        load_platform("{bad}.json")
    # Valid JSON text stays JSON text, even if a file has its name.
    (tmp_path / '["board"]').write_text(text)
    with pytest.raises(MalformedDocument, match="^document must be an object"):
        load_platform('["board"]')


# -- counter traces -----------------------------------------------------------

def test_attach_trace_refill_line_arithmetic():
    profile = load_network_profile({"network": {
        "id": "n", "layers": [
            {"name": "conv9", "kind": "conv", "gops": 2.0,
             "mem_access_bytes": 200_000_000},
        ],
        "throughput": {"cpu0": 3.0},
    }})
    trace = CounterTrace("cpu0", 64, (TraceRecord("conv9", refill_lines=1_562_500),))
    updated = attach_trace(profile, trace)
    assert updated.layers[0].dram_access_bytes == 100_000_000
    assert updated.layers[0].mem_access_bytes == 200_000_000


def test_attach_trace_gpu_external_bytes():
    profile = load_network_profile({"network": {
        "id": "n", "layers": [
            {"name": "l0", "kind": "conv", "gops": 2.0,
             "mem_access_bytes": 5_000_000},
        ],
        "throughput": {"gpu0": 3.0},
    }})
    trace = CounterTrace("gpu0", 64, (
        TraceRecord("l0", ext_read_bytes=1_000_000, ext_write_bytes=500_000),))
    updated = attach_trace(profile, trace)
    assert updated.layers[0].dram_access_bytes == 1_500_000


def test_attach_empty_trace_is_identity():
    profile = network_by_id("alexnet")
    assert attach_trace(profile, CounterTrace("a15")) is profile


def test_attach_trace_unknown_layer():
    profile = network_by_id("alexnet")
    trace = CounterTrace("a15", 64, (TraceRecord("conv9", refill_lines=10),))
    with pytest.raises(LayerMismatch):
        attach_trace(profile, trace)


def test_attach_trace_unknown_component():
    profile = network_by_id("alexnet")
    trace = CounterTrace("m1max", 64, (TraceRecord("conv1", refill_lines=10),))
    with pytest.raises(UnknownComponent):
        attach_trace(profile, trace)


def test_attach_trace_never_inflates_traffic():
    profile = network_by_id("alexnet")
    conv1_mem = profile.layer("conv1").mem_access_bytes
    too_many = int(conv1_mem // 64) + 10
    trace = CounterTrace("a15", 64, (TraceRecord("conv1", refill_lines=too_many),))
    with pytest.raises(CacheTrafficInflated):
        attach_trace(profile, trace)


def test_bundled_trace_respects_mem_bounds():
    profile = attach_trace(network_by_id("alexnet"), builtin_trace())
    for layer in profile.layers:
        assert layer.dram_access_bytes is not None
        assert layer.dram_access_bytes <= layer.mem_access_bytes


def test_trace_record_validation():
    with pytest.raises(MalformedDocument):
        TraceRecord("l0")
    with pytest.raises(MalformedDocument):
        TraceRecord("l0", refill_lines=5, ext_read_bytes=5)
    with pytest.raises(MalformedDocument):
        TraceRecord("l0", refill_lines=-1)
    with pytest.raises(MalformedDocument):
        CounterTrace("c0", cache_line_bytes=0)


def test_load_trace_document():
    trace = load_trace({"trace": {
        "component_id": "a15",
        "cache_line_bytes": 32,
        "layers": [{"name": "conv1", "refill_lines": 100}],
    }})
    assert trace.cache_line_bytes == 32
    assert trace.dram_bytes(trace.layers[0]) == 3200
    with pytest.raises(MalformedDocument,
                       match="^trace 'a15': duplicate layer name 'fc6'$"):
        load_trace({"trace": {"component_id": "a15", "layers": [
            {"name": "fc6", "refill_lines": 10},
            {"name": "fc6", "refill_lines": 99}]}})
