import json
import random
from dataclasses import fields
from importlib import resources
from pathlib import Path

import pytest

from socperf import (
    BandwidthExceedsBus,
    CacheTrafficInflated,
    CounterTrace,
    DuplicateComponentId,
    LayerMismatch,
    LayerProfile,
    MalformedDocument,
    NetworkProfile,
    SocPerfError,
    TraceRecord,
    UnknownComponent,
    UnsupportedPair,
    attach_trace,
    builtin_trace,
    load_network_profile,
    load_platform,
    load_scenario,
    load_trace,
    network_by_id,
    platform_by_id,
)
from socperf.profiles import number

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


@pytest.mark.parametrize("component_id", ["m4", "A7", ["a7"], {"a7": 1}])
def test_unknown_component_lookup_is_refused_by_its_id(component_id):
    # An unhashable id is refused like any other unknown one.
    with pytest.raises(UnknownComponent) as exc:
        platform_by_id("exynos5422").component(component_id)
    assert str(exc.value) == (
        f"platform 'exynos5422' has no component {component_id!r}")


def test_load_platform_single_component():
    platform = load_platform(minimal_platform_doc())
    assert len(platform.components) == 1


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
     "component 'cpu0': key must be one of id, kind, peak_compute_gops, "
     "cores, sustainable_bandwidth_gbs, active_power_w, frequency_ghz, "
     "got 'bogus'"),
    ({"platform": {}, "bogus": 1},
     "document key must be one of platform, got 'bogus'"),
    (platform_with({"cores": -3}),
     "component 'cpu0': cores must be given only by a CPU cluster that omits "
     "peak_compute_gops, got -3"),
    (platform_with({"kind": "gpu", "peak_compute_gops": None,
                    "cores": "not a number"}),
     "component 'cpu0': cores must be given only by a CPU cluster that omits "
     "peak_compute_gops, got 'not a number'"),
    (platform_with({"host_cluster": "cpu0"}),
     "component 'cpu0': key must be one of id, kind, peak_compute_gops, "
     "cores, sustainable_bandwidth_gbs, active_power_w, frequency_ghz, "
     "got 'host_cluster'"),
    (platform_with(components=[[1]]),
     "platform 'board': component must be an object, got [1]"),
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
    # Only "unsupported" marks a pair that cannot run; null is no rate.
    ({"throughput": {"cpu0": None}},
     "network 'tiny' throughput: cpu0 must be finite and > 0, got None"),
    ({"layers": [{"name": "l0", "kind": "conv", "gops": 1.0,
                  "mem_access_bytes": 1.0, "dram_bytes": 1.0}]},
     "layer 'l0': key must be one of name, kind, gops, mem_access_bytes, "
     "dram_access_bytes, got 'dram_bytes'"),
])
def test_network_document_values_are_checked(change, message):
    doc = minimal_network_doc()
    doc["network"].update(change)
    with pytest.raises(MalformedDocument) as exc:
        load_network_profile(doc)
    assert str(exc.value) == message


def test_network_maps_are_read_only():
    profile = network_by_id("alexnet")
    with pytest.raises(TypeError):
        profile.throughput["a7"] = 99.0
    mobilenet = network_by_id("mobilenet")
    with pytest.raises(TypeError):
        mobilenet.throughput["npu"] = 99.0
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
    assert "npu" in profile.throughput and profile.throughput["npu"] is None
    assert profile.supports("g72") is True


def test_a_none_rate_is_a_known_component_that_cannot_run():
    profile = NetworkProfile(
        id="tiny", layers=(LayerProfile("l0", "conv", 1.0, 1.0),),
        throughput={"cpu0": 5.0, "npu": None})
    assert profile.supports("npu") is False
    assert profile.supports("cpu0") is True
    with pytest.raises(UnsupportedPair,
                       match="^network 'tiny' is not supported on 'npu'$"):
        profile.rate("npu")
    trace = CounterTrace("npu", cache_line_bytes=1,
                         layers=(TraceRecord("l0", refill_lines=1),))
    assert attach_trace(profile, trace).layer("l0").dram_access_bytes == 1.0
    assert load_network_profile(network_with(
        throughput={"cpu0": 5.0, "npu": "unsupported"})) == profile


def test_network_layer_lookup_names_the_missing_layer():
    with pytest.raises(LayerMismatch) as exc:
        network_by_id("alexnet").layer("zz")
    assert str(exc.value) == "network 'alexnet' has no layer 'zz'"


def test_refusal_shows_a_long_value_by_its_head_and_length():
    with pytest.raises(MalformedDocument) as exc:
        number(10**400, "frames", "scenario")
    assert str(exc.value) == (
        "scenario: frames must be finite and > 0, got " + "1" + "0" * 59
        + "... (401 characters)")


LONG_ID = "x" * 10**6
LONG_SHOWN = "'" + "x" * 59 + "... (1000002 characters)"


def network_with(**body_changes):
    doc = minimal_network_doc()
    doc["network"].update(body_changes)
    return doc


@pytest.mark.parametrize("refuse,key", [
    (lambda: load_network_profile(network_with(id=LONG_ID, op_scale=2)),
     "op_scale"),
    (lambda: load_network_profile(network_with(id=LONG_ID, layers="l0")),
     "layers"),
    (lambda: load_network_profile(network_with(
        id=LONG_ID, throughput={"cpu0": -1.0})), "cpu0"),
    (lambda: load_network_profile(network_with(layers=[
        {"name": LONG_ID, "kind": "conv", "gops": -1.0,
         "mem_access_bytes": 1.0}])), "gops"),
    (lambda: load_platform(platform_with(
        id=LONG_ID, bus_peak_bandwidth_gbs=-1.0)), "bus_peak_bandwidth_gbs"),
    (lambda: load_platform(platform_with(id=LONG_ID, components="cpu0")),
     "components"),
    (lambda: load_platform(platform_with(
        {"id": LONG_ID, "active_power_w": -1.0})), "active_power_w"),
    (lambda: load_platform(platform_with(
        {"id": LONG_ID, "peak_compute_gops": None, "cores": 0})), "cores"),
    (lambda: load_platform(platform_with(
        {"id": LONG_ID, "sustainable_bandwidth_gbs": 99.0})),
     "sustainable bandwidth"),
    (lambda: load_trace({"trace": {"component_id": LONG_ID, "layers": []}}),
     "layers"),
    (lambda: load_trace({"trace": {
        "component_id": LONG_ID, "cache_line_bytes": 0,
        "layers": [{"name": "l0", "refill_lines": 1}]}}), "cache_line_bytes"),
    (lambda: TraceRecord(LONG_ID), "refill_lines"),
    (lambda: network_by_id("alexnet").layer(LONG_ID), "has no layer"),
    (lambda: network_by_id("alexnet").rate(LONG_ID), "is not supported on"),
    (lambda: platform_by_id("exynos5422").component(LONG_ID), "has no component"),
    (lambda: platform_by_id(LONG_ID), "in dataset"),
], ids=["network", "network-loader", "throughput", "layer", "platform",
        "platform-loader", "component", "component-loader", "bus", "trace-loader",
        "trace", "trace-record", "layer-lookup", "rate", "component-lookup",
        "dataset-lookup"])
def test_a_long_id_in_a_refusal_is_shown_by_its_head_and_length(refuse, key):
    with pytest.raises(SocPerfError) as exc:
        refuse()
    message = str(exc.value)
    assert len(message) < 300 and key in message and LONG_SHOWN in message


def test_network_totals_are_layer_sums():
    profile = network_by_id("alexnet")
    assert profile.total_gops == pytest.approx(
        sum(l.gops for l in profile.layers), rel=0, abs=0)
    assert profile.total_mem_access_bytes == sum(
        l.mem_access_bytes for l in profile.layers)


# -- loaded objects against their documents ----------------------------------

def assert_fields(instance, want: dict):
    """instance holds exactly want's fields, each equal to want's value,
    numbers as floats."""
    assert {f.name for f in fields(instance)} == set(want)
    for name, value in want.items():
        got = getattr(instance, name)
        assert got == value, (name, got, value)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            assert type(got) is float, (name, got)


def assert_platform_is_its_document(platform, doc):
    body = doc["platform"]
    assert_fields(platform, {
        "id": body["id"],
        "bus_peak_bandwidth_gbs": body["bus_peak_bandwidth_gbs"],
        "components": platform.components,
        "notes": body.get("notes", "")})
    assert len(platform.components) == len(body["components"])
    for comp, raw in zip(platform.components, body["components"]):
        peak = raw.get("peak_compute_gops")
        if peak is None:  # a CPU cluster: cores x GHz x 4 FP32 ops a cycle
            peak = raw.get("cores", 4) * raw["frequency_ghz"] * 4
        assert_fields(comp, {
            "id": raw["id"], "kind": raw["kind"], "peak_compute_gops": peak,
            **{key: raw[key] for key in ("sustainable_bandwidth_gbs",
                                         "active_power_w", "frequency_ghz")}})


def assert_network_is_its_document(profile, doc):
    body = doc["network"]
    assert_fields(profile, {
        "id": body["id"],
        "layers": profile.layers,
        "throughput": {cid: None if rate == "unsupported" else rate
                       for cid, rate in body["throughput"].items()},
        "op_scale": body.get("op_scale", 1.0),
        "notes": body.get("notes", "")})
    assert len(profile.layers) == len(body["layers"])
    for layer, raw in zip(profile.layers, body["layers"]):
        assert_fields(layer, {
            **{key: raw[key]
               for key in ("name", "kind", "gops", "mem_access_bytes")},
            "dram_access_bytes": raw.get("dram_access_bytes")})


def bundled_document(name):
    with open(DATA / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_each_bundled_platform_is_its_document():
    for pid in ("exynos5422", "kirin970"):
        doc = bundled_document(pid)
        assert_platform_is_its_document(load_platform(doc), doc)
        assert platform_by_id(pid) == load_platform(doc)


def test_each_bundled_network_is_its_document():
    for nid in ("alexnet", "googlenet", "mobilenet", "resnet50", "squeezenet"):
        doc = bundled_document(nid)
        assert_network_is_its_document(load_network_profile(doc), doc)
        assert network_by_id(nid) == load_network_profile(doc)


def test_a_platform_document_with_every_key_is_read_field_by_field():
    doc = minimal_platform_doc()
    doc["platform"]["notes"] = "every optional key set"
    doc["platform"]["components"] += [
        {"id": "gpu0", "kind": "gpu", "peak_compute_gops": 100.0,
         "sustainable_bandwidth_gbs": 5.0, "active_power_w": 2.0,
         "frequency_ghz": 0.8},
        {"id": "cpu1", "kind": "small-cpu", "cores": 2,
         "sustainable_bandwidth_gbs": 1.0, "active_power_w": 0.5,
         "frequency_ghz": 1.5},
        {"id": "cpu2", "kind": "small-cpu", "sustainable_bandwidth_gbs": 1.0,
         "active_power_w": 0.5, "frequency_ghz": 1.25}]
    platform = load_platform(doc)
    assert_platform_is_its_document(platform, doc)
    assert [c.peak_compute_gops for c in platform.components] == [
        30.0, 100.0, 12.0, 20.0]


def test_a_network_document_with_every_key_is_read_field_by_field():
    doc = network_with(op_scale=0.25, notes="every optional key set",
                       throughput={"cpu0": 5.0, "npu": "unsupported"})
    doc["network"]["layers"].append({
        "name": "l1", "kind": "fc", "gops": 0.5, "mem_access_bytes": 8.0,
        "dram_access_bytes": 2.0})
    profile = load_network_profile(doc)
    assert_network_is_its_document(profile, doc)
    assert profile.quantized and profile.total_dram_access_bytes is None


def test_random_documents_are_read_field_by_field():
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
            if comps[-1]["kind"].endswith("cpu") and rng.random() < 0.5:
                del comps[-1]["peak_compute_gops"]
                if rng.random() < 0.5:
                    comps[-1]["cores"] = rng.randint(1, 8)
        doc = {"platform": {
            "id": "rand", "bus_peak_bandwidth_gbs": 12.0, "components": comps,
        }}
        if rng.random() < 0.5:
            doc["platform"]["notes"] = "random"
        assert_platform_is_its_document(load_platform(doc), doc)

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
        doc = {"network": {
            "id": "randnet", "layers": layers, "throughput": throughput,
        }}
        if rng.random() < 0.5:
            doc["network"]["op_scale"] = rng.choice([1.0, 0.5, 0.25])
        assert_network_is_its_document(load_network_profile(doc), doc)


def test_load_from_json_text_and_file(tmp_path):
    text = json.dumps(minimal_platform_doc())
    assert load_platform(text).id == "board"
    path = tmp_path / "board.json"
    path.write_text(text)
    assert load_platform(path) == load_platform(text)
    assert load_platform(str(path)) == load_platform(text)


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


def test_a_document_nested_too_deeply_is_refused_in_one_line(tmp_path):
    # json.loads raises RecursionError, not ValueError, past its nesting
    # limit.
    deep = "[" * 100000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for source, prefix in ((deep, ""), (path, f"{path}: "), (str(path),
                                                           f"{path}: ")):
        with pytest.raises(MalformedDocument) as exc:
            load_scenario(source)
        assert str(exc.value).startswith(f"{prefix}not valid JSON: ")
        assert "\n" not in str(exc.value)


@pytest.mark.parametrize("source", ["a\x00b", Path("a\x00b")], ids=repr)
def test_a_path_with_a_nul_byte_is_refused_naming_it(source):
    with pytest.raises(MalformedDocument) as exc:
        load_platform(source)
    assert str(exc.value) == "'a\\x00b': not a path: embedded null byte"


@pytest.mark.parametrize("load", [load_platform, load_network_profile,
                                  load_trace, load_scenario])
@pytest.mark.parametrize("source", [None, 5, 3.5, b"{}", ["a"], ("x",)],
                         ids=repr)
def test_a_source_that_is_no_path_or_text_is_refused_as_a_document(
        load, source):
    # Neither a path nor JSON text, so it is the document itself; no file
    # named after it is opened and no repr of it is parsed.
    with pytest.raises(MalformedDocument) as exc:
        load(source)
    assert str(exc.value) == (
        f"{'scenario' if load is load_scenario else 'document'} must be an "
        f"object, got {source!r}")


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
    with pytest.raises(MalformedDocument) as exc:
        load_trace({"trace": {"component_id": "a15", "layers": [
            {"name": "fc6", "refill_line": 10}]}})
    assert str(exc.value) == (
        "layer 'fc6': key must be one of name, refill_lines, ext_read_bytes, "
        "ext_write_bytes, got 'refill_line'")
