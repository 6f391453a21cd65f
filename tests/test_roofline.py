import math
import random
import sys
from dataclasses import replace

import pytest

from socperf import (
    LayerProfile,
    MalformedDocument,
    MissingTrace,
    RooflineModel,
    RooflinePoint,
    SocPerfError,
    attach_trace,
    attainable,
    builtin_dataset,
    builtin_trace,
    classify,
    empirical_oi,
    layer_points,
    log_spaced,
    network_by_id,
    network_oi,
    network_point,
    platform_by_id,
    quantize_profile,
    roofline_series,
    theoretical_oi,
)
from socperf.emit import emit_csv, emit_json
from socperf.roofline import _MAX_SAMPLES, achieved_gops

T628 = RooflineModel("t628", roof_bandwidth_gbs=6.15, ceiling_compute_gops=57.6)
A15 = RooflineModel("a15", roof_bandwidth_gbs=3.44, ceiling_compute_gops=32.0)
A7 = RooflineModel("a7", roof_bandwidth_gbs=0.49, ceiling_compute_gops=22.4)


def layer(gops, mem, dram=None, kind="conv", name="l"):
    return LayerProfile(name=name, kind=kind, gops=gops,
                        mem_access_bytes=mem, dram_access_bytes=dram)


# -- operational intensity ----------------------------------------------------

def test_theoretical_oi_direct_division():
    assert theoretical_oi(layer(2.0, 1e9)) == 2.0
    assert theoretical_oi(layer(1.0, 1e9)) == 1.0


def test_fc6_oi_recomputed_from_layer_dimensions():
    # Brute-force oracle: 9216x4096 MACs at 2 ops each; bytes cover the
    # 4-byte weights plus bias, input, and output vectors read once.
    macs = 9216 * 4096
    ops = 2 * macs
    bytes_touched = 4 * (macs + 4096 + 9216 + 4096)
    expected = ops / bytes_touched  # = 0.49977...
    fc6 = network_by_id("alexnet").layer("fc6")
    assert fc6.gops * 1e9 == ops
    assert fc6.mem_access_bytes == bytes_touched
    assert theoretical_oi(fc6) == pytest.approx(expected, rel=1e-12)
    assert theoretical_oi(fc6) == pytest.approx(0.49977, abs=5e-5)


def test_empirical_oi_and_missing_trace():
    assert empirical_oi(layer(2.0, 1e9, dram=0.1e9)) == pytest.approx(20.0)
    boundary = layer(2.0, 1e9, dram=1e9)
    assert empirical_oi(boundary) == theoretical_oi(boundary)
    with pytest.raises(MissingTrace):
        empirical_oi(layer(2.0, 1e9))


def test_empirical_network_oi_needs_a_trace_on_every_layer():
    with pytest.raises(MissingTrace) as exc:
        network_oi(network_by_id("alexnet"), "empirical")
    assert str(exc.value) == (
        "network 'alexnet' has untraced layers; empirical OI needs DRAM "
        "counters on every layer")


def test_a_long_network_id_in_an_oi_refusal_is_shown_by_its_head_and_length():
    long_id = "x" * 10**6
    untraced = replace(network_by_id("alexnet"), id=long_id)
    # 1e300 operations over 1e-300 bytes: the OI overflows to inf.
    dense = replace(untraced, layers=(layer(1e300, 1e-300),))
    for profile, kind, key in ((untraced, "empirical", "has untraced layers"),
                               (dense, "theoretical", "mem_access_bytes")):
        with pytest.raises(SocPerfError) as exc:
            network_oi(profile, kind)
        message = str(exc.value)
        assert len(message) < 300 and key in message
        assert "x" * 59 + "... (1000002 characters)" in message


def test_an_unknown_oi_kind_is_refused_as_the_argument():
    profile = network_by_id("alexnet")
    for call, ctx in ((lambda: network_oi(profile, "bogus"), "network OI"),
                      (lambda: layer_points(profile, A15, "bogus"),
                       "layer points")):
        with pytest.raises(MalformedDocument) as exc:
            call()
        assert str(exc.value) == (
            f"{ctx}: kind must be one of theoretical, empirical, got 'bogus'")


@pytest.mark.parametrize("call,message", [
    (lambda: RooflineModel("", 1.0, 2.0),
     "roofline: component_id must be a non-empty string, got ''"),
    (lambda: RooflineModel("npu", math.nan, 2.0),
     "roofline 'npu': roof_bandwidth_gbs must be finite and > 0, got nan"),
    (lambda: RooflineModel("npu", 1.0, True),
     "roofline 'npu': ceiling_compute_gops must be finite and > 0, got True"),
    (lambda: theoretical_oi(layer(1.0, 1e-320, name="conv1")),
     "layer 'conv1': operational intensity over mem_access_bytes must be "
     "finite and > 0, got inf"),
    (lambda: empirical_oi(layer(1e300, 1e9, dram=1e-300, name="fc6")),
     "layer 'fc6': operational intensity over dram_access_bytes must be "
     "finite and > 0, got inf"),
], ids=["component_id", "bandwidth", "ceiling", "theoretical", "empirical"])
def test_a_refusal_names_the_roofline_or_the_layer(call, message):
    with pytest.raises(MalformedDocument) as exc:
        call()
    assert str(exc.value) == message


def test_empirical_at_least_theoretical_for_traced_layers():
    profile = attach_trace(network_by_id("alexnet"), builtin_trace())
    for lyr in profile.layers:
        assert empirical_oi(lyr) >= theoretical_oi(lyr)


# -- attainable / ridge / classify --------------------------------------------

def test_attainable_known_values():
    assert attainable(T628, 2.0) == pytest.approx(12.3)
    assert attainable(T628, 1e9) == 57.6
    assert attainable(A7, 10.0) == pytest.approx(4.9)


def test_ridge_points_from_board_constants():
    assert T628.ridge_oi == pytest.approx(57.6 / 6.15, rel=1e-15)
    assert round(T628.ridge_oi, 2) == 9.37
    assert round(A15.ridge_oi, 2) == 9.30
    assert round(A7.ridge_oi, 1) == 45.7


def test_ridge_equal_numbers_gives_one():
    model = RooflineModel("x", roof_bandwidth_gbs=7.5, ceiling_compute_gops=7.5)
    assert model.ridge_oi == 1.0
    assert classify(model, 1.0) == "compute"  # tie goes to compute


def test_classify_fc_memory_conv_compute_on_big_cluster():
    profile = network_by_id("alexnet")
    assert classify(A15, theoretical_oi(profile.layer("fc6"))) == "memory"
    assert classify(A15, theoretical_oi(profile.layer("conv1"))) == "compute"


def test_attainable_properties_random():
    rng = random.Random(7)
    for _ in range(500):
        model = RooflineModel("m", rng.uniform(0.1, 20), rng.uniform(1, 2000))
        lo, hi = sorted((rng.uniform(1e-2, 1e3), rng.uniform(1e-2, 1e3)))
        a_lo, a_hi = attainable(model, lo), attainable(model, hi)
        assert a_lo <= a_hi  # monotone
        assert attainable(model, model.ridge_oi) == pytest.approx(
            model.ceiling_compute_gops)
        oi = rng.uniform(1e-2, 1e3)
        at = attainable(model, oi)
        assert (classify(model, oi) == "memory") == (at < model.ceiling_compute_gops)
        if oi >= model.ridge_oi:
            assert at == model.ceiling_compute_gops


# -- series -------------------------------------------------------------------

def test_series_has_exact_knee():
    rows = roofline_series(T628, [], log_spaced(0.1, 100.0, 33))
    grid = [r for r in rows if r["point_label"] is None]
    knee = [r for r in grid if r["oi_flops_per_byte"] == T628.ridge_oi]
    assert len(knee) == 1
    assert knee[0]["roofline_gops"] == pytest.approx(57.6)
    # two-segment shape: slope then flat ceiling
    for row in grid:
        oi = row["oi_flops_per_byte"]
        expected = min(57.6, oi * 6.15)
        assert row["roofline_gops"] == pytest.approx(expected)
        assert row["bound"] == ("memory" if oi < T628.ridge_oi else "compute")
    # Every grid row is attainable and classify bit for bit, the ridge and
    # its two float neighbours included.
    for model in (T628, A15, A7, RooflineModel("x", 3.0, 10.0)):
        ridge = model.ridge_oi
        below, above = math.nextafter(ridge, 0.0), math.nextafter(ridge, math.inf)
        grid = sorted({*log_spaced(0.01, 1000.0, 61), below, ridge, above})
        rows = roofline_series(model, [], grid)
        assert [row["oi_flops_per_byte"] for row in rows] == grid
        for row in rows:
            oi = row["oi_flops_per_byte"]
            assert row["roofline_gops"].hex() == attainable(model, oi).hex()
            assert row["bound"] == classify(model, oi)
        at = grid.index(ridge)
        assert [row["bound"] for row in rows[at - 1:at + 2]] == [
            "memory", "compute", "compute"]


def test_series_point_passthrough_and_errors():
    profile = network_by_id("alexnet")
    point = network_point(profile, T628)
    rows = roofline_series(T628, [point], log_spaced(0.1, 100.0, 9))
    tagged = [r for r in rows if r["point_label"] is not None]
    assert len(tagged) == 1
    assert tagged[0]["point_label"] == "alexnet[theoretical]"
    assert tagged[0]["point_gops"] == pytest.approx(achieved_gops(profile, "t628"))
    for grid in ([], [1.0, 0.5], [1.0, 2.0, 2.0], [1, 2.0, 1.5, 3.0]):
        with pytest.raises(ValueError) as exc:
            roofline_series(T628, [], grid)
        assert isinstance(exc.value, SocPerfError)
        assert str(exc.value) == "oi_range must be non-empty and strictly increasing"
    with pytest.raises(ValueError):
        roofline_series(T628, [], [-1.0, 2.0])
    with pytest.raises(ValueError):
        log_spaced(1.0, 0.1, 5)
    with pytest.raises(ValueError, match="samples must be an integer <= 100000"):
        log_spaced(0.1, 100.0, _MAX_SAMPLES + 1)
    # A range that holds fewer floats than samples asks for repeats none.
    assert log_spaced(1.0, 1.0000000000000002, 2) == [1.0, 1.0000000000000002]
    for lo, hi, samples in ((1.0, 1.0000000000000002, 3), (5e-324, 1e-322, 40)):
        with pytest.raises(SocPerfError, match=f"samples must be few enough .* got {samples}$"):
            log_spaced(lo, hi, samples)


def test_achieved_points_stay_below_the_roofline():
    platforms, networks = builtin_dataset()
    for platform in platforms:
        for component in platform.components:
            model = RooflineModel.for_component(component)
            for profile in networks:
                if not profile.supports(component.id):
                    continue
                point = network_point(profile, model)
                assert point.performance_gops <= attainable(model, point.oi) + 1e-9


def test_network_point_uses_empirical_oi_when_traced():
    profile = attach_trace(network_by_id("alexnet"), builtin_trace())
    point = network_point(profile, A15)
    assert point.oi_kind == "empirical"
    assert point.oi == pytest.approx(network_oi(profile, "empirical"))
    assert network_oi(profile, "empirical") >= network_oi(profile, "theoretical")


def test_layer_points_skip_untraced_for_empirical():
    profile = network_by_id("alexnet")
    assert layer_points(profile, A15, "empirical") == []
    traced = attach_trace(profile, builtin_trace())
    pts = layer_points(traced, A15, "empirical")
    assert len(pts) == len(profile.layers)
    by_name = {p.workload: p for p in pts}
    assert by_name["alexnet/fc6"].bound == "memory"
    assert by_name["alexnet/conv1"].bound == "compute"


def test_point_validation():
    """Every check of a point holds, and its refusal names the point."""
    for field, value, message in (
            ("oi", 0.0, "oi must be finite and > 0, got 0.0"),
            ("performance_gops", math.inf, "performance_gops must be finite and > 0, got inf"),
            ("performance_gops", True, "performance_gops must be finite and > 0, got True"),
            ("bound", "bogus", "bound must be one of memory, compute, got 'bogus'"),
            ("oi_kind", None, "oi_kind must be one of theoretical, empirical, got None")):
        fields = {"oi": 1, "performance_gops": 1.0, "bound": "memory",
                  "oi_kind": "theoretical", field: value}
        for workload, shown_as in (("w", "'w'"),
                                   ("x" * 100, f"'{'x' * 59}... (102 characters)")):
            with pytest.raises(MalformedDocument) as exc:
                RooflinePoint(workload, **fields)
            assert str(exc.value) == f"roofline point {shown_as}: {message}"
    point = RooflinePoint("w", 1, 2, "compute", "empirical")
    assert (type(point.oi), type(point.performance_gops)) == (float, float)


def test_log_spaced_takes_each_sample_as_it_always_did():
    """Bit for bit the per-sample expression log_spaced once evaluated, at
    every inner sample; the endpoints are lo and hi themselves. Where that
    grid would repeat a value, the range is refused."""
    rng = random.Random(25)
    cases = [(0.1, 1000.0, 97), (1, 1000, 2), (5e-324, 1e308, 1000), (2.0, math.nextafter(2.0, 3.0), 5)]
    for _ in range(400):
        lo = 10 ** rng.uniform(-300, 290)
        cases.append((lo, lo * 10 ** rng.uniform(0.001, 15), rng.randint(2, 300)))
    refused = 0
    for lo, hi, samples in cases:
        step = (math.log10(hi) - math.log10(lo)) / (samples - 1)
        old = [10 ** (math.log10(lo) + i * step) for i in range(samples)]
        old[0], old[-1] = float(lo), float(hi)
        if all(map(float.__lt__, old, old[1:])):
            assert list(map(float.hex, log_spaced(lo, hi, samples))) == list(map(float.hex, old))
        else:
            with pytest.raises(MalformedDocument, match=f"samples must be few enough .* got {samples}$"):
                log_spaced(lo, hi, samples)
            refused += 1
    assert refused == 1


def test_log_spaced_ends_at_its_bounds_and_never_overflows():
    """The endpoints are lo and hi exactly, and no sample overflows up to
    the largest float; an inner sample at or past log10(hi) is hi."""
    top = sys.float_info.max
    assert log_spaced(0.3, 7.0, 5)[-1] == 7.0
    assert log_spaced(2, top, 2) == [2.0, top]
    rng = random.Random(30)
    cases = [(5e-324, top, 1000), (math.nextafter(top, 0.0), top, 1000)]
    for _ in range(200):
        lo = 10 ** rng.uniform(290, 308.25)
        cases.append((lo, rng.uniform(lo, top), rng.randint(2, 2000)))
    refused = 0
    for lo, hi, samples in cases:
        try:
            grid = log_spaced(lo, hi, samples)
        except MalformedDocument as exc:  # too few floats in [lo, hi]
            assert str(exc).endswith(f"got {samples}")
            refused += 1
            continue
        assert (grid[0], grid[-1], len(grid)) == (lo, hi, samples)
        assert all(map(math.isfinite, grid))
        assert all(oi <= hi for oi in grid)
    assert refused == 1


def test_int_built_models_and_points_emit_like_float_built_ones():
    rows = [roofline_series(
        RooflineModel("x", bandwidth, ceiling),
        [RooflinePoint("w", oi, gops, "memory", "theoretical")],
        log_spaced(0.5, 8.0, 5))
        for bandwidth, ceiling, oi, gops in ((10, 20, 1, 3),
                                             (10.0, 20.0, 1.0, 3.0))]
    assert emit_json(rows[0]) == emit_json(rows[1])
    assert emit_csv(rows[0]) == emit_csv(rows[1])
    assert b'"roofline_gops": 20.0' in emit_json(rows[0])


def test_npu_roofline_everything_memory_bound():
    kirin = platform_by_id("kirin970")
    model = RooflineModel.for_component(kirin.component("npu"))
    assert model.ceiling_compute_gops == 1920.0
    _, networks = builtin_dataset()
    for profile in networks:
        assert classify(model, network_oi(profile)) == "memory"


# -- quantization --------------------------------------------------------------

def test_quantize_32_to_8_scales_bytes_exactly():
    profile = network_by_id("alexnet")
    quantized = quantize_profile(profile, 32, 8)
    assert quantized.quantized is True
    assert quantized.op_scale == 0.25
    for before, after in zip(profile.layers, quantized.layers):
        assert after.mem_access_bytes == before.mem_access_bytes * 0.25


def test_quantize_preserves_theoretical_oi():
    for nid in ("alexnet", "googlenet", "mobilenet", "resnet50", "squeezenet"):
        profile = network_by_id(nid)
        quantized = quantize_profile(profile, 32, 8)
        for before, after in zip(profile.layers, quantized.layers):
            a, b = theoretical_oi(before), theoretical_oi(after)
            assert abs(a - b) <= 1e-12 * a


def test_quantize_identity_and_worked_example():
    profile = network_by_id("alexnet")
    assert quantize_profile(profile, 32, 32) is profile
    lyr = layer(2.0, 1e9)
    doc = {"network": {"id": "one", "layers": [
        {"name": "l", "kind": "conv", "gops": 2.0, "mem_access_bytes": 1e9},
    ], "throughput": {"c": 1.0}}}
    from socperf import load_network_profile
    halved = quantize_profile(load_network_profile(doc), 32, 16)
    assert halved.layers[0].mem_access_bytes == 0.5e9
    assert theoretical_oi(halved.layers[0]) == pytest.approx(2.0)
    assert theoretical_oi(lyr) == 2.0


def test_quantize_scales_dram_too():
    profile = attach_trace(network_by_id("alexnet"), builtin_trace())
    quantized = quantize_profile(profile, 32, 8)
    for before, after in zip(profile.layers, quantized.layers):
        assert after.dram_access_bytes == before.dram_access_bytes * 0.25
        assert abs(empirical_oi(after) - empirical_oi(before)) \
            <= 1e-12 * empirical_oi(before)


def test_quantize_rejects_bad_widths():
    profile = network_by_id("alexnet")
    with pytest.raises(MalformedDocument):
        quantize_profile(profile, 32, 64)
    with pytest.raises(MalformedDocument):
        quantize_profile(profile, 24, 8)
    with pytest.raises(MalformedDocument):
        quantize_profile(profile, 8, 16)  # widening


def test_quantize_chains_compose():
    profile = network_by_id("squeezenet")
    via16 = quantize_profile(quantize_profile(profile, 32, 16), 16, 8)
    direct = quantize_profile(profile, 32, 8)
    assert via16.op_scale == direct.op_scale
    for a, b in zip(via16.layers, direct.layers):
        assert a.mem_access_bytes == pytest.approx(b.mem_access_bytes, rel=1e-15)
