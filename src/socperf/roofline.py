"""Roofline construction: operational intensity, attainable performance,
bound classification, plot series, and the quantization transform.

Two operational intensities are computed per workload. The theoretical
value divides operations by every byte the computation touches; the
empirical value divides by measured DRAM traffic only, so caches can only
move it to the right. Attainable performance is the classic two-segment
bound min(ceiling, OI x bandwidth); the knee where the sloped roof meets
the flat ceiling is the ridge point that separates memory- from
compute-bound workloads.

All functions here are pure and operate on immutable inputs.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Sequence

from .errors import MalformedDocument, MissingTrace
from .profiles import (ComponentSpec, LayerProfile, NetworkProfile, _set, count,
                       number, one_of, shown, text)

BOUND_MEMORY = "memory"
BOUND_COMPUTE = "compute"

OI_THEORETICAL = "theoretical"
OI_EMPIRICAL = "empirical"
OI_KINDS = (OI_THEORETICAL, OI_EMPIRICAL)

QUANT_BITS = (32, 16, 8)


@dataclass(frozen=True)
class RooflineModel:
    """Roofline of one component: sloped roof plus flat ceiling."""

    component_id: str
    roof_bandwidth_gbs: float
    ceiling_compute_gops: float

    def __post_init__(self):
        ctx = f"roofline {shown(text(self.component_id, 'component_id', 'roofline'))}"
        for key in ("roof_bandwidth_gbs", "ceiling_compute_gops"):
            _set(self, key, number(getattr(self, key), key, ctx))

    @cached_property
    def ridge_oi(self) -> float:
        """OI where the sloped roof meets the flat ceiling, computed once."""
        return self.ceiling_compute_gops / self.roof_bandwidth_gbs

    @classmethod
    def for_component(cls, component: ComponentSpec) -> "RooflineModel":
        return cls(
            component_id=component.id,
            roof_bandwidth_gbs=component.sustainable_bandwidth_gbs,
            ceiling_compute_gops=component.peak_compute_gops,
        )


@dataclass(frozen=True)
class RooflinePoint:
    """An (OI, performance) pair for one workload on one component."""

    workload: str
    oi: float
    performance_gops: float
    bound: str
    oi_kind: str

    def __post_init__(self):
        try:  # the refusal names the point, so that text is built on a refusal only
            for key in ("oi", "performance_gops"):
                _set(self, key, number(getattr(self, key), key, ""))
            one_of(self.bound, (BOUND_MEMORY, BOUND_COMPUTE), "bound", "")
            one_of(self.oi_kind, OI_KINDS, "oi_kind", "")
        except MalformedDocument as exc:
            raise MalformedDocument(f"roofline point {shown(self.workload)}: {exc}") from None


def _oi(gops: float, nbytes: float, key: str, ctx: str) -> float:
    """gops over nbytes/1e9, giga-ops per giga-byte (FLOPS/byte), which
    must be finite and > 0: a subnormal byte count scales to 0."""
    gigabytes = nbytes / 1e9
    return number(gops / gigabytes if gigabytes else math.inf,
                  f"operational intensity over {key}", ctx)


def theoretical_oi(layer: LayerProfile) -> float:
    """Operations per byte over all data touched (FLOPS/byte)."""
    return _oi(layer.gops, layer.mem_access_bytes, "mem_access_bytes",
               f"layer {shown(layer.name)}")


def empirical_oi(layer: LayerProfile) -> float:
    """Operations per byte of measured DRAM traffic (FLOPS/byte)."""
    if layer.dram_access_bytes is None:
        raise MissingTrace(
            f"layer {shown(layer.name)} has no DRAM counters; attach a trace first"
        )
    return _oi(layer.gops, layer.dram_access_bytes, "dram_access_bytes",
               f"layer {shown(layer.name)}")


def attainable(model: RooflineModel, oi: float) -> float:
    """Maximum performance in GOPS/s the component allows at a given OI."""
    return min(model.ceiling_compute_gops, oi * model.roof_bandwidth_gbs)


def classify(model: RooflineModel, oi: float) -> str:
    """memory below the ridge point, compute at or above it."""
    return BOUND_MEMORY if oi < model.ridge_oi else BOUND_COMPUTE


def network_oi(profile: NetworkProfile, kind: str = OI_THEORETICAL) -> float:
    """Whole-network OI: ratio of summed operations to summed bytes.

    This matches plotting one point per network rather than averaging
    per-layer intensities.
    """
    ctx = f"network {shown(profile.id)}"
    if one_of(kind, OI_KINDS, "kind", "network OI") == OI_THEORETICAL:
        return _oi(profile.total_gops, profile.total_mem_access_bytes,
                   "mem_access_bytes", ctx)
    dram = profile.total_dram_access_bytes
    if dram is None:
        raise MissingTrace(
            f"{ctx} has untraced layers; empirical OI needs DRAM counters "
            f"on every layer"
        )
    return _oi(profile.total_gops, dram, "dram_access_bytes", ctx)


def achieved_gops(profile: NetworkProfile, component_id: str) -> float:
    """Achieved whole-network performance: total operations x measured rate."""
    return profile.total_gops * profile.rate(component_id)


def network_point(profile: NetworkProfile, model: RooflineModel) -> RooflinePoint:
    """Whole-network point at achieved performance.

    Plotted against empirical OI when every layer is traced, theoretical
    OI otherwise. Achieved points sit below the roofline.
    """
    oi_kind = (OI_THEORETICAL if profile.total_dram_access_bytes is None
               else OI_EMPIRICAL)
    oi = network_oi(profile, oi_kind)
    return RooflinePoint(
        workload=profile.id,
        oi=oi,
        performance_gops=achieved_gops(profile, model.component_id),
        bound=classify(model, oi),
        oi_kind=oi_kind,
    )


def layer_points(profile: NetworkProfile, model: RooflineModel,
                 kind: str = OI_THEORETICAL) -> list[RooflinePoint]:
    """Per-layer points at the roofline intersection for their OI.

    Per-layer achieved rates are not measured, so each layer is placed at
    the maximum the roofline allows for its intensity. Layers without DRAM
    counters are skipped when empirical points are requested.
    """
    one_of(kind, OI_KINDS, "kind", "layer points")
    points = []
    for layer in profile.layers:
        if kind == OI_EMPIRICAL:
            if layer.dram_access_bytes is None:
                continue
            oi = empirical_oi(layer)
        else:
            oi = theoretical_oi(layer)
        points.append(RooflinePoint(
            workload=f"{profile.id}/{layer.name}",
            oi=oi,
            performance_gops=attainable(model, oi),
            bound=classify(model, oi),
            oi_kind=kind,
        ))
    return points


# The most samples an OI grid takes. Each becomes one table row: in
# `socperf roofline --format json --samples 100000` about 160 bytes of
# output, 0.7 KB of peak RSS and 5-9 us of work (2-vCPU x86 host).
_MAX_SAMPLES = 10 ** 5


def log_spaced(lo: float, hi: float, samples: int) -> list[float]:
    """Log-spaced OI grid: lo, then 10**(log10(lo) + i*step) for each inner
    i (hi once that exponent reaches log10(hi), so none overflows), then hi."""
    count(samples, "samples", "OI grid", low=2, high=_MAX_SAMPLES)
    hi = number(hi, "oi_max", "OI grid", low=(lo := number(lo, "oi_min", "OI grid")))
    step = ((log_hi := math.log10(hi)) - (log_lo := math.log10(lo))) / (samples - 1)
    return [lo, *[10 ** e if (e := log_lo + i * step) < log_hi else hi
                  for i in range(1, samples - 1)], hi]


def roofline_series(model: RooflineModel,
                    points: Sequence[RooflinePoint],
                    oi_range: Iterable[float]) -> list[dict]:
    """Tabulate the roofline over an OI grid together with workload points.

    Returns plot-table rows with keys oi_flops_per_byte, roofline_gops,
    bound and, on point rows, point_label / point_oi / point_gops. The
    ridge OI is inserted into the grid when it falls inside the range so
    the two-segment shape keeps its exact knee.
    """
    grid = [number(oi, "oi_range entry", "roofline series") for oi in oi_range]
    if not grid or not all(map(float.__lt__, grid, grid[1:])):
        raise MalformedDocument(
            "oi_range must be non-empty and strictly increasing")
    ridge = model.ridge_oi
    if grid[0] < ridge < grid[-1] and ridge not in grid:
        grid = sorted(grid + [ridge])
    return [{"oi_flops_per_byte": oi,
             "roofline_gops": attainable(model, oi),
             "point_label": None,
             "point_oi": None,
             "point_gops": None,
             "bound": classify(model, oi)}
            for oi in grid] + [
            {"oi_flops_per_byte": point.oi,
             "roofline_gops": attainable(model, point.oi),
             "point_label": f"{point.workload}[{point.oi_kind}]",
             "point_oi": point.oi,
             "point_gops": point.performance_gops,
             "bound": point.bound} for point in points]


def quantize_profile(profile: NetworkProfile, from_bits: int,
                     to_bits: int) -> NetworkProfile:
    """Model quantization as a near-proportional shrink of ops and bytes.

    Every layer's byte counts scale by to_bits/from_bits, and the same
    factor is recorded as the op-cost scale and applied to the layer
    operation counts, so each layer's theoretical OI is unchanged and the
    quantized roofline overlaps the original. Measured throughput rows are
    kept as the original full-precision measurements.
    """
    one_of(from_bits, QUANT_BITS, "from_bits", "quantization")
    one_of(to_bits, QUANT_BITS, "to_bits", "quantization")
    if to_bits > from_bits:
        raise MalformedDocument(
            f"cannot widen {from_bits}-bit data to {to_bits} bits here"
        )
    scale = to_bits / from_bits
    if scale == 1.0:
        return profile
    layers = tuple(
        replace(
            layer,
            gops=layer.gops * scale,
            mem_access_bytes=layer.mem_access_bytes * scale,
            dram_access_bytes=None if layer.dram_access_bytes is None
            else layer.dram_access_bytes * scale,
        )
        for layer in profile.layers
    )
    return replace(profile, layers=layers, op_scale=profile.op_scale * scale)
