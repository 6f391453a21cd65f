"""Data model for SoC platforms, network profiles, and counter traces.

Every type in this module is a frozen dataclass: once constructed and
validated it is immutable and safe to share across threads. Loading is
plain single-threaded JSON parsing.

Document layout (JSON), one envelope key per document kind:

    {"platform": {"id": ..., "bus_peak_bandwidth_gbs": ..., "components": [...]}}
    {"network":  {"id": ..., "layers": [...], "throughput": {...}}}
    {"trace":    {"component_id": ..., "cache_line_bytes": ..., "layers": [...]}}

Unsupported (network, component) pairs are written as the string
"unsupported" in the throughput map and kept explicit in the model, so
engaging such a pair is an error rather than a silent zero.
"""

import io
import json
import os
from dataclasses import dataclass, replace
from typing import Optional, Union

from .errors import (
    BandwidthExceedsBus,
    CacheTrafficInflated,
    DanglingHostCluster,
    DuplicateComponentId,
    LayerMismatch,
    MalformedDocument,
    UnknownComponent,
    UnsupportedPair,
)

COMPONENT_KINDS = ("big-cpu", "small-cpu", "gpu", "npu")
CPU_KINDS = ("big-cpu", "small-cpu")
LAYER_KINDS = ("conv", "fc", "other")

# NEON SIMD issues four 32-bit floating-point operations per core per cycle
# on both boards; used to derive CPU-cluster peaks when a document omits them.
FP32_OPS_PER_CORE_CYCLE = 4
DEFAULT_CLUSTER_CORES = 4

DEFAULT_CACHE_LINE_BYTES = 64

UNSUPPORTED = "unsupported"

Source = Union[str, os.PathLike, io.IOBase, dict]


@dataclass(frozen=True)
class ComponentSpec:
    """One processing component of a mobile SoC.

    peak_compute_gops is FP32 unless the component natively computes in a
    narrower format (the NPU peak is its FP16 rating). host_cluster names
    the CPU cluster that must stay up to drive this component's runtime;
    it applies to accelerators only.
    """

    id: str
    kind: str
    peak_compute_gops: float
    sustainable_bandwidth_gbs: float
    active_power_w: float
    frequency_ghz: float
    host_cluster: Optional[str] = None

    def __post_init__(self):
        if not self.id:
            raise MalformedDocument("component id must be non-empty")
        if self.kind not in COMPONENT_KINDS:
            raise MalformedDocument(
                f"component {self.id!r}: unknown kind {self.kind!r}, "
                f"expected one of {COMPONENT_KINDS}"
            )
        for name in ("peak_compute_gops", "sustainable_bandwidth_gbs",
                     "active_power_w", "frequency_ghz"):
            value = getattr(self, name)
            if not value > 0:
                raise MalformedDocument(
                    f"component {self.id!r}: {name} must be > 0, got {value!r}"
                )

    @property
    def is_cpu(self) -> bool:
        return self.kind in CPU_KINDS


@dataclass(frozen=True)
class Platform:
    """A named SoC: its components plus the shared bus peak bandwidth."""

    id: str
    bus_peak_bandwidth_gbs: float
    components: tuple[ComponentSpec, ...]
    notes: str = ""

    def __post_init__(self):
        if not self.id:
            raise MalformedDocument("platform id must be non-empty")
        if not self.bus_peak_bandwidth_gbs > 0:
            raise MalformedDocument(
                f"platform {self.id!r}: bus_peak_bandwidth_gbs must be > 0"
            )
        seen = set()
        for comp in self.components:
            if comp.id in seen:
                raise DuplicateComponentId(
                    f"platform {self.id!r}: duplicate component id {comp.id!r}"
                )
            seen.add(comp.id)
            if comp.sustainable_bandwidth_gbs > self.bus_peak_bandwidth_gbs:
                raise BandwidthExceedsBus(
                    f"platform {self.id!r}: component {comp.id!r} sustainable "
                    f"bandwidth {comp.sustainable_bandwidth_gbs} GB/s exceeds "
                    f"bus peak {self.bus_peak_bandwidth_gbs} GB/s"
                )
        by_id = {c.id: c for c in self.components}
        for comp in self.components:
            if comp.host_cluster is None:
                continue
            host = by_id.get(comp.host_cluster)
            if host is None:
                raise DanglingHostCluster(
                    f"platform {self.id!r}: component {comp.id!r} references "
                    f"missing host cluster {comp.host_cluster!r}"
                )
            if not host.is_cpu:
                raise DanglingHostCluster(
                    f"platform {self.id!r}: host cluster {comp.host_cluster!r} "
                    f"of {comp.id!r} must be a CPU cluster, got kind {host.kind!r}"
                )

    def component(self, component_id: str) -> ComponentSpec:
        for comp in self.components:
            if comp.id == component_id:
                return comp
        raise UnknownComponent(
            f"platform {self.id!r} has no component {component_id!r}"
        )

    def hosted_accelerators(self, cpu_id: str) -> tuple[str, ...]:
        """Ids of accelerators whose host_cluster is the given CPU cluster."""
        return tuple(
            c.id for c in self.components if c.host_cluster == cpu_id
        )


@dataclass(frozen=True)
class LayerProfile:
    """Operation and byte counts for one network layer.

    gops counts giga-operations with the dataset's MAC convention
    (2 operations per multiply-accumulate). mem_access_bytes covers every
    byte the computation touches; dram_access_bytes is the measured subset
    that actually reached DRAM, when a counter trace has been attached.
    """

    name: str
    kind: str
    gops: float
    mem_access_bytes: float
    dram_access_bytes: Optional[float] = None

    def __post_init__(self):
        if not self.name:
            raise MalformedDocument("layer name must be non-empty")
        if self.kind not in LAYER_KINDS:
            raise MalformedDocument(
                f"layer {self.name!r}: unknown kind {self.kind!r}, "
                f"expected one of {LAYER_KINDS}"
            )
        if not self.gops > 0:
            raise MalformedDocument(f"layer {self.name!r}: gops must be > 0")
        if not self.mem_access_bytes > 0:
            raise MalformedDocument(
                f"layer {self.name!r}: mem_access_bytes must be > 0"
            )
        if self.dram_access_bytes is not None:
            if not self.dram_access_bytes > 0:
                raise MalformedDocument(
                    f"layer {self.name!r}: dram_access_bytes must be > 0"
                )
            if self.dram_access_bytes > self.mem_access_bytes:
                raise CacheTrafficInflated(
                    f"layer {self.name!r}: dram_access_bytes "
                    f"{self.dram_access_bytes} exceeds mem_access_bytes "
                    f"{self.mem_access_bytes}; caches only reduce traffic"
                )


@dataclass(frozen=True)
class NetworkProfile:
    """Per-network layer table plus measured per-component throughput.

    throughput maps component id to measured images/s at peak frequency;
    supported marks pairs that cannot run at all (absent from throughput).
    Whole-network operation and byte counts are by definition the sums
    over the layer table.
    """

    id: str
    layers: tuple[LayerProfile, ...]
    throughput: dict[str, float]
    supported: dict[str, bool]
    quantized: bool = False
    op_scale: float = 1.0
    notes: str = ""

    def __post_init__(self):
        if not self.id:
            raise MalformedDocument("network id must be non-empty")
        if not self.layers:
            raise MalformedDocument(f"network {self.id!r}: needs at least one layer")
        seen = set()
        for layer in self.layers:
            if layer.name in seen:
                raise MalformedDocument(
                    f"network {self.id!r}: duplicate layer name {layer.name!r}"
                )
            seen.add(layer.name)
        for comp_id, rate in self.throughput.items():
            if not self.supported.get(comp_id, False):
                raise MalformedDocument(
                    f"network {self.id!r}: throughput given for unsupported "
                    f"component {comp_id!r}"
                )
            if not rate > 0:
                raise MalformedDocument(
                    f"network {self.id!r}: throughput for {comp_id!r} must be "
                    f"> 0, got {rate!r}"
                )
        for comp_id, ok in self.supported.items():
            if ok and comp_id not in self.throughput:
                raise MalformedDocument(
                    f"network {self.id!r}: supported component {comp_id!r} "
                    f"has no throughput value"
                )
        if not self.op_scale > 0:
            raise MalformedDocument(f"network {self.id!r}: op_scale must be > 0")

    @property
    def total_gops(self) -> float:
        return sum(layer.gops for layer in self.layers)

    @property
    def total_mem_access_bytes(self) -> float:
        return sum(layer.mem_access_bytes for layer in self.layers)

    @property
    def total_dram_access_bytes(self) -> Optional[float]:
        """Summed DRAM bytes, or None unless every layer carries a trace."""
        total = 0.0
        for layer in self.layers:
            if layer.dram_access_bytes is None:
                return None
            total += layer.dram_access_bytes
        return total

    def supports(self, component_id: str) -> bool:
        return self.supported.get(component_id, False)

    def rate(self, component_id: str) -> float:
        """Measured isolated throughput in images/s for one component."""
        if not self.supports(component_id):
            raise UnsupportedPair(
                f"network {self.id!r} is not supported on {component_id!r}"
            )
        return self.throughput[component_id]

    def layer(self, name: str) -> LayerProfile:
        for lyr in self.layers:
            if lyr.name == name:
                return lyr
        raise LayerMismatch(f"network {self.id!r} has no layer {name!r}")


@dataclass(frozen=True)
class TraceRecord:
    """Counters for one layer: CPU L2 refill lines or GPU external bytes."""

    name: str
    refill_lines: Optional[int] = None
    ext_read_bytes: Optional[int] = None
    ext_write_bytes: Optional[int] = None

    def __post_init__(self):
        if not self.name:
            raise MalformedDocument("trace record needs a layer name")
        has_lines = self.refill_lines is not None
        has_ext = self.ext_read_bytes is not None or self.ext_write_bytes is not None
        if has_lines and has_ext:
            raise MalformedDocument(
                f"trace record {self.name!r}: give refill_lines or external "
                f"byte counters, not both"
            )
        if not has_lines and not has_ext:
            raise MalformedDocument(
                f"trace record {self.name!r}: needs refill_lines or external "
                f"byte counters"
            )
        for attr in ("refill_lines", "ext_read_bytes", "ext_write_bytes"):
            value = getattr(self, attr)
            if value is not None and value < 0:
                raise MalformedDocument(
                    f"trace record {self.name!r}: {attr} must be >= 0"
                )


@dataclass(frozen=True)
class CounterTrace:
    """A per-layer performance-counter capture for one component."""

    component_id: str
    cache_line_bytes: int = DEFAULT_CACHE_LINE_BYTES
    layers: tuple[TraceRecord, ...] = ()

    def __post_init__(self):
        if not self.component_id:
            raise MalformedDocument("trace needs a component_id")
        if not self.cache_line_bytes > 0:
            raise MalformedDocument("cache_line_bytes must be > 0")

    def dram_bytes(self, record: TraceRecord) -> float:
        """DRAM bytes implied by one record under this trace's line size."""
        if record.refill_lines is not None:
            return float(record.refill_lines) * self.cache_line_bytes
        return float(record.ext_read_bytes or 0) + float(record.ext_write_bytes or 0)


# ---------------------------------------------------------------------------
# Document reading and validation
# ---------------------------------------------------------------------------

def _read_document(source: Source) -> dict:
    if isinstance(source, dict):
        return source
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = str(source)
        if not text.lstrip().startswith(("{", "[")):
            # anything that does not look like JSON text is a path
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocument("document root must be a JSON object")
    return doc


def _unwrap(doc: dict, key: str) -> dict:
    if key not in doc:
        raise MalformedDocument(f"document has no top-level {key!r} key")
    body = doc[key]
    if not isinstance(body, dict):
        raise MalformedDocument(f"{key!r} must be a JSON object")
    return body


def _require(body: dict, name: str, context: str):
    if name not in body:
        raise MalformedDocument(f"{context}: missing required key {name!r}")
    return body[name]


def _number(value, name: str, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedDocument(f"{context}: {name!r} must be a number")
    return float(value)


def load_platform(source: Source) -> Platform:
    """Parse and validate a platform document.

    CPU clusters may omit peak_compute_gops; it is then derived as
    cores x frequency_ghz x 4 FP32 ops per cycle (cores defaults to 4).
    """
    body = _unwrap(_read_document(source), "platform")
    pid = _require(body, "id", "platform")
    bus = _number(
        _require(body, "bus_peak_bandwidth_gbs", f"platform {pid!r}"),
        "bus_peak_bandwidth_gbs", f"platform {pid!r}",
    )
    raw_components = _require(body, "components", f"platform {pid!r}")
    if not isinstance(raw_components, list) or not raw_components:
        raise MalformedDocument(f"platform {pid!r}: components must be a non-empty list")
    components = []
    for raw in raw_components:
        if not isinstance(raw, dict):
            raise MalformedDocument(f"platform {pid!r}: each component must be an object")
        cid = _require(raw, "id", f"platform {pid!r} component")
        ctx = f"component {cid!r}"
        kind = _require(raw, "kind", ctx)
        freq = _number(_require(raw, "frequency_ghz", ctx), "frequency_ghz", ctx)
        peak = raw.get("peak_compute_gops")
        if peak is None:
            if kind not in CPU_KINDS:
                raise MalformedDocument(
                    f"{ctx}: peak_compute_gops is required for kind {kind!r}"
                )
            cores = raw.get("cores", DEFAULT_CLUSTER_CORES)
            peak = cores * freq * FP32_OPS_PER_CORE_CYCLE
        components.append(ComponentSpec(
            id=cid,
            kind=kind,
            peak_compute_gops=_number(peak, "peak_compute_gops", ctx),
            sustainable_bandwidth_gbs=_number(
                _require(raw, "sustainable_bandwidth_gbs", ctx),
                "sustainable_bandwidth_gbs", ctx),
            active_power_w=_number(
                _require(raw, "active_power_w", ctx), "active_power_w", ctx),
            frequency_ghz=freq,
            host_cluster=raw.get("host_cluster"),
        ))
    return Platform(
        id=pid,
        bus_peak_bandwidth_gbs=bus,
        components=tuple(components),
        notes=body.get("notes", ""),
    )


def load_network_profile(source: Source) -> NetworkProfile:
    """Parse and validate a network profile document."""
    body = _unwrap(_read_document(source), "network")
    nid = _require(body, "id", "network")
    raw_layers = _require(body, "layers", f"network {nid!r}")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise MalformedDocument(f"network {nid!r}: layers must be a non-empty list")
    layers = []
    for raw in raw_layers:
        if not isinstance(raw, dict):
            raise MalformedDocument(f"network {nid!r}: each layer must be an object")
        name = _require(raw, "name", f"network {nid!r} layer")
        ctx = f"layer {name!r}"
        dram = raw.get("dram_access_bytes")
        layers.append(LayerProfile(
            name=name,
            kind=_require(raw, "kind", ctx),
            gops=_number(_require(raw, "gops", ctx), "gops", ctx),
            mem_access_bytes=_number(
                _require(raw, "mem_access_bytes", ctx), "mem_access_bytes", ctx),
            dram_access_bytes=None if dram is None else _number(
                dram, "dram_access_bytes", ctx),
        ))
    raw_throughput = _require(body, "throughput", f"network {nid!r}")
    if not isinstance(raw_throughput, dict):
        raise MalformedDocument(f"network {nid!r}: throughput must be an object")
    throughput: dict[str, float] = {}
    supported: dict[str, bool] = {}
    for comp_id, value in raw_throughput.items():
        if value == UNSUPPORTED:
            supported[comp_id] = False
        else:
            supported[comp_id] = True
            throughput[comp_id] = _number(
                value, comp_id, f"network {nid!r} throughput")
    return NetworkProfile(
        id=nid,
        layers=tuple(layers),
        throughput=throughput,
        supported=supported,
        notes=body.get("notes", ""),
    )


def load_trace(source: Source) -> CounterTrace:
    """Parse and validate a counter-trace document."""
    body = _unwrap(_read_document(source), "trace")
    comp_id = _require(body, "component_id", "trace")
    raw_layers = body.get("layers", [])
    if not isinstance(raw_layers, list):
        raise MalformedDocument("trace: layers must be a list")
    records = []
    for raw in raw_layers:
        if not isinstance(raw, dict):
            raise MalformedDocument("trace: each layer record must be an object")
        records.append(TraceRecord(
            name=_require(raw, "name", "trace layer"),
            refill_lines=raw.get("refill_lines"),
            ext_read_bytes=raw.get("ext_read_bytes"),
            ext_write_bytes=raw.get("ext_write_bytes"),
        ))
    return CounterTrace(
        component_id=comp_id,
        cache_line_bytes=body.get("cache_line_bytes", DEFAULT_CACHE_LINE_BYTES),
        layers=tuple(records),
    )


# ---------------------------------------------------------------------------
# Serialization (inverse of the loaders; load(serialize(x)) == x)
# ---------------------------------------------------------------------------

def serialize_platform(platform: Platform) -> dict:
    components = []
    for comp in platform.components:
        raw = {
            "id": comp.id,
            "kind": comp.kind,
            "peak_compute_gops": comp.peak_compute_gops,
            "sustainable_bandwidth_gbs": comp.sustainable_bandwidth_gbs,
            "active_power_w": comp.active_power_w,
            "frequency_ghz": comp.frequency_ghz,
        }
        if comp.host_cluster is not None:
            raw["host_cluster"] = comp.host_cluster
        components.append(raw)
    body = {
        "id": platform.id,
        "bus_peak_bandwidth_gbs": platform.bus_peak_bandwidth_gbs,
        "components": components,
    }
    if platform.notes:
        body["notes"] = platform.notes
    return {"platform": body}


def serialize_network(profile: NetworkProfile) -> dict:
    layers = []
    for layer in profile.layers:
        raw = {
            "name": layer.name,
            "kind": layer.kind,
            "gops": layer.gops,
            "mem_access_bytes": layer.mem_access_bytes,
        }
        if layer.dram_access_bytes is not None:
            raw["dram_access_bytes"] = layer.dram_access_bytes
        layers.append(raw)
    throughput: dict[str, object] = {}
    for comp_id, ok in profile.supported.items():
        throughput[comp_id] = profile.throughput[comp_id] if ok else UNSUPPORTED
    body = {
        "id": profile.id,
        "layers": layers,
        "throughput": throughput,
    }
    if profile.notes:
        body["notes"] = profile.notes
    return {"network": body}


# ---------------------------------------------------------------------------
# Trace attachment
# ---------------------------------------------------------------------------

def attach_trace(profile: NetworkProfile, trace: CounterTrace) -> NetworkProfile:
    """Fill per-layer DRAM byte counts from a counter trace.

    CPU-style records convert refill lines at the trace's cache line size;
    GPU-style records sum external read and write bytes. Layers the trace
    does not mention are left untouched; an empty trace returns the profile
    unchanged. The result still satisfies dram <= mem for every layer, or
    this raises CacheTrafficInflated.
    """
    known = set(profile.supported) | set(profile.throughput)
    if trace.component_id not in known:
        raise UnknownComponent(
            f"trace component {trace.component_id!r} is not known to "
            f"network {profile.id!r}"
        )
    layer_names = {layer.name for layer in profile.layers}
    by_name = {}
    for record in trace.layers:
        if record.name not in layer_names:
            raise LayerMismatch(
                f"trace names layer {record.name!r} absent from "
                f"network {profile.id!r}"
            )
        by_name[record.name] = trace.dram_bytes(record)
    if not by_name:
        return profile
    new_layers = []
    for layer in profile.layers:
        if layer.name in by_name:
            new_layers.append(replace(layer, dram_access_bytes=by_name[layer.name]))
        else:
            new_layers.append(layer)
    return replace(profile, layers=tuple(new_layers))
