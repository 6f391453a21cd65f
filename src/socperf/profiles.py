"""Data model for SoC platforms, network profiles, and counter traces.

Every type in this module is a frozen dataclass whose __post_init__ checks
its own fields with the checkers below, so an instance is valid however it
was built. Numeric fields are stored as floats and mappings as read-only
copies: instances are immutable and safe to share across threads. Loading
is plain single-threaded JSON parsing.

Document layout (JSON), one envelope key per document kind:

    {"platform": {"id": ..., "bus_peak_bandwidth_gbs": ..., "components": [...]}}
    {"network":  {"id": ..., "layers": [...], "throughput": {...}}}
    {"trace":    {"component_id": ..., "cache_line_bytes": ..., "layers": [...]}}

Unsupported (network, component) pairs are written as the string
"unsupported" in the throughput map and kept explicit in the model, so
engaging such a pair is an error rather than a silent zero.
"""

import functools
import io
import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from types import MappingProxyType
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

_INF = math.inf
_set = object.__setattr__  # stores a checked value on a frozen instance


# ---------------------------------------------------------------------------
# Checkers: every input rule of the package is one call to one of these.
# Each returns the checked value or raises MalformedDocument with the
# message "<ctx>: <key> must be <rule>, got <value>".
# ---------------------------------------------------------------------------

def _refusal(ctx: str, key: str, rule: str, value) -> MalformedDocument:
    where = f"{ctx}: {key}" if ctx else key
    return MalformedDocument(f"{where} must be {rule}, got {value!r}")


def number(value, key: str, ctx: str, low: float = 0.0, high: float = _INF,
           include_low: bool = False) -> float:
    """value as a float: a JSON number, not a bool, finite, above low (or
    equal to it with include_low) and at most high."""
    x = value
    if type(x) is not float:  # the loaders' hot path skips this block
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            x = math.nan
        try:
            x = float(x)
        except OverflowError:  # an integer beyond the float range
            x = _INF
    if (low < x or include_low and x == low) and x <= high and x < _INF:
        return x
    if high == _INF:
        rule = f"finite and {'>=' if include_low else '>'} {low:g}"
    else:
        rule = f"in {'[' if include_low else '('}{low:g}, {high:g}]"
    raise _refusal(ctx, key, rule, value)


def count(value, key: str, ctx: str, low: int = 1, high: float = _INF) -> int:
    """value, which must be a JSON integer (not a bool or a float) >= low
    and at most high."""
    if isinstance(value, int) and not isinstance(value, bool) and value >= low:
        if value <= high:
            return value
        raise _refusal(ctx, key, f"an integer <= {high}", value)
    raise _refusal(ctx, key, f"an integer >= {low}", value)


def text(value, key: str, ctx: str) -> str:
    """value, which must be a non-empty string."""
    if isinstance(value, str) and value:
        return value
    raise _refusal(ctx, key, "a non-empty string", value)


def ids(value, key: str, ctx: str) -> tuple[str, ...]:
    """value as a tuple: a non-empty list of non-empty strings. A bare
    string is refused, not split into characters."""
    if (isinstance(value, (list, tuple)) and value
            and all(isinstance(v, str) and v for v in value)):
        return tuple(value)
    raise _refusal(ctx, key, "a non-empty list of non-empty strings", value)


def items(value, key: str, ctx: str) -> tuple:
    """value as a tuple: a non-empty list."""
    if isinstance(value, (list, tuple)) and value:
        return tuple(value)
    raise _refusal(ctx, key, "a non-empty list", value)


def one_of(value, allowed: tuple, key: str, ctx: str):
    """value, which must equal one of allowed."""
    if value in allowed:
        return value
    raise _refusal(ctx, key, f"one of {', '.join(map(str, allowed))}", value)


def obj(value, key: str, ctx: str):
    """value, which must be a JSON object (or a read-only copy of one)."""
    if isinstance(value, (dict, MappingProxyType)):
        return value
    raise _refusal(ctx, key, "an object", value)


def unique(names, key: str, ctx: str, error=MalformedDocument) -> None:
    """Refuse, as error, the first of names that repeats an earlier one."""
    seen = set()
    for name in names:
        if name in seen:
            raise error(f"{ctx}: duplicate {key} {name!r}")
        seen.add(name)


def keys(body, allowed: dict, key: str, ctx: str) -> dict:
    """body filled from allowed: body must be a JSON object with no key that
    allowed lacks, and takes allowed's value for each key it lacks."""
    if obj(body, key, ctx).keys() <= allowed.keys():
        return {**allowed, **body}
    unknown = next(k for k in body if k not in allowed)
    raise _refusal(ctx, f"{key} key", f"one of {', '.join(allowed)}", unknown)


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
        ctx = f"component {text(self.id, 'id', 'component')!r}"
        one_of(self.kind, COMPONENT_KINDS, "kind", ctx)
        for key in ("peak_compute_gops", "sustainable_bandwidth_gbs",
                    "active_power_w", "frequency_ghz"):
            _set(self, key, number(getattr(self, key), key, ctx))
        if self.host_cluster is not None:
            text(self.host_cluster, "host_cluster", ctx)

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
        ctx = f"platform {text(self.id, 'id', 'platform')!r}"
        _set(self, "bus_peak_bandwidth_gbs",
             number(self.bus_peak_bandwidth_gbs, "bus_peak_bandwidth_gbs", ctx))
        _set(self, "components", items(self.components, "components", ctx))
        unique((comp.id for comp in self.components), "component id", ctx,
               DuplicateComponentId)
        for comp in self.components:
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
        ctx = f"layer {text(self.name, 'name', 'layer')!r}"
        one_of(self.kind, LAYER_KINDS, "kind", ctx)
        _set(self, "gops", number(self.gops, "gops", ctx))
        _set(self, "mem_access_bytes",
             number(self.mem_access_bytes, "mem_access_bytes", ctx))
        if self.dram_access_bytes is not None:
            _set(self, "dram_access_bytes",
                 number(self.dram_access_bytes, "dram_access_bytes", ctx))
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
    Both are stored as read-only copies. Whole-network operation and byte
    counts are by definition the sums over the layer table. op_scale, in
    (0, 1], is the factor a quantization scaled them by; a profile with
    op_scale < 1 is quantized.
    """

    id: str
    layers: tuple[LayerProfile, ...]
    throughput: dict[str, float]
    supported: dict[str, bool]
    op_scale: float = 1.0
    notes: str = ""

    def __post_init__(self):
        ctx = f"network {text(self.id, 'id', 'network')!r}"
        _set(self, "layers", items(self.layers, "layers", ctx))
        unique((layer.name for layer in self.layers), "layer name", ctx)
        where = f"{ctx} throughput"
        _set(self, "throughput", MappingProxyType({
            comp_id: number(rate, comp_id, where)
            for comp_id, rate in obj(self.throughput, "throughput", ctx).items()}))
        _set(self, "supported",
             MappingProxyType(dict(obj(self.supported, "supported", ctx))))
        for comp_id in self.throughput:
            if not self.supported.get(comp_id, False):
                raise MalformedDocument(
                    f"network {self.id!r}: throughput given for unsupported "
                    f"component {comp_id!r}"
                )
        for comp_id, ok in self.supported.items():
            if ok and comp_id not in self.throughput:
                raise MalformedDocument(
                    f"network {self.id!r}: supported component {comp_id!r} "
                    f"has no throughput value"
                )
        _set(self, "op_scale", number(self.op_scale, "op_scale", ctx, high=1.0))

    @property
    def quantized(self) -> bool:
        return self.op_scale < 1.0

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
        ctx = f"trace record {text(self.name, 'name', 'trace record')!r}"
        has_lines = self.refill_lines is not None
        has_ext = self.ext_read_bytes is not None or self.ext_write_bytes is not None
        if has_lines == has_ext:
            raise MalformedDocument(
                f"{ctx}: needs either refill_lines or external byte counters")
        for key in ("refill_lines", "ext_read_bytes", "ext_write_bytes"):
            value = getattr(self, key)
            if value is not None:
                count(value, key, ctx, low=0)


@dataclass(frozen=True)
class CounterTrace:
    """A per-layer performance-counter capture for one component."""

    component_id: str
    cache_line_bytes: int = DEFAULT_CACHE_LINE_BYTES
    layers: tuple[TraceRecord, ...] = ()

    def __post_init__(self):
        ctx = f"trace {text(self.component_id, 'component_id', 'trace')!r}"
        count(self.cache_line_bytes, "cache_line_bytes", ctx)
        unique((record.name for record in self.layers), "layer name", ctx)

    def dram_bytes(self, record: TraceRecord) -> float:
        """DRAM bytes implied by one record under this trace's line size."""
        if record.refill_lines is not None:
            return float(record.refill_lines) * self.cache_line_bytes
        return float(record.ext_read_bytes or 0) + float(record.ext_write_bytes or 0)


# ---------------------------------------------------------------------------
# Document reading. Loaders only unwrap a document, refuse unknown keys and
# pass the values on; the types check them.
# ---------------------------------------------------------------------------

# The keys each document object may hold, with the value an absent key takes.
_PLATFORM_DOC = {"id": None, "bus_peak_bandwidth_gbs": None, "components": None,
                 "notes": ""}
_COMPONENT_DOC = {"id": None, "kind": None, "peak_compute_gops": None,
                  "cores": DEFAULT_CLUSTER_CORES, "sustainable_bandwidth_gbs": None,
                  "active_power_w": None, "frequency_ghz": None, "host_cluster": None}
_NETWORK_DOC = {"id": None, "layers": None, "throughput": None, "op_scale": 1.0,
                "notes": ""}
_LAYER_DOC = dict.fromkeys(
    ("name", "kind", "gops", "mem_access_bytes", "dram_access_bytes"))
_TRACE_DOC = {"component_id": None, "cache_line_bytes": DEFAULT_CACHE_LINE_BYTES,
              "layers": None, "notes": ""}
_RECORD_DOC = dict.fromkeys(
    ("name", "refill_lines", "ext_read_bytes", "ext_write_bytes"))


def reads_document(build):
    """Turn build(doc) into a loader of one document from a Source.

    A source is a dict, JSON text, a readable file or a path. An
    os.PathLike is always a path. A string is a path unless it starts
    with { or [; such a string is JSON text, or a path if it does not
    parse and names an existing file. Errors about a document read from a
    path start with that path, prefixed here for every loader.
    """
    @functools.wraps(build)
    def load(source: Source):
        path, doc = None, source
        if isinstance(source, os.PathLike):
            path = os.fspath(source)
        elif hasattr(source, "read"):
            doc = source.read()
        elif not isinstance(source, dict):
            doc = str(source)
            if not doc.lstrip().startswith(("{", "[")):
                path = doc
        if path is not None:
            with open(path, "rb") as fh:
                doc = fh.read()
        try:
            if not isinstance(doc, dict):
                try:
                    doc = json.loads(doc)
                except ValueError as exc:
                    if (path is None and isinstance(source, str)
                            and os.path.isfile(source)):
                        return load(Path(source))
                    raise MalformedDocument(f"not valid JSON: {exc}") from exc
            return build(doc)
        except MalformedDocument as exc:
            if path is None:
                raise
            raise type(exc)(f"{path}: {exc}") from None
    return load


def unwrap(doc, kind: str, allowed: dict) -> dict:
    """The body under a document's one envelope key, filled from allowed."""
    return keys(keys(doc, {kind: None}, "document", "")[kind], allowed, kind, "")


@reads_document
def load_platform(doc) -> Platform:
    """Parse and validate a platform document.

    CPU clusters may omit peak_compute_gops; it is then derived as
    cores x frequency_ghz x 4 FP32 ops per cycle (cores defaults to 4).
    """
    body = unwrap(doc, "platform", _PLATFORM_DOC)
    ctx = f"platform {body['id']!r}"
    components = []
    for raw in items(body["components"], "components", ctx):
        spec = keys(raw, _COMPONENT_DOC, "component", ctx)
        cores = spec.pop("cores")
        if spec["peak_compute_gops"] is None and spec["kind"] in CPU_KINDS:
            cctx = f"component {spec['id']!r}"
            spec["peak_compute_gops"] = (
                count(cores, "cores", cctx)
                * number(spec["frequency_ghz"], "frequency_ghz", cctx)
                * FP32_OPS_PER_CORE_CYCLE)
        components.append(ComponentSpec(**spec))
    body["components"] = tuple(components)
    return Platform(**body)


@reads_document
def load_network_profile(doc) -> NetworkProfile:
    """Parse and validate a network profile document."""
    body = unwrap(doc, "network", _NETWORK_DOC)
    ctx = f"network {body['id']!r}"
    layers = tuple(LayerProfile(**keys(raw, _LAYER_DOC, "layer", ctx))
                   for raw in items(body["layers"], "layers", ctx))
    rates = obj(body["throughput"], "throughput", ctx)
    return NetworkProfile(
        id=body["id"],
        layers=layers,
        throughput={cid: v for cid, v in rates.items() if v != UNSUPPORTED},
        supported={cid: v != UNSUPPORTED for cid, v in rates.items()},
        op_scale=body["op_scale"],
        notes=body["notes"],
    )


@reads_document
def load_trace(doc) -> CounterTrace:
    """Parse and validate a counter-trace document."""
    body = unwrap(doc, "trace", _TRACE_DOC)
    ctx = f"trace {body['component_id']!r}"
    records = tuple(TraceRecord(**keys(raw, _RECORD_DOC, "layer", ctx))
                    for raw in items(body["layers"], "layers", ctx))
    return CounterTrace(body["component_id"], body["cache_line_bytes"], records)


# ---------------------------------------------------------------------------
# Serialization (inverse of the loaders; load(serialize(x)) == x). The key
# tables above list each document's keys; the writers rebuild only the
# nested lists and the "unsupported" throughput entries.
# ---------------------------------------------------------------------------

def _document(instance, table: dict) -> dict:
    """instance's value of each key of a document table, in its order, less
    those equal to the key's default (as is a key it lacks, like cores)."""
    return {key: value for key, default in table.items()
            if (value := getattr(instance, key, default)) != default}


def serialize_platform(platform: Platform) -> dict:
    body = _document(platform, _PLATFORM_DOC)
    body["components"] = [_document(comp, _COMPONENT_DOC)
                          for comp in platform.components]
    return {"platform": body}


def serialize_network(profile: NetworkProfile) -> dict:
    body = _document(profile, _NETWORK_DOC)
    body["layers"] = [_document(layer, _LAYER_DOC) for layer in profile.layers]
    body["throughput"] = {cid: profile.throughput[cid] if ok else UNSUPPORTED
                          for cid, ok in profile.supported.items()}
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
    if trace.component_id not in profile.supported:
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
    return replace(profile, layers=tuple(
        replace(layer, dram_access_bytes=by_name[layer.name])
        if layer.name in by_name else layer for layer in profile.layers))
