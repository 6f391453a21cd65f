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
"unsupported" in the throughput map and kept explicit in the model as a
None rate, so engaging such a pair is an error rather than a silent zero.
"""

import functools
import json
import math
import os
from dataclasses import dataclass, replace
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

Source = Union[str, os.PathLike, dict]

_INF = math.inf
_set = object.__setattr__  # stores a checked value on a frozen instance


# ---------------------------------------------------------------------------
# Checkers: every input rule of the package is one call to one of these.
# Each returns the checked value or raises MalformedDocument with the
# message "<ctx>: <key> must be <rule>, got <value>".
# ---------------------------------------------------------------------------

def shown(value) -> str:
    """How a message shows a value, id or name: its repr, or for a repr
    longer than 80 characters its first 60 and its length."""
    text = repr(value)
    return text if len(text) <= 80 else f"{text[:60]}... ({len(text)} characters)"


def _refusal(ctx: str, key: str, rule: str, value) -> MalformedDocument:
    where = f"{ctx}: {key}" if ctx else key
    return MalformedDocument(f"{where} must be {rule}, got {shown(value)}")


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
            raise error(f"{ctx}: duplicate {key} {shown(name)}")
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
    the CPU cluster that drives this accelerator's runtime: validated board
    metadata that no computation reads.
    """

    id: str
    kind: str
    peak_compute_gops: float
    sustainable_bandwidth_gbs: float
    active_power_w: float
    frequency_ghz: float
    host_cluster: Optional[str] = None

    def __post_init__(self):
        ctx = f"component {shown(text(self.id, 'id', 'component'))}"
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
        ctx = f"platform {shown(text(self.id, 'id', 'platform'))}"
        _set(self, "bus_peak_bandwidth_gbs",
             number(self.bus_peak_bandwidth_gbs, "bus_peak_bandwidth_gbs", ctx))
        _set(self, "components", items(self.components, "components", ctx))
        unique((comp.id for comp in self.components), "component id", ctx,
               DuplicateComponentId)
        for comp in self.components:
            if comp.sustainable_bandwidth_gbs > self.bus_peak_bandwidth_gbs:
                raise BandwidthExceedsBus(
                    f"{ctx}: component {shown(comp.id)} sustainable "
                    f"bandwidth {comp.sustainable_bandwidth_gbs} GB/s exceeds "
                    f"bus peak {self.bus_peak_bandwidth_gbs} GB/s"
                )
        _set(self, "_by_id", {c.id: c for c in self.components})
        for comp in self.components:
            if comp.host_cluster is None:
                continue
            if comp.is_cpu:
                raise DanglingHostCluster(
                    f"{ctx}: CPU cluster {shown(comp.id)} cannot have a host_cluster")
            host = self._by_id.get(comp.host_cluster)
            if host is None:
                raise DanglingHostCluster(
                    f"{ctx}: component {shown(comp.id)} references "
                    f"missing host cluster {shown(comp.host_cluster)}"
                )
            if not host.is_cpu:
                raise DanglingHostCluster(
                    f"{ctx}: host cluster {shown(comp.host_cluster)} "
                    f"of {shown(comp.id)} must be a CPU cluster, got kind {host.kind!r}"
                )

    def component(self, component_id: str) -> ComponentSpec:
        try:
            return self._by_id[component_id]
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise UnknownComponent(
                f"platform {shown(self.id)} has no component "
                f"{shown(component_id)}") from None


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
        ctx = f"layer {shown(text(self.name, 'name', 'layer'))}"
        one_of(self.kind, LAYER_KINDS, "kind", ctx)
        _set(self, "gops", number(self.gops, "gops", ctx))
        _set(self, "mem_access_bytes",
             number(self.mem_access_bytes, "mem_access_bytes", ctx))
        if self.dram_access_bytes is not None:
            _set(self, "dram_access_bytes",
                 number(self.dram_access_bytes, "dram_access_bytes", ctx))
            if self.dram_access_bytes > self.mem_access_bytes:
                raise CacheTrafficInflated(
                    f"{ctx}: dram_access_bytes "
                    f"{self.dram_access_bytes} exceeds mem_access_bytes "
                    f"{self.mem_access_bytes}; caches only reduce traffic"
                )


@dataclass(frozen=True)
class NetworkProfile:
    """Per-network layer table plus measured per-component throughput.

    throughput maps each known component id to its measured images/s at
    peak frequency, or to None for a pair that cannot run at all, and is
    stored as a read-only copy. Whole-network operation and byte counts are
    by definition the sums over the layer table. op_scale, in (0, 1], is
    the factor a quantization scaled them by; a profile with op_scale < 1
    is quantized.
    """

    id: str
    layers: tuple[LayerProfile, ...]
    throughput: dict[str, Optional[float]]
    op_scale: float = 1.0
    notes: str = ""

    def __post_init__(self):
        ctx = f"network {shown(text(self.id, 'id', 'network'))}"
        _set(self, "layers", items(self.layers, "layers", ctx))
        unique((layer.name for layer in self.layers), "layer name", ctx)
        where = f"{ctx} throughput"
        _set(self, "throughput", MappingProxyType({
            comp_id: None if rate is None else number(rate, comp_id, where)
            for comp_id, rate in obj(self.throughput, "throughput", ctx).items()}))
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
        return self.throughput.get(component_id) is not None

    def rate(self, component_id: str) -> float:
        """Measured isolated throughput in images/s for one component."""
        rate = self.throughput.get(component_id)
        if rate is None:
            raise UnsupportedPair(
                f"network {shown(self.id)} is not supported on {shown(component_id)}"
            )
        return rate

    def layer(self, name: str) -> LayerProfile:
        for lyr in self.layers:
            if lyr.name == name:
                return lyr
        raise LayerMismatch(f"network {shown(self.id)} has no layer {shown(name)}")


@dataclass(frozen=True)
class TraceRecord:
    """Counters for one layer: CPU L2 refill lines or GPU external bytes."""

    name: str
    refill_lines: Optional[int] = None
    ext_read_bytes: Optional[int] = None
    ext_write_bytes: Optional[int] = None

    def __post_init__(self):
        ctx = f"trace record {shown(text(self.name, 'name', 'trace record'))}"
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
        ctx = f"trace {shown(text(self.component_id, 'component_id', 'trace'))}"
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

    A source is a path, JSON text or the document itself. An os.PathLike
    is a path, and so is a string unless it starts with { or [; such a
    string is JSON text unless it does not parse and names an existing
    file. Any other source goes to build as the document, which refuses
    it unless it is an object. Errors about a document read from a path
    start with that path, prefixed here for every loader.
    """
    @functools.wraps(build)
    def load(source: Source):
        if isinstance(source, str) and source.lstrip().startswith(("{", "[")):
            try:
                doc = json.loads(source)
            except (ValueError, RecursionError) as exc:  # or nested too deeply
                if not os.path.isfile(source):
                    raise MalformedDocument(f"not valid JSON: {exc}") from exc
            else:
                return build(doc)
        elif not isinstance(source, (str, os.PathLike)):
            return build(source)
        path = os.fspath(source)
        try:
            fh = open(path, "rb")
        except ValueError as exc:  # a NUL byte in the path
            raise MalformedDocument(f"{path!r}: not a path: {exc}") from None
        with fh:
            text = fh.read()
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise MalformedDocument(f"{path}: not valid JSON: {exc}") from exc
        try:
            return build(doc)
        except MalformedDocument as exc:
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
    cores is refused on any other component.
    """
    body = unwrap(doc, "platform", _PLATFORM_DOC)
    ctx = f"platform {shown(body['id'])}"
    components = []
    for raw in items(body["components"], "components", ctx):
        spec = keys(raw, _COMPONENT_DOC, "component", ctx)
        cores = spec.pop("cores")
        cctx = f"component {shown(spec['id'])}"
        if spec["peak_compute_gops"] is None and spec["kind"] in CPU_KINDS:
            spec["peak_compute_gops"] = (
                count(cores, "cores", cctx)
                * number(spec["frequency_ghz"], "frequency_ghz", cctx)
                * FP32_OPS_PER_CORE_CYCLE)
        elif "cores" in raw:
            raise _refusal(cctx, "cores", "given only by a CPU cluster that "
                           "omits peak_compute_gops", cores)
        components.append(ComponentSpec(**spec))
    body["components"] = tuple(components)
    return Platform(**body)


@reads_document
def load_network_profile(doc) -> NetworkProfile:
    """Parse and validate a network profile document."""
    body = unwrap(doc, "network", _NETWORK_DOC)
    ctx = f"network {shown(body['id'])}"
    layers = tuple(LayerProfile(**keys(raw, _LAYER_DOC, "layer", ctx))
                   for raw in items(body["layers"], "layers", ctx))
    # Only the string "unsupported" marks a pair that cannot run; a null
    # rate is refused like any other non-number.
    where = f"{ctx} throughput"
    return NetworkProfile(
        id=body["id"],
        layers=layers,
        throughput={cid: None if v == UNSUPPORTED else number(v, cid, where)
                    for cid, v in obj(body["throughput"], "throughput", ctx).items()},
        op_scale=body["op_scale"],
        notes=body["notes"],
    )


@reads_document
def load_trace(doc) -> CounterTrace:
    """Parse and validate a counter-trace document."""
    body = unwrap(doc, "trace", _TRACE_DOC)
    ctx = f"trace {shown(body['component_id'])}"
    records = tuple(TraceRecord(**keys(raw, _RECORD_DOC, "layer", ctx))
                    for raw in items(body["layers"], "layers", ctx))
    return CounterTrace(body["component_id"], body["cache_line_bytes"], records)


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
    if trace.component_id not in profile.throughput:
        raise UnknownComponent(
            f"trace component {shown(trace.component_id)} is not known to "
            f"network {shown(profile.id)}"
        )
    layer_names = {layer.name for layer in profile.layers}
    by_name = {}
    for record in trace.layers:
        if record.name not in layer_names:
            raise LayerMismatch(
                f"trace names layer {shown(record.name)} absent from "
                f"network {shown(profile.id)}"
            )
        by_name[record.name] = trace.dram_bytes(record)
    if not by_name:
        return profile
    return replace(profile, layers=tuple(
        replace(layer, dram_access_bytes=by_name[layer.name])
        if layer.name in by_name else layer for layer in profile.layers))
