"""Exception hierarchy for socperf.

All package-specific failures derive from SocPerfError so callers (and the
CLI) can distinguish validation problems from genuine I/O or programming
errors.
"""


class SocPerfError(Exception):
    """Base class for all socperf errors."""


class MalformedDocument(SocPerfError, ValueError):
    """A document or argument value breaks one of its input rules."""


class DuplicateComponentId(MalformedDocument):
    """Two components on one platform share an id."""


class DanglingHostCluster(MalformedDocument):
    """host_cluster names a component that does not exist or is not a CPU cluster."""


class BandwidthExceedsBus(MalformedDocument):
    """A component claims more sustainable bandwidth than the bus peak."""


class CacheTrafficInflated(MalformedDocument):
    """DRAM traffic reported above total memory traffic; caches only reduce traffic."""


class LayerMismatch(SocPerfError):
    """A counter trace names a layer the network profile does not have."""


class UnknownComponent(SocPerfError):
    """A component id is not known to the profile or platform at hand."""


class MissingTrace(SocPerfError):
    """Empirical operational intensity requested for a layer without DRAM counters."""


class UnsupportedPair(SocPerfError):
    """The network cannot run on the requested component."""


class InfeasibleTarget(SocPerfError):
    """A calibration target exceeds what the model can reach with zero overhead."""


class UnsupportedFormat(SocPerfError):
    """The requested output format does not apply to this payload."""
