"""socperf: roofline models and co-execution simulation for CNN inference
on heterogeneous mobile SoCs.

The package bundles a measured dataset for two development boards, builds
per-component roofline models from their compute and bandwidth constants,
and simulates work-stealing co-execution of an inference frame stream
across CPU clusters, GPU, and NPU, including calibration of dispatch
overhead and host-contention factors against measured runs.
"""

from .calibrate import CalibrationResult, calibrate
from .dataset import (
    CoexecObservation,
    COEXEC_OBSERVATIONS,
    builtin_dataset,
    builtin_trace,
    find_observation,
    network_by_id,
    observations_for_table,
    platform_by_id,
)
from .errors import (
    BandwidthExceedsBus,
    CacheTrafficInflated,
    DanglingHostCluster,
    DuplicateComponentId,
    InfeasibleTarget,
    LayerMismatch,
    MalformedDocument,
    MissingTrace,
    SocPerfError,
    UnknownComponent,
    UnsupportedFormat,
    UnsupportedPair,
)
from .profiles import (
    ComponentSpec,
    CounterTrace,
    LayerProfile,
    NetworkProfile,
    Platform,
    TraceRecord,
    attach_trace,
    load_network_profile,
    load_platform,
    load_trace,
)
from .roofline import (
    RooflineModel,
    RooflinePoint,
    attainable,
    classify,
    empirical_oi,
    layer_points,
    log_spaced,
    network_oi,
    network_point,
    quantize_profile,
    roofline_series,
    theoretical_oi,
)
from .sim import (
    Scenario,
    SimEvent,
    SimResult,
    effective_rates,
    load_scenario,
    simulate,
)

__version__ = "0.1.0"
