"""socperf: roofline models and co-execution simulation for CNN inference
on heterogeneous mobile SoCs.

The package bundles a measured dataset for two development boards, builds
per-component roofline models from their compute and bandwidth constants,
and simulates work-stealing co-execution of an inference frame stream
across CPU clusters, GPU, and NPU, including calibration of dispatch
overhead and host-contention factors against measured runs.

Its modules load on first use: reading an exported name imports the
submodule that defines it, so `import socperf` alone loads no simulator.
"""

import sys
from importlib import import_module
from types import ModuleType

# Each exported name -> the submodule that defines it.
_HOME = {name: module for module, names in {
    "calibrate": ("CalibrationResult", "calibrate"),
    "dataset": ("CoexecObservation", "COEXEC_OBSERVATIONS", "builtin_dataset",
                "builtin_trace", "find_observation", "network_by_id",
                "observations_for_table", "platform_by_id"),
    "errors": ("BandwidthExceedsBus", "CacheTrafficInflated", "DuplicateComponentId",
               "InfeasibleTarget", "LayerMismatch", "MalformedDocument",
               "MissingTrace", "SocPerfError", "UnknownComponent",
               "UnsupportedFormat", "UnsupportedPair"),
    "profiles": ("ComponentSpec", "CounterTrace", "LayerProfile", "NetworkProfile",
                 "Platform", "TraceRecord", "attach_trace", "load_network_profile",
                 "load_platform", "load_trace"),
    "roofline": ("RooflineModel", "RooflinePoint", "attainable", "classify",
                 "empirical_oi", "layer_points", "log_spaced", "network_oi",
                 "network_point", "quantize_profile", "roofline_series",
                 "theoretical_oi"),
    "sim": ("Scenario", "SimEvent", "SimResult", "effective_rates",
            "load_scenario", "simulate"),
}.items() for name in names}
# Submodules reachable as attributes; socperf.calibrate is the function.
_SUBMODULES = ("dataset", "errors", "profiles", "roofline", "sim")

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})


class _Package(ModuleType):
    def __setattr__(self, name, value):
        # Importing the submodule socperf.calibrate binds it here; the
        # package name stays the function, however that import happens.
        if name != "calibrate" or not isinstance(value, ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
