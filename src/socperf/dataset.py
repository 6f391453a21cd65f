"""Bundled measurement dataset and its lookup helpers.

The package ships the measured dataset for two development boards, a
28nm mid-range SoC (exynos5422: A7 + A15 clusters, T628 GPU) and a 10nm
high-end SoC (kirin970: A53 + A73 clusters, G72 GPU, NPU), together with
five CNN profiles. Setting the SOCPERF_DATA environment variable to a
directory of platform/network JSON documents replaces the bundled set.

Only whole-network throughput values are measured ground truth; the
per-layer operation/byte tables and some board constants are marked as
user-supplied estimates in the documents' notes fields.
"""

import functools
import os
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Optional

from .errors import MalformedDocument, UnknownComponent
from .profiles import (NetworkProfile, Platform, load_network_profile, load_platform,
                       load_trace, obj, one_of, reads_document, shown)

DATA_ENV_VAR = "SOCPERF_DATA"
_BUNDLED_DIR = os.path.join(os.path.dirname(__file__), "data")
# The loader of each document kind; a counter trace is checked, not kept.
_LOADERS = {"platform": load_platform, "network": load_network_profile,
            "trace": load_trace}

# Column order used by throughput tables: mid-range board then high-end board.
TABLE1_COMPONENT_ORDER = ("a7", "a15", "t628", "a53", "a73", "g72", "npu")
TABLE1_NETWORK_ORDER = ("alexnet", "googlenet", "mobilenet", "resnet50", "squeezenet")


@reads_document
def _load_entry(doc):
    """(kind, entry) of one data-directory document. The kind is the
    document's first key; its loader refuses any other key."""
    kind = one_of(next(iter(obj(doc, "document", "")), None), tuple(_LOADERS),
                  "document kind", "")
    return kind, _LOADERS[kind](doc)


def builtin_dataset() -> tuple[list[Platform], list[NetworkProfile]]:
    """Load the platforms and network profiles of the data directory.

    That is the bundled directory, or the one SOCPERF_DATA names. Its
    *.json files are read in name order through the same loaders and
    validation as user files; a platform or network id may occur in one
    file only. A directory is parsed once per process and its entries,
    which are immutable, are shared; each call returns fresh lists.
    """
    entries = _entries()
    return list(entries["platform"].values()), list(entries["network"].values())


def _entries() -> MappingProxyType:
    return _load_dir(os.environ.get(DATA_ENV_VAR) or _BUNDLED_DIR)


@functools.lru_cache(maxsize=4)  # a failure raises, so it is never cached
def _load_dir(path: str) -> MappingProxyType:
    """Read-only maps of platform and network id to entry, by kind, each in
    file-name order."""
    entries: dict[str, dict] = {"platform": {}, "network": {}}
    origin: dict[tuple[str, str], str] = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json"):
            continue
        full = os.path.join(path, name)
        kind, entry = _load_entry(Path(full))
        if kind == "trace":
            continue
        first = origin.setdefault((kind, entry.id), full)
        if first != full:
            raise MalformedDocument(
                f"{full}: {kind} id {shown(entry.id)} is also defined in {first}")
        entries[kind][entry.id] = entry
    return MappingProxyType({kind: MappingProxyType(by_id)
                             for kind, by_id in entries.items()})


def builtin_trace(name: str = "alexnet_a15_trace"):
    """Load a bundled counter trace by file stem."""
    return load_trace(os.path.join(_BUNDLED_DIR, f"{name}.json"))


def platform_by_id(platform_id: str) -> Platform:
    return _by_id("platform", platform_id)


def network_by_id(network_id: str) -> NetworkProfile:
    return _by_id("network", network_id)


def _by_id(kind: str, entry_id: str):
    entries = _entries()[kind]
    try:
        return entries[entry_id]
    except (KeyError, TypeError):  # TypeError: an unhashable id
        raise UnknownComponent(
            f"no {kind} {shown(entry_id)} in dataset (have: {shown(list(entries))})"
        ) from None


@dataclass(frozen=True)
class CoexecObservation:
    """One measured co-execution run: target throughput and composition.

    table groups the observations the way the reporting CLI emits them:
    table 2 is CPU clusters + GPU on both boards (baseline: the GPU),
    table 3 is the full high-end SoC including the NPU (baseline: the NPU).
    Composition percentages are only available for table 3 runs.
    """

    table: int
    platform_id: str
    network_id: str
    engaged: tuple[str, ...]
    best_single_id: str
    coexec_imgs_s: float
    gain_pct: float
    composition_pct: Optional[dict[str, float]] = None


COEXEC_OBSERVATIONS: tuple[CoexecObservation, ...] = (
    # Mid-range board, CPU clusters + GPU.
    CoexecObservation(2, "exynos5422", "alexnet", ("a7", "a15", "t628"), "t628", 10.3, 32.4),
    CoexecObservation(2, "exynos5422", "googlenet", ("a7", "a15", "t628"), "t628", 8.7, 66.3),
    CoexecObservation(2, "exynos5422", "mobilenet", ("a7", "a15", "t628"), "t628", 14.9, 76.7),
    CoexecObservation(2, "exynos5422", "resnet50", ("a7", "a15", "t628"), "t628", 2.9, 38.6),
    CoexecObservation(2, "exynos5422", "squeezenet", ("a7", "a15", "t628"), "t628", 13.8, 73.9),
    # High-end board, CPU clusters + GPU (NPU left out).
    CoexecObservation(2, "kirin970", "alexnet", ("a53", "a73", "g72"), "g72", 33.4, 2.8),
    CoexecObservation(2, "kirin970", "googlenet", ("a53", "a73", "g72"), "g72", 28.4, 42.8),
    CoexecObservation(2, "kirin970", "mobilenet", ("a53", "a73", "g72"), "g72", 51.5, 77.1),
    CoexecObservation(2, "kirin970", "resnet50", ("a53", "a73", "g72"), "g72", 12.3, 46.3),
    CoexecObservation(2, "kirin970", "squeezenet", ("a53", "a73", "g72"), "g72", 54.5, 26.7),
    # High-end board, every component engaged. mobilenet is absent because
    # the NPU does not support it.
    CoexecObservation(3, "kirin970", "alexnet", ("a53", "a73", "g72", "npu"), "npu", 63.7, 96.0,
                      {"a73": 1.90, "a53": 0.95, "g72": 47.47, "npu": 49.68}),
    CoexecObservation(3, "kirin970", "googlenet", ("a53", "a73", "g72", "npu"), "npu", 59.3, 72.4,
                      {"a73": 3.06, "a53": 1.70, "g72": 33.33, "npu": 61.90}),
    CoexecObservation(3, "kirin970", "resnet50", ("a53", "a73", "g72", "npu"), "npu", 30.9, 40.9,
                      {"a73": 2.63, "a53": 1.32, "g72": 26.97, "npu": 69.08}),
    CoexecObservation(3, "kirin970", "squeezenet", ("a53", "a73", "g72", "npu"), "npu", 95.1, 92.9,
                      {"a73": 3.18, "a53": 1.69, "g72": 43.43, "npu": 51.69}),
)


def observations_for_table(table: int) -> tuple[CoexecObservation, ...]:
    return tuple(o for o in COEXEC_OBSERVATIONS if o.table == table)


def find_observation(platform_id: str, network_id: str,
                     engaged: tuple[str, ...]) -> Optional[CoexecObservation]:
    wanted = tuple(sorted(engaged))
    for obs in COEXEC_OBSERVATIONS:
        if (obs.platform_id == platform_id and obs.network_id == network_id
                and tuple(sorted(obs.engaged)) == wanted):
            return obs
    return None
