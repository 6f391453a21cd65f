"""In-memory spans around the calls into socperf's modules.

The benchmark installs these wrappers from its own files; socperf itself
is not changed. A wrapper replaces a function on every module binding
that callers resolve at call time, because a caller that did
``from .sim import simulate`` looks the name up in its own module. For
calibration that binding is ``sys.modules["socperf.calibrate"].simulate``:
the package attribute ``socperf.calibrate`` is the function, not the
module. A binding that no longer exists is skipped, and the metrics built
on it are reported as absent.
"""

import collections
import json
import sys
import time

# span name -> (defining module, attribute, modules that also bind it)
TRACED = {
    "profiles.load_platform": ("socperf.profiles", "load_platform", ("socperf.dataset", "socperf")),
    "profiles.load_network": ("socperf.profiles", "load_network_profile", ("socperf.dataset", "socperf")),
    "sim.load_scenario": ("socperf.sim", "load_scenario", ("socperf.cli", "socperf")),
    "dataset.builtin_dataset": ("socperf.dataset", "builtin_dataset", ("socperf",)),
    "sim.simulate": ("socperf.sim", "simulate", ("socperf.calibrate", "socperf.cli", "socperf")),
    "calibrate.calibrate": ("socperf.calibrate", "calibrate", ("socperf.cli", "socperf")),
    "roofline.series": ("socperf.roofline", "roofline_series", ("socperf.cli", "socperf")),
    "roofline.layer_points": ("socperf.roofline", "layer_points", ("socperf.cli", "socperf")),
    "roofline.network_point": ("socperf.roofline", "network_point", ("socperf.cli", "socperf")),
    "emit.json": ("socperf.emit", "emit_json", ("socperf.cli",)),
    "emit.csv": ("socperf.emit", "emit_csv", ("socperf.cli",)),
    "emit.svg": ("socperf.emit", "emit_svg_roofline", ()),
    "cli.main": ("socperf.cli", "main", ()),
}

# Extra detail kept on a span, computed from the call's arguments or result.
_ARG_TAGS = {
    "sim.simulate": lambda args, kwargs: args[0].frame_count,
    "cli.main": lambda args, kwargs: " ".join(args[0]) if args else "",
}
_RESULT_TAGS = {
    "emit.json": len,
    "emit.csv": len,
    "emit.svg": len,
}


class Tracer:
    """Records spans (name, start_ns, end_ns, parent index, op id, tag)."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self.present: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        arg_tag, result_tag = _ARG_TAGS.get(name), _RESULT_TAGS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op,
                    arg_tag(args, kwargs) if arg_tag else None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if result_tag:
                    span[5] = result_tag(result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for name, (home, attr, others) in TRACED.items():
            module = sys.modules.get(home)
            original = getattr(module, attr, None)
            if not callable(original):
                continue
            self.present.add(name)
            wrapper = self._wrap(name, original)
            for mod_name in (home,) + others:
                module = sys.modules.get(mod_name)
                if module is not None and getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path: str, stamp: dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "stamp": stamp,
                "fields": ["name", "start_ns", "end_ns", "parent", "op", "tag"],
                "spans": self.spans,
            }, fh)



def _enclosing_table(spans, index):
    """The N of the `tables --which N` run a span was called from, or None."""
    parent = spans[index][3]
    while parent >= 0:
        name, tag = spans[parent][0], spans[parent][5]
        if name == "cli.main" and tag and tag.startswith("tables --which "):
            return int(tag.rsplit(" ", 1)[1])
        parent = spans[parent][3]
    return None


def layer_metrics(tracer: Tracer, ops: int, wall_ns: int) -> dict:
    """Per-layer metrics from one traced pass of `ops` operations.

    A metric whose function is missing from socperf is None (absent). A
    function the workload never calls gives 0.
    """
    spans = tracer.spans
    by_name = collections.defaultdict(list)
    children = collections.defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span[0]].append(index)
        if span[3] >= 0:
            children[span[3]].append(index)

    def duration(index):
        return spans[index][2] - spans[index][1]

    def mean(name, unit_ns, indices=None):
        if name not in tracer.present:
            return None
        indices = by_name[name] if indices is None else indices
        return sum(map(duration, indices)) / len(indices) / unit_ns if indices else 0.0

    def count(name):
        return len(by_name[name]) if name in tracer.present else None

    def tag_sum(*names):
        if not all(name in tracer.present for name in names):
            return None
        return sum(spans[i][5] or 0 for name in names for i in by_name[name])

    dataset_calls = count("dataset.builtin_dataset")
    metrics = {
        "profiles.load_platform.us": mean("profiles.load_platform", 1e3),
        "profiles.load_network.us": mean("profiles.load_network", 1e3),
        "sim.load_scenario.us": mean("sim.load_scenario", 1e3),
        "dataset.builtin_dataset.calls": dataset_calls,
        "dataset.builtin_dataset.calls_per_op":
            None if dataset_calls is None else dataset_calls / ops,
        "dataset.builtin_dataset.ms": mean("dataset.builtin_dataset", 1e6),
        "dataset.share_pct": None if dataset_calls is None else
            100.0 * sum(map(duration, by_name["dataset.builtin_dataset"])) / wall_ns,
        "sim.simulate.calls": count("sim.simulate"),
        "sim.frames": tag_sum("sim.simulate"),
        "roofline.series_us": mean("roofline.series", 1e3),
        "emit.json_us": mean("emit.json", 1e3),
        "emit.csv_us": mean("emit.csv", 1e3),
        "emit.svg_us": mean("emit.svg", 1e3),
        "emit.bytes": tag_sum("emit.json", "emit.csv", "emit.svg"),
    }

    points = by_name["roofline.layer_points"] + by_name["roofline.network_point"]
    point_ops = {spans[i][4] for i in points}
    metrics["roofline.points_us"] = (
        None if "roofline.layer_points" not in tracer.present else
        sum(map(duration, points)) / len(point_ops) / 1e3 if point_ops else 0.0)

    for which in (1, 2, 3):
        runs = [i for i in by_name["cli.main"] if spans[i][5] == f"tables --which {which}"]
        metrics[f"cli.main_ms.table{which}"] = mean("cli.main", 1e6, runs)

    # Calibration is counted over the fits that `tables` runs make.
    present = {"calibrate.calibrate", "sim.simulate"} <= tracer.present
    fits = {2: [], 3: []}
    for index in by_name["calibrate.calibrate"]:
        table = _enclosing_table(spans, index)
        if table in fits:
            fits[table].append(index)
    sims = {i: [c for c in children[i] if spans[c][0] == "sim.simulate"]
            for i in fits[2] + fits[3]}
    for table, indices in fits.items():
        metrics[f"calibrate.sims_per_fit.table{table}"] = None if not present else (
            sum(len(sims[i]) for i in indices) / len(indices) if indices else 0.0)
        metrics[f"calibrate.fit_ms.table{table}"] = mean("calibrate.calibrate", 1e6, indices)
    fit_ns = sum(duration(i) for i in sims)
    sim_ns = sum(duration(c) for group in sims.values() for c in group)
    metrics["calibrate.fits"] = len(sims) if present else None
    metrics["calibrate.self_pct"] = None if not present else (
        100.0 * (fit_ns - sim_ns) / fit_ns if fit_ns else 0.0)
    return metrics
