"""Command-line reporting front end.

Subcommands: roofline (plot tables / SVG), simulate (one scenario),
calibrate (fit overhead and contention to a target), tables (regenerate
the throughput and co-execution summary tables from the bundled dataset).

Exit codes: 0 success, 1 for validation failures (the diagnostic names
the failing check), 2 for I/O failures and usage errors; each failure is
one stderr line. Identical invocations produce byte-identical output:
jitter is seeded, with --seed 0 unless given.
SOCPERF_DATA overrides the bundled dataset directory.

A subcommand runs only the modules it uses. Importing this module puts
socperf.calibrate, socperf.roofline and socperf.sim into sys.modules as
modules that run on first attribute use (_deferred), so `tables --which 1`
runs none of them, roofline runs roofline, simulate runs sim, and
calibrate and tables 2 and 3 run calibrate and sim. The deferral goes
through sys.modules, not through imports inside the handlers, because
the benchmark in perfbench/ reads those entries right after importing
this module (ROADMAP item 11). Before Python 3.12 a deferred load is not
thread-safe, so the first use of each deferred module should not race
across threads. `import socperf` alone installs no deferred module.
"""

import argparse
import importlib.util
import sys
from pathlib import Path
from types import ModuleType
from typing import Optional

from . import dataset
from .emit import (
    emit_csv,
    emit_json,
    emit_svg_roofline,
    sim_result_payload,
    sim_result_to_csv,
)
from .errors import SocPerfError, UnknownComponent


def _deferred(name: str) -> ModuleType:
    """The submodule socperf.<name> from sys.modules, put there first, if
    it is not imported yet, as a module that runs on first attribute use.

    The entry, not an import inside each handler, is what defers it: the
    benchmark in perfbench/ reads sys.modules["socperf.roofline"] and
    ["socperf.calibrate"] right after importing this module (ROADMAP item
    11). Before Python 3.12, importlib.util.LazyLoader is not thread-safe,
    so the first use of a deferred module should not race across threads.
    """
    qualified = f"{__package__}.{name}"
    module = sys.modules.get(qualified)
    if module is None:
        spec = importlib.util.find_spec(qualified)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[qualified] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


# Only the handler that needs one of these runs it.
calibrate, roofline, sim = map(_deferred, ("calibrate", "roofline", "sim"))

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_USAGE = 2


def _parse_id_values(text: Optional[str], flag: str,
                     form: str) -> dict[str, float]:
    """Parse a flag value of comma-separated entries of the given form; an
    empty entry, as in "", "," or a trailing comma, is refused like any
    malformed one."""
    values: dict[str, float] = {}
    for item in () if text is None else text.split(","):
        name, _, value = item.partition("=")
        name = name.strip()
        if name in values:
            raise SocPerfError(f"{flag} names {name!r} twice")
        try:
            values[name] = float(value)
        except ValueError:
            raise SocPerfError(
                f"{flag} entries look like {form}, got {item!r}") from None
    return values


def _write(payload: bytes, output: Optional[str]) -> None:
    if output:
        with open(output, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_roofline(args) -> bytes:
    platform = dataset.platform_by_id(args.platform)
    model = roofline.RooflineModel.for_component(platform.component(args.component))
    points = []
    if args.network:
        profile = dataset.network_by_id(args.network)
        points.extend(roofline.layer_points(profile, model))
        points.append(roofline.network_point(profile, model))
    rows = roofline.roofline_series(
        model, points, roofline.log_spaced(args.oi_min, args.oi_max, args.samples))
    if args.format == "csv":
        return emit_csv(rows)
    if args.format == "json":
        return emit_json(rows)
    return emit_svg_roofline(rows, f"{args.platform}/{args.component} roofline")


# simulate's scenario flags, with the value an absent one takes.
_SCENARIO_FLAGS = {"platform": None, "network": None, "components": None,
                   "frames": 10000, "overhead": 0.0, "contention": None,
                   "seed": 0, "cv": 0.0}


def _scenario_from_args(args) -> "sim.Scenario":
    given = {name: value for name in _SCENARIO_FLAGS
             if (value := getattr(args, name)) is not None}
    if args.scenario:
        if given:
            raise SocPerfError("simulate takes --scenario or scenario flags, "
                               f"not both (given: --{', --'.join(given)})")
        return sim.load_scenario(Path(args.scenario))
    flags = {**_SCENARIO_FLAGS, **given}
    missing = [name for name in ("platform", "network", "components")
               if not flags[name]]
    if missing:
        raise SocPerfError(
            f"simulate needs --scenario or --platform/--network/--components "
            f"(missing: {', '.join(missing)})"
        )
    return sim.Scenario(
        platform_id=flags["platform"],
        network_id=flags["network"],
        engaged=tuple(flags["components"].split(",")),
        frame_count=flags["frames"],
        dispatch_overhead_s=flags["overhead"],
        contention=_parse_id_values(flags["contention"], "--contention",
                                    "id=factor"),
        jitter_seed=flags["seed"],
        jitter_cv=flags["cv"],
    )


def _cmd_simulate(args) -> bytes:
    result = sim.simulate(_scenario_from_args(args))
    if args.format == "csv":
        return sim_result_to_csv(result)
    return emit_json(sim_result_payload(result))


def _observed(obs: dataset.CoexecObservation) -> dict:
    """Calibration target of a bundled observation."""
    observed = {"throughput": obs.coexec_imgs_s}
    if obs.composition_pct:
        observed["composition"] = {
            cid: pct / 100.0 for cid, pct in obs.composition_pct.items()
        }
    return observed


def _cmd_calibrate(args) -> bytes:
    platform = dataset.platform_by_id(args.platform)
    network = dataset.network_by_id(args.network)
    engaged = tuple(args.components.split(","))
    if args.target_throughput is not None:
        observed = {"throughput": args.target_throughput}
        shares = _parse_id_values(args.target_composition,
                                  "--target-composition", "id=fraction")
        if shares:
            observed["composition"] = shares
    elif args.target_composition is not None:
        raise SocPerfError("--target-composition needs --target-throughput")
    else:
        obs = dataset.find_observation(args.platform, args.network, engaged)
        if obs is None:
            raise SocPerfError(
                f"no bundled observation for {args.network!r} on "
                f"{args.platform!r} with {engaged}; pass --target-throughput"
            )
        observed = _observed(obs)
    fit = calibrate.calibrate(platform, network, observed, engaged, frames=args.frames)
    payload = {
        "platform": fit.scenario.platform_id,
        "network": fit.scenario.network_id,
        "components": list(fit.scenario.engaged),
        "dispatch_overhead_s": fit.scenario.dispatch_overhead_s,
        "contention": dict(sorted(fit.scenario.contention.items())),
        "objective": fit.objective,
        "residual_throughput_rel": fit.residual_throughput_rel,
        "residual_composition": None if fit.residual_composition is None
        else dict(sorted(fit.residual_composition.items())),
        "throughput_imgs_per_s": fit.result.throughput,
        "composition": dict(sorted(fit.result.composition.items())),
    }
    return emit_json(payload)


def _throughput_table_rows() -> list[dict]:
    platforms, networks = dataset.builtin_dataset()
    components = {comp.id for platform in platforms
                  for comp in platform.components}
    by_id = {network.id: network for network in networks}
    missing = ([nid for nid in dataset.TABLE1_NETWORK_ORDER if nid not in by_id]
               + [cid for cid in dataset.TABLE1_COMPONENT_ORDER
                  if cid not in components])
    if missing:
        raise UnknownComponent(
            f"table 1 needs ids the dataset lacks: {', '.join(missing)}")
    # The paper's networks in its order, then any other SOCPERF_DATA
    # network by id.
    extra = sorted(set(by_id) - set(dataset.TABLE1_NETWORK_ORDER))
    rows = []
    for nid in dataset.TABLE1_NETWORK_ORDER + tuple(extra):
        network = by_id[nid]
        rows.append({"network": nid} | {
            cid: network.rate(cid) if network.supports(cid) else "Not Supported"
            for cid in dataset.TABLE1_COMPONENT_ORDER})
    return rows


def _coexec_table_rows(which: int, frames: int) -> list[dict]:
    """Rows of table 2 or 3: each bundled observation against its fit."""
    rows = []
    for obs in dataset.observations_for_table(which):
        platform = dataset.platform_by_id(obs.platform_id)
        network = dataset.network_by_id(obs.network_id)
        fit = calibrate.calibrate(platform, network, _observed(obs), obs.engaged,
                                  frames=frames)
        best = network.rate(obs.best_single_id)
        gain_sim = 100.0 * (fit.result.throughput - best) / best
        row = {
            "platform": obs.platform_id,
            "network": obs.network_id,
            "components": "+".join(obs.engaged),
            "best_single": obs.best_single_id,
            "best_single_imgs_s": best,
            "coexec_meas_imgs_s": obs.coexec_imgs_s,
            "coexec_sim_imgs_s": fit.result.throughput,
            "gain_sim_pct": gain_sim,
            "gain_meas_pct": obs.gain_pct,
            "fitted_overhead_s": fit.scenario.dispatch_overhead_s,
            "residual_throughput_pct": 100.0 * fit.residual_throughput_rel,
        }
        if obs.composition_pct:
            for cid in sorted(obs.composition_pct):
                row[f"share_sim_{cid}_pct"] = 100.0 * fit.result.composition[cid]
                row[f"share_meas_{cid}_pct"] = obs.composition_pct[cid]
                row[f"factor_{cid}"] = fit.scenario.contention.get(cid)
        rows.append(row)
    return rows


def _cmd_tables(args) -> bytes:
    if args.which == 1:
        if args.frames is not None:
            raise SocPerfError("tables --which 1 takes no --frames; it "
                               "prints measured rates and simulates nothing")
        rows = _throughput_table_rows()
    else:
        rows = _coexec_table_rows(
            args.which, 10000 if args.frames is None else args.frames)
    return emit_json(rows) if args.format == "json" else emit_csv(rows)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line, like every other error."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"socperf: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="socperf",
        description="Roofline models and co-execution simulation for CNN "
                    "inference on heterogeneous mobile SoCs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roofline", help="emit a roofline plot table or SVG")
    p.add_argument("--platform", required=True)
    p.add_argument("--component", required=True)
    p.add_argument("--network")
    p.add_argument("--oi-min", type=float, default=0.1)
    p.add_argument("--oi-max", type=float, default=1000.0)
    p.add_argument("--samples", type=int, default=97)
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p.add_argument("--out")

    p = sub.add_parser("simulate", help="run one co-execution scenario")
    p.add_argument("--scenario", help="scenario JSON file (instead of flags)")
    p.add_argument("--platform")
    p.add_argument("--network")
    p.add_argument("--components", help="comma-separated component ids")
    p.add_argument("--frames", type=int)
    p.add_argument("--overhead", type=float,
                   help="dispatch overhead in seconds per frame")
    p.add_argument("--contention", help="id=factor[,id=factor...]")
    p.add_argument("--seed", type=int)
    p.add_argument("--cv", type=float,
                   help="service-time jitter coefficient of variation")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out")

    p = sub.add_parser("calibrate", help="fit overhead/contention to a target")
    p.add_argument("--platform", required=True)
    p.add_argument("--network", required=True)
    p.add_argument("--components", required=True)
    p.add_argument("--target-throughput", type=float,
                   help="defaults to the bundled observation for this engagement")
    p.add_argument("--target-composition",
                   help="id=fraction[,id=fraction...] frame shares")
    p.add_argument("--frames", type=int, default=10000)
    p.add_argument("--format", choices=("json",), default="json")
    p.add_argument("--out")

    p = sub.add_parser("tables", help="regenerate summary tables")
    p.add_argument("--which", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--frames", type=int,
                   help="frames per fitted run of tables 2 and 3 (default 10000)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    return parser


_HANDLERS = {
    "roofline": _cmd_roofline,
    "simulate": _cmd_simulate,
    "calibrate": _cmd_calibrate,
    "tables": _cmd_tables,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _write(_HANDLERS[args.command](args), args.out)
    except (SocPerfError, ValueError) as exc:
        print(f"socperf: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"socperf: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
