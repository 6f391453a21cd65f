"""Deterministic CSV, JSON, and SVG emitters for reports.

Identical payloads produce byte-identical output: field order is fixed,
floats are printed at 4 significant digits, and the SVG is assembled from
plain strings with no timestamps or generated ids. A CSV report is a list
of dict rows whose first row's keys are the header.
"""

import json
import math
from typing import Sequence

from .errors import UnsupportedFormat
from .sim import SimResult


def sig4(value) -> str:
    """Cell text: "" for None, a str as is, a float to 4 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, str)):
        return str(value)
    return f"{value:.4g}"


def _roundtree(payload):
    if isinstance(payload, float):
        return float(f"{payload:.4g}")
    if isinstance(payload, dict):
        return {k: _roundtree(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_roundtree(v) for v in payload]
    return payload


def emit_json(payload) -> bytes:
    """Strict JSON: a NaN or infinite value raises ValueError."""
    return (json.dumps(_roundtree(payload), indent=2, allow_nan=False)
            + "\n").encode("utf-8")


def emit_csv(rows: Sequence[dict]) -> bytes:
    """CSV of a non-empty list of dict rows: the first row's keys are the
    header, and each cell is sig4 of the row's value (empty if absent)."""
    header = list(rows[0])
    lines = [",".join(header)]
    lines.extend(",".join(sig4(row.get(key)) for key in header) for row in rows)
    return ("\n".join(lines) + "\n").encode("utf-8")


def roofline_rows_to_csv(rows: Sequence[dict]) -> bytes:
    return emit_csv(rows)


def sim_result_payload(result: SimResult) -> dict:
    scenario = result.scenario
    return {
        "platform": scenario.platform_id,
        "network": scenario.network_id,
        "components": list(scenario.engaged),
        "frames": scenario.frame_count,
        "dispatch_overhead_s": scenario.dispatch_overhead_s,
        "contention": dict(sorted(scenario.contention.items())),
        "makespan_s": result.makespan_s,
        "throughput_imgs_per_s": result.throughput,
        "frames_per_component": dict(sorted(result.frames_per_component.items())),
        "composition": dict(sorted(result.composition.items())),
        "busy_time_s": dict(sorted(result.busy_time_s.items())),
        "energy_j": result.energy_j,
        "energy_efficiency_imgs_per_j": result.energy_efficiency,
        "reorder_high_water": result.reorder_high_water,
    }


def sim_result_to_csv(result: SimResult) -> bytes:
    rows = [{"component": cid,
             "frames": result.frames_per_component[cid],
             "share": result.composition[cid],
             "busy_s": result.busy_time_s[cid],
             "energy_j": result.energy_per_component_j[cid]}
            for cid in sorted(result.frames_per_component)]
    rows.append({"component": "total", "frames": result.scenario.frame_count,
                 "share": 1.0, "busy_s": result.makespan_s,
                 "energy_j": result.energy_j})
    return emit_csv(rows)


def emit_svg_roofline(rows: Sequence[dict], title: str,
                      width: int = 720, height: int = 480) -> bytes:
    """Log-log roofline plot as a standalone SVG."""
    line = [(r["oi_flops_per_byte"], r["roofline_gops"])
            for r in rows if r["point_label"] is None]
    points = [(r["point_oi"], r["point_gops"], r["point_label"], r["bound"])
              for r in rows if r["point_label"] is not None]
    if not line:
        raise UnsupportedFormat("roofline SVG needs at least the grid rows")

    xs = [x for x, _ in line] + [p[0] for p in points]
    ys = [y for _, y in line] + [p[1] for p in points]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys) * 0.5, max(ys) * 2.0
    margin = 56

    def px(x: float) -> float:
        span = math.log10(hi_x) - math.log10(lo_x) or 1.0
        return margin + (math.log10(x) - math.log10(lo_x)) / span * (width - 2 * margin)

    def py(y: float) -> float:
        span = math.log10(hi_y) - math.log10(lo_y) or 1.0
        return height - margin - (math.log10(y) - math.log10(lo_y)) / span * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">'
        f'operational intensity (FLOPS/byte, log)</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {height / 2:.1f})">'
        f'performance (GOPS/s, log)</text>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#888"/>',
    ]
    path = " ".join(
        f"{'M' if i == 0 else 'L'}{px(x):.2f},{py(y):.2f}"
        for i, (x, y) in enumerate(line)
    )
    parts.append(f'<path d="{path}" fill="none" stroke="#1f3b99" stroke-width="2"/>')
    for oi, gops, label, bound in points:
        color = "#b22222" if bound == "memory" else "#1a7a1a"
        parts.append(
            f'<circle cx="{px(oi):.2f}" cy="{py(gops):.2f}" r="4" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{px(oi) + 6:.2f}" y="{py(gops) - 6:.2f}" '
            f'font-family="sans-serif" font-size="10">{label}</text>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
