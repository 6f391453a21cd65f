"""Deterministic CSV, JSON, and SVG emitters for reports.

Identical payloads produce byte-identical output: field order is fixed,
floats are printed at 4 significant digits, and the SVG is assembled from
plain strings with no timestamps or generated ids, its text escaped. JSON
is written in one pass, in the layout of json.dumps(indent=2); a float is
written as its f"{v:.4g}" text when that text is fixed-point (it has a "."
and no "e"), and otherwise as the repr of the float that text parses to.
A list of dicts with one key order is a table, its rows filled from one
layout. A CSV report is a list of dict rows that share the header's keys.
"""

import json
import math
from typing import Sequence

from .errors import UnsupportedFormat
from .profiles import shown

SVG_WIDTH, SVG_HEIGHT = 720, 480  # roofline plot size, px
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


# The 4-significant-digit text of a finite value from about ±1.7975e308 up
# parses to ±inf; it is written as the largest such text not past the value.
_PAST_RANGE = {"1.798e+308": "1.797e+308", "-1.798e+308": "-1.797e+308"}
# The least float whose text that is. The CSV writer writes a float cell
# strictly between ±_PAST_FROM inline, and hands any other (NaN and ±inf
# too) to sig4.
_PAST_FROM = 1.7975000000000001e308


def sig4(value) -> str:
    """Cell text: "" for None, a float to 4 significant digits, a str or an
    int as is. A NaN or infinite value raises ValueError, as in emit_json."""
    if value is None:
        return ""
    if isinstance(value, float) or not isinstance(value, (int, str)):
        if math.isfinite(value):
            return _PAST_RANGE.get(text := f"{value:.4g}", text)
        raise ValueError(f"CSV cells must be finite, got {value!r}")
    return str(value)


def _float(value: float) -> str:
    """value rounded to 4 significant digits, as JSON text. A fixed-point
    text is a decimal of at most 4 significant digits whose magnitude is in
    [1e-4, 1e4), which is already the repr of the float it parses to; an
    integer text (32, -0) is that repr less its ".0"."""
    text = f"{value:.4g}"
    if "." in text and "e" not in text:
        return text
    if text.lstrip("-").isdigit():
        return text + ".0"
    if math.isfinite(value := float(_PAST_RANGE.get(text, text))):
        return repr(value)
    raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")


_QUOTE = json.encoder.encode_basestring_ascii
_STRICT = json.JSONEncoder(allow_nan=False).encode
_NAMED = {True: "true", False: "false", None: "null"}.__getitem__
# JSON text of a value of each exact scalar type.
_SCALARS = {str: _QUOTE, int: int.__repr__, float: _float, bool: _NAMED,
            type(None): _NAMED}


def _key(key) -> str:
    """A dict key as JSON text: json.dumps writes a non-str key as a str."""
    return _QUOTE(key) if type(key) is str else _STRICT({key: 0})[1:-4]


def _json(value, pad: str) -> str:
    """value as JSON text in the layout of json.dumps(indent=2), each float
    rounded to 4 significant digits; pad indents the line value ends on."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    if isinstance(value, float):
        return _float(value)
    inner = pad + "  "
    get = _SCALARS.get
    if isinstance(value, dict) and value:
        return "{\n" + ",\n".join([
            f"{inner}{_key(k)}: "
            f"{write(v) if (write := get(type(v))) else _json(v, inner)}"
            for k, v in value.items()]) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)) and value:
        keys = tuple(value[0]) if type(value[0]) is dict else ()
        if keys and set(map(type, value)) == {dict} and all(map(keys.__eq__, map(tuple, value))):
            # A table: cells in document order, so a bad one raises as row by
            # row. A float with a fixed-point text (never NaN, inf or past
            # range), None and a str are written inline, any other cell by
            # its writer.
            cells = iter([(text if "." in (text := f"{v:.4g}") and "e" not in text
                           else _float(v)) if type(v) is float
                          else "null" if v is None else _QUOTE(v) if type(v) is str
                          else write(v) if (write := get(type(v))) else _json(v, inner + "  ")
                          for row in value for v in row.values()])
            layout = (f"{inner}{{\n" + ",\n".join(
                [f"{inner}  {_key(k).replace('%', '%%')}: %s" for k in keys]) + f"\n{inner}}}")
            return ("[\n" + ",\n".join(map(layout.__mod__, zip(*[cells] * len(keys))))
                    + f"\n{pad}]")
        return "[\n" + ",\n".join([
            inner + (write(v) if (write := get(type(v))) else _json(v, inner))
            for v in value]) + f"\n{pad}]"
    # An empty container or a subclass of str or int; any other type raises TypeError.
    return _STRICT(value)


def emit_json(payload) -> bytes:
    """Strict JSON: a NaN or infinite value raises ValueError."""
    return (_json(payload, "") + "\n").encode("utf-8")


def emit_csv(rows: Sequence[dict]) -> bytes:
    """CSV of a non-empty list of dict rows that all have the first row's
    keys, which are the header; each cell is sig4 of the row's value. Any
    other list raises UnsupportedFormat, since it is not one table. The
    cells are written in row order, so the first bad cell or row raises: a
    float strictly between ±_PAST_FROM, None and a str inline, any other
    cell by sig4."""
    if not rows:
        raise UnsupportedFormat("a CSV report needs at least one row")
    try:
        header = rows[0].keys()
        size = next((i for i, row in enumerate(rows) if row.keys() != header), len(rows))
    except AttributeError:  # the table ends at the first row that is not a mapping
        size = next(i for i, row in enumerate(rows) if not hasattr(row, "keys"))
        header = rows[0].keys() if size else ()
    lines = [",".join(header)]
    cells = iter([f"{v:.4g}" if type(v := row[key]) is float and -_PAST_FROM < v < _PAST_FROM
                  else "" if v is None else v if type(v) is str else sig4(v)
                  for row in rows[:size] for key in header])
    lines += map(",".join, zip(*[cells] * len(header)) if header else [()] * size)
    if size < len(rows):
        raise UnsupportedFormat(
            f"CSV row {size} has keys {shown(list(rows[size]))}, not the header "
            f"{shown(list(header))}" if hasattr(rows[size], "keys") else
            f"CSV row {size} is not a mapping, got {shown(rows[size])}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def roofline_rows_to_csv(rows: Sequence[dict]) -> bytes:
    return emit_csv(rows)


def sim_result_payload(result: "SimResult") -> dict:
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


def sim_result_to_csv(result: "SimResult") -> bytes:
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


def emit_svg_roofline(rows: Sequence[dict], title: str) -> bytes:
    """Log-log roofline plot as a standalone SVG. Its performance axis runs
    from half the least value to twice the greatest, so a value whose half
    is not above 0 or whose double is inf raises UnsupportedFormat."""
    width, height = SVG_WIDTH, SVG_HEIGHT
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
    if not lo_y > 0.0:
        raise UnsupportedFormat(
            f"roofline SVG: half the least performance must be > 0, got {shown(min(ys))}")
    if hi_y == math.inf:
        raise UnsupportedFormat(
            f"roofline SVG: twice the greatest performance must be finite, got {shown(max(ys))}")
    margin = 56
    log10 = math.log10
    log_lo_x, log_lo_y = log10(lo_x), log10(lo_y)
    span_x = log10(hi_x) - log_lo_x or 1.0
    span_y = log10(hi_y) - log_lo_y or 1.0
    # Each point's pixel x and y are written inline, with no call per point.
    plot_w, plot_h, bottom = width - 2 * margin, height - 2 * margin, height - margin

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title.translate(_XML_TEXT)}</text>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">'
        f'operational intensity (FLOPS/byte, log)</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {height / 2:.1f})">'
        f'performance (GOPS/s, log)</text>',
        f'<rect x="{margin}" y="{margin}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#888"/>',
    ]
    path = " L".join([
        "%.2f,%.2f" % (margin + (log10(x) - log_lo_x) / span_x * plot_w,
                       bottom - (log10(y) - log_lo_y) / span_y * plot_h)
        for x, y in line])
    parts.append(f'<path d="M{path}" fill="none" stroke="#1f3b99" stroke-width="2"/>')
    for oi, gops, label, bound in points:
        x = margin + (log10(oi) - log_lo_x) / span_x * plot_w
        y = bottom - (log10(gops) - log_lo_y) / span_y * plot_h
        color = "#b22222" if bound == "memory" else "#1a7a1a"
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="{color}"/>')
        parts.append(
            f'<text x="{x + 6:.2f}" y="{y - 6:.2f}" '
            f'font-family="sans-serif" font-size="10">{label.translate(_XML_TEXT)}</text>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
