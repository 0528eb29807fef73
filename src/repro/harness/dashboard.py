"""Self-contained HTML dashboard for an analyzed sweep grid.

:func:`render_dashboard` turns one :func:`repro.obs.analyze.analyze_grid`
document into a single HTML file with zero external references — CSS
inline, charts as inline SVG from :mod:`repro.harness.plots` — so the
file can ride along as a CI artifact and open anywhere, offline.

Layout: a stat-tile row (the headline numbers), throughput /
lock-cost scaling curves, the contention heatmap per (system x CPUs),
then the derived tables (scaling grid, per-lock breakdown, warm-up
cost, blocked-time attribution, merged cross-run percentiles). Every
chart has a table twin on the same page, so no value is readable only
by color or hover.

Colors live in CSS custom properties with explicit light and dark
values (the SVG marks are classed, not inline-styled); categorical
hues are assigned to systems in fixed slot order, never cycled.

Determinism: the output is a pure function of the analysis document —
no dates, no random ids — so two same-seed runs produce byte-identical
dashboards (tested, and CI diffs them).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.harness.plots import svg_heatmap, svg_line_chart, svg_sparkline
from repro.harness.report import format_number
from repro.obs.analyze import (attribution_table, breakdown_table,
                               scaling_table, warmup_table)

__all__ = ["render_dashboard", "render_macro_page",
           "render_scaling_page", "render_serve_page",
           "render_telemetry_page", "render_tune_page"]

#: Categorical slots (validated order; hue follows the system, never
#: its rank) and the 13-step sequential blue ramp for the heatmap.
_LIGHT_SERIES = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100", "#e87ba4",
                 "#008300", "#4a3aa7", "#e34948")
_DARK_SERIES = ("#3987e5", "#d95926", "#199e70", "#c98500", "#d55181",
                "#008300", "#9085e9", "#e66767")
_RAMP = ("#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec",
         "#5598e7", "#3987e5", "#2a78d6", "#256abf", "#1c5cab",
         "#184f95", "#104281", "#0d366b")


def _escape(text: object) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _css() -> str:
    series_light = "\n".join(
        f"  --series-{i + 1}: {hex_};" for i, hex_ in
        enumerate(_LIGHT_SERIES))
    series_dark = "\n".join(
        f"    --series-{i + 1}: {hex_};" for i, hex_ in
        enumerate(_DARK_SERIES))
    ramp = "\n".join(f".q{i} {{ fill: {hex_}; }}"
                     for i, hex_ in enumerate(_RAMP))
    series_rules = "\n".join(
        f".line.s{i + 1} {{ stroke: var(--series-{i + 1}); }}\n"
        f".sparkline.s{i + 1} {{ stroke: var(--series-{i + 1}); }}\n"
        f".dot.s{i + 1} {{ fill: var(--series-{i + 1}); }}\n"
        f".swatch.s{i + 1} {{ background: var(--series-{i + 1}); }}"
        for i in range(len(_LIGHT_SERIES)))
    return f"""
:root {{
  color-scheme: light;
  --page: #f9f9f7;
  --surface-1: #fcfcfb;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --grid: #e1e0d9;
  --axis: #c3c2b7;
  --border: rgba(11, 11, 11, 0.10);
{series_light}
}}
@media (prefers-color-scheme: dark) {{
  :root {{
    color-scheme: dark;
    --page: #0d0d0d;
    --surface-1: #1a1a19;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --grid: #2c2c2a;
    --axis: #383835;
    --border: rgba(255, 255, 255, 0.10);
{series_dark}
  }}
}}
* {{ box-sizing: border-box; }}
body {{
  margin: 0; padding: 24px; background: var(--page);
  color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}}
h1 {{ font-size: 20px; margin: 0 0 4px; }}
h2 {{ font-size: 15px; margin: 28px 0 10px;
     color: var(--text-primary); }}
.subtitle {{ color: var(--text-secondary); margin: 0 0 20px; }}
.card {{
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px; margin: 0 0 16px;
}}
.tiles {{ display: flex; flex-wrap: wrap; gap: 16px; }}
.tile {{
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 150px;
}}
.tile .label {{ color: var(--text-secondary); font-size: 12px; }}
.tile .value {{ font-size: 26px; font-weight: 600; }}
.tile .detail {{ color: var(--text-muted); font-size: 12px; }}
.row {{ display: flex; flex-wrap: wrap; gap: 16px; }}
.row .card {{ flex: 1 1 480px; }}
.legend {{ margin: 4px 0 10px; color: var(--text-secondary);
          font-size: 12px; }}
.legend .key {{ margin-right: 14px; white-space: nowrap; }}
.swatch {{
  display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 5px; vertical-align: baseline;
}}
table {{ border-collapse: collapse; width: 100%; font-size: 13px; }}
th, td {{
  text-align: right; padding: 5px 10px;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}}
th {{ color: var(--text-secondary); font-weight: 500; }}
th:first-child, td:first-child {{ text-align: left; }}
svg.chart {{ max-width: 100%; height: auto; }}
svg.chart text {{
  font: 11px system-ui, -apple-system, "Segoe UI", sans-serif;
}}
.grid {{ stroke: var(--grid); stroke-width: 1; }}
.axis {{ stroke: var(--axis); stroke-width: 1; }}
.tick {{ fill: var(--text-muted); }}
.line {{
  fill: none; stroke-width: 2; stroke-linejoin: round;
  stroke-linecap: round;
}}
.dot {{ stroke: var(--surface-1); stroke-width: 2; }}
svg.spark {{ vertical-align: middle; }}
.sparkline {{
  fill: none; stroke-width: 1.5; stroke-linejoin: round;
  stroke-linecap: round;
}}
svg.spark .dot {{ stroke-width: 1; }}
.spark-row td:first-child {{ white-space: nowrap; }}
.slo-ok {{ color: #008300; font-weight: 600; }}
.slo-bad {{ color: #e34948; font-weight: 600; }}
{series_rules}
{ramp}
.hm-empty {{ fill: var(--grid); }}
.hm-ink-dark {{ fill: #0b0b0b; }}
.hm-ink-light {{ fill: #ffffff; }}
footer {{ color: var(--text-muted); font-size: 12px;
         margin-top: 24px; }}
"""


def _page(title: str, sections: Sequence[str]) -> str:
    """The self-contained HTML shell every dashboard page shares."""
    body = "\n".join(sections)
    return (f"<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
            f"<meta charset=\"utf-8\"/>\n"
            f"<meta name=\"viewport\" content=\"width=device-width, "
            f"initial-scale=1\"/>\n"
            f"<title>{_escape(title)}</title>\n"
            f"<style>{_css()}</style>\n</head>\n<body>\n{body}\n"
            f"</body>\n</html>\n")


def _tile(label: str, value: str, detail: str = "") -> str:
    detail_html = (f'<div class="detail">{_escape(detail)}</div>'
                   if detail else "")
    return (f'<div class="tile"><div class="label">{_escape(label)}'
            f'</div><div class="value">{_escape(value)}</div>'
            f'{detail_html}</div>')


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    head = "".join(f"<th>{_escape(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_escape(format_number(cell))}</td>"
                         for cell in row) + "</tr>"
        for row in rows)
    return (f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{body}</tbody></table>")


def _legend(systems: Sequence[str]) -> str:
    keys = "".join(
        f'<span class="key"><i class="swatch s{i + 1}"></i>'
        f'{_escape(system)}</span>'
        for i, system in enumerate(systems))
    return f'<div class="legend">{keys}</div>'


def _series(scaling: List[dict], systems: Sequence[str],
            value_key: str) -> Dict[str, list]:
    return {
        system: [(row["processors"], row[value_key])
                 for row in scaling if row["system"] == system]
        for system in systems
    }


def render_scaling_page(record: dict,
                        title: str = "Wall-clock scaling (Fig. 6/7)"
                        ) -> str:
    """One ``bench_scaling`` record -> one self-contained HTML page.

    The wall-clock twin of :func:`render_dashboard`'s simulated-time
    scaling curves: events/sec and contention per million accesses
    against real worker count, one line per system, on genuinely
    parallel hardware (the ``mp`` backend, or ``native`` on
    free-threaded CPython). Same stylesheet, palette and chart/table
    pairing as the sweep dashboard; same determinism contract —
    byte-identical output for an identical record.
    """
    systems: List[str] = record["systems"]
    workers: List[int] = record["workers"]
    cells: List[dict] = record["cells"]

    def series_of(value_key: str) -> Dict[str, list]:
        return {
            system: [(cell["workers"], cell[value_key])
                     for cell in cells if cell["system"] == system]
            for system in systems
        }

    def cell_at(system: str, n_workers: int) -> dict:
        for cell in cells:
            if cell["system"] == system and cell["workers"] == n_workers:
                return cell
        return {}

    peak = max((cell["events_per_sec"] for cell in cells), default=0.0)
    top = max(workers) if workers else 0
    batched = next((s for s in systems if s.startswith("pgBat")), None)
    locked = "pg2Q" if "pg2Q" in systems else None
    gap = None
    if batched and locked and top:
        base = cell_at(locked, top).get("events_per_sec") or 0.0
        batch = cell_at(batched, top).get("events_per_sec") or 0.0
        if base > 0:
            gap = batch / base

    legend = _legend(systems)
    events_chart = svg_line_chart(
        series_of("events_per_sec"),
        y_label="accesses / sec (wall)", value_unit=" acc/s")
    contention_chart = svg_line_chart(
        series_of("contention_per_million"),
        y_label="contentions / M accesses", log_y=True,
        value_unit=" cont/M")

    sections: List[str] = []
    sections.append(f"<h1>{_escape(title)}</h1>")
    sections.append(
        f'<p class="subtitle">backend {_escape(record["backend"])} '
        f'&middot; workload {_escape(record["workload"])} &middot; '
        f'host cpus {_escape(record["host_cpus"])} &middot; '
        f'workers {_escape(", ".join(str(w) for w in workers))} '
        f'&middot; seed {_escape(record["seed"])}</p>')

    sections.append('<div class="tiles">')
    sections.append(_tile("Peak access rate", format_number(peak),
                          "accesses / sec, wall clock"))
    if gap is not None:
        sections.append(_tile(
            f"{batched} / {locked} @ {top} workers",
            format_number(gap),
            "wall-clock access-rate ratio"))
    sections.append(_tile("Host CPUs", str(record["host_cpus"]),
                          "GIL " + ("on" if record.get("gil_enabled",
                                                       True) else "off")))
    sections.append(_tile("Cells", str(len(cells)),
                          "system x worker-count runs"))
    sections.append("</div>")

    sections.append('<div class="row">')
    sections.append(f'<div class="card"><h2>Access rate scaling</h2>'
                    f'{legend}{events_chart}</div>')
    sections.append(f'<div class="card"><h2>Lock contention</h2>'
                    f'{legend}{contention_chart}</div>')
    sections.append("</div>")

    headers = ["system", "workers", "acc/s", "tps", "cont/M",
               "lock us/acc", "resp ms", "cpu util", "wall s"]
    rows = [[cell["system"], cell["workers"], cell["events_per_sec"],
             cell["throughput_tps"], cell["contention_per_million"],
             cell["lock_time_per_access_us"], cell["mean_response_ms"],
             cell["cpu_utilization"], cell["wall_s"]]
            for cell in cells]
    sections.append(f'<div class="card"><h2>Scaling grid</h2>'
                    f'{_table(headers, rows)}</div>')

    sections.append(
        "<footer>Generated by <code>benchmarks/bench_scaling.py</code> "
        "— wall-clock rates are host-dependent; compare shapes, not "
        "absolute numbers, across machines.</footer>")

    return _page(title, sections)


def _serve_cell_label(cell: dict) -> str:
    return (f'{cell["n_shards"]}s×{cell["n_tenants"]}t'
            f'@θ{cell["skew"]:g}')


def render_serve_page(record: dict,
                      title: str = "Sharded serving layer"
                      ) -> str:
    """One ``serve-grid`` record -> one self-contained HTML page.

    The centerpiece is the per-shard contention heatmap: one row per
    (shards × tenants × skew) sweep cell, one column per shard,
    colored by that shard's replacement-lock contentions per million
    accesses. A balanced serving layer shows flat rows; the shared hot
    set shows up as a dark column — the shard the hottest index-root
    pages hash to. Same stylesheet and determinism contract as
    :func:`render_dashboard`: byte-identical output for an identical
    record.
    """
    cells: List[dict] = record["cells"]
    max_shards = max((cell["n_shards"] for cell in cells), default=0)

    row_labels = [_serve_cell_label(cell) for cell in cells]
    col_labels = [f"shard{j}" for j in range(max_shards)]
    values = [
        [cell["shards"][j]["contention_per_million"]
         if j < cell["n_shards"] else None
         for j in range(max_shards)]
        for cell in cells
    ]
    heat = svg_heatmap(row_labels, col_labels, values,
                       value_unit=" cont/M")

    peak_rate = max((cell["requests_per_sec"] for cell in cells),
                    default=0.0)
    worst_shard = 0.0
    for row in values:
        for value in row:
            if value is not None:
                worst_shard = max(worst_shard, value)
    total_requests = sum(cell["requests"] for cell in cells)
    throttled = sum(tenant["throttled"] for cell in cells
                    for tenant in cell["tenants"])
    backpressured = sum(shard["backpressure_events"] for cell in cells
                        for shard in cell["shards"])

    sections: List[str] = []
    sections.append(f"<h1>{_escape(title)}</h1>")
    sections.append(
        f'<p class="subtitle">system {_escape(record["system"])} '
        f'&middot; runtime {_escape(record["runtime"])} &middot; '
        f'shards {_escape(", ".join(str(s) for s in record["shards"]))} '
        f'&middot; tenants '
        f'{_escape(", ".join(str(t) for t in record["tenants"]))} '
        f'&middot; skews '
        f'{_escape(", ".join(f"{s:g}" for s in record["skews"]))} '
        f'&middot; seed {_escape(record["seed"])}</p>')

    sections.append('<div class="tiles">')
    sections.append(_tile("Peak request rate", format_number(peak_rate),
                          "requests / simulated sec"))
    sections.append(_tile("Worst shard contention",
                          format_number(worst_shard),
                          "per million accesses"))
    sections.append(_tile("Requests served", format_number(total_requests),
                          f"across {len(cells)} cells"))
    sections.append(_tile("Admission pushback",
                          format_number(throttled + backpressured),
                          f"{throttled} throttled, "
                          f"{backpressured} backpressured"))
    sections.append("</div>")

    sections.append(f'<div class="card"><h2>Per-shard contention '
                    f'(per million accesses)</h2>{heat}</div>')

    grid_headers = ["cell", "req/s", "cont/M", "hit ratio",
                    "throttled", "backpressured", "peak depth"]
    grid_rows = [[
        _serve_cell_label(cell), cell["requests_per_sec"],
        cell["contention_per_million"], cell["hit_ratio"],
        sum(t["throttled"] for t in cell["tenants"]),
        sum(s["backpressure_events"] for s in cell["shards"]),
        max((s["peak_in_flight"] for s in cell["shards"]), default=0),
    ] for cell in cells]
    sections.append(f'<div class="card"><h2>Sweep grid</h2>'
                    f'{_table(grid_headers, grid_rows)}</div>')

    # Drill into the largest cell: per-shard and per-tenant detail.
    detail = max(cells, key=lambda c: (c["n_shards"] * c["n_tenants"],
                                       c["skew"]))
    name = _serve_cell_label(detail)
    shard_headers = ["shard", "capacity", "accesses", "hit ratio",
                     "cont/M", "lock wait us", "peak depth",
                     "backpressured"]
    shard_rows = [[f'shard{s["shard"]}', s["capacity"], s["accesses"],
                   s["hit_ratio"], s["contention_per_million"],
                   s["lock_wait_us"], s["peak_in_flight"],
                   s["backpressure_events"]]
                  for s in detail["shards"]]
    tenant_headers = ["tenant", "completed", "throttled", "wait us",
                      "hit ratio", "mean ms", "p95 ms", "max ms"]
    tenant_rows = [[t["tenant"], t["completed"], t["throttled"],
                    t["throttle_wait_us"], t["hit_ratio"],
                    t["latency_mean_ms"], t["latency_p95_ms"],
                    t["latency_max_ms"]]
                   for t in detail["tenants"]]
    sections.append(
        f'<div class="card"><h2>{_escape(name)} — shards</h2>'
        f'{_table(shard_headers, shard_rows)}'
        f'<h3>Tenants</h3>{_table(tenant_headers, tenant_rows)}</div>')

    sections.append(
        "<footer>Generated by <code>repro.harness.cli serve</code> — "
        "deterministic for a given seed on the sim runtime; see "
        "docs/architecture.md &sect;11.</footer>")

    return _page(title, sections)


def render_telemetry_page(record: dict, timeseries: Dict[str, dict],
                          title: str = "Serving telemetry") -> str:
    """Serve-grid record + per-cell telemetry -> one ops page.

    Three layers, coarse to fine: SLO tiles and the per-tenant burn
    table (is anyone outside budget?), per-cell sparkline strips of
    the sampled series (when did it go wrong?), and the tenant x shard
    request-routing heatmap plus windowed p99 latency (where, and who
    pays?). ``timeseries`` maps cell labels to
    :meth:`~repro.obs.telemetry.TelemetrySampler.to_dict` documents —
    the same mapping ``cli serve --telemetry`` writes as
    ``timeseries.json``. Same stylesheet and determinism contract as
    the other pages: byte-identical output for identical inputs.
    """
    cells: List[dict] = record["cells"]
    slo_rows = [(cell, slo) for cell in cells
                for slo in cell.get("slo", [])]
    violations = sum(1 for _, slo in slo_rows if not slo["ok"])
    worst_p99 = max((slo["achieved_p99_ms"] for _, slo in slo_rows),
                    default=0.0)
    worst_burn = max((slo["latency_burn_rate"] for _, slo in slo_rows),
                     default=0.0)
    samples = sum(doc.get("samples", 0) for doc in timeseries.values())

    sections: List[str] = []
    sections.append(f"<h1>{_escape(title)}</h1>")
    sections.append(
        f'<p class="subtitle">system {_escape(record["system"])} '
        f'&middot; runtime {_escape(record["runtime"])} &middot; '
        f'{len(cells)} cells &middot; seed '
        f'{_escape(record["seed"])}</p>')

    sections.append('<div class="tiles">')
    sections.append(_tile(
        "SLO status",
        "all ok" if violations == 0 else f"{violations} violated",
        f"{len(slo_rows)} tenant evaluations"))
    sections.append(_tile("Worst achieved p99", format_number(worst_p99),
                          "milliseconds, any tenant"))
    sections.append(_tile("Worst latency burn", format_number(worst_burn),
                          "error budget x; <=1 is compliant"))
    sections.append(_tile("Telemetry samples", format_number(samples),
                          f"{len(timeseries)} sampled cells"))
    sections.append("</div>")

    if slo_rows:
        head = "".join(f"<th>{_escape(h)}</th>" for h in
                       ["cell", "tenant", "p99 ms", "latency burn",
                        "throttle burn", "status"])
        body_rows = []
        for cell, slo in slo_rows:
            status = ('<span class="slo-ok">ok</span>' if slo["ok"]
                      else '<span class="slo-bad">VIOLATED</span>')
            body_rows.append(
                "<tr>"
                + "".join(f"<td>{_escape(format_number(value))}</td>"
                          for value in
                          [_serve_cell_label(cell), slo["tenant"],
                           slo["achieved_p99_ms"],
                           slo["latency_burn_rate"],
                           slo["throttle_burn_rate"]])
                + f"<td>{status}</td></tr>")
        sections.append(
            f'<div class="card"><h2>Per-tenant SLO burn rates</h2>'
            f"<table><thead><tr>{head}</tr></thead>"
            f'<tbody>{"".join(body_rows)}</tbody></table></div>')

    # Sparkline strips: one card per sampled cell, one row per series.
    for label in sorted(timeseries):
        doc = timeseries[label]
        rows = []
        for index, name in enumerate(sorted(doc.get("series", {}))):
            series = doc["series"][name]
            points = [(p[0], p[1]) for p in series["points"]]
            if not points:
                continue
            spark = svg_sparkline(points, unit=series.get("unit", ""),
                                  css_class=f"s{index % 8 + 1}")
            rows.append(
                f'<tr class="spark-row"><td>{_escape(name)}</td>'
                f"<td>{spark}</td>"
                f"<td>{_escape(format_number(points[-1][1]))}"
                f' {_escape(series.get("unit", ""))}</td></tr>')
        for index, tenant in enumerate(
                sorted(doc.get("latency_windows", {}))):
            windows = doc["latency_windows"][tenant]["windows"]
            points = [(w["start_us"], w["p99_us"]) for w in windows]
            if not points:
                continue
            spark = svg_sparkline(points, unit=" us",
                                  css_class=f"s{index % 8 + 1}")
            rows.append(
                f'<tr class="spark-row">'
                f"<td>{_escape(tenant)} p99 latency</td>"
                f"<td>{spark}</td>"
                f"<td>{_escape(format_number(points[-1][1]))} us</td>"
                f"</tr>")
        if rows:
            sections.append(
                f'<div class="card"><h2>{_escape(label)} — sampled '
                f'series (every '
                f'{format_number(doc["interval_us"])} us)</h2>'
                f"<table><thead><tr><th>series</th><th>trend</th>"
                f'<th>last</th></tr></thead>'
                f'<tbody>{"".join(rows)}</tbody></table></div>')

    # Tenant x shard routing heatmap for the busiest cell.
    routed = [cell for cell in cells
              if any(t.get("shard_requests") for t in cell["tenants"])]
    if routed:
        detail = max(routed,
                     key=lambda c: (c["n_shards"] * c["n_tenants"],
                                    c["skew"]))
        row_labels = [t["tenant"] for t in detail["tenants"]]
        col_labels = [f"shard{j}" for j in range(detail["n_shards"])]
        values = [
            [t.get("shard_requests", {}).get(str(j)) or None
             for j in range(detail["n_shards"])]
            for t in detail["tenants"]
        ]
        heat = svg_heatmap(row_labels, col_labels, values,
                           value_unit=" requests", log_scale=False)
        sections.append(
            f'<div class="card"><h2>'
            f'{_escape(_serve_cell_label(detail))} — requests routed '
            f"per tenant x shard</h2>{heat}</div>")

    sections.append(
        "<footer>Generated by <code>repro.harness.cli serve "
        "--telemetry</code> — deterministic for a given seed on the "
        "sim runtime; see docs/observability.md.</footer>")

    return _page(title, sections)


def _tune_row_label(cell: dict) -> str:
    return f'q{cell["queue_size"]} {cell["system"]}'


def render_tune_page(record: dict,
                     title: str = "Control-plane tuning sweep") -> str:
    """One ``cli tune`` record -> one self-contained HTML page.

    The Fig. 8 surface as a heatmap — one row per (queue × system)
    combination, one column per batch threshold, colored by lock
    contentions per million accesses — plus the static-best cell, the
    online threshold adapter's convergence record (where its walk
    ended and what fraction of the hand-tuned optimum it reached), and
    the adaptive policy's hit-ratio face-off against its two expert
    policies. Same determinism contract as :func:`render_dashboard`:
    byte-identical output for an identical record.
    """
    cells: List[dict] = record["grid"]
    best: dict = record["static_best"]
    adapter: dict = record["adapter"]
    adaptive: List[dict] = record["adaptive"]

    row_labels = []
    for cell in cells:
        label = _tune_row_label(cell)
        if label not in row_labels:
            row_labels.append(label)
    col_labels = [str(t) for t in record["thresholds"]]
    by_key = {(_tune_row_label(c), str(c["batch_threshold"])): c
              for c in cells}
    values = [
        [(by_key[(row, col)]["contention_per_million"]
          if (row, col) in by_key else None)
         for col in col_labels]
        for row in row_labels
    ]
    heat = svg_heatmap(row_labels, col_labels, values,
                       col_title=" threshold", value_unit=" cont/M")

    controller = adapter.get("controller") or {}
    adaptive_ok = sum(1 for entry in adaptive if entry["ok"])

    sections: List[str] = []
    sections.append(f"<h1>{_escape(title)}</h1>")
    sections.append(
        f'<p class="subtitle">workload {_escape(record["workload"])} '
        f'&middot; {_escape(record["n_processors"])} processors '
        f'&middot; {_escape(record["buffer_pages"])} buffer pages '
        f'&middot; thresholds '
        f'{_escape(", ".join(str(t) for t in record["thresholds"]))} '
        f'&middot; seed {_escape(record["seed"])}</p>')

    sections.append('<div class="tiles">')
    sections.append(_tile(
        "Static best", format_number(best["throughput_tps"]),
        f'tps at threshold {best["batch_threshold"]}, '
        f'{_tune_row_label(best)}'))
    sections.append(_tile(
        "Adapter vs best",
        f'{100.0 * adapter["fraction_of_best"]:.1f}%',
        f'threshold walked {adapter["start_threshold"]} '
        f'-> {adapter["batch_threshold"]}'))
    sections.append(_tile(
        "Adapter decisions", str(controller.get("decisions", 0)),
        f'{controller.get("commits", 0)} commits observed'))
    sections.append(_tile(
        "Adaptive policy",
        f"{adaptive_ok}/{len(adaptive)} ok",
        "hit ratio >= worse expert"))
    sections.append("</div>")

    sections.append(f'<div class="card"><h2>Lock contention across the '
                    f'grid (per million accesses)</h2>{heat}</div>')

    grid_headers = ["cell", "threshold", "tps", "cont/M",
                    "cont/access", "hit ratio", "mean batch"]
    grid_rows = [[
        _tune_row_label(cell), cell["batch_threshold"],
        cell["throughput_tps"], cell["contention_per_million"],
        cell["contention_rate"], cell["hit_ratio"],
        cell["mean_batch_size"],
    ] for cell in cells]
    sections.append(f'<div class="card"><h2>Static grid</h2>'
                    f'{_table(grid_headers, grid_rows)}</div>')

    adapter_rows = [
        ["start threshold", adapter["start_threshold"]],
        ["final threshold", adapter["batch_threshold"]],
        ["throughput (tps)", adapter["throughput_tps"]],
        ["fraction of static best", adapter["fraction_of_best"]],
        ["cont/M", adapter["contention_per_million"]],
        ["decisions", controller.get("decisions", 0)],
        ["cooldown skips", controller.get("cooldown_skips", 0)],
        ["commits observed", controller.get("commits", 0)],
        ["last window rate", controller.get("last_rate", 0.0)],
    ]
    sections.append(
        f'<div class="card"><h2>Online threshold adapter '
        f'({_escape(controller.get("controller", "-"))})</h2>'
        f'{_table(["stat", "value"], adapter_rows)}</div>')

    adaptive_headers = (["workload", "buffer pages"]
                        + sorted(adaptive[0]["hit_ratios"])
                        + ["floor", "verdict"]) if adaptive else []
    adaptive_rows = [
        [entry["workload"], entry["buffer_pages"]]
        + [entry["hit_ratios"][name]
           for name in sorted(entry["hit_ratios"])]
        + [entry["floor"], "ok" if entry["ok"] else "BELOW FLOOR"]
        for entry in adaptive
    ]
    if adaptive_rows:
        sections.append(
            f'<div class="card"><h2>Adaptive policy — hit-ratio '
            f'face-off</h2>'
            f'{_table(adaptive_headers, adaptive_rows)}</div>')

    sections.append(
        "<footer>Generated by <code>repro.harness.cli tune</code> — "
        "deterministic for a given seed on the sim runtime; see "
        "docs/architecture.md &sect;13.</footer>")

    return _page(title, sections)


def render_dashboard(analysis: dict,
                     title: str = "BP-Wrapper sweep dashboard") -> str:
    """One analysis document -> one self-contained HTML page."""
    systems: List[str] = analysis["systems"]
    scaling: List[dict] = analysis["scaling"]
    heatmap = analysis["heatmap"]
    peak = max((row["throughput_tps"] for row in scaling), default=0.0)
    worst_contention = max((row["contention_per_million"]
                            for row in scaling), default=0.0)
    amplification = 0.0
    for run in analysis["runs"]:
        for lock in run["locks"]:
            amplification = max(amplification, lock["amplification"])
    batch_r = analysis.get("batch_sweep", {}).get("pearson_r")

    legend = _legend(systems)
    throughput_chart = svg_line_chart(
        _series(scaling, systems, "throughput_tps"),
        y_label="throughput (tps)", value_unit=" tps")
    lock_cost_chart = svg_line_chart(
        _series(scaling, systems, "lock_time_per_access_us"),
        y_label="lock us / access", log_y=True, value_unit=" us")
    wait_chart = svg_line_chart(
        _series(scaling, systems, "wait_p99_us"),
        y_label="wait p99 (us)", log_y=True, value_unit=" us")
    heat = svg_heatmap(heatmap["rows"], heatmap["cols"],
                       heatmap["values"], col_title=" cpus",
                       value_unit=" cont/M")

    sections: List[str] = []
    sections.append(f"<h1>{_escape(title)}</h1>")
    sections.append(
        f'<p class="subtitle">workload {_escape(analysis["workload"])} '
        f'&middot; systems {_escape(", ".join(systems))} &middot; '
        f'{_escape(", ".join(str(p) for p in analysis["processors"]))} '
        f'processors &middot; seed {_escape(analysis["seed"])}</p>')

    sections.append('<div class="tiles">')
    sections.append(_tile("Peak throughput", format_number(peak), "tps"))
    sections.append(_tile("Worst contention",
                          format_number(worst_contention),
                          "per million accesses"))
    sections.append(_tile("Worst wait/hold amplification",
                          format_number(amplification),
                          "total wait over total hold"))
    sections.append(_tile(
        "Batch size vs hold r",
        "-" if batch_r is None else format_number(batch_r),
        "Pearson, across the grid"))
    sections.append(_tile("Runs", str(len(analysis["runs"])),
                          "grid cells analyzed"))
    sections.append("</div>")

    sections.append('<div class="row">')
    sections.append(f'<div class="card"><h2>Throughput scaling</h2>'
                    f'{legend}{throughput_chart}</div>')
    sections.append(f'<div class="card"><h2>Lock time per access</h2>'
                    f'{legend}{lock_cost_chart}</div>')
    sections.append(f'<div class="card"><h2>Wait p99</h2>'
                    f'{legend}{wait_chart}</div>')
    sections.append("</div>")

    sections.append(f'<div class="card"><h2>Contention heatmap '
                    f'(per million accesses)</h2>{heat}</div>')

    headers, rows = scaling_table(scaling)
    sections.append(f'<div class="card"><h2>Sweep grid</h2>'
                    f'{_table(headers, rows)}</div>')

    for run in analysis["runs"]:
        name = (f'{run["system"]} @ {run["processors"]} cpus')
        parts = [f'<div class="card"><h2>{_escape(name)}</h2>']
        headers, rows = breakdown_table(run["locks"])
        parts.append(f"<h3>Lock breakdown</h3>{_table(headers, rows)}")
        if "warmup" in run:
            headers, rows = warmup_table(run["warmup"])
            parts.append(f"<h3>Lock warm-up cost</h3>"
                         f"{_table(headers, rows)}")
        if "batch_correlation" in run:
            corr = run["batch_correlation"]
            r_text = ("-" if corr["pearson_r"] is None
                      else format_number(corr["pearson_r"]))
            parts.append(
                f'<p class="legend">{corr["commits"]} batch commits '
                f'&middot; mean batch {format_number(corr["mean_batch"])}'
                f' &middot; {format_number(corr["us_per_entry"])} us per '
                f'entry &middot; size&harr;duration r = {r_text}</p>')
        if "threads" in run:
            headers, rows = attribution_table(run["threads"])
            parts.append(f"<h3>Blocked-time attribution (top "
                         f"{len(rows)})</h3>{_table(headers, rows)}")
        parts.append("</div>")
        sections.append("".join(parts))

    merged_rows = []
    for system in systems:
        for kind in ("hold_us", "wait_us"):
            record = analysis["merged"][system][kind]
            merged_rows.append([
                system, kind.replace("_us", ""), record["count"],
                record["p50_us"], record["p90_us"], record["p99_us"],
                record["p999_us"], record["max_us"]])
    merged_headers = ["system", "kind", "n", "p50 us", "p90 us",
                      "p99 us", "p99.9 us", "max us"]
    sections.append(
        f'<div class="card"><h2>Merged cross-run distributions</h2>'
        f"{_table(merged_headers, merged_rows)}</div>")

    sections.append(
        "<footer>Generated by <code>repro.harness.cli analyze</code> — "
        "deterministic for a given seed; see docs/observability.md."
        "</footer>")

    return _page(title, sections)


def _macro_cell_label(cell: dict) -> str:
    label = f'{cell["system"]}'
    if cell.get("n_shards"):
        label += f'/{cell["n_shards"]}sh'
    return label


def render_macro_page(record: dict,
                      title: str = "Macro workload — query execution"
                      ) -> str:
    """One ``cli macro`` record -> one self-contained HTML page.

    Headline tiles (peak query rate, pool hit ratio, dirty write-backs,
    pin-blocked victim selections), the cell grid, and — the part no
    other dashboard has — the per-operator page-access breakdown of
    the busiest cell: which operators touched how many pages, how many
    of those fetches dirtied the page, and each operator's hit ratio.
    Same determinism contract as :func:`render_dashboard`.
    """
    cells: List[dict] = record["cells"]
    peak_qps = max((cell["queries_per_sec"] for cell in cells),
                   default=0.0)
    total_write_backs = sum(cell["write_backs"] for cell in cells)
    total_pin_skips = sum(cell["pinned_victim_skips"] for cell in cells)
    total_queries = sum(cell["queries"] for cell in cells)

    sections: List[str] = []
    sections.append(f"<h1>{_escape(title)}</h1>")
    sections.append(
        f'<p class="subtitle">workload {_escape(record["workload"])} '
        f'&middot; runtime {_escape(record["runtime"])} &middot; '
        f'systems '
        f'{_escape(", ".join(str(s) for s in record["systems"]))} '
        f'&middot; buffer {_escape(record["buffer_pages"])} pages '
        f'&middot; seed {_escape(record["seed"])}</p>')

    sections.append('<div class="tiles">')
    sections.append(_tile("Peak query rate", format_number(peak_qps),
                          "queries / simulated sec"))
    sections.append(_tile("Queries executed", format_number(total_queries),
                          f"across {len(cells)} cells"))
    sections.append(_tile("Dirty write-backs",
                          format_number(total_write_backs),
                          "victim pages flushed before reuse"))
    sections.append(_tile("Pinned-victim skips",
                          format_number(total_pin_skips),
                          "evictions blocked by operator pins"))
    sections.append("</div>")

    grid_headers = ["cell", "queries", "qps", "hit ratio", "resp ms",
                    "p95 ms", "write-backs", "pin skips", "stale hits",
                    "cont/M"]
    grid_rows = [[
        _macro_cell_label(cell), cell["queries"],
        cell["queries_per_sec"], cell["hit_ratio"],
        cell["mean_response_ms"], cell["p95_response_ms"],
        cell["write_backs"], cell["pinned_victim_skips"],
        cell["stale_hit_retries"],
        round(cell["lock"]["contentions"] * 1e6
              / max(1, cell["accesses"]), 1),
    ] for cell in cells]
    sections.append(f'<div class="card"><h2>Macro grid</h2>'
                    f'{_table(grid_headers, grid_rows)}</div>')

    kind_headers = ["cell"] + sorted(
        {kind for cell in cells for kind in cell["queries_by_kind"]})
    kind_rows = [[_macro_cell_label(cell)]
                 + [cell["queries_by_kind"].get(kind, 0)
                    for kind in kind_headers[1:]]
                 for cell in cells]
    sections.append(f'<div class="card"><h2>Transaction mix</h2>'
                    f'{_table(kind_headers, kind_rows)}</div>')

    detail = max(cells, key=lambda c: c["accesses"])
    op_headers = ["operator", "page accesses", "writes", "hits",
                  "hit ratio", "share"]
    total_accesses = max(1, detail["accesses"])
    op_rows = []
    for name, entry in sorted(detail["op_breakdown"].items(),
                              key=lambda item: -item[1]["accesses"]):
        accesses = entry["accesses"]
        op_rows.append([
            name, accesses, entry["writes"], entry["hits"],
            round(entry["hits"] / accesses, 4) if accesses else 0.0,
            f"{100.0 * accesses / total_accesses:.1f}%"])
    sections.append(
        f'<div class="card"><h2>Per-operator page accesses — '
        f'{_escape(_macro_cell_label(detail))}</h2>'
        f'{_table(op_headers, op_rows)}</div>')

    sections.append(
        "<footer>Generated by <code>repro.harness.cli macro</code> — "
        "deterministic for a given seed on the sim runtime; see "
        "docs/architecture.md &sect;12.</footer>")

    return _page(title, sections)
