"""Self-contained HTML pages for the sweeps' reports.

Each ``<tier>_report`` function selects, from one sweep record, the
:class:`~repro.harness.report.Report` that sweep shows: facts, a
stat-tile row (the headline numbers), charts (scaling curves,
contention heatmaps), then the derived tables. :func:`render_html`
turns any report into a single HTML file with zero external references
— CSS inline, charts as inline SVG from :mod:`repro.harness.plots` — so
it can ride along as a CI artifact and open anywhere, offline;
:func:`repro.harness.report.render_text` prints the same report's
tables in the terminal. Charts, legends and notes are page-only, and
every chart has a table twin, so no value is readable only by color or
hover.

Colors live in CSS custom properties with explicit light and dark
values (the SVG marks are classed, not inline-styled); categorical
hues are assigned to systems in fixed slot order, never cycled.

Determinism: the output is a pure function of the record — no dates,
no random ids — so two same-seed runs produce byte-identical pages
(tested, and CI diffs them).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.harness.plots import svg_heatmap, svg_line_chart, svg_sparkline
from repro.harness.report import Card, Mark, Report, Table, format_number
from repro.obs.analyze import (attribution_table, breakdown_table,
                               scaling_table, warmup_table)
from repro.sync.stats import LockStats

__all__ = ["analysis_report", "macro_report", "render_html",
           "render_serve_page", "scaling_report", "serve_report",
           "telemetry_report", "tune_report"]

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


def _cell(cell: object) -> str:
    if isinstance(cell, Mark):
        return f'<span class="{cell.css}">{_escape(cell.text)}</span>'
    return _escape(format_number(cell))


def _tile(label: str, value: object, detail: str) -> str:
    return (f'<div class="tile"><div class="label">{_escape(label)}'
            f'</div><div class="value">{_cell(value)}</div>'
            f'<div class="detail">{_escape(detail)}</div></div>')


def _table(table: Table) -> str:
    heading = f"<h3>{_escape(table.title)}</h3>" if table.title else ""
    head = "".join(f"<th>{_escape(h)}</th>" for h in table.headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_cell(cell)}</td>" for cell in row) + "</tr>"
        for row in table.rows)
    return (f"{heading}<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{body}</tbody></table>")


def _card(card: Card) -> str:
    parts = "".join(_table(part) if isinstance(part, Table) else part
                    for part in card.parts)
    return (f'<div class="card"><h2>{_escape(card.title)}</h2>'
            f'{parts}</div>')


def render_html(report: Report) -> str:
    """One report -> one self-contained HTML page; a pure function of
    the report, so identical records give byte-identical pages."""
    facts = " &middot; ".join(_escape(fact) for fact in report.facts)
    sections = [f"<h1>{_escape(report.title)}</h1>",
                f'<p class="subtitle">{facts}</p>',
                '<div class="tiles">',
                *(_tile(*tile) for tile in report.tiles), "</div>"]
    for section in report.sections:
        if isinstance(section, Card):
            sections.append(_card(section))
        else:
            sections += ['<div class="row">', *map(_card, section),
                         "</div>"]
    sections.append(f"<footer>{report.footer}</footer>")
    body = "\n".join(sections)
    return (f"<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
            f"<meta charset=\"utf-8\"/>\n"
            f"<meta name=\"viewport\" content=\"width=device-width, "
            f"initial-scale=1\"/>\n"
            f"<title>{_escape(report.title)}</title>\n"
            f"<style>{_css()}</style>\n</head>\n<body>\n{body}\n"
            f"</body>\n</html>\n")


def _legend(systems: Sequence[str]) -> str:
    keys = "".join(
        f'<span class="key"><i class="swatch s{i + 1}"></i>'
        f'{_escape(system)}</span>'
        for i, system in enumerate(systems))
    return f'<div class="legend">{keys}</div>'


def _curves(title: str, rows: List[dict], systems: Sequence[str],
            x_key: str, value_key: str, **chart) -> Card:
    """``value_key`` against ``x_key``, one line per system, under the
    systems' legend."""
    series = {
        system: [(row[x_key], row[value_key])
                 for row in rows if row["system"] == system]
        for system in systems
    }
    return Card(title, [_legend(systems), svg_line_chart(series, **chart)])


def _joined(values: Sequence[object]) -> str:
    return ", ".join(f"{v:g}" if isinstance(v, float) else str(v)
                     for v in values)


def scaling_report(record: dict) -> Report:
    """One ``bench_scaling`` record: the wall-clock twin of
    :func:`analysis_report`'s simulated-time scaling curves — events/sec
    and contention per million accesses against real worker count, one
    line per system, on genuinely parallel hardware (the ``mp``
    backend, or ``native`` on free-threaded CPython)."""
    systems: List[str] = record["systems"]
    workers: List[int] = record["workers"]
    cells: List[dict] = record["cells"]
    rate = {(cell["system"], cell["workers"]): cell["events_per_sec"]
            for cell in cells}

    tiles = [("Peak access rate", max(rate.values(), default=0.0),
              "accesses / sec, wall clock")]
    top = max(workers) if workers else 0
    batched = next((s for s in systems if s.startswith("pgBat")), None)
    locked = "pg2Q" if "pg2Q" in systems else None
    base = rate.get((locked, top)) or 0.0
    if batched and base > 0:
        tiles.append((f"{batched} / {locked} @ {top} workers",
                      (rate.get((batched, top)) or 0.0) / base,
                      "wall-clock access-rate ratio"))
    gil = "on" if record.get("gil_enabled", True) else "off"
    tiles += [("Host CPUs", str(record["host_cpus"]), f"GIL {gil}"),
              ("Cells", len(cells), "system x worker-count runs")]

    headers = ["system", "workers", "acc/s", "tps", "cont/M",
               "lock us/acc", "resp ms", "cpu util", "wall s"]
    rows = [[cell["system"], cell["workers"], cell["events_per_sec"],
             cell["throughput_tps"], cell["contention_per_million"],
             cell["lock_time_per_access_us"], cell["mean_response_ms"],
             cell["cpu_utilization"], cell["wall_s"]]
            for cell in cells]
    return Report(
        title="Wall-clock scaling (Fig. 6/7)",
        facts=[f'backend {record["backend"]}',
               f'workload {record["workload"]}',
               f'host cpus {record["host_cpus"]}',
               f"workers {_joined(workers)}", f'seed {record["seed"]}'],
        tiles=tiles,
        sections=[
            [_curves("Access rate scaling", cells, systems, "workers",
                     "events_per_sec", y_label="accesses / sec (wall)",
                     value_unit=" acc/s"),
             _curves("Lock contention", cells, systems, "workers",
                     "contention_per_million", log_y=True,
                     y_label="contentions / M accesses",
                     value_unit=" cont/M")],
            Card("Scaling grid", [Table("", headers, rows)])],
        footer="Generated by <code>benchmarks/bench_scaling.py</code> "
               "— wall-clock rates are host-dependent; compare shapes, "
               "not absolute numbers, across machines.")


def _serve_cell_label(cell: dict) -> str:
    return (f'{cell["n_shards"]}s×{cell["n_tenants"]}t'
            f'@θ{cell["skew"]:g}')


def _largest_cell(cells: List[dict]) -> dict:
    """The cell the serve pages drill into."""
    return max(cells, key=lambda c: (c["n_shards"] * c["n_tenants"],
                                     c["skew"]))


def serve_report(record: dict) -> Report:
    """One ``serve-grid`` record.

    The centerpiece is the per-shard contention heatmap: one row per
    (shards × tenants × skew) sweep cell, one column per shard,
    colored by that shard's replacement-lock contentions per million
    accesses. A balanced serving layer shows flat rows; the shared hot
    set shows up as a dark column — the shard the hottest index-root
    pages hash to.
    """
    cells: List[dict] = record["cells"]
    max_shards = max((cell["n_shards"] for cell in cells), default=0)
    values = [
        [cell["shards"][j]["contention_per_million"]
         if j < cell["n_shards"] else None
         for j in range(max_shards)]
        for cell in cells
    ]
    heat = svg_heatmap([_serve_cell_label(cell) for cell in cells],
                       [f"shard{j}" for j in range(max_shards)], values,
                       value_unit=" cont/M")
    throttled = sum(tenant["throttled"] for cell in cells
                    for tenant in cell["tenants"])
    backpressured = sum(shard["backpressure_events"] for cell in cells
                        for shard in cell["shards"])

    grid = Table("", ["cell", "req/s", "cont/M", "hit ratio",
                      "throttled", "backpressured", "peak depth"], [[
        _serve_cell_label(cell), cell["requests_per_sec"],
        cell["contention_per_million"], cell["hit_ratio"],
        sum(t["throttled"] for t in cell["tenants"]),
        sum(s["backpressure_events"] for s in cell["shards"]),
        max((s["peak_in_flight"] for s in cell["shards"]), default=0),
    ] for cell in cells])
    detail = _largest_cell(cells)
    shards = Table("", ["shard", "capacity", "accesses", "hit ratio",
                        "cont/M", "lock wait us", "peak depth",
                        "backpressured"],
                   [[f'shard{s["shard"]}', s["capacity"], s["accesses"],
                     s["hit_ratio"], s["contention_per_million"],
                     s["lock_wait_us"], s["peak_in_flight"],
                     s["backpressure_events"]]
                    for s in detail["shards"]])
    tenants = Table("Tenants", ["tenant", "completed", "throttled",
                                "wait us", "hit ratio", "mean ms",
                                "p95 ms", "max ms"],
                    [[t["tenant"], t["completed"], t["throttled"],
                      t["throttle_wait_us"], t["hit_ratio"],
                      t["latency_mean_ms"], t["latency_p95_ms"],
                      t["latency_max_ms"]]
                     for t in detail["tenants"]])
    return Report(
        title="Sharded serving layer",
        facts=[f'system {record["system"]}',
               f'runtime {record["runtime"]}',
               f'shards {_joined(record["shards"])}',
               f'tenants {_joined(record["tenants"])}',
               f'skews {_joined(record["skews"])}',
               f'seed {record["seed"]}'],
        tiles=[
            ("Peak request rate",
             max((cell["requests_per_sec"] for cell in cells), default=0.0),
             "requests / simulated sec"),
            ("Worst shard contention",
             max((value for row in values for value in row
                  if value is not None), default=0.0),
             "per million accesses"),
            ("Requests served", sum(cell["requests"] for cell in cells),
             f"across {len(cells)} cells"),
            ("Admission pushback", throttled + backpressured,
             f"{throttled} throttled, {backpressured} backpressured")],
        sections=[
            Card("Per-shard contention (per million accesses)", [heat]),
            Card("Sweep grid", [grid]),
            Card(f"{_serve_cell_label(detail)} — shards",
                 [shards, tenants])],
        footer="Generated by <code>repro.harness.cli serve</code> — "
               "deterministic for a given seed on the sim runtime; see "
               "docs/architecture.md &sect;11.")


def render_serve_page(record: dict) -> str:
    """The serve page, under the name the perf ledger imports."""
    return render_html(serve_report(record))


def _spark_row(index: int, name: str, points: List[tuple], unit: str,
               last_unit: str) -> str:
    spark = svg_sparkline(points, unit=unit,
                          css_class=f"s{index % 8 + 1}")
    return (f'<tr class="spark-row"><td>{_escape(name)}</td>'
            f"<td>{spark}</td>"
            f"<td>{_escape(format_number(points[-1][1]))}"
            f" {_escape(last_unit)}</td></tr>")


def telemetry_report(record: dict, timeseries: Dict[str, dict]) -> Report:
    """Serve-grid record + per-cell telemetry -> the ops report.

    Three layers, coarse to fine: SLO tiles and the per-tenant burn
    table (is anyone outside budget?), per-cell sparkline strips of
    the sampled series (when did it go wrong?), and the tenant x shard
    request-routing heatmap plus windowed p99 latency (where, and who
    pays?). ``timeseries`` maps cell labels to
    :meth:`~repro.obs.telemetry.TelemetrySampler.to_dict` documents —
    the same mapping ``cli serve --telemetry`` writes as
    ``timeseries.json``.
    """
    cells: List[dict] = record["cells"]
    slo_rows = [(cell, slo) for cell in cells
                for slo in cell.get("slo", [])]
    violations = sum(1 for _, slo in slo_rows if not slo["ok"])
    samples = sum(doc.get("samples", 0) for doc in timeseries.values())

    sections: List[Card] = []
    if slo_rows:
        sections.append(Card("Per-tenant SLO burn rates", [Table(
            "", ["cell", "tenant", "p99 ms", "latency burn",
                 "throttle burn", "status"],
            [[_serve_cell_label(cell), slo["tenant"],
              slo["achieved_p99_ms"], slo["latency_burn_rate"],
              slo["throttle_burn_rate"],
              Mark("ok", "slo-ok") if slo["ok"]
              else Mark("VIOLATED", "slo-bad")]
             for cell, slo in slo_rows])]))

    # Sparkline strips: one card per sampled cell, one row per series.
    for label in sorted(timeseries):
        doc = timeseries[label]
        rows = []
        for index, name in enumerate(sorted(doc.get("series", {}))):
            series = doc["series"][name]
            points = [(p[0], p[1]) for p in series["points"]]
            if points:
                unit = series.get("unit", "")
                rows.append(_spark_row(index, name, points, unit, unit))
        for index, tenant in enumerate(
                sorted(doc.get("latency_windows", {}))):
            windows = doc["latency_windows"][tenant]["windows"]
            points = [(w["start_us"], w["p99_us"]) for w in windows]
            if points:
                rows.append(_spark_row(index, f"{tenant} p99 latency",
                                       points, " us", "us"))
        if rows:
            sections.append(Card(
                f"{label} — sampled series (every "
                f'{format_number(doc["interval_us"])} us)',
                ["<table><thead><tr><th>series</th><th>trend</th>"
                 "<th>last</th></tr></thead>"
                 f'<tbody>{"".join(rows)}</tbody></table>']))

    # Tenant x shard routing heatmap for the busiest cell.
    routed = [cell for cell in cells
              if any(t.get("shard_requests") for t in cell["tenants"])]
    if routed:
        detail = _largest_cell(routed)
        heat = svg_heatmap(
            [t["tenant"] for t in detail["tenants"]],
            [f"shard{j}" for j in range(detail["n_shards"])],
            [[t.get("shard_requests", {}).get(str(j)) or None
              for j in range(detail["n_shards"])]
             for t in detail["tenants"]],
            value_unit=" requests", log_scale=False)
        sections.append(Card(
            f"{_serve_cell_label(detail)} — requests routed per "
            f"tenant x shard", [heat]))

    return Report(
        title="Serving telemetry",
        facts=[f'system {record["system"]}',
               f'runtime {record["runtime"]}', f"{len(cells)} cells",
               f'seed {record["seed"]}'],
        tiles=[
            ("SLO status",
             "all ok" if violations == 0 else f"{violations} violated",
             f"{len(slo_rows)} tenant evaluations"),
            ("Worst achieved p99",
             max((slo["achieved_p99_ms"] for _, slo in slo_rows),
                 default=0.0), "milliseconds, any tenant"),
            ("Worst latency burn",
             max((slo["latency_burn_rate"] for _, slo in slo_rows),
                 default=0.0), "error budget x; <=1 is compliant"),
            ("Telemetry samples", samples,
             f"{len(timeseries)} sampled cells")],
        sections=sections,
        footer="Generated by <code>repro.harness.cli serve "
               "--telemetry</code> — deterministic for a given seed on "
               "the sim runtime; see docs/observability.md.")


def _tune_row_label(cell: dict) -> str:
    return f'q{cell["queue_size"]} {cell["system"]}'


def tune_report(record: dict) -> Report:
    """One ``cli tune`` record.

    The Fig. 8 surface as a heatmap — one row per (queue × system)
    combination, one column per batch threshold, colored by lock
    contentions per million accesses — plus the static-best cell, the
    online threshold adapter's convergence record (where its walk
    ended and what fraction of the hand-tuned optimum it reached), and
    the adaptive policy's hit-ratio face-off against its two expert
    policies.
    """
    cells: List[dict] = record["grid"]
    best: dict = record["static_best"]
    adapter: dict = record["adapter"]
    adaptive: List[dict] = record["adaptive"]
    controller = adapter.get("controller") or {}

    row_labels = list(dict.fromkeys(_tune_row_label(c) for c in cells))
    col_labels = [str(t) for t in record["thresholds"]]
    contention = {(_tune_row_label(c), str(c["batch_threshold"])):
                  c["contention_per_million"] for c in cells}
    heat = svg_heatmap(
        row_labels, col_labels,
        [[contention.get((row, col)) for col in col_labels]
         for row in row_labels],
        col_title=" threshold", value_unit=" cont/M")

    grid = Table("", ["cell", "threshold", "tps", "cont/M", "cont/access",
                      "hit ratio", "mean batch"],
                 [[_tune_row_label(cell), cell["batch_threshold"],
                   cell["throughput_tps"], cell["contention_per_million"],
                   cell["contention_rate"], cell["hit_ratio"],
                   cell["mean_batch_size"]] for cell in cells])
    walk = Table("", ["stat", "value"], [
        ["start threshold", adapter["start_threshold"]],
        ["final threshold", adapter["batch_threshold"]],
        ["throughput (tps)", adapter["throughput_tps"]],
        ["fraction of static best", adapter["fraction_of_best"]],
        ["cont/M", adapter["contention_per_million"]],
        ["decisions", controller.get("decisions", 0)],
        ["cooldown skips", controller.get("cooldown_skips", 0)],
        ["commits observed", controller.get("commits", 0)],
        ["last window rate", controller.get("last_rate", 0.0)]])
    sections = [
        Card("Lock contention across the grid (per million accesses)",
             [heat]),
        Card("Static grid", [grid]),
        Card(f'Online threshold adapter '
             f'({controller.get("controller", "-")})', [walk])]
    if adaptive:
        experts = sorted(adaptive[0]["hit_ratios"])
        sections.append(Card("Adaptive policy — hit-ratio face-off", [Table(
            "", ["workload", "buffer pages"] + experts
            + ["floor", "verdict"],
            [[entry["workload"], entry["buffer_pages"]]
             + [entry["hit_ratios"][name]
                for name in sorted(entry["hit_ratios"])]
             + [entry["floor"], "ok" if entry["ok"] else "BELOW FLOOR"]
             for entry in adaptive])]))

    return Report(
        title="Control-plane tuning sweep",
        facts=[f'workload {record["workload"]}',
               f'{record["n_processors"]} processors',
               f'{record["buffer_pages"]} buffer pages',
               f'thresholds {_joined(record["thresholds"])}',
               f'seed {record["seed"]}'],
        tiles=[
            ("Static best", best["throughput_tps"],
             f'tps at threshold {best["batch_threshold"]}, '
             f'{_tune_row_label(best)}'),
            ("Adapter vs best",
             f'{100.0 * adapter["fraction_of_best"]:.1f}%',
             f'threshold walked {adapter["start_threshold"]} '
             f'-> {adapter["batch_threshold"]}'),
            ("Adapter decisions", str(controller.get("decisions", 0)),
             f'{controller.get("commits", 0)} commits observed'),
            ("Adaptive policy",
             f'{sum(1 for entry in adaptive if entry["ok"])}'
             f'/{len(adaptive)} ok',
             "hit ratio >= worse expert")],
        sections=sections,
        footer="Generated by <code>repro.harness.cli tune</code> — "
               "deterministic for a given seed on the sim runtime; see "
               "docs/architecture.md &sect;13.")


def analysis_report(analysis: dict) -> Report:
    """One :func:`repro.obs.analyze.analyze_grid` document: throughput /
    lock-cost scaling curves, the contention heatmap per (system x
    CPUs), then the derived tables (scaling grid, per-lock breakdown,
    warm-up cost, blocked-time attribution, merged cross-run
    percentiles)."""
    systems: List[str] = analysis["systems"]
    scaling: List[dict] = analysis["scaling"]
    heatmap = analysis["heatmap"]
    sections: list = [
        [_curves("Throughput scaling", scaling, systems, "processors",
                 "throughput_tps", y_label="throughput (tps)",
                 value_unit=" tps"),
         _curves("Lock time per access", scaling, systems, "processors",
                 "lock_time_per_access_us", y_label="lock us / access",
                 log_y=True, value_unit=" us"),
         _curves("Wait p99", scaling, systems, "processors", "wait_p99_us",
                 y_label="wait p99 (us)", log_y=True, value_unit=" us")],
        Card("Contention heatmap (per million accesses)", [svg_heatmap(
            heatmap["rows"], heatmap["cols"], heatmap["values"],
            col_title=" cpus", value_unit=" cont/M")]),
        Card("Sweep grid", [Table("", *scaling_table(scaling))])]

    for run in analysis["runs"]:
        parts: list = [Table("Lock breakdown",
                             *breakdown_table(run["locks"]))]
        if "warmup" in run:
            parts.append(Table("Lock warm-up cost",
                               *warmup_table(run["warmup"])))
        if "batch_correlation" in run:
            corr = run["batch_correlation"]
            parts.append(
                f'<p class="legend">{corr["commits"]} batch commits '
                f'&middot; mean batch {format_number(corr["mean_batch"])}'
                f' &middot; {format_number(corr["us_per_entry"])} us per '
                f'entry &middot; size&harr;duration r = '
                f'{format_number(corr["pearson_r"])}</p>')
        if "threads" in run:
            headers, rows = attribution_table(run["threads"])
            parts.append(Table(
                f"Blocked-time attribution (top {len(rows)})",
                headers, rows))
        sections.append(Card(
            f'{run["system"]} @ {run["processors"]} cpus', parts))

    merged_rows = [
        [system, kind, *(analysis["merged"][system][f"{kind}_us"][key]
                         for key in ("count", "p50_us", "p90_us", "p99_us",
                                     "p999_us", "max_us"))]
        for system in systems for kind in ("hold", "wait")]
    sections.append(Card("Merged cross-run distributions", [Table(
        "", ["system", "kind", "n", "p50 us", "p90 us", "p99 us",
             "p99.9 us", "max us"], merged_rows)]))

    return Report(
        title="BP-Wrapper sweep dashboard",
        facts=[f'workload {analysis["workload"]}',
               f'systems {_joined(systems)}',
               f'{_joined(analysis["processors"])} processors',
               f'seed {analysis["seed"]}'],
        tiles=[
            ("Peak throughput",
             max((row["throughput_tps"] for row in scaling), default=0.0),
             "tps"),
            ("Worst contention",
             max((row["contention_per_million"] for row in scaling),
                 default=0.0), "per million accesses"),
            ("Worst wait/hold amplification",
             max((lock["amplification"] for run in analysis["runs"]
                  for lock in run["locks"]), default=0.0),
             "total wait over total hold"),
            ("Batch size vs hold r",
             analysis.get("batch_sweep", {}).get("pearson_r"),
             "Pearson, across the grid"),
            ("Runs", len(analysis["runs"]), "grid cells analyzed")],
        sections=sections,
        footer="Generated by <code>repro.harness.cli analyze</code> — "
               "deterministic for a given seed; see "
               "docs/observability.md.")


def _macro_cell_label(cell: dict) -> str:
    label = f'{cell["system"]}'
    if cell.get("n_shards"):
        label += f'/{cell["n_shards"]}sh'
    return label


def macro_report(record: dict) -> Report:
    """One ``cli macro`` record.

    Headline tiles (peak query rate, pool hit ratio, dirty write-backs,
    pin-blocked victim selections), the cell grid, and — the part no
    other report has — the per-operator page-access breakdown of the
    busiest cell: which operators touched how many pages, how many of
    those fetches dirtied the page, and each operator's hit ratio.
    """
    cells: List[dict] = record["cells"]
    kinds = sorted({kind for cell in cells
                    for kind in cell["queries_by_kind"]})
    detail = max(cells, key=lambda c: c["accesses"])
    total_accesses = max(1, detail["accesses"])
    op_rows = []
    for name, entry in sorted(detail["op_breakdown"].items(),
                              key=lambda item: -item[1]["accesses"]):
        accesses = entry["accesses"]
        op_rows.append([
            name, accesses, entry["writes"], entry["hits"],
            round(entry["hits"] / accesses, 4) if accesses else 0.0,
            f"{100.0 * accesses / total_accesses:.1f}%"])
    grid = Table("", ["cell", "queries", "qps", "hit ratio", "resp ms",
                      "p95 ms", "write-backs", "pin skips", "stale hits",
                      "cont/M"],
                 [[_macro_cell_label(cell), cell["queries"],
                   cell["queries_per_sec"], cell["hit_ratio"],
                   cell["mean_response_ms"], cell["p95_response_ms"],
                   cell["write_backs"], cell["pinned_victim_skips"],
                   cell["stale_hit_retries"],
                   round(LockStats(**cell["lock"]).contentions_per_million(
                       cell["accesses"]), 1)] for cell in cells])
    mix = Table("", ["cell"] + kinds,
                [[_macro_cell_label(cell)]
                 + [cell["queries_by_kind"].get(kind, 0) for kind in kinds]
                 for cell in cells])
    return Report(
        title="Macro workload — query execution",
        facts=[f'workload {record["workload"]}',
               f'runtime {record["runtime"]}',
               f'systems {_joined(record["systems"])}',
               f'buffer {record["buffer_pages"]} pages',
               f'seed {record["seed"]}'],
        tiles=[
            ("Peak query rate",
             max((cell["queries_per_sec"] for cell in cells), default=0.0),
             "queries / simulated sec"),
            ("Queries executed", sum(cell["queries"] for cell in cells),
             f"across {len(cells)} cells"),
            ("Dirty write-backs",
             sum(cell["write_backs"] for cell in cells),
             "victim pages flushed before reuse"),
            ("Pinned-victim skips",
             sum(cell["pinned_victim_skips"] for cell in cells),
             "evictions blocked by operator pins")],
        sections=[
            Card("Macro grid", [grid]), Card("Transaction mix", [mix]),
            Card(f"Per-operator page accesses — "
                 f"{_macro_cell_label(detail)}", [Table(
                     "", ["operator", "page accesses", "writes", "hits",
                          "hit ratio", "share"], op_rows)])],
        footer="Generated by <code>repro.harness.cli macro</code> — "
               "deterministic for a given seed on the sim runtime; see "
               "docs/architecture.md &sect;12.")
