"""HTML weblog for campaigns: tables, QA verdicts, inline SVG figures.

``render_campaign`` turns the row/QA artifacts accumulated under a
campaign directory into a single self-contained, browsable page at
``<dir>/report/index.html`` — one section per stage with the result
table, the stage's QA verdict and per-check detail, an inline SVG
chart of the numeric columns, and a link to the raw JSON artifact.
Everything is stdlib: the SVG is generated directly, no plotting
dependency, and the only outgoing links point at files inside the
campaign directory (the CI smoke job link-checks the rendered page).
"""

from __future__ import annotations

import html
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.atomic import atomic_write_text
from repro.experiments.context import CampaignContext

_CSS = """
body { font-family: -apple-system, "Segoe UI", sans-serif; margin: 2rem auto;
       max-width: 70rem; padding: 0 1rem; color: #1a1a2e; }
h1 { border-bottom: 2px solid #1a1a2e; padding-bottom: .3rem; }
h2 { margin-top: 2.5rem; }
table { border-collapse: collapse; margin: 1rem 0; font-size: .9rem; }
th, td { border: 1px solid #c8c8d4; padding: .3rem .7rem; text-align: right; }
th { background: #eef0f6; }
.verdict { display: inline-block; padding: .15rem .6rem; border-radius: .8rem;
           font-size: .8rem; font-weight: 600; color: #fff; vertical-align: middle; }
.verdict-pass { background: #2e7d32; }
.verdict-fail { background: #c62828; }
.verdict-none { background: #78909c; }
.qa-checks { font-size: .85rem; color: #444; }
.qa-checks li.fail { color: #c62828; font-weight: 600; }
.meta { color: #667; font-size: .85rem; }
figure { margin: 1rem 0; }
"""


def _fmt_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    if value is None:
        return ""
    return str(value)


def _table_html(headers: Sequence[str], rows: Sequence[Dict[str, Any]]) -> str:
    head = "".join(f"<th>{html.escape(str(h))}</th>" for h in headers)
    body = []
    for row in rows:
        cells = "".join(
            f"<td>{html.escape(_fmt_cell(row.get(h)))}</td>" for h in headers
        )
        body.append(f"<tr>{cells}</tr>")
    return (
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{''.join(body)}</tbody></table>"
    )


#: Qualitative series palette for the SVG figures.
_COLORS = ("#3949ab", "#d81b60", "#00897b", "#f4511e", "#6d4c41", "#7b1fa2")


def _numeric_series(
    headers: Sequence[str], rows: Sequence[Dict[str, Any]]
) -> Tuple[Optional[str], List[Tuple[str, List[float]]]]:
    """Pick an x column and up to 6 fully-numeric y series."""

    def numeric(column: str) -> Optional[List[float]]:
        values = []
        for row in rows:
            v = row.get(column)
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                return None
            values.append(float(v))
        return values

    x_col = None
    series: List[Tuple[str, List[float]]] = []
    for h in headers:
        values = numeric(h)
        if values is None:
            continue
        if x_col is None:
            x_col = h
        elif len(series) < 6:
            series.append((h, values))
    return x_col, series


def _svg_chart(
    headers: Sequence[str], rows: Sequence[Dict[str, Any]]
) -> str:
    """A small multiline chart: first numeric column as x, the rest as
    series.  Returns '' when there is nothing worth plotting."""
    if len(rows) < 2:
        return ""
    x_col, series = _numeric_series(headers, rows)
    if x_col is None or not series:
        return ""
    xs = [float(row[x_col]) for row in rows]
    width, height, pad = 640, 280, 48
    x_lo, x_hi = min(xs), max(xs)
    y_all = [v for _, values in series for v in values]
    y_lo, y_hi = min(y_all), max(y_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(v: float) -> float:
        return pad + (v - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def sy(v: float) -> float:
        return height - pad - (v - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'xmlns="http://www.w3.org/2000/svg" '
        f'style="max-width:{width}px;background:#fafafc">',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="#999"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="#999"/>',
        f'<text x="{width / 2:.0f}" y="{height - 8}" text-anchor="middle" '
        f'font-size="12">{html.escape(x_col)}</text>',
        f'<text x="{pad}" y="{pad - 10}" font-size="11" fill="#667">'
        f"{y_lo:g} .. {y_hi:g}</text>",
    ]
    for i, (name, values) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(
            f"{sx(x):.1f},{sy(y):.1f}" for x, y in sorted(zip(xs, values))
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        ly = pad + 16 * i
        parts.append(
            f'<rect x="{width - pad - 150}" y="{ly - 9}" width="10" '
            f'height="10" fill="{color}"/>'
            f'<text x="{width - pad - 135}" y="{ly}" font-size="11">'
            f"{html.escape(name)}</text>"
        )
    parts.append("</svg>")
    return f"<figure>{''.join(parts)}</figure>"


def _verdict_badge(verdict: str) -> str:
    return f'<span class="verdict verdict-{verdict}">{verdict.upper()}</span>'


def _qa_html(qa_payload: Optional[Dict[str, Any]]) -> Tuple[str, str]:
    """Returns ``(verdict, checks html)`` for a stage's QA artifact."""
    if not qa_payload:
        return "none", ""
    verdict = qa_payload.get("verdict", "none")
    items = []
    for check in qa_payload.get("checks", ()):  # pragma: no branch
        ok = check.get("passed")
        cls = "" if ok else ' class="fail"'
        observed = check.get("observed")
        shown = "n/a" if observed is None else f"{observed:g}"
        reason = check.get("reason") or ""
        suffix = f" — {html.escape(reason)}" if reason else ""
        items.append(
            f"<li{cls}>{html.escape(check.get('describe', '?'))}: "
            f"observed {shown}{suffix}</li>"
        )
    checks = f'<ul class="qa-checks">{"".join(items)}</ul>' if items else ""
    return verdict, checks


def render_campaign(context: CampaignContext) -> str:
    """Render ``report/index.html`` from the campaign's artifacts.

    Returns the path of the written page."""
    import json

    request = context.load_request() or {}
    name = request.get("campaign", os.path.basename(context.root.rstrip("/")))
    sections = []
    verdicts = []
    for stage, payload in context.iter_stage_artifacts():
        headers = payload.get("headers", [])
        rows = payload.get("rows", [])
        qa_payload = None
        try:
            with open(context.qa_artifact_path(stage)) as fh:
                qa_payload = json.load(fh)
        except (OSError, ValueError):
            pass
        verdict, checks_html = _qa_html(qa_payload)
        verdicts.append(verdict)
        meta = {}
        try:
            with open(context.meta_artifact_path(stage)) as fh:
                meta = json.load(fh)
        except (OSError, ValueError):
            pass
        meta_line = (
            f'<p class="meta">experiment {html.escape(str(meta.get("experiment", "?")))}'
            f' · scale {meta.get("scale", "?")}'
            f' · executor {html.escape(str(meta.get("executor", "?")))}'
            f' · {meta.get("points_total", "?")} points'
            f' ({meta.get("journal_hits", 0)} from journal)'
            f' · <a href="../artifacts/{stage}.rows.json">rows.json</a></p>'
        )
        sections.append(
            f'<h2 id="{html.escape(stage)}">{html.escape(stage)} '
            f"{_verdict_badge(verdict)}</h2>"
            f"{meta_line}"
            f"{html.escape(payload.get('description', ''))}"
            f"{_table_html(headers, rows)}"
            f"{checks_html}"
            f"{_svg_chart(headers, rows)}"
        )
    overall = "fail" if "fail" in verdicts else ("pass" if "pass" in verdicts else "none")
    toc = "".join(
        f'<li><a href="#{html.escape(stage)}">{html.escape(stage)}</a></li>'
        for stage, _ in context.iter_stage_artifacts()
    )
    page = (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        f"<title>campaign {html.escape(name)}</title>"
        f"<style>{_CSS}</style></head><body>"
        f"<h1>campaign {html.escape(name)} {_verdict_badge(overall)}</h1>"
        f'<p class="meta">{html.escape(request.get("description", ""))}</p>'
        f"<ul>{toc}</ul>"
        f"{''.join(sections)}"
        "</body></html>\n"
    )
    os.makedirs(context.report_dir, exist_ok=True)
    out = os.path.join(context.report_dir, "index.html")
    atomic_write_text(out, page)
    return out
