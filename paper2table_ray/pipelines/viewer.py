"""Interactive resultset viewer (table2html, SURVEY.md S13 viewer sink).

Behavioral parity with /root/reference/src/table2html/__main__.py (the
480-line self-contained viewer), reimplemented over the dict model —
studied, not copied:

- sticky TOC sidebar with scroll-spy highlighting (one anchor per
  fragment), __main__.py:61-81 + 336-362;
- metadata + flattened settings tables, 84-149;
- per-paper collapsible sources table with reader emojis, 259-289;
- fragment tables with ``row_`` / ``agreement_level_`` / ``readers_`` /
  ``sources_`` meta columns (shown only when populated), agreement
  heat classes (low/medium/high), row_-palette coloring, rowspan
  merging of equal cells within a row_ group, empty-row skip counts,
  common-before-extra column ordering, 152-333.

Ray shape: the per-paper sections render DISTRIBUTED (coarse-shard doc
groupby — each paper's HTML is built in-task); only the tiny shell (TOC
+ metadata + concatenation) assembles on the driver.
"""

from __future__ import annotations

import html as html_lib
from typing import Dict, List, Optional, Tuple

import pandas as pd
import pyarrow as pa

import ray.data

from .. import rowmodel as rm
from ..schema import table_to_doc_tablesfiles

_ROW_PALETTE_SIZE = 5

_META_COLS = ("row_", "agreement_level_", "readers_", "sources_")


def _esc(v) -> str:
    return html_lib.escape(str(v))


def reader_emoji(reader: str) -> str:
    """__main__.py:35-42."""
    if not reader:
        return ""
    if reader in ("pdfplumber", "camelot", "pymupdf"):
        return "💻"
    if reader.startswith("hybrid-"):
        return "☯️"
    return "🤖"


def render_citation(citation) -> str:
    """__main__.py:53-58."""
    if citation is None:
        return ""
    if isinstance(citation, list):
        return ", ".join(v["value"] for v in citation)
    return citation


def agreement_css_class(level: int) -> str:
    """__main__.py:209-214."""
    if level <= 1:
        return "low"
    if level == 2:
        return "medium"
    return "high"


def cell_display_value(
    row: rm.Row, col: str, uuid_to_reader: Optional[dict] = None
) -> str:
    """__main__.py:152-172."""
    if col == "row_":
        return str(row["row_idx"]) if row["row_idx"] is not None else ""
    if col == "agreement_level_":
        lvl = row["agreement_level"]
        return str(lvl) if lvl is not None else ""
    if col == "readers_":
        mapping = uuid_to_reader or {}
        readers = list(
            dict.fromkeys(
                mapping[s] for s in (row["sources"] or []) if s in mapping
            )
        )
        return ", ".join(readers)
    if col == "sources_":
        return ", ".join(row["sources"] or [])
    cell = row["cells"].get(col, "")
    if isinstance(cell, list):
        return ", ".join(v["value"] for v in cell)
    return cell or ""


def compute_rowspans(
    rows: List[rm.Row],
    columns: List[str],
    uuid_to_reader: Optional[dict] = None,
) -> List[Dict[str, int]]:
    """__main__.py:175-206: cells equal across consecutive rows of the
    SAME row_ group merge vertically (span>1 on the first, 0 = skip)."""
    n = len(rows)
    rowspans: List[Dict[str, int]] = [{c: 1 for c in columns} for _ in range(n)]
    for col in columns:
        if col == "agreement_level_":
            continue
        i = 0
        while i < n:
            if rows[i]["row_idx"] is None:
                i += 1
                continue
            row_num = rows[i]["row_idx"]
            val = cell_display_value(rows[i], col, uuid_to_reader)
            span = 1
            j = i + 1
            while (
                j < n
                and rows[j]["row_idx"] == row_num
                and cell_display_value(rows[j], col, uuid_to_reader) == val
            ):
                span += 1
                j += 1
            if span > 1:
                rowspans[i][col] = span
                for k in range(i + 1, i + span):
                    rowspans[k][col] = 0
            i += span
    return rowspans


def _fragment_columns(rows: List[rm.Row]) -> List[str]:
    """__main__.py:308-325: meta columns (only when populated), common
    data columns before row-specific extras, then readers_/sources_."""
    columns: List[str] = []
    if any(r["row_idx"] is not None for r in rows):
        columns.append("row_")
    if any(r["agreement_level"] is not None for r in rows):
        columns.append("agreement_level_")
    all_names = rm.column_names(rows)
    row_sets = [set(r["cells"]) for r in rows]
    common = [c for c in all_names if all(c in s for s in row_sets)]
    extra = [c for c in all_names if c not in common]
    columns.extend(common)
    columns.extend(extra)
    if any(r["sources"] is not None for r in rows):
        columns.append("readers_")
        columns.append("sources_")
    return columns


def build_fragment_html(
    idx: int,
    fragment: rm.Fragment,
    uuid_to_reader: Optional[dict] = None,
    anchor_id: Optional[str] = None,
) -> List[str]:
    """__main__.py:291-333."""
    id_attr = f' id="{anchor_id}"' if anchor_id else ""
    out = [f"<h4{id_attr}>Table {idx}, page {fragment['page']}</h4>"]
    all_rows = fragment["rows"]
    rows = [r for r in all_rows if not rm.row_is_empty(r)]
    skipped = len(all_rows) - len(rows)
    if not rows:
        out.append("<p><i>No rows</i></p>")
        if skipped:
            out.append(f"<p><i>({skipped} empty rows not shown)</i></p>")
        return out
    columns = _fragment_columns(rows)
    out.append("<div class='table-wrapper'><table class='table'>")
    out.append("<tr>" + "".join(f"<th>{_esc(c)}</th>" for c in columns) + "</tr>")
    spans = compute_rowspans(rows, columns, uuid_to_reader)
    for row, row_spans in zip(rows, spans):
        out.append("<tr>")
        for col in columns:
            span = row_spans.get(col, 1)
            if span == 0:
                continue
            attr = f" rowspan='{span}'" if span > 1 else ""
            val = _esc(cell_display_value(row, col, uuid_to_reader))
            if col == "row_" and row["row_idx"] is not None:
                attr = f" class='row-{row['row_idx'] % _ROW_PALETTE_SIZE}'" + attr
            elif col == "agreement_level_":
                attr = (
                    f" class='{agreement_css_class(row['agreement_level'] or 0)}'"
                    + attr
                )
            out.append(f"<td{attr}>{val}</td>")
        out.append("</tr>")
    out.append("</table></div>")
    if skipped:
        out.append(f"<p><i>({skipped} empty rows not shown)</i></p>")
    return out


def _flatten_dict(data: dict, prefix: str, rows: List[Tuple[str, str]]) -> None:
    """__main__.py:84-92."""
    for key, value in data.items():
        full_key = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            _flatten_dict(value, full_key, rows)
        elif isinstance(value, list):
            rows.append((full_key, ", ".join(str(v) for v in value)))
        else:
            rows.append((full_key, str(value)))


def _kv_table(rows: List[Tuple[str, str]]) -> List[str]:
    out = ["<div class='table-wrapper'><table class='table metadata-table'>"]
    for key, value in rows:
        out.append(
            f"<tr><th>{_esc(key)}</th><td>"
            f"{_esc(value).replace(chr(10), '<br>')}</td></tr>"
        )
    out.append("</table></div>")
    return out


def build_metadata_html(metadata: dict) -> List[str]:
    """__main__.py:95-149 (sources/settings render separately)."""
    rows: List[Tuple[str, str]] = []
    for key, value in metadata.items():
        if key in ("sources", "settings", "agreement_method"):
            continue
        if isinstance(value, dict):
            _flatten_dict(value, "", rows)
        elif isinstance(value, list):
            rows.append((key, ", ".join(str(v) for v in value)))
        else:
            rows.append((key, str(value)))
    return (["<h2>Metadata</h2>"] + _kv_table(rows)) if rows else []


def build_settings_html(settings: dict) -> List[str]:
    """__main__.py:109-118."""
    rows: List[Tuple[str, str]] = []
    _flatten_dict(settings, "", rows)
    return (["<h2>Settings</h2>"] + _kv_table(rows)) if rows else []


def build_paper_sources_html(sources: List[dict]) -> List[str]:
    """__main__.py:269-289."""
    if not sources:
        return []
    all_keys = {k for s in sources for k in s}
    preferred = ["uuid", "reader", "path"]
    keys = [k for k in preferred if k in all_keys] + sorted(all_keys - set(preferred))
    out = ["<details class='paper-sources'>"]
    out.append(f"<summary>Sources ({len(sources)})</summary>")
    out.append("<div class='table-wrapper'><table class='table'>")
    out.append("<tr>" + "".join(f"<th>{_esc(k)}</th>" for k in keys) + "</tr>")
    for source in sources:
        cells = []
        for k in keys:
            v = str(source.get(k, ""))
            if k == "uuid":
                emoji = reader_emoji(source.get("reader", ""))
                v = f"{emoji} {v}" if emoji else v
            cells.append(f"<td>{_esc(v)}</td>")
        out.append("<tr>" + "".join(cells) + "</tr>")
    out.append("</table></div></details>")
    return out


def build_paper_section(
    paper_i: int,
    paper_name: str,
    tablesfile: dict,
    uuid_to_reader: Optional[dict] = None,
    sources: Optional[List[dict]] = None,
) -> str:
    out = [f"<div class='paper' id='paper-{paper_i}'>"]
    out.append(f"<h3>{_esc(paper_name)}</h3>")
    citation = render_citation(tablesfile.get("citation"))
    if citation:
        out.append(f"<p class='citation'>{_esc(citation)}</p>")
    if sources:
        out.extend(build_paper_sources_html(sources))
    idx = 0
    for table in tablesfile["tables"]:
        idx += 1
        for fragment in table["fragments"]:
            anchor = f"paper-{paper_i}-table-{idx}-page-{fragment['page']}"
            out.extend(
                build_fragment_html(idx, fragment, uuid_to_reader, anchor)
            )
    out.append("</div>")
    return "".join(out)


def build_toc(papers: List[Tuple[str, dict]]) -> List[str]:
    """__main__.py:61-81."""
    out = ['<nav id="toc">', '<div id="toc-inner">', "<b>Contents</b>", "<ul>"]
    for paper_i, (paper_name, tf) in enumerate(papers):
        out.append(f'<li><a href="#paper-{paper_i}">{_esc(paper_name)}</a>')
        fragments = [
            (idx, frag)
            for idx, table in enumerate(tf["tables"], 1)
            for frag in table["fragments"]
        ]
        if fragments:
            out.append("<ul>")
            for idx, frag in fragments:
                anchor = f"paper-{paper_i}-table-{idx}-page-{frag['page']}"
                out.append(
                    f'<li><a href="#{anchor}">Table {idx}, '
                    f"p.&nbsp;{frag['page']}</a></li>"
                )
            out.append("</ul>")
        out.append("</li>")
    out.extend(["</ul>", "</div>", "</nav>"])
    return out


# scroll-spy: highlight the TOC entry of the topmost visible anchor
_TOC_JS = """
(function () {
  var entries = Array.prototype.slice.call(
    document.querySelectorAll('#toc a')
  ).map(function (a) {
    return { el: document.getElementById(a.getAttribute('href').slice(1)), a: a };
  }).filter(function (x) { return x.el; });
  function update() {
    var y = window.scrollY + 8;
    var active = null;
    for (var i = 0; i < entries.length; i++) {
      var top = entries[i].el.getBoundingClientRect().top + window.scrollY;
      if (top <= y) { active = entries[i]; } else { break; }
    }
    entries.forEach(function (e) { e.a.classList.remove('active'); });
    if (active) {
      active.a.classList.add('active');
      active.a.scrollIntoView({ block: 'nearest' });
    }
  }
  window.addEventListener('scroll', update, { passive: true });
  update();
}());
"""

_CSS = """
* { box-sizing: border-box; }
body { font-family: Arial, sans-serif; display: flex; align-items: flex-start; margin: 0; }
#toc { width: 240px; flex-shrink: 0; position: sticky; top: 0; height: 100vh;
  overflow-y: auto; border-right: 1px solid #ddd; background: #f5f5f5; padding: 12px; }
#toc b { display: block; margin-bottom: 8px; color: #555; font-size: .82em;
  text-transform: uppercase; letter-spacing: .05em; }
#toc ul { list-style: none; margin: 0; padding: 0; }
#toc ul ul { padding-left: 12px; }
#toc a { display: block; padding: 3px 6px; border-radius: 3px; text-decoration: none;
  color: #333; font-size: .82em; white-space: nowrap; overflow: hidden;
  text-overflow: ellipsis; }
#toc a:hover { background: #e0e0e0; }
#toc a.active { background: #cde; color: #036; font-weight: 600; }
main { flex: 1; padding: 20px; min-width: 0; overflow-x: hidden; }
.paper { margin-bottom: 2em; }
.table-wrapper { overflow-x: auto; }
.table { border-collapse: collapse; margin: 1em 0; }
.table th, .table td { border: 1px solid #ddd; padding: 8px; }
.metadata-table th { text-align: left; width: 140px; }
.paper-sources summary { cursor: pointer; color: #555; font-size: .85em; }
.citation { color: #555; font-style: italic; }
.low { background-color: #fdd; }
.medium { background-color: #ffd; }
.high { background-color: #dfd; }
.row-0 { background-color: #aed6f1; } .row-1 { background-color: #a9dfbf; }
.row-2 { background-color: #f9e79f; } .row-3 { background-color: #f5cba7; }
.row-4 { background-color: #d7bde2; }
"""


def _viewer_head(
    papers: List[Tuple[str, dict]],
    title: str,
    metadata: Optional[dict],
    settings: Optional[dict],
) -> str:
    """Everything before the paper sections (shell + TOC + metadata)."""
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head><body>",
    ]
    parts.extend(build_toc(papers))
    parts.append("<main>")
    parts.append(f"<h1>{_esc(title)}</h1>")
    if metadata:
        parts.extend(build_metadata_html(metadata))
        sources = metadata.get("sources") or []
        if isinstance(sources, list) and sources and isinstance(sources[0], dict):
            parts.extend(build_paper_sources_html(sources))
    if settings:
        parts.extend(build_settings_html(settings))
    return "".join(parts)


def _viewer_tail() -> str:
    return f"</main><script>{_TOC_JS}</script></body></html>"


def build_viewer_html(
    papers: List[Tuple[str, dict]],
    title: str = "tables",
    metadata: Optional[dict] = None,
    settings: Optional[dict] = None,
    uuid_to_reader: Optional[dict] = None,
) -> str:
    """Assemble the full page from in-memory ``(name, tablesfile)``
    papers (report-sized inputs; :func:`write_viewer_html` is the
    distributed file sink and writes the same bytes)."""
    return (
        _viewer_head(papers, title, metadata, settings)
        + "".join(
            build_paper_section(i, name, tf, uuid_to_reader)
            for i, (name, tf) in enumerate(papers)
        )
        + _viewer_tail()
    )


_PIECE_COLUMNS = ["doc_id", "name", "html", "toc_json"]


def _render_pieces(cells: ray.data.Dataset, uuid_to_reader: Optional[dict]):
    """cells → Dataset[doc_id, name, html, toc_json]: one pre-rendered
    section per (doc, source), produced inside the doc exchange (one
    decode per shard)."""
    import json as _json

    from ..stages.shuffle import groupby_apply_table

    def per_shard(tbl: pa.Table) -> pd.DataFrame:
        out = []
        for doc_id, tfs in table_to_doc_tablesfiles(tbl):
            # one section per doc (merged resultsets have one source uuid;
            # multi-source cells render per-source sub-papers)
            for uuid, tf in tfs.items():
                name = doc_id if len(tfs) == 1 else f"{doc_id} [{uuid}]"
                toc = {
                    "name": name,
                    "fragments": [
                        {"idx": idx, "page": frag["page"]}
                        for idx, table in enumerate(tf["tables"], 1)
                        for frag in table["fragments"]
                    ],
                }
                # paper_i is stamped later (the driver knows the global
                # order): __PID__ is a placeholder the driver rewrites
                html = build_paper_section("__PID__", name, tf, uuid_to_reader)
                out.append((doc_id, name, html, _json.dumps(toc)))
        return pd.DataFrame(out, columns=_PIECE_COLUMNS)

    return groupby_apply_table(cells, "doc_id", per_shard)


def write_viewer_html(
    cells: ray.data.Dataset,
    output_path: str,
    title: str = "tables",
    metadata: Optional[dict] = None,
    settings: Optional[dict] = None,
    uuid_to_reader: Optional[dict] = None,
) -> int:
    """Streaming viewer FILE sink (byte-identical to
    :func:`build_viewer_html` over the decoded trees in ``(doc_id, name)``
    order): sections render distributed; the
    driver holds only (a) the slim TOC manifest — O(papers) name/page
    rows, read via ``select_columns`` so section HTML never ships for the
    TOC pass — and (b) one batch of rendered HTML at a time, appended to
    the file as it streams in sorted order. Returns the paper count."""
    import json as _json

    # materialize AFTER the sort: both consuming passes below then read
    # the same sorted blocks instead of re-executing the sort
    ordered = _render_pieces(cells, uuid_to_reader).sort(
        ["doc_id", "name"]
    ).materialize()
    # both consuming loops below depend on stable sorted block order
    ordered.context.execution_options.preserve_order = True

    # pass 1 (slim): TOC manifest only
    toc_papers = []
    for batch in ordered.select_columns(["toc_json"]).iter_batches(
        batch_format="pyarrow"
    ):
        for tj in batch.column("toc_json").to_pylist():
            manifest = _json.loads(tj)
            toc_papers.append(
                (manifest["name"], {"tables": _toc_tables(manifest["fragments"])})
            )

    # pass 2: stream sections to the file in the same sorted order
    i = 0
    with open(output_path, "w", encoding="utf-8") as f:
        f.write(_viewer_head(toc_papers, title, metadata, settings))
        for batch in ordered.select_columns(["html"]).iter_batches(
            batch_format="pyarrow"
        ):
            for html in batch.column("html").to_pylist():
                f.write(html.replace("paper-__PID__", f"paper-{i}"))
                i += 1
        f.write(_viewer_tail())
    return i


def _toc_tables(fragments: List[dict]) -> List[dict]:
    """Manifest → minimal tables tree reproducing (idx, page) pairs."""
    by_idx: Dict[int, List[dict]] = {}
    for f in fragments:
        by_idx.setdefault(f["idx"], []).append({"page": f["page"], "rows": []})
    return [{"fragments": by_idx[i]} for i in sorted(by_idx)]
