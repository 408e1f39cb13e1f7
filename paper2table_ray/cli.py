"""CLI surface mirroring the reference's seven console scripts
(/root/reference/setup.cfg:83-90): paper2table (extract), tablemerge,
tablestats, table2csv, table2html, tablevalidate, filenorm.

Usage: ``python -m paper2table_ray.cli <command> ...`` — each command is a
thin argparse wrapper over the library pipelines; Ray is initialised only
when needed and only if not already running (the driver contract forbids
the library from owning the session, so only this entry point does)."""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import List


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")


def cmd_extract(argv: List[str]) -> int:
    """paper2table analogue: interleaved docs parquet → span parquet."""
    p = argparse.ArgumentParser(prog="extract")
    p.add_argument(
        "input",
        help="parquet file/dir with (doc_id, spans) docs; accepts the "
        "reference's 'path:first:last' page-range suffix",
    )
    p.add_argument("-o", "--output", required=True, help="output parquet dir")
    p.add_argument("--windowed", action="store_true", help="split_pages-style fan-out")
    p.add_argument("--window-spans", type=int, default=256)
    p.add_argument("--mappings", help="mapping cache dir (hybrid mode)")
    p.add_argument("--force-mapping-generation", action="store_true",
                   help="replan and overwrite cached mappings (reference "
                        "paper2table --force-mapping-generation)")
    p.add_argument("-p", "--column-names-hints",
                   help="comma/ws-separated header hints (reference -p)")
    p.add_argument("--column-names-hints-path",
                   help="file of header hints (# comments allowed)")
    p.add_argument("--resume", action="store_true",
                   help="checkpointed partitioned write with lineage + skip")
    p.add_argument("--partitions", type=int, default=64)
    args = p.parse_args(argv)
    _ensure_ray()
    import ray.data

    from .pipelines.extract import (
        extract_spans,
        extract_spans_mapped,
        extract_spans_windowed,
        plan_mappings_ds,
    )
    from .functions.text import parse_page_range
    from .stages.extract import ExtractConfig
    from .state.lineage import LineageSink

    from .sources.io import read_table as _io_read
    from .sources.io import write_table as _io_write

    from .functions.text import parse_hints

    input_path, page_range = parse_page_range(args.input)
    hint_text = args.column_names_hints or ""
    if args.column_names_hints_path:
        with open(args.column_names_hints_path, encoding="utf-8") as f:
            hint_text = (hint_text + "\n" + f.read()).strip()
    cfg_kwargs = {}
    if page_range:
        cfg_kwargs["page_range"] = page_range
    if hint_text:
        cfg_kwargs["hints"] = tuple(parse_hints(hint_text))
    config = ExtractConfig(**cfg_kwargs) if cfg_kwargs else None
    # storage seam: Lance dataset dirs when the package is available,
    # parquet otherwise (sources/io.py)
    docs = _io_read(input_path)
    if args.resume:
        sink = LineageSink(args.output, num_partitions=args.partitions)
        docs = sink.filter_pending(sink.add_partition_column(docs))
    if args.mappings:
        # mapping side stays a Dataset end-to-end (in-task cache IO;
        # extract_spans_mapped attaches it with a doc_id hash_join)
        mappings = plan_mappings_ds(
            docs, cache_dir=args.mappings, force=args.force_mapping_generation
        )
        spans = extract_spans_mapped(docs, mappings, config=config)
    elif args.windowed:
        spans = extract_spans_windowed(
            docs, config=config, window_spans=args.window_spans
        )
    else:
        spans = extract_spans(docs, config=config)
    if args.resume:
        sink = LineageSink(args.output, num_partitions=args.partitions)
        summary = sink.write(sink.add_partition_column(spans))
        print(summary.to_string(index=False))
    else:
        _io_write(spans, args.output)
        print(f"wrote spans to {args.output}")
    return 0


def cmd_tablemerge(argv: List[str]) -> int:
    p = argparse.ArgumentParser(prog="tablemerge")
    p.add_argument("resultsets", nargs="+", help="resultset directories")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--settings", help="settings.tablemerge.json to load")
    p.add_argument("--column-names-hints")
    p.add_argument("--column-names-hints-path")
    p.add_argument("--column-aliases")
    p.add_argument("--column-aliases-path")
    p.add_argument("--jaccard-column-alignment", action="store_true")
    p.add_argument("--agreement-method", default="simple-count",
                   choices=["simple-count", "distinct-readers", "none"])
    p.add_argument("--force-update", action="store_true")
    p.add_argument("--pretty", action="store_true")
    p.add_argument("--paper", help="regex: merge only matching doc ids")
    p.add_argument("--paper-aliases",
                   help="'alias:canonical[:page_offset]' doc aliases")
    p.add_argument("--paper-aliases-path")
    p.add_argument("--schema",
                   help="inline 'column:type' schema (required by the "
                        "--*-schema-* flags; reference __main__.py:457-465)")
    p.add_argument("--schema-path", help="file with the same schema format")
    p.add_argument("--filter-schema-columns", action="store_true")
    p.add_argument("--order-schema-columns", action="store_true")
    p.add_argument("--coerce-schema-column-types", action="store_true")
    p.add_argument("--only-semantic-columns", action="store_true")
    p.add_argument("--remove-header-rows", action="store_true")
    p.add_argument("--transform-tablesfile",
                   choices=["explode", "safe-compact", "unsafe-compact"])
    args = p.parse_args(argv)
    _ensure_ray()
    from .pipelines.tablemerge import run_tablemerge
    from .state.settings import MergeSettings

    # --settings loads a saved file; otherwise the flags map onto the
    # settings fields by name (the *_path flags read their file's text)
    if args.settings:
        settings = MergeSettings.from_dict(json.load(open(args.settings)))
    else:
        settings = MergeSettings.from_args(args)
    summary = run_tablemerge(
        args.resultsets,
        args.output,
        settings,
        force_update=args.force_update,
        paper=args.paper,
    )
    print(summary.to_string(index=False))
    return 0


def cmd_tablestats(argv: List[str]) -> int:
    p = argparse.ArgumentParser(prog="tablestats")
    p.add_argument("resultsets", nargs="+")
    p.add_argument("-o", "--output", help="write JSON here (default stdout)")
    p.add_argument("--sort", choices=["none", "asc", "desc"], default="asc",
                   help="order the per-paper list by table count (O3)")
    p.add_argument("--top", type=int, default=1000,
                   help="keep only the top N papers in papers_by_tables "
                        "(default 1000 — the list is driver-sized; 0 = "
                        "unbounded, corpus-scale callers beware)")
    p.add_argument("--format", choices=["json", "text"], default="json",
                   help="text = the reference's human report layout")
    args = p.parse_args(argv)
    _ensure_ray()
    from .sources.tablesfile_json import read_resultsets
    from .stages.stats import (
        empty_papers,
        fold_column_probes,
        format_columns_section,
        format_global_section,
        format_paper_section,
        global_stats,
        paper_stats_dataset,
    )

    # ONE pass over the cells corpus: per-paper stats + the G7 column
    # probe come out of the same group kernel; only the tiny per-paper
    # table (O(papers) rows) is materialized, never the cells
    cells = read_resultsets(args.resultsets)
    per_paper = paper_stats_dataset(cells, with_column_probe=True).materialize()
    stats = global_stats(per_paper)
    stats["empty_papers"] = empty_papers(per_paper).count()
    stats["columns"] = fold_column_probes(per_paper)
    if args.sort == "none":
        ordered = per_paper
    else:
        ordered = per_paper.sort("tables", descending=(args.sort == "desc"))
    ordered.context.execution_options.preserve_order = True
    if args.top:
        ordered = ordered.limit(args.top)  # distributed top-k, bounded driver list
    stats["papers_by_tables"] = [
        {"doc_id": r["doc_id"], "source_uuid": r["source_uuid"], "tables": r["tables"]}
        for batch in ordered.select_columns(
            ["doc_id", "source_uuid", "tables"]
        ).iter_batches(batch_format="pyarrow")
        for r in batch.to_pylist()
    ]

    def sink(write):
        if args.format == "text":
            # stream per-paper sections batch by batch — the report is
            # O(papers) lines and never assembled on the driver at once
            write("\n".join(format_global_section(stats)))
            by_doc = per_paper.sort("doc_id")
            by_doc.context.execution_options.preserve_order = True
            for batch in by_doc.iter_batches(batch_format="pyarrow"):
                for r in batch.to_pylist():
                    write("\n" + "\n".join(
                        format_paper_section(f"{r['doc_id']}.tables.json", r)
                    ))
            cols_part = format_columns_section(stats.get("columns"))
            if cols_part:
                write("\n" + "\n".join(cols_part))
        else:
            write(json.dumps(stats, indent=2, default=str))

    if args.output:
        with open(args.output, "w") as f:
            sink(f.write)
    else:
        import sys as _sys

        sink(_sys.stdout.write)
        print()
    return 0


def cmd_table2csv(argv: List[str]) -> int:
    p = argparse.ArgumentParser(prog="table2csv")
    p.add_argument("resultset", help="resultset directory")
    p.add_argument("-o", "--output-directory", default=".")
    args = p.parse_args(argv)
    _ensure_ray()
    from .pipelines.export import write_csvs
    from .sources.tablesfile_json import read_resultsets

    paths = write_csvs(read_resultsets([args.resultset]), args.output_directory)
    for path in paths:
        print(path)
    return 0


def cmd_table2html(argv: List[str]) -> int:
    p = argparse.ArgumentParser(prog="table2html")
    p.add_argument("resultset")
    p.add_argument("-o", "--output", required=True, help="output .html file")
    args = p.parse_args(argv)
    _ensure_ray()
    from .pipelines.viewer import write_viewer_html
    from .sources.tablesfile_json import load_metadata, read_resultsets

    metadata = load_metadata(args.resultset) or {}
    settings_path = os.path.join(args.resultset, "settings.tablemerge.json")
    settings = (
        json.load(open(settings_path, encoding="utf-8"))
        if os.path.exists(settings_path)
        else None
    )
    uuid_to_reader = {}
    for s in metadata.get("sources") or []:
        if isinstance(s, dict) and s.get("uuid") and s.get("reader"):
            uuid_to_reader[s["uuid"]] = s["reader"]
    # streaming sink: per-doc sections append to the file as they arrive;
    # the driver never holds the whole rendered page
    write_viewer_html(
        read_resultsets([args.resultset]),
        args.output,
        title=os.path.basename(os.path.normpath(args.resultset)),
        metadata=metadata,
        settings=settings,
        uuid_to_reader=uuid_to_reader,
    )
    print(args.output)
    return 0


def cmd_tablevalidate(argv: List[str]) -> int:
    """No Ray needed — validation is per-file (tablevalidate/__main__.py)."""
    p = argparse.ArgumentParser(prog="tablevalidate")
    p.add_argument("paths", nargs="+")
    p.add_argument("--all", action="store_true", help="report every file")
    p.add_argument("--quiet", action="store_true")
    args = p.parse_args(argv)
    from .sources.tablesfile_json import validate_tablesfile_obj

    rc = 0
    for raw in args.paths:
        for path in glob.glob(raw) or [raw]:
            base = os.path.basename(path)
            if base in ("tables.metadata.json", "settings.tablemerge.json"):
                continue
            try:
                obj = json.load(open(path, encoding="utf-8"))
                errors = validate_tablesfile_obj(obj)
            except FileNotFoundError:
                errors = ["NOT FOUND"]
            except json.JSONDecodeError as e:
                errors = [f"MALFORMED JSON: {e}"]
            status = "VALID" if not errors else "INVALID"
            if errors:
                rc = 1
            if not args.quiet and (args.all or errors):
                print(f"{path}: {status}")
                for e in errors:
                    print(f"  {e}")
            if errors and not args.all and not args.quiet:
                return 1
    return rc


def cmd_filenorm(argv: List[str]) -> int:
    p = argparse.ArgumentParser(prog="filenorm")
    p.add_argument("directory")
    p.add_argument("--apply", action="store_true",
                   help="perform deletes/renames (default: print the plan)")
    args = p.parse_args(argv)
    _ensure_ray()
    from .stages.filenorm import hash_files_dataset, plan_actions

    paths = sorted(
        os.path.join(args.directory, f)
        for f in os.listdir(args.directory)
        if os.path.isfile(os.path.join(args.directory, f))
    )
    hashed = hash_files_dataset(paths).to_pandas()
    by_path: dict = {}
    for hp, md5 in zip(hashed["path"], hashed["content_md5"]):
        by_path[hp] = md5
        by_path[os.path.basename(hp)] = md5
    ordered = [
        (path, by_path.get(path) or by_path[os.path.basename(path)])
        for path in paths
    ]
    duplicates, renames, _ = plan_actions(ordered)
    for md5, drops in sorted(duplicates.items()):
        for d in drops:
            print(f"drop {d}  (duplicate of md5 {md5[:8]})")
            if args.apply:
                os.remove(d)
    for path, new_base in sorted(renames.items()):
        print(f"rename {path} -> {new_base}")
        if args.apply:
            os.replace(path, os.path.join(os.path.dirname(path), new_base))
    return 0


def cmd_curate(argv: List[str]) -> int:
    """Training-data curation funnel: documents parquet → filtered,
    deduped (optionally redacted) partitioned parquet with lineage —
    resumable by re-running the same command."""
    p = argparse.ArgumentParser(prog="curate")
    p.add_argument("input", help="parquet file/dir with (doc_id, text) docs")
    p.add_argument("-o", "--output", required=True, help="output dir (lineage-partitioned)")
    p.add_argument("--langs", help="comma-separated language allowlist (e.g. en,es)")
    p.add_argument("--min-quality", type=float, default=0.0)
    p.add_argument("--no-dedup", action="store_true")
    p.add_argument("--redact", action="store_true", help="scrub emails/phones/long digits")
    p.add_argument("--partitions", type=int, default=32)
    args = p.parse_args(argv)
    _ensure_ray()

    from .pipelines.curate import curate_to_dir

    summary = curate_to_dir(
        args.input,
        args.output,
        langs=args.langs.split(",") if args.langs else None,
        min_quality=args.min_quality,
        dedup=not args.no_dedup,
        redact=args.redact,
        num_partitions=args.partitions,
    )
    print(summary.to_string(index=False))
    return 0


COMMANDS = {
    "extract": cmd_extract,
    "curate": cmd_curate,
    "tablemerge": cmd_tablemerge,
    "tablestats": cmd_tablestats,
    "table2csv": cmd_table2csv,
    "table2html": cmd_table2html,
    "tablevalidate": cmd_tablevalidate,
    "filenorm": cmd_filenorm,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help") or argv[0] not in COMMANDS:
        print("usage: python -m paper2table_ray.cli <command> ...")
        print("commands:", ", ".join(COMMANDS))
        return 0 if argv and argv[0] in ("-h", "--help") else 2
    return COMMANDS[argv[0]](argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
