"""``*.tables.json`` interchange: parse / validate / read / write.

Format parity with the reference (studied, not copied):

- file shape ``{"tables": [Table], "citation", "metadata"?, "uuid"?}``
  where ``Table`` is EITHER ``{"rows": [...], "page": N}`` (TableWithRows)
  or ``{"table_fragments": [{"rows", "page"}]}`` — both normalized to
  fragment lists on load (/root/reference/src/tablevalidate/schema.py:
  123-144, ``get_table_fragments``);
- Row: dynamic columns + reserved ``agreement_level_`` / ``sources_`` /
  ``row_`` metadata keys (schema.py:19-24); values are
  ``None | str | [{"value", "agreement_level"}]``;
- resultset layout: ``<out>/<uuid>/<paper>.tables.json`` +
  ``tables.metadata.json`` written once (writers/tablemerge.py:57-72);
- file writer skips papers with zero tables (writers/file.py:16-18);
- curated outputs are not overwritten unless forced
  (tablemerge/__main__.py:214-220, SURVEY.md J8).

Ray shape: reading N resultset directories lists the files on the
driver and splits the listing into at most ``default_num_shards()``
contiguous blocks; one ``map_batches`` task per block opens and parses its
own files, so the cells Dataset (tagged with ``source_uuid``) arrives at
the merge exchange as a few one-chunk blocks and file bytes never pass
through the object store. Writing is a shard-level function
(``resultset_writer``) run inside a ``doc_id`` exchange — one idempotent
file per doc, no driver-side loop over papers. ``run_tablemerge`` runs it
in the merge's own exchange; ``write_resultset`` gives it one of its own.
"""

from __future__ import annotations

import json
import os
import re
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import pandas as pd
import pyarrow as pa

import ray.data

from ..rowmodel import make_row
from ..schema import CELLS_SCHEMA, CellsTableBuilder, table_to_doc_tablesfiles

_SPECIAL = ("agreement_level_", "sources_", "row_")


class TablesFileError(ValueError):
    """Raised for structurally invalid tables.json content."""


# --- validation / parse -----------------------------------------------------


_INT_STR_RE = re.compile(r"^[+-]?\d+$")


def _intish(value) -> bool:
    """pydantic-v2-lax ``int``: int/bool, integral float, digit string."""
    if isinstance(value, (bool, int)):
        return True
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, str) and bool(_INT_STR_RE.match(value.strip()))


def _check_value(col: str, value, errors: List[str], where: str) -> None:
    # pydantic ``extra="allow"`` leaves extra cells UNVALIDATED except
    # the after-validator (schema.py:27-35), which model-validates only
    # list entries that are dicts as ValueWithAgreement: value strictly
    # str, agreement_level int-coercible. Everything else passes —
    # calibrated against the reference schema (differential tool tests).
    if isinstance(value, list):
        for entry in value:
            if isinstance(entry, dict) and not (
                isinstance(entry.get("value"), str)
                and _intish(entry.get("agreement_level"))
            ):
                errors.append(
                    f"{where}: column {col!r} dict list entries must be "
                    "{value: str, agreement_level: int}"
                )
                return


def validate_tablesfile_obj(obj) -> List[str]:
    """tablevalidate analogue (validate.py:16-29): structural errors as
    strings, [] when valid. Acceptance is calibrated case-by-case against
    the reference pydantic schema (tests/test_reference_differential_
    tools.py::test_tablevalidate_differential): ``citation`` is a
    required key, ``metadata.filename`` is a required key, curations are
    extra=forbid with str-typed fields, sources_ must be a str list,
    uuid a string — while int-coercible values (bool/float/digit-string)
    pass anywhere pydantic lax mode coerces them."""
    errors: List[str] = []
    if not isinstance(obj, dict):
        return ["top level must be an object"]
    tables = obj.get("tables")
    if not isinstance(tables, list):
        return ["'tables' must be a list"]
    if "citation" not in obj:
        errors.append("'citation' is required (may be null)")
    citation = obj.get("citation")
    if citation is not None and not isinstance(citation, (str, list)):
        errors.append("'citation' must be null, string, or vote list")
    if isinstance(citation, list):
        for entry in citation:
            if not (
                isinstance(entry, dict)
                and isinstance(entry.get("value"), str)
                and _intish(entry.get("agreement_level"))
            ):
                errors.append(
                    "'citation' vote entries must be {value: str, agreement_level: int}"
                )
                break
    uuid = obj.get("uuid")
    if uuid is not None and not isinstance(uuid, str):
        errors.append("'uuid' must be null or string")
    metadata = obj.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        errors.append("'metadata' must be null or object")
    if isinstance(metadata, dict):
        if "filename" not in metadata:
            errors.append("'metadata.filename' is required (may be null)")
        elif metadata["filename"] is not None and not isinstance(
            metadata["filename"], str
        ):
            errors.append("'metadata.filename' must be null or string")
        curations = metadata.get("curations")
        if curations is not None and not isinstance(curations, list):
            errors.append("'metadata.curations' must be null or list")
        for cur in curations or [] if isinstance(curations, list) else []:
            if not isinstance(cur, dict) or not isinstance(cur.get("curator"), str):
                errors.append("curations entries require a string 'curator'")
                continue
            if set(cur) - {"curator", "description", "timestamp"}:
                errors.append("curations entries forbid extra fields")
            for opt in ("description", "timestamp"):
                if cur.get(opt) is not None and not isinstance(cur[opt], str):
                    errors.append(f"curation '{opt}' must be null or string")
    for t_idx, table in enumerate(tables):
        if not isinstance(table, dict):
            errors.append(f"tables[{t_idx}] must be an object")
            continue
        if "rows" in table:
            frags = [table]
        elif "table_fragments" in table:
            frags = table["table_fragments"]
            if not isinstance(frags, list):
                errors.append(f"tables[{t_idx}].table_fragments must be a list")
                continue
        else:
            errors.append(f"tables[{t_idx}] needs 'rows' or 'table_fragments'")
            continue
        for f_idx, frag in enumerate(frags):
            where = f"tables[{t_idx}].fragments[{f_idx}]"
            if not isinstance(frag, dict) or not _intish(frag.get("page")):
                errors.append(f"{where}: needs integer 'page'")
                continue
            rows = frag.get("rows")
            if not isinstance(rows, list):
                errors.append(f"{where}: 'rows' must be a list")
                continue
            for r_idx, row in enumerate(rows):
                if not isinstance(row, dict):
                    errors.append(f"{where}.rows[{r_idx}] must be an object")
                    continue
                rwhere = f"{where}.rows[{r_idx}]"
                if row.get("agreement_level_") is not None and not _intish(
                    row["agreement_level_"]
                ):
                    errors.append(f"{rwhere}: agreement_level_ must be int")
                if row.get("row_") is not None and not _intish(row["row_"]):
                    errors.append(f"{rwhere}: row_ must be int")
                srcs = row.get("sources_")
                if srcs is not None and (
                    not isinstance(srcs, list)
                    or not all(isinstance(s, str) for s in srcs)
                ):
                    errors.append(f"{rwhere}: sources_ must be a string list")
                for col, value in row.items():
                    if col in _SPECIAL:
                        continue
                    _check_value(col, value, errors, rwhere)
    return errors


def parse_tablesfile(obj) -> dict:
    """Validated JSON object → internal tree
    ``{"tables": [{"fragments": [{"page", "rows"}]}], "citation",
    "metadata", "uuid"}`` (both Table shapes normalized to fragments)."""
    if isinstance(obj, (str, bytes)):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as e:
            raise TablesFileError(f"malformed JSON: {e}") from e
    errors = validate_tablesfile_obj(obj)
    if errors:
        raise TablesFileError("; ".join(errors))

    tables = []
    for table in obj["tables"]:
        raw_frags = [table] if "rows" in table else table["table_fragments"]
        fragments = []
        for frag in raw_frags:
            rows = []
            for raw in frag["rows"]:
                cells = {
                    k: (str(v) if isinstance(v, (int, float)) and not isinstance(v, bool)
                        else ("True" if v is True else "False" if v is False else v))
                    for k, v in raw.items()
                    if k not in _SPECIAL
                }
                rows.append(
                    make_row(
                        cells,
                        agreement_level=raw.get("agreement_level_"),
                        sources=raw.get("sources_"),
                        row_idx=raw.get("row_"),
                    )
                )
            fragments.append({"page": frag["page"], "rows": rows})
        tables.append({"fragments": fragments})
    return {
        "tables": tables,
        "citation": obj.get("citation"),
        "metadata": obj.get("metadata"),
        "uuid": obj.get("uuid"),
    }


def tablesfile_to_json_obj(tf: dict) -> dict:
    """Internal tree → serializable JSON object. Single-fragment tables
    serialize as TableWithRows (the reader-output shape), multi-fragment
    as TableWithFragments — mirroring what the reference toolchain emits."""
    tables = []
    for table in tf["tables"]:
        frags = table["fragments"]

        def frag_obj(frag):
            rows = []
            for row in frag["rows"]:
                out = dict(row["cells"])
                if row.get("agreement_level") is not None:
                    out["agreement_level_"] = row["agreement_level"]
                if row.get("sources") is not None:
                    out["sources_"] = list(row["sources"])
                if row.get("row_idx") is not None:
                    out["row_"] = row["row_idx"]
                rows.append(out)
            return {"rows": rows, "page": frag["page"]}

        if len(frags) == 1:
            tables.append(frag_obj(frags[0]))
        else:
            tables.append({"table_fragments": [frag_obj(f) for f in frags]})
    out = {"tables": tables, "citation": tf.get("citation")}
    if tf.get("metadata") is not None:
        out["metadata"] = tf["metadata"]
    return out


# --- Ray read / write -------------------------------------------------------


def doc_id_of_path(path: str) -> str:
    return os.path.basename(path).removesuffix(".tables.json")


def read_resultsets(resultset_dirs: List[str]) -> ray.data.Dataset:
    """N resultset directories → one cells Dataset with source_uuid =
    directory basename (SURVEY.md S8 + J1 input). Metadata/settings files
    are skipped; invalid files raise (fail the task → surfaced per-file).

    The ``(path, source_uuid)`` listing is split into ``min(files,
    default_num_shards())`` contiguous blocks, and one task per block
    parses its files into one ``CellsTableBuilder`` table: each output
    block is one Arrow chunk per column."""
    from ..stages.shuffle import default_num_shards

    paths, uuids = [], []
    for d in resultset_dirs:
        uuid = os.path.basename(os.path.normpath(d))
        for name in sorted(os.listdir(d)):
            if name.endswith(".tables.json"):
                paths.append(os.path.join(d, name))
                uuids.append(uuid)
    if not paths:
        return ray.data.from_arrow(CELLS_SCHEMA.empty_table())
    listing = pa.table({"path": paths, "source_uuid": uuids})
    n = min(len(paths), default_num_shards())
    bounds = [len(paths) * i // n for i in range(n + 1)]
    blocks = [listing.slice(s, e - s) for s, e in zip(bounds, bounds[1:])]

    def parse_block(block: pa.Table) -> pa.Table:
        builder = CellsTableBuilder()
        for path, uuid in zip(
            block.column("path").to_pylist(), block.column("source_uuid").to_pylist()
        ):
            with open(path, "rb") as f:
                tf = parse_tablesfile(f.read())
            builder.append_tablesfile(doc_id_of_path(path), uuid, tf)
        return builder.build()

    return ray.data.from_arrow(blocks).map_batches(
        parse_block, batch_format="pyarrow", batch_size=None
    )


def group_tablesfiles(
    resultset_dirs: List[str],
    paper_aliases: Optional[dict] = None,
) -> dict:
    """File-level paper grouping (reference tablemerge/__main__.py:149-162):
    ``*.tables.json`` across dirs grouped under their canonical name,
    aliases (``{stem: (canonical, page_offset)}`` from
    stages/aligners.parse_paper_aliases) mapping stems and carrying per-
    source page offsets. Returns ``{canonical_name: [(dir, filename,
    offset)]}``. The distributed cells-level analogue is
    ``pipelines.tablemerge.apply_paper_aliases``."""
    import glob as _glob

    paper_aliases = paper_aliases or {}
    groups: dict = {}
    for d in resultset_dirs:
        for p in sorted(_glob.glob(os.path.join(d, "*.tables.json"))):
            actual = os.path.basename(p)
            stem = actual.removesuffix(".tables.json")
            alias = paper_aliases.get(stem)
            canonical = (alias[0] if alias else stem) + ".tables.json"
            offset = alias[1] if alias else 0
            groups.setdefault(canonical, []).append((d, actual, offset))
    return groups


def filter_groups_by_paper(groups: dict, paper_filter: str) -> dict:
    """reference tablemerge/__main__.py:165-174: regex fullmatch of the
    filter (``.tables.json`` suffix stripped from both sides) against each
    group's canonical stem."""
    import re as _re

    pattern = paper_filter.removesuffix(".tables.json")
    return {
        k: v
        for k, v in groups.items()
        if _re.fullmatch(pattern, k.removesuffix(".tables.json"))
    }


def load_metadata(resultset_dir: str) -> Optional[dict]:
    path = os.path.join(resultset_dir, "tables.metadata.json")
    if not os.path.exists(path):
        return None
    return json.load(open(path, encoding="utf-8"))


def _has_curations(path: str) -> bool:
    """J8: an existing output with curations must not be overwritten
    (tablemerge/__main__.py:64-69)."""
    if not os.path.exists(path):
        return False
    try:
        obj = json.load(open(path, encoding="utf-8"))
    except (json.JSONDecodeError, OSError):
        return False
    meta = obj.get("metadata") or {}
    return bool(meta.get("curations"))


SUMMARY_COLUMNS = ["doc_id", "status"]


def resultset_writer(
    output_dir: str,
    resultset_uuid: str,
    reader: str = "merged",
    sources: Optional[List[dict]] = None,
    force_update: bool = False,
    pretty: bool = False,
) -> Callable[[Iterable[Tuple[str, dict]]], pd.DataFrame]:
    """Create ``<out>/<uuid>/`` with its ``tables.metadata.json`` (written
    once; ``sources`` lists the merged resultsets as ``{uuid, reader}``
    dicts) and return the shard-level writer: ``(doc_id, tablesfile tree)``
    pairs in doc_id order → one ``<doc_id>.tables.json`` per doc, and a
    ``(doc_id, status)`` frame in the same order.

    Each file write is idempotent (tmp + rename). Docs without a row are
    skipped (writers/file.py:16-18); curated outputs are skipped unless
    ``force_update``."""
    target = os.path.join(output_dir, resultset_uuid)
    os.makedirs(target, exist_ok=True)
    meta_path = os.path.join(target, "tables.metadata.json")
    if not os.path.exists(meta_path):
        meta = {"reader": reader, "uuid": resultset_uuid}
        if sources:
            meta["sources"] = list(sources)
        with open(meta_path, "w", encoding="utf-8") as f:
            json.dump(meta, f, ensure_ascii=False)

    def write_doc(doc_id: str, tf: dict) -> str:
        path = os.path.join(target, f"{doc_id}.tables.json")
        if not any(any(f["rows"] for f in t["fragments"]) for t in tf["tables"]):
            return "skipped-empty"
        if not force_update and _has_curations(path):
            return "skipped-curated"
        obj = tablesfile_to_json_obj(
            {"tables": tf["tables"], "citation": tf.get("citation")}
        )
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(obj, f, ensure_ascii=False, indent=2 if pretty else None)
        os.replace(tmp, path)
        return "written"

    def write_docs(pairs: Iterable[Tuple[str, dict]]) -> pd.DataFrame:
        return pd.DataFrame(
            [(doc_id, write_doc(doc_id, tf)) for doc_id, tf in pairs],
            columns=SUMMARY_COLUMNS,
        )

    return write_docs


def write_resultset(
    cells: ray.data.Dataset,
    output_dir: str,
    resultset_uuid: str,
    reader: str = "merged",
    sources: Optional[List[dict]] = None,
    force_update: bool = False,
    pretty: bool = False,
) -> pd.DataFrame:
    """cells → ``<out>/<uuid>/<doc_id>.tables.json`` per doc + one
    ``tables.metadata.json``; returns a summary frame (doc_id, status).

    Distributed: one ``doc_id`` exchange places each doc's rows in one
    shard task, which decodes the shard once and runs
    ``resultset_writer``'s writer over its docs."""
    from ..stages.shuffle import groupby_apply_table

    write = resultset_writer(
        output_dir, resultset_uuid, reader, sources, force_update, pretty
    )

    def one_tree(by_source: Dict[str, dict]) -> dict:
        # a sink group should carry one source; if several, take them in
        # source order (the decoder's)
        tables, citation = [], None
        for tf in by_source.values():
            tables.extend(tf["tables"])
            citation = citation or tf.get("citation")
        return {"tables": tables, "citation": citation}

    def write_shard(tbl: pa.Table) -> pd.DataFrame:
        return write(
            (doc_id, one_tree(by_source))
            for doc_id, by_source in table_to_doc_tablesfiles(tbl)
        )

    # reindex: an empty corpus collects to a frame with no columns
    return (
        groupby_apply_table(cells, "doc_id", write_shard)
        .to_pandas()
        .reindex(columns=SUMMARY_COLUMNS)
    )


# --- split-pages combination helpers (S7 pure core) -------------------------


def fix_page_numbers(table_dict: dict, page_offset: int) -> dict:
    """readers/split_pages.py:15-26: add the batch's page offset to every
    fragment page (tables without ``table_fragments`` pass through)."""
    corrected = dict(table_dict)
    if "table_fragments" in corrected:
        corrected["table_fragments"] = [
            {**fragment, "page": fragment["page"] + page_offset}
            for fragment in corrected["table_fragments"]
        ]
    return corrected


def combine_page_results(path: str, page_results: list) -> dict:
    """readers/split_pages.py:50-80 (``read_tables_from_pages``): merge
    per-batch results into one tablesfile JSON object — tables
    concatenated with page offsets applied, FIRST non-null citation wins,
    filename stamped into metadata. ``page_results``: ``[(page_offset,
    result_dict)]`` where result_dict has ``tables`` and ``citation``."""
    all_tables = []
    citation = None
    for page_offset, result in page_results:
        all_tables.extend(
            fix_page_numbers(t, page_offset) for t in result.get("tables", [])
        )
        if citation is None and result.get("citation"):
            citation = result["citation"]
    return {
        "tables": all_tables,
        "citation": citation,
        "metadata": {"filename": os.path.basename(path)},
    }


def make_metadata(reader: str, model: Optional[str] = None, uuid: Optional[str] = None) -> dict:
    """TablemergeMetadata analogue (writers/tablemerge.py): reader name
    with the agent→model substitution, resultset uuid (caller-supplied —
    this repo stamps deterministic content-derived ids instead of uuid4;
    SURVEY.md §4 determinism row), ISO timestamp."""
    import datetime as _dt
    import uuid as _uuid

    effective_reader = model if reader == "agent" else reader
    return {
        "reader": effective_reader,
        "uuid": uuid or str(_uuid.uuid4()),
        "datetime": _dt.datetime.now().isoformat(),
    }
