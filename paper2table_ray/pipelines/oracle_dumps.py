"""Deterministic oracle-side input dumps (pure Python — NO Ray).

Some operators consume inputs that exist only as deterministic Python
synthesis (the interleaved corpus's generation-plan expected spans, the
multi-run resultsets corpus) — not as one of the driver's pre-registered
parquet views. Their DuckDB oracles therefore read a *dump*: a parquet
file of the operator's INPUT (or of the generation plan's expected
output), built here as a pure function of ``documents.parquet`` + seed,
bit-identical on every call, written atomically, and cached by path.

This keeps the oracle genuinely independent of the engine under test:

- ``expected_spans``: the generation plan's expected (kind, text,
  media_ref) sequence from :func:`sources.synth.expected_spans_batch` —
  derived from the PLAN, never by running the extractor. Oracling the
  flagship against it is exactly the span-sequence-equality invariant
  (BASELINE.json north_rule), now witnessed by the driver instead of
  only by pytest goldens.
- ``cells_flat``: the synthetic resultsets corpus (sources/resultsets.py)
  with deterministic md5 stats metadata stamped (see
  :func:`stamp_stats_metadata`), flattened to one parquet row per CELL
  ENTRY so SQL can re-derive the tablestats G4/G5 counts from scratch
  (/root/reference/src/tablestats/stats.py:138-193 semantics).

Everything here must stay importable and runnable WITHOUT ``ray.init``:
``oracle_sql()`` triggers the dumps at call time, before any pipeline
runs, so query/oracle execution order never matters.
"""

from __future__ import annotations

import hashlib
import os
from typing import List

import pyarrow as pa
import pyarrow.parquet as pq

from ..state.lineage import commit_file
from ..state.scratch import scratch_root

# bump when synthesis/stamping changes so stale cached dumps regenerate
DUMP_VERSION = "v2"


def _dump_root() -> str:
    # driver-local cache (the oracle SQL runs on the driver's DuckDB);
    # routed through state/scratch.py like every other scratch path
    return os.path.join(scratch_root(), "p2t_oracle_dumps")

CELLS_FLAT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("source_uuid", pa.string()),
        ("table_idx", pa.int64()),
        ("fragment_idx", pa.int64()),
        ("page", pa.int64()),
        ("pos", pa.int64()),
        ("row_idx", pa.int64()),  # nullable
        ("agreement_level", pa.int64()),  # nullable
        ("col", pa.string()),  # NULL sentinel row for a zero-cell row
        ("value", pa.string()),  # raw cell value (one row per list entry)
        ("value_norm", pa.string()),  # normalize_column_value(value)
        ("entry_idx", pa.int64()),
    ]
)


def _dump_path(sf_dir: str, name: str) -> str:
    key = hashlib.md5(
        f"{os.path.realpath(sf_dir)}:{DUMP_VERSION}".encode()
    ).hexdigest()[:12]
    os.makedirs(os.path.join(_dump_root(), key), exist_ok=True)
    return os.path.join(_dump_root(), key, f"{name}.parquet")


def _read_documents(sf_dir: str, columns) -> pa.Table:
    return pq.read_table(f"{sf_dir}/documents.parquet", columns=columns)


def ensure_expected_spans_dump(sf_dir: str) -> str:
    """Generation-plan expected spans (SPANS_OUT_SCHEMA) for the whole
    sf corpus, derived WITHOUT running the extractor."""
    path = _dump_path(sf_dir, "expected_spans")
    if os.path.exists(path):
        return path
    from ..sources.synth import expected_spans_batch

    docs = _read_documents(sf_dir, ["doc_id", "text"])
    commit_file(path, lambda f: pq.write_table(expected_spans_batch(docs), f))
    return path


def ensure_expected_mapped_spans_dump(sf_dir: str) -> str:
    """Generation-plan expected MAPPED spans (SPANS_OUT_SCHEMA): the
    deterministic planner's mapping applied by an independent
    re-derivation (sources/synth.expected_mapped_spans_batch), never by
    running the extractor's mapped path."""
    path = _dump_path(sf_dir, "expected_mapped_spans")
    if os.path.exists(path):
        return path
    from ..sources.synth import expected_mapped_spans_batch

    docs = _read_documents(sf_dir, ["doc_id", "text"])
    commit_file(path, lambda f: pq.write_table(expected_mapped_spans_batch(docs), f))
    return path


def ensure_simhash_dump(sf_dir: str) -> str:
    """Per-doc 64-bit SimHash (pure Python, no Ray): the oracle side of
    ``simhash_pairs`` does the pairwise Hamming self-join in SQL (at
    sf0.01 that is 500 docs → trivial), so the engine's pigeonhole
    chunking / bucket walk / single-emit logic is verified against a
    brute-force join over the same signatures."""
    path = _dump_path(sf_dir, "simhash64")
    if os.path.exists(path):
        return path
    from ..stages.dedup import _batch_token_hashes, _simhash_from_token_hashes

    docs = _read_documents(sf_dir, ["doc_id", "text"])
    tok = _batch_token_hashes(docs.column("text").to_pylist())
    vals = [_simhash_from_token_hashes(h) for h in tok]
    table = pa.table(
        {
            "doc_id": docs.column("doc_id"),
            "simhash": pa.array(vals, type=pa.uint64()),
        }
    )
    commit_file(path, lambda f: pq.write_table(table, f))
    return path


def stamp_stats_metadata(rec: dict) -> dict:
    """Deterministic md5 stats metadata for the tablestats oracle: the
    synthetic resultsets carry ``row_idx=None`` / ``agreement_level=None``
    (plain extraction runs), which would leave the G4 unique-row /
    agreement / shared-value counters trivially zero. Stamp both from the
    record's coordinates so every counter is exercised:

    - ``row_idx = pos % 3`` → rows across fragments of one table fall
      into alignment groups of ≥ 2 (the shared-values machinery);
    - ``agreement_level = 1 + md5(coords) % 3`` → a 2/3 mix of >1 levels.

    Pure per-record function — identical when applied inside a Ray batch
    UDF or in the oracle dump builder."""
    coords = (
        f"{rec['doc_id']}:{rec['source_uuid']}:{rec['table_idx']}:"
        f"{rec['fragment_idx']}:{rec['pos']}"
    )
    h = int.from_bytes(hashlib.md5(coords.encode()).digest()[:4], "little")
    out = dict(rec)
    out["row_idx"] = rec["pos"] % 3
    out["agreement_level"] = 1 + h % 3
    return out


def _synth_cells_records(sf_dir: str, runs: int = 3) -> List[dict]:
    """Pure-Python replica of pipelines.queries._synth_cells: the same
    batch synthesis function over the same documents table, decoded back
    to records (no Ray)."""
    from ..schema import table_to_row_records
    from ..sources.resultsets import synth_resultsets_batch

    docs = _read_documents(sf_dir, ["doc_id"])
    cells = synth_resultsets_batch(docs, runs=runs)
    return table_to_row_records(cells)


def ensure_merged_cells_dump(sf_dir: str) -> str:
    """Sequential per-doc merge of the synthetic resultsets (pure Python,
    no Ray, engine-owned ``merge_doc_records``) flattened to the exact
    row shape ``q_merge_cells`` emits. The driver's hash compare then
    witnesses the DISTRIBUTED path — the coarse-shard shuffle, shard
    co-location and the fused whole-shard kernel — against this per-doc
    ground truth; the per-doc kernel itself is independently witnessed
    against the reference's own code
    (tests/test_reference_differential_merge.py)."""
    path = _dump_path(sf_dir, "merged_cells_flat")
    if os.path.exists(path):
        return path
    from .merge import MergeConfig, merge_doc_records

    by_doc: dict = {}
    for rec in _synth_cells_records(sf_dir):
        by_doc.setdefault(rec["doc_id"], []).append(rec)
    cfg = MergeConfig(column_agreement=True)
    cols: dict = {
        name: []
        for name in (
            "doc_id",
            "table_idx",
            "fragment_idx",
            "page",
            "row_idx",
            "agreement_level",
            "sources",
            "cells",
        )
    }
    for doc in sorted(by_doc):
        for r in merge_doc_records(by_doc[doc], cfg):
            cols["doc_id"].append(r["doc_id"])
            cols["table_idx"].append(r["table_idx"])
            cols["fragment_idx"].append(r["fragment_idx"])
            cols["page"].append(r["page"])
            cols["row_idx"].append(r["row_idx"])
            cols["agreement_level"].append(r["agreement_level"] or 0)
            cols["sources"].append(",".join(r["sources"] or ()))
            cols["cells"].append(repr(sorted(r["cells"].items())))
    table = pa.table(
        {
            "doc_id": pa.array(cols["doc_id"], pa.string()),
            "table_idx": pa.array(cols["table_idx"], pa.int64()),
            "fragment_idx": pa.array(cols["fragment_idx"], pa.int64()),
            "page": pa.array(cols["page"], pa.int64()),
            "row_idx": pa.array(cols["row_idx"], pa.int64()),
            "agreement_level": pa.array(cols["agreement_level"], pa.int64()),
            "sources": pa.array(cols["sources"], pa.string()),
            "cells": pa.array(cols["cells"], pa.string()),
        }
    )
    commit_file(path, lambda f: pq.write_table(table, f))
    return path


def ensure_resume_lineage_dump(sf_dir: str) -> str:
    """Pure-Python prediction of ``q_resume_lineage``'s run-twice summary
    (no Ray, no filesystem): partition ids are ``blake2(doc_id) % P``
    (state/lineage.partition_of), extract-stage counts come from the
    generation plan's expected spans, merge-stage counts from the
    sequential per-doc merge of the same 60-doc cells slice. The query
    runs the REAL lineage machinery twice; a hash match therefore
    witnesses partition placement, per-partition counts AND that the
    second run skipped every completed partition."""
    path = _dump_path(sf_dir, "resume_lineage")
    if os.path.exists(path):
        return path
    from ..sources.resultsets import synth_resultsets_batch
    from ..sources.synth import expected_spans_batch
    from ..state.lineage import partition_of
    from ..schema import table_to_row_records
    from .merge import MergeConfig, merge_doc_records

    rows: List[dict] = []

    # -- extract stage (P=16, whole corpus) --
    docs = _read_documents(sf_dir, ["doc_id", "text"])
    spans = expected_spans_batch(docs)
    per_part: dict = {}
    for doc_id in spans.column("doc_id").to_pylist():
        pid = partition_of(doc_id, 16)
        d = per_part.setdefault(pid, {"docs": set(), "rows": 0})
        d["docs"].add(doc_id)
        d["rows"] += 1
    for pid in sorted(per_part):
        rows.append(
            {
                "stage": "extract",
                "partition_id": pid,
                "doc_count": len(per_part[pid]["docs"]),
                "row_count": per_part[pid]["rows"],
                "status": "ok",
                "resume_status": "skipped",
            }
        )

    # -- merge stage (P=8, first 60 docs) --
    ids = _read_documents(sf_dir, ["doc_id"]).slice(0, 60)
    cells = synth_resultsets_batch(ids)
    by_part: dict = {}
    for rec in table_to_row_records(cells):
        by_part.setdefault(partition_of(rec["doc_id"], 8), []).append(rec)
    cfg = MergeConfig()
    for pid in sorted(by_part):
        by_doc: dict = {}
        for rec in by_part[pid]:
            by_doc.setdefault(rec["doc_id"], []).append(rec)
        merged_docs: set = set()
        merged_rows = 0
        for doc in sorted(by_doc):
            out = merge_doc_records(by_doc[doc], cfg)
            merged_rows += len(out)
            merged_docs.update(r["doc_id"] for r in out)
        rows.append(
            {
                "stage": "merge",
                "partition_id": pid,
                "doc_count": len(merged_docs),
                "row_count": merged_rows,
                "status": "ok",
                "resume_status": "skipped",
            }
        )

    table = pa.table(
        {
            "stage": pa.array([r["stage"] for r in rows], pa.string()),
            "partition_id": pa.array(
                [r["partition_id"] for r in rows], pa.int64()
            ),
            "doc_count": pa.array([r["doc_count"] for r in rows], pa.int64()),
            "row_count": pa.array([r["row_count"] for r in rows], pa.int64()),
            "status": pa.array([r["status"] for r in rows], pa.string()),
            "resume_status": pa.array(
                [r["resume_status"] for r in rows], pa.string()
            ),
        }
    )
    commit_file(path, lambda f: pq.write_table(table, f))
    return path


def ensure_cells_flat_dump(sf_dir: str) -> str:
    """Stamped synthetic-resultsets cells, one row per cell entry."""
    path = _dump_path(sf_dir, "cells_flat")
    if os.path.exists(path):
        return path
    from ..functions.text import normalize_column_value

    cols: dict = {name: [] for name in CELLS_FLAT_SCHEMA.names}

    def emit(rec, col, value, entry_idx):
        cols["doc_id"].append(rec["doc_id"])
        cols["source_uuid"].append(rec["source_uuid"])
        cols["table_idx"].append(rec["table_idx"])
        cols["fragment_idx"].append(rec["fragment_idx"])
        cols["page"].append(rec["page"])
        cols["pos"].append(rec["pos"])
        cols["row_idx"].append(rec["row_idx"])
        cols["agreement_level"].append(rec["agreement_level"])
        cols["col"].append(col)
        cols["value"].append(value)
        cols["value_norm"].append(
            None if value is None else normalize_column_value(value)
        )
        cols["entry_idx"].append(entry_idx)

    for rec in _synth_cells_records(sf_dir):
        rec = stamp_stats_metadata(rec)
        if not rec["cells"]:
            emit(rec, None, None, 0)  # zero-cell row sentinel
            continue
        for col, value in rec["cells"].items():
            if value is None or isinstance(value, str):
                emit(rec, col, value, 0)
            else:  # list of ValueWithAgreement entries
                for i, entry in enumerate(value):
                    emit(rec, col, entry["value"], i)

    table = pa.Table.from_arrays(
        [pa.array(cols[n], type=CELLS_FLAT_SCHEMA.field(n).type) for n in CELLS_FLAT_SCHEMA.names],
        schema=CELLS_FLAT_SCHEMA,
    )
    commit_file(path, lambda f: pq.write_table(table, f))
    return path


def ensure_oracle_dumps(sf_dir: str) -> dict:
    """All dumps for one sf dir; called from ``oracle_sql()`` (driver
    correctness runs at sf0.01) and from the query functions (so any
    execution order works)."""
    return {
        "expected_spans": ensure_expected_spans_dump(sf_dir),
        "expected_mapped_spans": ensure_expected_mapped_spans_dump(sf_dir),
        "simhash64": ensure_simhash_dump(sf_dir),
        "merged_cells_flat": ensure_merged_cells_dump(sf_dir),
        "resume_lineage": ensure_resume_lineage_dump(sf_dir),
        "cells_flat": ensure_cells_flat_dump(sf_dir),
    }
