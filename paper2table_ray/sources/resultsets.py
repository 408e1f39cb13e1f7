"""Synthetic multi-run resultsets (FIXTURES.md F4) for the merge pipeline.

The reference's tablemerge consumes R "resultsets" — one directory of
``*.tables.json`` per extraction run — and merges them per paper
(/root/reference/src/tablemerge/__main__.py:244-310). Our engine's merge
input is a cells Dataset (CELLS_SCHEMA) carrying ``source_uuid``; this
module synthesizes R runs of the same docs with controlled perturbations:

- run 0: the base truth (semantic column names)
- runs ≥ 1, seeded per (doc, run): whitespace/case noise (normalization),
  numeric column names (Jaccard alignment target), dropped/extra rows
  (cursor-merge skips), disagreeing cells, title rows, empty rows,
  page offsets.

Deterministic per (seed, doc_id, run) → distributable inside map_batches.
"""

from __future__ import annotations

import random

import pyarrow as pa

from .. import rowmodel as rm
from ..schema import CellsTableBuilder
from .synth import FAMILIES, SPECIES, STATUSES

DEFAULT_SEED = 42
RUN_UUIDS = ("run-aaaa", "run-bbbb", "run-cccc")
RUN_READERS = {"run-aaaa": "pdfplumber", "run-bbbb": "pymupdf", "run-cccc": "agent"}


def _base_tablesfile(rng: random.Random) -> dict:
    n_tables = rng.randint(1, 2)
    tables = []
    for _t in range(n_tables):
        n_fragments = rng.randint(1, 2)
        fragments = []
        page = rng.randint(1, 3)
        for _f in range(n_fragments):
            n_rows = rng.randint(2, 6)
            rows = []
            for _r in range(n_rows):
                rows.append(
                    rm.make_row(
                        {
                            "family": rng.choice(FAMILIES),
                            "scientific_name": rng.choice(SPECIES),
                            "status": rng.choice(STATUSES),
                        }
                    )
                )
            fragments.append({"page": page, "rows": rows})
            page += 1
        tables.append({"fragments": fragments})
    return {"tables": tables, "citation": "Author (2020). A study. Journal.", "uuid": None}


def _perturb(base: dict, rng: random.Random, numeric_names: bool) -> dict:
    """A noisy re-extraction of the same doc."""
    tables = []
    for table in base["tables"]:
        fragments = []
        for frag in table["fragments"]:
            rows = []
            for row in frag["rows"]:
                if rng.random() < 0.15:
                    continue  # dropped row (cursor-merge skip path)
                cells = {}
                for i, (col, val) in enumerate(row["cells"].items()):
                    name = str(i) if numeric_names else col
                    if rng.random() < 0.3:
                        val = "  " + val.upper() + " "  # normalization noise
                    if rng.random() < 0.1:
                        val = val + " xx"  # disagreeing cell
                    cells[name] = val
                rows.append(rm.make_row(cells))
            if rng.random() < 0.2:
                rows.insert(
                    0,
                    rm.make_row(
                        {("0" if numeric_names else "family"): "Table 1. Species"}
                    ),
                )
            if rng.random() < 0.2 and rows:
                cols = list(rows[0]["cells"])
                rows.append(rm.make_row({c: "" for c in cols}))
            fragments.append({"page": frag["page"], "rows": rows})
        tables.append({"fragments": fragments})
    return {"tables": tables, "citation": base["citation"], "uuid": None}


def synth_resultsets_batch(
    batch: pa.Table, seed: int = DEFAULT_SEED, runs: int = 3
) -> pa.Table:
    """documents batch (doc_id:int64, ...) → CELLS_SCHEMA rows for all
    runs of each doc."""
    builder = CellsTableBuilder()
    for raw_id in batch.column("doc_id").to_pylist():
        doc_id = f"doc_{int(raw_id):06d}"
        rng = random.Random(f"{seed}:tables:{doc_id}")
        base = _base_tablesfile(rng)
        for run_idx in range(runs):
            uuid = RUN_UUIDS[run_idx % len(RUN_UUIDS)]
            run_rng = random.Random(f"{seed}:tables:{doc_id}:{run_idx}")
            if run_idx == 0:
                tf = base
            else:
                tf = _perturb(base, run_rng, numeric_names=(run_idx == 2))
            builder.append_tablesfile(doc_id, uuid, tf)
    return builder.build()


def synth_resultsets_dataset(sf_dir: str, seed: int = DEFAULT_SEED, runs: int = 3):
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return ds.map_batches(
        lambda b: synth_resultsets_batch(b, seed, runs),
        batch_format="pyarrow",
        batch_size=128,
    )
