import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract: tests own
    their session; library code never calls ray.init)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def force_shard_plan(monkeypatch):
    """Call the returned function to send every later ``hash_join`` (and
    so mapped extraction and pair verification) down the shard plan: both
    broadcast limits of ``stages/joins.py`` become 0 for the test."""
    import paper2table_ray.stages.joins as joins

    def force():
        monkeypatch.setattr(joins, "BROADCAST_ROW_LIMIT", 0)
        monkeypatch.setattr(joins, "BROADCAST_BYTE_LIMIT", 0)

    return force


@pytest.fixture
def synth_resultset_dirs(tmp_path):
    """Factory: write the synthesized multi-run resultsets of
    ``sources/resultsets.py`` as ``<tmp>/runs/<run uuid>/<doc_id>.tables.json``
    plus each run's ``tables.metadata.json``; returns the run dirs, sorted."""
    import json

    import pyarrow as pa

    from paper2table_ray.schema import records_to_tablesfiles, table_to_row_records
    from paper2table_ray.sources.resultsets import RUN_READERS, synth_resultsets_batch
    from paper2table_ray.sources.tablesfile_json import tablesfile_to_json_obj

    def make(n_docs: int = 40, seed: int = 7):
        cells = synth_resultsets_batch(pa.table({"doc_id": list(range(n_docs))}), seed)
        by_doc = {}
        for rec in table_to_row_records(cells):
            by_doc.setdefault(rec["doc_id"], []).append(rec)
        root = tmp_path / "runs"
        for uuid, reader in RUN_READERS.items():
            (root / uuid).mkdir(parents=True)
            (root / uuid / "tables.metadata.json").write_text(
                json.dumps({"uuid": uuid, "reader": reader})
            )
        for doc_id, records in by_doc.items():
            for uuid, tf in records_to_tablesfiles(records).items():
                (root / uuid / f"{doc_id}.tables.json").write_text(
                    json.dumps(tablesfile_to_json_obj(tf))
                )
        return sorted(str(root / uuid) for uuid in RUN_READERS)

    return make


@pytest.fixture
def viewer_html_of():
    """Return ``f(cells, **page_kw)``: ``build_viewer_html`` over the trees
    that ``table_to_doc_tablesfiles`` decodes from a cells Dataset, in
    ``write_viewer_html``'s ``(doc_id, name)`` order, one paper per source
    (``"<doc> [<uuid>]"``) for multi-source docs. It is the in-memory
    page the streaming sink must match byte for byte."""
    import pyarrow as pa
    import ray

    from paper2table_ray.pipelines.viewer import build_viewer_html
    from paper2table_ray.schema import CELLS_SCHEMA, table_to_doc_tablesfiles

    def render(cells, **page_kw):
        table = pa.concat_tables(
            [CELLS_SCHEMA.empty_table()]
            + [t.select(CELLS_SCHEMA.names) for t in ray.get(cells.to_arrow_refs())]
        )
        papers = sorted(
            (
                (doc_id, doc_id if len(tfs) == 1 else f"{doc_id} [{uuid}]", tf)
                for doc_id, tfs in table_to_doc_tablesfiles(table)
                for uuid, tf in tfs.items()
            ),
            key=lambda p: p[:2],
        )
        return build_viewer_html([(name, tf) for _, name, tf in papers], **page_kw)

    return render
