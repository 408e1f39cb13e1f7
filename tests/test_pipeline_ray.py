"""Ray Data wiring tests: streaming extraction pipeline at sf0.001."""

import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


@pytest.mark.usefixtures("ray_session")
class TestExtractPipeline:
    def test_pipeline_matches_expected_spans(self):
        from paper2table_ray.pipelines.extract import (
            extract_pipeline,
            synth_docs_dataset,
        )
        from paper2table_ray.sources.synth import synth_corpus_tables

        spans = extract_pipeline(SF)
        got = spans.to_pandas()
        _, expected = synth_corpus_tables(f"{SF}/documents.parquet")
        exp = expected.to_pandas()

        key = ["doc_id", "span_idx"]
        got = got.sort_values(key).reset_index(drop=True)
        exp = exp.sort_values(key).reset_index(drop=True)
        assert len(got) == len(exp)
        assert got.equals(exp)

        docs = synth_docs_dataset(SF)
        assert docs.count() == 500


@pytest.mark.usefixtures("ray_session")
class TestFusedPipeline:
    def test_fused_equals_flagship(self):
        # the flagship composition is the fused path: Ray runs the synth
        # map and the extractor map as one operator, so the wide
        # interleaved docs never reach the object store
        from paper2table_ray.pipelines.extract import (
            extract_spans,
            synth_docs_dataset,
        )

        spans = extract_spans(synth_docs_dataset(SF, repeat=2)).materialize()
        assert "MapBatches(synth)->MapBatches(" in spans.stats()

    def test_repeat_replicas_are_disjoint_and_complete(self):
        from paper2table_ray.pipelines.extract import (
            extract_spans,
            synth_docs_dataset,
        )

        docs = synth_docs_dataset(SF, repeat=2).to_pandas()
        base = docs[~docs["doc_id"].str.contains("~r")]
        rep1 = docs[docs["doc_id"].str.endswith("~r1")]
        assert len(base) == len(rep1) == 500
        assert len(base) + len(rep1) == len(docs)
        # replicas have distinct ids, one per base doc, and (different
        # seed) different content
        assert set(rep1["doc_id"]) == {f"{d}~r1" for d in base["doc_id"]}
        assert set(base["doc_id"]).isdisjoint(set(rep1["doc_id"]))
        assert [str(x) for x in base.sort_values("doc_id")["spans"]] != [
            str(x) for x in rep1.sort_values("doc_id")["spans"]
        ]

        # the extracted spans carry both copies of the corpus
        out = extract_spans(synth_docs_dataset(SF, repeat=2)).to_pandas()
        span_base = out[~out["doc_id"].str.contains("~r")]
        span_rep1 = out[out["doc_id"].str.endswith("~r1")]
        assert len(span_base) > 0 and len(span_rep1) > 0
        assert len(span_base) + len(span_rep1) == len(out)
        assert set(span_base["doc_id"]).isdisjoint(set(span_rep1["doc_id"]))
