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

    def test_size_buckets(self):
        from paper2table_ray.pipelines.extract import (
            add_size_buckets,
            synth_docs_dataset,
        )

        ds = add_size_buckets(synth_docs_dataset(SF))
        buckets = ds.to_pandas()["size_bucket"]
        assert buckets.nunique() > 2  # skewed sizes exist


@pytest.mark.usefixtures("ray_session")
class TestFusedPipeline:
    def test_fused_equals_flagship(self):
        from paper2table_ray.pipelines.extract import (
            extract_pipeline,
            extract_pipeline_fused,
        )

        key = ["doc_id", "span_idx"]
        plain = extract_pipeline(SF).to_pandas().sort_values(key).reset_index(drop=True)
        fused = (
            extract_pipeline_fused(SF, repeat=1)
            .to_pandas()
            .sort_values(key)
            .reset_index(drop=True)
        )
        assert fused.equals(plain)

    def test_repeat_replicas_are_disjoint_and_complete(self):
        from paper2table_ray.pipelines.extract import extract_pipeline_fused

        out = extract_pipeline_fused(SF, repeat=2).to_pandas()
        base = out[~out["doc_id"].str.contains("~r")]
        rep1 = out[out["doc_id"].str.endswith("~r1")]
        assert len(base) > 0 and len(rep1) > 0
        assert len(base) + len(rep1) == len(out)
        # replicas have distinct ids and (different seed) different content
        assert set(base["doc_id"]).isdisjoint(set(rep1["doc_id"]))
