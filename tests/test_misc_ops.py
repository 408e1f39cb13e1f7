"""Scientific-name canonicalization, filenorm planning, multimodal
plumbing."""

import pyarrow as pa
import pytest

from paper2table_ray.functions.scientific import (
    canonicalize_multi,
    canonicalize_scientific_name,
)
from paper2table_ray.stages.filenorm import plan_actions
from paper2table_ray.stages.multimodal import (
    FakeImageBackend,
    ImageFeatureExtractor,
    RealImageBackend,
    synth_media_batch,
)


class TestScientificName:
    @pytest.mark.parametrize(
        "raw,canon",
        [
            ("Rosa canina L.", "Rosa canina"),
            ("Rosa canina L., 1753", "Rosa canina"),
            ("Ammi majus", "Ammi majus"),
            ("Mentha spicata var. crispa Benth.", "Mentha spicata var. crispa"),
            ("Pinus sylvestris subsp. hamata (Steven) Fomin", "Pinus sylvestris subsp. hamata"),
            ("× Rosa hybrida", "Rosa hybrida"),
            ("not a name", "not a name"),
            ("UPPERCASE THING", "UPPERCASE THING"),
            ("", ""),
        ],
    )
    def test_canonical(self, raw, canon):
        assert canonicalize_scientific_name(raw) == canon

    def test_multi(self):
        assert (
            canonicalize_multi("Rosa canina L. / Ammi majus L.")
            == "Rosa canina, Ammi majus"
        )


class TestFilenorm:
    def test_dedup_keeps_normalized_or_shortest(self):
        files = [
            ("dir/My File.pdf", "h1"),
            ("dir/my_file.pdf", "h1"),  # normalized name of "My File" → kept
            ("dir/unrelated.pdf", "h2"),
        ]
        dups, renames, keepers = plan_actions(files)
        assert keepers["h1"] == "dir/my_file.pdf"
        assert dups["h1"] == ["dir/My File.pdf"]

    def test_shortest_wins_otherwise(self):
        files = [("a/longer_name.pdf", "h"), ("a/x.pdf", "h")]
        _, _, keepers = plan_actions(files)
        assert keepers["h"] == "a/x.pdf"

    def test_renames_collision_avoidant(self):
        files = [("d/A B.pdf", "h1"), ("d/a_b.PDF", "h2")]
        dups, renames, keepers = plan_actions(files)
        assert renames["d/A B.pdf"] == "a_b.pdf"
        assert renames["d/a_b.PDF"] == "a_b_1.pdf"


@pytest.mark.usefixtures("ray_session")
class TestFilenormDistributed:
    # adversarial: duplicate hashes (keep rule all three branches),
    # rename collisions incl. the suffix-family overlap (x, x_1) and
    # unicode/case normalization
    FILES = [
        ("dir/My File.pdf", "h1"),
        ("dir/my_file.pdf", "h1"),        # normalized match → kept
        ("a/longer_name.pdf", "h2"),
        ("a/x.pdf", "h2"),                # shortest wins
        ("d/A B.pdf", "h3"),
        ("d/a_b.PDF", "h4"),              # collides after normalize → _1
        ("e/a_b_1.pdf", "h5"),            # family overlap with d/a_b.PDF chain
        ("u/Ünïcode Näme.txt", "h6"),
        ("z/equal1.pdf", "h7"),
        ("z/equal2.pdf", "h7"),           # equal length → first kept
    ]

    def _expected(self):
        from paper2table_ray.stages.filenorm import plan_actions

        dups, renames, _ = plan_actions(self.FILES)
        drops = {(p, md5) for md5, ps in dups.items() for p in ps}
        rens = set(renames.items())
        return drops, rens

    def test_distributed_matches_sequential_fold(self):
        import pyarrow as pa

        import ray.data
        from paper2table_ray.stages.filenorm import plan_actions_distributed

        ds = ray.data.from_arrow(
            pa.table(
                {
                    "pos": pa.array(range(len(self.FILES)), pa.int64()),
                    "path": pa.array([p for p, _ in self.FILES], pa.string()),
                    "content_md5": pa.array([h for _, h in self.FILES], pa.string()),
                }
            )
        )
        out = plan_actions_distributed(ds, num_shards=4).to_pandas()
        got_drops = {
            (r.path, r.target) for r in out.itertuples() if r.action == "drop"
        }
        got_rens = {
            (r.path, r.target) for r in out.itertuples() if r.action == "rename"
        }
        exp_drops, exp_rens = self._expected()
        assert got_drops == exp_drops
        assert got_rens == exp_rens


class TestMultimodal:
    def test_fake_backend_deterministic(self):
        b = FakeImageBackend()
        img1 = b.decode(b"payload")
        img2 = b.decode(b"payload")
        assert (img1 == img2).all()
        assert img1.ndim == 3 and img1.shape[2] == 3

    def test_real_backend_is_stub(self):
        with pytest.raises(NotImplementedError):
            RealImageBackend().decode(b"x")

    def test_feature_extractor_batch(self):
        spans = pa.table(
            {
                "kind": ["media", "text", "media"],
                "media_ref": ["img://aa", "", "img://bb"],
            }
        )
        import pyarrow.compute as pc

        media = synth_media_batch(
            spans.filter(pc.equal(spans.column("kind"), pa.scalar("media")))
        )
        assert media.num_rows == 2
        out = ImageFeatureExtractor(target_size=16)(media)
        assert out.column_names == ["media_ref", "width", "height", "feature"]
        feats = out.column("feature").to_pylist()
        assert len(feats[0]) == 24  # 3 channels × 8 bins
        assert abs(sum(feats[0]) - 1.0) < 1e-5


@pytest.mark.usefixtures("ray_session")
class TestGroupbyApply:
    def test_multi_key_matches_pandas(self):
        import numpy as np
        import pandas as pd
        import ray.data

        from paper2table_ray.stages.shuffle import groupby_apply

        rng = np.random.RandomState(3)
        df = pd.DataFrame(
            {
                "k1": rng.choice(["a", "b", "c"], 200),
                "k2": rng.randint(0, 5, 200),
                "v": rng.standard_normal(200),
            }
        )
        ds = ray.data.from_pandas(df)

        def agg(g: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                [{"k1": g["k1"].iloc[0], "k2": g["k2"].iloc[0],
                  "n": len(g), "s": g["v"].sum().round(6)}]
            )

        got = (
            groupby_apply(ds, ["k1", "k2"], agg, batch_format="pandas")
            .to_pandas()
            .sort_values(["k1", "k2"])
            .reset_index(drop=True)
        )
        exp = (
            df.groupby(["k1", "k2"], as_index=False)
            .agg(n=("v", "size"), s=("v", "sum"))
        )
        exp["s"] = exp["s"].round(6)
        exp = exp.sort_values(["k1", "k2"]).reset_index(drop=True)
        got["n"] = got["n"].astype(exp["n"].dtype)
        pd.testing.assert_frame_equal(got, exp)

    def test_each_fn_call_sees_one_full_group(self):
        import pandas as pd
        import ray.data

        from paper2table_ray.stages.shuffle import groupby_apply

        rows = [{"k": f"g{i % 7}", "v": i} for i in range(70)]
        ds = ray.data.from_items(rows)

        def check(g: pd.DataFrame) -> pd.DataFrame:
            assert g["k"].nunique() == 1
            assert len(g) == 10  # every group is complete
            return pd.DataFrame([{"k": g["k"].iloc[0], "n": len(g)}])

        out = groupby_apply(ds, "k", check, batch_format="pandas").to_pandas()
        assert len(out) == 7 and (out["n"] == 10).all()
