"""stages/joins.hash_join: broadcast vs shard path equivalence, inner vs
left semantics, duplicate build keys, missing-key policy, post fusion."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data

from paper2table_ray.stages.joins import hash_join


def _left_ds():
    # custkeys 0..9; 5 and 7 have no match on the build side
    return ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array(list(range(10)), pa.int64()),
                "v": pa.array([f"v{i}" for i in range(10)], pa.string()),
            }
        )
    )


def _right_tbl():
    # build side missing keys 5 and 7, out of order
    keys = [8, 0, 3, 1, 9, 2, 4, 6]
    return pa.table(
        {
            "rk": pa.array(keys, pa.int64()),
            "name": pa.array([f"n{k}" for k in keys], pa.string()),
        }
    )


def _sorted_df(ds, by):
    df = ds.to_pandas() if not isinstance(ds, pd.DataFrame) else ds
    return df.sort_values(by).reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
class TestHashJoin:
    def test_inner_drops_unmatched(self):
        out = _sorted_df(
            hash_join(_left_ds(), _right_tbl(), "k", "rk", ["name"]), "k"
        )
        assert out["k"].tolist() == [0, 1, 2, 3, 4, 6, 8, 9]
        assert out["name"].tolist() == [f"n{k}" for k in out["k"]]

    def test_left_nullfills_unmatched(self):
        out = _sorted_df(
            hash_join(_left_ds(), _right_tbl(), "k", "rk", ["name"], how="left"),
            "k",
        )
        assert out["k"].tolist() == list(range(10))
        assert out.loc[out["k"] == 5, "name"].isna().all()
        assert out.loc[out["k"] == 7, "name"].isna().all()
        assert out.loc[out["k"] == 3, "name"].iloc[0] == "n3"

    def test_shard_path_equals_broadcast_path(self):
        right_ds = ray.data.from_arrow(_right_tbl())
        bc = _sorted_df(hash_join(_left_ds(), right_ds, "k", "rk", ["name"]), "k")
        sh = _sorted_df(
            hash_join(
                _left_ds(),
                right_ds,
                "k",
                "rk",
                ["name"],
                broadcast_limit=0,
                num_shards=4,
            ),
            "k",
        )
        pd.testing.assert_frame_equal(bc, sh[bc.columns])

    def test_shard_path_takes_an_arrow_build_side(self):
        # an in-memory (pa.Table) build side over the row bound takes the
        # shard join too
        bc = _sorted_df(hash_join(_left_ds(), _right_tbl(), "k", "rk", ["name"]), "k")
        sh = _sorted_df(
            hash_join(
                _left_ds(), _right_tbl(), "k", "rk", ["name"],
                broadcast_limit=0, num_shards=4,
            ),
            "k",
        )
        pd.testing.assert_frame_equal(bc, sh[bc.columns])

    def test_shard_path_left_join(self):
        right_ds = ray.data.from_arrow(_right_tbl())
        out = _sorted_df(
            hash_join(
                _left_ds(),
                right_ds,
                "k",
                "rk",
                ["name"],
                how="left",
                broadcast_limit=0,
                num_shards=4,
            ),
            "k",
        )
        assert out["k"].tolist() == list(range(10))
        assert out.loc[out["k"] == 5, "name"].isna().all()

    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_shard_path_equal_key_names(self, how):
        # both sides keyed on "doc_id": the shard path must keep the
        # right side's key, or every match is dropped
        left = ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(10), pa.int64()),
                    "v": pa.array([f"v{i}" for i in range(10)], pa.string()),
                }
            )
        )
        right = ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([8, 0, 3, 1, 6], pa.int64()),
                    "name": pa.array(["n8", "n0", "n3", "n1", "n6"], pa.string()),
                }
            )
        )
        bc = _sorted_df(hash_join(left, right, "doc_id", "doc_id", ["name"], how=how), "doc_id")
        sh = _sorted_df(
            hash_join(
                left, right, "doc_id", "doc_id", ["name"],
                how=how, broadcast_limit=0, num_shards=4,
            ),
            "doc_id",
        )
        assert len(bc) == (5 if how == "inner" else 10)
        assert bc["name"].notna().sum() == 5
        pd.testing.assert_frame_equal(bc, sh[bc.columns])

    def test_duplicate_build_keys_multiply(self):
        right = pa.table(
            {
                "rk": pa.array([1, 1, 2], pa.int64()),
                "name": pa.array(["a", "b", "c"], pa.string()),
            }
        )
        out = _sorted_df(
            hash_join(_left_ds(), right, "k", "rk", ["name"]), ["k", "name"]
        )
        assert out["k"].tolist() == [1, 1, 2]
        assert out["name"].tolist() == ["a", "b", "c"]
        # shard path agrees
        sh = _sorted_df(
            hash_join(
                _left_ds(),
                ray.data.from_arrow(right),
                "k",
                "rk",
                ["name"],
                broadcast_limit=0,
                num_shards=4,
            ),
            ["k", "name"],
        )
        pd.testing.assert_frame_equal(out, sh[out.columns])

    def test_post_fusion_runs_in_task(self):
        def agg(batch: pa.Table) -> pa.Table:
            df = batch.to_pandas()
            g = df.groupby("name", as_index=False).agg(n=("k", "size"))
            return pa.Table.from_pandas(g, preserve_index=False)

        out = hash_join(
            _left_ds(), _right_tbl(), "k", "rk", ["name"], post=agg
        ).to_pandas()
        # partials may arrive per-batch; final reduce here
        total = out.groupby("name")["n"].sum()
        assert total.sum() == 8

    def test_matches_pandas_merge_random(self):
        rng = np.random.default_rng(7)
        lk = rng.integers(0, 50, size=500)
        rk = rng.permutation(50)[:30]
        left = pa.table({"k": pa.array(lk, pa.int64()), "x": pa.array(rng.normal(size=500))})
        right = pa.table({"rk": pa.array(rk, pa.int64()), "y": pa.array(rng.normal(size=30))})
        expect = (
            left.to_pandas()
            .merge(right.to_pandas(), left_on="k", right_on="rk")
            .drop(columns=["rk"])
            .sort_values(["k", "x"])
            .reset_index(drop=True)
        )
        got = _sorted_df(
            hash_join(ray.data.from_arrow(left), right, "k", "rk", ["y"]),
            ["k", "x"],
        )
        pd.testing.assert_frame_equal(expect, got[expect.columns])


@pytest.mark.usefixtures("ray_session")
class TestByteGate:
    def test_wide_rows_route_to_shard_join(self, monkeypatch):
        """A build side under the ROW limit but over the BYTE limit must
        take the shard join (never the per-task pandas collect of the
        duplicate-key broadcast path)."""
        import paper2table_ray.stages.joins as J

        # duplicate keys + fat payload: the broadcast dup path would
        # pandas-collect this per probe task
        keys = [0, 0, 1, 2, 3, 3]
        right = pa.table(
            {
                "rk": pa.array(keys, pa.int64()),
                "name": pa.array(["x" * 64 for _ in keys], pa.string()),
            }
        )
        monkeypatch.setattr(J, "BROADCAST_BYTE_LIMIT", 16)

        def boom(*a, **k):
            raise AssertionError("broadcast path taken for a wide build side")

        monkeypatch.setattr(J, "_broadcast_join", boom)
        out = _sorted_df(
            J.hash_join(_left_ds(), right, "k", "rk", ["name"]), ["k", "name"]
        )
        expected = _sorted_df(
            _left_ds()
            .to_pandas()
            .merge(right.to_pandas(), left_on="k", right_on="rk")
            .drop(columns=["rk"]),
            ["k", "name"],
        )
        assert out[["k", "v", "name"]].equals(expected[["k", "v", "name"]])

    def test_narrow_rows_still_broadcast(self, monkeypatch):
        import paper2table_ray.stages.joins as J

        called = {}
        orig = J._broadcast_join

        def spy(*a, **k):
            called["yes"] = True
            return orig(*a, **k)

        monkeypatch.setattr(J, "_broadcast_join", spy)
        out = _sorted_df(J.hash_join(_left_ds(), _right_tbl(), "k", "rk", ["name"]), ["k"])
        assert called.get("yes") and len(out) == 8
