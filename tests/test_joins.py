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

    def test_shard_path_equals_broadcast_path(self, force_shard_plan):
        right_ds = ray.data.from_arrow(_right_tbl())
        bc = _sorted_df(hash_join(_left_ds(), right_ds, "k", "rk", ["name"]), "k")
        force_shard_plan()
        sh = _sorted_df(
            hash_join(_left_ds(), right_ds, "k", "rk", ["name"], num_shards=4),
            "k",
        )
        pd.testing.assert_frame_equal(bc, sh[bc.columns])

    def test_shard_path_takes_an_arrow_build_side(self, force_shard_plan):
        # an in-memory (pa.Table) build side over the limits takes the
        # shard join too
        bc = _sorted_df(hash_join(_left_ds(), _right_tbl(), "k", "rk", ["name"]), "k")
        force_shard_plan()
        sh = _sorted_df(
            hash_join(_left_ds(), _right_tbl(), "k", "rk", ["name"], num_shards=4),
            "k",
        )
        pd.testing.assert_frame_equal(bc, sh[bc.columns])

    def test_shard_path_left_join(self, force_shard_plan):
        right_ds = ray.data.from_arrow(_right_tbl())
        force_shard_plan()
        out = _sorted_df(
            hash_join(
                _left_ds(), right_ds, "k", "rk", ["name"], how="left", num_shards=4
            ),
            "k",
        )
        assert out["k"].tolist() == list(range(10))
        assert out.loc[out["k"] == 5, "name"].isna().all()

    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_shard_path_equal_key_names(self, how, force_shard_plan):
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
        force_shard_plan()
        sh = _sorted_df(
            hash_join(
                left, right, "doc_id", "doc_id", ["name"], how=how, num_shards=4
            ),
            "doc_id",
        )
        assert len(bc) == (5 if how == "inner" else 10)
        assert bc["name"].notna().sum() == 5
        pd.testing.assert_frame_equal(bc, sh[bc.columns])

    def test_duplicate_build_keys_multiply(self, force_shard_plan):
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
        force_shard_plan()
        sh = _sorted_df(
            hash_join(
                _left_ds(), ray.data.from_arrow(right), "k", "rk", ["name"], num_shards=4
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

    def test_wide_dataset_side_is_never_collected(self, monkeypatch):
        """The gate reads a Dataset side's block metadata: a side under the
        ROW limit but over the BYTE limit goes to the shard join without
        being collected to the driver first."""
        import paper2table_ray.stages.joins as J

        monkeypatch.setattr(J, "BROADCAST_BYTE_LIMIT", 16)
        collected = []
        orig = J._to_arrow_table

        def spy(*a, **k):
            collected.append(1)
            return orig(*a, **k)

        monkeypatch.setattr(J, "_to_arrow_table", spy)
        right = ray.data.from_arrow(_right_tbl())
        out = _sorted_df(J.hash_join(_left_ds(), right, "k", "rk", ["name"]), "k")
        assert collected == []
        assert out["k"].tolist() == [0, 1, 2, 3, 4, 6, 8, 9]
        assert out["name"].tolist() == [f"n{k}" for k in out["k"]]

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


def _pairs_ds():
    # ids 5 and 7 of the side appear in no pair
    return ray.data.from_arrow(
        pa.table(
            {
                "a": pa.array([0, 1, 2, 8], pa.int64()),
                "b": pa.array([1, 3, 4, 9], pa.int64()),
            }
        )
    )


def _feature_side():
    ids = list(range(10))
    return ray.data.from_arrow(
        pa.table(
            {
                "id": pa.array(ids, pa.int64()),
                "f": pa.array([f"f{i}" for i in ids], pa.string()),
            }
        )
    )


def _check_attached(out):
    df = _sorted_df(out, "a")
    assert df["a"].tolist() == [0, 1, 2, 8]
    assert df["f_a"].tolist() == [f"f{i}" for i in df["a"]]
    assert df["f_b"].tolist() == [f"f{i}" for i in df["b"]]


@pytest.mark.usefixtures("ray_session")
class TestAttachPairSides:
    def test_side_is_narrowed_to_the_pair_ids(self, monkeypatch):
        """Within the row limit the broadcast collects only the features
        of ids that occur in a pair, once for both joins."""
        import paper2table_ray.stages.joins as J

        collected = []
        orig = J._to_arrow_table

        def spy(side):
            t = orig(side)
            if t is not side:  # a Dataset side was collected
                collected.append(sorted(t.column("id").to_pylist()))
            return t

        monkeypatch.setattr(J, "_to_arrow_table", spy)
        _check_attached(
            J.attach_pair_sides(_pairs_ds(), _feature_side(), "a", "b", "id", ["f"])
        )
        assert collected == [[0, 1, 2, 3, 4, 8, 9]]

    def test_pairs_over_the_row_limit_never_reach_the_driver(self, monkeypatch):
        """Above BROADCAST_ROW_LIMIT pairs no id set is collected: the
        side goes to the gate un-narrowed (here over the limit too, so
        both joins take the shard plan)."""
        import paper2table_ray.stages.joins as J

        monkeypatch.setattr(J, "BROADCAST_ROW_LIMIT", 2)
        iterated = []
        orig = ray.data.Dataset.iter_batches

        def spy(self, *a, **k):
            iterated.append(list(self.schema().names))
            return orig(self, *a, **k)

        monkeypatch.setattr(ray.data.Dataset, "iter_batches", spy)
        out = J.attach_pair_sides(
            _pairs_ds(), _feature_side(), "a", "b", "id", ["f"], num_shards=4
        ).materialize()
        assert iterated == []
        monkeypatch.setattr(ray.data.Dataset, "iter_batches", orig)
        _check_attached(out)

    def test_no_pairs_attach_nothing(self):
        """An empty pair set narrows the side to nothing, whatever the id
        type (an untyped empty id set cannot probe a string column)."""
        import paper2table_ray.stages.joins as J

        pairs = ray.data.from_arrow(
            pa.table({"a": pa.array([], pa.string()), "b": pa.array([], pa.string())})
        )
        side = ray.data.from_arrow(
            pa.table({"id": pa.array(["x", "y"]), "f": pa.array(["fx", "fy"])})
        )
        assert J.attach_pair_sides(pairs, side, "a", "b", "id", ["f"]).count() == 0

    def test_post_runs_on_attached_batches_of_any_size(self, monkeypatch):
        """``post`` sees both sides' columns; one-row probe batches (the
        byte budget below a row) give the same result."""
        import paper2table_ray.stages.joins as J

        import pyarrow.compute as pc

        monkeypatch.setattr(J, "_PAIR_BATCH_BYTES", 1)

        def post(t):
            same = pc.equal(t.column("f_a"), t.column("f_b"))
            return t.append_column("same", same).drop_columns(["f_a", "f_b"])

        out = _sorted_df(
            J.attach_pair_sides(
                _pairs_ds(), _feature_side(), "a", "b", "id", ["f"], post=post
            ),
            "a",
        )
        assert out.columns.tolist() == ["a", "b", "same"]
        assert out["a"].tolist() == [0, 1, 2, 8] and not out["same"].any()
