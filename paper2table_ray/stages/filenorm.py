"""File dedup/normalize planning (filenorm analogue, SURVEY.md O6).

Behavioral parity with /root/reference/src/filenorm/__main__.py:29-66 over
(path, content_hash) rows instead of a local filesystem walk:

- duplicates: same md5 → keep the normalized-name match, else shortest path
  (processing order matters: the reference folds sequentially, so we do too
  per group, ordered by first-seen input position);
- renames: surviving files get normalized basenames with collision-avoidant
  ``_N`` suffixes (global sequential pass in input order).

At scale the hash computation runs distributed (``ray.data.
read_binary_files → map_batches(md5)``); the plan fold is inherently
sequential over the (tiny) survivors list, so it runs on the driver —
matching the reference's single decision pass.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

from ..functions.text import normalize_column_name


def plan_actions(
    files: List[Tuple[str, str]],
) -> Tuple[Dict[str, List[str]], Dict[str, str], Dict[str, str]]:
    """``files``: (path, content_md5) in input order →
    (duplicates {md5: [dropped paths]}, renames {path: new basename},
    keepers {md5: path})."""
    checksums: Dict[str, str] = {}
    duplicates: Dict[str, List[str]] = {}
    for path, md5 in files:
        if md5 not in checksums:
            checksums[md5] = path
        else:
            new, old = path, checksums[md5]
            new_base, _ = os.path.splitext(os.path.basename(new))
            old_base, _ = os.path.splitext(os.path.basename(old))
            if normalize_column_name(new_base) == old_base:
                keep = old
            elif normalize_column_name(old_base) == new_base:
                keep = new
            else:
                keep = min([old, new], key=len)
            drop = [f for f in (old, new) if f != keep]
            checksums[md5] = keep
            duplicates.setdefault(md5, []).extend(drop)

    renames: Dict[str, str] = {}
    seen = set()
    for path in checksums.values():
        base, ext = os.path.splitext(os.path.basename(path))
        new_base = normalize_column_name(base)
        candidate = new_base + ext.lower()
        idx = 1
        while candidate in seen:
            candidate = f"{new_base}_{idx}{ext.lower()}"
            idx += 1
        seen.add(candidate)
        if candidate != os.path.basename(path):
            renames[path] = candidate

    return duplicates, renames, checksums


_TRAILING_N = None  # compiled lazily (regex import kept local)


def _root_family(base: str) -> str:
    """Collision family root: strip trailing ``_<digits>`` groups until
    fixed point. Any candidate the reference's rename chain can generate
    from base ``b`` is ``b + "_N"``; equal names therefore share a root,
    so rename collisions NEVER cross family roots — per-root replay of
    the sequential pass is exactly equivalent to the global pass."""
    global _TRAILING_N
    if _TRAILING_N is None:
        import re

        _TRAILING_N = re.compile(r"_\d+$")
    while True:
        stripped = _TRAILING_N.sub("", base)
        if stripped == base or not stripped:
            return base if not stripped else stripped
        base = stripped


def plan_actions_distributed(
    ds,
    pos_col: str = "pos",
    path_col: str = "path",
    md5_col: str = "content_md5",
    num_shards: "int | None" = None,
):
    """Distributed ``plan_actions`` with EXACT sequential-fold parity.

    Two coarse-shard group stages (stages/shuffle.groupby_apply — no
    driver materialization of the corpus):

    1. per-``content_md5`` keep fold, replayed in input (``pos_col``)
       order inside the group → drop actions + one keeper per hash;
    2. per collision-family rename replay: keepers grouped by
       ``(root(normalized base), ext)`` — see :func:`_root_family` for
       why collisions can't cross roots — ordered by the md5's first-seen
       position (the reference iterates ``checksums.values()`` in md5
       insertion order), with the local ``seen`` set reproducing the
       ``_N`` suffix chain.

    Returns a Dataset of ``(action, path, target)`` rows: ``drop`` rows
    target the content hash, ``rename`` rows target the new basename."""
    import os as _os

    import pandas as pd

    from .shuffle import groupby_apply

    def fold_group(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values(pos_col)
        keeper = None
        drops: List[str] = []
        for path in g[path_col]:
            if keeper is None:
                keeper = path
                continue
            new, old = path, keeper
            new_base, _ = _os.path.splitext(_os.path.basename(new))
            old_base, _ = _os.path.splitext(_os.path.basename(old))
            if normalize_column_name(new_base) == old_base:
                keep = old
            elif normalize_column_name(old_base) == new_base:
                keep = new
            else:
                keep = min([old, new], key=len)
            drops.extend(f for f in (old, new) if f != keep)
            keeper = keep
        md5 = g[md5_col].iloc[0]
        first_pos = int(g[pos_col].iloc[0])
        rows = [
            {"kind": "drop", "path": p, "target": md5, "first_pos": i}
            for i, p in enumerate(drops)
        ]
        rows.append(
            {"kind": "keeper", "path": keeper, "target": "", "first_pos": first_pos}
        )
        return pd.DataFrame(rows, columns=["kind", "path", "target", "first_pos"])

    folded = groupby_apply(
        ds, md5_col, fold_group, batch_format="pandas", num_shards=num_shards
    )

    import pyarrow as pa
    import pyarrow.compute as pc

    def _kind_filter(kind: str):
        def f(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.equal(batch.column("kind"), kind))

        return f

    # vectorized split (a per-row Python filter would be a hot-path loop
    # over a corpus-sized dataset)
    drops = folded.map_batches(_kind_filter("drop"), batch_format="pyarrow")
    keepers = folded.map_batches(_kind_filter("keeper"), batch_format="pyarrow")

    def add_family(batch: pa.Table) -> pa.Table:
        fams = []
        for p in batch.column("path").to_pylist():
            base, ext = _os.path.splitext(_os.path.basename(p))
            fams.append(f"{_root_family(normalize_column_name(base))}\x00{ext.lower()}")
        return batch.append_column("family", pa.array(fams, type=pa.string()))

    def rename_group(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values("first_pos")
        seen = set()
        out = []
        for path in g["path"]:
            base, ext = _os.path.splitext(_os.path.basename(path))
            new_base = normalize_column_name(base)
            candidate = new_base + ext.lower()
            idx = 1
            while candidate in seen:
                candidate = f"{new_base}_{idx}{ext.lower()}"
                idx += 1
            seen.add(candidate)
            if candidate != _os.path.basename(path):
                out.append({"action": "rename", "path": path, "target": candidate})
        return pd.DataFrame(out, columns=["action", "path", "target"])

    renames = groupby_apply(
        keepers.map_batches(add_family, batch_format="pyarrow"),
        "family",
        rename_group,
        batch_format="pandas",
        num_shards=num_shards,
    )

    def drops_as_actions(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "action": pa.array(["drop"] * n, type=pa.string()),
                "path": batch.column("path"),
                "target": batch.column("target"),
            }
        )

    return drops.map_batches(drops_as_actions, batch_format="pyarrow").union(renames)


def hash_files_dataset(paths: List[str]):
    """Distributed md5 of file contents (the expensive part at scale)."""
    import hashlib

    import pyarrow as pa

    import ray.data

    ds = ray.data.read_binary_files(paths, include_paths=True)

    def hash_batch(batch: pa.Table) -> pa.Table:
        hashes = [
            hashlib.md5(b).hexdigest() for b in batch.column("bytes").to_pylist()
        ]
        return pa.table(
            {
                "path": batch.column("path"),
                "content_md5": pa.array(hashes, type=pa.string()),
            }
        )

    return ds.map_batches(hash_batch, batch_format="pyarrow")
