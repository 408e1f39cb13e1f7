"""Multi-run merge engine (the per-doc reduce behind ``groupby("doc_id")``).

Behavioral parity with /root/reference/src/tablemerge/tablesfile_merger.py,
fragments_builder.py and agreement.py over the plain-dict model:

- tables pair positionally across runs (zip_longest, tablesfile_merger.py:105)
- fragments cluster by (page+offset, position-on-page) (ibid. 24-34, 58-75)
- rows merge with a two-cursor walk on ``row_idx`` + ``same_row`` equality
  (ibid. 134-172); unmatched/skipped rows pass through (outer union)
- agreement: SimpleCount (sum of levels) or DistinctReaders
  (agreement.py:20-39); optional column-agreement vote merge
  (fragments_builder.py:20-37)

In Ray Data this runs inside ``Dataset.groupby("doc_id").map_groups`` — the
single intentional all-to-all shuffle of the merge pipeline (shuffle key
doc_id; groups are per-paper small, so no salting needed).
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Dict, List, Optional, Tuple

from .. import rowmodel as rm
from ..stages.aligners import MergeTimeColumnAligner

Row = rm.Row
Fragment = rm.Fragment


class MergeError(Exception):
    pass


# --- agreement strategies (agreement.py) ------------------------------------


def is_agent_reader(reader: Optional[str]) -> bool:
    """agreement.py:10-17: unknown/None and anything that isn't a known
    deterministic reader counts as an agent."""
    if not reader:
        return True
    if reader in ("pdfplumber", "camelot", "pymupdf"):
        return False
    if reader.startswith("hybrid-"):
        return False
    return True


class SimpleCountAgreement:
    def calculate_level(self, left: Row, right: Row) -> int:
        return rm.get_agreement_level(left) + rm.get_agreement_level(right)


class DistinctReadersAgreement:
    """#agent sources + #distinct non-agent readers, min 1
    (agreement.py:25-39)."""

    def __init__(self, uuid_to_reader: Dict[str, str]):
        self.uuid_to_reader = uuid_to_reader

    def calculate_level(self, left: Row, right: Row) -> int:
        sources = list(
            dict.fromkeys((left["sources"] or []) + (right["sources"] or []))
        )
        agent_count = 0
        non_agent: set = set()
        for uuid in sources:
            reader = self.uuid_to_reader.get(uuid)
            if is_agent_reader(reader):
                agent_count += 1
            elif reader is not None:
                non_agent.add(reader)
        return max(1, agent_count + len(non_agent))


# --- row merging (fragments_builder.py) -------------------------------------


def to_values_with_agreement(value: rm.ColumnValue) -> List[dict]:
    if value is None:
        return []
    if isinstance(value, str):
        return [rm.vwa(value, 1)]
    return value


def merge_columns_without_agreement(
    left: Row,
    right: Row,
    left_normalized: bool = False,
    right_owned: bool = False,
) -> Dict[str, rm.ColumnValue]:
    """Left-biased dict union (fragments_builder.py:13-17).

    ``left_normalized``: the caller guarantees ``left``'s cells are already
    the output of ``rm.normalize_row`` — normalization is idempotent
    (property-tested), so re-normalizing would only burn a dict rebuild.
    ``right_owned``: ``right`` is engine-owned (fresh Arrow decode) — it
    may be normalized in place instead of copied.
    """
    if right_owned:
        merged = dict(rm.normalize_row_inplace(right)["cells"])
    else:
        merged = dict(rm.normalize_row(right)["cells"])
    merged.update(
        left["cells"] if left_normalized else rm.normalize_row(left)["cells"]
    )
    return merged


def merge_columns_with_agreement(
    left: Row,
    right: Row,
    left_normalized: bool = False,
    right_owned: bool = False,
) -> Dict[str, rm.ColumnValue]:
    """Per-column multiset union with summed agreement levels
    (fragments_builder.py:20-37)."""
    if right_owned:
        rm.normalize_row_inplace(right)
    column_values: Dict[str, Dict[str, int]] = {}
    for row, normalized in ((left, left_normalized), (right, right_owned)):
        cells = row["cells"] if normalized else rm.normalize_row(row)["cells"]
        for column_name, column_value in cells.items():
            values = column_values.setdefault(column_name, {})
            for entry in to_values_with_agreement(column_value):
                value = entry["value"]
                values[value] = values.get(value, 0) + entry["agreement_level"]
    return {
        column_name: [rm.vwa(v, lvl) for v, lvl in values.items()]
        for column_name, values in column_values.items()
    }


def merge_rows(
    left: Row,
    right: Row,
    agreement=None,
    column_agreement: bool = False,
    left_normalized: bool = False,
    right_owned: bool = False,
) -> Row:
    """fragments_builder.py:40-59."""
    if agreement is None:
        agreement = SimpleCountAgreement()
    agreement_level = agreement.calculate_level(left, right)
    if column_agreement:
        cells = merge_columns_with_agreement(
            left, right, left_normalized, right_owned
        )
    else:
        cells = merge_columns_without_agreement(
            left, right, left_normalized, right_owned
        )
    left_sources = left["sources"] or []
    right_sources = right["sources"] or []
    sources = list(dict.fromkeys(left_sources + right_sources)) or None
    return rm.make_row(
        cells,
        agreement_level=agreement_level,
        sources=sources,
        row_idx=left["row_idx"],
    )


class TableFragmentBuilder:
    """fragments_builder.py:62-130."""

    def __init__(
        self,
        initial_fragment: Fragment,
        initial_uuid: Optional[str],
        agreement,
        column_agreement: bool,
        owns_rows: bool = False,
    ):
        self.agreement = agreement
        self.column_agreement = column_agreement
        self.page = initial_fragment["page"]
        do_agreement = agreement is not None
        self._do_agreement = do_agreement
        # owns_rows: every row reaching this builder was freshly decoded
        # from Arrow inside this merge call (table_to_doc_tablesfiles) —
        # normalize/stamp IN PLACE instead of allocating a copy per row
        # (the kernel's allocation rate is the composed-pipeline scaling
        # limiter, BASELINE.md round 4)
        self._owns_rows = owns_rows
        sources = [initial_uuid] if initial_uuid else None
        rows = []
        if owns_rows:
            for i, row in enumerate(initial_fragment["rows"]):
                rm.normalize_row_inplace(row, do_agreement)
                row["sources"] = sources
                row["row_idx"] = i
                rows.append(row)
        else:
            for i, row in enumerate(initial_fragment["rows"]):
                # normalize_row already returns a fresh dict — stamp it in
                # place instead of {**row, ...}-copying a second one
                n = rm.normalize_row(row, do_agreement)
                n["sources"] = sources
                n["row_idx"] = i
                rows.append(n)
        self.rows = rows

    def next_left_rows(self) -> List[Row]:
        rows = self.rows
        self.rows = []
        return list(rows)

    def append_skipped(self, rows: List[Row], source_uuid: Optional[str]):
        sources = [source_uuid] if source_uuid else None
        if self._owns_rows:
            for skipped in rows:
                rm.normalize_row_inplace(skipped, self._do_agreement)
                skipped["sources"] = sources
                self.rows.append(skipped)
            return
        for skipped in rows:
            n = rm.normalize_row(skipped, self._do_agreement)
            n["sources"] = sources
            self.rows.append(n)

    def append_unmatched(self, row: Row):
        # ``row`` is always a row this builder previously normalized
        # (init or a prior append) — normalization is idempotent, so
        # re-normalizing would only re-alloc the identical dict
        self.rows.append(row)

    def merge_and_append(self, left: Row, right: Row):
        # merge_rows output cells are built from normalized cells and its
        # agreement_level is always set → already normalized form
        self.rows.append(
            merge_rows(
                left,
                right,
                agreement=self.agreement,
                column_agreement=self.column_agreement,
                left_normalized=True,
                right_owned=self._owns_rows,
            )
        )

    def build(self) -> Fragment:
        # every row in self.rows passed through normalize_row (init /
        # append_skipped) or was assembled from normalized cells
        # (merge_and_append) → the normalized emptiness test applies
        return {
            "rows": [r for r in self.rows if not rm.row_is_empty_normalized(r)],
            "page": self.page,
        }


# --- merger (tablesfile_merger.py) ------------------------------------------

MergeTarget = Tuple[Optional[Fragment], dict]  # (fragment, tablesfile)


def make_fragments_clusters(
    tables_cluster,
    tablesfiles: List[dict],
    page_offsets: List[int],
) -> Dict[Tuple[int, int], List[MergeTarget]]:
    """Cluster fragments by (page+offset, position-on-page)
    (tablesfile_merger.py:58-75)."""
    clusters: Dict[Tuple[int, int], List[MergeTarget]] = {}
    for table, tablesfile, offset in zip(tables_cluster, tablesfiles, page_offsets):
        if table is None:
            continue
        page_counts: Dict[int, int] = {}
        for fragment in table["fragments"]:
            adjusted = fragment["page"] + offset
            position = page_counts.get(adjusted, 0)
            page_counts[adjusted] = position + 1
            clusters.setdefault((adjusted, position), []).append(
                (fragment, tablesfile)
            )
    return clusters


class TablesFileMerger:
    def __init__(
        self,
        agreement=None,
        column_agreement: bool = False,
        analyzers: list = [],
        owns_rows: bool = False,
    ):
        self.agreement = agreement if agreement is not None else SimpleCountAgreement()
        self.column_agreement = column_agreement
        self.analyzers = analyzers
        # owns_rows: the caller guarantees every row in ``tablesfiles`` is
        # engine-owned (fresh per-call Arrow decode) → normalize/stamp in
        # place, never copy. Direct API users keep the copying default.
        self.owns_rows = owns_rows

    def merge(
        self,
        tablesfiles: List[dict],
        page_offsets: Optional[List[int]] = None,
    ) -> dict:
        """tablesfile_merger.py:89-181. ``tablesfiles`` are the per-source
        trees (each with ``tables``, ``citation``, ``uuid``)."""
        if not tablesfiles:
            raise MergeError("Must pass at least one tablesfile")
        if page_offsets is None:
            page_offsets = [0] * len(tablesfiles)

        merged_tables: List[dict] = []
        tables_clusters = list(zip_longest(*(t["tables"] for t in tablesfiles)))
        for tables_cluster in tables_clusters:
            merged_fragments: List[Fragment] = []
            clusters = make_fragments_clusters(
                tables_cluster, tablesfiles, page_offsets
            )
            for _key in sorted(clusters):
                merge_targets = clusters[_key]
                left_fragment, left_tablesfile = merge_targets[0]
                if not left_fragment:
                    raise MergeError(f"no left fragment in {merge_targets}")

                first_right = next(
                    (f for f, _ in merge_targets[1:] if f is not None), None
                )
                aligner = MergeTimeColumnAligner(
                    left_fragment, first_right, self.analyzers
                )
                left_fragment = {
                    "rows": [aligner.rename_row(r) for r in left_fragment["rows"]],
                    "page": left_fragment["page"],
                }

                builder = TableFragmentBuilder(
                    left_fragment,
                    left_tablesfile.get("uuid"),
                    self.agreement,
                    self.column_agreement,
                    owns_rows=self.owns_rows,
                )

                for right_fragment, right_tablesfile in merge_targets[1:]:
                    if not right_fragment:
                        break
                    right_uuid = right_tablesfile.get("uuid")
                    if self.owns_rows:
                        # renamed rows are either the tree's own (identity
                        # rename) or fresh — stamp row_idx in place
                        right_rows = []
                        for i, r in enumerate(right_fragment["rows"]):
                            rr = aligner.rename_row(r)
                            rr["row_idx"] = i
                            right_rows.append(rr)
                    else:
                        right_rows = [
                            {**aligner.rename_row(r), "row_idx": i}
                            for i, r in enumerate(right_fragment["rows"])
                        ]
                    left_rows = builder.next_left_rows()
                    right_idx = 0

                    for left_row in left_rows:
                        while right_idx < len(right_rows) and (
                            right_rows[right_idx]["row_idx"] or 0
                        ) < (left_row["row_idx"] or 0):
                            builder.append_skipped(
                                [right_rows[right_idx]], right_uuid
                            )
                            right_idx += 1

                        if (
                            right_idx < len(right_rows)
                            and right_rows[right_idx]["row_idx"] == left_row["row_idx"]
                            and rm.same_row(left_row, right_rows[right_idx])
                        ):
                            if self.owns_rows:
                                right_row = right_rows[right_idx]
                                right_row["sources"] = (
                                    [right_uuid] if right_uuid else None
                                )
                            else:
                                right_row = {
                                    **right_rows[right_idx],
                                    "sources": [right_uuid] if right_uuid else None,
                                }
                            builder.merge_and_append(left_row, right_row)
                            right_idx += 1
                        else:
                            builder.append_unmatched(left_row)

                    builder.append_skipped(right_rows[right_idx:], right_uuid)

                merged_fragments.append(builder.build())

            merged_tables.append({"fragments": merged_fragments})

        citation = _normalize_citation(tablesfiles[0].get("citation"))
        return {"tables": merged_tables, "citation": citation}


def _normalize_citation(citation):
    from ..functions.text import normalize_str

    if citation is None:
        return None
    if isinstance(citation, str):
        return normalize_str(citation)
    return [rm.vwa(normalize_str(v["value"]), v["agreement_level"]) for v in citation]


def merge_tablesfiles(
    tablesfiles: List[dict],
    agreement=None,
    column_agreement: bool = False,
    analyzers: list = [],
    page_offsets: Optional[List[int]] = None,
) -> dict:
    return TablesFileMerger(
        agreement=agreement,
        column_agreement=column_agreement,
        analyzers=analyzers,
    ).merge(tablesfiles, page_offsets=page_offsets)
