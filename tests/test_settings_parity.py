"""Behavioral-parity port of /root/reference/tests/test_settings.py (22)
over state/settings.py + functions/text.ColumnSchema."""

from argparse import Namespace
from pathlib import Path

import pytest

from paper2table_ray.functions.text import ColumnSchema
from paper2table_ray.state.settings import MergeSettings


def _full_args(**overrides):
    base = dict(
        agreement_method="simple-count",
        drop_empty_columns=True,
        drop_empty_tables=True,
        only_semantic_columns=False,
        remove_header_rows=False,
        pretty=False,
        filter_title_rows=True,
        jaccard_column_alignment=False,
        column_alignment_threshold=0.5,
        column_name_semantic_alignment=False,
        column_value_semantic_alignment=False,
        semantic_language="en",
        hints_column_alignment=None,
        fix_reversed_column_values=False,
        strip_leading_row_numbers=False,
        normalize_punctuation=False,
        split_conjunction_columns=False,
        transform_tablesfile=None,
        filter_schema_columns=False,
        order_schema_columns=False,
        coerce_schema_column_types=False,
        column_aliases=None,
        column_aliases_path=None,
        paper_aliases=None,
        paper_aliases_path=None,
        column_names_hints=None,
        column_names_hints_path=None,
        schema=None,
        schema_path=None,
        paths=["dir1"],
        # extras not in MergeSettings
        output_directory=".",
        metadata_only=False,
        export_settings=False,
        workers=1,
        paper=None,
        settings=False,
    )
    base.update(overrides)
    return Namespace(**base)


def test_from_args_maps_fields_and_ignores_extras():
    settings = MergeSettings.from_args(
        _full_args(
            agreement_method="distinct-readers",
            drop_empty_columns=False,
            only_semantic_columns=True,
            jaccard_column_alignment=True,
            column_alignment_threshold=0.7,
            semantic_language="es",
            pretty=True,
            column_aliases="familia:family",
            schema="family:str",
            paths=["dir1", "dir2"],
            workers=4,
        )
    )
    assert settings.agreement_method == "distinct-readers"
    assert settings.drop_empty_columns is False
    assert settings.jaccard_column_alignment is True
    assert settings.column_alignment_threshold == 0.7
    assert settings.semantic_language == "es"
    assert settings.column_aliases == "familia:family"
    assert settings.schema == "family:str"
    assert settings.paper_aliases is None
    assert settings.paths == ["dir1", "dir2"]


REF_SCHEMA_TXT = Path("/root/reference/tests/data/demo_schema.txt")


@pytest.mark.skipif(
    not REF_SCHEMA_TXT.exists(), reason="reference checkout unavailable"
)
def test_from_args_reads_schema_from_path():
    settings = MergeSettings.from_args(
        _full_args(schema_path=str(REF_SCHEMA_TXT))
    )
    assert settings.schema == "name:str\nspecies:str"


def test_from_args_paths_stored_as_list():
    settings = MergeSettings.from_args(_full_args(paths=("a", "b")))
    assert settings.paths == ["a", "b"]


def test_paths_round_trip_and_default():
    s = MergeSettings.from_dict({"paths": ["dir_x", "dir_y"]})
    assert s.paths == ["dir_x", "dir_y"]
    assert s.to_dict()["paths"] == ["dir_x", "dir_y"]
    assert MergeSettings.from_dict({}).to_dict()["paths"] == []


def test_merge_settings_from_dict_defaults():
    assert MergeSettings.from_dict({}) == MergeSettings(
        paths=[],
        agreement_method="simple-count",
        drop_empty_columns=True,
        drop_empty_tables=True,
        only_semantic_columns=False,
        remove_header_rows=False,
        column_names_hints=None,
        schema=None,
        paper_aliases=None,
    )


def test_from_dict_ignores_unknown_attributes():
    s = MergeSettings.from_dict(
        {"agreement_method": "distinct-readers", "unknown_field": "ignored"}
    )
    assert s.agreement_method == "distinct-readers"


# each row: (input overrides, {field: expected in the to_dict round-trip})
_DICT_CASES = [
    ("simple_fields",
     {"agreement_method": "distinct-readers", "drop_empty_columns": False,
      "only_semantic_columns": True, "remove_header_rows": True},
     {"agreement_method": "distinct-readers", "drop_empty_columns": False,
      "drop_empty_tables": True, "only_semantic_columns": True,
      "remove_header_rows": True}),
    ("pretransformers",
     {"filter_title_rows": True, "strip_leading_row_numbers": True},
     {"filter_title_rows": True, "strip_leading_row_numbers": True,
      "fix_reversed_column_values": False, "normalize_punctuation": False,
      "split_conjunction_columns": False}),
    ("title_filter_off", {"filter_title_rows": False}, {"filter_title_rows": False}),
    ("reverser_language",
     {"semantic_language": "es", "fix_reversed_column_values": True},
     {"semantic_language": "es", "fix_reversed_column_values": True}),
    ("analyzers",
     {"jaccard_column_alignment": True, "column_value_semantic_alignment": True,
      "column_name_semantic_alignment": False, "column_alignment_threshold": 0.7,
      "semantic_language": "es", "hints_column_alignment": "unsafe"},
     {"jaccard_column_alignment": True, "column_value_semantic_alignment": True,
      "column_name_semantic_alignment": False, "column_alignment_threshold": 0.7,
      "semantic_language": "es", "hints_column_alignment": "unsafe"}),
    ("hints_safe", {"hints_column_alignment": "safe"},
     {"hints_column_alignment": "safe"}),
    ("postprocessors",
     {"filter_schema_columns": True, "order_schema_columns": False,
      "coerce_schema_column_types": True},
     {"filter_schema_columns": True, "order_schema_columns": False,
      "coerce_schema_column_types": True}),
] + [
    (f"transform_{mode}", {"transform_tablesfile": mode},
     {"transform_tablesfile": mode})
    for mode in ("explode", "safe-compact", "unsafe-compact")
]


@pytest.mark.parametrize("case", _DICT_CASES, ids=[c[0] for c in _DICT_CASES])
def test_from_dict_to_dict_round_trip(case):
    _name, overrides, expected = case
    d = MergeSettings.from_dict(overrides).to_dict()
    for field, value in expected.items():
        assert d[field] == value, field


def test_column_schema_from_settings_dict_empty():
    assert ColumnSchema.from_settings_dict({}) is None


def test_column_schema_from_settings_dict_round_trip():
    original = ColumnSchema.parse("family:str,count:int,name:scientific_name")
    serialized = original.serialize()
    reconstructed = ColumnSchema.from_settings_dict(serialized)
    assert reconstructed is not None
    assert reconstructed.serialize() == serialized


def test_column_schema_from_settings_dict_single_field():
    schema = ColumnSchema.from_settings_dict({"family": "str"})
    assert schema is not None
    assert schema.serialize() == {"family": "str"}


# --- to_dict / from_dict field-level cases (test_settings.py:145-306) --------


def test_from_dict_includes_paths():
    settings = MergeSettings.from_dict({"paths": ["dir_x", "dir_y"]})
    assert settings.paths == ["dir_x", "dir_y"]


def test_to_dict_includes_paths():
    settings = MergeSettings.from_dict({"paths": ["dir_x", "dir_y"]})
    assert settings.to_dict()["paths"] == ["dir_x", "dir_y"]


def test_to_dict_paths_defaults_to_empty_list():
    assert MergeSettings.from_dict({}).to_dict()["paths"] == []


def test_merge_settings_from_dict_simple_fields():
    settings = MergeSettings.from_dict(
        {
            "agreement_method": "distinct-readers",
            "drop_empty_columns": False,
            "drop_empty_tables": False,
            "only_semantic_columns": True,
            "remove_header_rows": True,
            "column_names_hints": ["species", "family"],
            "schema": {"family": "str", "count": "int"},
        }
    )
    assert settings.agreement_method == "distinct-readers"
    assert settings.drop_empty_columns is False
    assert settings.drop_empty_tables is False
    assert settings.only_semantic_columns is True
    assert settings.remove_header_rows is True
    assert settings.column_names_hints == ["species", "family"]
    assert settings.schema == {"family": "str", "count": "int"}


def test_to_dict_simple_fields():
    defaults = MergeSettings.from_dict(
        {
            "agreement_method": "distinct-readers",
            "drop_empty_columns": False,
            "drop_empty_tables": True,
            "only_semantic_columns": True,
            "remove_header_rows": True,
        }
    ).to_dict()
    assert defaults["agreement_method"] == "distinct-readers"
    assert defaults["drop_empty_columns"] is False
    assert defaults["drop_empty_tables"] is True
    assert defaults["only_semantic_columns"] is True
    assert defaults["remove_header_rows"] is True


def test_to_dict_pretransformers():
    defaults = MergeSettings.from_dict(
        {"filter_title_rows": True, "strip_leading_row_numbers": True}
    ).to_dict()
    assert defaults["filter_title_rows"] is True
    assert defaults["strip_leading_row_numbers"] is True
    assert defaults["fix_reversed_column_values"] is False
    assert defaults["normalize_punctuation"] is False
    assert defaults["split_conjunction_columns"] is False


def test_to_dict_no_title_filter_when_absent():
    assert (
        MergeSettings.from_dict({"filter_title_rows": False}).to_dict()[
            "filter_title_rows"
        ]
        is False
    )


def test_to_dict_language_from_reverser():
    defaults = MergeSettings.from_dict(
        {"semantic_language": "es", "fix_reversed_column_values": True}
    ).to_dict()
    assert defaults["fix_reversed_column_values"] is True
    assert defaults["semantic_language"] == "es"


def test_to_dict_tablesfile_transformer_explode():
    assert (
        MergeSettings.from_dict({"transform_tablesfile": "explode"}).to_dict()[
            "transform_tablesfile"
        ]
        == "explode"
    )


def test_to_dict_tablesfile_transformer_safe_compact():
    assert (
        MergeSettings.from_dict({"transform_tablesfile": "safe-compact"}).to_dict()[
            "transform_tablesfile"
        ]
        == "safe-compact"
    )


def test_to_dict_tablesfile_transformer_unsafe_compact():
    assert (
        MergeSettings.from_dict({"transform_tablesfile": "unsafe-compact"}).to_dict()[
            "transform_tablesfile"
        ]
        == "unsafe-compact"
    )


def test_to_dict_analyzers():
    defaults = MergeSettings.from_dict(
        {
            "jaccard_column_alignment": True,
            "column_value_semantic_alignment": True,
            "column_name_semantic_alignment": False,
            "column_alignment_threshold": 0.7,
            "semantic_language": "es",
            "hints_column_alignment": "unsafe",
        }
    ).to_dict()
    assert defaults["jaccard_column_alignment"] is True
    assert defaults["column_value_semantic_alignment"] is True
    assert defaults["column_name_semantic_alignment"] is False
    assert defaults["column_alignment_threshold"] == 0.7
    assert defaults["semantic_language"] == "es"
    assert defaults["hints_column_alignment"] == "unsafe"


def test_to_dict_hints_safe_mode():
    assert (
        MergeSettings.from_dict({"hints_column_alignment": "safe"}).to_dict()[
            "hints_column_alignment"
        ]
        == "safe"
    )


def test_to_dict_postprocessors():
    defaults = MergeSettings.from_dict(
        {
            "filter_schema_columns": True,
            "order_schema_columns": False,
            "coerce_schema_column_types": True,
        }
    ).to_dict()
    assert defaults["filter_schema_columns"] is True
    assert defaults["order_schema_columns"] is False
    assert defaults["coerce_schema_column_types"] is True
