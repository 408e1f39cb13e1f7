"""Parity ports of the reference's small utility suites: page_range (7),
normalize_column_name (6), parse_column_names_hints (6), gnparser (9)."""

from pathlib import Path

import pytest

from paper2table_ray.functions.scientific import scientific_name
from paper2table_ray.functions.text import (
    normalize_column_name,
    parse_hints,
    parse_page_range,
)

# --- page_range (test_page_range.py) -----------------------------------------


def test_plain_path_returns_no_range():
    assert parse_page_range("some/file.pdf") == ("some/file.pdf", None)


def test_range_is_parsed():
    assert parse_page_range("some/file.pdf:2:5") == ("some/file.pdf", (2, 5))


def test_single_page_range():
    assert parse_page_range("paper.pdf:3:3") == ("paper.pdf", (3, 3))


def test_one_colon_suffix_is_not_a_range():
    assert parse_page_range("file.pdf:5") == ("file.pdf:5", None)


def test_non_integer_suffix_is_not_a_range():
    assert parse_page_range("file.pdf:foo:bar") == ("file.pdf:foo:bar", None)


def test_path_with_directory_and_range():
    assert parse_page_range("/data/papers/study.pdf:10:20") == (
        "/data/papers/study.pdf",
        (10, 20),
    )


def test_path_without_extension_and_range():
    assert parse_page_range("myfile:1:4") == ("myfile", (1, 4))


# --- normalize_column_name (test_normalize_column_name.py) -------------------


def test_normalize_column_name_spaces_become_underscores():
    assert normalize_column_name("Utilized part") == "utilized_part"


def test_normalize_column_name_uppercase():
    assert normalize_column_name("UTILIZED PART") == "utilized_part"


def test_normalize_column_name_mixed_case():
    assert normalize_column_name("Utilized Part") == "utilized_part"


def test_normalize_column_name_accent():
    assert normalize_column_name("Preparación") == "preparacion"


def test_normalize_column_name_already_normalized():
    assert normalize_column_name("utilized_part") == "utilized_part"


def test_normalize_column_name_none_returns_none():
    assert normalize_column_name(None) is None


# --- parse_column_names_hints (test_parse_column_names_hints.py) -------------


def test_simple_comma_separated():
    assert parse_hints("id, name, family") == ["id", "name", "family"]


def test_newline_and_whitespace():
    assert parse_hints("id \n name   family") == ["id", "name", "family"]


def test_extra_commas_and_spaces():
    assert parse_hints("id, ,  ,   name , family") == ["id", "name", "family"]


def test_with_diacritics():
    assert parse_hints("id, nombre_científico") == ["id", "nombre_cientifico"]


def test_uppercase_and_mixed_case():
    assert parse_hints("ID, Vernacular_Name, SCIENTIFIC_NAME") == [
        "id",
        "vernacular_name",
        "scientific_name",
    ]


def test_empty_input():
    assert parse_hints("") == []


# --- gnparser analogue (test_gnparser.py) ------------------------------------


def test_scientific_name_simple_binomen():
    assert scientific_name("homo sapiens") == "Homo sapiens"
    assert scientific_name("Homo sapiens") == "Homo sapiens"


def test_scientific_name_unparseable_returns_original():
    assert scientific_name("not a name") == "not a name"


def test_scientific_name_binomen_with_tail():
    assert (
        scientific_name("Acantholippia seriphioides (a. gray) mold.")
        == "Acantholippia seriphioides"
    )
    assert (
        scientific_name("acantholippia seriphioides (a. gray) mold.")
        == "Acantholippia seriphioides"
    )
    assert scientific_name("apium australe pet. thouars") == "Apium australe"


def test_scientific_name_binomen_with_author():
    assert (
        scientific_name("Acantholippia seriphioides (A. Gray) Mold.")
        == "Acantholippia seriphioides"
    )
    assert scientific_name("Apium australe Pet. Thouars") == "Apium australe"


def test_scientific_name_approximation():
    assert scientific_name("acaena sp.") == "Acaena"


def test_scientific_name_comma_separated():
    assert (
        scientific_name("homo sapiens, pan troglodytes")
        == "Homo sapiens, Pan troglodytes"
    )


def test_scientific_name_slash_separated():
    assert (
        scientific_name("homo sapiens / pan troglodytes")
        == "Homo sapiens, Pan troglodytes"
    )


def test_scientific_name_comma_separated_strips_authors():
    assert (
        scientific_name(
            "Acantholippia seriphioides (A. Gray) Mold., Apium australe Pet. Thouars"
        )
        == "Acantholippia seriphioides, Apium australe"
    )


def test_scientific_name_comma_separated_with_unparseable_part():
    assert scientific_name("homo sapiens, not a name") == "Homo sapiens, not a name"


# --- split_pages pure core (test_split_pages.py:20-72) -----------------------


def test_apply_page_offset():
    from paper2table_ray.sources.tablesfile_json import fix_page_numbers

    table = {
        "table_fragments": [
            {"rows": [{"a": "1"}], "page": 1},
            {"rows": [{"a": "2"}], "page": 2},
        ]
    }
    result = fix_page_numbers(table, 4)
    assert result["table_fragments"][0]["page"] == 5
    assert result["table_fragments"][1]["page"] == 6


def test_apply_page_offset_no_fragments():
    from paper2table_ray.sources.tablesfile_json import fix_page_numbers

    table = {"rows": [{"a": "1"}], "page": 1}
    assert fix_page_numbers(table, 2) == table


def test_read_tables_from_pages_combines_tables():
    from paper2table_ray.sources.tablesfile_json import combine_page_results

    r1 = {"tables": [{"table_fragments": [{"rows": [{"a": "x"}], "page": 1}]}],
          "citation": None}
    r2 = {"tables": [{"table_fragments": [{"rows": [{"a": "y"}], "page": 1}]}],
          "citation": None}
    result = combine_page_results("/some/path/doc.pdf", [(0, r1), (1, r2)])
    assert len(result["tables"]) == 2
    assert result["tables"][0]["table_fragments"][0]["page"] == 1
    assert result["tables"][1]["table_fragments"][0]["page"] == 2


def test_read_tables_from_pages_takes_first_citation():
    from paper2table_ray.sources.tablesfile_json import combine_page_results

    r1 = {"tables": [], "citation": None}
    r2 = {"tables": [], "citation": "Author 2026"}
    r3 = {"tables": [], "citation": "Other 2026"}
    result = combine_page_results("/p/doc.pdf", [(0, r1), (1, r2), (2, r3)])
    assert result["citation"] == "Author 2026"


def test_read_tables_from_pages_filename():
    from paper2table_ray.sources.tablesfile_json import combine_page_results

    result = combine_page_results("/some/path/my_paper.pdf", [])
    assert result["metadata"]["filename"] == "my_paper.pdf"


def test_read_tables_from_pages_empty():
    from paper2table_ray.sources.tablesfile_json import combine_page_results

    result = combine_page_results("/p/doc.pdf", [])
    assert result["tables"] == []
    assert result["citation"] is None


# --- metadata (test_metadata.py) + curation validation (test_validate.py) ----


def test_metadata_uuid_is_unique():
    from paper2table_ray.sources.tablesfile_json import make_metadata

    assert make_metadata("camelot")["uuid"] != make_metadata("camelot")["uuid"]


def test_metadata_to_dict_regular_reader():
    from datetime import datetime
    from uuid import UUID

    from paper2table_ray.sources.tablesfile_json import make_metadata

    d = make_metadata(reader="camelot", model="test-model")
    assert d["reader"] == "camelot"
    assert UUID(d["uuid"])
    assert isinstance(datetime.fromisoformat(d["datetime"]), datetime)


def test_metadata_reader_agent_substitutes_model():
    from paper2table_ray.sources.tablesfile_json import make_metadata

    assert make_metadata(reader="agent", model="special-model")["reader"] == "special-model"


def test_metadata_reader_agent_with_none_model():
    from paper2table_ray.sources.tablesfile_json import make_metadata

    assert make_metadata(reader="agent", model=None)["reader"] is None


REF_DEMO_FILE = Path(
    "/root/reference/tests/data/demo_resultsets/"
    "39c01438-4af8-4f2a-ac5d-278b9653f565/extended_overview.tables.json"
)


@pytest.mark.skipif(
    not REF_DEMO_FILE.exists(), reason="reference checkout unavailable"
)
def test_can_validate_reference_demo_file():
    import json as _json

    from paper2table_ray.sources.tablesfile_json import validate_tablesfile_obj

    obj = _json.load(open(REF_DEMO_FILE))
    assert validate_tablesfile_obj(obj) == []


def test_curation_requires_curator():
    from paper2table_ray.sources.tablesfile_json import validate_tablesfile_obj

    bad = {"tables": [], "citation": "", "metadata": {"curations": [{"description": "x"}]}}
    assert any("curator" in e for e in validate_tablesfile_obj(bad))
    ok = {
        "tables": [],
        "citation": "",
        "metadata": {
            # filename is a REQUIRED key in the reference schema
            # (differential calibration, round 5)
            "filename": None,
            "curations": [
                {"curator": "Umi", "description": "Corregida", "timestamp": "2026-06-25"}
            ]
        },
    }
    assert validate_tablesfile_obj(ok) == []
