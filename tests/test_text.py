"""Scalar-function parity vectors (FIXTURES.md F8; reference tests/test_rows.py,
test_normalize_column_name.py, test_coerce.py behaviors)."""

import pyarrow as pa
import pytest

from paper2table_ray.functions.text import (
    ColumnSchema,
    ascii_fold,
    coerce_str,
    normalize_column_name,
    normalize_column_value,
    normalize_punctuation,
    normalize_str,
    normalize_str_array,
    parse_hints,
    parse_page_range,
    tokenize_schema,
)


class TestNormalizeStr:
    def test_cid_latin1_decoded(self):
        assert normalize_str("caf(cid:233)") == "café"

    def test_cid_out_of_range_removed(self):
        assert normalize_str("a(cid:64)b") == "ab"
        assert normalize_str("a(cid:300)b") == "ab"

    def test_dash_variants(self):
        for dash in "‐‑‒–—―−":
            assert normalize_str(f"a{dash}b") == "a-b"

    def test_nonprintables_removed(self):
        assert normalize_str("a\x00b\x1fc\x7fd�e") == "abcde"

    def test_whitespace_collapse(self):
        assert normalize_str("  a \t\n b  ") == "a b"

    def test_nfc(self):
        # e + combining acute → é
        assert normalize_str("é") == "é"

    def test_fast_path_matches_slow(self):
        vals = ["  plain  ascii  ", "tab\tsep", "a(cid:200)b", None, "", "  ",
                "trail\n", "x \n", "né  e", "dash–x"]
        assert normalize_str_array(pa.array(vals, pa.string())).to_pylist() == [
            normalize_str(v) if v is not None else None for v in vals
        ]


class TestNormalizeColumnName:
    def test_accent_folding(self):
        assert normalize_column_name("Nombre Científico") == "nombre_cientifico"

    def test_punctuation_to_underscore(self):
        assert normalize_column_name("Common Name (EN)") == "common_name_en"

    def test_collapse_and_strip(self):
        assert normalize_column_name("__a___b__") == "a_b"

    def test_none(self):
        assert normalize_column_name(None) is None


class TestNormalizeColumnValue:
    @pytest.mark.parametrize("phrase", ["no data", "NONE", "Not Identified", "  None "])
    def test_no_data_phrases(self, phrase):
        assert normalize_column_value(phrase) == ""

    def test_lowercase(self):
        assert normalize_column_value("  Helianthus  Annuus ") == "helianthus annuus"


class TestCoerce:
    def test_bool_words(self):
        assert coerce_str("yes", bool) == "True"
        assert coerce_str("OFF", bool) == "False"
        assert coerce_str("maybe", bool) == "maybe"

    def test_int_via_float(self):
        assert coerce_str("3.0", int) == "3"
        assert coerce_str("x", int) == "x"

    def test_float(self):
        assert coerce_str("1e2", float) == "100.0"

    def test_str_identity(self):
        assert coerce_str(" raw ", str) == " raw "


class TestNormalizePunctuation:
    def test_quotes(self):
        assert normalize_punctuation("“x” and ‘y’") == "'x' and 'y'"

    def test_guillemets(self):
        assert normalize_punctuation("«x»") == "x"

    def test_vowel_acute(self):
        assert normalize_punctuation("a´") == "á"

    def test_trailing_dot(self):
        assert normalize_punctuation("longword.") == "longword"
        assert normalize_punctuation("shrt.") == "shrt."

    def test_ellipsis(self):
        assert normalize_punctuation("a…") == "a..."


class TestMisc:
    def test_ascii_fold(self):
        assert ascii_fold("Ångström ß œ") == "Angstrom ss oe"

    def test_tokenize_schema(self):
        assert tokenize_schema("a, b # comment\nc d") == ["a", "b", "c", "d"]

    def test_parse_hints(self):
        # whitespace splits tokens (reference tokenize_schema), accents fold
        assert parse_hints("Nombre_Común, family") == ["nombre_comun", "family"]

    def test_schema_parse(self):
        s = ColumnSchema.parse("name:str count:int ok:bool")
        assert s.column_names() == ["name", "count", "ok"]
        assert s.type_of("count") is int
        assert "name" in s and "missing" not in s
        with pytest.raises(ValueError):
            ColumnSchema.parse("a:nope")

    def test_page_range(self):
        assert parse_page_range("x.pdf:2:5") == ("x.pdf", (2, 5))
        assert parse_page_range("x.pdf") == ("x.pdf", None)
        assert parse_page_range("x:y.pdf") == ("x:y.pdf", None)
