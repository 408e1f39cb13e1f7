"""Scalar text/normalization functions (behavioral parity with the reference).

Each function documents the reference location whose observable behavior it
matches (see SURVEY.md §2.2):

- ``normalize_str``          — /root/reference/src/utils/str.py:12-17
- ``normalize_column_name``  — /root/reference/src/utils/column_names.py:16-30
- ``normalize_column_value`` — /root/reference/src/utils/column_values.py:7-11
- ``coerce_str``             — /root/reference/src/utils/coerce.py:5-26
- ``normalize_punctuation``  — /root/reference/src/tablemerge/fragment_transformer.py:145-182
- ``ascii_fold``             — substitute for the ``unidecode`` dependency used
                               at /root/reference/src/tablemerge/tablesfile_merger.py:37-46
                               (package unavailable here; NFKD-based fold)
- ``tokenize_schema``        — /root/reference/src/utils/tokenize_schema.py:1-3
- ``parse_page_range``       — /root/reference/src/paper2table/page_range.py:5-14

These are pure scalar functions; batch stages call ``normalize_str_array``,
which does printable-ASCII values in Arrow and only the rest in Python (the
unicodedata calls force per-string python, but typical corpora are mostly
ASCII).
"""

from __future__ import annotations

import re
import string
import unicodedata
from functools import lru_cache as _lru_cache

import pyarrow as pa
import pyarrow.compute as pc

# --- normalize_str ---------------------------------------------------------

_NONPRINTABLE_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f-\x9f�]")
_CID_RE = re.compile(r"\(cid:(\d+)\)")
_DASH_RE = re.compile(r"[‐‑‒–—―−]")
_WS_RE = re.compile(r"\s+")

_ASCII_SAFE_RE = re.compile(r"^[\x20-\x7e]*$")
# whitespace that actually needs collapsing: a run of ≥2, or any
# whitespace char that isn't a plain space
_WS_DIRTY_RE = re.compile(r"\s{2,}|[^\S ]")


def _replace_cid(match: re.Match) -> str:
    n = int(match.group(1))
    return chr(n) if 160 <= n <= 255 else ""


def normalize_str(value: str) -> str:
    """NFC-normalize, strip non-printables/U+FFFD, decode ``(cid:N)``
    escapes (latin-1 range only), unify the 7 dash variants to ``-`` and
    collapse whitespace.

    Fast path: printable-ASCII input (the overwhelming majority in real
    corpora) skips the unicode/sub chain entirely — each skipped ``sub``
    avoids a string allocation, which is what limits multi-core scaling
    of the extract stage."""
    if _ASCII_SAFE_RE.match(value):
        if "(cid:" in value:
            value = _CID_RE.sub(_replace_cid, value)
        value = value.strip()
        if _WS_DIRTY_RE.search(value):
            value = _WS_RE.sub(" ", value)
        return value
    value = unicodedata.normalize("NFC", value)
    value = _NONPRINTABLE_RE.sub("", value)
    value = _CID_RE.sub(_replace_cid, value)
    value = _DASH_RE.sub("-", value)
    return _WS_RE.sub(" ", value.strip())


# --- normalize_column_name -------------------------------------------------

_VALID_NAME_CHARS = frozenset(string.ascii_lowercase + string.digits + "_")


# \Z, not $: "$" also matches before a TRAILING newline, which would let
# "abc\n" skip normalization as already-canonical (hypothesis-found)
_SNAKE_DONE_RE = re.compile(r"^(?!_)[0-9a-z_]*(?<!_)\Z")


@_lru_cache(maxsize=16384)
def normalize_column_name(name: str | None) -> str | None:
    """normalize_str → NFKD → ASCII-fold → lowercase → snake_case,
    collapse ``__``, strip leading/trailing ``_``. Memoized (column names
    repeat per corpus)."""
    if name is None:
        return None
    if _SNAKE_DONE_RE.match(name) and "__" not in name:
        return name  # already canonical snake_case — no allocations
    name = (
        unicodedata.normalize("NFKD", normalize_str(name))
        .encode("ascii", "ignore")
        .decode("ascii")
    )
    name = name.lower()
    name = "".join(ch if ch in _VALID_NAME_CHARS else "_" for ch in name)
    while "__" in name:
        name = name.replace("__", "_")
    return name.strip("_")


# --- normalize_column_value ------------------------------------------------

NO_DATA_EXPRESSIONS = frozenset({"no data", "none", "not identified"})


@_lru_cache(maxsize=65536)
def normalize_column_value(value: str) -> str:
    """normalize_str + lowercase; maps no-data phrases to ``""``.

    Memoized: the merge engine re-normalizes the same cell values many
    times per doc (row comparison, emptiness checks, vote merge) and
    values repeat heavily across a corpus."""
    normalized = normalize_str(value).lower()
    if normalized in NO_DATA_EXPRESSIONS:
        return ""
    return normalized


# --- coercion --------------------------------------------------------------

_BOOL_TRUE = frozenset({"true", "1", "yes", "on"})
_BOOL_FALSE = frozenset({"false", "0", "no", "off"})

def _scientific_name_type():
    # late import: functions/scientific.py imports from this module
    from .scientific import scientific_name

    return scientific_name


class _LazyColumnTypes(dict):
    """COLUMN_TYPES with the scientific_name entry resolved lazily (it
    lives in functions/scientific.py, which imports this module)."""

    def __missing__(self, key):
        if key == "scientific_name":
            typ = _scientific_name_type()
            self[key] = typ
            return typ
        raise KeyError(key)

    def __contains__(self, key):
        return super().__contains__(key) or key == "scientific_name"


COLUMN_TYPES: dict = _LazyColumnTypes(
    {
        "str": str,
        "int": int,
        "float": float,
        "bool": bool,
    }
)


def coerce_str(value: str, target_type: type) -> str:
    """Parse ``value`` as ``target_type``, return canonical string form;
    unchanged on failure or for str. bool uses word sets, int goes via
    float (``"3.0"`` → ``"3"``)."""
    if target_type is str:
        return value
    try:
        if target_type is bool:
            lowered = value.lower()
            if lowered in _BOOL_TRUE:
                return "True"
            if lowered in _BOOL_FALSE:
                return "False"
            return value
        if target_type is int:
            return str(int(float(value)))
        return str(target_type(value))
    except (ValueError, TypeError):
        return value


# --- punctuation normalization (NormalizePunctuationTransformer) ----------

_GUILLEMETS_RE = re.compile(r"[«»‹›]")
_TYPO_DQUOTES_RE = re.compile(r"[“”]")
_TYPO_SQUOTES_RE = re.compile(r"[‘’´`ʹʻʼʽ′‵]")
_VOWEL_ACUTE_RE = re.compile(r"([aeiouAEIOU])´")
_ELLIPSIS_RE = re.compile("…")
_TRAILING_DOT_RE = re.compile(r"^(.*\S{5,})\.$")


def _combine_vowel_acute(match: re.Match) -> str:
    combined = unicodedata.normalize("NFC", match.group(1) + "́")
    if len(combined) == 1:
        return combined
    return match.group(0)


def normalize_punctuation(text: str) -> str:
    """Dash variants → ``-``; strip guillemets; typographic quotes → ``'``;
    combine vowel+acute; drop one trailing sentence dot after a ≥5-char
    word; ellipsis char → ``...``."""
    if _ASCII_SAFE_RE.match(text):
        # every rewrite except the quote folds (straight double AND the
        # ASCII backtick, both in the reference's quote classes) and the
        # trailing-dot rule targets non-ASCII characters
        if '"' in text:
            text = text.replace('"', "'")
        if "`" in text:
            text = text.replace("`", "'")
        match = _TRAILING_DOT_RE.match(text)
        if match:
            text = match.group(1)
        return text
    text = _DASH_RE.sub("-", text)
    text = _GUILLEMETS_RE.sub("", text)
    text = _TYPO_DQUOTES_RE.sub('"', text)
    text = text.replace('"', "'")
    text = _VOWEL_ACUTE_RE.sub(_combine_vowel_acute, text)
    text = _TYPO_SQUOTES_RE.sub("'", text)
    match = _TRAILING_DOT_RE.match(text)
    if match:
        text = match.group(1)
    text = _ELLIPSIS_RE.sub("...", text)
    return text


# --- ASCII transliteration (unidecode substitute) --------------------------

# Supplement for letters NFKD alone can't fold: Latin special letters
# plus Greek and Cyrillic romanization (standard transliteration values,
# matching unidecode's tables for these scripts). The reference compares
# rows through ``unidecode`` (tablesfile_merger.py:37-46); for scripts
# not covered here the characters are PRESERVED rather than deleted so
# two distinct non-Latin strings can never fold to the same (empty)
# string and spuriously merge.
_GREEK = {
    "α": "a", "β": "b", "γ": "g", "δ": "d", "ε": "e", "ζ": "z", "η": "e",
    "θ": "th", "ι": "i", "κ": "k", "λ": "l", "μ": "m", "ν": "n", "ξ": "x",
    "ο": "o", "π": "p", "ρ": "r", "σ": "s", "ς": "s", "τ": "t", "υ": "u",
    "φ": "ph", "χ": "kh", "ψ": "ps", "ω": "o",
    "Α": "A", "Β": "B", "Γ": "G", "Δ": "D", "Ε": "E", "Ζ": "Z", "Η": "E",
    "Θ": "Th", "Ι": "I", "Κ": "K", "Λ": "L", "Μ": "M", "Ν": "N", "Ξ": "X",
    "Ο": "O", "Π": "P", "Ρ": "R", "Σ": "S", "Τ": "T", "Υ": "U",
    "Φ": "Ph", "Χ": "Kh", "Ψ": "Ps", "Ω": "O",
}
_CYRILLIC = {
    "а": "a", "б": "b", "в": "v", "г": "g", "д": "d", "е": "e", "ё": "io",
    "ж": "zh", "з": "z", "и": "i", "й": "i", "к": "k", "л": "l", "м": "m",
    "н": "n", "о": "o", "п": "p", "р": "r", "с": "s", "т": "t", "у": "u",
    "ф": "f", "х": "kh", "ц": "ts", "ч": "ch", "ш": "sh", "щ": "shch",
    "ъ": "", "ы": "y", "ь": "", "э": "e", "ю": "iu", "я": "ia",
    "А": "A", "Б": "B", "В": "V", "Г": "G", "Д": "D", "Е": "E", "Ё": "Io",
    "Ж": "Zh", "З": "Z", "И": "I", "Й": "I", "К": "K", "Л": "L", "М": "M",
    "Н": "N", "О": "O", "П": "P", "Р": "R", "С": "S", "Т": "T", "У": "U",
    "Ф": "F", "Х": "Kh", "Ц": "Ts", "Ч": "Ch", "Ш": "Sh", "Щ": "Shch",
    "Ъ": "", "Ы": "Y", "Ь": "", "Э": "E", "Ю": "Iu", "Я": "Ia",
}
_TRANSLIT = str.maketrans(
    {
        "ß": "ss",  # ß
        "æ": "ae",
        "Æ": "AE",
        "œ": "oe",
        "Œ": "OE",
        "ø": "o",
        "Ø": "O",
        "đ": "d",
        "Đ": "D",
        "ł": "l",
        "Ł": "L",
        "þ": "th",
        "Þ": "Th",
        "ð": "d",
        "Ð": "D",
        **_GREEK,
        **_CYRILLIC,
    }
)


def ascii_fold(value: str) -> str:
    """Best-effort ASCII transliteration (NFKD + combining-mark strip +
    special-letter/Greek/Cyrillic maps). Used where the reference used
    ``unidecode`` for accent-insensitive row comparison. Characters of
    unmapped scripts (CJK, Arabic, …) are kept verbatim — deleting them
    would collapse distinct values to equal (empty) folds."""
    if _ASCII_SAFE_RE.match(value):
        return value
    # decompose FIRST so precomposed accented letters (ή, ё, é) expose
    # their base character to the transliteration table
    decomposed = unicodedata.normalize("NFKD", value).translate(_TRANSLIT)
    out = []
    for ch in decomposed:
        if ord(ch) < 128:
            out.append(ch)
        elif unicodedata.combining(ch):
            continue  # strip accent marks
        else:
            out.append(ch)  # preserve unmapped scripts
    return "".join(out)


# --- config parsing --------------------------------------------------------


def tokenize_schema(text: str) -> list[str]:
    """``#`` comments, comma/whitespace separators → token list."""
    stripped = " ".join(line.partition("#")[0] for line in text.splitlines())
    return [part.strip() for part in stripped.replace(",", " ").split() if part.strip()]


def parse_hints(text: str) -> list[str]:
    """Column-name hints: tokenized then normalized
    (/root/reference/src/paper2table/hints.py:5-6)."""
    return [normalize_column_name(tok) for tok in tokenize_schema(text)]


class ColumnSchema:
    """User-declared typed schema parsed from ``"col:type"`` tokens
    (/root/reference/src/utils/column_schema.py:22-71). Column names are
    normalized; unknown types raise ValueError."""

    def __init__(self, columns: dict[str, type]):
        self.columns = columns

    @classmethod
    def parse(cls, text: str) -> "ColumnSchema":
        columns: dict[str, type] = {}
        for token in tokenize_schema(text):
            name, sep, type_name = token.partition(":")
            type_name = type_name if sep else "str"
            if type_name not in COLUMN_TYPES:
                raise ValueError(f"Unknown column type: {type_name!r} in {token!r}")
            columns[normalize_column_name(name)] = COLUMN_TYPES[type_name]
        return cls(columns)

    def column_names(self) -> list[str]:
        return list(self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    def __len__(self) -> int:
        return len(self.columns)

    def __bool__(self) -> bool:
        return bool(self.columns)

    def type_of(self, name: str) -> type:
        """Lenient lookup (str default) — used by the coercion hot path."""
        return self.columns.get(name, str)

    # --- reference API (column_schema.py:29-71) -----------------------------

    def column_type(self, name: str) -> type:
        """Strict lookup: KeyError for unknown columns."""
        return self.columns[name]

    def definitions(self) -> list[tuple[str, type]]:
        return list(self.columns.items())

    def serialize(self) -> dict[str, str]:
        COLUMN_TYPES["scientific_name"]  # force the lazy entry
        reverse = {v: k for k, v in COLUMN_TYPES.items()}
        return {col: reverse[typ] for col, typ in self.columns.items()}

    def pydantic_field_description(self, name: str) -> str | None:
        return getattr(self.columns[name], "pydantic_field_description", None)

    @staticmethod
    def from_settings_dict(schema_dict: dict[str, str]) -> "ColumnSchema | None":
        if not schema_dict:
            return None
        return ColumnSchema.parse(
            ",".join(f"{k}:{v}" for k, v in schema_dict.items())
        )

    @staticmethod
    def parse_pydantic(schema_str: str) -> dict:
        """``{name: (type, FieldInfo|...)}`` for pydantic ``create_model``
        (column_schema.py:66-71); descriptions carried for pseudo-types."""
        from pydantic import Field

        result = {}
        for name, typ in ColumnSchema.parse(schema_str).definitions():
            desc = getattr(typ, "pydantic_field_description", None)
            result[name] = (typ, Field(..., description=desc) if desc else ...)
        return result


_PAGE_RANGE_RE = re.compile(r"^(.+):(\d+):(\d+)$")


def parse_page_range(raw_path: str) -> tuple[str, tuple[int, int] | None]:
    """``PATH[:FROM:TO]`` → (path, (from, to)) 1-indexed inclusive.
    Same regex as the reference (page_range.py:11): the path must be
    non-empty and FROM/TO bare digit runs — an rsplit-based version
    accepted '':1:1 and signed/whitespace-padded numbers the reference
    rejects (hypothesis differential, round 5)."""
    match = _PAGE_RANGE_RE.match(raw_path)
    if match:
        return match.group(1), (int(match.group(2)), int(match.group(3)))
    return raw_path, None


# --- table-structure regexes shared with transformers -----------------------

TITLE_ROW_RE = re.compile(r"^((figure|table|figura|tabla)\s+|fig\.\s*)\d+", re.IGNORECASE)
LEADING_NUMBER_RE = re.compile(r"^(\d+)\.\s+")


@_lru_cache(maxsize=65536)
def is_semantic_column(name: str) -> bool:
    """A column name that parses as a float is non-semantic
    (/root/reference/src/tablevalidate/schema.py:43-49). Memoized: the
    Jaccard analyzer probes the same few names once per fragment cluster,
    and the raising float() parse dominates otherwise (profile: 0.19 s /
    50k calls per 1875-doc merge shard)."""
    try:
        float(name)
        return False
    except ValueError:
        return True


# --- vectorized helpers ----------------------------------------------------


def normalize_str_array(values: pa.Array) -> pa.Array:
    """normalize_str over an Arrow string array, nulls kept. Printable
    ASCII without ``(cid:`` has only spaces to trim and collapse, which
    Arrow does (RE2's ``$``, unlike Python's, does not match before a
    trailing newline); every other value goes through ``normalize_str``."""
    ascii_ = pc.match_substring_regex(values, r"^[\x20-\x7e]*$")
    slow = pc.invert(pc.and_(ascii_, pc.invert(pc.match_substring(values, "(cid:"))))
    slow = slow.fill_null(False)
    out = pc.replace_substring_regex(pc.utf8_trim(values, " "), " {2,}", " ")
    rest = [normalize_str(v) for v in values.filter(slow).to_pylist()]
    return pc.replace_with_mask(out, slow, pa.array(rest, pa.string()))
