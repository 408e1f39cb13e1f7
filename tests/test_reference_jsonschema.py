"""Validate OUR written .tables.json files against the REFERENCE'S own
JSON Schema (/root/reference/tablesfile.schema.json) with the jsonschema
library — the strongest interchange-parity gate available: a reference
user pointing their tooling at our output must see schema-valid files.

(Our tablevalidate CLI implements equivalent checks natively; this test
pins against the reference's actual schema document instead.)
"""

import glob
import json
from pathlib import Path

import jsonschema
import pytest

from paper2table_ray.cli import main

REF_SCHEMA_PATH = Path("/root/reference/tablesfile.schema.json")
pytestmark = pytest.mark.skipif(
    not REF_SCHEMA_PATH.exists(), reason="reference checkout unavailable"
)
REF_SCHEMA = json.load(open(REF_SCHEMA_PATH)) if REF_SCHEMA_PATH.exists() else None
REF_RESULTSETS = sorted(glob.glob("/root/reference/tests/data/demo_resultsets/*/"))


@pytest.mark.usefixtures("ray_session")
def test_merged_outputs_validate_against_reference_schema(tmp_path):
    merged = tmp_path / "merged"
    assert main(["tablemerge", *REF_RESULTSETS, "-o", str(merged)]) == 0
    out = next(merged.iterdir())
    files = sorted(out.glob("*.tables.json"))
    assert len(files) >= 3
    validator = jsonschema.Draft202012Validator(REF_SCHEMA)
    for path in files:
        obj = json.loads(path.read_text())
        errors = list(validator.iter_errors(obj))
        assert not errors, f"{path.name}: {errors[:3]}"


def test_reference_demo_fixture_schema_discrepancy_pinned():
    """Documented reference quirk: two of its demo fixtures carry RAW
    INTEGER cell values (large_dataset.tables.json,
    ``estimated_population: 7050``) which its own published schema
    rejects (cells must be string | null | ValueWithAgreement[] —
    tablesfile.schema.json $defs/row); the pydantic loader coerces them
    on read (schema.py extra="allow" + str coercion). We mirror the
    LOADER's tolerance (our reader parses these fixtures losslessly —
    tests/test_tablesfile_io.py) while our WRITER emits schema-valid
    strings (the test above). Pin both sides of the quirk so a schema
    or fixture change in a future reference drop is noticed."""
    validator = jsonschema.Draft202012Validator(REF_SCHEMA)
    valid, invalid = [], []
    for d in REF_RESULTSETS:
        for path in sorted(glob.glob(f"{d}/*.tables.json")):
            obj = json.load(open(path))
            (invalid if list(validator.iter_errors(obj)) else valid).append(
                path.rsplit("/", 1)[-1]
            )
    assert len(valid) >= 5
    # exactly the integer-cell fixtures fail
    assert set(invalid) == {"large_dataset.tables.json"} or all(
        n == "large_dataset.tables.json" for n in invalid
    )
