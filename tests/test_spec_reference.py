"""README's spec reference matches the spec reader's schema rows.

Each row of the "Spec reference" table names one row of
:data:`repro.serialization.SPEC_SCHEMA` with its required keys (in the
order the reader checks them) and its optional keys.  The table is
checked both ways: a missing row, a stale row and a wrong key list each
fail.
"""

import pathlib
import re

from repro.serialization import SPEC_SCHEMA

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def reference_rows():
    """``{row name: (required, optional)}`` from README's table."""
    section = README.read_text().split("### Spec reference", 1)[1].split("\n#", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[0].startswith("`"):
            continue
        name = cells[0].strip("`")
        assert name not in rows, f"README lists spec row {name!r} twice"
        rows[name] = tuple(
            tuple(re.findall(r"`([^`]+)`", cell)) for cell in cells[1:]
        )
    return rows


def test_every_schema_row_is_documented():
    documented = reference_rows()
    missing = sorted(set(SPEC_SCHEMA) - set(documented))
    assert not missing, f"spec rows missing from README: {missing}"


def test_every_documented_row_exists():
    stale = sorted(set(reference_rows()) - set(SPEC_SCHEMA))
    assert not stale, f"README documents spec rows the reader lacks: {stale}"


def test_documented_keys_match_the_schema():
    documented = reference_rows()
    wrong = {
        name: (documented[name], (row.required, row.optional))
        for name, row in SPEC_SCHEMA.items()
        if name in documented
        and documented[name] != (row.required, row.optional)
    }
    assert not wrong, f"README key lists differ from the schema: {wrong}"
