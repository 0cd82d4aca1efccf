"""README's "Counting audits" table names every census row.  The census is
run over fixtures that between them reach every row, and the tags seen
must be exactly the tags the table lists, so a row added to or dropped
from `qk.kings` without the table (or the other way round) fails here."""

import re
from pathlib import Path

from instances import cycle, d4, long_tournament, no_two_king_blowup, path
from qk.kings import census

README = Path(__file__).resolve().parent.parent / "README.md"


def table_tags():
    text = README.read_text()
    section = text.split("### Counting audits\n", 1)[1].split("\n#", 1)[0]
    return {m.group(1) for m in re.finditer(r"^\| `([a-z0-9-]+)` \|", section, re.M)}


def census_tags():
    cases = [(d4(), 4), (path(6), 2), (no_two_king_blowup(), 2)]
    cases += [(cycle(k + 1), k) for k in range(2, 6)]
    cases += [(long_tournament(k + 3), k) for k in range(2, 6)]
    return {row.tag for d, k in cases for row in census(d, k).counting_audit}


def test_readme_table_lists_every_census_row():
    assert table_tags() == census_tags()

