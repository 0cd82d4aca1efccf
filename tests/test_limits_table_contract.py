"""README's "Limits" table states the code's caps.  Each row's value must be
the constant the row names, and running qk one above that constant must
exit 3 with the message the row lists, so a cap moved in the code without
the table (or the other way round) fails here."""

import re
from pathlib import Path

import pytest

import qk.checks
import qk.edgelist
import qk.kernels
import qk.qt
from qk.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {m.__name__: m for m in (qk.checks, qk.edgelist, qk.kernels, qk.qt)}


def table_rows() -> dict[str, tuple[int, str, int, str]]:
    """limit -> (value, constant's name, constant's value, message) for
    each row."""
    text = README.read_text()
    section = text.split("### Limits\n", 1)[1].split("\n#", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip("|").split(" | ")]
        if len(cells) != 5 or cells[0] == "limit":
            continue
        limit, value, _, message, exit_code = cells
        assert exit_code == "3", limit
        found = re.search(r"≤ ([0-9,]+) \(`(qk\.\w+)\.(\w+)`", value)
        assert found, f"row {limit!r} names no cap constant"
        number, module, name = found.groups()
        constant = getattr(MODULES[module], name)
        rows[limit] = (int(number.replace(",", "")), f"{module}.{name}", constant, message.strip("`"))
    return rows


ROWS = table_rows()


def test_every_cap_has_its_row():
    assert {name for _, name, _, _ in ROWS.values()} == {
        "qk.edgelist.MAX_VERTICES",
        "qk.qt.ENUM_CAP",
        "qk.kernels.SEARCH_CAP",
        "qk.checks.MAX_LEMMA_K",
    }


@pytest.mark.parametrize("limit", sorted(ROWS))
def test_value_is_the_constant(limit):
    value, _, constant, _ = ROWS[limit]
    assert value == constant


def _edge_file(tmp_path, n):
    p = tmp_path / "g.edges"
    p.write_text(f"{n} 0\n")
    return str(p)


# limit -> {test id: argv that asks for one more than the cap (the cap is
# passed in)} for each command the row names; a row's first case is named
# after the row, and the hunt's after the order it refuses
ABOVE = {
    "edge-list header": {
        "edge-list header": lambda cap, tmp: ["check", _edge_file(tmp, cap + 1), "--k", "2"],
    },
    "`--k` and `--k-list` values": {
        "`--k` and `--k-list` values": lambda cap, tmp: ["check", _edge_file(tmp, 3), "--k", str(cap + 1)],
    },
    "k-path enumeration": {
        "k-path enumeration": lambda cap, tmp: ["check", _edge_file(tmp, cap + 1), "--k", "2"],
    },
    "subset kernel search": {
        "subset kernel search": lambda cap, tmp: ["kernel", _edge_file(tmp, cap + 1), "--k", "2"],
        "hunt order": lambda cap, tmp: ["hunt", "--k", "2", "--n-max", str(cap + 1)],
    },
    "lemmas k": {"lemmas k": lambda cap, tmp: ["lemmas", "--k-list", str(cap + 1)]},
}
DRIVES = [pytest.param(limit, case, id=case) for limit in sorted(ABOVE) for case in ABOVE[limit]]


def test_every_row_is_driven():
    assert set(ABOVE) == set(ROWS)


@pytest.mark.parametrize("limit, case", DRIVES)
def test_one_above_the_cap_gives_the_listed_message(limit, case, capsys, tmp_path):
    _, _, constant, message = ROWS[limit]
    argv = ABOVE[limit][case](constant, tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors leave this way
        code = exc.code
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.endswith(f": {message}\n")
