"""README's token table states how many tokens each module of `src/qk`
has and which of CPython's parser steps (2,048 and 4,096 tokens, each a
block of token records that costs peak memory when a module is compiled)
it is past.  Each module is recounted here, so a change that moves a count
without the table, or crosses a step without showing it, fails."""

import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "qk"
STEPS = (2048, 4096)
# what the parser never sees: comments, blank lines and the encoding marker
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def table_rows() -> dict[str, tuple[int, str]]:
    """module file name -> (tokens, last step past) for each row."""
    text = README.read_text()
    section = text.split("| module | tokens | past |\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in section.splitlines()[1:]:
        module, tokens, past = (c.strip() for c in line.strip("|").split(" | "))
        rows[module.strip("`")] = (int(tokens.replace(",", "")), past)
    return rows


def count_tokens(path: Path) -> int:
    with path.open("rb") as f:
        return sum(1 for tok in tokenize.tokenize(f.readline) if tok.type not in SKIPPED)


def past(tokens: int) -> str:
    crossed = [f"{step:,}" for step in STEPS if tokens > step]
    return crossed[-1] if crossed else "-"


ROWS = table_rows()


def test_every_module_has_its_row():
    assert set(ROWS) == {p.name for p in PACKAGE.glob("*.py")}


@pytest.mark.parametrize("module", sorted(ROWS))
def test_row_is_the_recount(module):
    tokens = count_tokens(PACKAGE / module)
    assert ROWS[module] == (tokens, past(tokens))
