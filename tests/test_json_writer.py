"""qk.cli.write_json against the oracle in json_oracle.py: the same bytes
for every report value, a TypeError for anything else, and the document
written in batches."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from json_oracle import dumps
from qk.checks import CheckResult, Violation
from qk.cli import write_json
from qk.kings import AuditRow, KingReport


def written(doc) -> str:
    parts = []
    write_json(doc, parts.append)
    return "".join(parts)


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, 2.0, 0.1, -0.0, 1e300, 5e-324]),
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f", "é ü", " ", "😀", '"\\/']),
)
keys = st.one_of(st.text(), st.integers(), st.sampled_from([2, 10]), st.booleans(), st.none(),
                 st.floats(allow_nan=False))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5),
        st.builds(AuditRow, children, children, children, children),
        st.builds(Violation, children, children, children, children, children, children),
        st.builds(CheckResult, children, children, children, children, children),
    )


values = st.recursive(scalars, containers, max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(values)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example([2.0, 0.1])
@example({2: "two", 10: "ten"})
@example({"é\x01": "\x00ü "})
@example([[], (), {}, [[]]])
@example((True, False, None))
@example(AuditRow("tag", "", (), {}))
def test_writer_matches_the_oracle(doc):
    assert written(doc) == dumps(doc)


def test_report_record_matches_the_oracle():
    rep = KingReport(3, (0.0, 1.0, math.inf), {4: (0,), 10: ()}, True, (0,), 0, 2, (0,))
    doc = {"command": "kings", "input_digest": None, "result": rep, "tool_version": "0.1.0"}
    assert written(doc) == dumps(doc)
    assert json.loads(written(rep))["ecc_out"] == [0, 1, None]


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", object(), [1, frozenset()], {"k": 1j}])
def test_unknown_types_raise_type_error(value):
    with pytest.raises(TypeError):
        dumps(value)
    with pytest.raises(TypeError):
        written(value)


def test_large_document_is_written_in_batches():
    doc = {"rows": [(i, "x" * 10, i / 3) for i in range(20_000)]}
    chunks = []
    write_json(doc, chunks.append)
    assert "".join(chunks) == dumps(doc)
    assert len(chunks) > 10
    assert max(map(len, chunks)) < len("".join(chunks)) / 10


def test_iterators_are_arrays_drawn_as_written():
    # qk check hands its violations over as an iterator: each item is
    # drawn as it is written, and the first batch goes out before the last
    # item is drawn
    drawn = []

    def rows():
        for i in range(20_000):
            drawn.append(i)
            yield (i, "x" * 10)

    seen_at_write = []
    parts = []

    def write(text):
        seen_at_write.append(len(drawn))
        parts.append(text)

    write_json({"empty": iter(()), "rows": rows()}, write)
    assert "".join(parts) == dumps({"empty": [], "rows": [(i, "x" * 10) for i in range(20_000)]})
    assert len(seen_at_write) > 10
    assert seen_at_write[0] < 20_000 / 10
