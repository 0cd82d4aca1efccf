"""File format: canonical emission, tolerant parsing, line-numbered errors."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import two_pass_parse
from instances import chorded_path, cycle, d4, two_cycles
from qk import build
from qk.edgelist import MAX_VERTICES, content_digest, emit, parse, read_digraph, write_digraph
from qk.errors import EdgeListParseError
from strategies import digraphs


class TestEmit:
    def test_golden_form(self):
        assert emit(d4()) == "4 5\n0 1\n1 2\n1 3\n2 3\n3 2\n"

    def test_empty_digraph(self):
        assert emit(build(0, [])) == "0 0\n"

    def test_isolated_vertices(self):
        assert emit(build(3, [(2, 0)])) == "3 1\n2 0\n"


class TestParse:
    def test_round_trip_fixtures(self):
        for d in (d4(), cycle(5), chorded_path(3), two_cycles(), build(1, [])):
            assert parse(emit(d)) == d

    @given(digraphs())
    def test_round_trip_random(self, d):
        assert parse(emit(d)) == d

    def test_comments_blanks_and_whitespace(self):
        text = "# a digraph\n\n  3 2\n0 1\n   # interior comment\n\t1 2  \n"
        assert parse(text) == build(3, [(0, 1), (1, 2)])

    def test_no_trailing_newline(self):
        assert parse("2 1\n0 1") == build(2, [(0, 1)])

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("", 1, "missing header"),
            ("# only comments\n", 2, "missing header"),
            ("3\n", 1, "two fields"),
            ("3 2 9\n", 1, "two fields"),
            ("a b\n", 1, "integers"),
            ("-1 0\n", 1, "negative header"),
            ("3 1\n0 x\n", 2, "integers"),
            # a field reads -?[0-9]+, which int() alone would widen
            ("+1 0\n", 1, "integers"),
            ("3 1\n0 +1\n", 2, "integers"),
            ("3 1\n1_0 1\n", 2, "integers"),
            ("0_3 +1\n0 1_2\n", 1, "integers"),
            ("3 1\n0 \u0661\n", 2, "integers"),
            ("3 1\n0 5\n", 2, "out of range"),
            ("3 1\n0 -1\n", 2, "out of range"),
            ("3 1\n1 1\n", 2, "loop"),
            ("3 2\n0 1\n0 1\n", 3, "duplicate"),
            ("3 1\n0 1\n1 2\n", 3, "more than the 1 arcs"),
            ("3 2\n0 1\n", 3, "announced 2 arcs but file has 1"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line, fragment):
        with pytest.raises(EdgeListParseError) as exc:
            parse(text)
        assert exc.value.line == line
        assert fragment in exc.value.message

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            # a bad line anywhere beats an earlier range, loop or duplicate
            ("3 2\n0 5\n1 2 3\n", 3, "two fields"),
            ("3 2\n1 1\n0 x\n", 3, "integers"),
            ("3 1\n0 0\n0 1\n", 3, "more than the 1 arcs"),
            # too few arcs beats a duplicate
            ("3 3\n0 1\n0 1\n", 4, "announced 3 arcs but file has 2"),
            # among arc faults the first line wins, whatever its kind
            ("3 3\n0 1\n0 1\n2 2\n", 3, "duplicate"),
            ("3 3\n2 2\n0 1\n0 1\n", 2, "loop"),
            ("3 3\n0 1\n0 1\n0 9\n", 3, "duplicate"),
        ],
    )
    def test_competing_faults(self, text, line, fragment):
        for parser in (parse, two_pass_parse):
            with pytest.raises(EdgeListParseError) as exc:
                parser(text)
            assert exc.value.line == line
            assert fragment in exc.value.message

    def test_header_bound(self):
        with pytest.raises(EdgeListParseError) as exc:
            parse(f"# big\n{MAX_VERTICES + 1} 0\n")
        assert exc.value.line == 2
        assert f"limit of {MAX_VERTICES}" in exc.value.message

    def test_header_at_bound_is_accepted(self):
        assert parse(f"{MAX_VERTICES} 0\n").n == MAX_VERTICES

    def test_masks_come_from_the_parser(self):
        d = parse(emit(d4()))
        assert d.masks == d4().masks


_ODD_LINES = [
    "", "   ", "# note", "  # 1 2", "1", "1 2 3", "x 1", "1 y", "-3 1", "\t0\t1 ",
    "+0 1", "0 1_0", "0 \u0661",
]


@st.composite
def edge_list_texts(draw):
    """Edge-list texts that are mostly well formed, with every fault the
    parser reports mixed in: field counts, non-integers, negative headers,
    out-of-range ids, loops, duplicates, too many and too few arcs."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    body = [f"{u} {v}" for u, v in arcs]
    faulty = [f"{n} 0", f"0 {n + 1}", "0 -1", f"{n - 1} {n - 1}", *body[:1]]
    odd = st.sampled_from(_ODD_LINES + faulty)
    for pos, line in draw(st.lists(st.tuples(st.integers(0, 8), odd), max_size=3)):
        body.insert(pos % (len(body) + 1), line)
    count = sum(1 for line in body if len(line.split()) == 2)
    m = max(count + draw(st.sampled_from([0, 0, 0, 0, -1, 1])), 0)
    header = draw(st.sampled_from([f"{n} {m}"] * 6 + [f"-{n + 1} {m}", ""]))
    lead = draw(st.lists(st.sampled_from(["", "# c"]), max_size=2))
    ending = draw(st.sampled_from(["\n", "", "\r\n"]))
    return ending.join([*lead, header, *body]) + ending


class TestParseAgainstTwoPassOracle:
    @settings(max_examples=400, deadline=None)
    @given(edge_list_texts())
    def test_same_digraph_or_same_error(self, text):
        try:
            expected = two_pass_parse(text)
        except EdgeListParseError as exc:
            with pytest.raises(EdgeListParseError) as got:
                parse(text)
            assert (got.value.line, got.value.message) == (exc.line, exc.message)
            return
        d = parse(text)
        assert d == expected
        assert d.masks == tuple(sum(1 << y for y in row) for row in d.adj)


class TestDigest:
    def test_matches_sha256_of_canonical_text(self):
        d = d4()
        assert content_digest(d) == hashlib.sha256(emit(d).encode()).hexdigest()

    def test_formatting_invariant(self):
        # a sloppily formatted file digests identically once parsed
        sloppy = "# hi\n4 5\n0 1\n1 2\n1 3\n2 3\n\n3 2\n"
        assert content_digest(parse(sloppy)) == content_digest(d4())

    def test_distinguishes_digraphs(self):
        assert content_digest(d4()) != content_digest(cycle(4))


class TestFiles:
    def test_write_then_read(self, tmp_path):
        p = tmp_path / "d.edges"
        digest = write_digraph(str(p), chorded_path(2))
        assert digest == content_digest(chorded_path(2))
        assert read_digraph(str(p)) == chorded_path(2)

    def test_read_error_names_file(self, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("2 1\n1 1\n")
        with pytest.raises(EdgeListParseError) as exc:
            read_digraph(str(p))
        assert "bad.edges" in str(exc.value)
        assert exc.value.line == 2
        assert exc.value.message == "loop arc (1, 1)"

    @pytest.mark.parametrize(
        "data,line",
        [(b"# caf\xc3\xa9\n2 1\n0 1\n", 1), (b"2 1\r\n\r\n0 1 \xff\n", 3), (b"\xc3", 1)],
    )
    def test_non_ascii_byte_names_file_and_line(self, tmp_path, data, line):
        p = tmp_path / "accent.edges"
        p.write_bytes(data)
        with pytest.raises(EdgeListParseError) as exc:
            read_digraph(str(p))
        assert exc.value.source == str(p)
        assert exc.value.line == line
        assert exc.value.message.startswith("non-ASCII byte 0x")
