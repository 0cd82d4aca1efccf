"""File format: canonical emission, tolerant parsing, line-numbered errors."""

import hashlib
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qk.edgelist
from bruteforce import two_pass_parse
from instances import chorded_path, cycle, d4, gnp, long_tournament, two_cycles
from qk import build, census, construct_kplus2_kernel, find_kplus1_king_fast
from qk.edgelist import (
    _CHUNK, MAX_VERTICES, _bulk_parse, _parse_lines, content_digest, emit, parse, read_digraph,
    write_digraph,
)
from qk.errors import EdgeListParseError
from strategies import digraphs


class TestEmit:
    def test_golden_form(self):
        assert emit(d4()) == "4 5\n0 1\n1 2\n1 3\n2 3\n3 2\n"

    def test_empty_digraph(self):
        assert emit(build(0, [])) == "0 0\n"

    def test_isolated_vertices(self):
        assert emit(build(3, [(2, 0)])) == "3 1\n2 0\n"

    @given(st.one_of(digraphs(), st.integers(0, 70).map(lambda n: build(n, []))))
    def test_matches_text_built_from_arcs(self, d):
        arcs = d.arcs()
        assert emit(d) == f"{d.n} {len(arcs)}\n" + "".join(f"{u} {v}\n" for u, v in arcs)

    @pytest.mark.parametrize("n", [64, 130, 500])
    @pytest.mark.parametrize("p", [0.005, 0.02, 0.3])
    def test_sparse_and_dense_rows(self, n, p):
        # a row with fewer than n / 64 heads is walked bit by bit, any
        # other row spelled out in binary; these sizes mix both
        d = gnp(n, p, seed=n)
        arcs = d.arcs()
        assert emit(d) == f"{d.n} {len(arcs)}\n" + "".join(f"{u} {v}\n" for u, v in arcs)


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

# one more digit than int() converts by default (sys.get_int_max_str_digits)
_HUGE = "1" * 4301


def _shaped_faults(n: int, body: list[str]) -> list[str]:
    """Lines of digits, one space, digits: the bulk reader's shape check
    passes them, and it must still read or decline each one as the line
    loop would.  Leading zeros, a field int() refuses, an out-of-range head
    and tail, a loop and a duplicate."""
    return [f"00{n - 1} 0", f"{_HUGE} 0", f"0 {_HUGE}", f"{n} 0", f"0 {n}",
            f"{n - 1} {n - 1}", *body[:1]]


@st.composite
def edge_list_texts(draw):
    """Edge-list texts that are mostly well formed, with every fault the
    parser reports mixed in: field counts, non-integers, negative headers,
    out-of-range ids, loops, duplicates, too many and too few arcs.  Half
    are in the bulk reader's shape (no comment, blank, tab or CR, LF after
    every line) with only faults that keep that shape, so each of its
    bail-outs is reached: see _shaped_faults, and m one off the count."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    body = [f"{u} {v}" for u, v in arcs]
    shaped = draw(st.booleans())
    faulty = _shaped_faults(n, body)
    if not shaped:
        faulty = _ODD_LINES + faulty + ["0 -1"]
    for pos, line in draw(st.lists(st.tuples(st.integers(0, 8), st.sampled_from(faulty)), max_size=3)):
        body.insert(pos % (len(body) + 1), line)
    count = sum(1 for line in body if len(line.split()) == 2)
    m = max(count + draw(st.sampled_from([0, 0, 0, 0, -1, 1])), 0)
    headers = [f"{n} {m}"] * 6 + [f"0{n} {m}", f"{_HUGE} {m}"]
    if shaped:
        return "\n".join([draw(st.sampled_from(headers)), *body]) + "\n"
    header = draw(st.sampled_from(headers + [f"-{n + 1} {m}", ""]))
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
        rows = [0] * d.n
        for u, v in d.arcs():
            rows[u] |= 1 << v
        assert d.masks == tuple(rows)


@pytest.fixture(scope="module")
def lt500():
    d = long_tournament(500)
    return d, emit(d)


def _refuse_line_loop(monkeypatch):
    def refuse(text):
        raise AssertionError("entered the line loop")

    monkeypatch.setattr(qk.edgelist, "_parse_lines", refuse)


class TestBulkReader:
    def test_canonical_text_skips_the_line_loop(self, lt500, monkeypatch, tmp_path):
        d, text = lt500
        _refuse_line_loop(monkeypatch)
        assert parse(text) == d
        p = tmp_path / "lt500.edges"
        p.write_text(text)
        assert read_digraph(str(p)) == d

    def test_commented_text_takes_the_line_loop(self, lt500, monkeypatch):
        _, text = lt500
        _refuse_line_loop(monkeypatch)
        with pytest.raises(AssertionError, match="line loop"):
            parse("# a long tournament\n" + text)

    def test_peak_memory_of_a_canonical_parse(self, lt500):
        # the text is read a block of lines at a time; the line loop, which
        # splits this 0.9 MB text into its lines at once, peaks at 8 MB on it
        _, text = lt500
        tracemalloc.start()
        try:
            parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000

    def test_file_peak_does_not_grow_with_the_file(self, lt500, tmp_path):
        # LT500's file and one a quarter as long on the same 500 vertices:
        # the reader holds one block and its tokens besides the rows, so
        # the peaks differ by less than one block's tokens (a reader that
        # held the file would differ by the 0.7 MB between them)
        d, text = lt500
        short = build(d.n, d.arcs()[::4])
        peaks = []
        for name, g in (("long", d), ("short", short)):
            p = tmp_path / f"{name}.edges"
            p.write_text(emit(g))
            tracemalloc.start()
            try:
                assert read_digraph(str(p)) == g
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        block = text[:text.rindex("\n", 0, _CHUNK) + 1].encode().split()
        tokens = sys.getsizeof(block) + sum(map(sys.getsizeof, block))
        assert len(text) > 3.9 * len(emit(short))
        assert abs(peaks[0] - peaks[1]) < tokens

    def test_commented_file_is_never_held_whole(self, lt500, tmp_path):
        # one comment line sends LT500's file to the line loop; holding its
        # bytes, a str copy and every line at once peaked at 9.4 MB
        d, text = lt500
        p = tmp_path / "commented.edges"
        p.write_text("# a long tournament\n" + text)
        tracemalloc.start()
        try:
            assert read_digraph(str(p)) == d
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_id_table_falls_back_chunk_by_chunk(self, lt500):
        # a leading zero in the second chunk is read by int(); an id out of
        # range in the third makes the bulk reader decline, and the line
        # loop then reports the same error as the oracle
        _, text = lt500
        lines = text.split("\n")
        offsets = [0]
        for line in lines:
            offsets.append(offsets[-1] + len(line) + 1)
        start = offsets[1]
        second = next(i for i, at in enumerate(offsets) if at > start + 1.5 * _CHUNK)
        third = next(i for i, at in enumerate(offsets) if at > start + 2.5 * _CHUNK)
        u, v = lines[second].split()
        lines[second] = f"0{u} {v}"
        zeroed = "\n".join(lines)
        assert _bulk_parse(zeroed.encode("ascii")) == two_pass_parse(zeroed) == parse(text)
        u, _ = lines[third].split()
        lines[third] = f"{u} 500"
        bad = "\n".join(lines)
        assert _bulk_parse(bad.encode("ascii")) is None
        with pytest.raises(EdgeListParseError) as expected:
            two_pass_parse(bad)
        with pytest.raises(EdgeListParseError) as got:
            parse(bad)
        assert (got.value.line, got.value.message) == (expected.value.line, expected.value.message)
        assert got.value.line == third + 1

    @pytest.mark.parametrize(
        "text",
        [
            "", "\n", "2 0", "2 1\n0 1", "2 0\n55", " 2 1\n0 1\n", "2 1\n 0 1\n",
            "2 1\n0 \n", "2 1\n0  1\n", "2 1\r\n0 1\r\n", "2 1\n0\t1\n", "# c\n2 0\n",
            "2 1\n\n0 1\n", "2 1\n0 -1\n", "2 1\n+0 1\n",
            f"{MAX_VERTICES + 1} 0\n", "3 2\n0 1\n", "3 0\n0 1\n",
            f"{_HUGE} 0\n", f"2 1\n{_HUGE} 1\n", f"2 1\n0 {_HUGE}\n",
            "2 1\n2 0\n", "2 1\n0 2\n", "2 1\n1 1\n", "3 2\n0 1\n0 1\n",
        ],
    )
    def test_declines_what_it_cannot_prove(self, text):
        assert _bulk_parse(text.encode("ascii")) is None

    @pytest.mark.parametrize(
        "text,arcs",
        [("0 0\n", []), ("3 2\n2 0\n0 1\n", [(2, 0), (0, 1)]), ("0012 1\n007 011\n", [(7, 11)])],
    )
    def test_reads_unsorted_arcs_and_leading_zeros(self, text, arcs):
        n = int(text.split()[0])
        assert _bulk_parse(text.encode("ascii")) == build(n, arcs) == two_pass_parse(text)


def _fault(kind: str, lines: list[str], at: int, n: int) -> tuple[list[str], str]:
    """lines (a canonical text's lines, header first, no LF) with one fault
    of kind at line index at >= 2, and the text's ending."""
    u, v = lines[at].split()
    if kind == "leading zero":
        lines[at] = f"0{u} {v}"
    elif kind == "out of range":
        lines[at] = f"{u} {n}"
    elif kind == "loop":
        lines[at] = f"{u} {u}"
    elif kind == "duplicate":
        lines[at] = lines[at - 1]
    elif kind == "too few arcs":
        del lines[at]
    elif kind == "too many arcs":
        lines.insert(at, lines[at])
    elif kind == "CRLF line":
        lines[at] += "\r"
    elif kind == "comment line":
        lines.insert(at, "# a comment")
    elif kind == "non-ASCII byte":
        lines.insert(at, "# caf\u00e9")
    return lines, "" if kind == "missing final LF" else "\n"


FAULTS = ["none", "leading zero", "out of range", "loop", "duplicate", "too few arcs",
          "too many arcs", "missing final LF", "CRLF line", "comment line", "non-ASCII byte"]


def _outcome(read, *args):
    """The digraph read() returns, or the (line, message) it raises."""
    try:
        return read(*args)
    except EdgeListParseError as exc:
        return exc.line, exc.message


class TestBlockBoundaries:
    @settings(max_examples=300, deadline=None)
    @given(digraphs(max_n=12).filter(lambda d: d.arc_count > 1), st.sampled_from(FAULTS),
           st.floats(0.5, 1.0), st.integers(1, 24))
    def test_every_reader_agrees(self, tmp_path_factory, d, kind, where, chunk):
        # blocks of a few bytes put every line boundary, the header's end
        # and the fault at or across a block boundary; the fault sits in
        # the second half of the text, in a later block than the header
        lines = emit(d).split("\n")[:-1]
        at = max(2, min(len(lines) - 1, int(where * len(lines))))
        lines, ending = _fault(kind, lines, at, d.n)
        text = "\n".join(lines) + ending
        p = tmp_path_factory.getbasetemp() / "blocks.edges"
        p.write_bytes(text.encode())
        expected = _outcome(_parse_lines, text.splitlines())
        with mock.patch.object(qk.edgelist, "_CHUNK", chunk):
            assert _outcome(parse, text) == expected
            got = _outcome(read_digraph, str(p))
            bulk = _bulk_parse(text.encode())
        if kind == "non-ASCII byte":  # a file must be ASCII; a str need not
            expected = (at + 1, "non-ASCII byte 0xc3")
        assert got == expected
        if kind in ("none", "leading zero"):
            assert bulk == expected == d
        else:
            assert bulk is None


class TestWholeRows:
    def test_file_commands_build_no_arc_tuples(self, lt500, tmp_path):
        # the file path works on whole bitmask rows: reading, digesting and
        # the king and kernel work; a Digraph has no per-arc view to build
        _, text = lt500
        p = tmp_path / "lt500.edges"
        p.write_text(text)
        d = read_digraph(str(p))
        content_digest(d)
        assert find_kplus1_king_fast(d, 4) is not None
        assert construct_kplus2_kernel(d, 4).verified
        assert not census(d, 4).failed_audits


class TestDigest:
    def test_matches_sha256_of_canonical_text(self, tmp_path):
        # n = 0, no arc, rows walked bit by bit (fewer than n / 64 heads),
        # rows spelled in binary, and a 943 KB text
        p = tmp_path / "d.edges"
        for d in (d4(), build(0, []), build(70, []), gnp(500, 0.005, seed=1), gnp(130, 0.3, seed=2),
                  long_tournament(500)):
            expected = hashlib.sha256(emit(d).encode()).hexdigest()
            assert content_digest(d) == expected
            assert write_digraph(str(p), d) == expected
            assert p.read_text() == emit(d)

    def test_peak_memory_stays_below_the_text(self, lt500):
        # the text is hashed a row at a time, never held whole
        d, text = lt500
        tracemalloc.start()
        try:
            content_digest(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(text) / 4

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
        [(b"# caf\xc3\xa9\n2 1\n0 1\n", 1), (b"2 1\r\n\r\n0 1 \xff\n", 3), (b"\xc3", 1),
         # the byte wins over the earlier bad line, whose error the loop raises first
         (b"2 1\n0 1 1\n\x0c# caf\xc3\xa9\n", 4)],
    )
    def test_non_ascii_byte_names_file_and_line(self, tmp_path, data, line):
        p = tmp_path / "accent.edges"
        p.write_bytes(data)
        with pytest.raises(EdgeListParseError) as exc:
            read_digraph(str(p))
        assert exc.value.source == str(p)
        assert exc.value.line == line
        assert exc.value.message.startswith("non-ASCII byte 0x")
