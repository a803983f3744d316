import csv
import logging
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbdom import (
    ParseError,
    UnsupportedFormatError,
    build_graph,
    gen_gnp,
    parse_edge_list,
    parse_matrix_market,
    write_edge_list,
    write_report_csv,
)
from rbdom import graph
from rbdom.io import _bulk_edge_list, round_half_up
from rbdom.pipeline import AggregateStats, RunReport

from conftest import (
    complete_graph,
    parse_edge_list_reference,
    path_graph,
    random_graph,
    write_edge_list_reference,
)


def test_parse_edge_list_p3():
    g = parse_edge_list("3 2\n0 1\n1 2")
    assert g == path_graph(3)


def test_parse_edge_list_duplicate_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="rbdom.io"):
        g = parse_edge_list("2 2\n0 1\n0 1")
    assert g.m == 1
    assert "1 duplicate" in caplog.text


def test_parse_edge_list_out_of_range_names_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("2 1\n0 5")


@pytest.mark.parametrize(
    "text, line",
    [
        pytest.param("3000000000 0\n", 1, id="plain_text"),
        pytest.param("# big\n3000000000 0\n", 2, id="after_comment"),
    ],
)
def test_parse_edge_list_over_vertex_cap_names_line(text, line):
    # the plain-text reader defers to the scanner, so both paths name the line
    with pytest.raises(ParseError) as excinfo:
        parse_edge_list(text)
    assert str(excinfo.value) == (
        f"line {line}: vertex count 3000000000 exceeds the supported 2^31 limit"
    )


def test_parse_edge_list_malformed():
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list("3\n0 1")
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("2 1\nx y")
    with pytest.raises(ParseError):
        parse_edge_list("2 2\n0 1")
    with pytest.raises(ParseError):
        parse_edge_list("# only a comment")


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("20 1\n0 1_0\n", "line 2: non-integer edge", id="underscore_digits"),
        pytest.param("20 1\n0 \u0661\n", "line 2: non-integer edge", id="arabic_digit"),
        pytest.param("2_0 1\n0 1\n", "line 1: non-integer header", id="underscore_header"),
        pytest.param("9" * 5000 + " 0\n", "line 1: non-integer header", id="past_int_digit_limit"),
        pytest.param("20 1\n0 +-1\n", "line 2: non-integer edge", id="two_signs"),
        pytest.param("20 1\n0 \u20281\n", "line 2: non-integer edge", id="unicode_line_separator"),
        pytest.param("20 1\n0 1\x85\n", "line 2: non-integer edge", id="next_line_character"),
        pytest.param("2 1\n\f0 5\n", "line 2: edge (0, 5) out of range for n=2", id="form_feed"),
        pytest.param("2 1\r\n\v\r\n0 5\r\n", "line 3: edge (0, 5) out of range for n=2", id="crlf"),
        pytest.param("# a\rb\n2 1\n0 5\n", "line 3: edge (0, 5) out of range for n=2", id="lone_cr"),
    ],
)
def test_scanner_takes_ascii_integers_and_counts_lf_lines(text, message):
    with pytest.raises(ParseError) as excinfo:
        parse_edge_list(text)
    assert str(excinfo.value) == message


def test_scanner_splits_fields_on_ascii_whitespace_only():
    assert parse_edge_list("3 2\r\n0\v1\r\n1\f2\r\n") == path_graph(3)
    with pytest.raises(ParseError, match="line 2: expected edge 'u v'"):
        parse_edge_list("3 1\n0\u00a01\n")


def test_parse_edge_list_comments_and_blanks():
    g = parse_edge_list("# comment\n\n3 2\n# more\n0 1\n\n1 2\n")
    assert g == path_graph(3)


def test_edge_list_round_trip(rng):
    for _ in range(20):
        g = random_graph(rng, n_max=30)
        assert parse_edge_list(write_edge_list(g)) == g


def test_edge_list_round_trip_degenerate_graphs():
    for g in (build_graph(0, []), build_graph(4, [])):
        assert parse_edge_list(write_edge_list(g)) == g


def test_write_edge_list_bytes():
    assert write_edge_list(path_graph(3)) == "3 2\n0 1\n1 2\n"
    assert write_edge_list(build_graph(0, [])) == "0 0\n"
    assert write_edge_list(build_graph(4, [])) == "4 0\n"
    g = gen_gnp(3000, 8.0, 1)
    assert write_edge_list(g) == write_edge_list_reference(g)


@pytest.mark.parametrize("n", [1, 9, 10, 11, 99, 100, 101, 1000, 1001])
def test_write_edge_list_digit_widths(n):
    # ids on both sides of each digit-count step, under and at the widest label
    ids = sorted({0, n - 1} | {10**k for k in range(4) if 10**k < n})
    edges = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]]
    edges += [(v - 1, v) for v in ids if v > 0]
    g = build_graph(n, edges)
    assert write_edge_list(g) == write_edge_list_reference(g)


def test_write_edge_list_in_small_chunks(rng):
    graphs = [random_graph(rng, n_max=30) for _ in range(10)] + [build_graph(4, [])]
    for chunk in (1, 2, 3, 5, 8):
        with patch.object(graph, "_EDGE_BLOCK", chunk):
            for g in graphs:
                assert write_edge_list(g) == write_edge_list_reference(g)


def test_bulk_reader_takes_written_text(rng):
    """The bulk path, not the scanner, reads what write_edge_list emits."""
    graphs = [random_graph(rng, n_max=30) for _ in range(10)] + [gen_gnp(3000, 8.0, 1)]
    graphs += [build_graph(0, []), build_graph(1, []), build_graph(4, [])]
    for g in graphs:
        parsed = _bulk_edge_list(write_edge_list(g))
        assert parsed is not None
        n, edges = parsed
        assert n == g.n
        assert edges.tolist() == g.edge_array().tolist()


# one of these, or none, is applied to each drawn text
_TOKEN_MUTATIONS = (
    "plus_sign",
    "arabic_digit",
    "long_id",
    "negative_id",
    "out_of_range_id",
    "one_token_line",
    "three_token_line",
    "header_m_off_by_one",
    "trailing_comment",
    "two_edges_on_one_line",
    "edge_over_two_lines",
    "stray_line",
)
# characters str.splitlines breaks at, inserted anywhere
_INSERTED_BREAKS = {"lone_cr": "\r", "form_feed": "\f", "unicode_line_break": "\u2028"}
_BLANK_LINES = ("", " ", "\t")
_COMMENT_LINES = ("#", "# a comment 1 2", "  # 0 1", "\t#\tx", "#\u00e9")
_STRAY_LINES = ("% comment", "x y", "0 1 # 2", "4 #")


@st.composite
def edge_list_texts(draw):
    """Edge-list text for a small graph, randomly formatted and maybe broken once.

    Line ends and comments are drawn per text, so that plain texts, which the
    bulk reader takes, are drawn as often as those left to the scanner.
    """
    n = draw(st.integers(0, 30))
    ids = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=40)) if n else []
    rows = [[str(n), str(len(pairs))]] + [[str(u), str(v)] for u, v in pairs]
    rows = [["0" * draw(st.integers(0, 2)) + tok for tok in row] for row in rows]

    mutation = draw(st.sampled_from((None,) + _TOKEN_MUTATIONS + tuple(_INSERTED_BREAKS)))
    row = draw(st.integers(0, len(rows) - 1))
    col = draw(st.integers(0, 1))
    if mutation == "plus_sign":
        rows[row][col] = "+" + rows[row][col]
    elif mutation == "arabic_digit":
        rows[row][col] += "\u0661"
    elif mutation == "long_id":
        rows[row][col] = draw(
            st.sampled_from(
                ("9999999999999999999", "10000000000000000000", "99999999999999999999", "00000000000000000001")
            )
        )
    elif mutation == "negative_id":
        rows[row][col] = "-" + rows[row][col]
    elif mutation == "out_of_range_id":
        rows[row][col] = str(n)
    elif mutation == "one_token_line":
        del rows[row][col]
    elif mutation == "three_token_line":
        rows[row].append(str(draw(ids)))
    elif mutation == "header_m_off_by_one":
        rows[0][1] = str(len(pairs) + draw(st.sampled_from((-1, 1))))
    elif mutation == "trailing_comment":
        rows[row].append("#")
    elif mutation == "two_edges_on_one_line" and row + 1 < len(rows):
        rows[row] += rows.pop(row + 1)
    elif mutation == "edge_over_two_lines":
        rows.insert(row + 1, [rows[row].pop()])
    elif mutation == "stray_line":
        rows.insert(row, [draw(st.sampled_from(_STRAY_LINES))])

    if draw(st.booleans()):
        fillers, newline = _BLANK_LINES, "\n"
    else:
        fillers = draw(st.sampled_from((_BLANK_LINES, _BLANK_LINES + _COMMENT_LINES)))
        newline = draw(st.sampled_from(("\n", "\r\n")))
    lines = []
    for tokens in rows:
        lines += draw(st.lists(st.sampled_from(fillers), max_size=2))
        lead = draw(st.sampled_from(("", " ", "\t", " \t")))
        sep = draw(st.sampled_from((" ", "\t", "  ", " \t ")))
        trail = draw(st.sampled_from(("", " ", "\t")))
        lines.append(lead + sep.join(tokens) + trail)
    lines += draw(st.lists(st.sampled_from(fillers), max_size=2))
    text = "".join(line + newline for line in lines)
    if not draw(st.booleans()):
        text = text.rstrip("\r\n")

    if mutation in _INSERTED_BREAKS:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + _INSERTED_BREAKS[mutation] + text[at:]
    return text


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _outcome(parse, text):
    """The graph parse builds from text, or its exception, with the messages it logs."""
    handler = _Messages()
    root = logging.getLogger()
    root.addHandler(handler)
    try:
        result = ("graph", parse(text))
    except Exception as exc:
        result = (type(exc), str(exc))
    finally:
        root.removeHandler(handler)
    return result, handler.messages


@settings(max_examples=1000)
@given(edge_list_texts())
@example("3 1\n0\r1\n")
@example("12345678901234567890 0\n")
@example("3 1\n0 3\n")
@example("3 1\n0 9999999999999999999\n")
@example("\n" * 40 + "3 2\n0 1\n1 2\n")
@example("3 2\n0 1\n" + " " * 40 + "1 2")
@example("3 1\n" + "\n" * 40)
@example(" ")
@example("  \n")
@example("\t\n\n")
@example("1 999999999999999999\n")
@example("3 1\n0 1 \n")
@example("\u0663 1\n")
def test_parse_edge_list_matches_reference(text):
    """Same graph or error as the reference parser, also at the edges of the regex gate."""
    assert _outcome(parse_edge_list, text) == _outcome(parse_edge_list_reference, text)


MTX_P3 = """%%MatrixMarket matrix coordinate pattern symmetric
% adjacency of a path
3 3 2
2 1
3 2
"""


def test_parse_mtx_p3():
    assert parse_matrix_market(MTX_P3) == path_graph(3)


def test_parse_mtx_rejects_general():
    text = MTX_P3.replace("symmetric", "general")
    with pytest.raises(UnsupportedFormatError, match="symmetric"):
        parse_matrix_market(text)


def test_parse_mtx_rejects_nonsquare():
    text = "%%MatrixMarket matrix coordinate pattern symmetric\n3 4 1\n2 1\n"
    with pytest.raises(ValueError, match="square"):
        parse_matrix_market(text)


_MTX_BANNER = "%%MatrixMarket matrix coordinate pattern symmetric\n"


@pytest.mark.parametrize(
    "body, message",
    [
        pytest.param("% only a comment\n\n", "missing size line 'rows cols nnz'", id="no_size_line"),
        pytest.param("3 3\n", "line 2: expected size 'rows cols nnz'", id="two_field_size"),
        pytest.param("3 3 2\nx 1\n3 2\n", "line 3: non-integer entry indices", id="non_integer_entry"),
        pytest.param("3 3 2\n2\n3 2\n", "line 3: expected matrix entry", id="one_field_entry"),
        pytest.param("3 3 2\n0 1\n3 2\n", "line 3: entry (0, 1) out of range", id="index_zero"),
        pytest.param("3 3 2\n2 1\n4 2\n", "line 4: entry (4, 2) out of range", id="index_past_rows"),
        pytest.param("3 3 2\n% c\n\n2 1\n0 2\n", "line 6: entry (0, 2) out of range", id="line_counts_skipped_lines"),
        pytest.param("3 3 1\n2 1\n3 2\n", "size line promised 1 entries, found 2", id="too_many_entries"),
        pytest.param("3 3 3\n2 1\n3 2\n", "size line promised 3 entries, found 2", id="too_few_entries"),
        pytest.param("3 4 1\n2 1\n", "line 2: adjacency matrix must be square, got 3x4", id="non_square"),
        pytest.param("-1 -1 0\n", "line 2: negative counts in size line", id="negative_sizes"),
        pytest.param("3 3 -1\n", "line 2: negative counts in size line", id="negative_nnz"),
        pytest.param(
            "3000000000 3000000000 0\n",
            "line 2: vertex count 3000000000 exceeds the supported 2^31 limit",
            id="over_vertex_cap",
        ),
        pytest.param("3 3 1_0\n", "line 2: non-integer size line", id="underscore_size"),
        pytest.param("3 3 \u0662\n", "line 2: non-integer size line", id="arabic_digit_size"),
        pytest.param("% a\fb\n3 3 1_0\n", "line 3: non-integer size line", id="form_feed_before_size"),
        pytest.param("3 3 2\n2 1\n3 \u0662\n", "line 4: non-integer entry indices", id="arabic_digit_entry"),
        pytest.param("3 3 1\n1_0 1\n", "line 3: non-integer entry indices", id="underscore_entry"),
        pytest.param("3 3 1\n\f4 1\n", "line 3: entry (4, 1) out of range", id="form_feed_entry"),
        pytest.param("3 3 1\r\n\u2028\r\n4 1\r\n", "line 3: expected matrix entry", id="crlf_entry"),
    ],
)
def test_parse_mtx_errors(body, message):
    with pytest.raises(ParseError) as excinfo:
        parse_matrix_market(_MTX_BANNER + body)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "text",
    [
        _MTX_BANNER + "% adjacency\n\n3 3 2\n% between\n\n  \n2 1\n%\n3 2\n\n",
        "%%MatrixMarket matrix coordinate complex symmetric\n3 3 2\n2 1 1.0 -0.5\n3 2 0 2\n",
    ],
    ids=["comments_and_blanks", "complex"],
)
def test_parse_mtx_comments_blanks_and_complex_entries(text):
    assert parse_matrix_market(text) == path_graph(3)


def test_parse_mtx_ignores_diagonal_and_values():
    text = (
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 3\n"
        "1 1 7.5\n"
        "2 1 1.0\n"
        "3 2 -2.0\n"
    )
    assert parse_matrix_market(text) == path_graph(3)


def test_parse_mtx_density_warning(caplog):
    # K_43 has 43 * 42 / 2 = 903 entries, above the limit of 20 * 43 = 860
    k = 43
    entries = [f"{i} {j}" for i in range(2, k + 1) for j in range(1, i)]
    text = "%%MatrixMarket matrix coordinate pattern symmetric\n"
    text += f"{k} {k} {len(entries)}\n" + "\n".join(entries) + "\n"
    with caplog.at_level(logging.WARNING, logger="rbdom.io"):
        assert parse_matrix_market(text) == complete_graph(k)
    assert "903 nonzeros > 20.0 x 43 rows" in caplog.text


def test_round_half_up():
    assert round_half_up(8.2474) == 8.25
    assert round_half_up(10.1307) == 10.13
    assert round_half_up(2.345) == 2.35
    assert round_half_up(2.0) == 2.0


def test_write_report_csv_rows(tmp_path):
    rows = [
        RunReport("1", 1643, 9857, 194, 254, 238, (254 - 238) * 100 / 194),
        RunReport("8", 3951, 11838, 471, 862, 969, None),
        RunReport("x", 10, 5, None, 4, 4, None),
    ]
    out = tmp_path / "report.csv"
    write_report_csv(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "id,n,m,ex,aa,la,imprv"
    assert lines[1] == "1,1643,9857,194,254,238,8.25"
    assert lines[2] == "8,3951,11838,471,862,969,--"
    assert lines[3] == "x,10,5,--,4,4,--"


def test_write_report_csv_unproven_marker_and_aggregates(tmp_path):
    rows = [RunReport("a", 5, 4, 3, 4, 3, 100 / 3, ex_proven=False)]
    agg = AggregateStats("demo", 1, 100.0, 100 / 3)
    out = tmp_path / "report.csv"
    write_report_csv(rows, out, aggregates=[agg])
    lines = out.read_text().splitlines()
    assert lines[1] == "a,5,4,~3,4,3,33.33"
    assert lines[2] == "# demo,1,100.00,33.33"


def test_write_report_csv_quotes_commas_and_quotes(tmp_path):
    rows = [
        RunReport('a,b"c', 5, 4, 3, 4, 3, 100 / 3),
        RunReport("plain", 2, 1, 1, 1, 1, None),
    ]
    agg = AggregateStats("cat,egory", 2, 50.0, 100 / 3)
    out = tmp_path / "report.csv"
    write_report_csv(rows, out, aggregates=[agg])
    lines = out.read_text().splitlines()
    assert lines[2] == "plain,2,1,1,1,1,--"
    table = list(csv.reader(lines[:3]))
    assert [len(fields) for fields in table] == [7, 7, 7]
    assert table[1] == ['a,b"c', "5", "4", "3", "4", "3", "33.33"]
    assert lines[3].startswith("# ")
    assert next(csv.reader([lines[3][2:]])) == ["cat,egory", "2", "50.00", "33.33"]


def test_write_report_csv_empty(tmp_path):
    out = tmp_path / "empty.csv"
    write_report_csv([], out)
    assert out.read_text() == "id,n,m,ex,aa,la,imprv\n"
