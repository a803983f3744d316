"""Graph file ingestion and report emission.

Edge list format: first non-comment line is "n m", followed by m lines
"u v" with 0-based vertex ids; '#' starts a comment line. Plain edge-list
text passes one regex check and is read by numpy; other text goes through a
line scanner that names the first malformed line. Both text readers end a
line at LF only, split fields on ASCII whitespace and read an integer only
from ASCII digits with an optional sign. Matrix Market
ingestion accepts symmetric coordinate matrices only, treats them as
adjacency matrices (1-based entries, diagonal ignored, values ignored), and
warns when the nonzero count exceeds ``DENSITY_LIMIT`` (20) times the row
count, the edge of the sparse regime this pipeline targets. A file is read
as Matrix Market when its text starts with the ``%%MatrixMarket`` banner
the format requires, and as an edge list otherwise.
Reports go out as CSV with the columns id,n,m,ex,aa,la,imprv; improvement
percentages are printed with two decimals, rounded half-up, and '--' stands
for "absent".
"""

import csv
import logging
import re
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .graph import _VERTEX_CAP, _edge_blocks, build_graph

logger = logging.getLogger(__name__)

DENSITY_LIMIT = 20.0
_MM_BANNER = "%%MatrixMarket"


class ParseError(ValueError):
    """Malformed input text; the message carries the line number."""


class UnsupportedFormatError(ValueError):
    """Recognized but unsupported input format."""


def parse_edge_list(text):
    """Parse the edge list format into a Graph.

    Self-loops and duplicate edges are dropped with a logged warning count.
    Plain text (digits, spaces, tabs and LF) is read in bulk by numpy; anything
    else goes through the line scanner, which names the first malformed line.
    """
    parsed = _bulk_edge_list(text)
    n, edges = _scan_edge_list(text) if parsed is None else parsed
    g = build_graph(n, edges)
    dropped = len(edges) - g.m
    if dropped:
        logger.warning("edge list: dropped %d duplicate/self-loop entries", dropped)
    return g


# plain text: every line blank or two runs of 1-18 ASCII digits, which fit in
# int64, split by spaces or tabs, with LF line ends; all quantifiers are
# possessive, so fullmatch keeps no backtracking state
_PLAIN_LINE = r"[ \t]*+(?:[0-9]{1,18}+[ \t]++[0-9]{1,18}+[ \t]*+)?+"
_PLAIN_TEXT = re.compile(rf"{_PLAIN_LINE}(?:\n{_PLAIN_LINE})*+")


def _bulk_edge_list(text):
    """(n, (m, 2) int64 edges) of plain text, or None to defer to the scanner.

    Plain text, which write_edge_list emits, passes one regex check and is
    read by numpy's text reader. A failed check on the header, the edge
    count, the vertex cap or the id range returns None.
    """
    # np.fromstring reads text without a digit as [0]
    if not _PLAIN_TEXT.fullmatch(text) or not re.search("[0-9]", text):
        return None
    values = np.fromstring(text, dtype=np.int64, sep=" ")
    n, m = int(values[0]), int(values[1])
    if values.size != 2 * m + 2 or n >= _VERTEX_CAP:
        return None
    edges = values[2:].reshape(-1, 2)
    if edges.size and edges.max() >= n:
        return None
    return n, edges


# fields split on ASCII whitespace; an integer is ASCII digits with an
# optional sign (int() alone also takes "1_0" and non-ASCII digits)
_FIELD = re.compile(r"[^ \t\r\v\f]+")
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _records(lines, start, comment):
    """(lineno, fields) of each line, a piece between LFs, that is neither blank nor a comment."""
    for lineno, line in enumerate(lines, start=start):
        fields = _FIELD.findall(line)
        if fields and not fields[0].startswith(comment):
            yield lineno, fields


def _ints(lineno, parts, noun):
    """The fields as ints; raises ParseError "line N: non-integer <noun>"."""
    try:
        if all(map(_INTEGER.fullmatch, parts)):
            return [int(p) for p in parts]
    except ValueError:  # more digits than int() converts
        pass
    raise ParseError(f"line {lineno}: non-integer {noun}")


def _scan_edge_list(text):
    """(n, [(u, v), ...]) line by line; raises ParseError naming the first bad line."""
    records = _records(text.split("\n"), 1, "#")
    lineno, parts = next(records, (None, None))
    if lineno is None:
        raise ParseError("line 1: missing header 'n m'")
    if len(parts) != 2:
        raise ParseError(f"line {lineno}: expected header 'n m'")
    n, m = _ints(lineno, parts, "header")
    if n < 0 or m < 0:
        raise ParseError(f"line {lineno}: negative counts in header")
    if n >= _VERTEX_CAP:
        raise ParseError(f"line {lineno}: vertex count {n} exceeds the supported 2^31 limit")
    edges = []
    for lineno, parts in records:
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected edge 'u v'")
        u, v = _ints(lineno, parts, "edge")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: edge ({u}, {v}) out of range for n={n}")
        edges.append((u, v))
    if len(edges) != m:
        raise ParseError(f"header promised {m} edges, found {len(edges)}")
    return n, edges


def write_edge_list(g):
    """Serialize a Graph to the edge list format.

    Each id's ASCII digits are formatted once into a NUL-padded label table;
    a block of edges gathers its endpoints' labels, appends the separators
    and drops the NUL bytes.
    """
    out = [f"{g.n} {g.m}\n"]
    width = len(str(max(g.n - 1, 0)))
    labels = np.arange(g.n).astype(f"S{width}").view(np.uint8).reshape(g.n, width)
    for pairs in _edge_blocks(g):
        buf = np.empty((pairs.shape[0], 2, width + 1), np.uint8)
        buf[:, :, :width] = np.take(labels, pairs, axis=0)
        buf[:, 0, width] = ord(" ")
        buf[:, 1, width] = ord("\n")
        out.append(buf[buf != 0].tobytes().decode("ascii"))
    return "".join(out)


def parse_matrix_market(text):
    """Parse a symmetric Matrix Market coordinate matrix as a graph.

    Rejects non-symmetric and non-coordinate headers, negative counts and
    non-square sizes.
    When nnz exceeds ``DENSITY_LIMIT`` times the row count the matrix is
    outside the sparse regime this pipeline targets, and a warning is logged.
    """
    lines = text.split("\n")
    if not lines[0].startswith(_MM_BANNER):
        raise ParseError("line 1: missing %%MatrixMarket header")
    fields = _FIELD.findall(lines[0])
    if len(fields) < 5 or fields[1].lower() != "matrix":
        raise ParseError("line 1: malformed MatrixMarket header")
    if fields[2].lower() != "coordinate":
        raise UnsupportedFormatError(f"unsupported layout {fields[2]!r}")
    if fields[4].lower() != "symmetric":
        raise UnsupportedFormatError(
            f"only symmetric matrices are supported, got {fields[4]!r}"
        )

    records = _records(lines[1:], 2, "%")
    lineno, parts = next(records, (None, None))
    if lineno is None:
        raise ParseError("missing size line 'rows cols nnz'")
    if len(parts) != 3:
        raise ParseError(f"line {lineno}: expected size 'rows cols nnz'")
    rows, cols, nnz = _ints(lineno, parts, "size line")
    if min(rows, cols, nnz) < 0:
        raise ParseError(f"line {lineno}: negative counts in size line")
    if rows != cols:
        raise ParseError(
            f"line {lineno}: adjacency matrix must be square, got {rows}x{cols}"
        )
    if rows >= _VERTEX_CAP:
        raise ParseError(
            f"line {lineno}: vertex count {rows} exceeds the supported 2^31 limit"
        )
    edges = []
    entries_seen = 0
    for lineno, parts in records:
        if len(parts) < 2:
            raise ParseError(f"line {lineno}: expected matrix entry")
        i, j = _ints(lineno, parts[:2], "entry indices")
        if not (1 <= i <= rows and 1 <= j <= rows):
            raise ParseError(f"line {lineno}: entry ({i}, {j}) out of range")
        entries_seen += 1
        if i != j:
            edges.append((i - 1, j - 1))
    if entries_seen != nnz:
        raise ParseError(f"size line promised {nnz} entries, found {entries_seen}")
    if nnz > DENSITY_LIMIT * rows:
        logger.warning(
            "matrix has %d nonzeros > %s x %d rows; outside the sparse regime",
            nnz,
            DENSITY_LIMIT,
            rows,
        )
    return build_graph(rows, edges)


def load_graph(path):
    """Read a graph file: Matrix Market if it opens with the banner, else an edge list."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.startswith(_MM_BANNER):
        return parse_matrix_market(text)
    return parse_edge_list(text)


def round_half_up(value):
    """Decimal half-up rounding to two places (so 8.2474 gives 8.25, 0.125 gives 0.13)."""
    return float(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _format_ex(report):
    if report.ex is None:
        return "--"
    if not report.ex_proven:
        return f"~{report.ex}"
    return str(report.ex)


def _format_imprv(report):
    if report.imprv is None:
        return "--"
    return f"{round_half_up(report.imprv):.2f}"


def write_report_csv(rows, path, aggregates=None):
    """Write report rows as CSV, then each aggregate as "# " and one CSV row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["id", "n", "m", "ex", "aa", "la", "imprv"])
        for r in rows:
            out.writerow([r.id, r.n, r.m, _format_ex(r), r.aa, r.la, _format_imprv(r)])
        for agg in aggregates or []:
            pct = f"{round_half_up(agg.pct_improved):.2f}"
            avg = "--" if agg.avg_imprv is None else f"{round_half_up(agg.avg_imprv):.2f}"
            fh.write("# ")
            out.writerow([agg.category, agg.count, pct, avg])
