"""Graph file ingestion and report emission.

Edge list format: first non-comment line is "n m", followed by m lines
"u v" with 0-based vertex ids; '#' starts a comment line. Matrix Market
ingestion accepts symmetric coordinate matrices only, treats them as
adjacency matrices (1-based entries, diagonal ignored, values ignored), and
warns when the nonzero count exceeds ``density_limit`` times the row count.
Reports go out as CSV with the columns id,n,m,ex,aa,la,imprv; improvement
percentages are printed with two decimals, rounded half-up, and '--' stands
for "absent".
"""

import logging
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .graph import build_graph

logger = logging.getLogger(__name__)

DENSITY_LIMIT = 20.0


class ParseError(ValueError):
    """Malformed input text; the message carries the line number."""


class UnsupportedFormatError(ValueError):
    """Recognized but unsupported input format."""


def parse_edge_list(text):
    """Parse the edge list format into a Graph.

    Self-loops and duplicate edges are dropped with a logged warning count.
    Text in the documented format is read in bulk; anything else goes
    through the line scanner, which names the first malformed line.
    """
    parsed = _bulk_edge_list(text)
    n, edges = _scan_edge_list(text) if parsed is None else parsed
    g = build_graph(n, edges)
    dropped = len(edges) - g.m
    if dropped:
        logger.warning("edge list: dropped %d duplicate/self-loop entries", dropped)
    return g


# byte classes of the bulk edge-list reader
_DIGIT, _BLANK, _NEWLINE, _OTHER = range(4)
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[ord("0") : ord("9") + 1] = _DIGIT
_BYTE_CLASS[[ord(" "), ord("\t")]] = _BLANK
_BYTE_CLASS[ord("\n")] = _NEWLINE
# longer digit runs may not fit in int64
_MAX_DIGITS = 18


def _bulk_edge_list(text):
    """(n, (m, 2) int64 edges) of plain text, or None to defer to the scanner.

    Plain text holds only ASCII digits, spaces, tabs and LF, which is what
    write_edge_list emits; comments, CRs and every other byte go to the
    scanner. The checks on the header, the tokens per line, the edge count
    and the id range are done on whole arrays; any failure returns None.
    """
    if not text.isascii():
        return None
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    cls = _BYTE_CLASS[buf]
    if (cls == _OTHER).any():
        return None
    # tokens are the digit runs: starts at even, ends at odd bounds
    bounds = np.flatnonzero(np.diff(cls == _DIGIT, prepend=False, append=False))
    starts, ends = bounds[0::2], bounds[1::2]
    # a header plus edges, two tokens on every non-blank line
    if starts.size < 2 or starts.size % 2:
        return None
    lines = np.searchsorted(np.flatnonzero(cls == _NEWLINE), starts)
    del cls
    if (lines[0::2] != lines[1::2]).any() or (lines[1:-1:2] == lines[2::2]).any():
        return None
    del lines
    width = ends - starts
    longest = int(width.max())
    if longest > _MAX_DIGITS:
        return None
    values = np.zeros(starts.size, dtype=np.int64)
    for j in range(longest):
        digit = np.where(width > j, buf[ends - 1 - j], ord("0")) - ord("0")
        values += digit.astype(np.int64) * 10**j
    n, m = int(values[0]), int(values[1])
    edges = values[2:].reshape(-1, 2)
    if edges.shape[0] != m or (edges >= n).any():
        return None
    return n, edges


def _scan_edge_list(text):
    """(n, [(u, v), ...]) line by line; raises ParseError naming the first bad line."""
    header = None
    edges = []
    n = m = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected header 'n m'")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer header") from None
            if n < 0 or m < 0:
                raise ParseError(f"line {lineno}: negative counts in header")
            header = lineno
            continue
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected edge 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer edge") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: edge ({u}, {v}) out of range for n={n}")
        edges.append((u, v))
    if header is None:
        raise ParseError("line 1: missing header 'n m'")
    if len(edges) != m:
        raise ParseError(f"header promised {m} edges, found {len(edges)}")
    return n, edges


# edges formatted per string operation by write_edge_list
_WRITE_CHUNK = 4096


def write_edge_list(g):
    """Serialize a Graph to the edge list format."""
    flat = g.edge_array().ravel()
    out = [f"{g.n} {g.m}\n"]
    for i in range(0, flat.size, 2 * _WRITE_CHUNK):
        chunk = flat[i : i + 2 * _WRITE_CHUNK].tolist()
        out.append("%d %d\n" * (len(chunk) // 2) % tuple(chunk))
    return "".join(out)


def parse_matrix_market(text, density_limit=DENSITY_LIMIT, strict_density=False):
    """Parse a symmetric Matrix Market coordinate matrix as a graph.

    Rejects non-symmetric and non-coordinate headers and non-square sizes.
    When nnz exceeds ``density_limit`` times the row count the matrix is
    outside the sparse regime this pipeline targets: a warning is logged, or
    a ValueError raised when ``strict_density`` is set.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ParseError("line 1: missing %%MatrixMarket header")
    fields = lines[0].split()
    if len(fields) < 5 or fields[1].lower() != "matrix":
        raise ParseError("line 1: malformed MatrixMarket header")
    if fields[2].lower() != "coordinate":
        raise UnsupportedFormatError(f"unsupported layout {fields[2]!r}")
    if fields[4].lower() != "symmetric":
        raise UnsupportedFormatError(
            f"only symmetric matrices are supported, got {fields[4]!r}"
        )

    size = None
    edges = []
    rows = nnz = 0
    entries_seen = 0
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if size is None:
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected size 'rows cols nnz'")
            try:
                rows, cols, nnz = (int(p) for p in parts)
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer size line") from None
            if rows != cols:
                raise ValueError(
                    f"adjacency matrix must be square, got {rows}x{cols}"
                )
            size = lineno
            continue
        if len(parts) < 2:
            raise ParseError(f"line {lineno}: expected matrix entry")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer entry indices") from None
        if not (1 <= i <= rows and 1 <= j <= rows):
            raise ParseError(f"line {lineno}: entry ({i}, {j}) out of range")
        entries_seen += 1
        if i != j:
            edges.append((i - 1, j - 1))
    if size is None:
        raise ParseError("missing size line 'rows cols nnz'")
    if entries_seen != nnz:
        raise ParseError(f"size line promised {nnz} entries, found {entries_seen}")
    if nnz > density_limit * rows:
        msg = (
            f"matrix has {nnz} nonzeros > {density_limit} x {rows} rows; "
            "outside the sparse regime"
        )
        if strict_density:
            raise ValueError(msg)
        logger.warning("%s", msg)
    return build_graph(rows, edges)


def load_graph(path, fmt=None, strict_density=False):
    """Read a graph file; format from ``fmt`` or the file extension."""
    path = str(path)
    if fmt is None:
        fmt = "mtx" if path.lower().endswith(".mtx") else "edgelist"
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "mtx":
        return parse_matrix_market(text, strict_density=strict_density)
    if fmt == "edgelist":
        return parse_edge_list(text)
    raise ValueError(f"unknown graph format {fmt!r}")


def round_half_up(value, digits=2):
    """Decimal half-up rounding (so 8.2474 prints as 8.25, 0.125 as 0.13)."""
    q = Decimal(1).scaleb(-digits)
    return float(Decimal(repr(value)).quantize(q, rounding=ROUND_HALF_UP))


def _format_ex(report):
    if report.ex is None:
        return "--"
    if not report.ex_proven:
        return f"~{report.ex}"
    return str(report.ex)


def _format_imprv(report):
    if report.imprv is None:
        return "--"
    return f"{round_half_up(report.imprv, 2):.2f}"


def write_report_csv(rows, path, aggregates=None):
    """Write per-instance report rows, optionally with aggregate comment lines."""
    out = ["id,n,m,ex,aa,la,imprv"]
    for r in rows:
        out.append(
            f"{r.id},{r.n},{r.m},{_format_ex(r)},{r.aa},{r.la},{_format_imprv(r)}"
        )
    for agg in aggregates or []:
        avg = "--" if agg.avg_imprv is None else f"{round_half_up(agg.avg_imprv, 2):.2f}"
        out.append(
            f"# {agg.category},{agg.count},{round_half_up(agg.pct_improved, 2):.2f},{avg}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
