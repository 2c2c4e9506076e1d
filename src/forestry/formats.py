"""Text formats for graphs: edge lists and graph6.

The edge-list format is the package's native one: a header line "n m",
then m lines "u v" with 0-indexed endpoints.  Lines whose first
non-space character is '#' are comments, blank lines are skipped, and
repeating a pair accumulates multiplicity.  graph6 (the usual 6-bit
upper-triangle encoding) is accepted for simple graphs.

Every problem raises InputError (a ValueError): a parse problem, a loop
or bad vertex id from from_edge_list, and a vertex count above
MAX_VERTICES, which is refused before any graph is built.
"""

import re

from .errors import InputError
from .multigraph import from_edge_list

GRAPH6_HEADER = ">>graph6<<"
# a graph holds one neighbour dict per vertex, so a header alone could
# otherwise ask for any amount of memory
MAX_VERTICES = 100_000
# ASCII decimal only: int() would also read "1_1", "+0" and other scripts'
# digits.  At most 18 digits, which is past every count and id the format
# accepts, so int() never meets a token over its 4300-digit limit
_INTEGER = re.compile(r"-?[0-9]{1,18}")


def _check_order(n):
    if n > MAX_VERTICES:
        raise InputError(f"{n} vertices is above the input limit of {MAX_VERTICES}")


def _meaningful_lines(text):
    for line in text.splitlines():
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        yield s


def _two_integers(toks, what, line):
    if not all(_INTEGER.fullmatch(t) for t in toks):
        raise InputError(f"{what} must be two integers, got {line!r}")
    return int(toks[0]), int(toks[1])


def parse_edge_list(text):
    lines = list(_meaningful_lines(text))
    if not lines:
        raise InputError("empty input, expected an 'n m' header line")
    head = lines[0].split()
    if len(head) != 2:
        raise InputError(f"header must be 'n m', got {lines[0]!r}")
    n, m = _two_integers(head, "header", lines[0])
    if n < 0 or m < 0:
        raise InputError(f"header counts must be nonnegative, got {lines[0]!r}")
    _check_order(n)
    body = lines[1:]
    if len(body) != m:
        raise InputError(f"header announces {m} edges, found {len(body)} edge lines")
    pairs = []
    for line in body:
        toks = line.split()
        if len(toks) != 2:
            raise InputError(f"edge line must be 'u v', got {line!r}")
        pairs.append(_two_integers(toks, "edge line", line))
    return from_edge_list(n, pairs)


def format_edge_list(g):
    lines = [f"{g.n} {g.m}"]
    for u, v in g.edge_list():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def _g6_bytes(s):
    vals = []
    for ch in s:
        o = ord(ch) - 63
        if not 0 <= o <= 63:
            raise InputError(f"invalid graph6 character {ch!r}")
        vals.append(o)
    return vals


def parse_graph6(text):
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER) :]
    if not s:
        raise InputError("empty graph6 string")
    vals = _g6_bytes(s)
    # the order takes one character, or 63 and three more, or 63 63 and six more
    head = 1 if vals[0] != 63 else 4 if vals[1:2] != [63] else 8
    if len(vals) < head:
        raise InputError("truncated graph6 vertex count")
    n = 0
    for v in vals[head // 4 : head]:
        n = n << 6 | v
    _check_order(n)
    rest = vals[head:]
    nbits = n * (n - 1) // 2
    if len(rest) != (nbits + 5) // 6:
        raise InputError(
            f"graph6 body for {n} vertices needs {(nbits + 5) // 6} "
            f"characters, got {len(rest)}"
        )
    bits = []
    for v in rest:
        for k in range(5, -1, -1):
            bits.append(v >> k & 1)
    pairs = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                pairs.append((u, v))
            i += 1
    if any(bits[nbits:]):
        raise InputError("graph6 padding bits must be zero")
    return from_edge_list(n, pairs)


def format_graph6(g):
    for u, v, t in g.bundles():
        if t > 1:
            raise InputError(f"graph6 cannot encode the parallel bundle {u}-{v}")
    n = g.n
    out = []
    if n <= 62:
        out.append(n + 63)
    elif n <= 258047:
        out.append(126)
        out.append((n >> 12 & 63) + 63)
        out.append((n >> 6 & 63) + 63)
        out.append((n & 63) + 63)
    else:
        raise InputError(f"{n} vertices is past the graph6 writer's range")
    bits = []
    for v, row in enumerate(g._adj):
        for u in range(v):
            bits.append(1 if u in row else 0)
    while len(bits) % 6:
        bits.append(0)
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = val << 1 | b
        out.append(val + 63)
    return "".join(chr(c) for c in out)


def parse_graph(text):
    """Auto-detect: an 'n m' header line means edge list, else one graph6 line."""
    lines = _meaningful_lines(text)
    first = next(lines, None)
    if first is None:
        raise InputError("no graph data in input")
    if first[0].isdigit() and len(first.split()) == 2:
        return parse_edge_list(text)
    extra = sum(1 for _ in lines)
    if extra:
        raise InputError(f"graph6 input is one line, found {1 + extra} lines")
    return parse_graph6(first)
