"""Simple finite digraphs and their elementary queries.

Vertices are dense integer ids 0..n-1.  Arcs are ordered (tail, head) pairs
with no loops and no repeated pairs; two opposite arcs between the same pair
of vertices are allowed and act as an undirected edge of the underlying
graph.  The underlying graph is treated as a multigraph for girth purposes:
an opposite arc pair counts as a cycle of length 2.  The vertex count and
every arc end are taken through operator.index, so they are stored as
plain ints; anything else is refused with InputError.
"""

from __future__ import annotations

import math
import re
from collections import deque
from itertools import islice
from operator import index

from .errors import InputError, _at_least

# Far above any graph the package builds (the largest has a few hundred
# vertices), and small enough that the adjacency lists of a hostile
# header such as "1000000000 0" are refused before they are allocated.
MAX_VERTICES = 100_000

# The arc-list header and the clique substitutions size their result
# before building it and refuse more arcs than this: building one costs
# about 250 B at the peak, so the cap is about 1.2 GiB.
MAX_ARCS = 5_000_000


def _check_vertex_cap(n: int) -> None:
    """Refuse a graph of n vertices before any of it is built."""
    if n > MAX_VERTICES:
        raise InputError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")


def _check_arc_cap(m: int) -> None:
    """Refuse a graph of m arcs before any of them is built."""
    if m > MAX_ARCS:
        raise InputError(f"arc count {m} exceeds the limit of {MAX_ARCS}")


class Digraph:
    """Immutable digraph with sorted adjacency precomputed in both directions."""

    __slots__ = ("n", "arcs", "out_adj", "in_adj")

    def __init__(self, n: int, arcs=()):
        n = _at_least(n, 1, "vertex count")
        _check_vertex_cap(n)
        arc_set = set()
        for arc in arcs:
            try:
                u, v = arc
                u, v = index(u), index(v)
            except (TypeError, ValueError):
                raise InputError(f"arc {arc!r} is not a pair of integers") from None
            if u == v:
                raise InputError(f"loop ({u}, {u}) is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"arc ({u}, {v}) is out of range for n={n}")
            arc_set.add((u, v))
        outs = [[] for _ in range(n)]
        ins = [[] for _ in range(n)]
        for u, v in sorted(arc_set):
            outs[u].append(v)
            ins[v].append(u)
        self.n = n
        self.arcs = frozenset(arc_set)
        self.out_adj = tuple(tuple(vs) for vs in outs)
        self.in_adj = tuple(tuple(us) for us in ins)

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

    def out_degree(self, v: int) -> int:
        return len(self.out_adj[v])

    def in_degree(self, v: int) -> int:
        return len(self.in_adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Underlying neighbors of v, sorted; each neighbor listed once."""
        return tuple(sorted(set(self.out_adj[v]) | set(self.in_adj[v])))

    def degree(self, v: int) -> int:
        """Degree of v in the underlying simple graph."""
        return len(set(self.out_adj[v]) | set(self.in_adj[v]))

    def __eq__(self, other):
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self.arcs == other.arcs
        )

    def __hash__(self):
        return hash((self.n, self.arcs))

    def __repr__(self):
        return f"Digraph(n={self.n}, arcs={self.arc_count})"


def _reachable(adj, start: int) -> int:
    """Number of vertices reachable from start along the given adjacency."""
    seen = [False] * len(adj)
    seen[start] = True
    queue = deque([start])
    count = 1
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count


def _in_rows(outs):
    """The in-neighbour rows, each ascending, of the digraph whose
    out-neighbour rows are outs."""
    ins = [[] for _ in outs]
    for u, row in enumerate(outs):
        for v in row:
            ins[v].append(u)
    return ins


def _from_rows(outs) -> Digraph:
    """The digraph on len(outs) vertices whose out-neighbour rows are outs."""
    return Digraph(len(outs), ((u, v) for u, row in enumerate(outs) for v in row))


# The two connectivity tests read adjacency rows, not a Digraph, so that
# the verification suites can test a drawn instance before building it.
def _strongly_connected(outs, ins) -> bool:
    """True when vertex 0 reaches every vertex along the out-neighbour
    rows outs and along the in-neighbour rows ins of the same arcs."""
    n = len(outs)
    return _reachable(outs, 0) == n and _reachable(ins, 0) == n


def _weakly_connected(outs, ins) -> bool:
    """True when vertex 0 reaches every vertex along the arcs of the rows
    outs and ins taken both ways."""
    return _reachable([o + i for o, i in zip(outs, ins)], 0) == len(outs)


def is_strongly_connected(d: Digraph) -> bool:
    """True when every vertex reaches every other along directed arcs.

    A single vertex is strongly connected.
    """
    return _strongly_connected(d.out_adj, d.in_adj)


def is_weakly_connected(d: Digraph) -> bool:
    """True when the underlying graph is connected."""
    return _weakly_connected(d.out_adj, d.in_adj)


def count_sources(d: Digraph) -> int:
    """Number of vertices with in-degree zero."""
    return sum(1 for v in range(d.n) if not d.in_adj[v])


def underlying_girth(d: Digraph):
    """Length of a shortest cycle of the underlying multigraph.

    An opposite arc pair is a 2-cycle.  Returns math.inf when the underlying
    graph is acyclic (a forest).
    """
    for u, v in d.arcs:
        if u < v and (v, u) in d.arcs:
            return 2
    # No multi-edges remain, so ordinary BFS girth on the simple graph works.
    und = [d.neighbors(v) for v in range(d.n)]
    best = math.inf
    for s in range(d.n):
        dist = [-1] * d.n
        parent = [-1] * d.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            # A cycle first seen from u or later is at least 2 dist[u] + 1
            # long: BFS takes u in order of dist, and a non-tree edge is
            # first seen from its endpoint nearer to s.
            if 2 * dist[u] + 1 >= best:
                break
            for w in und[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cand = dist[u] + dist[w] + 1
                    if cand < best:
                        best = cand
    return best


# The line boundaries of str.splitlines, "\r\n" first so that it counts as one.
_LINE_BREAK = re.compile("\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
# A non-blank line from its first non-whitespace character (re's \s is
# str.isspace, and every line break is whitespace): one match per line.
_NONBLANK = re.compile("\\S[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*")


def _line_of(text: str, match) -> int:
    """The number str.splitlines gives the line of a _NONBLANK match."""
    return sum(1 for _ in _LINE_BREAK.finditer(text, 0, match.start())) + 1


def _decimal(field: str) -> int:
    """field, a field of the arc-list format, as an int when it is a
    decimal integer in ASCII digits, [+-]?[0-9]+; else ValueError.  int()
    alone also takes underscores between digits ("1_0") and the digits of
    other scripts; with those refused, an ASCII field without whitespace
    that int() takes has no other form."""
    if not field.isascii() or "_" in field:
        raise ValueError(field)
    return int(field)


def parse_arc_list(text: str, source: str = "<string>") -> Digraph:
    """Parse the plain arc-list format.

    First non-empty line is "n m", with 1 <= n <= MAX_VERTICES and
    0 <= m <= MAX_ARCS; the next m lines are "tail head" pairs, 0-indexed.
    Every field is a decimal integer in ASCII digits, optionally signed.
    Duplicate arcs and loops are rejected.  Every refusal names source, and
    the line when there is one; a count of arc lines other than m is
    refused before the fault of any line.  The lines are read one at a
    time: the header is checked before the body is read, and lines past
    the m-th are counted, not kept.
    """
    lines = _NONBLANK.finditer(text)
    line = next(lines, None)
    if line is None:
        raise InputError(f"{source}: empty input")
    try:
        parts = line.group().split()
        if len(parts) != 2:
            raise InputError("header must be 'n m'")
        try:
            n, m = _decimal(parts[0]), _decimal(parts[1])
        except ValueError:
            raise InputError("header must be two integers") from None
        _check_vertex_cap(_at_least(n, 1, "vertex count"))
        _check_arc_cap(_at_least(m, 0, "arc count"))
    except InputError as err:
        raise InputError(f"{source}: line {_line_of(text, line)}: {err}") from None
    seen = set()
    fault = None
    try:
        for line in islice(lines, m):
            parts = line.group().split()
            if len(parts) != 2:
                raise InputError("expected 'tail head'")
            try:
                u, v = _decimal(parts[0]), _decimal(parts[1])
            except ValueError:
                raise InputError("expected two integers") from None
            if u == v:
                raise InputError(f"loop ({u}, {v})")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"arc ({u}, {v}) out of range")
            if (u, v) in seen:
                raise InputError(f"duplicate arc ({u}, {v})")
            seen.add((u, v))
    except InputError as err:
        fault = InputError(f"{source}: line {_line_of(text, line)}: {err}")
    found = len(seen) + (fault is not None) + sum(1 for _ in lines)
    if found != m:
        raise InputError(f"{source}: expected {m} arc lines after the header, found {found}")
    if fault is not None:
        raise fault
    return Digraph(n, seen)


def format_arc_list(d: Digraph) -> str:
    """Serialize to the arc-list format with arcs sorted, LF line endings."""
    out = [f"{d.n} {d.arc_count}"]
    out.extend(f"{u} {v}" for u, v in sorted(d.arcs))
    return "\n".join(out) + "\n"


def to_dot(d: Digraph) -> str:
    """Graphviz rendering with default styling."""
    out = ["digraph G {"]
    out.extend(f"  {v};" for v in range(d.n))
    out.extend(f"  {u} -> {v};" for u, v in sorted(d.arcs))
    out.append("}")
    return "\n".join(out) + "\n"
