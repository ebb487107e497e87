"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the package's internal encodings and
algorithms: positions are plain tuples keyed into dicts, cycle lengths come
from brute enumeration or edge-deletion BFS, and pattern searches scan all
ordered tuples.  Expected values frozen into the tests were computed with
these functions.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc
from collections import deque

import pytest

from copgame import Digraph, InputError


def minimax_cop_win(d, k):
    """Winner of every position by depth-indexed minimax.

    win_t(pos) is true when the cops force capture within t half-moves:
    win_0 is capture, a cop-to-move position wins at t when some successor
    wins at t - 1, a robber-to-move position when all successors do.  The
    tables are memoized per position and evaluated bottom-up until they
    stop changing, which is the game value.  Returns {position: bool} with
    positions as (cop tuple, robber, side) and side in {"cops", "robber"}.
    """
    n = d.n
    positions = []
    for cw in itertools.combinations_with_replacement(range(n), k):
        for r in range(n):
            positions.append((cw, r, "cops"))
            positions.append((cw, r, "robber"))
    win = {pos: pos[1] in pos[0] for pos in positions}

    def cop_successors(cw):
        opts = [[c] + list(d.out_adj[c]) for c in cw]
        return {tuple(sorted(t)) for t in itertools.product(*opts)}

    changed = True
    while changed:
        changed = False
        for pos in positions:
            if win[pos]:
                continue
            cw, r, side = pos
            if side == "cops":
                value = any(win[(c2, r, "robber")] for c2 in cop_successors(cw))
            else:
                value = all(
                    win[(cw, r2, "cops")] for r2 in [r, *d.out_adj[r]]
                )
            if value:
                win[pos] = True
                changed = True
    return win


def minimax_some_placement_wins(win, d, k):
    """Whether some cop placement beats every robber reply, from a minimax
    win table."""
    for cw in itertools.combinations_with_replacement(range(d.n), k):
        if all(win[(cw, r, "cops")] for r in range(d.n)):
            return True
    return False


def minimax_cop_number(d, k_max):
    """Cop number by the minimax oracle, or None above k_max."""
    for k in range(1, k_max + 1):
        if minimax_some_placement_wins(minimax_cop_win(d, k), d, k):
            return k
    return None


def table_sizes(d, k):
    """(positions, sub-move states, sub-move arcs) of the k-cop game on d,
    summed one sub-move stage at a time.

    Stage j, 0 <= j <= k, holds the states (M, U) with |M| = k - j moved
    and |U| = j unmoved cops.  A stage-j state with j >= 1 moves its
    smallest unmoved cop u along 1 + outdeg(u) arcs, and the unmoved
    j-multisets with smallest vertex u are the (j - 1)-multisets over the
    vertices u .. n - 1 with u prepended.
    """
    n = d.n

    def multisets(m, t):
        return math.comb(m + t - 1, t)

    positions = multisets(n, k) * n * 2
    states = sum(multisets(n, k - j) * multisets(n, j) for j in range(k + 1))
    arcs = sum(
        multisets(n, k - j)
        * sum((1 + d.out_degree(u)) * multisets(n - u, j - 1) for u in range(n))
        for j in range(1, k + 1)
    )
    return positions, states, arcs


def girth_by_enumeration(d):
    """Shortest underlying cycle by trying every cycle length from 2 up.

    Opposite arc pairs count as 2-cycles, matching the package convention.
    """
    for u, v in d.arcs:
        if (v, u) in d.arcs:
            return 2
    und = [set(d.out_adj[v]) | set(d.in_adj[v]) for v in range(d.n)]
    for length in range(3, d.n + 1):
        for combo in itertools.combinations(range(d.n), length):
            first = combo[0]
            for rest in itertools.permutations(combo[1:]):
                cycle = (first,) + rest
                if all(
                    cycle[(i + 1) % length] in und[cycle[i]] for i in range(length)
                ):
                    return length
    return math.inf


def simple_girth_edge_bfs(d):
    """Girth of the underlying simple graph (arc doubling ignored), by
    deleting each edge and measuring the endpoint distance."""
    und = [set(d.out_adj[v]) | set(d.in_adj[v]) for v in range(d.n)]
    edges = {(u, v) for u in range(d.n) for v in und[u] if u < v}
    best = math.inf
    for a, b in edges:
        dist = {a: 0}
        queue = deque([a])
        while queue:
            u = queue.popleft()
            for w in und[u]:
                if (u, w) in ((a, b), (b, a)):
                    continue
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if b in dist:
            best = min(best, dist[b] + 1)
    return best


def greedy_dominating_set(d):
    """A cop multiset C with N+[C] = V, picked greedily: each step takes the
    vertex whose closed out-neighbourhood covers the most vertices not yet
    covered, the smallest on ties.  Cops placed on C capture with their
    first move wherever the robber starts, so the cop number is at most
    len(C)."""
    closed = [{v, *d.out_adj[v]} for v in range(d.n)]
    left = set(range(d.n))
    chosen = []
    while left:
        v = max(range(d.n), key=lambda v: len(closed[v] & left))
        chosen.append(v)
        left -= closed[v]
    return chosen


def aigner_fromme_bound(d):
    """A lower bound on the cop number: the least degree when d is
    symmetric, connected and its underlying simple graph has girth at least
    5 (Aigner and Fromme, Discrete Appl. Math. 8, 1984), else 1.  The girth
    is simple_girth_edge_bfs's, which ignores arc doubling; the package's
    underlying_girth counts two opposite arcs as a 2-cycle, so it is 2 on
    every symmetric digraph with an arc."""
    if any((v, u) not in d.arcs for u, v in d.arcs):
        return 1
    seen, stack = {0}, [0]
    while stack:
        for w in d.out_adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) < d.n or simple_girth_edge_bfs(d) < 5:
        return 1
    return max(1, min(d.out_degree(v) for v in range(d.n)))


def radius(d):
    """The least, over the vertices that reach every other one, of the
    largest out-distance to another vertex, by BFS from each; inf when no
    vertex reaches them all."""
    best = math.inf
    for s in range(d.n):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in d.out_adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if len(dist) == d.n:
            best = min(best, max(dist.values()))
    return best


def naive_induced(host, pattern):
    """First induced embedding by scanning all ordered vertex tuples."""
    p = pattern.n
    if p > host.n:
        return None
    for tup in itertools.permutations(range(host.n), p):
        if all(
            pattern.has_arc(i, j) == host.has_arc(tup[i], tup[j])
            for i in range(p)
            for j in range(p)
            if i != j
        ):
            return tup
    return None


def naive_pk_subgraph(host, k):
    """First directed path on k distinct vertices, by full scan."""
    if host.n < k:
        return None
    for tup in itertools.permutations(range(host.n), k):
        if all(host.has_arc(tup[i], tup[i + 1]) for i in range(k - 1)):
            return tup
    return None


def naive_pk_star(host, k):
    """First ordered tuple whose forward arcs are exactly consecutive."""
    if host.n < k:
        return None
    for tup in itertools.permutations(range(host.n), k):
        ok = True
        for i in range(k):
            for j in range(i + 1, k):
                expect = j == i + 1
                if host.has_arc(tup[i], tup[j]) != expect:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return tup
    return None


def first_induced_path(d, k):
    """First k-tuple in itertools.permutations order that is an induced path
    of the underlying graph: two of its vertices are adjacent exactly when
    they are consecutive.  On a symmetric host this is the P_k* condition,
    so P_k*-free symmetric hosts are the induced-P_k-free graphs of Joret,
    Kaminski and Theis (Contrib. Discrete Math. 5, 2010)."""
    adjacent = {frozenset(arc) for arc in d.arcs}
    for tup in itertools.permutations(range(d.n), k):
        if all(
            (frozenset((tup[i], tup[j])) in adjacent) == (j == i + 1)
            for i, j in itertools.combinations(range(k), 2)
        ):
            return tup
    return None


def is_bipartite(d):
    """Two-colorability of the underlying graph."""
    und = [set(d.out_adj[v]) | set(d.in_adj[v]) for v in range(d.n)]
    color = [-1] * d.n
    for s in range(d.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in und[u]:
                if color[w] < 0:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def naive_isomorphic(d1, d2):
    """Digraph isomorphism by scanning all vertex bijections."""
    if d1.n != d2.n or d1.arc_count != d2.arc_count:
        return False
    degs1 = sorted((d1.in_degree(v), d1.out_degree(v)) for v in range(d1.n))
    degs2 = sorted((d2.in_degree(v), d2.out_degree(v)) for v in range(d2.n))
    if degs1 != degs2:
        return False
    for perm in itertools.permutations(range(d1.n)):
        if all((perm[u], perm[v]) in d2.arcs for u, v in d1.arcs):
            return True
    return False


def connectivity_by_closure(d):
    """(strongly connected, weakly connected) of d, read off the Warshall
    closure of its arcs, and of its arcs taken both ways, as bit masks."""
    full = (1 << d.n) - 1

    def closes(arcs):
        reach = [1 << v for v in range(d.n)]
        for u, v in arcs:
            reach[u] |= 1 << v
        for w in range(d.n):
            for u in range(d.n):
                if reach[u] >> w & 1:
                    reach[u] |= reach[w]
        return all(r == full for r in reach)

    return closes(d.arcs), closes(d.arcs | {(v, u) for u, v in d.arcs})


def refusal_and_traced_peak(call):
    """The InputError that call() must raise, and the peak of the bytes
    tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        with pytest.raises(InputError) as info:
            call()
        return str(info.value), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class Index:
    """An integer-like value that is not an int: it has only __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def symmetric_digraph(n, edges):
    """The digraph with both arcs of every edge: the undirected game, since
    each piece moves along an arc or stays."""
    return Digraph(n, [arc for u, v in edges for arc in ((u, v), (v, u))])


def petersen_graph():
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i + 5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return symmetric_digraph(10, edges)


def hypercube(dim):
    """Q_dim: vertices are dim-bit words, adjacent when one bit differs."""
    n = 1 << dim
    return symmetric_digraph(n, [(u, u ^ (1 << b)) for u in range(n) for b in range(dim)])


def grid(rows, cols):
    """The rows x cols grid, vertex r * cols + c."""
    edges = [(v, v + 1) for v in range(rows * cols) if v % cols < cols - 1]
    edges += [(v, v + cols) for v in range(rows * cols - cols)]
    return symmetric_digraph(rows * cols, edges)


def is_dismantlable(d):
    """Whether a symmetric digraph is cop-win, by dismantling (Nowakowski
    and Winkler 1983, Quilliot 1978): repeatedly delete a vertex whose
    closed neighbourhood lies inside another vertex's; the graph is cop-win
    exactly when one vertex is left.  Which corner goes first does not
    matter, since deleting a corner neither makes nor breaks a cop-win
    graph."""
    closed = [set(d.out_adj[v]) | {v} for v in range(d.n)]
    alive = set(range(d.n))
    while len(alive) > 1:
        corner = next(
            (v for v in alive
             if any(u != v and closed[v] & alive <= closed[u] for u in alive)),
            None,
        )
        if corner is None:
            return False
        alive.remove(corner)
    return True
