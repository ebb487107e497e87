"""Digraph generators and the two cop-monotone transformations.

Clique substitution replaces a vertex v by one port per underlying
neighbor w, the port of v facing w, and wires the ports of v by one rule:
every ordered pair of them is an arc except a plus port (w an out-only
neighbor) to a minus port (w an in-only one).  Any two ports of v are
therefore adjacent, and a port's only other neighbor is the end it faces,
so after clique_substitute_all no vertex has three pairwise non-adjacent
neighbors and no claw orientation is induced.  Both substitutions, of one
vertex and of all of them, share one port layout (_substitute): kept
vertices first, then the ports in (v, w) lexicographic order, each arc of
the source joining the two ends that face each other.  Arc subdivision
replaces every arc by a directed path.  Both transformations keep the rest
of the graph untouched, are sized before they are built, and are the ones
whose effect on the cop number the verification suites replay.
"""

from __future__ import annotations

import random

from .digraph import MAX_ARCS, Digraph, _arc_pairs, _check_arc_cap, _check_vertex_cap, _from_rows
from .errors import InputError, _as_int, _at_least

# A random digraph costs one draw per ordered pair of vertices, so the
# vertex cap alone would admit 10^10 draws (about 9 minutes).
MAX_RANDOM_DRAWS = 10 * MAX_ARCS


def _check_probability(p) -> None:
    """Refuse an arc probability outside [0, 1], or one that is not a
    number at all."""
    try:
        ok = 0.0 <= p <= 1.0
    except TypeError:
        ok = False
    if not ok:
        raise InputError(f"arc probability must be in [0, 1], got {p!r}")


def _substitute(d: Digraph, subst) -> Digraph:
    """Replace every vertex v of subst (ascending) by one port per
    underlying neighbor w of v: the port of v facing w.

    The vertices outside subst come first, in their original order; the
    ports follow in (v, w) lexicographic order.  An arc (a, b) of d becomes
    one arc from a's port facing b (or a itself when a is kept) to b's port
    facing a (or b).  A port is plus when w is an out-only neighbor
    (v -> w only), minus when w is an in-only one (w -> v only), and
    neither when arcs run both ways.  The ports of v are wired by one
    rule: every ordered pair of distinct ports is an arc except plus ->
    minus, so s ports carry s(s - 1) - plus * minus arcs.

    The result is sized by that count and refused before any port or arc
    exists when it would pass MAX_VERTICES or MAX_ARCS.
    """
    is_sub = [False] * d.n
    for v in subst:
        is_sub[v] = True
    first = [0] * d.n  # the new id of a kept vertex, the first port of another
    n = 0
    for u in range(d.n):
        if not is_sub[u]:
            first[u] = n
            n += 1
    m = d.arc_count
    for v in subst:
        s = d.degree(v)
        if not s:
            raise InputError(f"vertex {v} is isolated; substitution needs degree >= 1")
        first[v] = n
        n += s
        # s - in_degree ports are plus and s - out_degree are minus
        m += s * (s - 1) - (s - d.in_degree(v)) * (s - d.out_degree(v))
    _check_vertex_cap(n)
    _check_arc_cap(m)

    port = {}
    arcs = []
    for v in subst:
        outs, ins = set(d.out_adj[v]), set(d.in_adj[v])
        sides = []  # (port, +1 plus, -1 minus, 0 both ways)
        for p, w in enumerate(sorted(outs | ins), first[v]):
            port[v, w] = p
            sides.append((p, (w in outs) - (w in ins)))
        # a - b is 2 only for a plus port x and a minus port y
        arcs += [(x, y) for x, a in sides for y, b in sides if x != y and a - b < 2]
    arcs += [(port.get((a, b), first[a]), port.get((b, a), first[b]))
             for a, b in _arc_pairs(d.out_adj)]
    return Digraph(n, arcs)


def clique_substitute_vertex(d: Digraph, v: int) -> Digraph:
    """Replace one vertex by its port cluster, keeping everything else.

    Ids above v shift down by one and the ports of v follow the kept
    vertices in ascending neighbor order; see _substitute.
    """
    v = _as_int(v, "vertex")
    if not (0 <= v < d.n):
        raise InputError(f"vertex {v} is out of range for n={d.n}")
    return _substitute(d, [v])


def clique_substitute_all(d: Digraph) -> Digraph:
    """Replace every vertex of d by its port cluster at once: one vertex per
    ordered adjacent pair (v, w), numbered in lexicographic order; see
    _substitute."""
    return _substitute(d, range(d.n))


def subdivide_arcs(d: Digraph, m: int) -> Digraph:
    """Replace every arc by a directed path with m - 1 fresh inner vertices.

    Original ids are kept; inner vertices are appended following the arcs
    in (tail, head) order.  m = 1 returns an identical copy.
    """
    m = _at_least(m, 1, "subdivision factor")
    _check_vertex_cap(d.n + d.arc_count * (m - 1))
    arcs = []
    next_id = d.n
    for u, v in _arc_pairs(d.out_adj):
        prev = u
        for _ in range(m - 1):
            arcs.append((prev, next_id))
            prev = next_id
            next_id += 1
        arcs.append((prev, v))
    return Digraph(next_id, arcs)


def gen_directed_path(k: int) -> Digraph:
    """Directed path 0 -> 1 -> ... -> k-1."""
    k = _at_least(k, 1, "path length")
    _check_vertex_cap(k)
    return Digraph(k, [(i, i + 1) for i in range(k - 1)])


def gen_directed_cycle(n: int) -> Digraph:
    """Directed cycle on n vertices; n = 2 gives the bidirected pair."""
    n = _at_least(n, 2, "cycle length")
    _check_vertex_cap(n)
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_claw_orientations() -> list[Digraph]:
    """The four orientations of the 3-star, center 0 and leaves 1, 2, 3.

    Ordered by the number of leaves pointing at the center: none, one, all
    three, two.
    """
    return [
        Digraph(4, [(0, 1), (0, 2), (0, 3)]),
        Digraph(4, [(1, 0), (0, 2), (0, 3)]),
        Digraph(4, [(1, 0), (2, 0), (3, 0)]),
        Digraph(4, [(0, 1), (2, 0), (3, 0)]),
    ]


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


def gen_projective_plane_incidence_doubled(q: int) -> Digraph:
    """Point-line incidence graph of the order-q projective plane, with every
    edge doubled into an opposite arc pair.

    q must be prime.  Points and lines are the projective triples over the
    q-element field (first nonzero coordinate 1, lexicographic order);
    point i and line j are adjacent when their dot product is 0 mod q.
    Points take ids 0..N-1 and lines N..2N-1 where N = q*q + q + 1; every
    point lies on q + 1 lines, so there are 2N(q + 1) arcs.
    """
    q = _as_int(q, "plane order")
    if q >= 2:
        # before the primality test, whose trial division is O(sqrt q),
        # and the N^2 incidence tests
        size = q * q + q + 1
        _check_vertex_cap(2 * size)
        _check_arc_cap(2 * size * (q + 1))
    if not _is_prime(q):
        raise InputError(f"plane order must be prime, got {q}")
    triples = [(1, y, z) for y in range(q) for z in range(q)]
    triples += [(0, 1, z) for z in range(q)]
    triples.append((0, 0, 1))
    triples.sort()
    n = len(triples)
    arcs = []
    for i, p in enumerate(triples):
        for j, l in enumerate(triples):
            if (p[0] * l[0] + p[1] * l[1] + p[2] * l[2]) % q == 0:
                arcs.append((i, n + j))
                arcs.append((n + j, i))
    return Digraph(2 * n, arcs)


def _random_rows(rng: random.Random, n: int, p: float) -> list:
    """The out-neighbour rows of a random digraph on n vertices: each
    ordered pair becomes an arc independently with probability p,
    consuming the rng in fixed lexicographic pair order.

    The n(n - 1) draws are refused before the rng is touched when they
    would pass MAX_RANDOM_DRAWS, and the arcs as soon as a row of draws
    takes them past MAX_ARCS.
    """
    _check_vertex_cap(n)
    draws = n * (n - 1)
    if draws > MAX_RANDOM_DRAWS:
        raise InputError(
            f"random draw count {draws} exceeds the limit of {MAX_RANDOM_DRAWS}"
        )
    rows = []
    arcs = 0
    for u in range(n):
        row = [v for v in range(n) if u != v and rng.random() < p]
        rows.append(row)
        arcs += len(row)
        _check_arc_cap(arcs)
    return rows


def gen_random_digraph(n: int, p: float, seed: int) -> Digraph:
    """Seeded Erdos-Renyi style digraph; identical arguments give identical
    graphs on any platform.  The seed is required: None, which would seed
    from the clock, is refused like any other non-integer."""
    n = _at_least(n, 1, "vertex count")
    _check_probability(p)
    return _from_rows(_random_rows(random.Random(_as_int(seed, "seed")), n, p))
