"""Digraph generators and the two cop-monotone transformations.

The clique substitution replaces a vertex by one port vertex per neighbor
and wires the ports into directed cliques; arc subdivision replaces every
arc by a directed path.  Both keep the rest of the graph untouched and are
the transformations whose effect on the cop number the verification suites
replay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

from .digraph import MAX_VERTICES, Digraph, neighborhood_partition
from .errors import InputError

KIND_MINUS = "minus"
KIND_PLUS = "plus"
KIND_PM = "pm"


class Port(NamedTuple):
    vertex: int
    kind: str


@dataclass(frozen=True)
class PortMap:
    """Port assignment of a whole-graph clique substitution.

    ports maps every ordered adjacent pair (v, w) of the source digraph to
    the replacement vertex of v that faces w, tagged with its direction
    class: "minus" when w only sends an arc to v, "plus" when w only
    receives one, "pm" when arcs run both ways.
    """

    ports: dict

    def port(self, v: int, w: int) -> Port:
        return self.ports[(v, w)]

    def ports_of(self, v: int) -> list[Port]:
        return [p for (a, _), p in sorted(self.ports.items()) if a == v]

    def __len__(self):
        return len(self.ports)


def _check_vertex_cap(n: int) -> None:
    """Refuse a graph of n vertices before any of it is built; Digraph
    applies the same cap, but only to arc lists already in memory."""
    if n > MAX_VERTICES:
        raise InputError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")


def build_port_map(d: Digraph) -> PortMap:
    """Assign one fresh vertex id per ordered adjacent pair.

    Ids are dense and follow (vertex, neighbor) lexicographic order, so the
    replacement graph is reproducible.  Every vertex must have a neighbor.
    """
    ports = {}
    next_id = 0
    for v in range(d.n):
        nbrs = d.neighbors(v)
        if not nbrs:
            raise InputError(f"vertex {v} is isolated; substitution needs degree >= 1")
        part = neighborhood_partition(d, v)
        for w in nbrs:
            if w in part.both:
                kind = KIND_PM
            elif w in part.in_only:
                kind = KIND_MINUS
            else:
                kind = KIND_PLUS
            ports[(v, w)] = Port(next_id, kind)
            next_id += 1
    return PortMap(ports)


def _cluster_arcs(minus, plus, pm):
    """Arcs wiring one vertex's ports together.

    Each direction class forms a bidirected clique; pm ports are joined both
    ways to every other port; every minus port sends one arc to every plus
    port.
    """
    arcs = []
    for group in (minus, plus, pm):
        for a in group:
            for b in group:
                if a != b:
                    arcs.append((a, b))
    for a in pm:
        for b in minus + plus:
            arcs.append((a, b))
            arcs.append((b, a))
    for a in minus:
        for b in plus:
            arcs.append((a, b))
    return arcs


def clique_substitute_vertex(d: Digraph, v: int) -> Digraph:
    """Replace one vertex by its port cluster, keeping everything else.

    Remaining vertices keep their relative order (ids above v shift down by
    one); the ports are appended in ascending neighbor order.  Each port is
    joined to its neighbor by arcs of the original direction, and the ports
    are wired together as in _cluster_arcs.
    """
    if not (0 <= v < d.n):
        raise InputError(f"vertex {v} is out of range for n={d.n}")
    nbrs = d.neighbors(v)
    if not nbrs:
        raise InputError(f"vertex {v} is isolated; substitution needs degree >= 1")
    part = neighborhood_partition(d, v)

    def keep(u):
        return u if u < v else u - 1

    base = d.n - 1
    port_of = {w: base + i for i, w in enumerate(nbrs)}
    arcs = [(keep(a), keep(b)) for a, b in d.arcs if v not in (a, b)]
    minus, plus, pm = [], [], []
    for w in nbrs:
        y = port_of[w]
        if w in part.in_only:
            arcs.append((keep(w), y))
            minus.append(y)
        elif w in part.out_only:
            arcs.append((y, keep(w)))
            plus.append(y)
        else:
            arcs.append((keep(w), y))
            arcs.append((y, keep(w)))
            pm.append(y)
    arcs.extend(_cluster_arcs(minus, plus, pm))
    return Digraph(base + len(nbrs), arcs)


def clique_substitute_all(d: Digraph) -> Digraph:
    """Replace every vertex of d by its port cluster at once.

    The result has one vertex per ordered adjacent pair of d (ids from
    build_port_map).  Ports of the same source vertex are wired as in
    _cluster_arcs; the two ports of an adjacent pair are joined by arcs
    mirroring the original direction(s) between their vertices.
    """
    pm = build_port_map(d)
    arcs = []
    for v in range(d.n):
        minus, plus, both = [], [], []
        for w in d.neighbors(v):
            port = pm.port(v, w)
            if port.kind == KIND_MINUS:
                minus.append(port.vertex)
            elif port.kind == KIND_PLUS:
                plus.append(port.vertex)
            else:
                both.append(port.vertex)
        arcs.extend(_cluster_arcs(minus, plus, both))
    for u, v in d.arcs:
        arcs.append((pm.port(u, v).vertex, pm.port(v, u).vertex))
    return Digraph(len(pm), arcs)


def subdivide_arcs(d: Digraph, m: int) -> Digraph:
    """Replace every arc by a directed path with m - 1 fresh inner vertices.

    Original ids are kept; inner vertices are appended following sorted arc
    order.  m = 1 returns an identical copy.
    """
    if m < 1:
        raise InputError(f"subdivision factor must be >= 1, got {m}")
    _check_vertex_cap(d.n + d.arc_count * (m - 1))
    if m == 1:
        return Digraph(d.n, d.arcs)
    arcs = []
    next_id = d.n
    for u, v in sorted(d.arcs):
        prev = u
        for _ in range(m - 1):
            arcs.append((prev, next_id))
            prev = next_id
            next_id += 1
        arcs.append((prev, v))
    return Digraph(next_id, arcs)


def gen_directed_path(k: int) -> Digraph:
    """Directed path 0 -> 1 -> ... -> k-1."""
    if k < 1:
        raise InputError(f"path length must be >= 1, got {k}")
    _check_vertex_cap(k)
    return Digraph(k, [(i, i + 1) for i in range(k - 1)])


def gen_directed_cycle(n: int) -> Digraph:
    """Directed cycle on n vertices; n = 2 gives the bidirected pair."""
    if n < 2:
        raise InputError(f"cycle length must be >= 2, got {n}")
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
    Points take ids 0..N-1 and lines N..2N-1 where N = q*q + q + 1.
    """
    if q >= 2:
        # before the primality test, whose trial division is O(sqrt q)
        _check_vertex_cap(2 * (q * q + q + 1))
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


def _random_digraph_from(rng: random.Random, n: int, p: float) -> Digraph:
    """Each ordered pair becomes an arc independently with probability p,
    consuming the rng in fixed lexicographic pair order."""
    _check_vertex_cap(n)
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    ]
    return Digraph(n, arcs)


def gen_random_digraph(n: int, p: float, seed: int) -> Digraph:
    """Seeded Erdos-Renyi style digraph; identical arguments give identical
    graphs on any platform."""
    if n < 1:
        raise InputError(f"vertex count must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise InputError(f"arc probability must be in [0, 1], got {p}")
    return _random_digraph_from(random.Random(seed), n, p)
