"""Forbidden-pattern searches on digraphs.

Three related notions of containing a directed path, from strictest to
loosest host condition:

* a P_k subgraph is any k distinct vertices carrying the k - 1 consecutive
  arcs, extra arcs welcome;
* a P_k* tuple additionally forbids forward shortcuts: among the ordered
  tuple, the arcs pointing forward are exactly the consecutive ones, while
  backward arcs are unconstrained;
* an induced copy requires the adjacency inside the tuple to match the path
  exactly in both directions.

Hence subgraph-free implies P_k*-free implies induced-free, the containment
chain replayed by the verification suites.

All three searches fill a tuple of distinct host vertices one position at a
time, on one iterative depth-first loop (_first_tuple).  The candidates for
a position are an int bit mask over host vertices, computed from per-vertex
out- and in-neighbour masks built once per call: a P_k subgraph extends
along the out-mask of the last vertex, a P_k* tuple also drops the
out-neighbours of the earlier vertices, and an induced embedding ANDs, for
every vertex already mapped, its in- and out-mask or their complements as
the pattern's arcs demand.  Candidates are tried by ascending bit, so every
search returns the lexicographically first witness.  The loop keeps one
mask per position on an explicit stack instead of recursing, so a pattern
may be as long as the host; the masks cost up to n bits per host vertex and
position, and a search whose masks would pass MAX_MASK_BITS is refused with
InputError before any is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph
from .errors import InputError

INDUCED_ISO = "induced-iso"
PK_SUBGRAPH = "pk-subgraph"
PK_STAR = "pk-star"

# 256 MiB of masks: far above the few hundred vertices of the package's
# own hosts, and refused before an arc list with 10^5 vertices makes the
# quadratic mask storage run a machine out of memory.
MAX_MASK_BITS = 1 << 31


@dataclass(frozen=True)
class PatternWitness:
    """An ordered host-vertex tuple certifying a pattern occurrence."""

    vertices: tuple
    kind: str


def _masks(host: Digraph, adjs, levels: int) -> list[list[int]]:
    """Per-vertex neighbour masks for each adjacency in adjs: bit v of
    masks[a][u] is set when v is in adjs[a][u].

    The size check counts each mask at the bit length of its largest
    neighbour, plus two n-bit masks per search level (the untried
    candidates and one search-specific mask), before anything is built.
    """
    bits = 2 * levels * host.n + sum(vs[-1] + 1 for adj in adjs for vs in adj if vs)
    if bits > MAX_MASK_BITS:
        raise InputError(
            f"pattern search of {levels} vertices on {host.n} needs about "
            f"{bits >> 23} MiB of candidate masks, above the limit of "
            f"{MAX_MASK_BITS >> 23} MiB"
        )
    return [[sum(1 << v for v in vs) for vs in adj] for adj in adjs]


def _first_tuple(k: int, candidates):
    """Lexicographically first k-tuple of distinct vertices, or None.

    candidates(tup) returns the bit mask of vertices allowed at position
    len(tup) after the prefix tup; vertices already in tup are removed
    here.  It is called once each time the prefix grows, in depth-first
    order.  Each level keeps its untried candidates as one mask on the
    stack and tries them by ascending bit.
    """
    tup = []
    used = 0
    stack = [candidates(tup)]
    while stack:
        rest = stack[-1]
        if not rest:
            stack.pop()
            if tup:
                used ^= 1 << tup.pop()
            continue
        low = rest & -rest
        stack[-1] = rest ^ low
        tup.append(low.bit_length() - 1)
        if len(tup) == k:
            return tuple(tup)
        used |= low
        stack.append(candidates(tup) & ~used)
    return None


def find_induced(host: Digraph, pattern: Digraph):
    """First induced embedding of pattern into host, or None.

    The witness maps pattern vertex i to witness.vertices[i]; adjacency
    inside the image matches the pattern exactly in both directions.  The
    search assigns pattern vertices in id order trying host candidates in
    ascending order, so the returned tuple is the lexicographically first.
    """
    p = pattern.n
    if p > host.n:
        return None
    out_m, in_m = _masks(host, (host.out_adj, host.in_adj), p)
    # deg_ok[i]: host vertices whose degrees admit pattern vertex i, shared
    # between pattern vertices with equal degrees.
    by_degrees = {}
    deg_ok = []
    for i in range(p):
        need = (pattern.out_degree(i), pattern.in_degree(i))
        if need not in by_degrees:
            by_degrees[need] = sum(
                1 << c
                for c in range(host.n)
                if host.out_degree(c) >= need[0] and host.in_degree(c) >= need[1]
            )
        deg_ok.append(by_degrees[need])
    pattern_out = [set(vs) for vs in pattern.out_adj]
    pattern_in = [set(vs) for vs in pattern.in_adj]

    def candidates(tup):
        i = len(tup)
        mask = deg_ok[i]
        into, out_of = pattern_out[i], pattern_in[i]
        for j, h in enumerate(tup):
            # pattern arc i -> j needs c in the in-mask of h, j -> i its out-mask
            mask &= in_m[h] if j in into else ~in_m[h]
            mask &= out_m[h] if j in out_of else ~out_m[h]
        return mask

    tup = _first_tuple(p, candidates)
    return None if tup is None else PatternWitness(tup, INDUCED_ISO)


def _check_k(k: int) -> None:
    if k < 2:
        raise InputError(f"path pattern length must be >= 2, got {k}")


def find_pk_subgraph(host: Digraph, k: int):
    """First directed path on k distinct vertices, extra arcs allowed."""
    _check_k(k)
    if host.n < k:
        return None
    (out_m,) = _masks(host, (host.out_adj,), k)
    everyone = (1 << host.n) - 1

    def candidates(tup):
        return out_m[tup[-1]] if tup else everyone

    tup = _first_tuple(k, candidates)
    return None if tup is None else PatternWitness(tup, PK_SUBGRAPH)


def find_pk_star(host: Digraph, k: int):
    """First ordered k-tuple whose forward arcs are exactly the consecutive
    path arcs.

    Arcs from later tuple vertices back to earlier ones are unconstrained;
    any forward shortcut disqualifies the tuple.
    """
    _check_k(k)
    if host.n < k:
        return None
    (out_m,) = _masks(host, (host.out_adj,), k)
    everyone = (1 << host.n) - 1
    # reach[i]: out-neighbours of tup[:i], kept in step with the prefix.
    reach = [0]

    def candidates(tup):
        i = len(tup)
        if not i:
            return everyone
        del reach[i:]
        reach.append(reach[i - 1] | out_m[tup[-1]])
        return out_m[tup[-1]] & ~reach[i - 1]

    tup = _first_tuple(k, candidates)
    return None if tup is None else PatternWitness(tup, PK_STAR)


def containment_chain_check(d: Digraph, k: int) -> tuple[bool, bool, bool]:
    """Compute (subgraph-free, star-free, induced-free) for paths of length k
    and assert the implication chain between them.

    A chain failure would mean one of the searches is wrong, so it raises
    AssertionError rather than returning.
    """
    _check_k(k)
    from .constructions import gen_directed_path

    sub_free = find_pk_subgraph(d, k) is None
    star_free = find_pk_star(d, k) is None
    induced_free = find_induced(d, gen_directed_path(k)) is None
    # Explicit raises, not assert statements, which python -O strips.
    if sub_free and not star_free:
        raise AssertionError("subgraph-free host contains a star tuple")
    if star_free and not induced_free:
        raise AssertionError("star-free host contains an induced path")
    return (sub_free, star_free, induced_free)
