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

Hence subgraph-free implies P_k*-free implies induced-free: the
containment chain that containment_chain_check asserts on one host.  No
verification suite calls it; the tests replay it on seeded digraphs.

All three are ordered patterns: positions 0 .. p - 1, and for each ordered
pair of positions an arc that is required, forbidden or free.  A P_k
subgraph requires the consecutive arcs and leaves every other pair free; a
P_k* tuple also forbids every other forward arc; an induced copy of H
requires H's arcs and forbids all the others.  One depth-first loop
(_first_witness) fills a tuple of distinct host vertices one position at a
time and reads the pattern from a spec with one entry per position,

    spec[i] = (s_out, s_in, rules):

no arc into position i from a position below s_out, no arc out of it to a
position below s_in, and each (j, into, present) in rules requires or
forbids the one arc between positions j and i (j -> i when into, i -> j
otherwise).  Every other pair is free.

Candidates are int bit masks over host vertices, from per-vertex out- and
in-neighbour masks built once per call.  The loop folds the masks of the
mapped vertices into one running OR per side and prefix length, so a
forbidden prefix costs one mask operation however long it is.  A P_k*
position i forbids positions 0 .. i - 2 with s_out = i - 1.  An induced
position is non-adjacent to every position before its first earlier pattern
neighbour s, so (s, s) forbids that prefix both ways and only the pairs
from s up get rules.  All three searches for a path therefore cost O(p)
mask operations per full descent, not the O(p^2) of one operation per
mapped vertex and position.

Candidates are tried by ascending bit, so every search returns the
lexicographically first witness.  The loop keeps its masks in per-position
lists instead of recursing, so a pattern may be as long as the host; the
masks cost up to n bits per host vertex and position, and a search whose
masks would pass MAX_MASK_BITS is refused with InputError before any is
built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import gen_directed_path
from .digraph import Digraph
from .errors import InputError, _at_least

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


def _masks(host: Digraph, levels: int, with_in: bool):
    """Per-vertex out- and in-neighbour masks: bit v of out_m[u] (of
    in_m[u]) is set when u -> v (v -> u) is an arc.  Without with_in the
    in-masks stay zero.

    The size check counts each built mask at the bit length of its largest
    neighbour, plus, per search level, one n-bit mask of untried candidates
    and one prefix fold per built side, before anything is built.
    """
    adjs = (host.out_adj, host.in_adj) if with_in else (host.out_adj,)
    bits = (1 + len(adjs)) * levels * host.n
    bits += sum(vs[-1] + 1 for adj in adjs for vs in adj if vs)
    if bits > MAX_MASK_BITS:
        raise InputError(
            f"pattern search of {levels} vertices on {host.n} needs about "
            f"{bits >> 23} MiB of candidate masks, above the limit of "
            f"{MAX_MASK_BITS >> 23} MiB"
        )
    masks = [[sum(1 << v for v in vs) for vs in adj] for adj in adjs]
    return masks[0], (masks[1] if with_in else [0] * host.n)


def _first_witness(spec, allowed, out_m, in_m, kind: str):
    """Lexicographically first tuple of distinct host vertices that meets
    spec (see the module docstring), as a PatternWitness of kind, or None.

    allowed[i] masks the host vertices admitted at position i.  outs[t] and
    ins[t] fold the out- and in-masks of the first t mapped vertices.  Each
    level keeps its untried candidates as one mask on the stack and tries
    them by ascending bit.
    """
    k = len(spec)
    tup, outs, ins = [0] * k, [0] * k, [0] * k
    used = i = 0
    stack = [allowed[0]]
    while True:
        rest = stack[i]
        if not rest:
            if not i:
                return None
            stack.pop()
            i -= 1
            used ^= 1 << tup[i]
            continue
        low = rest & -rest
        stack[i] = rest ^ low
        v = tup[i] = low.bit_length() - 1
        i += 1
        if i == k:
            return PatternWitness(tuple(tup), kind)
        used |= low
        outs[i] = outs[i - 1] | out_m[v]
        ins[i] = ins[i - 1] | in_m[v]
        s_out, s_in, rules = spec[i]
        mask = allowed[i] & ~(used | outs[s_out] | ins[s_in])
        for j, into, present in rules:
            m = out_m[tup[j]] if into else in_m[tup[j]]
            mask &= m if present else ~m
        stack.append(mask)


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
    out_m, in_m = _masks(host, p, True)
    # s: the first earlier pattern neighbour of i (i if none); allowed[i]:
    # host vertices whose degrees admit pattern vertex i, shared between
    # pattern vertices with equal degrees.
    by_degrees = {}
    spec, allowed = [], []
    for i in range(p):
        out_i, in_i = pattern.out_adj[i], pattern.in_adj[i]
        s = min(out_i[:1] + in_i[:1] + (i,))
        spec.append((s, s, [
            rule for j in range(s, i)
            for rule in ((j, True, j in in_i), (j, False, j in out_i))
        ]))
        need = (len(out_i), len(in_i))
        if need not in by_degrees:
            by_degrees[need] = sum(
                1 << c
                for c in range(host.n)
                if host.out_degree(c) >= need[0] and host.in_degree(c) >= need[1]
            )
        allowed.append(by_degrees[need])
    return _first_witness(spec, allowed, out_m, in_m, INDUCED_ISO)


def _find_path(host: Digraph, k: int, kind: str):
    """The P_k subgraph or P_k* search.  Only out-masks are built, as no
    path spec forbids an arc out of a position."""
    k = _at_least(k, 2, "path pattern length")
    if host.n < k:
        return None
    out_m, in_m = _masks(host, k, False)
    star = kind == PK_STAR
    spec = [(0, 0, ())] + [
        (i - 1 if star else 0, 0, ((i - 1, True, True),)) for i in range(1, k)
    ]
    return _first_witness(spec, [(1 << host.n) - 1] * k, out_m, in_m, kind)


def find_pk_subgraph(host: Digraph, k: int):
    """First directed path on k distinct vertices, extra arcs allowed."""
    return _find_path(host, k, PK_SUBGRAPH)


def find_pk_star(host: Digraph, k: int):
    """First ordered k-tuple whose forward arcs are exactly the consecutive
    path arcs.

    Arcs from later tuple vertices back to earlier ones are unconstrained;
    any forward shortcut disqualifies the tuple.
    """
    return _find_path(host, k, PK_STAR)


def containment_chain_check(d: Digraph, k: int) -> tuple[bool, bool, bool]:
    """Compute (subgraph-free, star-free, induced-free) for paths of length k
    and assert the implication chain between them.

    A chain failure would mean one of the searches is wrong, so it raises
    AssertionError rather than returning.
    """
    sub_free = find_pk_subgraph(d, k) is None
    star_free = find_pk_star(d, k) is None
    induced_free = find_induced(d, gen_directed_path(k)) is None
    # Explicit raises, not assert statements, which python -O strips.
    if sub_free and not star_free:
        raise AssertionError("subgraph-free host contains a star tuple")
    if star_free and not induced_free:
        raise AssertionError("star-free host contains an induced path")
    return (sub_free, star_free, induced_free)
