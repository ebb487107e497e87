"""Generators, clique substitution and arc subdivision."""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copgame import (
    Digraph,
    InputError,
    clique_substitute_all,
    clique_substitute_vertex,
    find_induced,
    format_arc_list,
    gen_claw_orientations,
    gen_directed_cycle,
    gen_directed_path,
    gen_projective_plane_incidence_doubled,
    gen_random_digraph,
    is_strongly_connected,
    subdivide_arcs,
    underlying_girth,
)
import copgame.constructions
import copgame.digraph
from copgame.constructions import MAX_RANDOM_DRAWS, _random_rows
from copgame.digraph import MAX_ARCS, MAX_VERTICES, _from_rows

import oracles

# Mixed-degree host: center 2 with two in-only neighbors, two out-only
# neighbors and one bidirected neighbor (same graph as HUB in test_digraph).
HUB = Digraph(6, [(0, 2), (1, 2), (2, 4), (2, 5), (2, 3), (3, 2)])

# Substituting HUB's center: kept ids 0,1 (in), 2 (both, was 3), 3,4 (out,
# were 4,5); ports 5,6 face the in-neighbors, 7 the bidirected one, 8,9 the
# out-neighbors.  22 arcs: one per neighbor link (two for the bidirected
# one), the two two-port cliques, port 7 joined both ways to the other four,
# and a single arc from each in-port to each out-port.
HUB_SUB_ARCS = {
    (0, 5), (1, 6), (2, 7), (7, 2), (8, 3), (9, 4),
    (5, 6), (6, 5), (8, 9), (9, 8),
    (5, 7), (7, 5), (6, 7), (7, 6), (7, 8), (8, 7), (7, 9), (9, 7),
    (5, 8), (5, 9), (6, 8), (6, 9),
}

HUB_ALL_ARCS = {
    (0, 2), (1, 3), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 4), (3, 5),
    (3, 6), (4, 2), (4, 3), (4, 5), (4, 6), (4, 7), (5, 4), (5, 6), (5, 8),
    (6, 4), (6, 5), (6, 9), (7, 4),
}


def connected_digraphs(max_n=5):
    """Random digraphs without isolated vertices: a directed cycle plus
    seeded random extra arcs."""

    def build(n, p, seed):
        extra = gen_random_digraph(n, p, seed)
        return Digraph(n, list(gen_directed_cycle(n).arcs) + list(extra.arcs))

    return st.builds(
        build,
        st.integers(2, max_n),
        st.floats(0.0, 1.0, allow_nan=False),
        st.integers(0, 10**6),
    )


def sequential_substitute(d):
    """Substitute at every original vertex one at a time, tracking the id
    shifts, so the result can be compared with the all-at-once version."""
    ids = list(range(d.n))
    g = d
    for orig in range(d.n):
        v = ids[orig]
        g = clique_substitute_vertex(g, v)
        ids = [i - 1 if i > v else i for i in ids]
    return g


def port_ids(d):
    """Port (v, w) of the all-at-once substitution: the rank of (v, w) among
    the ordered adjacent pairs of d."""
    pairs = sorted((v, w) for v in range(d.n) for w in d.neighbors(v))
    return {pair: i for i, pair in enumerate(pairs)}


def substitution_calls():
    """Both substitutions, at every vertex and at -1 and n, over a fixed
    seeded set of hosts."""
    rng = random.Random(2024)
    hosts = [HUB, gen_directed_cycle(12), gen_projective_plane_incidence_doubled(2)]
    hosts += [gen_random_digraph(rng.randint(1, 8), rng.random(), seed) for seed in range(300)]
    for d in hosts:
        yield lambda d=d: clique_substitute_all(d)
        for v in range(-1, d.n + 1):
            yield lambda d=d, v=v: clique_substitute_vertex(d, v)


def substitution_outputs():
    """Arc lists (or error messages) of substitution_calls()."""
    for call in substitution_calls():
        try:
            yield format_arc_list(call())
        except InputError as exc:
            yield f"error: {exc}\n"


def bidirected_star(leaves):
    return Digraph(leaves + 1, [a for w in range(1, leaves + 1) for a in ((0, w), (w, 0))])


class TestPortLayout:
    def test_hub_arcs(self):
        # Ports 0, 1 face 2 from 0, 1 (plus); 2..6 are 2's ports facing
        # 0, 1 (minus), 3 (pm), 4, 5 (plus); 7 faces 2 from 3 (pm); 8, 9
        # face 2 from 4, 5 (minus).
        assert clique_substitute_all(HUB).arcs == frozenset(HUB_ALL_ARCS)

    @settings(max_examples=40, deadline=None)
    @given(connected_digraphs())
    def test_ports_follow_pair_rank(self, d):
        port = port_ids(d)
        out = clique_substitute_all(d)
        assert out.n == len(port)
        links = {(port[u, v], port[v, u]) for u, v in d.arcs}
        # Inside a cluster every ordered pair of ports is an arc except a
        # plus port (v -> w only) to a minus port (w -> v only).
        plus = {port[u, v] for u, v in d.arcs if not d.has_arc(v, u)}
        minus = {port[v, u] for u, v in d.arcs if not d.has_arc(v, u)}
        cluster = {
            (x, y)
            for (v, w), x in port.items()
            for (u, z), y in port.items()
            if u == v and w != z and not (x in plus and y in minus)
        }
        assert out.arcs == links | cluster

    def test_frozen_outputs(self):
        # 2,297 outputs, 851 of them errors; the digest was taken from the
        # two substitutions' separate implementations that _substitute
        # replaced, so it pins the port layout and the error messages.
        digest = hashlib.sha256("".join(substitution_outputs()).encode()).hexdigest()
        assert digest == "6bd68881cf926e2eb09ff9c029b71cb88bcf856ff18379979dee43a07bd76f7e"


class TestVertexSubstitution:
    def test_hub_center(self):
        sub = clique_substitute_vertex(HUB, 2)
        assert sub.n == 10
        assert sub.arcs == frozenset(HUB_SUB_ARCS)

    def test_single_arc_endpoints(self):
        p2 = gen_directed_path(2)
        assert clique_substitute_vertex(p2, 0).arcs == frozenset({(1, 0)})
        assert clique_substitute_vertex(p2, 1).arcs == frozenset({(0, 1)})

    def test_bidirected_pair_fixed_point(self):
        bp = gen_directed_cycle(2)
        assert clique_substitute_vertex(bp, 0) == bp

    def test_isolated_vertex_rejected(self):
        with pytest.raises(InputError, match="isolated"):
            clique_substitute_vertex(Digraph(2), 0)

    def test_out_of_range(self):
        with pytest.raises(InputError):
            clique_substitute_vertex(HUB, 6)

    @settings(max_examples=30, deadline=None)
    @given(connected_digraphs(), st.data())
    def test_size_and_untouched_remainder(self, d, data):
        v = data.draw(st.integers(0, d.n - 1))
        sub = clique_substitute_vertex(d, v)
        assert sub.n == d.n - 1 + d.degree(v)

        def keep(u):
            return u if u < v else u - 1

        expected = {
            (keep(a), keep(b)) for a, b in d.arcs if v not in (a, b)
        }
        kept_range = range(d.n - 1)
        inherited = {
            (a, b) for a, b in sub.arcs if a in kept_range and b in kept_range
        }
        assert inherited == expected


class TestGlobalSubstitution:
    def test_cycle_becomes_doubled_cycle(self):
        out = clique_substitute_all(gen_directed_cycle(3))
        assert out.n == 6 and out.arc_count == 6
        assert is_strongly_connected(out)
        assert all(
            out.in_degree(v) == out.out_degree(v) == 1 for v in range(out.n)
        )

    def test_hub_counts(self):
        out = clique_substitute_all(HUB)
        assert out.n == 10 and out.arc_count == 22

    def test_matches_one_at_a_time(self):
        for d in (
            gen_directed_cycle(2),
            gen_directed_path(3),
            gen_directed_cycle(3),
            gen_directed_cycle(4),
            Digraph(3, [(0, 1), (1, 2), (2, 1)]),
        ):
            assert oracles.naive_isomorphic(
                clique_substitute_all(d), sequential_substitute(d)
            )

    def test_isolated_vertex_rejected(self):
        with pytest.raises(InputError, match="isolated"):
            clique_substitute_all(Digraph(3, [(0, 1), (1, 0)]))

    @settings(max_examples=20, deadline=None)
    @given(connected_digraphs(max_n=4))
    def test_no_induced_claw_orientation(self, d):
        out = clique_substitute_all(d)
        for claw in gen_claw_orientations():
            assert find_induced(out, claw) is None


class TestSubdivision:
    def test_identity(self):
        assert subdivide_arcs(HUB, 1) == HUB

    def test_single_arc(self):
        out = subdivide_arcs(gen_directed_path(2), 3)
        assert out == Digraph(4, [(0, 2), (2, 3), (3, 1)])

    def test_cycle_doubles(self):
        out = subdivide_arcs(gen_directed_cycle(3), 2)
        assert out == Digraph(
            6, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)]
        )

    def test_bad_factor(self):
        with pytest.raises(InputError):
            subdivide_arcs(HUB, 0)

    @settings(max_examples=30, deadline=None)
    @given(connected_digraphs(max_n=4), st.integers(2, 3))
    def test_girth_multiplies(self, d, m):
        g = underlying_girth(d)
        out = subdivide_arcs(d, m)
        assert underlying_girth(out) == m * g
        if out.n <= 10:
            # the enumeration oracle blows up on bigger hosts; underlying_girth
            # itself is checked against it in test_digraph
            assert oracles.girth_by_enumeration(out) == m * g

    @settings(max_examples=30, deadline=None)
    @given(connected_digraphs(max_n=4), st.integers(1, 3))
    def test_preserves_strong_connectivity(self, d, m):
        assert is_strongly_connected(d)
        assert is_strongly_connected(subdivide_arcs(d, m))

    def test_acyclic_stays_infinite(self):
        assert underlying_girth(subdivide_arcs(gen_directed_path(3), 2)) == math.inf


class TestFamilies:
    def test_path(self):
        assert gen_directed_path(1) == Digraph(1)
        assert gen_directed_path(3) == Digraph(3, [(0, 1), (1, 2)])
        with pytest.raises(InputError):
            gen_directed_path(0)

    def test_cycle(self):
        assert gen_directed_cycle(2) == Digraph(2, [(0, 1), (1, 0)])
        assert gen_directed_cycle(4).arc_count == 4
        with pytest.raises(InputError):
            gen_directed_cycle(1)

    def test_claw_orientations(self):
        claws = gen_claw_orientations()
        assert len(claws) == 4
        in_leaves = [sum(1 for u, v in c.arcs if v == 0) for c in claws]
        assert in_leaves == [0, 1, 3, 2]
        for c in claws:
            assert c.n == 4 and c.arc_count == 3 and c.degree(0) == 3
        for i in range(4):
            for j in range(i + 1, 4):
                assert not oracles.naive_isomorphic(claws[i], claws[j])

    def test_plane_q2(self):
        plane = gen_projective_plane_incidence_doubled(2)
        assert plane.n == 14 and plane.arc_count == 42
        assert all(
            plane.in_degree(v) == plane.out_degree(v) == 3
            for v in range(plane.n)
        )
        # every arc is doubled and no arc stays inside a side
        arcs = plane.arcs
        assert all((v, u) in arcs for u, v in arcs)
        assert all((u < 7) != (v < 7) for u, v in arcs)
        assert oracles.is_bipartite(plane)
        assert oracles.simple_girth_edge_bfs(plane) == 6

    def test_plane_q3(self):
        plane = gen_projective_plane_incidence_doubled(3)
        assert plane.n == 26 and plane.arc_count == 104
        assert all(plane.out_degree(v) == 4 for v in range(plane.n))
        assert oracles.is_bipartite(plane)

    @pytest.mark.parametrize("q", [5, 7])
    def test_plane_orders_past_the_first_trial_divisor(self, q):
        # The primality test tries 2, then 3 and on; q = 2 and 3 stop at 2.
        plane = gen_projective_plane_incidence_doubled(q)
        points = q * q + q + 1
        assert plane.n == 2 * points and plane.arc_count == 2 * points * (q + 1)
        assert all(
            plane.in_degree(v) == plane.out_degree(v) == q + 1
            for v in range(plane.n)
        )
        assert oracles.is_bipartite(plane)
        assert oracles.simple_girth_edge_bfs(plane) == 6

    def test_plane_bad_order(self):
        for q in (1, 4, 9, 25):
            with pytest.raises(InputError, match="prime"):
                gen_projective_plane_incidence_doubled(q)

    def test_random_deterministic(self):
        a = gen_random_digraph(6, 0.4, 17)
        b = gen_random_digraph(6, 0.4, 17)
        assert a == b
        assert gen_random_digraph(6, 0.4, 18) != a

    def test_random_extremes(self):
        assert gen_random_digraph(4, 0.0, 1).arc_count == 0
        assert gen_random_digraph(4, 1.0, 1).arc_count == 12

    def test_random_bad_args(self):
        with pytest.raises(InputError):
            gen_random_digraph(0, 0.5, 1)
        with pytest.raises(InputError):
            gen_random_digraph(3, 1.5, 1)


class TestIntegerArguments:
    """Counts, ids and the random seed go through operator.index; a float,
    a string or None is refused with InputError before any work."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: gen_directed_cycle(4.0), "cycle length must be an integer, got 4.0"),
            (lambda: gen_directed_path(3.5), "path length must be an integer, got 3.5"),
            (lambda: subdivide_arcs(HUB, 2.0), "subdivision factor must be an integer, got 2.0"),
            (
                lambda: gen_projective_plane_incidence_doubled(2.0),
                "plane order must be an integer, got 2.0",
            ),
            (lambda: gen_random_digraph(5.0, 0.3, 1), "vertex count must be an integer, got 5.0"),
            (lambda: gen_random_digraph(5, 0.3, 1.5), "seed must be an integer, got 1.5"),
            # None would seed from the clock: a new graph on every run
            (lambda: gen_random_digraph(6, 0.5, None), "seed must be an integer, got None"),
            (
                lambda: gen_random_digraph(5, "0.3", 1),
                r"arc probability must be in \[0, 1\], got '0.3'",
            ),
            (lambda: clique_substitute_vertex(HUB, 1.0), "vertex must be an integer, got 1.0"),
        ],
        ids=["cycle", "path", "subdivide", "plane", "random-n", "random-seed",
             "random-no-seed", "random-p", "substitute"],
    )
    def test_non_integers_refused(self, call, message):
        with pytest.raises(InputError, match=message):
            call()

    def test_index_counts_accepted(self):
        two, three = oracles.Index(2), oracles.Index(3)
        assert gen_directed_cycle(oracles.Index(4)) == gen_directed_cycle(4)
        assert gen_directed_path(three) == gen_directed_path(3)
        assert subdivide_arcs(HUB, two) == subdivide_arcs(HUB, 2)
        plane = gen_projective_plane_incidence_doubled(2)
        assert gen_projective_plane_incidence_doubled(two) == plane
        assert gen_random_digraph(oracles.Index(6), 0.5, three) == gen_random_digraph(6, 0.5, 3)
        assert clique_substitute_vertex(HUB, two) == clique_substitute_vertex(HUB, 2)


class TestVertexCap:
    # The first six calls would produce exactly MAX_VERTICES + 1 vertices
    # (227 is the smallest prime plane above the cap), the rest far more;
    # the cap must fire before any arc list exists, so each call allocates
    # next to nothing.
    @pytest.mark.parametrize(
        "build",
        [
            lambda: gen_directed_path(MAX_VERTICES + 1),
            lambda: gen_directed_cycle(MAX_VERTICES + 1),
            lambda: gen_random_digraph(MAX_VERTICES + 1, 0.0, 1),
            lambda: gen_projective_plane_incidence_doubled(227),
            lambda: subdivide_arcs(gen_directed_path(2), MAX_VERTICES),
            lambda: subdivide_arcs(gen_directed_cycle(3), MAX_VERTICES // 3 + 1),
            lambda: gen_directed_path(10**18),
            lambda: gen_directed_cycle(10**18),
            lambda: gen_random_digraph(10**18, 0.5, 1),
            lambda: gen_projective_plane_incidence_doubled(10**18 + 9),
            lambda: subdivide_arcs(HUB, 10**18),
        ],
    )
    def test_refused_before_building(self, build):
        message, peak = oracles.refusal_and_traced_peak(build)
        assert "exceeds the limit" in message and peak < 100_000

    def test_random_draws_nothing(self):
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(InputError, match="exceeds the limit"):
            _from_rows(_random_rows(rng, MAX_VERTICES + 1, 0.5))
        assert rng.getstate() == state

    def test_at_the_cap(self):
        out = subdivide_arcs(gen_directed_path(2), MAX_VERTICES - 1)
        assert out.n == MAX_VERTICES


class TestArcCap:
    def test_big_star_refused_before_building(self):
        # 100,000 vertices pass the vertex cap; the center alone would need
        # 50,000 * 49,999 cluster arcs.
        star = bidirected_star(50_000)
        for substitute in (clique_substitute_all, lambda d: clique_substitute_vertex(d, 0)):
            message, peak = oracles.refusal_and_traced_peak(lambda: substitute(star))
            assert f"exceeds the limit of {MAX_ARCS}" in message and peak < 32 * 2**20

    def test_vertex_cap_comes_first(self):
        star = bidirected_star(50_001)
        for substitute in (clique_substitute_all, lambda d: clique_substitute_vertex(d, 0)):
            with pytest.raises(InputError, match="vertex count 100002 exceeds the limit"):
                substitute(star)

    def test_plane_refused_before_building(self):
        # q = 223 passes the vertex cap with 99,906 vertices, but its
        # 2 * 49,953 * 224 arcs would take the N^2 incidence loop minutes
        message, peak = oracles.refusal_and_traced_peak(
            lambda: gen_projective_plane_incidence_doubled(223))
        assert f"22378944 exceeds the limit of {MAX_ARCS}" in message and peak < 100_000

    def test_plane_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(copgame.digraph, "MAX_ARCS", 104)
        assert gen_projective_plane_incidence_doubled(3).arc_count == 104
        monkeypatch.setattr(copgame.digraph, "MAX_ARCS", 103)
        with pytest.raises(InputError, match="arc count 104 exceeds the limit of 103"):
            gen_projective_plane_incidence_doubled(3)

    def test_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(copgame.digraph, "MAX_ARCS", 22)
        assert clique_substitute_all(HUB).arc_count == 22
        assert clique_substitute_vertex(HUB, 2).arc_count == 22
        monkeypatch.setattr(copgame.digraph, "MAX_ARCS", 21)
        for substitute in (clique_substitute_all, lambda d: clique_substitute_vertex(d, 2)):
            with pytest.raises(InputError, match="arc count 22 exceeds the limit of 21"):
                substitute(HUB)
        # The same on every host of substitution_calls(): the count taken
        # before building must be the one built, so each call that builds
        # c arcs passes at MAX_ARCS = c and is refused at c - 1.
        monkeypatch.undo()
        built = []
        for call in substitution_calls():
            try:
                built.append((call, call().arc_count))
            except InputError:
                pass
        assert len(built) == 1446  # 2,297 calls less their 851 errors
        for call, c in built:
            monkeypatch.setattr(copgame.digraph, "MAX_ARCS", c)
            assert call().arc_count == c
            monkeypatch.setattr(copgame.digraph, "MAX_ARCS", c - 1)
            with pytest.raises(InputError, match=f"arc count {c} exceeds the limit of {c - 1}$"):
                call()


class CountingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return super().random()


class TestRandomDrawCap:
    def test_cap_sits_between_7071_and_7072_vertices(self):
        assert MAX_RANDOM_DRAWS == 10 * MAX_ARCS
        assert 7071 * 7070 <= MAX_RANDOM_DRAWS < 7072 * 7071

    def test_refused_before_drawing(self):
        rng = random.Random(5)
        state = rng.getstate()
        message, peak = oracles.refusal_and_traced_peak(
            lambda: _from_rows(_random_rows(rng, 7072, 0.0)))
        assert "random draw count 50006112 exceeds the limit" in message and peak < 100_000
        assert rng.getstate() == state

    def test_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(copgame.constructions, "MAX_RANDOM_DRAWS", 12)
        rng = CountingRandom(3)
        assert _from_rows(_random_rows(rng, 4, 0.5)) == gen_random_digraph(4, 0.5, 3)
        assert rng.draws == 12
        monkeypatch.setattr(copgame.constructions, "MAX_RANDOM_DRAWS", 11)
        with pytest.raises(InputError, match="random draw count 12 exceeds the limit of 11"):
            gen_random_digraph(4, 0.5, 3)

    def test_arcs_refused_mid_draw(self, monkeypatch):
        # p = 1 makes every draw an arc: the first row of 9 passes a cap
        # of 5 and the generator stops there, 81 draws short of the end.
        monkeypatch.setattr(copgame.digraph, "MAX_ARCS", 5)
        rng = CountingRandom(1)
        with pytest.raises(InputError, match="arc count 9 exceeds the limit of 5"):
            _from_rows(_random_rows(rng, 10, 1.0))
        assert rng.draws == 9

    def test_arc_cap_admits_exactly_the_cap(self, monkeypatch):
        monkeypatch.setattr(copgame.digraph, "MAX_ARCS", 90)
        assert gen_random_digraph(10, 1.0, 1).arc_count == 90
