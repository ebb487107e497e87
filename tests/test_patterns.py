"""Pattern searches and the containment chain between them."""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copgame import (
    Digraph,
    InputError,
    PatternWitness,
    clique_substitute_all,
    containment_chain_check,
    find_induced,
    find_pk_star,
    find_pk_subgraph,
    gen_claw_orientations,
    gen_directed_cycle,
    gen_directed_path,
    gen_projective_plane_incidence_doubled,
    gen_random_digraph,
)
import copgame
from copgame.patterns import MAX_MASK_BITS

import oracles

C3 = gen_directed_cycle(3)
K3 = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
P3 = gen_directed_path(3)

# Call count and digest of witness_digest(), computed before the searches
# shared one spec-reading loop.
FROZEN_WITNESSES_CALLS = 4200
FROZEN_WITNESSES_SHA256 = "88a2222d4510ee02b7f8d945228264719f8ded43a932246b50723d33c1babec2"


def digraphs(max_n=7):
    return st.builds(
        gen_random_digraph,
        st.integers(1, max_n),
        st.floats(0.0, 1.0, allow_nan=False),
        st.integers(0, 10**6),
    )


class TestFrozenChainValues:
    # computed with the oracles module: a directed triangle carries the
    # 3-path both as subgraph and as star tuple (wrap-around arcs point
    # backward) but no induced copy; the bidirected triangle only fails the
    # subgraph test; the path itself fails all three.
    def test_directed_triangle(self):
        assert containment_chain_check(C3, 3) == (False, False, True)

    def test_bidirected_triangle(self):
        assert containment_chain_check(K3, 3) == (False, True, True)

    def test_path_contains_itself(self):
        assert containment_chain_check(P3, 3) == (False, False, False)

    def test_subgraph_free_host_with_a_star_tuple_raises(self, monkeypatch):
        monkeypatch.setattr(copgame.patterns, "find_pk_subgraph", lambda d, k: None)
        with pytest.raises(AssertionError, match="^subgraph-free host contains a star tuple$"):
            containment_chain_check(gen_directed_path(4), 3)

    def test_star_free_host_with_an_induced_path_raises(self, monkeypatch):
        monkeypatch.setattr(copgame.patterns, "find_pk_star", lambda d, k: None)
        with pytest.raises(AssertionError, match="^star-free host contains an induced path$"):
            containment_chain_check(gen_directed_path(4), 3)

    def test_chain_checked_under_python_O(self):
        # With a star search that never finds anything, P3 is star-free but
        # contains an induced P3; python -O must not strip that check.
        script = (
            "import sys\n"
            "from copgame import Digraph, containment_chain_check, patterns\n"
            "if __debug__:\n"
            "    sys.exit('not optimized')\n"
            "patterns.find_pk_star = lambda d, k: None\n"
            "try:\n"
            "    print(containment_chain_check(Digraph(3, [(0, 1), (1, 2)]), 3))\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(copgame.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "raised: star-free host contains an induced path\n"

    def test_triangle_star_witness(self):
        wit = find_pk_star(C3, 3)
        assert wit == PatternWitness((0, 1, 2), "pk-star")

    def test_triangle_no_induced_path(self):
        assert find_induced(C3, P3) is None

    def test_substituted_plane_is_claw_free(self):
        host = clique_substitute_all(gen_projective_plane_incidence_doubled(2))
        assert host.n == 42
        for claw in gen_claw_orientations():
            assert find_induced(host, claw) is None


def witness_digest():
    """(calls, sha256 over the repr of every witness, or None) of the three
    searches on a seeded set: random hosts on n <= 30 vertices and
    clique_substitute_all hosts, each searched for P_k subgraphs and P_k*
    tuples with k = 2 .. 6, and for induced claws, paths, cycles and
    random patterns on at most 5 vertices."""
    rng = random.Random(20240801)
    hosts = [
        gen_random_digraph(
            rng.randint(1, 30), rng.choice((0.05, 0.1, 0.2, 0.35, 0.6)), rng.randrange(10**6)
        )
        for _ in range(100)
    ]
    while len(hosts) < 120:
        base = gen_random_digraph(rng.randint(2, 6), 0.4, rng.randrange(10**6))
        if all(base.degree(v) for v in range(base.n)):
            hosts.append(clique_substitute_all(base))
    patterns = list(gen_claw_orientations())
    patterns += [gen_directed_path(k) for k in range(2, 7)]
    patterns += [gen_directed_cycle(k) for k in range(2, 6)]
    patterns += [
        gen_random_digraph(rng.randint(1, 5), rng.choice((0.2, 0.4, 0.7)), rng.randrange(10**6))
        for _ in range(12)
    ]
    h = hashlib.sha256()
    calls = 0
    for host in hosts:
        for k in range(2, 7):
            h.update(repr(find_pk_subgraph(host, k)).encode())
            h.update(repr(find_pk_star(host, k)).encode())
            calls += 2
        for pattern in patterns:
            h.update(repr(find_induced(host, pattern)).encode())
            calls += 1
    return calls, h.hexdigest()


class TestFrozenWitnesses:
    def test_witness_digest(self):
        # Frozen before the three searches became specs of one loop: any
        # change to any witness, its kind or its absence changes the digest.
        assert witness_digest() == (FROZEN_WITNESSES_CALLS, FROZEN_WITNESSES_SHA256)


class TestSmallCases:
    def test_host_smaller_than_pattern(self):
        assert find_pk_subgraph(Digraph(2, [(0, 1)]), 3) is None
        assert find_pk_star(Digraph(1), 2) is None
        assert find_induced(Digraph(2, [(0, 1)]), P3) is None

    def test_k_below_two_rejected(self):
        for fn in (find_pk_subgraph, find_pk_star):
            with pytest.raises(InputError):
                fn(C3, 1)
        with pytest.raises(InputError):
            containment_chain_check(C3, 0)

    def test_non_integer_k_refused(self):
        for fn in (find_pk_subgraph, find_pk_star):
            with pytest.raises(InputError, match="pattern length must be an integer, got 3.0"):
                fn(C3, 3.0)

    def test_index_k_accepted(self):
        for fn in (find_pk_subgraph, find_pk_star):
            assert fn(C3, oracles.Index(3)) == fn(C3, 3)

    def test_single_arc(self):
        d = Digraph(2, [(0, 1)])
        assert find_pk_subgraph(d, 2).vertices == (0, 1)
        assert find_pk_star(d, 2).vertices == (0, 1)
        assert find_induced(d, gen_directed_path(2)).vertices == (0, 1)

    def test_induced_needs_exact_adjacency(self):
        # the bidirected pair hosts no induced single arc
        assert find_induced(gen_directed_cycle(2), gen_directed_path(2)) is None

    def test_star_rejects_forward_shortcut(self):
        d = Digraph(3, [(0, 1), (1, 2), (0, 2)])
        assert find_pk_subgraph(d, 3) is not None
        assert find_pk_star(d, 3) is None

    def test_star_allows_backward_arcs(self):
        d = Digraph(3, [(0, 1), (1, 2), (2, 0), (1, 0)])
        assert find_pk_star(d, 3).vertices == (0, 1, 2)

    def test_witness_kinds(self):
        assert find_pk_subgraph(C3, 3).kind == "pk-subgraph"
        assert find_pk_star(C3, 3).kind == "pk-star"
        assert find_induced(K3, gen_directed_cycle(2)).kind == "induced-iso"


class TestLongPatterns:
    # far deeper than the interpreter's default recursion limit of 1000
    def test_whole_path_found(self):
        path = gen_directed_path(1500)
        whole = tuple(range(1500))
        assert find_pk_subgraph(path, 1500).vertices == whole
        assert find_pk_star(path, 1500).vertices == whole
        assert find_induced(path, path).vertices == whole

    def test_mask_limit_refused_before_building(self):
        # the out-masks of a 100,000-vertex path alone take n^2 / 2 bits
        path = gen_directed_path(100_000)
        assert path.n * path.n // 2 > MAX_MASK_BITS
        for search in (find_pk_subgraph, find_pk_star):
            with pytest.raises(InputError, match="candidate masks"):
                search(path, 2)
        with pytest.raises(InputError, match="candidate masks"):
            find_induced(path, P3)


def patterns():
    """Patterns on 1-4 vertices: the claws, and random digraphs, which
    include disconnected ones, isolated vertices and opposite arc pairs."""
    return st.one_of(
        st.sampled_from(gen_claw_orientations()),
        digraphs(max_n=4),
    )


class TestAgainstOracles:
    @settings(max_examples=60, deadline=None)
    @given(digraphs(), st.integers(2, 4))
    def test_pk_subgraph_lex_first(self, d, k):
        got = find_pk_subgraph(d, k)
        expected = oracles.naive_pk_subgraph(d, k)
        assert (got.vertices if got else None) == expected

    @settings(max_examples=60, deadline=None)
    @given(digraphs(), st.integers(2, 4))
    def test_pk_star_lex_first(self, d, k):
        got = find_pk_star(d, k)
        expected = oracles.naive_pk_star(d, k)
        assert (got.vertices if got else None) == expected

    @settings(max_examples=60, deadline=None)
    @given(digraphs(max_n=6), st.integers(2, 5))
    def test_induced_path_lex_first(self, d, k):
        got = find_induced(d, gen_directed_path(k))
        expected = oracles.naive_induced(d, gen_directed_path(k))
        assert (got.vertices if got else None) == expected

    @settings(max_examples=30, deadline=None)
    @given(digraphs(max_n=6))
    def test_induced_cycle_against_oracle(self, d):
        pattern = gen_directed_cycle(3)
        got = find_induced(d, pattern)
        expected = oracles.naive_induced(d, pattern)
        assert (got.vertices if got else None) == expected

    @settings(max_examples=150, deadline=None)
    @given(digraphs(), patterns())
    def test_induced_general_pattern_lex_first(self, d, pattern):
        got = find_induced(d, pattern)
        expected = oracles.naive_induced(d, pattern)
        assert (got.vertices if got else None) == expected

    @settings(max_examples=200, deadline=None)
    @given(digraphs(), st.integers(3, 6))
    def test_pk_star_on_symmetric_hosts_is_induced_path(self, d, k):
        # Every pair of a symmetric host that is adjacent has a forward arc,
        # so a P_k* tuple is exactly an induced path of the underlying graph.
        host = oracles.symmetric_digraph(d.n, d.arcs)
        got = find_pk_star(host, k)
        assert (got.vertices if got else None) == oracles.first_induced_path(host, k)


class TestChainInvariants:
    @settings(max_examples=80, deadline=None)
    @given(digraphs(), st.integers(2, 5))
    def test_chain_is_monotone(self, d, k):
        sub_free, star_free, induced_free = containment_chain_check(d, k)
        assert not sub_free or star_free
        assert not star_free or induced_free

    @settings(max_examples=40, deadline=None)
    @given(digraphs(max_n=6), st.integers(2, 4), st.randoms(use_true_random=False))
    def test_freeness_is_relabeling_invariant(self, d, k, rng):
        perm = list(range(d.n))
        rng.shuffle(perm)
        relabeled = Digraph(d.n, [(perm[u], perm[v]) for u, v in d.arcs])
        assert containment_chain_check(d, k) == containment_chain_check(
            relabeled, k
        )

    @settings(max_examples=40, deadline=None)
    @given(digraphs(), st.integers(2, 4))
    def test_witness_is_valid(self, d, k):
        wit = find_pk_star(d, k)
        if wit is None:
            return
        tup = wit.vertices
        assert len(set(tup)) == k
        for i in range(k):
            for j in range(i + 1, k):
                assert d.has_arc(tup[i], tup[j]) == (j == i + 1)
