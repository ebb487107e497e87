"""Digraph construction, queries and the text formats."""

import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copgame import (
    Digraph,
    InputError,
    cop_number,
    count_sources,
    find_pk_star,
    format_arc_list,
    gen_directed_cycle,
    gen_random_digraph,
    is_strongly_connected,
    is_weakly_connected,
    parse_arc_list,
    to_dot,
    underlying_girth,
)
import copgame.digraph
from copgame.constructions import _random_rows
from copgame.digraph import MAX_VERTICES, _from_rows, _in_rows
from copgame.harness import NAMED_INSTANCES, _rows_of_code

import oracles

# Star with one in-only, one out-only and one bidirected neighbor of the
# center vertex 2, plus a second in-only neighbor.
HUB = Digraph(6, [(0, 2), (1, 2), (2, 4), (2, 5), (2, 3), (3, 2)])


def fields(d):
    """Every field a builder fills; Digraph.__eq__ reads only n and arcs."""
    return d.n, d.arcs, d.out_adj, d.in_adj


def digraphs(max_n=7):
    return st.builds(
        gen_random_digraph,
        st.integers(1, max_n),
        st.floats(0.0, 1.0, allow_nan=False),
        st.integers(0, 10**6),
    )


class TestConstruction:
    def test_loop_rejected(self):
        with pytest.raises(InputError):
            Digraph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            Digraph(2, [(0, 2)])
        with pytest.raises(InputError):
            Digraph(2, [(-1, 0)])

    def test_repr(self):
        assert repr(gen_directed_cycle(4)) == "Digraph(n=4, arcs=4)"

    def test_zero_vertices_rejected(self):
        with pytest.raises(InputError):
            Digraph(0)

    def test_non_integer_vertex_count_refused(self):
        with pytest.raises(InputError, match="vertex count must be an integer, got 2.0"):
            Digraph(2.0)

    @pytest.mark.parametrize(
        "arc, shown",
        [((0, 1.0), r"\(0, 1.0\)"), ((0, 1, 2), r"\(0, 1, 2\)"), (0, "0"),
         ("01", "'01'"), ((None, 1), r"\(None, 1\)")],
    )
    def test_arc_not_a_pair_of_integers_refused(self, arc, shown):
        with pytest.raises(InputError, match=f"arc {shown} is not a pair of integers"):
            Digraph(3, [arc])

    def test_index_ids_stored_as_ints(self):
        # whatever operator.index accepts is taken as that int, so the
        # solver and the searches see plain ints
        n = 40
        ids = [oracles.Index(i) for i in range(n)]
        d = Digraph(oracles.Index(n), [(ids[i], ids[(i + 1) % n]) for i in range(n)])
        assert d == gen_directed_cycle(n)
        assert all(type(u) is int and type(v) is int for u, v in d.arcs)
        assert type(d.n) is int
        assert cop_number(d, 3) == 2
        assert find_pk_star(d, 3).vertices == (0, 1, 2)

    def test_vertex_count_capped_before_allocation(self):
        # A billion vertices would need two billion adjacency lists; the
        # cap rejects the count before building any of them.
        with pytest.raises(InputError, match="exceeds the limit"):
            Digraph(10**9)
        with pytest.raises(InputError, match="exceeds the limit"):
            Digraph(MAX_VERTICES + 1)

    def test_repeated_arcs_collapse(self):
        d = Digraph(2, [(0, 1), (0, 1)])
        assert d.arc_count == 1

    def test_adjacency_sorted_both_ways(self):
        d = Digraph(4, [(2, 1), (2, 0), (0, 2), (3, 2)])
        assert d.out_adj[2] == (0, 1)
        assert d.in_adj[2] == (0, 3)
        assert d.neighbors(2) == (0, 1, 3)
        assert d.degree(2) == 3

    def test_equality_ignores_arc_order(self):
        assert Digraph(3, [(0, 1), (1, 2)]) == Digraph(3, [(1, 2), (0, 1)])


class TestBuilders:
    """_from_rows, the unchecked builder, fills what the checked
    constructor fills from the same arcs."""

    @staticmethod
    def assert_builders_agree(rows):
        pairs = [(u, v) for u, row in enumerate(rows) for v in row]
        assert fields(_from_rows(rows)) == fields(Digraph(len(rows), pairs))
        # In-rows handed over by a caller that tested them fill the same.
        assert fields(_from_rows(rows, ins=_in_rows(rows))) == fields(_from_rows(rows))

    def test_seeded_random_rows(self):
        rng = random.Random(2024)
        for _ in range(200):
            self.assert_builders_agree(_random_rows(rng, rng.randint(1, 9), rng.random()))

    def test_every_code_up_to_three_vertices(self):
        for n in range(1, 4):
            for code in range(1 << n * (n - 1)):
                self.assert_builders_agree(_rows_of_code(n, code))

    def test_named_instances_round_trip_field_by_field(self):
        checked = 0
        for build, *_ in NAMED_INSTANCES.values():
            start = time.perf_counter()
            d = build()
            if time.perf_counter() - start >= 1:
                continue
            assert fields(parse_arc_list(format_arc_list(d))) == fields(d)
            checked += 1
        assert checked > 0


class TestConnectivity:
    def test_hub_not_strong(self):
        # vertex 0 has no in-arcs, so it cannot be reached from the center
        assert not is_strongly_connected(HUB)
        assert is_weakly_connected(HUB)

    def test_cycle_strong(self):
        d = Digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert is_strongly_connected(d)

    def test_single_vertex(self):
        assert is_strongly_connected(Digraph(1))
        assert is_weakly_connected(Digraph(1))

    def test_disconnected(self):
        d = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert not is_weakly_connected(d)
        assert not is_strongly_connected(d)

    @settings(max_examples=50, deadline=None)
    @given(digraphs())
    def test_strong_implies_weak(self, d):
        if is_strongly_connected(d):
            assert is_weakly_connected(d)


class TestSources:
    def test_in_star(self):
        d = Digraph(4, [(1, 0), (2, 0), (3, 0)])
        assert count_sources(d) == 3

    def test_cycle_has_none(self):
        assert count_sources(Digraph(3, [(0, 1), (1, 2), (2, 0)])) == 0

    def test_arcless(self):
        assert count_sources(Digraph(3)) == 3


class TestGirth:
    def test_opposite_pair_is_two(self):
        d = Digraph(2, [(0, 1), (1, 0)])
        assert underlying_girth(d) == 2
        assert oracles.girth_by_enumeration(d) == 2

    def test_directed_cycle(self):
        d = Digraph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert underlying_girth(d) == 5

    def test_forest_is_infinite(self):
        assert underlying_girth(Digraph(2, [(0, 1)])) == math.inf
        assert underlying_girth(Digraph(4, [(0, 1), (0, 2), (2, 3)])) == math.inf

    @settings(max_examples=60, deadline=None)
    @given(digraphs(max_n=6))
    def test_agrees_with_enumeration(self, d):
        assert underlying_girth(d) == oracles.girth_by_enumeration(d)

    @settings(max_examples=40, deadline=None)
    @given(digraphs(max_n=6), st.randoms(use_true_random=False))
    def test_relabeling_invariance(self, d, rng):
        perm = list(range(d.n))
        rng.shuffle(perm)
        relabeled = Digraph(d.n, [(perm[u], perm[v]) for u, v in d.arcs])
        assert underlying_girth(relabeled) == underlying_girth(d)


class TestArcListFormat:
    def test_round_trip(self):
        d = HUB
        assert parse_arc_list(format_arc_list(d)) == d

    def test_parse_simple(self):
        d = parse_arc_list("3 2\n0 1\n1 2\n")
        assert d.n == 3 and d.arcs == frozenset({(0, 1), (1, 2)})

    def test_unsorted_arc_lines_give_ascending_rows(self):
        d = Digraph(6, [(u, v) for u in range(6) for v in range(6) if u != v and (u + v) % 3])
        header, *body = format_arc_list(d).splitlines()
        for order in (body[::-1], random.Random(5).sample(body, len(body))):
            parsed = parse_arc_list("\n".join([header, *order]) + "\n")
            assert fields(parsed) == fields(d)
            assert all(list(row) == sorted(row) for row in parsed.out_adj + parsed.in_adj)

    def test_duplicate_line_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            parse_arc_list("2 2\n0 1\n0 1\n")

    def test_loop_rejected(self):
        with pytest.raises(InputError, match="loop"):
            parse_arc_list("2 1\n1 1\n")

    def test_wrong_count_rejected(self):
        with pytest.raises(InputError):
            parse_arc_list("2 2\n0 1\n")

    def test_bad_tokens_rejected(self):
        with pytest.raises(InputError):
            parse_arc_list("2 one\n")
        with pytest.raises(InputError):
            parse_arc_list("2 1\n0 x\n")

    @pytest.mark.parametrize("field", ["1_0", "\uff13", "\u0663"],
                             ids=["underscore", "fullwidth", "arabic-indic"])
    def test_fields_are_ascii_decimal_integers(self, field):
        # int() takes each of these fields, as 10, 3 and 3.
        for text, message in ((f"{field} 0\n", "line 1: header must be two integers"),
                              (f"12 1\n0 {field}\n", "line 2: expected two integers")):
            with pytest.raises(InputError) as info:
                parse_arc_list(text, source="bad.dg")
            assert str(info.value) == f"bad.dg: {message}"

    @pytest.mark.parametrize("body", ["0 1 2", "5"])
    def test_arc_line_needs_two_fields(self, body):
        with pytest.raises(InputError) as info:
            parse_arc_list(f"6 1\n{body}\n", source="bad.dg")
        assert str(info.value) == "bad.dg: line 2: expected 'tail head'"

    def test_signed_fields(self):
        assert parse_arc_list("+2 1\n+0 1\n") == Digraph(2, [(0, 1)])
        with pytest.raises(InputError) as info:
            parse_arc_list("2 1\n0 -1\n", source="bad.dg")
        assert str(info.value) == "bad.dg: line 2: arc (0, -1) out of range"

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError, match="out of range"):
            parse_arc_list("2 1\n0 5\n")

    def test_huge_header_rejected(self):
        with pytest.raises(InputError, match="exceeds the limit"):
            parse_arc_list("1000000000 0\n")

    @pytest.mark.parametrize("text, message", [
        ("0 0\n", "bad.dg: line 1: vertex count must be >= 1, got 0"),
        (
            "\n200000 0\n",
            f"bad.dg: line 2: vertex count 200000 exceeds the limit of {MAX_VERTICES}",
        ),
        ("3 -1\n", "bad.dg: line 1: arc count must be >= 0, got -1"),
        ("10 5000001\n0 1\n", "bad.dg: line 1: arc count 5000001 exceeds the limit of 5000000"),
    ], ids=["zero", "over-cap", "negative-arcs", "arcs-over-cap"])
    def test_header_counts_name_file_and_line(self, text, message):
        with pytest.raises(InputError) as info:
            parse_arc_list(text, source="bad.dg")
        assert str(info.value) == message

    def test_arc_cap_read_off_the_header(self, monkeypatch):
        # The header's m is checked against the cap before the arc lines
        # are parsed, so a file that holds all m arcs is refused too.
        text = "4 4\n0 1\n1 2\n2 3\n3 0\n"
        monkeypatch.setattr(copgame.digraph, "MAX_ARCS", 4)
        assert parse_arc_list(text).arc_count == 4
        monkeypatch.setattr(copgame.digraph, "MAX_ARCS", 3)
        with pytest.raises(InputError) as info:
            parse_arc_list(text, source="bad.dg")
        assert str(info.value) == "bad.dg: line 1: arc count 4 exceeds the limit of 3"

    def test_header_over_the_cap_refused_before_the_body_is_read(self):
        # A million arc lines after a header over the arc cap: the header is
        # read and refused first, so none of the body is split or copied.
        text = "10 5000001\n" + "0 1\n" * 1_000_000
        message, peak = oracles.refusal_and_traced_peak(lambda: parse_arc_list(text, "bad.dg"))
        assert message == "bad.dg: line 1: arc count 5000001 exceeds the limit of 5000000"
        assert peak < 10 * 2**20, peak

    def test_surplus_arc_lines_counted_without_keeping_them(self):
        text = "2 1\n" + "0 1\n" * 1_000_000
        message, peak = oracles.refusal_and_traced_peak(lambda: parse_arc_list(text, "bad.dg"))
        assert message == "bad.dg: expected 1 arc lines after the header, found 1000000"
        assert peak < 10 * 2**20, peak

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from(["", " ", "\t"]), max_size=4),
        st.lists(st.sampled_from(["", " "]), max_size=4),
        st.lists(st.sampled_from(["\n", "\r", "\r\n", "\x0c", "\x85", "\x1d", "\u2028"]),
                 min_size=10, max_size=10),
    )
    def test_lines_numbered_as_splitlines_numbers_them(self, before, between, breaks):
        # Blank lines before the header and between the arc lines, joined by
        # every kind of line break: each refusal names the line that
        # str.splitlines gives it.
        for header, bad, message in (("x", "x", "header must be 'n m'"),
                                     ("2 1", "0 x", "expected two integers")):
            lines = before + [header] + between + [bad]
            text = "".join(line + brk for line, brk in zip(lines, breaks))
            lineno = text.splitlines().index(bad) + 1
            with pytest.raises(InputError) as info:
                parse_arc_list(text, source="bad.dg")
            assert str(info.value) == f"bad.dg: line {lineno}: {message}"

    def test_source_name_in_message(self):
        with pytest.raises(InputError, match="bad.dg"):
            parse_arc_list("", source="bad.dg")

    @settings(max_examples=40, deadline=None)
    @given(digraphs())
    def test_round_trip_random(self, d):
        assert parse_arc_list(format_arc_list(d)) == d


class TestDot:
    def test_small_graph(self):
        d = Digraph(2, [(0, 1)])
        assert to_dot(d) == "digraph G {\n  0;\n  1;\n  0 -> 1;\n}\n"

    def test_isolated_vertices_listed(self):
        assert "  2;" in to_dot(Digraph(3, [(0, 1)]))
