"""Game solver: move generation, the attractor, ranks and traces."""

import gc
import hashlib
import inspect
import math
import random
import sys
import time
import weakref
from array import array
from bisect import bisect_right
from itertools import combinations_with_replacement, count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copgame import (
    COPS,
    ROBBER,
    Digraph,
    GamePosition,
    InputError,
    StateBudgetExceeded,
    clique_substitute_all,
    cop_number,
    gen_directed_cycle,
    gen_directed_path,
    gen_projective_plane_incidence_doubled,
    gen_random_digraph,
    legal_moves,
    play_trace,
    solve,
    subdivide_arcs,
)

import copgame.solver as solver
from copgame.harness import NAMED_INSTANCES, _claim
from copgame.solver import (
    _block_starts,
    _grouped_pushes,
    _lane_bytes,
    _lane_width,
    _multiset_index,
    _nonzero_lanes,
    _pack,
    _reach_columns,
    _reach_tables,
    _removal_tables,
    _settle_columns,
    _settle_lanes,
    _split_rows,
)

import oracles

C3 = gen_directed_cycle(3)
C4 = gen_directed_cycle(4)
P3 = gen_directed_path(3)
K3 = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])


def digraphs(max_n=4):
    return st.builds(
        gen_random_digraph,
        st.integers(1, max_n),
        st.floats(0.0, 1.0, allow_nan=False),
        st.integers(0, 10**6),
    )


class TestGamePosition:
    def test_cops_stored_sorted(self):
        assert GamePosition((2, 0), 1, COPS).cops == (0, 2)

    def test_bad_side_rejected(self):
        with pytest.raises(InputError):
            GamePosition((0,), 1, "nobody")

    def test_ordering_is_total(self):
        a = GamePosition((0, 1), 2, COPS)
        b = GamePosition((0, 2), 0, COPS)
        assert a < b

    def test_integer_like_ids_stored_as_ints(self):
        pos = GamePosition((oracles.Index(2), 0), oracles.Index(1), COPS)
        assert pos == GamePosition((0, 2), 1, COPS)
        assert all(type(v) is int for v in (*pos.cops, pos.robber))
        result = solve(C4, 2)
        assert result.win(GamePosition((0, 1), oracles.Index(2), COPS))
        assert result.placement_wins((oracles.Index(0), oracles.Index(2)))
        assert legal_moves(C4, GamePosition((oracles.Index(0),), 1, ROBBER)) == \
            legal_moves(C4, GamePosition((0,), 1, ROBBER))

    def test_non_integer_ids_refused_before_sorting(self):
        # A mix of ints and other values used to fail in the sort with
        # TypeError before any check could name the bad id.
        with pytest.raises(InputError, match="cop vertex must be an integer, got 'a'"):
            GamePosition((0, "a"), 1, COPS)
        with pytest.raises(InputError, match="cop vertex must be an integer, got 'a'"):
            solve(C4, 2).placement_wins((0, "a"))
        with pytest.raises(InputError, match="robber vertex must be an integer, got None"):
            GamePosition((0,), None, ROBBER)

    def test_non_iterable_cops_refused(self):
        with pytest.raises(InputError, match="cops must be iterable, got 5"):
            GamePosition(5, 0, COPS)
        with pytest.raises(InputError, match="cops must be iterable, got 0"):
            solve(C4, 1).placement_wins(0)


class TestLegalMoves:
    def test_two_cops_collapse_to_multisets(self):
        moves = legal_moves(C3, GamePosition((0, 0), 2, COPS))
        assert [m.cops for m in moves] == [(0, 0), (0, 1), (1, 1)]
        assert all(m.robber == 2 and m.to_move == ROBBER for m in moves)

    def test_single_cop(self):
        moves = legal_moves(P3, GamePosition((0,), 2, COPS))
        assert [m.cops for m in moves] == [(0,), (1,)]

    def test_sink_cop_can_only_stay(self):
        moves = legal_moves(P3, GamePosition((2,), 0, COPS))
        assert [m.cops for m in moves] == [(2,)]

    def test_robber_moves(self):
        moves = legal_moves(C3, GamePosition((0,), 1, ROBBER))
        assert [m.robber for m in moves] == [1, 2]
        assert all(m.cops == (0,) and m.to_move == COPS for m in moves)

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            legal_moves(C3, GamePosition((3,), 0, COPS))
        with pytest.raises(InputError):
            legal_moves(C3, GamePosition((0,), 3, ROBBER))
        with pytest.raises(InputError):
            legal_moves(C3, GamePosition((), 0, COPS))


class TestSolveAgainstMinimax:
    def check(self, d, k):
        result = solve(d, k)
        table = oracles.minimax_cop_win(d, k)
        for (cw, r, side), expected in table.items():
            assert result.win(GamePosition(cw, r, side)) == expected

    def test_fixed_small_games(self):
        for d in (P3, C3, C4, K3, gen_directed_cycle(2)):
            for k in (1, 2):
                self.check(d, k)

    @settings(max_examples=25, deadline=None)
    @given(digraphs(), st.integers(1, 2))
    def test_random_games(self, d, k):
        self.check(d, k)


class TestRanks:
    def test_rank_zero_is_capture(self):
        result = solve(C4, 2)
        for pos in result.positions():
            if result.win(pos):
                assert (result.rank(pos) == 0) == (pos.robber in pos.cops)
            else:
                assert result.rank(pos) is None

    # k = 3 is the first k with a sub-move stage where both the moved and
    # the unmoved multiset are non-empty and one of them has two cops.
    @settings(max_examples=30, deadline=None)
    @given(digraphs(), st.integers(1, 3))
    def test_cops_minimize_robber_maximizes(self, d, k):
        result = solve(d, k)
        for pos in result.positions():
            if not result.win(pos) or result.rank(pos) == 0:
                continue
            ranks = [result.rank(s) for s in legal_moves(d, pos)]
            if pos.to_move == COPS:
                wins = [r for r in ranks if r is not None]
                assert result.rank(pos) == 1 + min(wins)
            else:
                assert None not in ranks
                assert result.rank(pos) == 1 + max(ranks)

    @staticmethod
    def check_rank_parity(d, k, robbers=None):
        # A robber-to-move rank is even and a cop-to-move rank is 0 or odd.
        # A robber not yet caught may stay put, on a cop-to-move position
        # that is no capture, so its rank is 1 + the largest, odd, rank of
        # such successors; a cop move leads to a robber-to-move position.
        result = solve(d, k)
        for cops in result.placements():
            for r in range(d.n) if robbers is None else robbers:
                cop = result.rank(GamePosition(cops, r, COPS))
                rob = result.rank(GamePosition(cops, r, ROBBER))
                assert cop is None or cop == 0 or cop % 2 == 1
                assert rob is None or rob % 2 == 0

    def test_rank_parity_in_every_lane_class(self):
        for d, k, robbers in lane_class_games():
            self.check_rank_parity(d, k, robbers)

    @settings(max_examples=40, deadline=None)
    @given(digraphs(6), st.integers(1, 3))
    def test_rank_parity(self, d, k):
        self.check_rank_parity(d, k)

    def test_one_cop_on_a_tree(self):
        # One cop on a bidirected tree does best from a centre: the robber
        # then starts at most radius away and, fleeing, is caught on the
        # radius-th cop move, after 2 * radius - 1 half-moves.
        rng = random.Random(26)
        for _ in range(200):
            n = rng.randint(2, 12)
            tree = oracles.symmetric_digraph(n, [(v, rng.randrange(v)) for v in range(1, n)])
            result = solve(tree, 1)
            best = min(
                max(result.rank(GamePosition((c,), r, COPS)) for r in range(n))
                for c in range(n)
            )
            assert best == 2 * oracles.radius(tree) - 1

    def test_ranks_match_minimax(self):
        # Every position of 300 seeded games with n <= 6 and k <= 3 has the
        # rank that synchronous-round minimax gives it.
        rng = random.Random(29)
        for _ in range(300):
            d = gen_random_digraph(rng.randint(1, 6), rng.random(), rng.randrange(10**6))
            k = rng.randint(1, 3)
            result = solve(d, k)
            for (cw, r, side), rank in oracles.minimax_ranks(d, k).items():
                assert result.rank(GamePosition(cw, r, side)) == rank, (d.arcs, k, cw, r, side)

    def test_ranks_match_minimax_in_wide_lanes(self):
        # Lanes of two and three words (W = 128 and 192): every position of
        # one-cop games on 65 to 130 vertices, robber-to-move ranks up to
        # 128 on the directed path, and a two-cop game on 65 vertices whose
        # only arcs form a directed C_5 on vertices 60 to 64, across the
        # first word's top bit.
        games = [
            (gen_directed_path(65), 1),
            (gen_random_digraph(65, 0.03, 1), 1),
            (gen_random_digraph(130, 0.02, 1), 1),
            (Digraph(65, [(v, v + 1) for v in range(60, 64)] + [(64, 60)]), 2),
        ]
        for d, k in games:
            result = solve(d, k)
            for (cw, r, side), rank in oracles.minimax_ranks(d, k).items():
                assert result.rank(GamePosition(cw, r, side)) == rank, (d.n, k, cw, r, side)

    def test_ranks_along_a_long_trace(self):
        # Two cops on C_100 capture after 197 half-moves, and each
        # snapshot's rank is one below the one before: ranks from about
        # 197 levels of the log.
        d = gen_directed_cycle(100)
        trace = play_trace(d, 2)
        result = solve(d, 2)
        assert trace.outcome == "capture"
        assert [result.rank(pos) for pos in trace.snapshots] == list(range(197, -1, -1))

    def test_early_stop_level_is_the_capture_time(self):
        # solve stops at the first level that fills a placement's mask, and
        # the log holds one entry per odd level from 3 on, so the stop level,
        # read before any query finishes the table, is the capture time:
        # the least, over the winning placements, of the worst robber
        # start's cop-to-move rank.  Level 1 always runs, so a placement on
        # every vertex, which captures at once, stops there too.
        rng = random.Random(11)
        games = [
            (gen_random_digraph(rng.randint(1, 7), rng.random(), rng.randrange(10**6)),
             rng.randint(1, 3))
            for _ in range(600)
        ]
        games += [(gen_projective_plane_incidence_doubled(2), 3), (gen_directed_cycle(12), 2)]
        stops = []
        for d, k in games:
            result = solve(d, k)
            stop = 2 * len(result._log) + 1
            wins = list(result.winning_placements())
            if wins:
                worst = [max(result.rank(GamePosition(p, r, COPS)) for r in range(d.n))
                         for p in wins]
                assert stop == max(1, min(worst))
                stops.append(stop)
        assert len(stops) == 505
        assert stops[-2:] == [3, 9]

    def test_best_move_decreases_rank(self):
        result = solve(C4, 2)
        for pos in result.positions():
            if pos.to_move != COPS or not result.win(pos) or result.rank(pos) == 0:
                continue
            nxt = result.best_move(pos)
            assert result.rank(nxt) == result.rank(pos) - 1

    @settings(max_examples=30, deadline=None)
    @given(digraphs(), st.integers(1, 3))
    def test_best_move_is_smallest_rank_decreasing_successor(self, d, k):
        result = solve(d, k)
        for pos in result.positions():
            if pos.to_move != COPS or not result.rank(pos):
                continue
            target = result.rank(pos) - 1
            expected = min(
                s for s in legal_moves(d, pos) if result.rank(s) == target
            )
            assert result.best_move(pos) == expected

    def test_best_move_none_cases(self):
        result = solve(C4, 2)
        assert result.best_move(GamePosition((0, 0), 0, COPS)) is None  # capture
        assert result.best_move(GamePosition((0, 1), 2, ROBBER)) is None

    def test_missing_step_raises(self, monkeypatch):
        # With an empty level put before the log every logged level reads
        # two too high, so a cop-to-move position of rank 3 reads 5, while
        # its robber-to-move successors of rank 2, whose successors all lie
        # in N+[C] and need no log, still read 2: none is one rank below.
        # play_trace's robber starts deeper and comes down to such a
        # position.
        result = solve(C4, 2)
        pos = next(p for p in result.positions() if p.to_move == COPS and result.rank(p) == 3)
        result._log.insert(0, (array("I"), b""))
        with pytest.raises(RuntimeError, match="no successor of key"):
            result.best_move(pos)
        monkeypatch.setattr(solver, "solve", lambda *args: result)
        with pytest.raises(RuntimeError, match="no successor of key"):
            play_trace(C4, 2)


def frozen_games():
    rng = random.Random(6)
    for _ in range(300):
        d = gen_random_digraph(rng.randint(1, 6), rng.random(), rng.randrange(10**6))
        yield d, rng.randint(1, 3)
    yield gen_projective_plane_incidence_doubled(2), 3


def table_lines(d, k, robbers=None):
    """One line per position, or per position whose robber is in robbers."""
    result = solve(d, k)
    positions = result.positions()
    if robbers is not None:
        positions = (
            GamePosition(cw, r, side)
            for cw in result.placements()
            for r in robbers
            for side in (COPS, ROBBER)
        )
    for pos in positions:
        move = result.best_move(pos)
        yield (
            f"{pos.cops} {pos.robber} {pos.to_move} {result.win(pos)} "
            f"{result.rank(pos)} {move and move.cops}\n"
        )


def lane_class_games():
    """Games in every lane class of the packed sub-move stages: lanes of 8,
    16, 32 and 64 bits (n up to 8, 16, 32 and 64), then lanes of several
    64-bit words (n from 65 to 130; n = 128 fills its lanes).  The larger
    games check only the positions of a few robber vertices, the last
    vertex among them, whose bit is the top of its lane."""
    rng = random.Random(7)
    table = [
        (5, 0.5, 3, None),
        (6, 0.3, 2, None),
        (7, 0.4, 3, None),
        (8, 0.3, 1, None),
        (8, 0.25, 3, None),
        (9, 0.3, 3, None),
        (12, 0.2, 2, None),
        (16, 0.15, 1, None),
        (16, 0.12, 2, None),
        (17, 0.1, 3, (0, 16)),
        (24, 0.08, 2, (0, 23)),
        (32, 0.06, 1, None),
        (33, 0.06, 2, None),
        (36, 0.05, 3, (35,)),
        (64, 0.03, 1, None),
        (65, 0.03, 1, None),
        (66, 0.03, 2, (0, 33, 65)),
        (130, 0.02, 1, None),
        (128, 0.015, 2, (127,)),
    ]
    for n, p, k, robbers in table:
        yield gen_random_digraph(n, p, rng.randrange(10**6)), k, robbers
    yield gen_directed_cycle(100), 2, (0, 64, 99)


def packed(lanes, width):
    return sum(mask << width * i for i, mask in enumerate(lanes))


def unpacked(lanes, width):
    """The masks of the little-endian lanes of bytes lanes, width bits each."""
    step = width // 8
    assert len(lanes) % step == 0
    return [int.from_bytes(lanes[i:i + step], "little") for i in range(0, len(lanes), step)]


def lanes_below(n, t):
    """The (cut, put) lane offsets of prepending each vertex to the
    multisets of each size below t, read off the block starts as the
    pushes read them."""
    starts = _block_starts(n, t)
    return [list(zip(starts[s], starts[s + 1])) for s in range(t)]


class TestFrozenTables:
    def test_win_rank_best_move(self):
        # 49,000 positions: 300 seeded games with n <= 6 and k <= 3, then
        # the q = 2 plane at k = 3.  The digest was taken from the solver
        # that pushed level 1 through the sub-move arcs and kept a dict of
        # each stage's touched states, so it pins the tables across cores.
        digest = hashlib.sha256()
        for d, k in frozen_games():
            for line in table_lines(d, k):
                digest.update(line.encode())
        assert digest.hexdigest() == (
            "7bfdbb8ee38c98dea66c5df353de95278fc7acecbe758a1319b672c6b6efaf30"
        )

    def test_win_rank_best_move_in_every_lane_class(self):
        # 185,074 positions of 20 games, n from 5 to 130 and k from 1 to 3.
        # The digest was taken from the solver that kept one mask per
        # sub-move state, before the middle stages were packed into rows.
        digest = hashlib.sha256()
        for d, k, robbers in lane_class_games():
            for line in table_lines(d, k, robbers):
                digest.update(line.encode())
        assert digest.hexdigest() == (
            "e09737a8037834f03a1924389b9acfb9ad9157bedbfa5bd7eb33f1685e7215ab"
        )

    @settings(max_examples=40, deadline=None)
    @given(digraphs(6), st.integers(1, 3))
    def test_level_one_closed_form(self, d, k):
        # The cops capture within one half-move exactly when the robber
        # stands in N+[C], the closed out-neighbourhood of the cops; the
        # robber to move is lost at once only when already caught.
        result = solve(d, k)
        for pos in result.positions():
            rank = result.rank(pos)
            if pos.to_move == COPS:
                reach = set(pos.cops).union(*(d.out_adj[c] for c in pos.cops))
                assert (rank is not None and rank <= 1) == (pos.robber in reach)
            else:
                assert (rank == 0) == (pos.robber in pos.cops)

    @staticmethod
    def check_level_two(d, k, robbers=None):
        # The robber to move is lost within two half-moves exactly when
        # already caught (rank 0) or when every robber move, staying put
        # included, lands in N+[C] (rank 2; no robber-to-move rank is odd).
        result = solve(d, k)
        closed_out = [{v, *d.out_adj[v]} for v in range(d.n)]
        for cops in result.placements():
            reach = set().union(*(closed_out[c] for c in cops))
            for r in range(d.n) if robbers is None else robbers:
                rank = result.rank(GamePosition(cops, r, ROBBER))
                expected = 0 if r in cops else 2 if closed_out[r] <= reach else None
                assert (rank if rank is not None and rank <= 2 else None) == expected

    @settings(max_examples=40, deadline=None)
    @given(digraphs(6), st.integers(1, 3))
    def test_level_two_closed_form(self, d, k):
        self.check_level_two(d, k)

    def test_level_two_in_every_lane_class(self):
        # Level 2 settles the robber side of every cop multiset, by byte
        # columns once there are at least _COLUMNS_FROM of them and one at
        # a time below: either way it must meet the closed form.
        for d, k, robbers in lane_class_games():
            self.check_level_two(d, k, robbers)

    @pytest.mark.parametrize("host, k, expected", [
        # 1,235,052 positions: the pushes into stages 2 and 3 on a dense
        # host, with lanes of 32 bits.
        pytest.param(
            lambda: gen_projective_plane_incidence_doubled(3), 4,
            "006b55b408f88bf5c91b4813debeab6ebb0aa98c8b95badba453c9b8b4d8a90f",
            id="plane-q3-k4",
        ),
        # 1,112,496 positions, n = 42: lanes of 64 bits.
        pytest.param(
            lambda: clique_substitute_all(gen_projective_plane_incidence_doubled(2)), 3,
            "9fec3b7d4cb0d113de8d2dfc3d4930b847b5c532b775ccf883f2c54f9606c40e",
            id="substituted-plane-q2-k3",
        ),
    ])
    def test_full_tables_of_dense_hosts(self, host, k, expected):
        # The win masks and rank planes of the finished table, as lists.
        # The planes are rebuilt from the log (see rank_planes).
        # The digests were taken from the solver that pushed every child
        # row into its parents one shift per (child, u).
        assert table_digest(solve(host(), k)) == expected


def logged_gains(result):
    """result's log, the cop side's, as lists, the one reader of the packed
    log in these tests: one (idx, masks) pair of lists per entry, entry i
    of level 2i + 3, the masks read back from the entry's lanes,
    len(lanes) // len(idx) bytes each, one lane width for the whole log.
    The cop side gains nothing at even levels, which are not logged."""
    decoded, widths = [], set()
    for idx, lanes in result._log:
        width = 8 * len(lanes) // len(idx) if idx else 8
        if idx:
            widths.add(width)
        decoded.append((list(idx), unpacked(lanes, width)))
    assert len(widths) <= 1, widths
    return decoded


def decoded_log(result):
    """Per side, one (idx, masks) pair of lists per log entry i: the cop
    side's at level 2i + 3, as logged (logged_gains), and the robber
    side's at level 2i + 2, which the solver does not log, derived from
    it; the robber side gains nothing at odd levels.  At level L, C gains
    the r whose closed out-neighbourhood lies in copwin[C] as of L - 1,
    and only the cop multisets the cop side changed at L - 1 can gain:
    every one at L = 2, since level 1 sets copwin[C] to N+[C] and
    robwin[C] to bits(C)."""
    d, cops = result._d, logged_gains(result)
    closed_out = [1 << v | sum(1 << w for w in d.out_adj[v]) for v in range(d.n)]
    copwin, robwin = [], []
    for placement in result.placements():
        near = 0
        for c in placement:
            near |= closed_out[c]
        copwin.append(near)
        robwin.append(sum(1 << c for c in set(placement)))
    robbers, changed = [], range(len(copwin))
    for idx, masks in cops:
        gains = ([], [])
        for ci in changed:
            cw, gained = copwin[ci], 0
            # r lies in its own closed out-neighbourhood, so only the bits
            # of copwin[C] not yet won are candidates.
            candidates = cw & ~robwin[ci]
            while candidates:
                bit = candidates & -candidates
                if not closed_out[bit.bit_length() - 1] & ~cw:
                    gained |= bit
                candidates ^= bit
            if gained:
                gains[0].append(ci)
                gains[1].append(gained)
                robwin[ci] |= gained
        robbers.append(gains)
        for ci, mask in zip(idx, masks):
            copwin[ci] |= mask
        changed = idx
    return cops, robbers


def rank_planes(result):
    """The bit-sliced rank planes of a finished table, the layout the
    solver once kept and the frozen digests hash: plane t of a side holds,
    per cop multiset, the mask of robber vertices whose rank with that side
    to move has bit t set.  Each side had one plane per bit of the last
    level run, made as the levels reached it: the cop side's first plane
    holds its level-1 wins, N+[C] minus bits(C), and the robber side had
    none until level 2 ran."""
    d, copwin, logs = result._d, result._wins[0], decoded_log(result)
    # The last level run was 2 * len(log) + 1, or one below it when that
    # pass's cop side gained nothing: one bit length either way.
    last = 2 * len(logs[0]) + 1
    planes = tuple(
        [[0] * len(copwin) for _ in range(last.bit_length() if log or side == 0 else 0)]
        for side, log in enumerate(logs)
    )
    for ci, cops in enumerate(result.placements()):
        bits = {*cops}
        nbhd = bits.union(*(d.out_adj[c] for c in cops))
        planes[0][0][ci] = sum(1 << v for v in nbhd - bits)
    for side, log in enumerate(logs):
        for level, (idx, masks) in zip(count(3 - side, 2), log):
            for t in range(level.bit_length()):
                if level >> t & 1:
                    for ci, mask in zip(idx, masks):
                        planes[side][t][ci] |= mask
    return planes


def table_digest(result):
    """sha256 of a finished table: its win masks, then its rank planes."""
    result._complete()
    digest = hashlib.sha256()
    digest.update(repr(result._wins).encode())
    digest.update(repr(rank_planes(result)).encode())
    return digest.hexdigest()


def level_yields(d, k):
    """The finished SolveResult of (d, k), the lists _levels yielded, one
    per pass, whether solve or _complete ran the pass, and the changes
    each pass made, in the log's layout: per side, one (idx, masks) pair
    per pass, read off copies of copwin and robwin taken between the
    yields.  Pass i settles the robber side of level 2i + 2 and the cop
    side of level 2i + 3."""
    yields, changes = [], ([], [])
    levels = solver._levels

    def recording(d, k, lanes, bits, nbhd, copwin, robwin, log):
        before = copwin[:], robwin[:]
        for changed in levels(d, k, lanes, bits, nbhd, copwin, robwin, log):
            yields.append(list(changed))
            for side, (old, new) in enumerate(zip(before, (copwin, robwin))):
                idx = [ci for ci, (a, b) in enumerate(zip(old, new)) if a != b]
                changes[side].append((idx, [new[ci] ^ old[ci] for ci in idx]))
            before = copwin[:], robwin[:]
            yield changed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_levels", recording)
        result = solve(d, k)
        result._complete()
    return result, yields, changes


class TestLevelYields:
    """cop_number's early stop reads _levels' yields: at each odd level
    L >= 3, the cop multisets that gained a cop-to-move win at L,
    ascending.  The log that rank reads holds, per odd level, the same
    multisets and the bits each gained, and the robber side's gains follow
    from it (decoded_log)."""

    def check(self, d, k):
        result, yields, changes = level_yields(d, k)
        assert yields == [idx for idx, _ in changes[0]]
        assert decoded_log(result) == changes

    def test_every_lane_class(self):
        for d, k, _ in lane_class_games():
            self.check(d, k)

    @settings(max_examples=40, deadline=None)
    @given(digraphs(6), st.integers(1, 3))
    def test_random_games(self, d, k):
        self.check(d, k)

    def test_order_3_plane(self):
        # The early stop comes at level 3 of the k = 4 game, so solve and
        # _complete each run some of the levels.
        self.check(gen_projective_plane_incidence_doubled(3), 4)

    def test_hosts_without_arcs(self):
        # Every escape reaches only itself, so the tables keep their closed
        # form, and the level loop reaches its fixpoint after one pass that
        # settles nothing.  solve runs no level when a placement covers
        # every vertex.
        for n in range(1, 7):
            d = Digraph(n)
            for k in range(1, 4):
                result = solve(d, k)
                if k >= n:
                    assert decoded_log(result) == ([], [])
                result._complete()
                assert decoded_log(result) == ([([], [])], [([], [])])
                bits = [sum(1 << v for v in set(cops))
                        for cops in combinations_with_replacement(range(n), k)]
                assert result._wins == (bits, bits)
                for pos in result.positions():
                    for side in (COPS, ROBBER):
                        at = GamePosition(pos.cops, pos.robber, side)
                        assert result.rank(at) == (0 if pos.robber in pos.cops else None)
                self.check(d, k)

    def test_wide_lanes_match_one_word_lanes(self, monkeypatch):
        # Lanes wider than one word run their own kernels: the grouped
        # j = 1 push, _nonzero_lanes, also for the robber side's byte
        # columns, and the joined _pack.  Forced on the games whose own
        # lanes fit one word, they must give the same tables and yields.
        games = [(d, k) for d, k, _ in lane_class_games() if d.n <= 64]
        own = [level_yields(d, k) for d, k in games]
        for width in (128, 192):
            monkeypatch.setattr(solver, "_lane_width", lambda n: width)
            for (d, k), (result, yields, _) in zip(games, own):
                wide, wide_yields, _ = level_yields(d, k)
                assert wide._wins == result._wins
                assert logged_gains(wide) == logged_gains(result)
                assert wide_yields == yields

    def check_robber_paths(self, d, k):
        # Every robber level forced by byte columns, in chunks of 1 and 3
        # cop multisets so that chunk edges fall inside levels, then every
        # level forced one multiset at a time: the same tables and yields.
        result, yields, _ = level_yields(d, k)
        for columns_from, chunk in [(0, 1), (0, 3), (math.inf, solver._COLUMN_CHUNK)]:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(solver, "_COLUMNS_FROM", columns_from)
                patch.setattr(solver, "_COLUMN_CHUNK", chunk)
                forced, forced_yields, _ = level_yields(d, k)
            assert forced._wins == result._wins
            assert forced._log == result._log
            assert forced_yields == yields

    def test_robber_paths_in_every_lane_class(self):
        for d, k, _ in lane_class_games():
            self.check_robber_paths(d, k)

    @settings(max_examples=40, deadline=None)
    @given(digraphs(6), st.integers(1, 3))
    def test_robber_paths_on_random_games(self, d, k):
        self.check_robber_paths(d, k)

    def test_robber_paths_on_the_order_3_plane(self):
        self.check_robber_paths(gen_projective_plane_incidence_doubled(3), 4)


def packed_log_games(width):
    """The lane-class games whose lanes are width bits wide; for lanes of
    32 and 64 bits a game whose levels gain thousands of lanes each (the
    order-3 plane at k = 4, up to 20,904, and the substituted order-2
    plane at k = 3, up to 12,698); and for lanes of four words a one-cop
    game on 200 vertices."""
    games = [(d, k) for d, k, _ in lane_class_games() if _lane_width(d.n) == width]
    plane = gen_projective_plane_incidence_doubled
    large = {32: (plane(3), 4), 64: (clique_substitute_all(plane(2)), 3),
             256: (gen_random_digraph(200, 0.015, 5), 1)}
    if width in large:
        games.append(large[width])
    return games


class TestPackedLog:
    """Each log entry is an ascending unsigned int array of cop multiset
    indexes and one bytes of W/8 little-endian bytes per index, the bits
    that multiset gained; an empty entry is an empty array and b""."""

    @pytest.mark.parametrize("width", [8, 16, 32, 64, 128, 192, 256])
    def test_layout_in_every_lane_class(self, width):
        games = packed_log_games(width)
        assert games
        for d, k in games:
            result, _, changes = level_yields(d, k)
            for idx, lanes in result._log:
                assert idx.typecode == "I"
                assert list(idx) == sorted(set(idx))
                assert type(lanes) is bytes and len(lanes) == len(idx) * width // 8
                assert 0 not in unpacked(lanes, width)
            # The table is finished: the last level, and only it, gained nothing.
            assert result._log[-1] == (array("I"), b"")
            assert all(idx for idx, _ in result._log[:-1])
            assert decoded_log(result) == changes
        if width in (32, 64):
            # The last game has levels of thousands of gained lanes.
            assert max(len(idx) for idx, _ in result._log) > 4096

    def test_early_stopped_log_size(self):
        # The log cli's substituted order-2 plane game keeps at its early
        # stop: the index bytes and W/8 bytes per entry, plus a fixed
        # amount per level for the entry objects, so no spare room.
        d = clique_substitute_all(gen_projective_plane_incidence_doubled(2))
        result = solve(d, 3)
        assert result._levels is not None
        width = _lane_width(d.n)
        used = sum(sys.getsizeof(entry) + sys.getsizeof(idx) + sys.getsizeof(lanes)
                   for entry in result._log for idx, lanes in [entry])
        data = sum(len(idx) * (idx.itemsize + width // 8) for idx, _ in result._log)
        levels = len(result._log)
        assert data > 100_000
        assert used <= data + 2 * 256 * levels


def reach_oracle(closed_in, escapes):
    """The vertices with an arc into, or in, some vertex of escapes."""
    return {u for w in escapes for u in closed_in[w]}


class TestLanes:
    def test_lane_width(self):
        widths = {1: 8, 8: 8, 9: 16, 16: 16, 17: 32, 32: 32, 33: 64, 64: 64,
                  65: 128, 128: 128, 129: 192, 600: 640}
        for n, width in widths.items():
            assert _lane_width(n) == width

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 3), st.data())
    def test_suffix_to_block(self, n, t, data):
        # The t-multisets with smallest vertex >= u are a suffix of their
        # list; with u prepended they are the block of (t + 1)-multisets
        # that start with u, in the same order.  So one shift pair moves
        # every lane of a packed row to the lane of its parent.
        smaller = list(combinations_with_replacement(range(n), t))
        larger = list(combinations_with_replacement(range(n), t + 1))
        lanes = lanes_below(n, t + 1)[t]
        width = _lane_width(n)
        masks = data.draw(st.lists(
            st.integers(0, (1 << n) - 1), min_size=len(smaller), max_size=len(smaller)
        ))
        x = packed(masks, width)
        for u in range(n):
            cut, put = lanes[u]
            suffix = [s for s in smaller if not s or s[0] >= u]
            assert smaller[cut:] == suffix
            assert larger[put:put + len(suffix)] == [(u,) + s for s in suffix]
            expected = [0] * len(larger)
            for i, s in enumerate(smaller):
                if not s or s[0] >= u:
                    expected[larger.index((u,) + s)] = masks[i]
            assert x >> width * cut << width * put == packed(expected, width)

    @pytest.mark.parametrize("one_word", [True, False])
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 64), st.integers(65, 200), st.data())
    def test_nonzero_lanes(self, one_word, narrow, wide, data):
        # Lanes of one word (n <= 64) are settled by a struct read of every
        # lane, wider ones by _nonzero_lanes.  one_word=False packs the
        # narrow row in 128-bit lanes too, so _nonzero_lanes also reads
        # masks that fit one word.  Both must agree with plain shifts,
        # whether a row has no nonzero lane, the one or two that
        # _nonzero_lanes reads off the top bit, or more.
        for n in (narrow, wide):
            width = _lane_width(n) if one_word else max(_lane_width(n), 128)
            lane = st.integers(1, (1 << n) - 1)
            old = data.draw(st.lists(st.one_of(st.just(0), lane), min_size=1, max_size=40))
            gains = data.draw(st.lists(
                st.one_of(st.just(0), lane), min_size=len(old), max_size=len(old)
            ))
            new = [o | g for o, g in zip(old, gains)]
            expected = [(i, n ^ o) for i, (o, n) in enumerate(zip(old, new)) if n != o]
            x = packed(new, width) ^ packed(old, width)
            assert _nonzero_lanes(x, width) == expected
            put = data.draw(st.integers(0, 3))
            wins = [-1] * put + old + [-2]
            # The gains are appended after what the array and bytearray hold.
            idx, lanes = array("I", [7]), bytearray(b"ab")
            _settle_lanes(wins, idx, lanes, put, packed(old, width), packed(new, width),
                          width, len(old))
            assert wins == [-1] * put + new + [-2]
            assert list(idx) == [7] + [put + i for i, _ in expected]
            assert lanes == b"ab" + _lane_bytes([m for _, m in expected], width)

    @pytest.mark.parametrize("width", [8, 16, 32, 64, 128, 256])
    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_pack_round_trip(self, width, data):
        # _pack lays lane i at bits width * i and up, on any host, and
        # _settle_lanes reads the same lanes back, a zero old row gaining
        # exactly the nonzero ones, full masks and top bits included.
        lane = st.one_of(st.just(0), st.just((1 << width) - 1), st.integers(1, (1 << width) - 1))
        masks = data.draw(st.lists(lane, min_size=1, max_size=40))
        row = _pack(masks, width)
        assert row == packed(masks, width)
        wins, idx, lanes = [0] * (len(masks) + 1), array("I"), bytearray()
        _settle_lanes(wins, idx, lanes, 1, 0, row, width, len(masks))
        assert wins == [0] + masks
        assert list(idx) == [1 + i for i, m in enumerate(masks) if m]
        assert lanes == _lane_bytes([m for m in masks if m], width)
        assert unpacked(lanes, width) == [m for m in masks if m]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 3), st.integers(0, 2),
           st.sampled_from([8, 64, 128]), st.data())
    def test_grouped_pushes(self, n, t, s, width, data):
        # Child rows of the multisets M' of size t, lanes over the
        # s-multisets, pushed into their parents M' minus one v with each
        # u of N-[v] prepended: grouped by parent, ORed per u, then one
        # shift per (parent, u), against one shift per (child, v, u).  At
        # t = 1 every child has the one parent M = (), as at stage k.
        d = gen_random_digraph(n, data.draw(st.floats(0, 1)), data.draw(st.integers(0, 10**6)))
        closed_in = [sorted((v,) + d.in_adj[v]) for v in range(n)]
        children = list(combinations_with_replacement(range(n), t))
        parents = list(combinations_with_replacement(range(n), t - 1))
        num_lanes = len(list(combinations_with_replacement(range(n), s)))
        idx = sorted(data.draw(st.sets(st.integers(0, len(children) - 1), min_size=1)))
        rows = [
            packed(data.draw(st.lists(
                st.integers(0, (1 << n) - 1), min_size=num_lanes, max_size=num_lanes
            )), width)
            for _ in idx
        ]
        shifts = [(width * cut, width * put) for cut, put in lanes_below(n, s + 1)[s]]
        expected = [0] * len(parents)
        for m, x in zip(idx, rows):
            child = children[m]
            for v in sorted(set(child)):
                rest = list(child)
                rest.remove(v)
                p = parents.index(tuple(rest))
                for u in closed_in[v]:
                    cut, put = shifts[u]
                    expected[p] |= x >> cut << put
        starts = _block_starts(n, t)
        changed = _split_rows(idx, rows, starts, t)
        groups = list(_grouped_pushes(changed, _removal_tables(starts, t)[t - 1], closed_in))
        assert len({p for p, _ in groups}) == len(groups)
        assert t > 1 or len(groups) == 1
        got = [0] * len(parents)
        for p, pushed in groups:
            for u, x in pushed.items():
                cut, put = shifts[u]
                got[p] |= x >> cut << put
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([*range(1, 21), 64, 65, 130]), st.data())
    def test_reach_columns(self, n, data):
        # Table (c, b) maps byte c of a copwin mask to byte b of the
        # vertices that its escapes in byte c reach; exactly the all-zero
        # tables are dropped.  The gains of _settle_columns must equal the
        # per-multiset lookups' and the definition's, lane for lane, over
        # masks that hold each lane's top vertex bit too.
        d = gen_random_digraph(n, data.draw(st.floats(0, 1)), data.draw(st.integers(0, 10**6)))
        closed_in = [sorted((v,) + d.in_adj[v]) for v in range(n)]
        closed_in_masks = [sum(1 << u for u in into) for into in closed_in]
        width = _lane_width(n)
        tables = _reach_tables(closed_in_masks)
        columns = _reach_columns(tables, width)
        expected = {}
        for c in range(len(tables)):
            # A top byte over fewer than 8 vertices takes only the values
            # of their bits, and its tables are padded with zeros.
            low = range(8 * c, min(8 * c + 8, n))
            reaches = [
                reach_oracle(closed_in, [w for w in low if not byte >> w % 8 & 1])
                for byte in range(1 << len(low))
            ]
            for b in range(width // 8):
                table = bytes(
                    sum(1 << r % 8 for r in reach if r // 8 == b) for reach in reaches
                ).ljust(256, b"\0")
                if any(table):
                    expected[c, b] = table
        assert len(columns) == len(tables)
        assert {(c, b): table for b, pairs in enumerate(columns) for c, table in pairs} == expected

        full = (1 << n) - 1
        mask = st.one_of(st.just(full), st.just(1 << n - 1), st.integers(0, full))
        num = data.draw(st.integers(1, 12))
        copwin = data.draw(st.lists(mask, min_size=num, max_size=num))
        robwin = data.draw(st.lists(mask, min_size=num, max_size=num))
        ids = sorted(data.draw(st.sets(st.integers(0, num - 1))))
        want = []
        for ci in ids:
            escapes = [w for w in range(n) if not copwin[ci] >> w & 1]
            gained = full & ~sum(1 << r for r in reach_oracle(closed_in, escapes)) & ~robwin[ci]
            reach = 0
            for shift, table in tables:
                reach |= table[copwin[ci] >> shift & 255]
            assert full & ~(reach | robwin[ci]) == gained
            if gained:
                want.append((ci, gained))
        settled = robwin[:]
        for ci, gained in want:
            settled[ci] |= gained
        # The gains are appended, ascending, to the caller's index array
        # and mask list, after what they already hold.
        idx, masks = array("I", [7]), ["kept"]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_COLUMN_CHUNK", data.draw(st.sampled_from([1, 3, 2048])))
            _settle_columns(copwin, robwin, ids, columns, full, width, idx, masks)
        assert idx.typecode == "I"
        assert list(zip(idx, masks)) == [(7, "kept")] + want
        assert robwin == settled


class TestMultisetIndex:
    def test_matches_enumeration(self):
        for n in range(1, 9):
            for t in range(5):
                for i, cops in enumerate(combinations_with_replacement(range(n), t)):
                    assert _multiset_index(_block_starts(n, t), cops) == i

    def test_placements_repeat(self):
        result = solve(C4, 3)
        first = list(result.placements())
        assert first == list(result.placements())
        assert first == list(combinations_with_replacement(range(4), 3))


class TestBlockStarts:
    def test_matches_enumeration(self):
        # starts[t][u] is the index of the first t-multiset whose smallest
        # vertex is u, and row 0, of the empty multiset, is all zeros.
        for n in range(1, 10):
            expected = [[0] * n]
            for t in range(1, 6):
                firsts = {}
                for i, m in enumerate(combinations_with_replacement(range(n), t)):
                    firsts.setdefault(m[0], i)
                expected.append([firsts[u] for u in range(n)])
            for k in range(6):
                assert _block_starts(n, k) == expected[:k + 1]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_split_rows(self, n):
        # Each child M' of size t splits as (a,) + R: a its first vertex, r
        # the index of R one size down, and offset + i(S) the index of
        # (a,) + S for each S two sizes down with min(S) >= a; at t = 1,
        # where R is empty, the offset is 0.
        starts = _block_starts(n, 4)
        for t in range(1, 5):
            children = list(combinations_with_replacement(range(n), t))
            index = {m: i for i, m in enumerate(combinations_with_replacement(range(n), t - 1))}
            below = list(combinations_with_replacement(range(n), max(t - 2, 0)))
            rows = range(len(children))
            for m, (x, a, r, offset) in zip(rows, _split_rows(rows, rows, starts, t)):
                child = children[m]
                assert (x, a, r) == (m, child[0], index[child[1:]])
                if t == 1:
                    assert offset == 0
                    continue
                for q, rest in enumerate(below):
                    if not rest or rest[0] >= a:
                        assert offset + q == index[(a,) + rest]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 4), st.data())
    def test_split_rows_on_sparse_indexes(self, n, t, data):
        # The block walk against a bisect per child, on ascending indexes
        # that start anywhere in a block and may skip whole blocks; every
        # third index from 1 skips the one-row blocks at the top.
        starts = _block_starts(n, t)
        firsts, cuts, lows = starts[t], starts[t - 1], starts[max(t - 2, 0)]
        size = len(list(combinations_with_replacement(range(n), t)))
        drawn = sorted(data.draw(st.sets(st.integers(0, size - 1))))
        for idx in (drawn, range(1, size, 3)):
            want = []
            for m in idx:
                a = bisect_right(firsts, m) - 1
                want.append((-m, a, cuts[a] + m - firsts[a], cuts[a] - lows[a]))
            assert list(_split_rows(idx, [-m for m in idx], starts, t)) == want


def removal_oracle(n, t):
    """{M': [(v, i(M' minus one v)) for the distinct v of M', ascending]}
    over the multisets M' of size t, indexed by list lookups."""
    smaller = {m: i for i, m in enumerate(combinations_with_replacement(range(n), t - 1))}
    return {
        m: [(v, smaller[m[:m.index(v)] + m[m.index(v) + 1:]]) for v in sorted(set(m))]
        for m in combinations_with_replacement(range(n), t)
    }


def pairs_of(row):
    """The (v, index) pairs of a removal-table row, without the pairs
    marked v = -1."""
    it = iter(row)
    return [(v, q) for v, q in zip(it, it) if v >= 0]


class TestRemovalTables:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_match_the_oracle(self, n):
        # Sizes 0 to 4, every row: the distinct v of M' ascending, each with
        # the index of M' minus v.
        tables = _removal_tables(_block_starts(n, 5), 5)
        assert len(tables) == 5
        assert tables[0] == [()]
        for t in range(1, 5):
            oracle = removal_oracle(n, t)
            assert [pairs_of(row) for row in tables[t]] == list(oracle.values())

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_have_fixed_width(self, n):
        # Every row of size t holds t pairs: one per distinct v of M', in
        # the oracle's order, and t - |set(M')| marked v = -1.
        tables = _removal_tables(_block_starts(n, 5), 5)
        for t in range(1, 5):
            oracle = removal_oracle(n, t)
            for row, (m, pairs) in zip(tables[t], oracle.items(), strict=True):
                assert len(row) == 2 * t
                it = iter(row)
                row_pairs = list(zip(it, it))
                assert [v for v, _ in row_pairs].count(-1) == t - len(set(m))
                assert [(v, q) for v, q in row_pairs if v != -1] == pairs

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("t", range(1, 5))
    def test_derived_top_rows_match_the_oracle(self, n, t):
        # The push derives the rows of the top size t from the table one
        # size down: (a, r), then the pairs of R's row with v > a, which
        # skips both a and the marked pairs, moved by offset.
        starts = _block_starts(n, t)
        tails = _removal_tables(starts, t)[t - 1]
        oracle = list(removal_oracle(n, t).values())
        top = range(len(oracle))
        derived = []
        for _, a, r, offset in _split_rows(top, top, starts, t):
            it = iter(tails[r])
            derived.append([(a, r)] + [(v, offset + q) for v, q in zip(it, it) if v > a])
        assert derived == oracle


def cop_number_games():
    rng = random.Random(9)
    for _ in range(2000):
        yield gen_random_digraph(rng.randint(1, 7), rng.random(), rng.randrange(10**6))
    yield gen_projective_plane_incidence_doubled(2)
    yield gen_projective_plane_incidence_doubled(3)


class TestCopNumber:
    def test_directed_cycles(self):
        assert cop_number(gen_directed_cycle(2), 2) == 1
        for n in range(3, 9):
            assert cop_number(gen_directed_cycle(n), 3) == 2

    def test_paths_and_cliques(self):
        assert cop_number(Digraph(1), 1) == 1
        assert cop_number(P3, 2) == 1
        assert cop_number(K3, 2) == 1

    def test_in_star_needs_one_cop_per_source(self):
        star = Digraph(4, [(1, 0), (2, 0), (3, 0)])
        assert cop_number(star, 4) == 3

    def test_insufficient_k_max(self):
        assert cop_number(C4, 1) is None

    @pytest.mark.parametrize("name", [
        name for name, (build, *_) in NAMED_INSTANCES.items()
        if solver._table_sizes(build(), _claim(name)[0])[0] <= 10**7
    ])
    def test_named_instance(self, name):
        # An exact entry's c cops win and c - 1 lose; a bound's c - 1 lose.
        k_max, answer = _claim(name)
        assert cop_number(NAMED_INSTANCES[name][0](), k_max) == answer

    def test_bad_k_max(self):
        with pytest.raises(InputError):
            cop_number(C4, 0)

    @settings(max_examples=15, deadline=None)
    @given(digraphs())
    def test_n_cops_always_win(self, d):
        assert cop_number(d, d.n) is not None

    @settings(max_examples=15, deadline=None)
    @given(digraphs(max_n=3))
    def test_matches_minimax(self, d):
        assert cop_number(d, d.n) == oracles.minimax_cop_number(d, d.n)

    @settings(max_examples=60, deadline=None)
    @given(digraphs(7))
    def test_early_exit_matches_the_finished_table(self, d):
        # cop_number stops each solve at the first level that fills a
        # placement's mask; winning_placements finishes every table.
        finished = next(
            k for k in range(1, d.n + 1)
            if next(solve(d, k).winning_placements(), None) is not None
        )
        assert cop_number(d, d.n) == finished

    def test_frozen_answers(self):
        # 2,002 games: 2,000 seeded ones with n <= 7 (cop numbers 1 to 7),
        # then the q = 2 and q = 3 planes.  The digest was taken from the
        # solver that ran every attractor to its fixpoint.
        digest = hashlib.sha256()
        for d in cop_number_games():
            digest.update(f"{d.n} {cop_number(d, d.n)}\n".encode())
        assert digest.hexdigest() == (
            "6307f2487511ebf00883dd9f7757a033a517fe608cdb80dc55871c26acdc6bd4"
        )

    def test_dropped_results_are_freed_without_the_collector(self):
        # A result holds its suspended level generator, and the generator
        # must hold nothing that leads back to the result: with the cyclic
        # collector off, a dropped result goes at once, mid-attractor or
        # finished.
        # gc.collect() finding nothing after each drop shows that no
        # reference cycle was left behind in the generator's tables either.
        plane = gen_projective_plane_incidence_doubled(3)
        enabled = gc.isenabled()
        gc.disable()
        gc.collect()
        try:
            for finish in (False, True):
                result = solve(plane, 4)
                levels = result._levels
                assert inspect.getgeneratorstate(levels) == inspect.GEN_SUSPENDED
                del levels
                if finish:
                    assert next(result.winning_placements()) == (0, 0, 0, 0)
                    assert result._levels is None
                ref = weakref.ref(result)
                del result
                assert ref() is None
                assert gc.collect() == 0
            assert cop_number(plane, 4) == 4
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    @settings(max_examples=10, deadline=None)
    @given(digraphs())
    def test_extra_cop_keeps_winning(self, d):
        k = cop_number(d, d.n)
        placements = list(solve(d, k + 1).winning_placements()) if k < d.n else None
        if k < d.n:
            assert placements


class TestKnownAnswers:
    """Symmetric digraphs play the undirected game, so cop numbers from the
    literature on graphs check the solver well beyond the minimax oracle's
    n <= 7."""

    @pytest.mark.parametrize(
        "host, answer",
        [
            # The smallest graph that needs 3 cops (Baird et al. 2014).
            (oracles.petersen_graph(), 3),
            # Q_d needs ceil((d + 1) / 2) cops (Maamoun and Meyniel 1987).
            (oracles.hypercube(3), 2),
            (oracles.hypercube(4), 3),
            (oracles.hypercube(5), 3),
            # n = 100 > 64: lanes of several words.
            (oracles.grid(10, 10), 2),
        ],
        ids=["petersen", "Q3", "Q4", "Q5", "grid10x10"],
    )
    def test_fixed_family(self, host, answer):
        assert cop_number(host, answer) == answer

    @settings(max_examples=100, deadline=None)
    @given(digraphs(12))
    def test_one_cop_wins_exactly_on_dismantlable_graphs(self, d):
        host = oracles.symmetric_digraph(d.n, d.arcs)
        assert (cop_number(host, 1) == 1) == oracles.is_dismantlable(host)


# The oracles' bounds on each named host: (Aigner and Fromme's least
# degree, the size of the greedy dominating set).
NAMED_BOUNDS = {
    "doubled-plane-q2": (3, 4),
    "doubled-plane-q3": (4, 6),
    "cycle-100": (1, 50),
    "bicycle-200": (2, 67),
    "clique-sub-plane-q3": (1, 25),
}


class TestBounds:
    """Cop-number bounds from the oracles, with no game solved: a greedy
    dominating set above, Aigner and Fromme's least degree below."""

    @staticmethod
    def bounds(d):
        return oracles.aigner_fromme_bound(d), len(oracles.greedy_dominating_set(d))

    @pytest.mark.parametrize("name", list(NAMED_INSTANCES))
    def test_named_instances(self, name):
        # The table's answers, checked without a solve.  A bound's entry
        # only bounds the cop number below, so it meets the upper bound
        # alone.
        build, c, exact = NAMED_INSTANCES[name]
        lower, upper = self.bounds(build())
        assert (lower, upper) == NAMED_BOUNDS[name]
        assert c <= upper
        assert lower <= c or not exact

    def test_petersen(self):
        # Girth 5 and 3-regular, dominated by 3 vertices: both bounds meet.
        petersen = oracles.petersen_graph()
        assert self.bounds(petersen) == (3, 3)
        assert cop_number(petersen, 3) == 3

    @settings(max_examples=40, deadline=None)
    @given(digraphs(6))
    def test_random_games(self, d):
        # The host and its symmetric closure, on which the lower bound can
        # exceed 1.
        for host in (d, oracles.symmetric_digraph(d.n, d.arcs)):
            lower, upper = self.bounds(host)
            c = cop_number(host, upper)
            assert c is not None and lower <= c


class TestPlacements:
    def test_winning_placements_subset(self):
        result = solve(C4, 2)
        wins = list(result.winning_placements())
        assert wins
        for cw in wins:
            assert result.placement_wins(cw)

    def test_placement_validation(self):
        result = solve(C4, 2)
        with pytest.raises(InputError):
            result.placement_wins((0,))
        with pytest.raises(InputError):
            result.placement_wins((0, 9))
        with pytest.raises(InputError):
            result.placement_wins(())
        with pytest.raises(InputError, match="cop vertex must be an integer, got 1.5"):
            result.placement_wins((0, 1.5))
        with pytest.raises(InputError, match="cop vertex must be an integer, got 1.5"):
            result.win(GamePosition((1.5, 0), 0, COPS))
        with pytest.raises(InputError, match="robber vertex must be an integer, got 2.0"):
            result.win(GamePosition((0, 1), 2.0, COPS))
        with pytest.raises(InputError, match="robber vertex must be an integer, got '1'"):
            legal_moves(C4, GamePosition((0,), "1", ROBBER))

    def test_position_cop_count_checked(self):
        result = solve(C4, 2)
        with pytest.raises(InputError):
            result.win(GamePosition((0,), 1, COPS))

    def test_num_positions(self):
        result = solve(C3, 2)
        assert result.num_positions == 6 * 3 * 2
        assert sum(1 for _ in result.positions()) == result.num_positions


def reaches_every_vertex(d):
    """Whether vertex 0 reaches every vertex of d, by a BFS of its own."""
    seen, frontier = {0}, [0]
    while frontier:
        frontier = [w for v in frontier for w in d.out_adj[v] if w not in seen]
        seen.update(frontier)
    return len(seen) == d.n


class TestFirstWinningPlacement:
    @settings(max_examples=200, deadline=None)
    @given(digraphs(5), st.integers(1, 3))
    def test_all_zeros_wins_exactly_when_vertex_0_reaches_every_vertex(self, d, k):
        # The rule itself, with no solver code: the minimax oracle's table
        # and a BFS.
        table = oracles.minimax_cop_win(d, k)
        zeros_win = all(table[((0,) * k, r, "cops")] for r in range(d.n))
        some_win = oracles.minimax_some_placement_wins(table, d, k)
        assert zeros_win == (some_win and reaches_every_vertex(d))

    @settings(max_examples=100, deadline=None)
    @given(digraphs(7), st.integers(1, 3))
    def test_matches_the_finished_table(self, d, k):
        first = next(solve(d, k).winning_placements(), None)
        result = solve(d, k)
        assert result._first_winning_placement() == first
        # The levels solve left suspended still wait exactly when the rule
        # answered.
        assert (result._levels is not None) == (first is not None and reaches_every_vertex(d))


class TestBudget:
    def test_position_space_checked_up_front(self):
        with pytest.raises(StateBudgetExceeded):
            solve(C4, 3, state_budget=10)

    def test_move_table_checked(self):
        k4 = Digraph(4, [(u, v) for u in range(4) for v in range(4) if u != v])
        # 80 positions fit exactly, but the 104 sub-move arcs do not
        with pytest.raises(StateBudgetExceeded, match="move table"):
            solve(k4, 2, state_budget=80)

    def test_sub_move_arcs_checked_before_allocation(self):
        plane = gen_projective_plane_incidence_doubled(3)
        # The 1,235,052 positions fit, the 1,586,520 sub-move arcs do not.
        with pytest.raises(StateBudgetExceeded, match="move table of 1586520"):
            solve(plane, 4, state_budget=1_300_000)

    def test_cop_number_propagates(self):
        with pytest.raises(StateBudgetExceeded):
            cop_number(C4, 2, state_budget=10)

    def test_table_sizes_match_the_per_stage_sums(self):
        # The closed forms against the sums over the stages, on seeded
        # hosts of every size up to 40 and every named host at its k_max
        # and one cop more.
        rng = random.Random(25)
        games = [
            (gen_random_digraph(n, rng.random(), rng.randrange(10**6)), k)
            for n in range(1, 41) for k in range(1, 7)
        ]
        for name, (build, *_) in NAMED_INSTANCES.items():
            d, (k_max, _) = build(), _claim(name)
            games += [(d, k_max), (d, k_max + 1)]
        for d, k in games:
            assert solver._table_sizes(d, k) == oracles.table_sizes(d, k), (d, k)

    def test_removal_tables_sized_before_work(self):
        # On one vertex the positions, sub-move states and arcs stay at most
        # k + 1, but the removal tables would hold k(k - 1)/2 pairs: the
        # default budget admits k = 10,000 (49,995,000 pairs) and refuses
        # k = 10,001 before any table is built.
        one = Digraph(1)
        match = "^50005000 removal-table pairs exceed the state budget of 50000000$"
        for call in (solve, play_trace):
            start = time.perf_counter()
            with pytest.raises(StateBudgetExceeded, match=match):
                call(one, 10_001)
            assert time.perf_counter() - start < 1
        # Admitted, and won at placement, so no level builds the tables.
        assert solve(one, 10_000)._some_placement_won()
        # Only the pair count refuses two vertices without arcs at k = 600.
        sizes = solver._table_sizes(Digraph(2), 600)
        assert max(sizes[:3]) <= solver.DEFAULT_STATE_BUDGET < sizes[3] == 71_999_800
        with pytest.raises(StateBudgetExceeded, match="^71999800 removal-table pairs"):
            solve(Digraph(2), 600)

    def test_any_k_sized_before_work(self):
        # A million cops: the positions alone exceed the budget, and each
        # refusal names them without a pass over the million stages.
        k = 10**6
        for d in (gen_projective_plane_incidence_doubled(3), C4):
            positions = math.comb(d.n + k - 1, k) * d.n * 2
            match = f"^{positions} positions exceed the state budget of 50000000$"
            for call in (solve, play_trace):
                start = time.perf_counter()
                with pytest.raises(StateBudgetExceeded, match=match):
                    call(d, k)
                assert time.perf_counter() - start < 2

    def test_bad_k(self):
        with pytest.raises(InputError):
            solve(C4, 0)
        # A budget of one position would fail the solve, so each InputError
        # shows that the count is refused before any work.
        for k in (2.0, 2.5, "2", None):
            match = f"cop count must be an integer, got {k!r}"
            with pytest.raises(InputError, match=match):
                solve(C4, k, state_budget=1)
            with pytest.raises(InputError, match=match):
                play_trace(C4, k, state_budget=1)
        with pytest.raises(InputError, match="k_max must be an integer, got 2.5"):
            cop_number(C4, 2.5, state_budget=1)
        with pytest.raises(InputError, match="state budget must be an integer, got 1.5"):
            solve(C4, 1, state_budget=1.5)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_refused(self, budget):
        match = f"state budget must be >= 1, got {budget}"
        with pytest.raises(InputError, match=match):
            solve(C4, 1, state_budget=budget)
        with pytest.raises(InputError, match=match):
            cop_number(C4, 2, state_budget=budget)
        with pytest.raises(InputError, match=match):
            play_trace(C4, 1, state_budget=budget)


def trace_games():
    """1,500 seeded games with n <= 7 and k <= 3, the four simulate
    instances of the cli benchmark workload (unrelabelled), and C_100 at
    k = 2, whose lanes span several words."""
    rng = random.Random(10)
    for _ in range(1500):
        d = gen_random_digraph(rng.randint(1, 7), rng.random(), rng.randrange(10**6))
        yield d, rng.randint(1, 3)
    plane = gen_projective_plane_incidence_doubled(2)
    yield plane, 3
    yield gen_projective_plane_incidence_doubled(3), 3
    yield gen_directed_cycle(12), 2
    yield subdivide_arcs(plane, 2), 2
    yield gen_directed_cycle(100), 2


def trace_line(trace):
    moves = " ".join(f"{p.cops}/{p.robber}/{p.to_move}" for p in trace.snapshots)
    return (
        f"{trace.k} {trace.cops_start} {trace.robber_start} {trace.outcome} "
        f"{trace.repeat} {moves}\n"
    )


class TestTraces:
    def test_frozen_traces(self):
        # 1,505 traces: 1,265 captures and 240 escapes.  The digest was
        # taken from play_trace as five hand-written rules (safe-mask
        # placement, best_move, a robber rank loop, the first successor, the
        # first non-win), before every move became a min or max over one key.
        digest = hashlib.sha256()
        for d, k in trace_games():
            digest.update(trace_line(play_trace(d, k)).encode())
        assert digest.hexdigest() == (
            "c933c08f6877c153b60b2453b506ed6e4e6a3625d6048a5aaf5d90de8dc711b1"
        )

    def test_capture_on_path(self):
        trace = play_trace(P3, 1)
        assert trace.outcome == "capture"
        assert trace.repeat is None
        last = trace.snapshots[-1]
        assert last.robber in last.cops
        result = solve(P3, 1)
        assert len(trace.snapshots) - 1 == result.rank(trace.snapshots[0])

    def test_capture_with_two_cops_on_cycle(self):
        trace = play_trace(C4, 2)
        assert trace.outcome == "capture"
        result = solve(C4, 2)
        assert len(trace.snapshots) - 1 == result.rank(trace.snapshots[0])

    def test_escape_on_cycle(self):
        trace = play_trace(C4, 1)
        assert trace.outcome == "robber-escape"
        i, j = trace.repeat
        assert trace.snapshots[i] == trace.snapshots[j]
        assert i < j == len(trace.snapshots) - 1
        result = solve(C4, 1)
        assert not result.win(trace.snapshots[0])

    def test_robber_placement_prefers_safe_vertex(self):
        trace = play_trace(C4, 1)
        assert trace.cops_start == (0,)
        # vertex 1 is not safe: the cop moves onto it before the robber's
        # first turn; 2 is the smallest vertex out of reach
        assert trace.robber_start == 2

    def test_deterministic(self):
        for d, k in ((C4, 1), (C4, 2), (P3, 1)):
            assert play_trace(d, k) == play_trace(d, k)

    def test_round_limit(self):
        # two cops need more than one round to catch the robber on C4
        with pytest.raises(RuntimeError, match="round limit"):
            play_trace(C4, 2, max_rounds=1)

    @pytest.mark.parametrize("rounds", [0, -1, 1.5, 2.0, "2"])
    def test_round_limit_below_one_refused_before_solving(self, rounds):
        # a budget of one position would fail the solve, so the InputError
        # shows that the check comes first
        if isinstance(rounds, int):
            match = f"max_rounds must be >= 1, got {rounds}"
        else:
            match = f"max_rounds must be an integer, got {rounds!r}"
        with pytest.raises(InputError, match=match):
            play_trace(C4, 2, max_rounds=rounds, state_budget=1)

    @settings(max_examples=15, deadline=None)
    @given(digraphs(), st.integers(1, 2))
    def test_outcome_matches_solver(self, d, k):
        trace = play_trace(d, k)
        has_winning = any(True for _ in solve(d, k).winning_placements())
        assert (trace.outcome == "capture") == has_winning
