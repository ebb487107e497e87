"""Game solver: move generation, the attractor, ranks and traces."""

import hashlib
import random

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
    cop_number,
    gen_directed_cycle,
    gen_directed_path,
    gen_projective_plane_incidence_doubled,
    gen_random_digraph,
    legal_moves,
    play_trace,
    solve,
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


def frozen_games():
    rng = random.Random(6)
    for _ in range(300):
        d = gen_random_digraph(rng.randint(1, 6), rng.random(), rng.randrange(10**6))
        yield d, rng.randint(1, 3)
    yield gen_projective_plane_incidence_doubled(2), 3


def table_lines(d, k):
    result = solve(d, k)
    for pos in result.positions():
        move = result.best_move(pos)
        yield (
            f"{pos.cops} {pos.robber} {pos.to_move} {result.win(pos)} "
            f"{result.rank(pos)} {move and move.cops}\n"
        )


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

    def test_doubled_plane_q2(self):
        plane = gen_projective_plane_incidence_doubled(2)
        assert cop_number(plane, 3) == 3

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

    @settings(max_examples=10, deadline=None)
    @given(digraphs())
    def test_extra_cop_keeps_winning(self, d):
        k = cop_number(d, d.n)
        placements = list(solve(d, k + 1).winning_placements()) if k < d.n else None
        if k < d.n:
            assert placements


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

    def test_position_cop_count_checked(self):
        result = solve(C4, 2)
        with pytest.raises(InputError):
            result.win(GamePosition((0,), 1, COPS))

    def test_num_positions(self):
        result = solve(C3, 2)
        assert result.num_positions == 6 * 3 * 2
        assert sum(1 for _ in result.positions()) == result.num_positions


class TestBudget:
    def test_position_space_checked_up_front(self):
        with pytest.raises(StateBudgetExceeded):
            solve(C4, 3, state_budget=10)

    def test_move_table_checked(self):
        k4 = Digraph(4, [(u, v) for u in range(4) for v in range(4) if u != v])
        # 80 positions fit exactly, but the cop move table has 100 entries
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

    def test_bad_k(self):
        with pytest.raises(InputError):
            solve(C4, 0)


class TestTraces:
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

    @pytest.mark.parametrize("rounds", [0, -1])
    def test_round_limit_below_one_refused_before_solving(self, rounds):
        # a budget of one position would fail the solve, so the InputError
        # shows that the check comes first
        with pytest.raises(InputError, match=f"max_rounds must be >= 1, got {rounds}"):
            play_trace(C4, 2, max_rounds=rounds, state_budget=1)

    @settings(max_examples=15, deadline=None)
    @given(digraphs(), st.integers(1, 2))
    def test_outcome_matches_solver(self, d, k):
        trace = play_trace(d, k)
        has_winning = any(True for _ in solve(d, k).winning_placements())
        assert (trace.outcome == "capture") == has_winning
