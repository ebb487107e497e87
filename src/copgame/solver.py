"""Exact solver for the k-cop pursuit game on a digraph.

Rules: the cop player puts k pieces on vertices (several may share one),
then the robber picks a vertex knowing the cop placement.  Rounds alternate
with the cops moving first; in its move each piece may follow one out-arc
or stay put.  The cops win as soon as the robber stands on an occupied
vertex, whether after a cop move, after a robber move, or already at
placement.

A position is (cop multiset, robber vertex, side to move).  Cop multisets
are kept sorted, so positions are canonical.  rank counts optimal
half-moves to capture: cops minimize it, the robber maximizes it.  Every
table is indexed by a multiset's place i(C) in
combinations_with_replacement order.  No list of multisets is kept: i(C)
has a closed form (_multiset_index), and the placements are walked in
that order as they are needed.  Every offset into that order, i(C) and
the lanes and blocks below, is a difference of two entries of one table
built per solve (_block_starts): starts[t][u], for t = 0..k and u < n,
the index of the first t-multiset whose smallest vertex is u.

The solver never tabulates whole cop moves.  A cop move is split into k
single-cop sub-moves (Petr, Portier and Versteegen, "A faster algorithm
for Cops and Robbers"): the smallest not-yet-moved cop always moves next,
so an intermediate state is a pair (moved multiset M, unmoved multiset U)
of k vertices in all, and stage j holds the states with j cops still to
move.  Stage k is the cop-to-move positions, stage 0 the robber-to-move
ones.

Every state carries one bit mask over robber vertices, so one OR settles
a state for all n robber positions at once.  Stage 0 (robwin) and stage k
(copwin) keep one int mask per cop multiset, the layout the robber side
and SolveResult read.  Each middle stage j, 1 <= j < k, keeps
one int per moved multiset M, its row: lane i(U) of the row, W bits wide,
holds the mask of state (M, U), with i(U) the place of U in
combinations_with_replacement order.  W is the smallest of 8, 16, 32 and
64 that holds n, or else a multiple of 64.  Stage k is also kept packed,
as one block per first cop vertex u: lane i of block u holds copwin of
the cop multiset at index starts[k][u] + i, (u,) + U' for the U' of the
stage-(k-1) lane starts[k-1][u] + i (see below).

A row is pushed one sub-move back with shifts, not one state at a time.
The sub-move arcs into a child (M', U') of stage j - 1 come from
(M' minus one v, (u,) + U') for each distinct v in M' and each u in the
closed in-neighbourhood N-[v] with u <= min(U'), since u must be the
smallest cop still to move.  The (j-1)-multisets with min >= u are a
suffix of their list, from lane cut_u = starts[j-1][u] on, and prefixing
u to each gives, in the same order, the block of j-multisets that start
with u, from lane put_u = starts[j][u] on.  So (x >> W*cut_u) << W*put_u
moves every lane of a child row x to the lane of its parent in row
M' - v, and drops the lanes whose min is below u.  One rule makes every
push into a middle stage (_grouped_pushes): the changed child rows are
first grouped by parent row, then each parent ORs its children per u,
over the v with u in N-[v], while they are still as narrow as a child
row, and pays one shift per u that occurs.  The one exception is stage 1
while W is at most one word: every cut is 0 there, so the u of N-[v]
fold into one multiply per child and parent by the sum of 2^(W*u),
which beats grouping.  Stage k needs no grouping: its one parent is
M = (), kept as the blocks above, and its children are the rows of the
M' = (v,), at index v.  So each changed child row is ORed into the push
of every u in N-[v] directly, and block u takes that OR, the changed rows
of the v in the closed out-neighbourhood N+[u], shifted by W*cut_u, with
no put.

The parent rows M' minus v of a changed middle-stage child row come from
the same identity, one size down.  i(M') lies in the block of its first
vertex a, so M' = (a,) + R with i(R) read off that block: removing a
leaves R, and removing any other v of R leaves (a,) + (R minus v), whose
index is R's entry for v in the removal table of the size below, moved
by the block's offset: for M' of size t, starts[t-1][a] -
starts[t-2][a], or 0 at t = 1.  So the removal tables are built only up
to size k - 1, and the largest one, a row per cop multiset, is never
built.  Every row of the size-t table holds t pairs (v, index), one per
distinct v and one marked v = -1 per repeat of a vertex, so each table is
written a column at a time by strided slices, and a reader of R's row
for M' = (a,) + R keeps the pairs with v > a, which drops both a and the
marks.  The changed child rows come ascending, so their blocks are found
by a walk (_split_rows): one compare per row, and one bisection per
block the walk leaves.

The backward attractor runs level by level, and the level at which a
position is won is its rank.  Levels 0 and 1 have a closed form and are
never pushed through the sub-move arcs: at level 0 the robber is caught on
bits(C), the vertices of the cop multiset C, and after level 1 a stage
state (M, U) holds bits(M) | N+[U], where N+[U] is the union of the closed
out-neighbourhoods of U's vertices; a row is bits(M) times the row with 1
in every lane, OR the row of the N+[U].  So copwin[C] = N+[C] and
robwin[C] = bits(C): the robber side gains nothing at level 1, since the
robber may stay put.

From level 2 on, one loop runs two levels per pass: by parity, the
cop side gains only at odd levels and the robber side only at even ones,
since each side gains only at the level after the other side's gains,
and level 1 won only cop-to-move positions.  A pass first settles the
robber side of an even level L from the cop wins of level L-1: a
robber-to-move position (C, r) wins once every vertex of the closed
out-neighbourhood of r is a cop win against C, and only the cop
multisets that level L-1 changed can gain.  So a robber-to-move position
is won at 1 + the largest rank among its successors.  These robber wins
are then pushed back through the middle stages 1 to k-1 at once, and
the stage-(k-1) delta they leave (at k = 1 the robber wins themselves)
is ORed per u into the push that block u of stage k takes as level L+1,
so a cop-to-move position is won at 1 + the smallest rank among its
winning successors.  A pass's robber wins, deltas and pushes are
dropped at its end.  Each middle stage is copied before its push, its
delta (the bits the push added) is read off by comparing it with the
copy, and that delta is what the next stage pushes; the push stops at
the first stage with an empty delta.  The loop stops after the first
pass that changes no cop multiset.  Stage k's delta is read a block at
a time (_settle_lanes): the lanes of a changed block replace its slice
of copwin, and the nonzero lanes of its XOR with the old block are,
ascending, the cop multisets the level changed.  Masks become lanes, and
lanes masks, in one byte order on every host, little-endian: _pack lays
a list of masks into a row, and while W is at most one word
_settle_lanes reads every lane of a block back with the same struct
format; wider lanes are joined from each mask's bytes, and only the
changed ones are read back (_nonzero_lanes).  Sub-move stages add
nothing to the rank, which counts whole half-moves.

Ranks are kept as the attractor's log of the cop side: one entry per
pass, entry i for level 2i + 3, kept packed; the even levels, where
the cop side gains nothing, have none.  An entry is an unsigned int
array ('I') of the cop multisets the level changed on the cop side,
ascending, and one bytes of the bits each gained, W/8 bytes per index
in _pack's little-endian lane layout.  A level writes each changed
block's gains straight into one array and one bytearray (_settle_lanes),
and its entry is their copy, exact in size; the one level that gained
nothing, the last of a finished table, has an empty array and b"".  The
robber side needs no log: by backward induction a robber-to-move win
falls one level after its last cop-to-move successor, so its rank
follows from the cop side's.  The rank of a won position is 0 when the
robber stands on a cop.  Else, with the cops to move, it is 1 in N+[C]
and otherwise the level of the first entry that holds the robber's bit,
found by one bisection per entry; with the robber on r to move, it is
1 + the largest cop-to-move rank over r and its out-neighbours, those in
N+[C] counting 1 or 0 with no walk, the rest found by one walk of the
log that stops once each is found.

The robber side reads (C, r) won once r is in the closed
in-neighbourhood N-[w] of no escape w, a vertex outside copwin[C], and
not already won.  The reach of the escapes is read off one 8-bit table
per byte of the vertices (_reach_tables): table c maps byte c of
copwin[C] to the union of N-[w] over the escapes w among vertices 8c to
8c + 7.  A level takes one of two paths, by how many cop multisets the
level before changed.  Below _COLUMNS_FROM (64) it settles them one at
a time, one lookup per table.  From 64 on it settles them by byte
columns (_settle_columns), _COLUMN_CHUNK (2,048) at a time: their copwin
and robwin masks, read as two slices when the chunk's indexes are
contiguous, are laid out as _pack lays a row, so byte c of every
lane is one column of bytes, and each table, split by output byte b into
256-byte tables with the all-zero ones dropped (_reach_columns), maps a
whole column through bytes.translate in C.  The OR over c of the
translated columns is byte b of every lane's reach.  The gains are read
back by one struct read while W is at most one word; wider lanes are read
only where the OR of the gained bytes, one byte per lane, is nonzero, with
no int made of the whole chunk.  Both numbers were set by
measurement (see their comments): most levels of verify's tiny games
change fewer than 5 cop multisets, where the columns' fixed cost loses,
and the chunks bound the columns' buffers.

The first pass starts from the closed form: level 1 may have changed
every cop multiset, so level 2 settles the robber side of each, reading
(C, r) won exactly when r is not in C and N+[r] lies inside N+[C], by
byte columns unless there are fewer than 64 multisets.

solve works eagerly only up to the first proof that k cops win.  It
checks the budget and sets levels 0 and 1 in closed form; then, unless a
placement already has N+[C] = V, it runs the passes from level 2 on
(building the sub-move tables first) until the fixpoint or until a pass
whose changed cop multisets include one with a full copwin mask.  Masks
only grow, so that mask stays full.  The remaining passes are left in a
suspended generator, which holds the tables, the sub-move stages and
the log, but neither the stage copies, deltas, pushes and collected
gains of the pass it ran (it drops them before each yield) nor any
reference to the SolveResult, so a dropped result is freed at once.
The queries that need the whole table (win, rank, best_move,
placement_wins, winning_placements and play_trace's placement scan) run
those levels first and then drop the generator.  cop_number only asks
whether some placement's mask is full, which never needs them, and the
first winning placement (_first_winning_placement, which copgame solve
prints) needs them only when vertex 0 does not reach every vertex.

The state budget bounds four counts, each a closed form computed before
anything is allocated: positions, 2n multisets(n, k); sub-move states,
multisets(2n, k); the sub-move arcs the pushes can follow, the sum over
u of (1 + outdeg(u)) multisets(2n - u, k - 1); and the pairs of the
removal tables, n multisets(n + 2, k - 2) for k >= 2 (_table_sizes).
None loops over the stages, so a request for any k is sized, and refused
if too large, before any work.  No table of arcs is built: the pushes
follow them as shifts, so nothing of the third count's size is
allocated.  The fourth is the one that grows with k on a tiny host: on
one vertex the other three stay at most k + 1, while the tables hold
k(k - 1)/2 pairs.  A budget below 1 is refused with InputError.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate, combinations_with_replacement, compress, count, product
from math import comb, inf
from operator import ne

from .digraph import Digraph, _reachable
from .errors import InputError, StateBudgetExceeded, _as_int, _at_least

DEFAULT_STATE_BUDGET = 50_000_000

# struct codes of the lane widths up to one word, read and written with
# the explicit little-endian prefix, so no host's byte order shows.
_LANE_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}
# bytes.translate table mapping each nonzero byte to 1.
_NONZERO = bytes([0] + [1] * 255)

# A level settles the robber side by byte columns (_settle_columns) once
# the level before changed at least this many cop multisets, and one
# multiset at a time below.  Of the 4,556 robber levels of the default
# verify run (run_all(), 1,676 solves that run a pass), 4,169 follow a
# level that changed fewer than 64 and 2,473 fewer than 5.  With byte
# columns on every level those 2,687 solves took 1.17 to 1.18 times as
# long (0.424 against 0.361 s and 0.362 against 0.307 s, medians of 16
# interleaved rounds in two runs); with one multiset at a time on every
# level, cop_number(plane(3), 4) took 36.2 against 30.0 ms and 34.7
# against 27.6 ms (medians of 20 interleaved runs).  The k = 3 solve of
# cop_number(clique_substitute_all(plane(2)), 3) settles 13,244, 7,196,
# 6,244 and 6,594 cop multisets at its robber levels that settle any.
_COLUMNS_FROM = 64
# Cop multisets per byte-column pass, which bounds its buffers:
# cop_number(clique_substitute_all(plane(3)), 3) peaked at 142.3 MB in one
# pass and at 119.5 MB in chunks of 2,048 (119.9 MB with no byte columns).
# cop_number(clique_substitute_all(plane(2)), 3) took 57 to 58 ms in
# chunks of 512, 55 ms in chunks of 2,048, and no less in larger ones.
_COLUMN_CHUNK = 2048

COPS = "cops"
ROBBER = "robber"


@dataclass(frozen=True, order=True)
class GamePosition:
    """One game state.  Each vertex id is stored as a plain int, and cops
    always sorted."""

    cops: tuple
    robber: int
    to_move: str

    def __post_init__(self):
        try:
            # The generator takes iter(self.cops) as it is made.
            ids = (_as_int(c, "cop vertex") for c in self.cops)
        except TypeError:
            raise InputError(f"cops must be iterable, got {self.cops!r}") from None
        cops = sorted(ids)
        object.__setattr__(self, "cops", tuple(cops))
        object.__setattr__(self, "robber", _as_int(self.robber, "robber vertex"))
        if self.to_move not in (COPS, ROBBER):
            raise InputError(f"to_move must be '{COPS}' or '{ROBBER}'")


def _check_position(d: Digraph, pos: GamePosition) -> None:
    if not pos.cops:
        raise InputError("at least one cop is required")
    for c in pos.cops:
        if not (0 <= c < d.n):
            raise InputError(f"cop vertex {c} is out of range for n={d.n}")
    if not (0 <= pos.robber < d.n):
        raise InputError(f"robber vertex {pos.robber} is out of range for n={d.n}")


def legal_moves(d: Digraph, pos: GamePosition) -> list[GamePosition]:
    """Canonical successor positions for the side to move, sorted.

    Cops move every piece independently along an out-arc or keep it; the
    robber does the same with its single piece.  Distinct option tuples that
    sort to the same multiset collapse to one successor.
    """
    _check_position(d, pos)
    if pos.to_move == COPS:
        opts = [(c,) + d.out_adj[c] for c in pos.cops]
        succ = sorted({tuple(sorted(t)) for t in product(*opts)})
        return [GamePosition(s, pos.robber, ROBBER) for s in succ]
    opts = sorted({pos.robber, *d.out_adj[pos.robber]})
    return [GamePosition(pos.cops, r, COPS) for r in opts]


class SolveResult:
    """Winner classification of every position of the (d, k) game.

    copwin[i] and robwin[i] are bit masks over robber vertices: bit r is
    set when the cop side wins (C, r), for C the i-th cop multiset in
    combinations_with_replacement order, read off starts, the solve's table
    of block starts (see _multiset_index), with the cops, respectively the
    robber, to move.  log[i] is the pair (idx, lanes) of the odd level
    L = 2i + 3 with the cops to move: idx an unsigned int array of the
    indexes i, ascending, that gained robber vertices at L, and lanes one
    bytes of the bits each gained, W/8 little-endian bytes per index for
    the lane width W (see _lane_width).  A level that gained nothing has
    an empty array and b"".  Cop-to-move ranks are 0 or odd, so the even
    levels need no entry.  The robber side keeps no log: rank reads its
    ranks off the cop side's, with closed_out[v], the mask of N+[v].

    solve may hand over the tables before the attractor's fixpoint, with
    levels, the suspended level generator, still to run; every query that
    reads the tables runs it to the end first.
    """

    def __init__(self, d, k, starts, closed_out, copwin, robwin, log, levels):
        self._d = d
        self.k = k
        self._starts = starts
        self._closed_out = closed_out
        self._wins = (copwin, robwin)
        self._log = log
        self._levels = levels

    def _complete(self) -> None:
        """Run the attractor's remaining levels, then drop the generator
        and with it the sub-move tables it holds."""
        if self._levels is not None:
            for _ in self._levels:
                pass
            self._levels = None

    def _some_placement_won(self) -> bool:
        """True when some placement already beats every robber reply; masks
        only grow, so this needs no further level."""
        return (1 << self._d.n) - 1 in self._wins[0]

    @property
    def num_positions(self) -> int:
        return len(self._wins[0]) * self._d.n * 2

    def _locate(self, pos: GamePosition):
        _check_position(self._d, pos)
        if len(pos.cops) != self.k:
            raise InputError(f"position has {len(pos.cops)} cops, expected {self.k}")
        self._complete()
        return _multiset_index(self._starts, pos.cops), 0 if pos.to_move == COPS else 1

    def win(self, pos: GamePosition) -> bool:
        """True when the cop side forces capture from this position."""
        ci, side = self._locate(pos)
        return bool(self._wins[side][ci] >> pos.robber & 1)

    def rank(self, pos: GamePosition):
        """Optimal half-moves to capture, or None for robber-win positions.

        0 on a capture.  With the cops to move, 1 in N+[C] minus bits(C),
        the level-1 wins, which the log does not hold, else the level of
        the first log entry that holds the robber's bit, entry i holding
        level 2i + 3.  With the robber to move, 1 + the largest
        cop-to-move rank over r and its out-neighbours, since a
        robber-to-move win falls one level after its last successor: those
        in N+[C] count 1 or 0, and one walk of the log finds the level of
        each of the rest, stopping at the last.
        """
        ci, side = self._locate(pos)
        r = pos.robber
        if not self._wins[side][ci] >> r & 1:
            return None
        if r in pos.cops:
            return 0
        near = 0
        for c in pos.cops:
            near |= self._closed_out[c]
        wanted = (self._closed_out[r] if side else 1 << r) & ~near
        level = 1
        if wanted:
            for level, (idx, lanes) in zip(count(3, 2), self._log):
                i = bisect_left(idx, ci)
                if i < len(idx) and idx[i] == ci:
                    # Lane i of an entry is its bytes from i * W / 8 on.
                    step = len(lanes) // len(idx)
                    wanted &= ~int.from_bytes(lanes[step * i:step * i + step], "little")
                    if not wanted:
                        break
        return level + side

    def _key(self, pos: GamePosition):
        """The rank of pos, or inf when the robber wins it."""
        rk = self.rank(pos)
        return inf if rk is None else rk

    def _step(self, pos: GamePosition, key):
        """The first successor of pos, in legal_moves order, whose key is
        key - 1, where key is pos's own key (and inf - 1 = inf).

        That is the move of least key for the cops and of greatest key for
        the robber, ties broken to the first: a rank is one more than the
        least (cops) or greatest (robber) rank among the successors, and a
        robber win always has a robber-win successor.
        """
        for move in legal_moves(self._d, pos):
            if self._key(move) == key - 1:
                return move
        raise RuntimeError(f"position has no successor of key {key - 1}")

    def best_move(self, pos: GamePosition):
        """The successor a winning cop side should move to: the first, in
        legal_moves order, one rank below pos (see _step), so ties break to
        the lexicographically smallest cop multiset.  None when the position
        is not a cop-to-move win or is already a capture.
        """
        rk = self.rank(pos)
        if pos.to_move != COPS or not rk:
            return None
        return self._step(pos, rk)

    def placements(self):
        """All cop multisets in lexicographic order."""
        return combinations_with_replacement(range(self._d.n), self.k)

    def placement_wins(self, cops) -> bool:
        """True when this placement beats every robber reply."""
        ci, _ = self._locate(GamePosition(cops, 0, COPS))
        return self._wins[0][ci] == (1 << self._d.n) - 1

    def winning_placements(self):
        """Cop multisets that beat every robber reply, lexicographic order."""
        self._complete()
        full = (1 << self._d.n) - 1
        for cw, mask in zip(self.placements(), self._wins[0]):
            if mask == full:
                yield cw

    def _first_winning_placement(self):
        """The lexicographically first winning placement, or None when no
        placement wins.

        When some placement wins and vertex 0 reaches every vertex, that is
        (0, ..., 0), and no further level runs.  If a placement P wins,
        cops that start on 0 walk to P along shortest paths, each staying
        put once it arrives.  Unless the robber is caught on the way, they
        arrive with the robber to move, and every robber move leads to a
        cop-to-move position against P, which P's full mask wins.  If some
        vertex w is out of 0's reach, a robber on w stays put forever and
        no cop from 0 ever reaches it, so (0, ..., 0) loses and the first
        winner lies elsewhere: the table is finished to find it.
        """
        d = self._d
        if self._some_placement_won() and _reachable(d.out_adj, 0) == d.n:
            return (0,) * self.k
        return next(self.winning_placements(), None)

    def positions(self):
        """Every canonical position of the game."""
        for cw in self.placements():
            for r in range(self._d.n):
                yield GamePosition(cw, r, COPS)
                yield GamePosition(cw, r, ROBBER)


def _multisets(n: int, t: int) -> int:
    """Number of multisets of size t over n vertices."""
    return comb(n + t - 1, t)


def _table_sizes(d: Digraph, k: int):
    """(positions, sub-move states, sub-move arcs, removal-table pairs) of
    the k-cop game on d, each in closed form: no loop over the stages, so
    any k is sized with n + 3 binomials."""
    n = d.n
    positions = _multisets(n, k) * n * 2
    # Stage j holds multisets(n, k - j) * multisets(n, j) states, (M, U)
    # with |U| = j.  A stage-j state moves its smallest unmoved cop u along
    # 1 + outdeg(u) arcs, and multisets(n - u, j - 1) unmoved multisets of
    # size j have smallest vertex u.  Each sum over the stages is
    # Vandermonde's identity for multisets,
    # sum over a + b = t of multisets(x, a) * multisets(y, b) = multisets(x + y, t),
    # with t = k for the states and t = k - 1 for the arcs.
    states = _multisets(2 * n, k)
    arcs = sum((1 + d.out_degree(u)) * _multisets(2 * n - u, k - 1) for u in range(n))
    # _removal_tables holds t pairs per t-multiset for t < k.  Since
    # t * multisets(n, t) = n * multisets(n + 1, t - 1), the hockey-stick
    # identity sums them to n * multisets(n + 2, k - 2).
    pairs = n * _multisets(n + 2, k - 2) if k > 1 else 0
    return positions, states, arcs, pairs


def _check_budget(d: Digraph, k: int, state_budget: int) -> None:
    state_budget = _at_least(state_budget, 1, "state budget")
    stems = ("{} positions exceed", "{} sub-move states exceed",
             "cop move table of {} sub-move arcs exceeds", "{} removal-table pairs exceed")
    for size, stem in zip(_table_sizes(d, k), stems):
        if size > state_budget:
            raise StateBudgetExceeded(
                f"{stem.format(size)} the state budget of {state_budget}"
            )


def _lane_width(n: int) -> int:
    """Bits per lane of a packed row: the smallest of 8, 16, 32 and 64 that
    holds n robber vertices, or else the next multiple of 64."""
    for width in (8, 16, 32, 64):
        if n <= width:
            return width
    return -(-n // 64) * 64


def _block_starts(n: int, k: int):
    """starts[t][u] for t = 0..k and u < n: the index of the first
    t-multiset over n vertices whose smallest vertex is u, in
    combinations_with_replacement order, that is the number of those whose
    smallest vertex is below u.  Row 0 is all zeros.

    Every offset into that order is a difference of two entries.  The
    t-multisets with smallest vertex >= u are the last ones, from lane
    starts[t][u] on, and prefixing u to each gives, in the same order, the
    block of (t + 1)-multisets that start with u, from lane
    starts[t + 1][u] on.  So the block of u at size t + 1 holds
    multisets(n, t) - starts[t][u] multisets, and row t + 1 is the running
    sum of those sizes: one binomial per row."""
    starts = [[0] * n]
    for t in range(k):
        size = _multisets(n, t)
        starts.append(list(accumulate([size - s for s in starts[-1][:-1]], initial=0)))
    return starts


def _multiset_index(starts, cops) -> int:
    """The place of the sorted multiset cops = (c_1, ..., c_k) in
    combinations_with_replacement order, read off the table starts of
    _block_starts.  The multisets before cops that agree with it on the
    first p - 1 vertices and have their p-th in [c_{p-1}, c_p), with
    c_0 = 0, end in the t-multisets over the vertices from c_{p-1} on whose
    smallest vertex is below c_p, t = k - p + 1: starts[t][c_p] -
    starts[t][c_{p-1}] of them.  Summed over p they are all the multisets
    before cops."""
    i = low = 0
    for t, c in zip(range(len(cops), 0, -1), cops):
        row = starts[t]
        i += row[c] - row[low]
        low = c
    return i


def _removal_tables(starts, k: int):
    """tables[t][i(M')], for each multiset M' of size t < k: the flat tuple
    of t pairs v, i(M' minus one v), one per distinct v of M', ascending
    but for the pairs marked v = -1, one per repeat of a vertex (flat to
    save memory: one tuple per M' rather than one per pair).  A reader of
    M''s row for the child (a,) + M' keeps the pairs with v > a, which
    drops a, if M' holds it, and the marks.

    Built from size t - 1 without any lookup: the multisets M' = (a,) + R
    of size t whose first vertex is a are the block from starts[t][a] on,
    with R running, in order, over the size-(t - 1) list from
    starts[t - 1][a] on.  Removing a leaves R; removing any other v of R
    leaves (a,) + (R minus v), by the same identity two sizes down.  So
    the row of M' is (a, i(R)) followed by R's row, each index moved by
    the block's offset, and the rows of a block are written one column
    at a time, by strided slices of a flat list.  Where R starts with a,
    the pair that would repeat a is marked -1, and R's own marks carry
    over, so each row ends with t - |set(M')| marked pairs.  The pushes
    derive the parents of each changed child row the same way from the
    table one size down (see _split_rows), so the largest table, that of
    size k, is never built.
    """
    tables, flat = [[()]], []
    for t in range(1, k):
        step, rows = 2 * t, len(tables[-1])
        # Row numbers are shared int objects: one per row, not one per pair.
        ids = list(range(rows))
        prev, flat = flat, [0] * (step * sum(rows - cut for cut in starts[t - 1]))
        for a, (put, cut, low) in enumerate(zip(starts[t], starts[t - 1], starts[max(t - 2, 0)])):
            at, end, offset = step * put, step * (put + rows - cut), cut - low
            flat[at:end:step] = [a] * (rows - cut)
            flat[at + 1:end:step] = ids[cut:]
            # Column c of the rows of the R from index cut on: the vertices
            # as they are, the indexes moved by offset.
            for c in range(step - 2):
                column = prev[(step - 2) * cut + c::step - 2]
                if c % 2:
                    column = map(ids.__getitem__, map(offset.__add__, column))
                flat[at + 2 + c:end:step] = column
            if t > 1:
                # The R that start with a: one per (t - 2)-multiset with min >= a.
                repeats = len(tables[-2]) - low
                flat[at + 2:at + 2 + step * repeats:step] = [-1] * repeats
        tables.append([*zip(*[iter(flat)] * step)])
    return tables


def _split_rows(idx, delta, starts, t: int):
    """(x, a, r, offset) for each changed child row i(M') = m with delta x,
    M' of size t >= 1: M' = (a,) + R, a the last vertex whose block start
    starts[t][a] is at or below m, and R at index r in the list one size
    down.  Removing any v of R leaves (a,) + (R minus v), at index
    offset + i(R minus v) (see _removal_tables).  idx is ascending, so
    the blocks are walked: a child in the block of the one before costs
    one compare, and only one past its block's end bisects."""
    firsts, cuts, lows = starts[t], starts[t - 1], starts[max(t - 2, 0)]
    last = len(firsts) - 1
    end = -1
    for m, x in zip(idx, delta):
        if m >= end:
            a = bisect_right(firsts, m) - 1
            cut = cuts[a]
            base, offset = cut - firsts[a], cut - lows[a]
            end = firsts[a + 1] if a < last else inf
        yield x, a, base + m, offset


def _nonzero_lanes(x: int, width: int):
    """(i, lane i of x) for each nonzero lane of the packed row x, in
    ascending i.  The top two are read off x's top bit, one shift each: a
    block that a push changed often gained no more lanes than that (each of
    the 14,553 on C_200 at k = 2 did), and a byte scan converts the whole
    row.  Below them, the first nonzero byte from each lane boundary on
    marks the next one."""
    top = []
    while x and len(top) < 2:
        i = (x.bit_length() - 1) // width
        lane = x >> width * i
        top.append((i, lane))
        x ^= lane << width * i
    lanes = []
    if x:
        step = width // 8
        raw = x.to_bytes(top[-1][0] * step, "little")
        flags = raw.translate(_NONZERO)
        pos = flags.find(1)
        while pos >= 0:
            start = pos - pos % step
            lanes.append((start // step, int.from_bytes(raw[start:start + step], "little")))
            pos = flags.find(1, start + step)
    return lanes + top[::-1]


def _lane_bytes(masks, width: int) -> bytes:
    """The little-endian bytes of the packed row whose lane i, width bits
    wide, holds masks[i]: width // 8 bytes per lane."""
    if width <= 64:
        return struct.pack(f"<{len(masks)}{_LANE_FORMATS[width]}", *masks)
    return b"".join(mask.to_bytes(width // 8, "little") for mask in masks)


def _pack(masks, width: int) -> int:
    """The packed row whose lane i, width bits wide, holds masks[i]."""
    return int.from_bytes(_lane_bytes(masks, width), "little")


def _settle_lanes(wins, idx, lanes, put: int, old: int, new: int, width: int, num_lanes: int):
    """Write the packed row new, num_lanes lanes, into wins[put:], where
    the lanes of old stood, new holding old's bits and more, then extend
    the array idx with the indexes put + i of the lanes i that gained
    bits, ascending, and the bytearray lanes with the bits each gained,
    laid out as _lane_bytes lays them.  While lanes fit one word, struct
    reads every lane of both rows in the little-endian format _pack
    writes; wider lanes read only the changed ones, by _nonzero_lanes."""
    if width <= 64:
        code = _LANE_FORMATS[width]
        fmt, size = f"<{num_lanes}{code}", num_lanes * width // 8
        wins[put:put + num_lanes] = struct.unpack(fmt, new.to_bytes(size, "little"))
        gained = struct.unpack(fmt, (new ^ old).to_bytes(size, "little"))
        before = len(idx)
        idx.extend(compress(range(put, put + num_lanes), gained))
        lanes += struct.pack(f"<{len(idx) - before}{code}", *filter(None, gained))
        return
    for i, mask in _nonzero_lanes(new ^ old, width):
        wins[put + i] |= mask
        idx.append(put + i)
        lanes += mask.to_bytes(width // 8, "little")


def _grouped_pushes(changed, tails, closed_in):
    """(p, pushed) per parent row p of the changed child rows, pushed
    mapping each u that occurs to the OR of the child rows x of p whose
    removed vertex v has u in N-[v].  changed holds (x, a, r, offset) per
    child M' = (a,) + R (see _split_rows): its parents are R, by removing
    a, and (a,) + (R minus v) for each other v of R, read off R's entry in
    tails, the removal table one size down.  Only the pairs of R's row
    with v > a are read: when a is in R, R's entry for a is R again, and
    the pairs marked -1 stand for repeats.

    The children are first grouped by parent, each group a flat
    [v, x, v, x, ...] list, and the groups are popped one parent at a
    time, so that a parent's rows are ORed while still narrow and each
    (parent, u) pays one shift, not one per child."""
    groups = defaultdict(list)
    for x, a, r, offset in changed:
        groups[r].extend((a, x))
        pairs = iter(tails[r])
        for v, q in zip(pairs, pairs):
            if v > a:
                groups[offset + q].extend((v, x))
    while groups:
        p, group = groups.popitem()
        pushed = {}
        items = iter(group)
        for v, x in zip(items, items):
            for u in closed_in[v]:
                pushed[u] = pushed.get(u, 0) | x
        yield p, pushed


def _reach_tables(closed_in):
    """(shift, table) pairs covering the vertices eight at a time: for a
    copwin mask m, the union of table[m >> shift & 255] over the pairs is
    the set of vertices with an arc into, or in, some escape, a vertex
    outside m.  closed_in[v] is the mask of N-[v].  When 8 does not divide
    n, the top table covers the last n % 8 vertices, one entry per value of
    their bits."""
    tables = []
    for shift in range(0, len(closed_in), 8):
        # Doubling: the entries with bit i clear, vertex shift + i an
        # escape, are those with it set, OR the mask of that vertex.
        table = [0]
        for into in closed_in[shift:shift + 8]:
            table = [t | into for t in table] + table
        tables.append((shift, table))
    return tables


def _reach_columns(reach_tables, width: int):
    """The translate tables of _settle_columns: per byte b of the vertices,
    the (c, table) pairs whose table maps byte c of a copwin mask to byte b
    of its reach_tables entry, as 256 bytes for bytes.translate, the top
    table padded with zeros.  The all-zero tables are dropped."""
    step = width // 8
    columns = [[] for _ in reach_tables]
    for shift, table in reach_tables:
        raw = _lane_bytes(table + [0] * (256 - len(table)), width)
        for b, pairs in enumerate(columns):
            column = raw[b::step]
            if any(column):
                pairs.append((shift // 8, column))
    return columns


def _settle_columns(copwin, robwin, ids, columns, full: int, width: int, idx, masks):
    """Settle the robber side of the cop multisets ids, ascending, by byte
    columns, _COLUMN_CHUNK multisets at a time, and append to idx and
    masks the indexes of those that gained, ascending, and the bits each
    gained.  The copwin and robwin masks of a chunk, two list slices when
    its indexes are contiguous (every chunk of level 2, which settles
    every multiset, is), are laid out as _pack lays a row, so byte c of
    every lane is the column raw[c::width // 8], and each translate
    settles one (c, b) pair of the chunk in C: byte b of robwin gains the
    vertices of byte b of full that no escape reaches and no robber win
    holds.  Lanes wider than one word are read back only where the OR of
    a chunk's gained bytes, one byte per lane, is nonzero."""
    step = width // 8
    for lo in range(0, len(ids), _COLUMN_CHUNK):
        chunk = ids[lo:lo + _COLUMN_CHUNK]
        size = len(chunk)
        first = chunk[0]
        if chunk[-1] - first == size - 1:
            # Contiguous indexes, as every chunk of level 2 is: two slices.
            cops, robs = copwin[first:first + size], robwin[first:first + size]
        else:
            # As a list, so that each index becomes an int once, not once
            # per pass over the chunk.
            chunk = list(chunk)
            cops, robs = [copwin[ci] for ci in chunk], [robwin[ci] for ci in chunk]
        raw, rob = _lane_bytes(cops, width), _lane_bytes(robs, width)
        by_byte = [raw[c::step] for c in range(len(columns))]
        ones = int.from_bytes(b"\1" * size, "little")
        out = bytearray(len(raw))
        any_gained = 0
        for b, pairs in enumerate(columns):
            reach = int.from_bytes(rob[b::step], "little")
            for c, table in pairs:
                reach |= int.from_bytes(by_byte[c].translate(table), "little")
            gained = (full >> 8 * b & 255) * ones & ~reach
            any_gained |= gained
            out[b::step] = gained.to_bytes(size, "little")
        if not any_gained:
            continue
        if width <= 64:
            gained = struct.unpack(f"<{size}{_LANE_FORMATS[width]}", out)
            changed, gains = [*compress(chunk, gained)], [*filter(None, gained)]
        else:
            hit = [*compress(range(size), any_gained.to_bytes(size, "little"))]
            changed = [chunk[i] for i in hit]
            gains = [int.from_bytes(out[i * step:i * step + step], "little") for i in hit]
        for ci, g in zip(changed, gains):
            robwin[ci] |= g
        idx.extend(changed)
        masks += gains


def _union_masks(vertex_masks, starts, k: int):
    """Per size t = 0..k, the OR of vertex_masks over each multiset of t
    vertices, in combinations_with_replacement order: the size-t multisets
    that start with v are v prefixed to a suffix of the size-(t - 1) list,
    from lane starts[t - 1][v] on (see _block_starts)."""
    unions = [[0]]
    for cuts in starts[:k]:
        prev = unions[-1]
        unions.append([vm | p for vm, cut in zip(vertex_masks, cuts) for p in prev[cut:]])
    return unions


def solve(d: Digraph, k: int, state_budget: int = DEFAULT_STATE_BUDGET) -> SolveResult:
    """Classify every position of the k-cop game on d.

    Raises StateBudgetExceeded before allocating anything when the
    positions, the sub-move states, the sub-move arcs or the removal-table
    pairs would not fit the budget.  The attractor runs up to the first
    level at which some placement beats every robber reply; the result
    runs the remaining levels under the first query that needs the whole
    table.
    """
    k = _at_least(k, 1, "cop count")
    _check_budget(d, k, state_budget)
    n = d.n
    full = (1 << n) - 1
    # Every offset into multiset order, built once: the unions below, the
    # pushes of _levels and the lookups of the result read it.
    starts = _block_starts(n, k)
    # Levels 0 and 1 in closed form: after level 1 the stage-j state
    # (M, U) holds bits(M) | N+[U], since the robber is caught where a cop
    # stands or where a cop still to move can step.
    bits = _union_masks([1 << v for v in range(n)], starts, k)
    closed_out = [1 << v | sum(1 << w for w in d.out_adj[v]) for v in range(n)]
    nbhd = _union_masks(closed_out, starts, k)
    # Stage 0 and stage k stay one mask per cop multiset.
    robwin, copwin = bits[k], nbhd[k]
    # The log of the cop side's changes from level 2 on.  Levels 0 and 1
    # need none: a rank-0 position has the robber on a cop, and a
    # cop-to-move win of rank 1 has it in the rest of N+[C].
    log = []
    levels = _levels(d, k, starts, bits, nbhd, copwin, robwin, log)
    # Masks only grow, so the first full one proves that k cops win.
    if full not in copwin:
        for changed in levels:
            if any(copwin[ci] == full for ci in changed):
                break
    return SolveResult(d, k, starts, closed_out, copwin, robwin, log, levels)


def _levels(d, k, starts, bits, nbhd, copwin, robwin, log):
    """Build the sub-move tables, then run the attractor from level 2 to
    its fixpoint, updating copwin and robwin in place.  Pass i settles the
    robber side of level 2i + 2, pushes its changes through the middle
    stages and lets stage k take that push as level 2i + 3.  Stage k's
    blocks write the cop side's changes straight into one index array
    and one bytearray of lanes (_settle_lanes); the pass appends their
    exact copies to log as SolveResult's entry, and yields, ascending, the
    cop multisets it changed on the cop side, the array of its entry.
    Nothing of a pass is kept for the next but the tables and the cop
    multisets it changed.

    A host without arcs reaches its fixpoint after one pass that settles
    nothing: every escape reaches only itself, so level 2's robber side
    gains nothing, and nothing is pushed.

    It holds no reference to the SolveResult that drives it, so a result
    dropped mid-attractor is freed at once, not by the cyclic collector.
    """
    n = d.n
    full = (1 << n) - 1
    width = _lane_width(n)
    closed_in = [sorted((v,) + d.in_adj[v]) for v in range(n)]
    closed_in_masks = [sum(1 << u for u in into) for into in closed_in]
    # The push into a middle stage j, 1 <= j < k, derives the parents of
    # each changed stage-(j - 1) row, a moved multiset of size k - j + 1,
    # from the block starts of that size, which split the rows by their
    # first vertex, and from removals[k - j], the table one size down.
    removals = _removal_tables(starts, k)
    # At j = 1 every cut is 0 and put is u, so with lanes of one word the
    # shifts of v fold into one multiply by fold[v]: solve(plane_q3, 4)
    # takes 1.4 times as long with the grouped push instead.  With wider
    # lanes the multiply is the slower one (1.3 times on C_200 at k = 2).
    fold = None
    if k > 1 and width <= 64:
        fold = [sum(1 << width * u for u in closed_in[v]) for v in range(n)]
    # The robber side's 8-bit lookups, and their byte columns, built at the
    # first level that settles by columns.
    reach_tables, columns = _reach_tables(closed_in_masks), None

    # rows[j][i(M)]: stage j, 1 <= j < k, lane i(U) holding the robber
    # vertices from which (M, U) reaches a robber-to-move cop win.  After
    # level 1 row M is bits(M) times the row with a 1 in every lane, OR the
    # row of the N+[U].
    rows = [None]
    for j in range(1, k):
        ones = _pack([1] * len(nbhd[j]), width)
        packed = _pack(nbhd[j], width)
        rows.append([b * ones | packed for b in bits[k - j]])
    # Stage k is kept in blocks, one per first cop vertex u: lane i of
    # block[u] holds copwin[puts[u] + i], the cop multiset (u,) + U' for
    # the U' at lane cuts[u] + i of a stage-(k - 1) row (see _block_starts).
    cuts, puts = starts[k - 1], starts[k]
    block_sizes = [len(nbhd[k - 1]) - cut for cut in cuts]
    block = [_pack(copwin[put:put + size], width) for put, size in zip(puts, block_sizes)]
    # Nothing below reads the set-up lists: free them for the whole run.
    del bits, nbhd

    # Level 1 may have changed every cop multiset on the cop side, so the
    # first pass settles the robber side of every multiset at level 2.
    cop_idx = range(len(copwin))
    while cop_idx:
        # Robber to move, an even level L: (C, r) wins when no successor of
        # r is outside copwin[C], i.e. r is outside the closed
        # in-neighbourhood of every cop-side escape.  Only cop sets with new
        # cop wins, at level L - 1, can change: a level that changed few
        # settles them one at a time, by 8-bit lookups, and one that changed
        # many by byte columns.  The gains, idx and delta, are the stage-0
        # delta the middle stages push below.
        idx, delta = array("I"), []
        if len(cop_idx) < _COLUMNS_FROM:
            for ci in cop_idx:
                cw = copwin[ci]
                reach = 0
                for shift, table in reach_tables:
                    reach |= table[cw >> shift & 255]
                gained = full & ~(reach | robwin[ci])
                if gained:
                    robwin[ci] |= gained
                    idx.append(ci)
                    delta.append(gained)
        else:
            columns = columns or _reach_columns(reach_tables, width)
            _settle_columns(copwin, robwin, cop_idx, columns, full, width, idx, delta)
        # Then these robber wins go back through the middle stages at once,
        # one sub-move stage at a time.  A changed row of stage j - 1
        # reaches row M' - v of stage j, for each distinct v in M', with u
        # in N-[v] prepended to every lane; its delta is what the push
        # added, found by comparing the stage with its copy from before.
        for j in range(1, k):
            if not idx:
                break
            stage = rows[j]
            snap = stage[:]
            tails = removals[k - j]
            changed = _split_rows(idx, delta, starts, k - j + 1)
            if j == 1 and fold:
                for x, a, r, offset in changed:
                    stage[r] |= x * fold[a]
                    pairs = iter(tails[r])
                    for v, q in zip(pairs, pairs):
                        if v > a:
                            stage[offset + q] |= x * fold[v]
            else:
                cut_at, put_at = starts[j - 1], starts[j]
                for p, pushed in _grouped_pushes(changed, tails, closed_in):
                    row = stage[p]
                    for u, x in pushed.items():
                        row |= x >> width * cut_at[u] << width * put_at[u]
                    stage[p] = row
            idx = list(compress(count(), map(ne, stage, snap)))
            delta = [stage[p] ^ snap[p] for p in idx]
        # Cops to move, level L + 1: stage k has one parent, M = (), whose
        # children are the changed rows of the (v,), at index v.  Each is
        # ORed into into_block[u] for the u in N-[v], so block u takes the
        # OR of the rows of the v in N+[u] with one shift.  The lanes the
        # blocks gained are the cop multisets the level changed, ascending
        # since the blocks are.
        into_block = [0] * n
        for v, x in zip(idx, delta):
            for u in closed_in[v]:
                into_block[u] |= x
        # Nothing below reads the stage copy, pushes or deltas: free them
        # before stage k's read.
        snap = pushed = idx = delta = x = None
        cop_idx, lanes = array("I"), bytearray()
        for u in compress(range(n), into_block):
            old = block[u]
            new = old | into_block[u] >> width * cuts[u]
            if new != old:
                block[u] = new
                _settle_lanes(copwin, cop_idx, lanes, puts[u], old, new, width, block_sizes[u])
        # The entry holds the gains exact in size: the array's spare room
        # and the bytearray are dropped with the pass.
        log.append((cop_idx[:], bytes(lanes)))
        cop_idx = log[-1][0]
        # The suspended generator keeps the tables and the log, not the
        # push into stage k and the gains the pass collected.
        into_block = old = lanes = None
        yield cop_idx


def _first_winning_result(d: Digraph, k_max: int, state_budget: int):
    """The SolveResult of the smallest k <= k_max with a placement beating
    every robber reply, or None when k_max cops do not suffice.  Its table
    is left as solve returned it, possibly unfinished."""
    k_max = _at_least(k_max, 1, "k_max")
    for k in range(1, k_max + 1):
        result = solve(d, k, state_budget)
        if result._some_placement_won():
            return result
        # Free this k's table before solve builds the larger next one: held,
        # it raised the order-3 plane's peak RSS by 0.5 MB.
        del result
    return None


def cop_number(d: Digraph, k_max: int, state_budget: int = DEFAULT_STATE_BUDGET):
    """Smallest k <= k_max with a placement that beats every robber reply.

    Returns None when even k_max cops do not suffice.  k_max = d.n always
    suffices because the cops can then cover every vertex.  It never
    finishes a table: the winning k is settled at the first attractor level
    that fills a placement's mask.
    """
    result = _first_winning_result(d, k_max, state_budget)
    return None if result is None else result.k


@dataclass(frozen=True)
class GameTrace:
    """A played-out game under the deterministic optimal strategies.

    snapshots[0] is the position right after both placements (cops to
    move); each later snapshot follows one half-move.  A capture trace ends
    on a position with the robber caught; a robber-escape trace ends at the
    first repeated position, with repeat holding the indexes of the two
    equal snapshots.  `copgame simulate` prints these fields as the keys of
    one JSON object.
    """

    k: int
    cops_start: tuple
    robber_start: int
    snapshots: tuple
    outcome: str
    repeat: tuple | None


def play_trace(
    d: Digraph,
    k: int,
    max_rounds: int | None = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> GameTrace:
    """Solve the game and play both sides deterministically.

    Every choice follows one order on positions: by rank, with robber wins
    counted as infinite.  The cops place on the placement beating the most
    robber replies and the robber on the vertex of greatest rank, ties
    broken to the lexicographically smallest placement or vertex.  Every
    move then follows one rule, for both sides: go to the first successor,
    in legal_moves order, whose key is one below the position's own (inf
    stays inf).  That is the successor of least rank for the cops and of
    greatest rank for the robber, ties broken to the smallest.

    Without max_rounds a trace always ends: every snapshot before the
    first repeat is a distinct position, so a game without capture repeats
    within num_positions half-moves.  max_rounds, when given, must be at
    least 1; a trace that reaches it raises StateBudgetExceeded.
    """
    if max_rounds is not None:
        max_rounds = _at_least(max_rounds, 1, "max_rounds")
    result = solve(d, k, state_budget)
    result._complete()
    key = result._key
    placements = zip(result.placements(), result._wins[0])
    cops_start, _ = max(placements, key=lambda pm: pm[1].bit_count())
    robber_start = max(range(d.n), key=lambda r: key(GamePosition(cops_start, r, COPS)))

    # seen maps each position played so far to its half-move index; in
    # insertion order its keys are the snapshots.
    start = (result.k, cops_start, robber_start)
    pos = GamePosition(cops_start, robber_start, COPS)
    seen = {pos: 0}
    while pos.robber not in pos.cops:
        if max_rounds is not None and len(seen) > 2 * max_rounds:
            raise StateBudgetExceeded(
                "trace exceeded the round limit without capture or repetition"
            )
        pos = result._step(pos, key(pos))
        if pos in seen:
            return GameTrace(*start, (*seen, pos), "robber-escape", (seen[pos], len(seen)))
        seen[pos] = len(seen)
    return GameTrace(*start, tuple(seen), "capture", None)
