"""Batch verification suites over seeded digraph instances.

Each suite replays one structural claim on seeded instances and writes one
CSV row per checked fact.  Identical configurations reproduce identical
records except for the elapsed-micros column.  The suites are the entries
of one table, `_SUITES`, under the stable tokens that the command line and
the CSV output use; RUN_ORDER is the table's order.

    lemma1    clique substitution never lowers the cop number
    lemma2    arc subdivision by m = 2, 3 never lowers the cop number
    lemma3    clique substitution keeps strong connectivity and leaves no
              induced claw orientation
    lemma4    subdividing by l = 2, 3, 4 pushes the underlying girth to at
              least l and keeps strong connectivity
    theorem1  the cop number is at least the source count; the doubled
              order-2 plane has its NAMED_INSTANCES answer and no induced
              P_2
    theorem3  strongly connected hosts free of the forward-exact path
              tuple on k vertices have cop number at most k - 2

An entry holds the suite's default config and its passes; a pass is one
source of instances and its checks, each run over every instance of the
source in turn.  Random instances have seeds >= 0 (see _Drawn).  Fixed
instances have negative seeds.  Entry i of NAMED_INSTANCES, the paper's
fixed hosts with their cop numbers, has seed -(i + 1); only theorem1
records one, -1, its doubled order-2 plane.  And -((n << 20) | code) - 1
is the digraph with arc mask `code` (see iter_all_digraphs) in theorem3's
sweep of the strongly connected digraphs on 1 .. min(4, n_max) vertices.
Each random attempt and each sweep code is decided on its out- and
in-neighbour rows, and a Digraph is built only for the instance that is
kept.  `run_suite` runs the passes in order, and draws a source with
several checks (lemma4's girth targets) once, as a list; any other source
is read one instance at a time.  `replay_instance` recomputes the rows of
one (suite, seed) pair from the seed alone, decoding it once per source,
and rejects a seed that no run records.
"""

from __future__ import annotations

import csv
import random
import time
from dataclasses import dataclass, fields, replace
from functools import partial
from operator import attrgetter
from pathlib import Path

from .constructions import (
    _check_probability,
    _random_rows,
    clique_substitute_all,
    gen_claw_orientations,
    gen_directed_cycle,
    gen_directed_path,
    gen_projective_plane_incidence_doubled,
    subdivide_arcs,
)
from .digraph import (
    Digraph,
    _from_rows,
    _in_rows,
    _strongly_connected,
    _weakly_connected,
    count_sources,
    is_strongly_connected,
    underlying_girth,
)
from .errors import InputError, StateBudgetExceeded, _as_int, _at_least
from .patterns import find_induced, find_pk_star
from .solver import DEFAULT_STATE_BUDGET, cop_number

RETRY_CAP = 1000

GIRTH_TARGETS = (2, 3, 4)

# theorem3's exhaustive sweep covers 1 .. min(_SWEEP_N, n_max) vertices.
_SWEEP_N = 4

# name -> (builder, cop number, exact): the paper's fixed hosts, each with
# its answer.  An exact entry needs exactly that many cops; otherwise one
# cop fewer loses, so the number is a lower bound.  Entry i has seed
# -(i + 1).  The builders look their function up when called, so that
# rebinding the module's names (as a tracer does) reaches every call.
NAMED_INSTANCES = {
    # Bonato and Burgess, J. Combin. Des. 21 (2013): the incidence graph of
    # a projective plane of order q needs q + 1 cops, and the doubled plane
    # is that graph with each edge as two arcs.
    "doubled-plane-q2": (lambda: gen_projective_plane_incidence_doubled(2), 3, True),
    "doubled-plane-q3": (lambda: gen_projective_plane_incidence_doubled(3), 4, True),
    # One cop can only follow the robber round a directed cycle; two close
    # it, one waiting ahead of the robber while the other follows.
    "cycle-100": (lambda: gen_directed_cycle(100), 2, True),
    # Aigner and Fromme, Discrete Appl. Math. 8 (1984): a graph of girth at
    # least 5 needs as many cops as its least degree; two close any cycle.
    "bicycle-200": (
        lambda: Digraph(200, [(v, (v + s) % 200) for v in range(200) for s in (1, -1)]),
        2,
        True,
    ),
    # Lemma 1: clique substitution never lowers the cop number, so the
    # order-3 plane's answer bounds it below.  Its game at that many cops
    # (1.07 G positions) is beyond the state budget.
    "clique-sub-plane-q3": (
        lambda: clique_substitute_all(gen_projective_plane_incidence_doubled(3)),
        4,
        False,
    ),
}


def _claim(name: str):
    """(k_max, cop_number(d, k_max)) that a named entry's answer asserts:
    c cops win and c - 1 lose when it is exact, else c - 1 cops lose."""
    _, c, exact = NAMED_INSTANCES[name]
    return (c, c) if exact else (c - 1, None)


@dataclass(frozen=True)
class SuiteConfig:
    trials: int = 100
    n_max: int = 6
    p: float = 0.3
    k_values: tuple = (3, 4)
    state_budget: int = DEFAULT_STATE_BUDGET
    seed: int = 1

    def __post_init__(self):
        # Counts are checked and made plain ints before any run: a float
        # k would pass the membership test below and fail mid-suite.
        # Negative seeds are the fixed instances'.
        for name, low, what in (("trials", 1, "trials"), ("n_max", 2, "n_max"),
                                ("state_budget", 1, "state budget"), ("seed", 0, "seed")):
            object.__setattr__(self, name, _at_least(getattr(self, name), low, what))
        try:
            k_values = iter(self.k_values)
        except TypeError:
            raise InputError(f"k values must be iterable, got {self.k_values!r}") from None
        object.__setattr__(self, "k_values", tuple(_as_int(k, "k value") for k in k_values))
        _check_probability(self.p)
        if not self.k_values:
            raise InputError("k values must not be empty")
        for k in self.k_values:
            if k not in (3, 4, 5):
                raise InputError(f"k values must be within {{3, 4, 5}}, got {k}")
        if len(set(self.k_values)) < len(self.k_values):
            raise InputError(f"k values must not repeat, got {self.k_values}")


@dataclass
class InstanceRecord:
    suite: str
    seed: int
    n: int
    arcs: int
    transform: str
    c_before: int | None
    c_after: int | None
    verdicts: str
    micros: int

    def row(self) -> list[str]:
        # Plain attribute reads: dataclasses.astuple deep-copies every field.
        return ["" if v is None else str(v) for v in _row_values(self)]


CSV_HEADER = tuple(f.name for f in fields(InstanceRecord))
_row_values = attrgetter(*CSV_HEADER)


@dataclass
class ExperimentReport:
    suite: str
    records: list
    violations: list
    errors: list

    @property
    def instances_run(self) -> int:
        return len(self.records)

    @property
    def violations_found(self) -> int:
        return len(self.violations)

    @property
    def violating_seeds(self) -> list:
        return list(dict.fromkeys(self.violations))

    @property
    def passed(self) -> bool:
        return not self.violations


# ------------------------------------------------------------------ checks
# A check takes an instance and its config and yields one fact per row:
# (transform, c_before, c_after, verdicts, outcome).  An outcome of True or
# False appends ";ok" or ";violation" to the verdicts, None appends
# nothing.  Every check gets its cop numbers from _cop_numbers, the one path
# from a budget overrun to a row: it returns (overrun rows, cop numbers), the
# rows empty when every game is solved, else the transform's one
# error=state-budget row, whose outcome is the StateBudgetExceeded, with
# None in place of the cop numbers.  The check yields the rows first.


def _cop_numbers(transform, cfg, *games):
    """([], the cop numbers of the (digraph, k_max) games), or ([transform's
    error row], None) when one of them overruns the state budget."""
    try:
        return [], [cop_number(d, k_max, cfg.state_budget) for d, k_max in games]
    except StateBudgetExceeded as exc:
        return [(transform, None, None, "error=state-budget", exc)], None


def _clique_sub_check(d, cfg):
    big = clique_substitute_all(d)
    overrun, c = _cop_numbers("clique-sub", cfg, (d, d.n), (big, big.n))
    yield from overrun
    if c is not None:
        c_before, c_after = c
        yield "clique-sub", c_before, c_after, f"n_after={big.n}", c_after >= c_before


def _subdivision_check(d, cfg, factors):
    overrun, before = _cop_numbers("subdivide", cfg, (d, d.n))
    yield from overrun
    if before is None:
        return
    for m in factors:
        sub = subdivide_arcs(d, m)
        overrun, after = _cop_numbers(f"subdivide-m{m}", cfg, (sub, sub.n))
        yield from overrun
        if after is not None:
            ok = after[0] >= before[0]
            yield f"subdivide-m{m}", before[0], after[0], f"n_after={sub.n}", ok


_CLAWS = tuple(gen_claw_orientations())


def _claw_check(d, cfg):
    big = clique_substitute_all(d)
    sc = is_strongly_connected(big)
    found = []
    for i, claw in enumerate(_CLAWS):
        w = find_induced(big, claw)
        if w is not None:
            found.append(f"claw{i}={'-'.join(map(str, w.vertices))}")
    detail = ";".join(found) if found else "claws=absent"
    yield "clique-sub", None, None, f"sc={int(sc)};{detail}", sc and not found


def _girth_check(d, cfg, l):
    sub = subdivide_arcs(d, l)
    g = underlying_girth(sub)
    sc = is_strongly_connected(sub)
    yield f"subdivide-m{l}", None, None, f"girth={g};sc={int(sc)}", g >= l and sc


def _source_bound_check(d, cfg):
    sources = count_sources(d)
    overrun, c = _cop_numbers("", cfg, (d, d.n))
    yield from overrun
    if c is not None:
        yield "", c[0], None, f"sources={sources}", c[0] >= sources


def _plane_check(d, cfg, name):
    k_max, answer = _claim(name)
    p2 = "absent" if find_induced(d, gen_directed_path(2)) is None else "present"
    overrun, c = _cop_numbers(name, cfg, (d, k_max))
    yield from overrun
    if c is not None:
        yield name, c[0], None, f"p2_induced={p2}", p2 == "absent" and c[0] == answer


def _path_star_check(d, cfg, transform):
    # d is solved once, at its first free k; an overrun's row then stands
    # for every free k.
    solved = None
    for k in cfg.k_values:
        w = find_pk_star(d, k)
        if w is not None:
            witness = "-".join(map(str, w.vertices))
            yield transform, None, None, f"k={k};witness={witness}", None
            continue
        if solved is None:
            solved = _cop_numbers(transform, cfg, (d, d.n))
        overrun, c = solved
        yield from overrun
        if c is not None:
            yield transform, c[0], None, f"k={k};free", c[0] <= k - 2


def _run_check(report, check, seed, d, cfg) -> None:
    """Add the rows, violations and errors of one check on one instance to
    report; a row's micros is the time spent on its fact."""
    t0 = time.perf_counter_ns()
    for transform, c_before, c_after, verdicts, outcome in check(d, cfg):
        if isinstance(outcome, StateBudgetExceeded):
            report.errors.append(
                f"seed {seed}: {outcome}; raise state_budget to run this instance"
            )
        elif outcome is not None:
            verdicts += ";ok" if outcome else ";violation"
            if not outcome:
                report.violations.append(seed)
        t1 = time.perf_counter_ns()
        micros = (t1 - t0) // 1000
        report.records.append(
            InstanceRecord(
                report.suite, seed, d.n, d.arc_count, transform, c_before, c_after,
                verdicts, micros,
            )
        )
        t0 = t1


def _draw(seed: int, cfg: SuiteConfig) -> list:
    """The out-neighbour rows of the instance a random attempt seed
    denotes: vertex count first, then arcs, from one seeded stream."""
    rng = random.Random(seed)
    n = rng.randint(2, cfg.n_max)
    return _random_rows(rng, n, cfg.p)


@dataclass(frozen=True)
class _Drawn:
    """Random instances.  Instance i of a run is the first attempt seed
    (cfg.seed + i) * 1000 + j, j < RETRY_CAP, whose draw satisfies the
    predicate, or None when no attempt does; replay refuses an attempt
    index j at or past RETRY_CAP, as no run draws it.  The predicate reads
    a draw's out- and in-neighbour rows, so a Digraph is built only for
    the attempt that is kept."""

    predicate: object  # (out rows, in rows) -> bool

    def instances(self, cfg: SuiteConfig):
        for block in range(cfg.seed, cfg.seed + cfg.trials):
            yield self._first(block, RETRY_CAP, cfg)

    def decode(self, seed: int, cfg: SuiteConfig):
        """The digraph of an attempt seed, or None unless its block is one
        a run reads, its attempt index is below RETRY_CAP and it is the
        block's first draw that satisfies the predicate."""
        block, j = divmod(seed, 1000)
        if block not in range(cfg.seed, cfg.seed + cfg.trials) or j >= RETRY_CAP:
            return None
        found = self._first(block, j + 1, cfg)
        return found[1] if found is not None and found[0] == seed else None

    def _first(self, block: int, draws: int, cfg: SuiteConfig):
        """(attempt seed, digraph) of the first of the block's first `draws`
        attempts whose draw satisfies the predicate, or None."""
        for s in range(block * 1000, block * 1000 + draws):
            outs = _draw(s, cfg)
            ins = _in_rows(outs)
            if self.predicate(outs, ins):
                return s, _from_rows(outs, ins=ins)
        return None


@dataclass(frozen=True)
class _Fixed:
    """Fixed instances, under negative seeds."""

    seeds: object  # cfg -> the candidate seeds, in record order
    decode: object  # (seed, cfg) -> the digraph, or None if no run records it

    def instances(self, cfg: SuiteConfig):
        for s in self.seeds(cfg):
            d = self.decode(s, cfg)
            if d is not None:
                yield s, d


def _rows_of_code(n: int, code: int) -> list:
    """The out-neighbour rows of the loop-free digraph on 0..n-1 whose arcs
    are the set bits of code, bit b standing for the b-th ordered pair
    (u, v), u != v, in lexicographic order: the pairs of tail u are the
    n - 1 bits from u(n - 1) on, and (u, v) is the (v - [v > u])-th."""
    rows = []
    for u in range(n):
        bits = code >> u * (n - 1)
        rows.append([v for v in range(n) if v != u and bits >> v - (v > u) & 1])
    return rows


def iter_all_digraphs(n: int):
    """Every loop-free digraph on vertices 0..n-1, as (code, digraph); the
    code is the arc-subset bitmask over lexicographic ordered pairs."""
    for code in range(1 << n * (n - 1)):
        yield code, _from_rows(_rows_of_code(n, code))


def _sweep_seeds(cfg: SuiteConfig):
    for n in range(1, min(_SWEEP_N, cfg.n_max) + 1):
        for code in range(1 << n * (n - 1)):
            yield -((n << 20) | code) - 1


def _decode_sweep_seed(seed: int, cfg: SuiteConfig):
    """The digraph a theorem3 seed encodes, or None unless the sweep under
    cfg records it: n in 1 .. min(4, n_max), a code below 2^(n(n-1)) and a
    strongly connected digraph."""
    n, code = divmod(-seed - 1, 1 << 20)
    if not 1 <= n <= min(_SWEEP_N, cfg.n_max) or code >> n * (n - 1):
        return None
    outs = _rows_of_code(n, code)
    ins = _in_rows(outs)
    return _from_rows(outs, ins=ins) if _strongly_connected(outs, ins) else None


def _named(name: str) -> _Fixed:
    """The one instance of a NAMED_INSTANCES entry, under its seed."""
    seed = -1 - list(NAMED_INSTANCES).index(name)
    return _Fixed(lambda cfg: (seed,),
                  lambda s, cfg: NAMED_INSTANCES[name][0]() if s == seed else None)


# ------------------------------------------------------------------- table

# The predicates are the row-level helpers behind is_weakly_connected and
# is_strongly_connected, called on a draw's rows before any Digraph exists.
_WEAK = _Drawn(_weakly_connected)
_STRONG = _Drawn(_strongly_connected)

# token -> (default config, passes); a pass is (instance source, checks),
# and each check runs over every instance of the source in turn.
_SUITES = {
    "lemma1": (SuiteConfig(trials=200, n_max=6), [(_WEAK, [_clique_sub_check])]),
    "lemma2": (
        SuiteConfig(trials=200, n_max=5),
        [(_WEAK, [partial(_subdivision_check, factors=(2, 3))])],
    ),
    "lemma3": (SuiteConfig(trials=100, n_max=6), [(_STRONG, [_claw_check])]),
    "lemma4": (
        SuiteConfig(trials=100, n_max=6),
        [(_STRONG, [partial(_girth_check, l=l) for l in GIRTH_TARGETS])],
    ),
    "theorem1": (
        SuiteConfig(trials=200, n_max=6),
        [
            (_Drawn(lambda outs, ins: True), [_source_bound_check]),
            (_named("doubled-plane-q2"), [partial(_plane_check, name="doubled-plane-q2")]),
        ],
    ),
    "theorem3": (
        SuiteConfig(trials=300, n_max=7, k_values=(3, 4)),
        [
            (
                _Fixed(_sweep_seeds, _decode_sweep_seed),
                [partial(_path_star_check, transform="exhaustive")],
            ),
            (_STRONG, [partial(_path_star_check, transform="random")]),
        ],
    ),
}

RUN_ORDER = tuple(_SUITES)

DEFAULT_SUITE_CONFIGS = {token: default for token, (default, _) in _SUITES.items()}


def _lookup(token: str, cfg: SuiteConfig | None):
    if token not in _SUITES:
        raise InputError(f"unknown suite '{token}'; choose from {', '.join(RUN_ORDER)}")
    default, passes = _SUITES[token]
    return passes, default if cfg is None else cfg


def run_suite(token: str, cfg: SuiteConfig | None = None) -> ExperimentReport:
    """Run one suite: each check over every instance of its pass in turn.
    A source with several checks is drawn once and kept as a list; any
    other is read one instance at a time."""
    passes, cfg = _lookup(token, cfg)
    report = ExperimentReport(token, [], [], [])
    for source, checks in passes:
        instances = source.instances(cfg)
        if len(checks) > 1:
            instances = list(instances)
        for check in checks:
            for i, instance in enumerate(instances):
                if instance is None:
                    report.errors.append(
                        f"instance {i}: no instance satisfied the predicate in {RETRY_CAP} draws"
                    )
                else:
                    _run_check(report, check, *instance, cfg)
    return report


def replay_instance(token: str, seed: int, cfg: SuiteConfig | None = None):
    """Recompute the records a recorded (suite, seed) pair denotes.  The
    seed is taken as every count is (see errors); one that no run of the
    suite under cfg records raises InputError."""
    seed = _as_int(seed, "seed")
    passes, cfg = _lookup(token, cfg)
    report = ExperimentReport(token, [], [], [])
    for source, checks in passes:
        d = source.decode(seed, cfg)
        if d is not None:
            for check in checks:
                _run_check(report, check, seed, d, cfg)
    if not report.records:
        raise InputError(f"no {token} run records seed {seed}")
    return report.records


def _report_dir(out_dir) -> Path:
    """out_dir as a Path, created if missing; InputError when it exists and
    is not a directory or cannot be created.  run_all and the verify
    command call it before any suite runs, so a bad out_dir costs no suite
    time."""
    out = Path(out_dir)
    if out.exists() and not out.is_dir():
        raise InputError(f"{out} exists and is not a directory")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"{out} cannot be created: {exc.strerror or exc}") from None
    return out


def write_reports(reports, out_dir) -> None:
    """One CSV per suite, one row per record, plus a summary.csv in out_dir."""
    out = _report_dir(out_dir)
    for report in reports:
        with open(out / f"{report.suite}.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            writer.writerows(rec.row() for rec in report.records)
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("suite", "instances", "violations", "errors", "violating_seeds"))
        for report in reports:
            writer.writerow(
                (
                    report.suite,
                    report.instances_run,
                    report.violations_found,
                    len(report.errors),
                    " ".join(map(str, report.violating_seeds)),
                )
            )


def run_all(out_dir=None, cfg: SuiteConfig | None = None):
    """Run every suite in order; write CSVs when out_dir is given."""
    if out_dir is not None:
        _report_dir(out_dir)
    reports = [run_suite(token, cfg) for token in RUN_ORDER]
    if out_dir is not None:
        write_reports(reports, out_dir)
    return reports


def config_with_overrides(token: str, **overrides) -> SuiteConfig:
    """The default config of a suite with the given fields replaced."""
    _, default = _lookup(token, None)
    given = {k: v for k, v in overrides.items() if v is not None}
    return replace(default, **given)
