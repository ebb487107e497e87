"""Verification suites: determinism, replay, CSV output and error paths."""

import ast
import csv
import hashlib
import random
from dataclasses import replace
from pathlib import Path

import pytest

import copgame.constructions
import copgame.digraph
import copgame.solver as solver
from copgame import (
    RUN_ORDER,
    Digraph,
    InputError,
    SuiteConfig,
    config_with_overrides,
    cop_number,
    gen_random_digraph,
    is_strongly_connected,
    is_weakly_connected,
    iter_all_digraphs,
    replay_instance,
    run_all,
    run_suite,
    write_reports,
)
from copgame import harness
from copgame.constructions import _random_rows
from copgame.digraph import _from_rows, _in_rows, _strongly_connected, _weakly_connected
from copgame.harness import CSV_HEADER, GIRTH_TARGETS, NAMED_INSTANCES

import oracles

TINY = SuiteConfig(trials=2, n_max=4)

# Row count and sha256 of every row of run_all(cfg=SuiteConfig(trials=3,
# n_max=4)), micros dropped, each row comma-joined and newline-terminated.
# Frozen: a change to any row of any suite changes the digest.
FROZEN_ROWS = (
    3283,
    "a81774d4b2417209aff3af522a14abda19fc6540fe8e36b7eb393fac76570cca",
)

# Row count and sha256 of run_all(cfg=SuiteConfig(trials=3, n_max=6,
# k_values=(3, 4, 5), state_budget=B)) for B = 1, 40 and 1000: per report,
# every row (micros dropped, comma-joined), then every error string, then
# the violating seeds space-joined, each line newline-terminated.  Small
# budgets cut many facts short, so this pins the error=state-budget rows
# that FROZEN_ROWS (no overrun) cannot.
OVERRUN_BUDGETS = (1, 40, 1000)
FROZEN_OVERRUN_ROWS = (
    14732,
    "3e93fe6d055aa1200b327467f6192b4c4015591cdd2b2c7820e2c33c18dcb7c5",
)


# Row count and sha256 of run_all() with every suite's default config
# (suite seed 1), hashed as FROZEN_ROWS is.  It pins what the small configs
# above cannot: theorem3's draws on n = 7 vertices, the 300 blocks of its
# random pass, and every attempt of a block up to the one that is kept.
FROZEN_DEFAULT_ROWS = (
    5053,
    "119356eec8edfbbdf0f65a80a6fc7de5d42bc41a2a6f470a7834f3bf0c8cb74f",
)


def rows_without_micros(report):
    return [rec.row()[:-1] for rec in report.records]


def row_digest(reports):
    """(row count, sha256) of the reports' rows, micros dropped, each row
    comma-joined and newline-terminated."""
    rows = [",".join(rec.row()[:-1]) + "\n" for report in reports for rec in report.records]
    return len(rows), hashlib.sha256("".join(rows).encode()).hexdigest()


class TestSuiteConfig:
    def test_defaults(self):
        cfg = SuiteConfig()
        assert cfg.trials == 100 and cfg.n_max == 6 and cfg.p == 0.3
        assert cfg.k_values == (3, 4) and cfg.seed == 1

    def test_validation(self):
        with pytest.raises(InputError):
            SuiteConfig(trials=0)
        with pytest.raises(InputError):
            SuiteConfig(n_max=1)
        with pytest.raises(InputError):
            SuiteConfig(p=1.5)
        with pytest.raises(InputError, match="k values must not be empty"):
            SuiteConfig(k_values=())
        with pytest.raises(InputError, match="k values must be within"):
            SuiteConfig(k_values=(3, 6))
        with pytest.raises(InputError, match="state budget must be >= 1, got 0"):
            SuiteConfig(state_budget=0)
        # a repeated k would write every theorem3 fact of that k twice
        with pytest.raises(InputError, match=r"k values must not repeat, got \(3, 3\)"):
            SuiteConfig(k_values=(3, 3))
        with pytest.raises(InputError, match="k values must not repeat"):
            config_with_overrides("theorem3", k_values=(4, 3, 4))

    def test_non_integer_counts_refused(self):
        # 3.0 would pass the k-value range check and fail mid-suite
        with pytest.raises(InputError, match="k value must be an integer, got 3.0"):
            SuiteConfig(k_values=(3.0,))
        with pytest.raises(InputError, match="n_max must be an integer, got 2.5"):
            SuiteConfig(n_max=2.5)
        with pytest.raises(InputError, match="seed must be an integer, got 1.5"):
            SuiteConfig(seed=1.5)
        with pytest.raises(InputError, match="trials must be an integer, got '2'"):
            SuiteConfig(trials="2")
        with pytest.raises(InputError, match="state budget must be an integer"):
            config_with_overrides("theorem3", state_budget=1e6)
        # whatever operator.index accepts is kept, as a plain int
        cfg = SuiteConfig(trials=True, k_values=[4, 3])
        assert cfg.trials == 1 and type(cfg.trials) is int
        assert cfg.k_values == (4, 3)

    def test_k_values_not_iterable_refused(self):
        with pytest.raises(InputError, match="k values must be iterable, got 3"):
            SuiteConfig(k_values=3)
        # every iterable of integers is taken, as a tuple
        for k_values, kept in (([3, 5], (3, 5)), (range(3, 5), (3, 4)),
                               ((k for k in (4, 3)), (4, 3)), ({5: None}, (5,))):
            assert SuiteConfig(k_values=k_values).k_values == kept

    def test_arc_probability_not_a_number_refused(self):
        with pytest.raises(InputError, match=r"arc probability must be in \[0, 1\], got '0.3'"):
            SuiteConfig(p="0.3")
        with pytest.raises(InputError, match="arc probability"):
            SuiteConfig(p=None)

    def test_negative_seed_rejected(self):
        # negative seeds are the fixed instances' (theorem1's plane is -1)
        with pytest.raises(InputError, match="seed must be >= 0"):
            SuiteConfig(seed=-1)
        with pytest.raises(InputError, match="seed must be >= 0"):
            config_with_overrides("theorem3", seed=-2)
        assert SuiteConfig(seed=0).seed == 0

    def test_unknown_suite_names_the_suites(self):
        with pytest.raises(InputError, match="unknown suite 'nope'; choose from lemma1"):
            config_with_overrides("nope")

    def test_overrides(self):
        cfg = config_with_overrides("lemma1", trials=7, n_max=None)
        assert cfg.trials == 7
        assert cfg.n_max == SuiteConfig(trials=200, n_max=6).n_max


class TestSuiteRuns:
    def test_all_tiny_suites_pass(self):
        for token in RUN_ORDER:
            report = run_suite(token, TINY)
            assert report.suite == token
            assert report.passed, f"{token}: {report.violations}"
            assert not report.errors, f"{token}: {report.errors}"
            assert report.instances_run > 0

    def test_record_counts(self):
        assert run_suite("lemma1", TINY).instances_run == 2
        # one record per subdivision factor
        assert run_suite("lemma2", TINY).instances_run == 4
        # one record per girth target
        assert run_suite("lemma4", TINY).instances_run == 2 * len(GIRTH_TARGETS)
        # the fixed plane instance rides along
        assert run_suite("theorem1", TINY).instances_run == 3

    def test_path_star_counts(self):
        exhaustive = sum(
            1
            for n in range(1, 5)
            for _, d in iter_all_digraphs(n)
            if is_strongly_connected(d)
        )
        report = run_suite("theorem3", TINY)
        expected = (exhaustive + TINY.trials) * len(TINY.k_values)
        assert report.instances_run == expected

    def test_unknown_token(self):
        with pytest.raises(InputError, match="unknown suite"):
            run_suite("lemma9", TINY)

    def test_path_star_k_values_validated(self):
        with pytest.raises(InputError, match="k values"):
            run_suite("theorem3", SuiteConfig(trials=1, n_max=3, k_values=(2,)))

    def test_run_all_order(self):
        reports = run_all(cfg=SuiteConfig(trials=1, n_max=3))
        assert [r.suite for r in reports] == list(RUN_ORDER)
        assert all(r.passed for r in reports)


class TestDeterminism:
    def test_records_identical_modulo_micros(self):
        for token in RUN_ORDER:
            a = run_suite(token, TINY)
            b = run_suite(token, TINY)
            assert rows_without_micros(a) == rows_without_micros(b)

    def test_seed_changes_instances(self):
        a = run_suite("lemma1", TINY)
        b = run_suite("lemma1", SuiteConfig(trials=2, n_max=4, seed=99))
        assert rows_without_micros(a) != rows_without_micros(b)

    def test_replay_matches_report(self):
        for token in RUN_ORDER:
            report = run_suite(token, TINY)
            seeds = {rec.seed for rec in report.records}
            for seed in sorted(seeds)[:3]:
                replayed = replay_instance(token, seed, TINY)
                original = [
                    rec.row()[:-1] for rec in report.records if rec.seed == seed
                ]
                assert [rec.row()[:-1] for rec in replayed] == original

    def test_replay_unknown_token(self):
        with pytest.raises(InputError):
            replay_instance("nope", 1, TINY)

    def test_frozen_rows(self):
        assert row_digest(run_all(cfg=SuiteConfig(trials=3, n_max=4))) == FROZEN_ROWS

    def test_frozen_default_rows(self):
        assert row_digest(run_all()) == FROZEN_DEFAULT_ROWS

    def test_frozen_default_rows_by_byte_columns(self, monkeypatch):
        # Every robber level of every solve settled by byte columns, the
        # path that the default run's tiny games leave to the per-multiset
        # lookups.
        monkeypatch.setattr(solver, "_COLUMNS_FROM", 0)
        assert row_digest(run_all()) == FROZEN_DEFAULT_ROWS

    def test_frozen_overrun_rows(self):
        count, lines = 0, []
        for budget in OVERRUN_BUDGETS:
            cfg = SuiteConfig(trials=3, n_max=6, k_values=(3, 4, 5), state_budget=budget)
            for report in run_all(cfg=cfg):
                count += len(report.records)
                lines += [",".join(rec.row()[:-1]) for rec in report.records]
                lines += report.errors
                lines.append(" ".join(map(str, report.violations)))
        digest = hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()
        assert (count, digest) == FROZEN_OVERRUN_ROWS

    def test_replay_every_exhaustive_seed(self):
        report = run_suite("theorem3", TINY)
        recorded = {}
        for rec in report.records:
            if rec.transform == "exhaustive":
                recorded.setdefault(rec.seed, []).append(rec.row()[:-1])
        assert len(recorded) == 1626
        for seed, rows in recorded.items():
            replayed = replay_instance("theorem3", seed, TINY)
            assert [rec.row()[:-1] for rec in replayed] == rows


def assert_predicates_agree(outs, d):
    """The row-level predicates on outs, the public tests on d, and the
    closure oracle all agree."""
    ins = _in_rows(outs)
    strong, weak = oracles.connectivity_by_closure(d)
    assert _strongly_connected(outs, ins) == is_strongly_connected(d) == strong
    assert _weakly_connected(outs, ins) == is_weakly_connected(d) == weak
    return strong, weak


class TestDraws:
    def test_every_sweep_code(self):
        # Every code on n <= 4 vertices: its rows are the arcs the code's
        # set bits name, over the ordered pairs in lexicographic order, and
        # the predicates agree on them.
        seen = []
        for n in range(1, 5):
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            for code in range(1 << len(pairs)):
                outs = harness._rows_of_code(n, code)
                d = Digraph(n, [pair for b, pair in enumerate(pairs) if code >> b & 1])
                assert _from_rows(outs) == d
                seen.append(assert_predicates_agree(outs, d))
        assert len(seen) == 4165
        assert sum(strong for strong, _ in seen) == 1626

    def test_sweep_covers_every_strong_class(self):
        # Isomorphism classes per n = 1 .. 4: the strong digraphs the sweep
        # decodes (OEIS A035512) and every code of iter_all_digraphs
        # (A000273).
        cfg = SuiteConfig(n_max=4)
        strong = {n: set() for n in range(1, 5)}
        for seed in harness._sweep_seeds(cfg):
            d = harness._decode_sweep_seed(seed, cfg)
            if d is not None:
                strong[d.n].add(oracles.canonical_form(d))
        every = [{oracles.canonical_form(d) for _, d in iter_all_digraphs(n)} for n in range(1, 5)]
        assert [len(classes) for classes in strong.values()] == [1, 1, 5, 83]
        assert [len(classes) for classes in every] == [1, 3, 16, 218]

    def test_seeded_draws(self):
        # 2,400 draws on up to 7 vertices, sparse to dense, with both
        # answers of both predicates among them.
        seen = set()
        for p in (0.15, 0.3, 0.5):
            cfg = SuiteConfig(n_max=7, p=p)
            for seed in range(800):
                outs = harness._draw(seed, cfg)
                seen.add(assert_predicates_agree(outs, _from_rows(outs)))
        assert seen == {(True, True), (False, True), (False, False)}

    def test_kept_draw_is_the_generator_digraph(self):
        # A kept instance is the digraph of the rows _random_rows draws
        # from the attempt seed's stream, after its vertex count.
        cfg = SuiteConfig(trials=40, n_max=7)
        for source in (harness._WEAK, harness._STRONG):
            for seed, d in source.instances(cfg):
                rng = random.Random(seed)
                assert d == _from_rows(_random_rows(rng, rng.randint(2, cfg.n_max), cfg.p))

    def test_in_rows_once_per_draw(self, monkeypatch):
        # The predicate's in-rows are the kept digraph's: a random pass and
        # the sweep compute _in_rows once per draw, and the kept digraphs
        # are those built from the rows alone.
        cfg = SuiteConfig(trials=40, n_max=7)
        sources = (harness._WEAK, harness._STRONG)
        want = [list(source.instances(cfg)) for source in sources]
        sweep = [harness._decode_sweep_seed(s, cfg) for s in harness._sweep_seeds(cfg)]
        calls = {"draws": 0, "in_rows": 0}

        def counted(key, f):
            def wrapper(*args):
                calls[key] += 1
                return f(*args)
            return wrapper

        monkeypatch.setattr(harness, "_draw", counted("draws", harness._draw))
        monkeypatch.setattr(harness, "_in_rows", counted("in_rows", _in_rows))
        monkeypatch.setattr(copgame.digraph, "_in_rows", counted("in_rows", _in_rows))
        assert [list(source.instances(cfg)) for source in sources] == want
        assert calls["in_rows"] == calls["draws"] > 80
        calls["in_rows"] = 0
        assert [harness._decode_sweep_seed(s, cfg) for s in harness._sweep_seeds(cfg)] == sweep
        assert calls["in_rows"] == len(sweep)

    def test_rows_consume_the_stream_as_the_generator(self):
        for seed in range(300):
            n = seed % 6 + 2
            rows = _random_rows(random.Random(seed), n, 0.3)
            assert _from_rows(rows) == gen_random_digraph(n, 0.3, seed)

    def test_draw_cap_refused_before_any_arc_is_drawn(self, monkeypatch):
        # run_suite refuses at its first attempt, when the stream has given
        # the vertex count and no arc yet
        made = []
        plain = random.Random

        def recording(seed):
            made.append((seed, plain(seed)))
            return made[-1][1]

        monkeypatch.setattr(harness.random, "Random", recording)
        monkeypatch.setattr(copgame.constructions, "MAX_RANDOM_DRAWS", 1)
        with pytest.raises(InputError, match="random draw count [0-9]+ exceeds the limit of 1$"):
            run_suite("lemma1", TINY)
        (seed, rng), = made
        fresh = plain(seed)
        fresh.randint(2, TINY.n_max)
        assert rng.getstate() == fresh.getstate()


class TestDrawOnce:
    @pytest.fixture
    def draws(self, monkeypatch):
        """The attempt seeds harness._draw is called with, in order."""
        seeds = []
        draw = harness._draw

        def counted(seed, cfg):
            seeds.append(seed)
            return draw(seed, cfg)

        monkeypatch.setattr(harness, "_draw", counted)
        return seeds

    def test_shared_source_drawn_once_per_run(self, draws):
        # lemma3 and lemma4 read the same source, lemma4 with three checks
        cfg = SuiteConfig(trials=20, n_max=6)
        run_suite("lemma3", cfg)
        once = draws[:]
        draws.clear()
        report = run_suite("lemma4", cfg)
        assert draws == once and len(once) > cfg.trials
        assert report.instances_run == len(GIRTH_TARGETS) * cfg.trials

    def test_shared_source_decoded_once_per_replay(self, draws):
        cfg = SuiteConfig(trials=20, n_max=6)
        seed = max(rec.seed for rec in run_suite("lemma3", cfg).records
                   if rec.seed % 1000 > 0)
        draws.clear()
        rows = replay_instance("lemma4", seed, cfg)
        assert len(rows) == len(GIRTH_TARGETS)
        assert draws == list(range(seed - seed % 1000, seed + 1))


def _sweep_seed(n, code):
    return -((n << 20) | code) - 1


class TestReplayRejects:
    def test_sweep_code_out_of_range(self):
        # n = 3 has 6 ordered pairs, so codes stop at 63
        assert _sweep_seed(3, 4095) == -3149824
        with pytest.raises(InputError, match="no theorem3 run records seed -3149824"):
            replay_instance("theorem3", -3149824)

    def test_sweep_vertex_count_out_of_range(self):
        assert _sweep_seed(9, 0) == -9437185
        with pytest.raises(InputError, match="no theorem3 run records"):
            replay_instance("theorem3", -9437185)
        with pytest.raises(InputError, match="no theorem3 run records"):
            replay_instance("theorem3", _sweep_seed(0, 0))
        # the 4-cycle (arcs 0->1, 1->2, 2->3, 3->0 are pairs 0, 4, 8 and 9)
        # is swept when n_max >= 4 only
        cycle = _sweep_seed(4, 1 << 0 | 1 << 4 | 1 << 8 | 1 << 9)
        rec = replay_instance("theorem3", cycle, TINY)[0]
        assert (rec.n, rec.arcs, rec.transform) == (4, 4, "exhaustive")
        with pytest.raises(InputError, match="no theorem3 run records"):
            replay_instance("theorem3", cycle, SuiteConfig(trials=1, n_max=3))

    def test_sweep_digraph_not_strongly_connected(self):
        # code 1 on two vertices is the single arc 0 -> 1
        with pytest.raises(InputError, match="no theorem3 run records"):
            replay_instance("theorem3", _sweep_seed(2, 1))
        assert replay_instance("theorem3", _sweep_seed(2, 3))

    def test_negative_seed_of_a_suite_without_it(self):
        # only theorem1 records a named seed, -1
        for token in RUN_ORDER:
            for i in range(token == "theorem1", len(NAMED_INSTANCES)):
                with pytest.raises(InputError, match=f"no {token} run records seed {-i - 1}$"):
                    replay_instance(token, -i - 1, TINY)

    def test_named_seeds_lie_above_the_sweep(self):
        assert -len(NAMED_INSTANCES) > max(harness._sweep_seeds(TINY)) == -(1 << 20) - 1

    def test_named_answer_is_what_theorem1_checks(self, monkeypatch):
        # theorem1 reads the plane's answer from the table: a wrong one fails
        build, _, exact = NAMED_INSTANCES["doubled-plane-q2"]
        monkeypatch.setitem(NAMED_INSTANCES, "doubled-plane-q2", (build, 4, exact))
        assert replay_instance("theorem1", -1)[0].verdicts == "p2_induced=absent;violation"
        assert run_suite("theorem1", TINY).violating_seeds == [-1]

    def test_replay_seed_follows_the_integer_rule(self):
        # A string, None or a float is refused before any replay work, as
        # every count is; an integer-like seed replays as its int.
        for seed in ("5", None, 1001.0):
            with pytest.raises(InputError, match="seed must be an integer"):
                replay_instance("lemma1", seed, TINY)
        with pytest.raises(InputError, match=r"seed must be an integer, got -1\.0"):
            replay_instance("theorem1", -1.0)
        rows = replay_instance("theorem1", oracles.Index(-1))
        assert [rec.row()[:-1] for rec in rows] == \
            [rec.row()[:-1] for rec in replay_instance("theorem1", -1)]
        assert all(type(rec.seed) is int for rec in rows)

    def test_random_seed_not_first_in_its_block(self):
        # trial 0 of TINY reads block 1000..1999; 1001 is its first weakly
        # connected draw, so a run never records 1002, though its draw is too
        assert [rec.seed for rec in run_suite("lemma1", TINY).records][0] == 1001
        assert replay_instance("lemma1", 1001, TINY)
        with pytest.raises(InputError, match="no lemma1 run records seed 1002"):
            replay_instance("lemma1", 1002, TINY)

    def test_random_seed_outside_the_run_blocks(self):
        # lemma1's default run (seed 1, 200 trials) reads blocks 1 .. 200
        # only, so no run of it records a seed of block 0, 201 or 10^6
        for seed in (1, 201000, 10**9):
            with pytest.raises(InputError, match=f"no lemma1 run records seed {seed}$"):
                replay_instance("lemma1", seed)
        # TINY reads blocks 1 and 2: each recorded seed replays under it, but
        # not under a run that starts after or stops before its block
        seeds = [rec.seed for rec in run_suite("lemma1", TINY).records]
        assert [s // 1000 for s in seeds] == [1, 2]
        for seed in seeds:
            assert replay_instance("lemma1", seed, TINY)
        with pytest.raises(InputError, match=f"no lemma1 run records seed {seeds[0]}"):
            replay_instance("lemma1", seeds[0], SuiteConfig(trials=2, n_max=4, seed=2))
        with pytest.raises(InputError, match=f"no lemma1 run records seed {seeds[1]}"):
            replay_instance("lemma1", seeds[1], SuiteConfig(trials=1, n_max=4))

    def test_random_seed_at_or_past_the_retry_cap(self, monkeypatch):
        # 1027 is the first strongly connected draw of lemma3's block 1, so
        # it replays at the cap of 1000; with a cap of 2 no run draws it
        cfg = SuiteConfig(trials=20, n_max=6)
        assert replay_instance("lemma3", 1027, cfg)
        monkeypatch.setattr(harness, "RETRY_CAP", 2)
        errors = run_suite("lemma3", cfg).errors
        assert errors[0] == "instance 0: no instance satisfied the predicate in 2 draws"
        with pytest.raises(InputError, match="no lemma3 run records seed 1027"):
            replay_instance("lemma3", 1027, cfg)

    def test_random_seed_failing_the_predicate(self):
        # with p = 0 no draw is weakly connected; 1000 opens block 1, the
        # one block this config's run reads
        cfg = SuiteConfig(trials=1, n_max=3, p=0.0)
        with pytest.raises(InputError, match="no lemma1 run records seed 1000"):
            replay_instance("lemma1", 1000, cfg)
        # theorem1 takes any instance, so the first attempt of a block is it
        assert replay_instance("theorem1", 1000, cfg)


class TestErrorPaths:
    def test_unsatisfiable_predicate_reports_errors(self):
        # with p = 0 no drawn instance is ever connected, so the retry cap
        # trips; that is an error, not a violation
        cfg = SuiteConfig(trials=1, n_max=2, p=0.0)
        report = run_suite("lemma3", cfg)
        assert report.passed
        assert report.instances_run == 0
        assert len(report.errors) == 1
        assert "no instance satisfied" in report.errors[0]

    def test_budget_exhaustion_reports_errors(self):
        # even one cop on two vertices needs 8 positions
        cfg = SuiteConfig(trials=1, n_max=4, state_budget=4)
        report = run_suite("lemma1", cfg)
        assert report.passed
        assert report.errors
        assert any("error=state-budget" in rec.verdicts for rec in report.records)

    def test_overrun_solved_once_for_every_free_k(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return cop_number(*args)

        monkeypatch.setattr(harness, "cop_number", counted)
        cfg = SuiteConfig(trials=1, n_max=3, k_values=(3, 4, 5), state_budget=1)
        # the complete digraph on 3 vertices (code 63) has no P_k* tuple for
        # any k, so its one overrun stands for all three rows
        rows = [rec.row()[4:-1] for rec in replay_instance("theorem3", _sweep_seed(3, 63), cfg)]
        assert rows == [["exhaustive", "", "", "error=state-budget"]] * 3
        assert len(calls) == 1
        # one solve per instance with a free k, however many of its k are free
        calls.clear()
        report = run_suite("theorem3", replace(cfg, n_max=4))
        free = [rec.seed for rec in report.records if "witness" not in rec.verdicts]
        assert len(free) == len(report.errors) > len(set(free))
        assert len(calls) == len(set(free))


class TestCsvOutput:
    def test_single_report(self, tmp_path):
        report = run_suite("lemma1", TINY)
        write_reports([report], tmp_path)
        with open(tmp_path / "lemma1.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_HEADER)
        assert len(rows) == 1 + report.instances_run
        assert rows[1][0] == "lemma1"

    def test_write_reports_layout(self, tmp_path):
        cfg = SuiteConfig(trials=1, n_max=3)
        reports = run_all(out_dir=tmp_path / "out", cfg=cfg)
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == sorted([f"{t}.csv" for t in RUN_ORDER] + ["summary.csv"])
        with open(tmp_path / "out" / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["suite", "instances", "violations", "errors", "violating_seeds"]
        assert [r[0] for r in rows[1:]] == list(RUN_ORDER)
        for row, report in zip(rows[1:], reports):
            assert int(row[1]) == report.instances_run
            assert int(row[2]) == 0

    def test_reruns_differ_only_in_micros(self, tmp_path):
        cfg = SuiteConfig(trials=1, n_max=3)
        run_all(out_dir=tmp_path / "a", cfg=cfg)
        run_all(out_dir=tmp_path / "b", cfg=cfg)
        for token in RUN_ORDER:
            with open(tmp_path / "a" / f"{token}.csv", newline="") as fh:
                rows_a = [row[:-1] for row in csv.reader(fh)]
            with open(tmp_path / "b" / f"{token}.csv", newline="") as fh:
                rows_b = [row[:-1] for row in csv.reader(fh)]
            assert rows_a == rows_b

    def test_out_dir_is_a_file(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("x")
        with pytest.raises(InputError, match="not a directory"):
            write_reports([], target)

    def test_out_dir_file_refused_before_any_suite(self, tmp_path, monkeypatch):
        target = tmp_path / "occupied"
        target.write_text("x")

        def no_suite(*args, **kwargs):
            raise AssertionError("a suite ran before the out_dir check")

        monkeypatch.setattr(harness, "run_suite", no_suite)
        with pytest.raises(InputError, match="not a directory"):
            run_all(out_dir=target)


class TestReadme:
    def test_library_block(self):
        # The README's Library example, run statement by statement; its
        # three bare expressions are the values its comments promise.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        scope, values = {}, []
        for stmt in ast.parse(block).body:
            if isinstance(stmt, ast.Expr):
                values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), scope))
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), scope)
        number, passed, replayed = values
        report = scope["report"]
        first = report.records[0].seed
        assert number == 2 and passed and replayed
        assert [rec.row()[:-1] for rec in replayed] == [
            rec.row()[:-1] for rec in report.records if rec.seed == first
        ]
